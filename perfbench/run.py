"""Host-time benchmark of the reproduction: end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload table2_cold --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
ledger (see README.md for the layer-to-metric table).

Timing.  Each workload is a list of units (one public call each).  A run
makes several passes over the units and keeps each unit's median repeat
(the faster of the middle two for an even count).  The pass count depends
only on ``--seconds`` and the workload, never on how fast a pass went, so
two commits are measured the same way.

``wall_s`` is the sum of the units' median repeats, in host seconds.  A
shared host runs the same code up to 1.75x slower in busy phases that
last from seconds to minutes; the median follows the phase that prevails
during a run, where the fastest repeat jumps whenever one short quiet
moment covers a unit.  ``setup_s`` is the CPU time of the fastest fresh
interpreter importing ``repro`` plus that of the fastest run of the
workload's own set-up step.  Both are sampled before the first pass and
after every pass, so they see the same host phases as ``wall_s``.
``peak_rss_mb`` is the high-water RSS after the first set-up and the first
pass: later passes and set-up samples only add allocator fragmentation.

Correctness.  Every unit's result is checked after its timed call, and
its simulated results must be byte-identical across repeats.  A unit
that raises or fails a check counts as failed and leaves the timings.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Where a traced run writes its spans.
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Fresh interpreters importing ``repro`` per set-up sample.
IMPORTS_PER_SAMPLE = 4
MIN_PASSES = 2
#: Largest share of the traced wall time that may stay in the units' own
#: root spans rather than in a layer below them.
UNATTRIBUTED_MAX = 0.25

WORKLOAD_NAMES = ("table2_cold", "tune_serve")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


@dataclass
class UnitRecord:
    """Every repeat of one unit in this run."""

    times_ns: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # (root ns, root, counts, sim)
    fingerprint: Optional[str] = None
    error: Optional[str] = None


class SetupTimer:
    """Samples what a user pays before the first unit can start.

    Each sample times fresh interpreters importing ``repro``, one at a
    time, and one run of the workload's set-up step in this process.  Both
    are CPU times: the children's from ``RUSAGE_CHILDREN`` and this
    process's ``process_time``.  ``seconds`` adds the fastest of each.
    """

    def __init__(self, workload, seed: Optional[int]) -> None:
        self.workload = workload
        self.seed = seed
        self.imports: list[float] = []
        self.steps: list[float] = []

    def sample(self):
        """Take one sample; returns the set-up step's units."""
        code = f"import sys; sys.path.insert(0, {SRC!r}); import repro"
        for _ in range(IMPORTS_PER_SAMPLE):
            before = children_cpu_s()
            subprocess.run([sys.executable, "-c", code], check=True)
            self.imports.append(children_cpu_s() - before)
        release_memory()
        start = time.process_time()
        units = self.workload.setup(self.seed)
        self.steps.append(time.process_time() - start)
        return units

    @property
    def seconds(self) -> float:
        return min(self.imports) + min(self.steps)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def release_memory() -> None:
    """Free the last repeat's garbage and hand freed pages back, so the
    peak RSS is one repeat's peak rather than a growing heap's."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_repeat(suites, unit, ledger):
    """Time one call of ``unit``; with a ledger, trace it instead."""
    if ledger is None:
        start = time.perf_counter_ns()
        result = unit.run()
        elapsed = time.perf_counter_ns() - start
        root, counts = None, None
    else:
        suites.instrument(ledger)
        try:
            root = ledger.begin_unit(unit.span)
            try:
                result = unit.run()
            finally:
                ledger.end(root)
        finally:
            ledger.unwrap_all()
        elapsed = ledger.spans[root].duration_ns
        counts = Counter(ledger.counts)
        counts.update(suites.device_counts(ledger.devices))
        ledger.devices = []
    suites.assert_in_process()
    return elapsed, root, counts, unit.check(result)


def median_repeat(values: list, key=None):
    """The median element; the lower of the middle two for an even count."""
    return sorted(values, key=key)[(len(values) - 1) // 2]


def measure(suites, units, passes: int, ledger, after_pass=None):
    """Run every pass, calling ``after_pass`` after each.  Returns the
    records and the RSS peak (KiB) after the first pass."""
    records = {unit.name: UnitRecord() for unit in units}
    if len(records) != len(units):
        raise ValueError("unit names must be unique")
    modes = (None, ledger) if ledger is not None else (None,)
    first_peak_kb = 0
    for index in range(passes):
        for unit in units:
            record = records[unit.name]
            if record.error is not None:
                continue
            for mode in modes:
                release_memory()
                try:
                    elapsed, root, counts, checked = run_repeat(
                        suites, unit, mode
                    )
                    if record.fingerprint is None:
                        record.fingerprint = checked.fingerprint
                    elif checked.fingerprint != record.fingerprint:
                        raise AssertionError(
                            "simulated results differ between repeats"
                        )
                except Exception:
                    record.error = traceback.format_exc()
                    print(f"unit {unit.name} failed:\n{record.error}",
                          file=sys.stderr)
                    break
                if mode is None:
                    record.times_ns.append(elapsed)
                else:
                    counts.update(checked.counts)
                    record.traced.append((elapsed, root, counts, checked.sim))
        if index == 0:
            first_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if after_pass is not None:
            after_pass()
    return records, first_peak_kb


def layer_metrics(suites, records, ledger, units) -> tuple[dict, list]:
    """The per-layer ledger from each unit's median traced repeat, and
    what keeps it from attributing the traced wall time to the layers."""
    values: dict[str, float] = {name: 0.0 for name, _ in suites.PER_LAYER}
    self_ns: Counter = Counter()
    inclusive_ns: Counter = Counter()
    counts: Counter = Counter()
    traced_ns = untraced_ns = serve_ns = root_self_ns = 0
    problems = []
    for unit in units:
        record = records[unit.name]
        if record.error is not None:
            continue
        elapsed, root, unit_counts, sim = median_repeat(
            record.traced, key=lambda r: r[0]
        )
        traced_ns += elapsed
        untraced_ns += median_repeat(record.times_ns)
        if unit.span.startswith("serve."):
            serve_ns += median_repeat(record.times_ns)
        root_self_ns += ledger.spans[root].self_ns
        self_ns.update(ledger.self_times(root))
        for span in ledger.subtree(root):
            inclusive_ns[span.name] += span.duration_ns
            if span.end_ns < span.start_ns:
                problems.append(f"{unit.name}: span {span.name} left open")
        counts.update(unit_counts)
        values.update(sim)
    # Self times add up to the roots' durations by construction; what can
    # fail is how much of that stays in the roots, below no layer.
    if traced_ns:
        values["trace.unattributed_frac"] = root_self_ns / traced_ns
    if values["trace.unattributed_frac"] > UNATTRIBUTED_MAX:
        problems.append(
            f"{values['trace.unattributed_frac']:.1%} of the traced wall time "
            f"is in no layer (at most {UNATTRIBUTED_MAX:.0%} allowed)"
        )
    for name, ns in self_ns.items():
        values[suites.SELF_TIME_METRIC.get(name, f"{name}.s")] = ns / 1e9
    for name in values:
        if name in counts:
            values[name] = float(counts[name])
    values["input.mb"] = counts["input.bytes"] / 1e6
    if counts["sim.events"]:
        values["sim.us_per_event"] = self_ns["sim"] / 1e3 / counts["sim.events"]
    if counts["tuner.evaluated"]:
        values["tuner.useful_frac"] = (
            counts["tuner.completed"] / counts["tuner.evaluated"]
        )
        values["tuner.ms_per_config"] = (
            inclusive_ns["tuner.search"] / 1e6 / counts["tuner.evaluated"]
        )
    if counts["serve.requests"]:
        values["serve.host_ms_per_request"] = (
            serve_ns / 1e6 / counts["serve.requests"]
        )
    if untraced_ns:
        values["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
    return values, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed put into every workload's params and the serve plan "
        "(default: each workload keeps its own)",
    )
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import suites
    from ledger import Ledger

    workload = suites.WORKLOADS[args.workload]
    setup = SetupTimer(workload, args.seed)
    units = setup.sample()

    passes = max(MIN_PASSES, int(args.seconds // workload.nominal_pass_s))
    ledger = Ledger() if args.trace else None
    # A traced run does not report setup_s, so it takes no more samples.
    after_pass = None if args.trace else setup.sample
    records, peak_kb = measure(suites, units, passes, ledger, after_pass)

    failed = sum(1 for r in records.values() if r.error is not None)
    attempted = len(units)
    correct = failed == 0
    for unit in units:
        record = records[unit.name]
        if record.error is None:
            repeats = " ".join(f"{t / 1e9:.3f}" for t in record.times_ns)
            print(f"{unit.name}: repeats {repeats} s")

    if args.trace:
        metrics, problems = layer_metrics(suites, records, ledger, units)
        metrics["error_rate"] = failed / attempted
        for problem in problems:
            print(f"attribution: {problem}", file=sys.stderr)
            correct = False
        os.makedirs(OUT_DIR, exist_ok=True)
        seed = "default" if args.seed is None else args.seed
        ledger.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-{seed}.json"))
        units_of = dict(suites.PER_LAYER)
    else:
        wall_ns = sum(
            median_repeat(r.times_ns) for r in records.values() if r.error is None
        )
        metrics = {
            "wall_s": wall_ns / 1e9,
            "setup_s": setup.seconds,
            "peak_rss_mb": peak_kb / 1024.0,
            "success_rate": (attempted - failed) / attempted,
        }
        units_of = dict(END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
