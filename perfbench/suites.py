"""The benchmark's workloads: timed units, their checks, and the layer map.

Every workload runs in one process with one worker and memory-only
caches: the library's defaults fork one worker per core, which would
measure the host's scheduler rather than the program.

* ``table2_cold`` — the Table-2 suite users start with:
  ``run_workload_models`` for the six paper pipelines on K20c with
  ``check=True`` and a fresh in-memory trace cache per unit.  Input
  synthesis and the functional kernels dominate; the tuner and serve
  layers stay idle.
* ``tune_serve`` — two parts that both run interpreted simulator code
  and no input synthesis.  The tuner part is ``tune_workload`` for ldpc
  and reyes at the CLI's 80-config budget over traces recorded during
  set-up; it is replay-bound, so the exec layer, GPU model and engine do
  nearly all the work.  ldpc exercises the deadline-timeout path, reyes
  prefix racing.  The serve part sends open-loop Poisson arrivals through
  ``plan_serve`` + ``run_serve_cells(workers=1)``: ldpc under sustained
  overload with admission control and dynamic batching, ldpc and reyes
  at a moderate rate.  It is the only code that touches ``serve/`` and
  per-request ``obs`` work.  face_detection is left out: at ~9 ms of host
  time per request it would dominate, and ``table2_cold`` already covers
  its kernels.

The tuner and serve parts share one workload so that each run measures
long enough to ride out the host's busy phases (see README.md).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.executor import FunctionalExecutor, ReplayExecutor
from repro.core.models import HybridModel
from repro.core.models.base import ExecutionModel
from repro.core.models.hybrid import HybridEngine
from repro.core.tuner import offline
from repro.core.tuner.offline import OfflineTuner, TunerOptions
from repro.core.tuner.pool import pool_size
from repro.core.tuner.profiler import profile_pipeline, replay_placeholders
from repro.gpu.device import GPUDevice
from repro.gpu.specs import K20C
from repro.harness import runner
from repro.harness.runner import run_workload_models, tune_workload
from repro.harness.tracecache import TraceCache, workload_fingerprint
from repro.serve import plan_serve, run_serve_cells
from repro.serve import report as serve_report
from repro.serve.arrivals import parse_arrival_spec
from repro.serve.report import ServeReport
from repro.workloads.registry import all_workloads, get_workload

from ledger import Ledger

TABLE2_WORKLOADS = (
    "cfd", "face_detection", "ldpc", "pyramid", "rasterization", "reyes",
)
TABLE2_COLUMNS = ("baseline", "megakernel", "versapipe")
TUNE_WORKLOADS = ("ldpc", "reyes")
#: ``repro tune``'s default ``--budget``.
TUNE_BUDGET = 80

#: Arrival seed of the serve cells when no ``--seed`` is given.
SERVE_DEFAULT_SEED = 42


@dataclass(frozen=True)
class ServeCell:
    name: str
    workload: str
    arrival: str
    slo_ms: float
    #: Requests offered.  The cell's horizon ends just after the last of
    #: them, so every seed offers the same load; it is sized so at least
    #: 1,000 requests complete and the p99 has ten samples beyond it.
    requests: int
    admission: str = "none"
    max_batch: Optional[int] = None


SERVE_CELLS = (
    ServeCell("overload", "ldpc", "poisson:3.0", 12.0, 1400,
              admission="slo-ewma:1.0", max_batch=8),
    ServeCell("ldpc", "ldpc", "poisson:0.8", 7.8, 1100),
    ServeCell("reyes", "reyes", "poisson:0.8", 0.024, 1100),
)
#: Completions each serve cell needs for a p99 with ten samples beyond it.
MIN_COMPLETED = 1000


@dataclass
class Checked:
    """What a unit's check extracts from one repeat's result."""

    #: Exact simulated results, emitted as per-layer metrics.
    sim: dict
    #: Exact layer counts read from the result.
    counts: dict
    #: Everything deterministic about the result; repeats must agree.
    fingerprint: str


@dataclass
class Unit:
    """One timed call into the program, repeated once per pass."""

    name: str
    #: Root span name, which is also the layer its own code belongs to.
    span: str
    run: Callable[[], Any]
    #: Raises when the result is wrong; otherwise returns :class:`Checked`.
    check: Callable[[Any], Checked]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Host seconds of one pass on a 2-core host; a run makes
    #: ``max(2, seconds // nominal_pass_s)`` passes.
    nominal_pass_s: float
    setup: Callable[[Optional[int]], list[Unit]]


def seeded(params: object, seed: Optional[int]) -> object:
    """The workload's own params, with ``seed`` swapped in when given."""
    return params if seed is None else dataclasses.replace(params, seed=seed)


# ----------------------------------------------------------------------
# table2_cold
# ----------------------------------------------------------------------
def table2_unit(name: str, params: object) -> Unit:
    """The three Table-2 columns of one workload, from a cold trace cache."""
    spec = get_workload(name)

    def run():
        cache = TraceCache()
        cells = run_workload_models(
            name, K20C, params, check=True, cache=cache, workers=1
        )
        return cells, cache

    def check(result):
        cells, cache = result
        stats = cache.stats()
        trace = cache.get(workload_fingerprint(spec, params))
        sim = {
            f"sim.{name}.{column}_ms": cells[column].time_ms
            for column in TABLE2_COLUMNS
        }
        paper = spec.paper
        ratio = (cells["baseline"].time_ms / cells["versapipe"].time_ms) / (
            paper.baseline_ms / paper.versapipe_ms
        )
        # 1.0 when the simulated speedup matches the paper's, lower the
        # further it is off in either direction.
        sim[f"paper.{name}.speedup_agreement"] = min(ratio, 1.0 / ratio)
        detail = {
            column: [
                cells[column].result.cycles,
                cells[column].result.config_description,
            ]
            for column in TABLE2_COLUMNS
        }
        return Checked(
            sim=sim,
            counts={
                "trace.hits": stats.hits,
                "trace.misses": stats.misses,
                "trace.nodes": trace.num_tasks,
            },
            fingerprint=json.dumps([sim, detail], sort_keys=True),
        )

    return Unit(name, f"harness.{name}", run, check)


def _table2_setup(seed: Optional[int]) -> list[Unit]:
    return [
        table2_unit(name, seeded(get_workload(name).default_params(), seed))
        for name in TABLE2_WORKLOADS
    ]


# ----------------------------------------------------------------------
# tune_serve, tuner part
# ----------------------------------------------------------------------
def _recorded_outputs(trace) -> list:
    return [
        output
        for node_id in sorted(trace.recorded_outputs)
        for output in trace.recorded_outputs[node_id]
    ]


def _paper_plan_ms(spec, params, trace) -> float:
    """Replayed time of the paper-described plan, adaptation off like
    every tuner candidate."""
    pipeline = spec.build_pipeline(params)
    config = dataclasses.replace(
        spec.versapipe_config(pipeline, K20C, params), online_adaptation=False
    )
    result = HybridModel(config).run(
        pipeline,
        GPUDevice(K20C),
        ReplayExecutor(pipeline, trace),
        replay_placeholders(trace),
    )
    return result.time_ms


def _tune_setup(seed: Optional[int]) -> list[Unit]:
    """Record each workload's trace into a memory-only cache, as the
    cold path of ``tune_workload`` does, so the units only search."""
    units = []
    for name in TUNE_WORKLOADS:
        spec = get_workload(name)
        params = seeded(spec.default_params(), seed)
        _profile, trace = profile_pipeline(
            spec.build_pipeline(params),
            K20C,
            spec.initial_items(params),
            record_outputs=True,
        )
        cache = TraceCache()
        cache.put(workload_fingerprint(spec, params), trace)
        reference: dict[str, float] = {}

        def run(name=name, params=params, cache=cache):
            before = cache.stats()
            tuned = tune_workload(
                name,
                K20C,
                params,
                options=TunerOptions(workers=1, max_configs=TUNE_BUDGET),
                cache=cache,
            )
            return tuned, cache.stats() - before

        def check(result, spec=spec, params=params, trace=trace,
                  reference=reference):
            tuned, stats = result
            if "paper_ms" not in reference:
                # Outputs recorded at set-up belong to every repeat's search.
                spec.check_outputs(params, _recorded_outputs(trace))
                reference["paper_ms"] = _paper_plan_ms(spec, params, trace)
            report = tuned.report
            if not report.best_time_ms <= reference["paper_ms"]:
                raise AssertionError(
                    f"{spec.name}: tuner best {report.best_time_ms} ms is "
                    f"worse than the paper plan's {reference['paper_ms']} ms"
                )
            provenance = report.provenance()
            return Checked(
                sim={f"tuner.{spec.name}.best_ms": report.best_time_ms},
                counts={
                    "trace.hits": stats.hits,
                    "trace.misses": stats.misses,
                    "trace.nodes": tuned.trace.num_tasks,
                    "tuner.evaluated": report.num_evaluated,
                    "tuner.completed": provenance["completed"],
                    "tuner.timeout": provenance["timeout"],
                    "tuner.dominated": provenance["dominated"],
                    "tuner.prefix_eliminated": provenance["prefix-eliminated"],
                },
                fingerprint=json.dumps(
                    report.canonical_payload(), sort_keys=True
                ),
            )

        units.append(Unit(f"tune_{name}", "harness.tune", run, check))
    return units


# ----------------------------------------------------------------------
# tune_serve, serve part
# ----------------------------------------------------------------------
def _horizon_ms(arrival: str, requests: int, seed: int) -> float:
    """A duration that admits exactly ``requests`` arrivals of the
    cell's seeded schedule: halfway between the last one and the next."""
    process = parse_arrival_spec(arrival)
    span_ms = 1.0
    while True:
        times = process.times(span_ms, random.Random(seed))
        if len(times) > requests:
            return (times[requests - 1] + times[requests]) / 2.0
        span_ms *= 2.0


def _serve_setup(seed: Optional[int]) -> list[Unit]:
    seed = SERVE_DEFAULT_SEED if seed is None else seed
    latest: dict[str, ServeReport] = {}
    units = []
    for cell in SERVE_CELLS:
        [config] = plan_serve(
            (cell.workload,),
            arrival_spec=cell.arrival,
            duration_ms=_horizon_ms(cell.arrival, cell.requests, seed),
            slo_ms=cell.slo_ms,
            seed=seed,
            admission=cell.admission,
            max_batch=cell.max_batch,
        )

        def run(cell=cell, config=config):
            [report] = run_serve_cells([config], workers=1)
            latest[cell.name] = report
            return report, report.payload()

        def check(result, cell=cell):
            report, payload = result
            if report.requests != cell.requests:
                raise AssertionError(
                    f"serve {cell.name}: {report.requests} requests offered, "
                    f"planned {cell.requests}"
                )
            if report.requests != report.completed + report.shed:
                raise AssertionError(
                    f"serve {cell.name}: {report.requests} requests != "
                    f"{report.completed} completed + {report.shed} shed"
                )
            if report.completed < MIN_COMPLETED:
                raise AssertionError(
                    f"serve {cell.name}: only {report.completed} completed; "
                    f"the p99 needs {MIN_COMPLETED}"
                )
            prefix = f"serve.{cell.name}"
            return Checked(
                sim={
                    f"{prefix}.p50_ms": report.latency.percentile(50),
                    f"{prefix}.p99_ms": report.latency.percentile(99),
                    f"{prefix}.goodput_per_ms": report.goodput_per_ms,
                    f"{prefix}.offered_attainment": (
                        report.slo.offered_attainment
                    ),
                },
                counts={
                    "serve.requests": report.requests,
                    "serve.completed": report.completed,
                    "serve.shed": report.shed,
                },
                fingerprint=json.dumps(payload, sort_keys=True),
            )

        units.append(Unit(f"serve_{cell.name}", f"serve.{cell.name}", run, check))

    def rollup():
        cells = [latest[cell.name] for cell in SERVE_CELLS]
        return cells, serve_report.merge_serve_reports(cells).payload()

    def check_rollup(result):
        cells, payload = result
        for key in ("requests", "completed", "shed"):
            if payload[key] != sum(getattr(r, key) for r in cells):
                raise AssertionError(f"serve rollup: {key} does not add up")
        return Checked(
            sim={}, counts={}, fingerprint=json.dumps(payload, sort_keys=True)
        )

    units.append(Unit("serve_rollup", "obs", rollup, check_rollup))
    return units


def _tune_serve_setup(seed: Optional[int]) -> list[Unit]:
    return _tune_setup(seed) + _serve_setup(seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table2_cold", 14.0, _table2_setup),
        Workload("tune_serve", 15.0, _tune_serve_setup),
    )
}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
_SERVE_NAMES = [cell.name for cell in SERVE_CELLS]

#: Every per-layer metric with its unit, in report order.  Each traced run
#: reports all of them; a layer its workload does not touch reads 0.
PER_LAYER = (
    [
        ("input.s", "s"), ("input.calls", "count"), ("input.mb", "MB"),
        ("kernels.s", "s"), ("kernels.calls", "count"),
        ("kernels.items", "count"),
        ("sim.self_s", "s"), ("sim.events", "count"),
        ("sim.us_per_event", "us"),
        ("gpu.kernel_launches", "count"), ("gpu.blocks_launched", "count"),
        ("trace.hits", "count"), ("trace.misses", "count"),
        ("trace.nodes", "count"),
    ]
    + [(f"harness.{w}.s", "s") for w in TABLE2_WORKLOADS]
    + [
        ("harness.tune.s", "s"),
        ("tuner.profile_s", "s"), ("tuner.search_s", "s"),
        ("tuner.evaluated", "count"), ("tuner.completed", "count"),
        ("tuner.timeout", "count"), ("tuner.dominated", "count"),
        ("tuner.prefix_eliminated", "count"), ("tuner.useful_frac", "ratio"),
        ("tuner.ms_per_config", "ms"),
    ]
    + [(f"serve.{c}.s", "s") for c in _SERVE_NAMES]
    + [
        ("serve.requests", "count"), ("serve.completed", "count"),
        ("serve.shed", "count"), ("serve.host_ms_per_request", "ms"),
        ("obs.report_s", "s"),
    ]
    + [(f"sim.{w}.{column}_ms", "ms") for w in TABLE2_WORKLOADS
       for column in TABLE2_COLUMNS]
    + [(f"tuner.{w}.best_ms", "ms") for w in TUNE_WORKLOADS]
    + [
        (f"serve.{c}.{m}", u) for c in _SERVE_NAMES
        for m, u in (("p50_ms", "ms"), ("p99_ms", "ms"),
                     ("goodput_per_ms", "1/ms"),
                     ("offered_attainment", "ratio"))
    ]
    + [(f"paper.{w}.speedup_agreement", "ratio") for w in TABLE2_WORKLOADS]
    + [
        ("trace.overhead_frac", "ratio"), ("trace.unattributed_frac", "ratio"),
        ("error_rate", "ratio"),
    ]
)

#: Span names whose self time is reported under another metric name; the
#: rest (``harness.*``, ``serve.*``) report as ``<span>.s``.
SELF_TIME_METRIC = {
    "input": "input.s",
    "kernels": "kernels.s",
    "sim": "sim.self_s",
    "tuner.profile": "tuner.profile_s",
    "tuner.search": "tuner.search_s",
    "obs": "obs.report_s",
}


# ----------------------------------------------------------------------
# Guards and tracing
# ----------------------------------------------------------------------
def assert_in_process() -> None:
    """A timed unit must not start worker processes."""
    if pool_size() or multiprocessing.active_children():
        raise AssertionError("a timed unit started worker processes")


def payload_bytes(obj: object, depth: int = 0) -> int:
    """Bytes of the ndarrays reachable from an input payload."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if depth > 4:
        return 0
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif dataclasses.is_dataclass(obj):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return 0
    return sum(payload_bytes(child, depth + 1) for child in children)


def _count_input(ledger: Ledger, args, kwargs, result) -> None:
    ledger.counts["input.calls"] += 1
    ledger.counts["input.bytes"] += payload_bytes(result)


def _count_task(ledger: Ledger, args, kwargs, result) -> None:
    ledger.counts["kernels.calls"] += 1
    ledger.counts["kernels.items"] += 1


def _count_batch(ledger: Ledger, args, kwargs, result) -> None:
    ledger.counts["kernels.calls"] += 1
    ledger.counts["kernels.items"] += len(result)


def _keep_device(ledger: Ledger, args, kwargs, result) -> None:
    ledger.devices.append(args[0])


def _model_classes() -> list[type]:
    found, stack = [], [ExecutionModel]
    while stack:
        cls = stack.pop()
        if "run" in cls.__dict__:
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def instrument(ledger: Ledger) -> None:
    """Wrap the public calls at each layer boundary (see README.md)."""
    for spec in all_workloads().values():
        ledger.wrap(spec, "initial_items", "input", _count_input)
    ledger.wrap(FunctionalExecutor, "run_task", "kernels", _count_task)
    ledger.wrap(FunctionalExecutor, "run_batch", "kernels", _count_batch)
    for cls in _model_classes():
        ledger.wrap(cls, "run", "sim")
    ledger.wrap(HybridEngine, "run", "sim")
    # The tuner replays each candidate through this one function.
    ledger.wrap(offline, "_replay_config", "sim")
    ledger.wrap(GPUDevice, "__init__", None, _keep_device)
    ledger.wrap(runner, "profile_from_trace", "tuner.profile")
    ledger.wrap(OfflineTuner, "tune", "tuner.search")
    ledger.wrap(ServeReport, "payload", "obs")
    ledger.wrap(serve_report, "merge_serve_reports", "obs")


def device_counts(devices: list) -> dict:
    """Engine events and launch counters of every device a unit built."""
    return {
        "sim.events": sum(d.engine.events_processed for d in devices),
        "gpu.kernel_launches": sum(d.metrics.kernel_launches for d in devices),
        "gpu.blocks_launched": sum(d.metrics.blocks_launched for d in devices),
    }

