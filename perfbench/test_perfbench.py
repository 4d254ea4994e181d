"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench -q

They drive ``run.main`` on quick-parameter units so they finish in
seconds; the real workloads are exercised by running the benchmark.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import random
import time

import pytest

import run as bench
import suites
from ledger import Ledger
from repro.serve.arrivals import parse_arrival_spec
from repro.workloads.registry import get_workload

QUICK = ("ldpc", "reyes")


def _quick_units(seed=None):
    return [
        suites.table2_unit(name, suites.seeded(get_workload(name).quick_params(), seed))
        for name in QUICK
    ]


def _broken(unit):
    def check(result):
        unit.check(result)
        raise AssertionError("injected failure")

    return suites.Unit(f"{unit.name}_broken", unit.span, unit.run, check)


def _main(monkeypatch, capsys, tmp_path, setup, trace):
    """Run the benchmark on ``setup``'s units; returns the result object."""
    monkeypatch.setitem(
        suites.WORKLOADS,
        "table2_cold",
        suites.Workload("table2_cold", 1e9, setup),
    )
    monkeypatch.setattr(bench, "IMPORTS_PER_SAMPLE", 1)
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
    code = bench.main(
        ["--workload", "table2_cold", "--seconds", "1", "--trace", str(trace)]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert set(bench.WORKLOAD_NAMES) == set(suites.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        suites.PER_LAYER
    )


def test_unit_names_are_unique_within_each_workload():
    for workload in suites.WORKLOADS.values():
        names = [unit.name for unit in workload.setup(None)]
        assert len(set(names)) == len(names), workload.name


def test_end_to_end_metrics_are_emitted_with_units(monkeypatch, capsys, tmp_path):
    out = _main(monkeypatch, capsys, tmp_path, _quick_units, trace=0)
    assert out["correct"] is True
    assert (out["attempted"], out["failed"]) == (len(QUICK), 0)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(bench.END_TO_END)
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert out["metrics"]["success_rate"]["value"] == 1.0


def _traced_units(seed=None):
    # At quick params the harness's own work is a third of a unit, so
    # ldpc runs at its default params, where the layers hold nearly all.
    ldpc = get_workload("ldpc")
    [_ldpc_quick, reyes] = _quick_units(seed)
    return [
        suites.table2_unit("ldpc", suites.seeded(ldpc.default_params(), seed)),
        reyes,
    ]


def test_traced_run_emits_every_layer_metric(monkeypatch, capsys, tmp_path):
    out = _main(monkeypatch, capsys, tmp_path, _traced_units, trace=1)
    # ``correct`` also asserts that the layers below the units' root spans
    # account for the traced wall time.
    assert out["correct"] is True
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == dict(suites.PER_LAYER)
    for name in ("input.s", "kernels.s", "sim.self_s", "sim.events",
                 "trace.nodes", "harness.ldpc.s", "sim.reyes.versapipe_ms"):
        assert metrics[name]["value"] > 0, name
    assert metrics["error_rate"]["value"] == 0.0
    spans = json.loads((tmp_path / "spans-table2_cold-default.json").read_text())
    assert {span[0] for span in spans} >= {"harness.ldpc", "input", "kernels", "sim"}


def test_injected_failure_raises_error_rate(monkeypatch, capsys, tmp_path):
    def setup(seed):
        units = _quick_units(seed)
        return units + [_broken(units[0])]

    out = _main(monkeypatch, capsys, tmp_path, setup, trace=0)
    assert out["correct"] is False
    assert (out["attempted"], out["failed"]) == (3, 1)
    assert out["metrics"]["success_rate"]["value"] == pytest.approx(2 / 3)

    out = _main(monkeypatch, capsys, tmp_path, setup, trace=1)
    assert out["metrics"]["error_rate"]["value"] == pytest.approx(1 / 3)


def test_traced_self_times_account_for_the_traced_wall_time():
    ledger = Ledger()
    for unit in _quick_units():
        elapsed, root, counts, _checked = bench.run_repeat(suites, unit, ledger)
        self_times = ledger.self_times(root)
        assert sum(self_times.values()) == elapsed
        assert {"input", "kernels", "sim"} <= set(self_times)
        assert counts["sim.events"] > 0 and counts["kernels.items"] > 0


def test_time_outside_every_layer_fails_the_traced_run(
    monkeypatch, capsys, tmp_path
):
    def setup(seed):
        [unit] = _quick_units(seed)[:1]

        def run():
            time.sleep(2.0)  # in the unit's root span, below no layer
            return unit.run()

        return [suites.Unit(unit.name, unit.span, run, unit.check)]

    out = _main(monkeypatch, capsys, tmp_path, setup, trace=1)
    assert out["correct"] is False
    assert out["failed"] == 0
    unattributed = out["metrics"]["trace.unattributed_frac"]["value"]
    assert unattributed > bench.UNATTRIBUTED_MAX


def test_ledger_nests_spans_and_merges_reentrant_calls():
    class Layer:
        def outer(self, depth):
            time.sleep(0.001)
            return self.inner(depth)

        def inner(self, depth):
            return self.inner(depth - 1) if depth else "done"

    originals = dict(vars(Layer))
    ledger = Ledger()
    ledger.wrap(Layer, "outer", "outer")
    ledger.wrap(Layer, "inner", "inner")
    try:
        assert Layer().outer(3) == "done"  # outside a unit: no spans
        assert ledger.spans == []
        root = ledger.begin_unit("unit")
        Layer().outer(3)
        ledger.end(root)
    finally:
        ledger.unwrap_all()
    assert [(s.name, s.parent) for s in ledger.spans] == [
        ("unit", -1), ("outer", 0), ("inner", 1),
    ]
    assert sum(ledger.self_times(root).values()) == ledger.spans[root].duration_ns
    assert vars(Layer)["outer"] is originals["outer"]
    assert vars(Layer)["inner"] is originals["inner"]


def test_seed_changes_the_inputs():
    for name in QUICK:
        spec = get_workload(name)
        params = spec.quick_params()
        assert suites.seeded(params, None) is params

        def inputs(seed):
            return pickle.dumps(spec.initial_items(suites.seeded(params, seed)))

        assert inputs(1) == inputs(1)
        assert inputs(1) != inputs(2)


def test_serve_horizon_offers_exactly_the_planned_requests():
    horizons = {}
    for seed in (1, 2):
        for cell in suites.SERVE_CELLS:
            horizon = suites._horizon_ms(cell.arrival, cell.requests, seed)
            times = parse_arrival_spec(cell.arrival).times(
                horizon, random.Random(seed)
            )
            assert len(times) == cell.requests
            horizons.setdefault(seed, []).append(horizon)
    assert all(a != b for a, b in zip(horizons[1], horizons[2]))


def _sleep():
    time.sleep(5)


def test_a_unit_that_leaves_a_worker_process_is_caught():
    suites.assert_in_process()
    child = multiprocessing.get_context("spawn").Process(target=_sleep)
    child.start()
    try:
        with pytest.raises(AssertionError, match="worker processes"):
            suites.assert_in_process()
    finally:
        child.terminate()
        child.join(timeout=10)
    assert not child.is_alive()
