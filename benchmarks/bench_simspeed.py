"""Simulator wall-clock speed benchmark (the PR-3 speed gate).

Unlike every other benchmark here, the quantity of interest is **host
wall time**, not simulated GPU time: figure replays, tuner evaluations
and test runs are all bottlenecked by how many engine events per second
the discrete-event core sustains.

Three canonical workloads (see :mod:`repro.harness.simspeed`) run once
each per measurement; each is repeated a few times and the fastest
repeat is kept.  Results land in ``BENCH_simspeed.json``:

* ``events_per_s`` / ``wall_s`` — raw, machine-dependent (informational);
* ``sim_time_ms`` — simulated time, deterministic, gated by
  ``scripts/check_bench.py`` (a drift means the schedule changed);
* ``event_cost`` — wall seconds per workload event divided by the wall
  seconds per event of a trivial self-rescheduling ``heapq`` loop
  measured on the same machine.  This machine-normalised, dimensionless
  cost is the wall-clock gate metric: it regresses when per-event
  simulator overhead grows, but is insensitive to how fast the CI host
  happens to be.  The calibration loop imports nothing from ``repro``,
  so a change to the simulator's own engine moves the numerator only.
  Each workload's repeats interleave with calibration passes and its
  cost divides by those adjacent passes, so a host that speeds up or
  slows down between workloads moves numerator and denominator alike.

The schedule fingerprints are additionally asserted identical across
repeats — a wall-clock fast path must never change the schedule.
"""

import heapq
import itertools
import json
import os
import time

import pytest

from repro.harness.simspeed import CANONICAL_CASES, run_case

#: Machine-readable results, written at the repo root so CI can compare
#: them against the committed baseline (scripts/check_bench.py).
_BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_simspeed.json",
)

_REPEATS = 3
_CALIB_EVENTS = 100_000


def _calibrate() -> float:
    """Wall seconds per event of one pass of a trivial rescheduling chain.

    The chain runs on a bare ``heapq`` calendar of ``(time, seq,
    callback)`` entries popped one at a time: the floor cost of one
    heap-scheduled Python callback on this machine and Python build.
    Dividing workload per-event costs by it yields a machine-neutral
    overhead ratio.
    """
    heap: list = []
    seq = itertools.count()
    now = 0.0
    remaining = _CALIB_EVENTS

    def chain() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            heapq.heappush(heap, (now + 1.0, next(seq), chain))

    heapq.heappush(heap, (1.0, next(seq), chain))
    pop = heapq.heappop
    start = time.perf_counter()
    while heap:
        now, _seq, fn = pop(heap)
        fn()
    return (time.perf_counter() - start) / _CALIB_EVENTS


def _measure(name: str) -> dict:
    """Best-of-N wall time for one canonical case, its fingerprint, and
    the best of the calibration passes run next to its repeats."""
    fingerprint = None
    best_wall = float("inf")
    best_calib = float("inf")
    for _ in range(_REPEATS):
        best_calib = min(best_calib, _calibrate())
        start = time.perf_counter()
        run = run_case(name, scale="bench")
        wall = time.perf_counter() - start
        best_wall = min(best_wall, wall)
        if fingerprint is None:
            fingerprint = run.fingerprint()
        else:
            assert run.fingerprint() == fingerprint, (
                f"{name}: schedule fingerprint changed between repeats — "
                "the simulator is not deterministic"
            )
    return {
        "calib_s_per_event": best_calib,
        "wall_s": best_wall,
        "events_processed": fingerprint["events_processed"],
        "sim_time_ms": fingerprint["sim_time_ms"],
        "events_per_s": fingerprint["events_processed"] / best_wall,
        "num_outputs": fingerprint["num_outputs"],
    }


def test_simspeed(benchmark):
    """Measure events/sec on the three canonical workloads and emit the
    ``BENCH_simspeed.json`` artifact for the CI regression gate."""

    def sweep():
        return {name: _measure(name) for name in CANONICAL_CASES}

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    calib_s_per_event = min(
        row["calib_s_per_event"] for row in measured.values()
    )
    payload = {
        "calibration": {
            "events": _CALIB_EVENTS,
            "s_per_event": calib_s_per_event,
            "events_per_s": 1.0 / calib_s_per_event,
        },
        "workloads": {},
    }
    print("\n=== Simulator speed (wall clock) ===")
    for name, row in measured.items():
        per_event = row["wall_s"] / row["events_processed"]
        event_cost = per_event / row["calib_s_per_event"]
        payload["workloads"][name] = {**row, "event_cost": event_cost}
        print(
            f"  {name:16s} {row['events_processed']:8d} events  "
            f"{row['wall_s'] * 1e3:8.1f} ms wall  "
            f"{row['events_per_s']:10,.0f} ev/s  "
            f"calibration {1.0 / row['calib_s_per_event']:12,.0f} ev/s  "
            f"cost {event_cost:6.1f}x"
        )
        assert row["events_processed"] > 0
        assert row["num_outputs"] > 0

    with open(_BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"  wrote {_BENCH_JSON}")


if __name__ == "__main__":  # manual runs without pytest-benchmark
    pytest.main([__file__, "-q", "-s"])
