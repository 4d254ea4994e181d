"""Wall-time benchmark of the sharded, disk-cached experiment harness.

The quantity of interest is host wall time of the full evaluation suite
(six workloads × three Table-2 columns × two devices = 36 cells),
comparing four ways of running it:

* **cold serial** — one worker, empty disk cache: every workload's
  functional trace is recorded once, then replayed across that
  invocation's remaining models (the PR-4 baseline behaviour);
* **warm serial** — one worker over the now-populated disk cache: no
  functional execution at all, every cell replays a stored trace;
* **pool spawn** — the first parallel dispatch: four workers fork from
  the parent (inheriting its warm caches copy-on-write) and the
  persistent pool pays its one-time start-up cost;
* **warm parallel** — the same dispatch again on the now-running pool:
  steady state, the regime every dispatch after the first runs in.

All four produce byte-identical simulated results (asserted below via
``suite_bench_payload``); the speedup is pure harness engineering.  The
CI-gated ``warm_parallel_speedup`` (cold wall / steady warm-parallel
wall) is measured at steady state because the pool is per-process
persistent: spawn cost amortises across every dispatch a process ever
issues, and the one-time fork is reported separately as
``pool_spawn_seconds``.  The headline target — steady warm-parallel at
least 2x faster than cold-serial — is asserted only with >= 4 real cores
(the suite is compute-bound; on fewer cores the workers just timeshare),
mirroring ``bench_tuner.py``; CI additionally enforces
``warm_parallel_speedup > 1.0`` via ``scripts/check_bench.py --min``.

``BENCH_harness.json`` records raw wall seconds for inspection plus the
CI-gated metrics: ``suite_sim_time_ms`` (deterministic simulated total —
catches simulation regressions), the machine-normalised
``warm_serial_cost`` / ``warm_parallel_cost`` ratios (warm/cold on the
same host, lower is better — catch cache and pool regressions), and the
floor-gated ``warm_parallel_speedup``.
"""

import json
import os

from repro.core.tuner.pool import shutdown_pool
from repro.harness.pool import run_suite, suite_bench_payload
from repro.workloads import (
    cfd,
    face_detection,
    ldpc,
    pyramid,
    rasterization,
    reyes,
)

_BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_harness.json",
)

_DEVICES = ("K20c", "GTX1080")

#: Benchmark-scale parameters: a few times the quick sizes, so per-worker
#: work comfortably dominates the pool's fixed fork/merge overhead, while
#: the whole benchmark stays a few seconds end to end.
_PARAMS = {
    "cfd": cfd.CFDParams(
        num_chunks=12, chunk_cells=256, outer_iterations=12,
        inner_iterations=3, seed=11,
    ),
    "face_detection": face_detection.FaceDetectionParams(
        num_images=6, width=320, height=240, min_height=60, band_rows=4,
        faces_per_image=3, seed=50,
    ),
    "ldpc": ldpc.LDPCParams(
        n_bits=128, check_degree=6, var_degree=3, num_frames=24,
        iterations=10, snr_db=4.5, seed=5,
    ),
    "pyramid": pyramid.PyramidParams(
        num_images=12, width=320, height=240, min_height=24, seed=2017,
    ),
    "rasterization": rasterization.RasterParams(
        width=256, height=192, num_cubes=30, band_rows=64, seed=23,
    ),
    "reyes": reyes.ReyesParams(
        width=320, height=240, num_base_patches=24, split_threshold=48.0,
        grid=8, max_split_depth=14, seed=7,
    ),
}


def _suite(workers, cache_dir):
    return run_suite(
        devices=_DEVICES,
        workers=workers,
        cache_dir=cache_dir,
        params=_PARAMS,
    )


def test_harness_parallel_warm_speedup(benchmark, tmp_path):
    cache_dir = str(tmp_path / "trace-cache")

    def measure():
        # Start from a dead pool so the spawn leg really measures the
        # one-time fork cost (another benchmark in the same pytest
        # process may have left the persistent pool running).
        shutdown_pool()
        cold = _suite(workers=1, cache_dir=cache_dir)
        warm_serial = _suite(workers=1, cache_dir=cache_dir)
        spawn = _suite(workers=4, cache_dir=cache_dir)
        warm_parallel = _suite(workers=4, cache_dir=cache_dir)
        return cold, warm_serial, spawn, warm_parallel

    cold, warm_serial, spawn, warm_parallel = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # Sharding, caching and replay are all schedule-preserving: every
    # leg simulates byte-identical results.
    cold_json = json.dumps(suite_bench_payload(cold), sort_keys=True)
    for other in (warm_serial, spawn, warm_parallel):
        assert json.dumps(
            suite_bench_payload(other), sort_keys=True
        ) == cold_json

    # Cold records one trace per workload; warm runs replay everything.
    # Where a warm hit lands (memory vs disk) depends on worker reuse —
    # a persistent worker that already decoded a trace serves it from
    # its LRU — so only the placement-agnostic totals are asserted.
    assert cold.cache_stats.stores == len(_PARAMS)
    for warm in (warm_serial, spawn, warm_parallel):
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hits >= 1

    speedup = cold.wall_s / warm_parallel.wall_s
    serial_speedup = cold.wall_s / warm_serial.wall_s
    print(f"\n=== Experiment harness wall time ({len(cold.cells)} cells, "
          f"{' + '.join(_DEVICES)}) ===")
    print(f"  cold serial    {cold.wall_s:7.2f}s  "
          f"({cold.cache_stats.describe()})")
    print(f"  warm serial    {warm_serial.wall_s:7.2f}s  "
          f"({serial_speedup:4.2f}x; {warm_serial.cache_stats.describe()})")
    print(f"  pool spawn     {spawn.wall_s:7.2f}s  "
          f"(first parallel dispatch; {spawn.cache_stats.describe()})")
    print(f"  warm parallel  {warm_parallel.wall_s:7.2f}s  "
          f"({speedup:4.2f}x; {warm_parallel.cache_stats.describe()})")

    payload = {
        "suite": {
            "cells": len(cold.cells),
            # Deterministic simulated total: identical on every machine
            # and for every worker count; gates simulation regressions.
            "suite_sim_time_ms": sum(c.time_ms for c in cold.cells),
            "cold_serial_seconds": cold.wall_s,
            "warm_serial_seconds": warm_serial.wall_s,
            "pool_spawn_seconds": spawn.wall_s,
            "warm_parallel_seconds": warm_parallel.wall_s,
            # Machine-normalised (same-host warm/cold ratios, lower is
            # better): gate the disk cache and the worker pool.
            "warm_serial_cost": warm_serial.wall_s / cold.wall_s,
            "warm_parallel_cost": warm_parallel.wall_s / cold.wall_s,
            # Floor-gated in CI: scripts/check_bench.py
            # --min suite.warm_parallel_speedup=1.0 (>= 4-core runners).
            "warm_parallel_speedup": speedup,
            "warm_total_hits": warm_parallel.cache_stats.hits,
        }
    }
    with open(_BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    cores = os.cpu_count() or 1
    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x warm-parallel speedup over cold-serial on "
            f"{cores} cores; got {speedup:.2f}x"
        )
    else:
        print(f"  (speedup assertion skipped: only {cores} core(s))")
