"""Memoized tuner evaluations: hits, misses, invalidation, fingerprints.

The store mechanics (file layout, load check, atomic write) are covered
for both stored kinds in ``test_store.py``; this file covers the tuner's
rules on top of them.
"""

import math
from collections import OrderedDict

from repro.core import store as store_mod
from repro.core.tuner.cache import (
    CachedEvaluation,
    EvaluationStore,
    config_fingerprint,
    pipeline_fingerprint,
    space_key,
    spec_fingerprint,
    trace_fingerprint,
)
from repro.core.tuner.offline import OfflineTuner, TunerOptions
from repro.core.tuner.profiler import profile_pipeline
from repro.gpu.specs import K20C, get_spec

from .conftest import toy_pipeline


def _tuner(cache_dir, workers=1, budget=25):
    pipe = toy_pipeline()
    initial = {"doubler": list(range(1, 200))}
    profile, trace = profile_pipeline(pipe, K20C, initial)
    return OfflineTuner(
        pipe,
        K20C,
        trace,
        profile=profile,
        options=TunerOptions(
            max_configs=budget, workers=workers, cache_dir=str(cache_dir)
        ),
    )


class TestSearchWithCache:
    def test_cold_then_warm(self, tmp_path):
        cold = _tuner(tmp_path / "c").tune()
        assert cold.cache_hits == 0
        # Prefix rungs re-evaluate promoted candidates on longer traces,
        # so cold misses can exceed the number of reported candidates.
        assert cold.cache_misses >= cold.num_evaluated - cold.num_dominated
        assert cold.cache_stats.stores == cold.cache_misses

        # Cached searches pin deadlines to the deterministic shard-local
        # schedule, so a warm rerun looks up exactly the cells the cold
        # run stored and misses nothing.
        warm = _tuner(tmp_path / "c").tune()
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_misses
        assert all(
            e.cached for e in warm.evaluated if e.outcome == "completed"
        )
        assert warm.best_config == cold.best_config
        assert warm.best_time_ms == cold.best_time_ms
        assert warm.canonical_payload() == cold.canonical_payload()

    def test_cache_disabled_reports_zero_traffic(self, tmp_path):
        pipe = toy_pipeline()
        profile, trace = profile_pipeline(
            pipe, K20C, {"doubler": list(range(1, 100))}
        )
        report = OfflineTuner(
            pipe, K20C, trace, profile=profile,
            options=TunerOptions(max_configs=10),
        ).tune()
        assert report.cache_hits == 0 and report.cache_misses == 0
        assert not any(e.cached for e in report.evaluated)

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        first = _tuner(tmp_path / "c").tune()
        assert first.cache_misses > 0
        # A version bump ships in a new program, so it starts with an
        # empty per-process registry.
        monkeypatch.setattr(
            EvaluationStore, "version", EvaluationStore.version + 1
        )
        monkeypatch.setattr(store_mod, "_REGISTRY", OrderedDict())
        rerun = _tuner(tmp_path / "c").tune()
        assert rerun.cache_hits == 0  # every old entry misses cleanly
        assert rerun.best_config == first.best_config

    def test_different_workload_different_space(self, tmp_path):
        """A changed trace must land in a different search space."""
        pipe = toy_pipeline()
        _, trace_a = profile_pipeline(pipe, K20C, {"doubler": [1, 2, 3]})
        _, trace_b = profile_pipeline(pipe, K20C, {"doubler": [4, 5, 6]})
        assert space_key(pipe, K20C, trace_a) != space_key(pipe, K20C, trace_b)


class TestCacheSemantics:
    def _cache(self, tmp_path):
        pipe = toy_pipeline()
        _, trace = profile_pipeline(pipe, K20C, {"doubler": [1, 2, 3]})
        tuner_opts = TunerOptions(max_configs=1)
        config = OfflineTuner(
            pipe, K20C, trace, options=tuner_opts
        ).candidates()[0]
        store = EvaluationStore(disk_dir=str(tmp_path))
        return store, space_key(pipe, K20C, trace), config

    def test_timeout_entry_deadline_semantics(self, tmp_path):
        cache, space, config = self._cache(tmp_path)
        cache.record(
            space,
            config,
            CachedEvaluation(status="timeout", exceeded_cycles=100.0),
        )
        # Stricter (or equal) deadline: the run would provably time out
        # again, so the entry is a hit.
        hit = cache.lookup(space, config, deadline_cycles=50.0)
        assert hit is not None and hit.status == "timeout"
        assert cache.lookup(space, config, deadline_cycles=100.0) is not None
        # Looser deadline: the run might finish now; must re-evaluate.
        assert cache.lookup(space, config, deadline_cycles=200.0) is None
        assert cache.lookup(space, config, deadline_cycles=math.inf) is None

    def test_unusable_memory_entry_falls_through_to_disk(self, tmp_path):
        """A timeout this object remembers must not hide a completed
        outcome another worker has since written to the shared root."""
        cache, space, config = self._cache(tmp_path)
        cache.record(
            space,
            config,
            CachedEvaluation(status="timeout", exceeded_cycles=100.0),
        )
        other, _space, _config = self._cache(tmp_path)
        other.record(
            space,
            config,
            CachedEvaluation(status="completed", time_ms=1.5, cycles=150.0),
        )
        before = cache.stats()
        entry = cache.lookup(space, config, deadline_cycles=200.0)
        assert entry is not None and entry.status == "completed"
        assert entry.time_ms == 1.5
        delta = cache.stats() - before
        assert (delta.disk_hits, delta.mem_hits, delta.misses) == (1, 0, 0)
        # The loaded outcome replaced the timeout in memory.
        assert cache.lookup(space, config, deadline_cycles=200.0) == entry
        assert (cache.stats() - before).mem_hits == 1

    def test_invalid_entry_always_hits(self, tmp_path):
        cache, space, config = self._cache(tmp_path)
        cache.record(
            space,
            config,
            CachedEvaluation(status="invalid", note="invalid: nope"),
        )
        entry = cache.lookup(space, config, deadline_cycles=1.0)
        assert entry is not None and entry.status == "invalid"


class TestFingerprints:
    def test_config_fingerprint_distinguishes(self):
        pipe = toy_pipeline()
        configs = OfflineTuner(
            pipe, K20C,
            profile_pipeline(pipe, K20C, {"doubler": [1]})[1],
            options=TunerOptions(max_configs=10),
        ).candidates()
        keys = {config_fingerprint(c) for c in configs}
        assert len(keys) == len(configs)

    def test_spec_fingerprint_distinguishes_devices(self):
        assert spec_fingerprint(K20C) != spec_fingerprint(
            get_spec("GTX1080")
        )
        assert spec_fingerprint(K20C) == spec_fingerprint(K20C)

    def test_pipeline_fingerprint_stable(self):
        assert pipeline_fingerprint(toy_pipeline()) == pipeline_fingerprint(
            toy_pipeline()
        )

    def test_trace_fingerprint_tracks_workload(self):
        pipe = toy_pipeline()
        _, trace_a = profile_pipeline(pipe, K20C, {"doubler": [1, 2]})
        _, trace_b = profile_pipeline(pipe, K20C, {"doubler": [1, 2]})
        _, trace_c = profile_pipeline(pipe, K20C, {"doubler": [1, 2, 3]})
        assert trace_fingerprint(trace_a) == trace_fingerprint(trace_b)
        assert trace_fingerprint(trace_a) != trace_fingerprint(trace_c)


class TestPerRunDeltas:
    def test_counters_stay_per_run_under_shared_reuse(self, tmp_path):
        """Regression: shared cache objects outlive a search, so reports
        must carry per-run counter *deltas*, never lifetime totals —
        repeated searches in one process would otherwise inflate every
        later report's traffic (the TraceCache bug PR 7 fixed)."""
        cold = _tuner(tmp_path / "c").tune()
        warm_one = _tuner(tmp_path / "c").tune()
        warm_two = _tuner(tmp_path / "c").tune()
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        # Identical warm traffic on every rerun — no accumulation.
        assert warm_one.cache_hits == warm_two.cache_hits
        assert warm_one.cache_hits == cold.cache_misses
        assert warm_one.cache_misses == warm_two.cache_misses == 0
        assert warm_two.cache_stats.stores == 0
