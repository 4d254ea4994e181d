"""The one content-addressed store, over both kinds of value it holds:
recorded traces (the harness) and tuner evaluations (the tuner)."""

import os
import pickle

import pytest

from repro.core.store import FORMAT_VERSION, StoreStats
from repro.core.trace import Trace
from repro.core.tuner.cache import CachedEvaluation, EvaluationStore
from repro.core.tuner.profiler import QueuePressure, profile_pipeline
from repro.gpu.specs import K20C
from repro.harness.tracecache import TraceCache

from .conftest import toy_pipeline

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


def _trace():
    _, trace = profile_pipeline(
        toy_pipeline(), K20C, {"doubler": [1, 2, 3]}, record_outputs=True
    )
    return trace


def _evaluation():
    return CachedEvaluation(
        status="completed",
        time_ms=1.25,
        cycles=881.0,
        pressure=QueuePressure(
            peak_per_stage={"doubler": 3}, residual_per_stage={"doubler": 0}
        ),
    )


#: kind -> (store class, a good value, values the load check rejects).
KINDS = {
    "trace": (TraceCache, _trace, lambda: [{"nodes": []}, _evaluation()]),
    "evaluation": (
        EvaluationStore,
        _evaluation,
        lambda: [
            Trace(),
            CachedEvaluation(status="quantum"),
            CachedEvaluation(status="completed", time_ms="fast"),
            CachedEvaluation(status="timeout", exceeded_cycles=None),
        ],
    ),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def _stored(kind, root):
    """A store over ``root`` holding one good value under ``KEY``."""
    cls, make_value, _bad = kind
    store = cls(disk_dir=str(root))
    value = make_value()
    store.put(KEY, value)
    return store, value


def _rewrite(path, **changes):
    with open(path, "rb") as fh:
        envelope = pickle.load(fh)
    envelope.update(changes)
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh)


def test_round_trip(kind, tmp_path):
    cls = kind[0]
    store, value = _stored(kind, tmp_path)
    assert store.stats() == StoreStats(stores=1)
    assert store.get(KEY) is value
    # A fresh object over the same directory (a new process) loads it ...
    fresh = cls(disk_dir=str(tmp_path))
    assert fresh.get(KEY) == value
    # ... and then serves it from memory.
    assert fresh.get(KEY) == value
    assert fresh.stats() == StoreStats(mem_hits=1, disk_hits=1)
    assert fresh.stats().hits == 2
    assert fresh.get(OTHER) is None
    assert fresh.stats().misses == 1
    assert fresh.stats().describe().startswith("2 hits / 1 misses")


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: b"not a pickle at all",
        lambda data: data[: len(data) // 2],
        lambda data: b"",
    ],
    ids=["corrupt", "truncated", "empty"],
)
def test_damaged_file_is_a_clean_miss(kind, tmp_path, damage):
    cls = kind[0]
    store, value = _stored(kind, tmp_path)
    path = store.path_for(KEY)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(damage(data))
    # The writer's memory layer still holds the good value ...
    assert store.get(KEY) is value
    # ... but a fresh object treats the damaged file as a miss,
    fresh = cls(disk_dir=str(tmp_path))
    assert fresh.get(KEY) is None
    assert fresh.stats() == StoreStats(misses=1)
    # and the recompute's write repairs the entry.
    fresh.put(KEY, value)
    assert cls(disk_dir=str(tmp_path)).get(KEY) == value


@pytest.mark.parametrize("field", ["format", "version"])
def test_stale_version_is_a_miss(kind, tmp_path, field):
    cls = kind[0]
    store, _value = _stored(kind, tmp_path)
    with open(store.path_for(KEY), "rb") as fh:
        envelope = pickle.load(fh)
    assert envelope["format"] == FORMAT_VERSION
    assert envelope["version"] == cls.version
    _rewrite(store.path_for(KEY), **{field: envelope[field] + 1})
    assert cls(disk_dir=str(tmp_path)).get(KEY) is None


def test_key_mismatch_is_a_miss(kind, tmp_path):
    cls = kind[0]
    store, _value = _stored(kind, tmp_path)
    os.makedirs(os.path.dirname(store.path_for(OTHER)), exist_ok=True)
    os.replace(store.path_for(KEY), store.path_for(OTHER))
    assert cls(disk_dir=str(tmp_path)).get(OTHER) is None


def test_rejected_value_is_a_miss(kind, tmp_path):
    cls, _make_value, bad_values = kind
    store, _value = _stored(kind, tmp_path)
    for bad in bad_values():
        _rewrite(store.path_for(KEY), value=bad)
        assert cls(disk_dir=str(tmp_path)).get(KEY) is None, bad


def test_leftover_temp_file_is_ignored(kind, tmp_path):
    """A writer that died between ``mkstemp`` and ``os.replace`` leaves
    a ``.tmp-`` file; it never answers a lookup, even one holding a
    complete envelope for the key."""
    cls = kind[0]
    store, value = _stored(kind, tmp_path)
    path = store.path_for(KEY)
    leftover = os.path.join(os.path.dirname(path), ".tmp-crashed.pkl")
    os.replace(path, leftover)
    fresh = cls(disk_dir=str(tmp_path))
    assert fresh.get(KEY) is None
    fresh.put(KEY, value)
    assert cls(disk_dir=str(tmp_path)).get(KEY) == value
    names = sorted(os.listdir(os.path.dirname(path)))
    assert names == [".tmp-crashed.pkl", os.path.basename(path)]


def test_memory_layer_is_a_bounded_lru(kind):
    cls, make_value, _bad = kind
    store = cls(max_entries=2)
    value = make_value()
    for key in ("k0", "k1", "k2"):
        store.put(key, value)
    assert len(store) == 2
    assert store.get("k0") is None
    assert store.get("k2") is value
    with pytest.raises(ValueError):
        cls(max_entries=0)

