"""One content-addressed store for everything this program memoizes.

Two results are pure functions of their inputs and worth keeping across
calls and processes: a workload's recorded trace (the harness's
compute-once/simulate-many cache, keyed by workload and parameters) and
a tuner candidate's replay outcome (keyed by pipeline, device, trace and
configuration).  Both live in a :class:`Store`: a bounded in-memory LRU,
optionally over a directory of files, one per content key.

Layout of a store directory::

    <root>/<key[:2]>/<key>.<kind>.pkl

Each file holds one pickled envelope::

    {"format": FORMAT_VERSION, "version": <kind version>,
     "key": <key>, "value": <the stored value>}

Anything that fails to load or validate is a clean miss, never an error:
a missing, torn or corrupt file, a stale format or kind version, a key
that does not match the file name, a value of the wrong type, or one the
store's :meth:`Store.valid` check rejects.  The caller recomputes and
overwrites.  Writes are atomic (temp file + ``os.replace``), so
concurrent writers sharing a directory — pool workers, parallel CI jobs
— are safe: the last writer wins with a complete entry, and readers only
ever see whole files.

Entries are pickles because traces carry real ndarray payloads.  The
trust model is that of any local build cache: the files are the ones
this program wrote into a user-owned directory, and unpickling them
runs whatever they hold, so a store must never point at a directory
other users can write.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Callable, Optional, TypeVar

#: Envelope layout; bump to invalidate every entry of every kind.
#: v2: one envelope for traces and tuner evaluations.
FORMAT_VERSION = 2

#: Version of stored traces; bump to invalidate them alone.
TRACE_VERSION = 1

#: Version of stored tuner evaluations; bump to invalidate them alone.
#: v3: pickled store envelope (v2 was one JSON file per evaluation).
EVALUATION_VERSION = 3

#: Disk-backed stores the per-process registry keeps (LRU).  Bounds the
#: resident memory of long-lived pool workers that serve runs over many
#: different directories (the test suite does).
REGISTRY_STORES = 4

S = TypeVar("S", bound="Store")


@dataclass(frozen=True)
class StoreStats:
    """Counters of one store (or a difference or sum of two snapshots).

    A lookup is a memory hit, a disk hit (loaded from the directory into
    the memory layer) or a miss; ``stores`` counts disk writes.  Store
    objects outlive a run (the registry shares them across dispatches),
    so per-run numbers are ``after - before`` snapshots, and ``+`` merges
    the deltas of parallel workers.
    """

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        return self.mem_hits + self.disk_hits

    def __add__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            *(getattr(self, f.name) + getattr(other, f.name)
              for f in fields(self))
        )

    def __sub__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            *(getattr(self, f.name) - getattr(other, f.name)
              for f in fields(self))
        )

    def describe(self) -> str:
        """One-line rendering used by ``repro stats``/``bench``/``tune``."""
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"(memory: {self.mem_hits} hits, disk: {self.disk_hits} hits; "
            f"{self.stores} stores)"
        )


class Store:
    """A bounded memory LRU of one kind of value, optionally over a
    directory.

    Subclasses name the kind: its file tag, version, value type, default
    memory bound and (optionally) a :meth:`valid` check applied to every
    value loaded from disk.  Without ``disk_dir`` the store is memory
    only; with it, every memory miss probes the directory and every
    :meth:`put` writes through.
    """

    kind = "value"
    version = 0
    value_type: type = object
    max_entries = 8

    def __init__(
        self, disk_dir: Optional[str] = None, max_entries: Optional[int] = None
    ) -> None:
        if max_entries is None:
            max_entries = type(self).max_entries
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.root = (
            os.path.abspath(os.path.expanduser(disk_dir)) if disk_dir else None
        )
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._mem_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._stores = 0

    @classmethod
    def shared(cls: type[S], disk_dir: str) -> S:
        """The per-process store of this kind over ``disk_dir``.

        Persistent pool workers resolve their store here rather than
        building one per dispatch, so a reused worker serves repeats from
        its memory layer.  Because the pool forks lazily, workers also
        inherit, copy-on-write, whatever the parent's stores already hold.
        """
        key = (cls, os.path.abspath(os.path.expanduser(disk_dir)))
        store = _REGISTRY.get(key)
        if store is None:
            store = _REGISTRY[key] = cls(disk_dir=disk_dir)
        _REGISTRY.move_to_end(key)
        while len(_REGISTRY) > REGISTRY_STORES:
            _REGISTRY.popitem(last=False)
        return store  # type: ignore[return-value]

    def valid(self, value: Any) -> bool:
        """Field checks on a value loaded from disk, after its type check;
        a rejected value is a miss."""
        return True

    def __len__(self) -> int:
        return len(self._memory)

    def path_for(self, key: str) -> str:
        if self.root is None:
            raise ValueError("a memory-only store has no paths")
        return os.path.join(self.root, key[:2], f"{key}.{self.kind}.pkl")

    def get(
        self, key: str, usable: Optional[Callable[[Any], bool]] = None
    ) -> Any:
        """The stored value, or ``None`` on a miss.

        ``usable`` narrows which stored values answer this lookup; an
        unusable memory entry falls through to disk, where another
        process may have written a usable one.
        """
        value = self._memory.get(key)
        if value is not None and (usable is None or usable(value)):
            self._memory.move_to_end(key)
            self._mem_hits += 1
            return value
        value = self._load(key) if self.root is not None else None
        if value is None or (usable is not None and not usable(value)):
            self._misses += 1
            return None
        self._remember(key, value)
        self._disk_hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Remember ``value``; with a directory, also write it atomically."""
        self._remember(key, value)
        if self.root is not None:
            self._write(key, value)
            self._stores += 1

    def stats(self) -> StoreStats:
        """Lifetime counters (subtract two snapshots for a per-run delta)."""
        return StoreStats(
            mem_hits=self._mem_hits,
            disk_hits=self._disk_hits,
            misses=self._misses,
            stores=self._stores,
        )

    # ------------------------------------------------------------------
    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def _load(self, key: str) -> Any:
        try:
            with open(self.path_for(key), "rb") as fh:
                envelope = pickle.load(fh)
        except Exception:  # missing, torn, corrupt or unloadable: a miss
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != FORMAT_VERSION
            or envelope.get("version") != self.version
            or envelope.get("key") != key
        ):
            return None
        value = envelope.get("value")
        if not isinstance(value, self.value_type) or not self.valid(value):
            return None
        return value

    def _write(self, key: str, value: Any) -> None:
        target = self.path_for(key)
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        envelope = {
            "format": FORMAT_VERSION,
            "version": self.version,
            "key": key,
            "value": value,
        }
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, target)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


#: The per-process registry behind :meth:`Store.shared`, keyed by store
#: class and absolute directory.
_REGISTRY: OrderedDict[tuple[type, str], Store] = OrderedDict()
