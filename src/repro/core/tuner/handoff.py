"""Zero-copy payload handoff for the persistent worker pool.

The persistent pool (:mod:`repro.core.tuner.pool`) keeps its worker
processes alive across ``map_shards`` calls, which makes *payload
transfer* the remaining per-dispatch cost: the classic ``ctx.Pool``
initializer re-pickled the payload into every worker on every
invocation, and for trace-sized payloads (the tuner ships the whole
recorded task graph) that serialisation dominated replay-only work.

This module ships a payload once per dispatch instead:

* the payload is pickled exactly once, in the parent;
* small payloads travel inline (the pipe cost is noise);
* large payloads are published into a single
  ``multiprocessing.shared_memory`` segment that every worker attaches
  to by name — the task messages carry only a tiny handle, so the bytes
  cross the process boundary zero-copy through the kernel's shared
  mapping rather than W times through the result pipes;
* workers cache the decoded payload by its **content fingerprint**
  (sha256 of the pickled bytes), so a persistent worker that has already
  seen a payload — the tuner re-searching the same trace, the harness
  re-dispatching the same suite — skips even the one-time decode.

Segments are released by the parent as soon as the dispatch finishes,
on success *and* on error paths (``tests/core/test_persistent_pool.py``
pins this); a worker that cached the decoded payload keeps its private
copy, never the mapping.  Platforms without POSIX shared memory fall
back to inline transfer with identical results.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import struct
from typing import Optional

from ..store import Store

try:  # POSIX + Windows both have it; some minimal builds do not.
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - exotic platforms
    _shm = None  # type: ignore[assignment]

#: Pickled payloads at least this large are published through shared
#: memory; smaller ones ride inline in the task message.
SHARED_MIN_BYTES = 64 * 1024

#: Decoded payloads retained per process, keyed by content fingerprint.
#: Bounds resident memory in long-lived pool workers.
RESOLVE_CACHE_ENTRIES = 8

#: Worker-side cache: content fingerprint -> decoded payload.
_RESOLVED = Store(max_entries=RESOLVE_CACHE_ENTRIES)

#: Parent-side names of segments published but not yet released —
#: introspection for leak tests and diagnostics.
_LIVE_SEGMENTS: set[str] = set()


def live_segment_names() -> frozenset[str]:
    """Names of shared-memory segments this process has not released."""
    return frozenset(_LIVE_SEGMENTS)


def clear_resolve_cache() -> None:
    """Drop every cached decoded payload (test isolation hook)."""
    global _RESOLVED
    _RESOLVED = Store(max_entries=RESOLVE_CACHE_ENTRIES)


def _attach_untracked(name: str):
    """Attach to segment ``name`` without resource-tracker registration.

    Attaching registers the segment with the tracker on Python < 3.13,
    which would make a pool worker's tracker try to unlink a segment the
    *parent* owns (and warn about "leaked" shared memory at worker
    exit).  Register-then-unregister is not enough: sibling workers
    share one tracker process whose name cache is a set, so concurrent
    attach/detach pairs for the same segment race the second unregister
    into a tracker-side ``KeyError``.  Suppressing the registration
    itself (what 3.13's ``track=False`` does) sends no message at all.
    Ownership stays with the publishing parent either way.
    """
    try:
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shm(rname: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - not hit here
                original(rname, rtype)

        resource_tracker.register = _skip_shm
        try:
            return _shm.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except ImportError:  # pragma: no cover - tracker internals vary
        return _shm.SharedMemory(name=name)


class InlinePayload:
    """A payload small enough to ride in the task message itself."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def resolve(self) -> object:
        return self.value

    def release(self) -> None:
        """Nothing to release: no shared resources were published."""


class SharedPayload:
    """A payload published once into a named shared-memory segment.

    The parent keeps the live segment for :meth:`release`; the pickled
    handle that crosses into workers carries only ``(name, size, key)``.
    Workers attach read-only, decode, cache by ``key`` and detach
    immediately — the payload bytes are shipped exactly once however
    many workers and dispatches consume them.
    """

    __slots__ = ("name", "size", "key", "_segment")

    def __init__(
        self, name: str, size: int, key: str, segment=None
    ) -> None:
        self.name = name
        self.size = size
        self.key = key
        self._segment = segment

    def __getstate__(self) -> tuple[str, int, str]:
        return (self.name, self.size, self.key)

    def __setstate__(self, state: tuple[str, int, str]) -> None:
        self.name, self.size, self.key = state
        self._segment = None

    def resolve(self) -> object:
        """The decoded payload, from the per-process cache when possible."""
        value = _RESOLVED.get(self.key)
        if value is not None:
            return value
        if _shm is None:  # pragma: no cover - publish side guards this
            raise pickle.UnpicklingError(
                "shared-memory payload received on a platform without "
                "multiprocessing.shared_memory"
            )
        segment = _attach_untracked(self.name)
        try:
            value = pickle.loads(segment.buf[: self.size])
        finally:
            segment.close()
        _RESOLVED.put(self.key, value)
        return value

    def release(self) -> None:
        """Unlink the segment (parent side; idempotent).

        Runs in a ``finally`` around every dispatch so segments never
        outlive their ``map_shards`` call, even when a shard raises or a
        worker crashes mid-dispatch.
        """
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _LIVE_SEGMENTS.discard(self.name)


#: Byte layout of the shared best-bound slot: the value and its
#: negation.  Writing two doubles is not atomic, so readers validate
#: ``value == -check`` and treat any mismatch as a torn/corrupt read.
_BEST_STRUCT = struct.Struct("dd")


class SharedBest:
    """A monotonically tightening best-time bound shared across workers.

    ``multiprocessing.Value`` only reaches workers through fork-time
    inheritance, which the persistent pool (spawned once, reused for
    every dispatch) cannot provide.  This is the same idea rebuilt on a
    named shared-memory segment: the parent creates a 16-byte slot, the
    handle pickles by *name*, and any process that attaches can read the
    current global best or publish an improvement.

    The slot stores ``(value, -value)``.  A reader that sees a torn or
    corrupt pair (checksum mismatch, NaN, non-positive value) falls back
    to ``math.inf`` — i.e. "no shared bound", the shard-local behaviour.
    Stale reads only ever *loosen* a deadline, never tighten it below
    the true best, so races are benign: correctness never depends on the
    shared value, only the amount of pruning does.
    """

    __slots__ = ("name", "_segment", "_owner")

    def __init__(self, name: str, segment=None, owner: bool = False) -> None:
        self.name = name
        self._segment = segment
        self._owner = owner

    @classmethod
    def create(cls, initial: float = math.inf) -> "Optional[SharedBest]":
        """Allocate the shared slot (parent side); ``None`` without shm."""
        if _shm is None:  # pragma: no cover - exotic platforms
            return None
        segment = _shm.SharedMemory(create=True, size=_BEST_STRUCT.size)
        _BEST_STRUCT.pack_into(segment.buf, 0, initial, -initial)
        _LIVE_SEGMENTS.add(segment.name)
        return cls(segment.name, segment=segment, owner=True)

    def __getstate__(self) -> str:
        return self.name

    def __setstate__(self, state: str) -> None:
        self.name = state
        self._segment = None
        self._owner = False

    def _attach(self):
        if self._segment is not None:
            return self._segment
        if _shm is None:  # pragma: no cover - exotic platforms
            return None
        try:
            segment = _attach_untracked(self.name)
        except (FileNotFoundError, OSError):
            return None
        self._segment = segment
        return segment

    def read(self) -> float:
        """The current global best, or ``inf`` when unreadable."""
        segment = self._attach()
        if segment is None:
            return math.inf
        try:
            value, check = _BEST_STRUCT.unpack_from(segment.buf, 0)
        except (ValueError, struct.error):
            return math.inf
        if value != -check or math.isnan(value) or value <= 0.0:
            return math.inf
        return value

    def publish(self, value: float) -> None:
        """Record ``value`` if it improves on the shared best.

        Writes are last-wins; a concurrent publish of a worse value can
        transiently overwrite a better one, which (like a stale read)
        only loosens deadlines.  The next improving publish restores the
        tighter bound, and a corrupt slot is healed by any publish.
        """
        if not (0.0 < value < self.read()):
            return
        segment = self._segment
        if segment is None:  # unreadable slot: nothing to publish into
            return
        try:
            _BEST_STRUCT.pack_into(segment.buf, 0, value, -value)
        except (ValueError, struct.error):  # pragma: no cover - size pinned
            pass

    def close(self) -> None:
        """Detach this process's mapping (worker side; idempotent)."""
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        try:
            segment.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def release(self) -> None:
        """Unlink the slot (owning parent side; idempotent)."""
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        try:
            segment.close()
            if self._owner:
                segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        if self._owner:
            _LIVE_SEGMENTS.discard(self.name)


def publish_payload(
    payload: object, min_bytes: Optional[int] = None
):
    """Pickle ``payload`` once and pick its cheapest transport.

    Returns an :class:`InlinePayload` or :class:`SharedPayload` handle
    whose ``resolve()`` reproduces the payload in any process and whose
    ``release()`` frees any published segment.  Raises the usual pickle
    errors (``PicklingError``/``TypeError``/``AttributeError``) for
    payloads that cannot cross a process boundary — the pool catches
    those and degrades to in-process execution.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    threshold = SHARED_MIN_BYTES if min_bytes is None else min_bytes
    if _shm is None or len(blob) < threshold:
        return InlinePayload(payload)
    key = hashlib.sha256(blob).hexdigest()
    segment = _shm.SharedMemory(create=True, size=len(blob))
    try:
        segment.buf[: len(blob)] = blob
    except BaseException:  # pragma: no cover - copy cannot really fail
        segment.close()
        segment.unlink()
        raise
    _LIVE_SEGMENTS.add(segment.name)
    return SharedPayload(segment.name, len(blob), key, segment=segment)
