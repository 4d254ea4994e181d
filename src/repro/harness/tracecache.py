"""Compute-once/simulate-many trace reuse for the experiment harness.

A workload's task graph depends only on the workload parameters (which
include the seed) — never on the execution model or device the harness is
simulating.  The harness therefore runs the real stage computations once
per (workload, params), recording the full trace *with* output payloads,
and replays that trace for every other model/config of the same cell:
the remaining runs simulate pure scheduling with recorded costs and
recorded outputs, skipping all numpy work.

:class:`TraceCache` is a :class:`~repro.core.store.Store` of recorded
traces keyed by :func:`workload_fingerprint`: an in-memory LRU of live
:class:`~repro.core.trace.Trace` objects (real ndarray payloads, cheap to
keep for a process-long sweep), optionally over a directory shared
between processes.  A warm directory lets a *fresh process* — another
benchmark invocation, a CI re-run, or a pool worker — skip all
functional execution and replay traces straight into its models.  The
store module owns the file layout, the load check and the atomic write.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Optional

from ..core.store import TRACE_VERSION, Store, StoreStats
from ..core.trace import Trace
from ..workloads.registry import WorkloadSpec

#: Recorded traces retained per cache (LRU).  A sweep touches one trace
#: per (workload, params) cell; entries hold the workload's real output
#: payloads, so the cap bounds resident ndarray memory.
DEFAULT_MAX_ENTRIES = 8

#: Default location honoured by ``repro ... --trace-cache-dir`` with no
#: value (sibling of the tuner's ``~/.cache/repro-tuner``).
DEFAULT_TRACE_CACHE_DIR = os.path.join("~", ".cache", "repro-traces")


def workload_fingerprint(spec: WorkloadSpec, params: object) -> str:
    """Content key of one functional cell: workload identity + parameters.

    Parameter dataclasses are flattened field by field so *every* field —
    sizes, iteration counts, and the seed — participates; non-dataclass
    params fall back to ``repr``.
    """
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        fields = dataclasses.asdict(params)
    else:
        fields = {"repr": repr(params)}
    payload = json.dumps(
        {"workload": spec.name, "params": fields},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TraceCache(Store):
    """LRU map from workload fingerprint to a recorded :class:`Trace`,
    optionally over a shared directory.

    The traces stored here must be recorded with ``record_outputs=True``
    so replayed runs still produce the real outputs (and pass the
    workloads' ``check_outputs``).  With ``disk_dir`` set the cache
    survives the process and is shared between harness pool workers,
    ``tune_workload`` and repeated benchmark/CI invocations.
    """

    kind = "trace"
    version = TRACE_VERSION
    value_type = Trace
    max_entries = DEFAULT_MAX_ENTRIES

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: Optional[str] = None,
    ) -> None:
        super().__init__(disk_dir=disk_dir, max_entries=max_entries)
        #: Per-run counter delta of the most recent harness entry-point
        #: call (``run_workload_models`` / ``run_versapipe``) that used
        #: this cache; ``None`` until one completes.  Kept so ``repro
        #: stats`` reports per-run numbers even on the process-wide
        #: default cache, whose raw counters span the process lifetime.
        self.last_run: Optional[StoreStats] = None


#: Process-wide cache used by the harness entry points by default; pass
#: ``cache=None`` (``repro --no-replay-cache``) to force functional runs.
DEFAULT_TRACE_CACHE = TraceCache()
