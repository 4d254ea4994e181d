"""Memoized tuner evaluations.

Replaying a candidate configuration is deterministic: the same pipeline
topology, device spec, recorded trace and configuration always produce
the same simulated time.  That makes every evaluated cell memoizable —
repeated ``tune``/``compare`` invocations (and CI reruns) can skip
already-simulated cells entirely.

Cells live in an :class:`EvaluationStore`, a
:class:`~repro.core.store.Store` (memory LRU over a directory; the store
module owns the file layout, the load check and the atomic write).
:func:`space_key` fingerprints everything shared by a search — the
pipeline topology (stage names, edges and kernel resources), the device
spec, and the recorded trace (the workload seed: every task's stage,
cost and children) — and :func:`evaluation_key` adds the candidate
configuration.  Any change to pipeline, device or workload therefore
misses cleanly; bumping :data:`~repro.core.store.EVALUATION_VERSION`
invalidates every stored cell at once.

Entries record one of three outcomes:

* ``completed`` — the replayed time in ms, the elapsed engine cycles
  (exact, for the tuner's canonical deadline normalization) and the
  queue-pressure summary;
* ``invalid`` — the configuration failed validation (deadline
  independent, always reusable);
* ``timeout`` — the replay ran past ``exceeded_cycles``.  A timeout
  entry is only a hit when the *current* deadline is no larger than the
  recorded one (the run would provably time out again); otherwise the
  cell is re-evaluated and the entry overwritten.

:meth:`EvaluationStore.shared` hands every process one store per
directory, so a persistent pool worker that re-searches the same space
skips even the disk reads.  Because that object (and its counters)
outlives a dispatch, shard code reports *per-dispatch deltas* — snapshot
:meth:`~repro.core.store.Store.stats` before, subtract after — never the
lifetime totals.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from typing import Optional

from ..config import PipelineConfig
from ..pipeline import Pipeline
from ..store import EVALUATION_VERSION, Store
from ..trace import Trace
from ...gpu.specs import GPUSpec
from .profiler import QueuePressure

#: Default location honoured by ``repro tune --cache-dir`` with no value.
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro-tuner")


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def pipeline_fingerprint(pipeline: Pipeline) -> str:
    """Stable hash of the pipeline topology and kernel resources."""
    rows = []
    for name in pipeline.stage_names:
        stage = pipeline.stage(name)
        rows.append(
            (
                stage.name,
                tuple(stage.emits_to),
                stage.threads_per_item,
                stage.threads_per_block,
                stage.registers_per_thread,
                stage.shared_mem_per_block,
                stage.code_bytes,
                stage.item_bytes,
                bool(stage.requires_global_sync),
            )
        )
    return _digest(json.dumps(rows, sort_keys=True))


def spec_fingerprint(spec: GPUSpec) -> str:
    """Stable hash of every architectural parameter of the device."""
    row = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return _digest(json.dumps(row, sort_keys=True, default=repr))


def trace_fingerprint(trace: Trace) -> str:
    """Stable hash of the recorded task graph (the workload seed)."""
    hasher = hashlib.sha256()
    for node in trace.nodes:
        hasher.update(
            (
                f"{node.node_id}|{node.stage}|{node.cost.cycles_per_thread!r}"
                f"|{node.cost.mem_fraction!r}|{node.cost.min_cycles!r}"
                f"|{node.children!r}|{node.n_outputs}\n"
            ).encode("utf-8")
        )
    for stage in sorted(trace.initial):
        hasher.update(f"@{stage}:{tuple(trace.initial[stage])!r}\n".encode())
    return hasher.hexdigest()


def config_fingerprint(config: PipelineConfig) -> str:
    """Stable hash of one candidate configuration."""
    rows = []
    for group in config.groups:
        block_map = (
            sorted(group.block_map.items()) if group.block_map else None
        )
        rows.append(
            (tuple(group.stages), group.model, tuple(group.sm_ids), block_map)
        )
    payload = json.dumps(
        {"groups": rows, "policy": config.policy, "queue": config.queue_mode},
        sort_keys=True,
    )
    return _digest(payload)


@dataclass(frozen=True)
class CachedEvaluation:
    """One memoized cell, as read from (or about to be written to) disk."""

    status: str  # "completed" | "invalid" | "timeout"
    time_ms: float = math.inf
    note: str = ""
    exceeded_cycles: float = 0.0
    pressure: Optional[QueuePressure] = None
    #: Exact elapsed engine cycles of a completed replay.  The tuner's
    #: canonical post-pass compares these against the final deadline in
    #: the cycle domain, so they must round-trip losslessly.
    cycles: float = 0.0

    def serves(self, deadline_cycles: float) -> bool:
        """Whether this outcome answers a replay under ``deadline_cycles``.

        A timeout only answers deadlines no looser than the one it ran
        past: a longer deadline might let the cell finish.
        """
        if self.status != "timeout":
            return True
        return self.exceeded_cycles >= deadline_cycles

    def well_formed(self) -> bool:
        """The field checks a stored cell must pass before it is served."""
        if self.status == "completed":
            return (
                isinstance(self.time_ms, (int, float))
                and isinstance(self.cycles, (int, float))
                and (
                    self.pressure is None
                    or isinstance(self.pressure, QueuePressure)
                )
            )
        if self.status == "timeout":
            return isinstance(self.exceeded_cycles, (int, float))
        return self.status == "invalid"


def space_key(pipeline: Pipeline, spec: GPUSpec, trace: Trace) -> str:
    """Fingerprint of one search space: pipeline, device and trace."""
    return _digest(
        "|".join(
            (
                pipeline_fingerprint(pipeline),
                spec_fingerprint(spec),
                trace_fingerprint(trace),
            )
        )
    )


def evaluation_key(space: str, config: PipelineConfig) -> str:
    """Store key of one cell: its search space plus the configuration."""
    return _digest(f"{space}|{config_fingerprint(config)}")


class EvaluationStore(Store):
    """Memoized replay outcomes of tuner candidates."""

    kind = "eval"
    version = EVALUATION_VERSION
    value_type = CachedEvaluation
    max_entries = 4096

    def valid(self, value: CachedEvaluation) -> bool:
        return value.well_formed()

    def lookup(
        self,
        space: str,
        config: PipelineConfig,
        deadline_cycles: float = math.inf,
    ) -> Optional[CachedEvaluation]:
        """The memoized outcome, or None when the cell must be replayed.

        An unusable memory entry (a timeout under a looser deadline)
        falls through to disk — a concurrent worker may have overwritten
        the cell with a completed or longer-deadline outcome.
        """
        return self.get(
            evaluation_key(space, config),
            usable=lambda entry: entry.serves(deadline_cycles),
        )

    def record(
        self, space: str, config: PipelineConfig, entry: CachedEvaluation
    ) -> None:
        """Memoize one cell (written atomically when disk-backed)."""
        self.put(evaluation_key(space, config), entry)
