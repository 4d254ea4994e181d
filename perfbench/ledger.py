"""Host-time spans recorded around calls into the program's layers.

A :class:`Ledger` keeps spans (name, start, end, parent) in memory.  The
benchmark opens one root span per timed unit; :meth:`Ledger.wrap`
replaces a public function or method of the program with a wrapper that
opens a child span around each call, for as long as the ledger is
installed.  Nothing in the program itself is edited, and with no ledger
installed the program runs unwrapped.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of a
root's subtree add up exactly to the root's duration: the per-layer
ledger accounts for every nanosecond of a traced unit.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    #: Index of the enclosing span in :attr:`Ledger.spans`; -1 for a root.
    parent: int
    end_ns: int = 0
    #: Summed durations of the direct children.
    child_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


#: ``count(ledger, args, kwargs, result)``: adds exact counts for one call.
CountFn = Callable[["Ledger", tuple, dict, object], None]


class Ledger:
    """Spans, per-unit counters and the patches that feed them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        #: Counters of the unit being traced; :meth:`begin_unit` resets it.
        self.counts: Counter = Counter()
        #: Devices built inside the open unit (harvested by the caller).
        self.devices: list = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.duration_ns

    def begin_unit(self, name: str) -> int:
        """Open a root span and start the unit's counters afresh."""
        if self._open:
            raise RuntimeError("a unit is already open")
        self.counts = Counter()
        self.devices = []
        return self.begin(name)

    def subtree(self, root: int) -> list[Span]:
        """The root span and every span recorded inside it."""
        stop = root + 1
        while stop < len(self.spans) and self.spans[stop].parent != -1:
            stop += 1
        return self.spans[root:stop]

    def self_times(self, root: int) -> Counter:
        """Self nanoseconds per span name within one root's subtree."""
        totals: Counter = Counter()
        for span in self.subtree(root):
            totals[span.name] += span.self_ns
        return totals

    def dump(self, path: str) -> None:
        """Write every span as one JSON list of ``[name, start, end, parent]``."""
        with open(path, "w") as fh:
            json.dump(
                [[s.name, s.start_ns, s.end_ns, s.parent] for s in self.spans],
                fh,
            )

    # ------------------------------------------------------------------
    # Wrapping the program's public calls
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: Optional[str],
        count: Optional[CountFn] = None,
    ) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        Calls outside a unit pass straight through, as do calls made
        while a span of the same name is innermost (a stage batch that
        falls back to per-item calls is one kernel span, not many).
        ``count`` runs inside the span after each traced call.  With
        ``name=None`` no span is opened and only ``count`` runs.

        ``owner`` is a class (its own attribute is replaced), a module,
        or an instance, frozen dataclasses included.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        ledger = self

        def traced(*args, **kwargs):
            open_spans = ledger._open
            if not open_spans:
                return original(*args, **kwargs)
            if name is None:
                result = original(*args, **kwargs)
                if count is not None:
                    count(ledger, args, kwargs, result)
                return result
            if ledger.spans[open_spans[-1]].name == name:
                return original(*args, **kwargs)
            index = ledger.begin(name)
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    count(ledger, args, kwargs, result)
                return result
            finally:
                ledger.end(index)

        self._patches.append((owner, attr, original))
        _set(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            _set(owner, attr, original)


def _set(owner: object, attr: str, value: object) -> None:
    try:
        setattr(owner, attr, value)
    except dataclasses.FrozenInstanceError:
        object.__setattr__(owner, attr, value)
