"""Span ledger: ``perf_counter`` spans aggregated per (span, parent) edge.

A span wraps one call into a layer.  The ledger keeps a stack of open
spans, so when a span closes it knows its parent and how much of its
own interval its child spans covered.  Nothing is stored per call: each
(span, parent) edge accumulates

* ``calls``  — how many times the span closed under that parent;
* ``total``  — summed wall time of those calls;
* ``self``   — ``total`` minus the time covered by direct child spans;
* ``units``  — an optional work count (entries pushed, draws made, ...).

Several wrapped callables may share a span name; each wrapper also
counts its own calls under its ``entry`` label, so an entry point that
stops being called shows even while its span-mates keep the span busy.

Spans close in a ``finally`` block, so a callee that raises still
closes its span and charges its time to the right parent.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

#: Counts the work a call did from ``(args, result)``.
Units = Callable[[tuple[Any, ...], Any], int]


class Ledger:
    """In-memory span aggregate; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: (span, parent span or "") -> [calls, total_s, self_s, units]
        self.edges: dict[tuple[str, str], list[Any]] = {}
        #: gauge name -> highest value passed to :meth:`peak`
        self.peaks: dict[str, int] = {}
        #: entry label -> [calls]
        self.entries: dict[str, list[int]] = {}
        self._stack: list[list[Any]] = []

    def peak(self, gauge: str, value: int) -> None:
        """Keep the high-water mark of ``gauge``."""
        if value > self.peaks.get(gauge, -1):
            self.peaks[gauge] = value

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        units: Optional[Units] = None,
        entry: Optional[str] = None,
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name`` and
        counted under ``entry`` (default: ``name``)."""
        stack = self._stack
        edges = self.edges
        clock = self.clock
        tally = self.entries.setdefault(entry or name, [0])

        def span(*args: Any, **kwargs: Any) -> Any:
            tally[0] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (name, parent[0])
                else:
                    key = (name, "")
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if units is not None:
                edge[3] += units(args, result)
            return result

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def calls(self, name: str, parent: Optional[str] = None) -> int:
        return int(self._sum(name, parent, 0))

    def entry_calls(self, entry: str) -> int:
        return self.entries.get(entry, [0])[0]

    def total(self, name: str) -> float:
        return float(self._sum(name, None, 1))

    def self_time(self, name: str) -> float:
        return float(self._sum(name, None, 2))

    def units(self, name: str) -> int:
        return int(self._sum(name, None, 3))

    def span_count(self) -> int:
        return sum(edge[0] for edge in self.edges.values())

    def _sum(self, name: str, parent: Optional[str], column: int) -> float:
        return sum(
            edge[column]
            for (span, edge_parent), edge in self.edges.items()
            if span == name and (parent is None or edge_parent == parent)
        )


def span_cost_us(calls: int = 200_000) -> float:
    """Measured cost of one span around a no-op, in microseconds.

    Times ``calls`` wrapped no-op calls against the same loop over the
    bare function, so only the span bookkeeping is left.  Reported next
    to ``spans.overhead`` so the traced run's inflation can be checked
    against ``span count x cost``.
    """

    def noop() -> None:
        return None

    wrapped = Ledger().wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        wrapped()
    traced = clock() - start
    return max(traced - bare, 0.0) / calls * 1e6
