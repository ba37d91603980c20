"""Event primitives for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)`` so that simultaneous
events fire in a deterministic order: first by explicit priority, then by
scheduling order.  Determinism of the event order is what makes whole
simulation runs reproducible from a seed.

The heap stores plain tuples rather than rich objects: tuple comparison
is the single hottest operation in a large simulation, and native tuples
compare several times faster than generated dataclass ``__lt__`` methods.
Two entry layouts share one heap:

* ``(time, priority, sequence, event)`` — an ordinary entry.  ``event``
  is either an :class:`Event` handle or a pooled *event-like* object
  (``cancelled`` attribute + zero-argument ``callback()`` method) pushed
  through :meth:`EventQueue.push_raw`, which skips the handle allocation
  for fire-and-forget work such as message deliveries.
* ``(time, priority, sequence, batch, index)`` — one element of a batch
  pushed through :meth:`EventQueue.push_batch`.  ``batch`` is shared by
  the whole wave and must expose ``cancelled`` plus ``fire(index)``.

Sequence numbers are unique, so tuple comparison always resolves at the
third slot and the mixed-arity entries never compare their payloads.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Sequence

from repro.errors import SimulationError

#: Default event priority.  Lower numbers fire first among simultaneous events.
DEFAULT_PRIORITY = 100

#: Below this heap size, cancelled entries are never compacted: popping a
#: few dead timers is cheaper than rebuilding the heap, and it keeps the
#: "lazily removed" contract observable in small unit tests.
COMPACT_MIN_HEAP = 64


class Event:
    """A scheduled callback handle.

    Attributes:
        time: Simulated time (seconds) at which the event fires.
        priority: Tie-break among events with equal ``time``; lower first.
        sequence: Monotone scheduling counter; final tie-break.
        callback: Zero-argument callable invoked when the event fires.
        cancelled: Set by :meth:`cancel`; cancelled events are skipped.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the event loop skips it.

        Cancellation is O(1); the event stays in the heap until popped or
        until the owning queue compacts (see :meth:`EventQueue.push`).
        """
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._cancelled += 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, prio={self.priority}, {state})"


class EventQueue:
    """A priority queue of scheduled events.

    Wraps ``heapq`` with a monotone sequence counter so simultaneous events
    pop in scheduling order, which keeps runs deterministic.

    Cancelled entries are removed lazily: a counter tracks how many dead
    handles the heap still holds, ``live_count`` subtracts them, and
    :meth:`push` compacts the heap in place once the dead fraction
    crosses one half (long-lived cancelled timers — fetch timeouts whose
    block arrived — would otherwise accumulate for their full nominal
    delay).
    """

    def __init__(self) -> None:
        self._heap: list[Any] = []
        self._sequence = 0
        self._cancelled = 0
        self._compactions = 0

    def __len__(self) -> int:
        """Raw heap size, *including* lazily-removed cancelled entries."""
        return len(self._heap)

    @property
    def live_count(self) -> int:
        """Number of scheduled events that will actually fire."""
        count = len(self._heap) - self._cancelled
        return count if count > 0 else 0

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` at simulated ``time`` and return the event."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time!r}")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, self)
        heap = self._heap
        heapq.heappush(heap, (time, priority, sequence, event))
        if self._cancelled * 2 > len(heap) and len(heap) >= COMPACT_MIN_HEAP:
            self._compact()
        return event

    def push_raw(self, time: float, event: Any, priority: int = DEFAULT_PRIORITY) -> None:
        """Schedule a pooled event-like object without an :class:`Event` handle.

        ``event`` must expose a ``cancelled`` attribute (normally a class
        attribute fixed at ``False``) and a zero-argument ``callback()``
        method.  There is no handle, so the entry cannot be cancelled —
        use :meth:`push` for anything that might need
        :meth:`Event.cancel`.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (time, priority, sequence, event))

    def push_batch(
        self,
        times: Sequence[float],
        batch: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Schedule one ``(batch, index)`` entry per element of ``times``.

        ``batch`` is shared by every entry and must expose ``cancelled``
        (fixed ``False``) plus ``fire(index)``; entry ``i`` fires
        ``batch.fire(i)`` at ``times[i]``.  Entries receive consecutive
        sequence numbers in index order, so a batch fires in exactly the
        order ``len(times)`` scalar pushes of the same times would.

        When the batch rivals the existing heap in size the entries are
        appended and the whole heap re-heapified (O(n) beats k·log n);
        otherwise each entry is pushed individually.
        """
        heap = self._heap
        count = len(times)
        sequence = self._sequence
        self._sequence = sequence + count
        if count > len(heap):
            heap.extend(
                (times[i], priority, sequence + i, batch, i) for i in range(count)
            )
            heapq.heapify(heap)
        else:
            heappush = heapq.heappush
            for i in range(count):
                heappush(heap, (times[i], priority, sequence + i, batch, i))

    def pop(self) -> Optional[Event]:
        """Remove and return the next non-cancelled event, or ``None``."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                return event  # type: ignore[no-any-return]
            self._cancelled -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        if heap:
            return float(heap[0][0])
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._cancelled = 0

    def stats(self) -> dict[str, float]:
        """Queue counters for ``repro.obs`` (cold path)."""
        return {
            "depth": float(len(self._heap)),
            "live": float(self.live_count),
            "pushed_total": float(self._sequence),
            "cancelled_pending": float(self._cancelled),
            "compactions_total": float(self._compactions),
        }

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (in place).

        In-place slice assignment matters: the engine's run loop holds a
        direct reference to the heap list, which must stay valid across a
        compaction triggered by a push inside an event callback.
        Batch/raw entries carry ``cancelled = False`` as a class
        attribute, so the filter is uniform across entry layouts.
        Compaction preserves the ``(time, priority, sequence)`` keys of
        every surviving entry, so firing order is unchanged.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self._compactions += 1
