"""Event entries and deterministic ordering for the discrete-event engine.

Continuous real time is represented by floats.  At equal timestamps, events
are ordered by *kind priority* and then by insertion sequence number:

1. timers fire first,
2. then message deliveries,
3. then adversary wakeups.

Timers-before-deliveries makes the strict/open interval checks of the
paper's Algorithm TCB (Figure 2) resolve correctly at boundaries: a message
arriving exactly at a window-closing local time must not be counted as
arriving *inside* the open window, so the window-closing timer must be
processed first.  Adversary wakeups run last so the adversary observes
everything that happened "at" that instant, which only makes it stronger.

Queue representation
--------------------

A heap entry is the event itself: the tuple ``(time, priority, seq,
*fields)``.  The simulator pushes a timer as ``(node, tag,
local_time)`` and a delivery as ``(src, dst, payload)``, with no
object allocated per message; :meth:`EventQueue.push` stores one field,
the event it is given (an adversary wakeup's tag, a churn event's
:class:`~repro.dynamics.schedule.FaultEvent`).  ``seq`` is unique, so
tuple comparison runs in C and never reaches the fields.  Cancellation
records the entry's ``seq`` in a set; the entry is dropped when it
reaches the front, and a consumer tests the set only while it is
non-empty.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

#: Event-kind priorities (lower fires first at equal time).
PRIORITY_TIMER = 0
PRIORITY_DELIVERY = 1
PRIORITY_ADVERSARY = 2
#: Membership changes (crash/recover/join/corrupt) run after everything
#: else at the same instant: a node crashing "at t" still observes the
#: deliveries and timers due at t, which keeps churn composable with the
#: boundary-exact window semantics of Figure 2.
PRIORITY_CHURN = 3


@dataclass(slots=True)
class TimerEvent:
    """A local timer of an honest node coming due, as one record.

    The simulator never builds it: a timer is the fields ``(node, tag,
    local_time)`` of its heap entry.  ``bench/probes.py`` pushes one as
    the event of its queue probe.
    """

    node: int
    tag: Any
    local_time: float


#: A queue entry as stored on the heap: ``(time, priority, seq,
#: *fields)``.
HeapEntry = Tuple[Any, ...]

#: Opaque handle returned by :meth:`EventQueue.push` (the entry's
#: sequence number); pass it to :meth:`EventQueue.cancel`.
CancelHandle = int


class EventQueue:
    """A deterministic priority queue over simulation events.

    ``_heap`` stores ``(time, priority, seq, *fields)`` entries;
    ``_cancelled`` holds the ``seq`` of every cancelled entry still on
    the heap, which :meth:`pop_entry` and :meth:`peek_time` (and the
    simulator's main loop) drop when it reaches the front.  The set is
    mutated in place, never rebound, so a hoisted reference stays live.
    """

    __slots__ = ("_heap", "_cancelled", "_next_seq", "cancelled")

    def __init__(self) -> None:
        self._heap: List[HeapEntry] = []
        self._cancelled: Set[int] = set()
        self._next_seq = 0
        #: Successful :meth:`cancel` calls — a deterministic tally the
        #: telemetry layer reads as ``events.cancelled.requested``.
        self.cancelled = 0

    def push(self, time: float, priority: int, event: Any) -> CancelHandle:
        """Schedule ``event`` at ``time`` with the given kind priority."""
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, event))
        return seq

    def pop(self) -> Optional[Tuple[float, Any]]:
        """Remove and return ``(time, event)`` for the next live event."""
        popped = self.pop_entry()
        if popped is None:
            return None
        time, _priority, event = popped
        return time, event

    def pop_entry(self) -> Optional[Tuple[float, int, Any]]:
        """Remove and return ``(time, priority, event)`` for the next live
        event pushed by :meth:`push`.

        The priority doubles as the event kind (timers, deliveries, and
        adversary wakeups are pushed with distinct priorities), which lets
        the scheduler dispatch on an int instead of ``isinstance`` checks.
        """
        heap, cancelled = self._heap, self._cancelled
        while heap:
            entry = heapq.heappop(heap)
            if cancelled and entry[2] in cancelled:
                cancelled.discard(entry[2])
                continue
            return entry[0], entry[1], entry[3]
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if empty."""
        heap, cancelled = self._heap, self._cancelled
        while cancelled and heap and heap[0][2] in cancelled:
            cancelled.discard(heapq.heappop(heap)[2])
        return heap[0][0] if heap else None

    def cancel(self, handle: CancelHandle) -> bool:
        """Cancel a scheduled event; returns whether it was still live.

        O(heap): the entry is looked up by a scan, so this serves tests
        and probes, not a per-event path.
        """
        if handle in self._cancelled:
            return False
        if not any(entry[2] == handle for entry in self._heap):
            return False
        self._cancelled.add(handle)
        self.cancelled += 1
        return True

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def __bool__(self) -> bool:
        return len(self._heap) > len(self._cancelled)
