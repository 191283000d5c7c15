"""Event records and deterministic ordering for the discrete-event engine.

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

The heap holds bare ``(time, priority, seq)`` tuples — never the event
objects themselves — and a slab dict maps ``seq`` to the event payload.
Tuple keys compare in C (``seq`` is unique, so the event is never
compared), which removes the Python-level ``__lt__`` dispatch that used
to dominate ``heappush``/``heappop``; cancellation is O(1) slab removal
with lazy heap cleanup.  Event records are ``__slots__`` dataclasses, so
the per-message allocation in the simulator's inner loop stays small.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

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
    """A local timer of an honest node coming due.

    Not frozen, for the reason :class:`DeliveryEvent` is not: a CPS
    round sets Θ(n) timers a node, and a frozen ``__init__`` assigns
    each field through ``object.__setattr__``, which makes the
    allocation about three times as slow (≈ 240 ns against 75 ns on
    an AMD EPYC core, Python 3.11).  Nothing mutates a timer once
    queued.
    """

    node: int
    tag: Any
    local_time: float


@dataclass(slots=True)
class DeliveryEvent:
    """A message delivery: ``payload`` from ``src`` arriving at ``dst``.

    Not frozen, unlike its siblings: a run allocates one per message
    (Θ(n³) a CPS round) and a frozen ``__init__`` assigns each field
    through ``object.__setattr__``.  Nothing mutates a delivery once
    it is on the queue.
    """

    src: int
    dst: int
    payload: Any
    send_time: float


@dataclass(frozen=True, slots=True)
class AdversaryEvent:
    """A scheduled callback into the Byzantine behaviour."""

    tag: Any


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """A scheduled membership change (crash/recover/join/corrupt/restore).

    ``action`` is the :class:`~repro.dynamics.schedule.FaultEvent` to
    execute; the scheduler hands it to the installed
    :class:`~repro.sim.runtime.DynamicsHook`.
    """

    action: Any


#: A queue entry as stored on the heap: ``(time, priority, seq)``.
HeapKey = Tuple[float, int, int]

#: Opaque handle returned by :meth:`EventQueue.push` (the slab sequence
#: number); pass it to :meth:`EventQueue.cancel`.
CancelHandle = int


class EventQueue:
    """A deterministic priority queue over simulation events.

    ``_heap`` stores ``(time, priority, seq)`` keys; ``_slab`` maps live
    ``seq`` values to their event objects.  A cancelled entry is simply
    removed from the slab — its heap key is discarded lazily when it
    reaches the front.
    """

    __slots__ = ("_heap", "_slab", "_next_seq", "cancelled")

    def __init__(self) -> None:
        self._heap: List[HeapKey] = []
        self._slab: Dict[int, Any] = {}
        self._next_seq = 0
        #: Successful :meth:`cancel` calls — a deterministic tally the
        #: telemetry layer reads as ``events.cancelled.requested``.
        self.cancelled = 0

    def push(self, time: float, priority: int, event: Any) -> CancelHandle:
        """Schedule ``event`` at ``time`` with the given kind priority."""
        seq = self._next_seq
        self._next_seq = seq + 1
        self._slab[seq] = event
        heapq.heappush(self._heap, (time, priority, seq))
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
        event.

        The priority doubles as the event kind (timers, deliveries, and
        adversary wakeups are pushed with distinct priorities), which lets
        the scheduler dispatch on an int instead of ``isinstance`` checks.
        """
        heap, slab = self._heap, self._slab
        while heap:
            time, priority, seq = heapq.heappop(heap)
            event = slab.pop(seq, None)
            if event is not None:
                return time, priority, event
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if empty."""
        heap, slab = self._heap, self._slab
        while heap and heap[0][2] not in slab:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def cancel(self, handle: CancelHandle) -> bool:
        """Cancel a scheduled event; returns whether it was still live."""
        if self._slab.pop(handle, None) is None:
            return False
        self.cancelled += 1
        return True

    def __len__(self) -> int:
        return len(self._slab)

    def __bool__(self) -> bool:
        return bool(self._slab)
