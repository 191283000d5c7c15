"""Hypothesis stateful model test for the event queue.

:class:`~repro.sim.events.EventQueue` keeps ``(time, priority, seq,
event)`` entries on a heap (no Python-level ``__lt__`` dispatch) and
cancels by recording ``seq``, dropping the entry lazily when it reaches
the front.  This machine drives the real queue and a naive sorted-list
model through interleaved push / pop / pop_entry / cancel / reschedule /
peek sequences and demands they never disagree — covering in
particular:

* the ``(time, priority, seq)`` tie-break: equal times and equal
  priorities must pop in insertion order;
* cancellation semantics: cancelled entries are dead immediately,
  double-cancels and cancel-after-pop report ``False``, and lazily
  discarded heap entries never resurrect an event;
* reschedule (cancel + re-push) — the pattern a timer reset follows.

Times are drawn from a small discrete pool *and* a continuous range so
collisions (the tie-break path) occur in nearly every run.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.sim.events import (
    PRIORITY_ADVERSARY,
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
    EventQueue,
)

#: Few distinct times -> frequent (time, priority) collisions.
COLLIDING_TIMES = st.sampled_from([0.0, 1.0, 2.5, 7.0])
CONTINUOUS_TIMES = st.floats(
    min_value=0.0,
    max_value=100.0,
    allow_nan=False,
    allow_infinity=False,
)
TIMES = COLLIDING_TIMES | CONTINUOUS_TIMES
PRIORITIES = st.sampled_from(
    [PRIORITY_TIMER, PRIORITY_DELIVERY, PRIORITY_ADVERSARY]
)


class EventQueueMachine(RuleBasedStateMachine):
    """Drive EventQueue and a naive model through the same operations."""

    handles = Bundle("handles")

    def __init__(self):
        super().__init__()
        self.queue = EventQueue()
        # handle -> (time, priority, handle, payload); live entries only.
        self.model = {}
        self.next_payload = 0

    # -- operations -----------------------------------------------------

    @rule(target=handles, time=TIMES, priority=PRIORITIES)
    def push(self, time, priority):
        payload = f"event-{self.next_payload}"
        self.next_payload += 1
        handle = self.queue.push(time, priority, payload)
        assert handle not in self.model, "handles must be unique"
        self.model[handle] = (time, priority, handle, payload)
        return handle

    @rule()
    def pop(self):
        expected = min(self.model.values()) if self.model else None
        popped = self.queue.pop()
        if expected is None:
            assert popped is None
        else:
            time, _priority, handle, payload = expected
            assert popped == (time, payload)
            del self.model[handle]

    @rule()
    def pop_entry(self):
        expected = min(self.model.values()) if self.model else None
        popped = self.queue.pop_entry()
        if expected is None:
            assert popped is None
        else:
            time, priority, handle, payload = expected
            assert popped == (time, priority, payload)
            del self.model[handle]

    @rule(handle=handles)
    def cancel(self, handle):
        was_live = handle in self.model
        assert self.queue.cancel(handle) is was_live
        self.model.pop(handle, None)

    @rule(handle=handles)
    def cancel_twice_is_false(self, handle):
        self.queue.cancel(handle)
        self.model.pop(handle, None)
        assert self.queue.cancel(handle) is False

    @rule(target=handles, handle=handles, time=TIMES, priority=PRIORITIES)
    def reschedule(self, handle, time, priority):
        """Cancel + re-push, as the simulator reschedules timers."""
        was_live = handle in self.model
        assert self.queue.cancel(handle) is was_live
        entry = self.model.pop(handle, None)
        payload = entry[3] if entry else f"event-{self.next_payload}"
        self.next_payload += 1
        new_handle = self.queue.push(time, priority, payload)
        self.model[new_handle] = (time, priority, new_handle, payload)
        return new_handle

    # -- invariants -----------------------------------------------------

    @invariant()
    def sizes_agree(self):
        assert len(self.queue) == len(self.model)
        assert bool(self.queue) is bool(self.model)

    @invariant()
    def peek_matches_model_minimum(self):
        expected = min(self.model.values())[0] if self.model else None
        assert self.queue.peek_time() == expected


TestEventQueueModel = EventQueueMachine.TestCase
TestEventQueueModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class TestTieBreakExplicit:
    """Deterministic companions to the stateful machine."""

    def test_equal_time_orders_by_priority_then_insertion(self):
        queue = EventQueue()
        queue.push(1.0, PRIORITY_DELIVERY, "delivery-1")
        queue.push(1.0, PRIORITY_TIMER, "timer-1")
        queue.push(1.0, PRIORITY_DELIVERY, "delivery-2")
        queue.push(1.0, PRIORITY_ADVERSARY, "adversary-1")
        queue.push(1.0, PRIORITY_TIMER, "timer-2")
        order = [queue.pop()[1] for _ in range(5)]
        assert order == [
            "timer-1",
            "timer-2",
            "delivery-1",
            "delivery-2",
            "adversary-1",
        ]

    def test_cancelled_head_is_skipped_lazily(self):
        queue = EventQueue()
        first = queue.push(1.0, PRIORITY_TIMER, "dead")
        queue.push(2.0, PRIORITY_TIMER, "alive")
        assert queue.cancel(first)
        assert queue.peek_time() == 2.0
        assert queue.pop() == (2.0, "alive")
        assert queue.pop() is None
