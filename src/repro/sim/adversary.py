"""Byzantine behaviours (the adversary's code).

A single :class:`ByzantineBehavior` instance drives *all* faulty nodes of an
execution, reflecting the paper's single coordinating adversary.  It gets
hooks for execution start, every honest send (rushing observation), every
delivery to a faulty node, and self-scheduled wakeups, and acts through the
:class:`~repro.sim.scheduler.AdversaryContext`.

This module holds protocol-agnostic behaviours; attacks that understand the
CPS/TCB message format live in :mod:`repro.core.attacks`.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from repro.sim.trace import DeliveryRecord, SendRecord


class ByzantineBehavior:
    """Base behaviour: all hooks are no-ops (i.e. crashed from the start).

    Hook contract: *a hook runs iff it is overridden* — on a subclass,
    as an instance attribute, or on a duck-typed object that never
    subclassed.  The scheduler compares each per-message and per-pulse
    hook (``on_honest_send``, ``on_deliver``, ``on_pulse``) against the
    no-op below and does not call one that was inherited unchanged.
    Overriding a hook is also what switches its per-message record on:
    below ``trace="full"`` a ``SendRecord`` / ``DeliveryRecord`` is
    built only for a hook that will receive it, and at ``full`` the
    hook is handed the trace's own record.
    """

    def on_start(self, ctx) -> None:
        """Called once at time 0, after honest nodes started."""

    def on_honest_send(self, ctx, record: SendRecord) -> None:
        """Called synchronously whenever an honest node sends (rushing)."""

    def on_deliver(self, ctx, record: DeliveryRecord) -> None:
        """Called when a message is delivered to a faulty node."""

    def on_wakeup(self, ctx, tag: Any) -> None:
        """Called for wakeups scheduled via ``ctx.wake_at``."""

    def on_pulse(self, ctx, node: int, index: int, time: float) -> None:
        """Called when an honest node generates a pulse (full visibility)."""


class SilentAdversary(ByzantineBehavior):
    """Faulty nodes crash immediately: they never send anything.

    Against CPS this maximizes the number of ⊥ outputs (`b = f`), which
    exercises the ``f - b`` discard rule (ablation A2 flips that rule to
    show why it matters).
    """


class ReplayAdversary(ByzantineBehavior):
    """Re-sends every honest signature it learns to random recipients.

    A fuzz-style stressor: it cannot forge (the knowledge checker would
    raise), but it floods the network with stale-but-valid signatures at
    adversarially chosen delays.  Robust protocols must tolerate this
    without losing their guarantees; tests run CPS against it.
    """

    def __init__(self, seed: int = 0, copies: int = 1) -> None:
        self._rng = random.Random(seed)
        self.copies = copies

    def on_deliver(self, ctx, record: DeliveryRecord) -> None:
        # Read once a call: a send changes neither the bounds nor the
        # context's views.  The draws are the same calls, in order.
        low, high = ctx.config.delay_bounds(False)
        rng = self._rng
        faulty = sorted(ctx.faulty)
        honest = ctx.honest
        for _ in range(self.copies):
            src = rng.choice(faulty)
            dst = rng.choice(honest)
            delay = rng.uniform(low, high)
            ctx.send_from(src, dst, record.payload, delay)


class ScheduledSendAdversary(ByzantineBehavior):
    """Executes an explicit send schedule (for deterministic tests).

    ``schedule`` maps real times to lists of ``(src, dst, payload_fn,
    delay)`` where ``payload_fn(ctx)`` builds the payload lazily (so it can
    sign with faulty keys at send time).
    """

    def __init__(
        self,
        schedule: Dict[float, list],
    ) -> None:
        self._schedule = {t: list(actions) for t, actions in schedule.items()}

    def on_start(self, ctx) -> None:
        for time in sorted(self._schedule):
            ctx.wake_at(time, ("scheduled", time))

    def on_wakeup(self, ctx, tag: Any) -> None:
        if not (isinstance(tag, tuple) and tag and tag[0] == "scheduled"):
            return
        for src, dst, payload_fn, delay in self._schedule.get(tag[1], []):
            ctx.send_from(src, dst, payload_fn(ctx), delay)
