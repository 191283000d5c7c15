"""Structured execution traces: a trace records everything or nothing.

A :class:`Trace` collects typed records of everything observable in a
simulation: sends, deliveries, timers, pulses, and protocol-specific events
(e.g. a TCB instance resolving to ⊥ and why).  Traces power debugging,
the examples' narrative output, and several tests that assert on *how* an
outcome was reached rather than just on the outcome.

A trace has one of two levels (:data:`LEVELS`):

* ``"full"`` — every record type (the default; what tests and examples
  use).
* ``"none"`` — nothing is recorded.  Campaign builders, the judges and
  :func:`repro.build.build_simulation` run here: no per-message
  ``SendRecord`` / ``DeliveryRecord`` is allocated, except for an
  adversary hook that was overridden to receive it — a large fraction
  of the simulator's inner-loop cost.

The level only controls *recording*; pulse times themselves live on the
simulation (``SimulationResult.pulses``), stream to attached monitors at
both levels, and are byte-identical across them — asserted by
``tests/test_perf.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

from repro import did_you_mean

#: The names a :class:`Trace` (and every simulation builder's
#: ``trace`` parameter) accepts.
LEVELS = ("none", "full")


@dataclass(frozen=True, slots=True)
class SendRecord:
    """A message left ``src`` bound for ``dst``."""

    time: float
    src: int
    dst: int
    payload: Any
    delay: float
    src_honest: bool


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """A message completed processing at ``dst``."""

    time: float
    src: int
    dst: int
    payload: Any


@dataclass(frozen=True, slots=True)
class TimerRecord:
    """A local timer fired at ``node``."""

    time: float
    node: int
    tag: Any
    local_time: float


@dataclass(frozen=True, slots=True)
class PulseRecord:
    """Node ``node`` generated its ``index``-th pulse (1-based)."""

    time: float
    node: int
    index: int
    local_time: float


@dataclass(frozen=True, slots=True)
class ProtocolRecord:
    """A protocol-specific annotation (kind + free-form details)."""

    time: float
    node: int
    kind: str
    details: Any


TraceRecord = Any


class Trace:
    """An append-only log of simulation records; ``full`` is False for
    a trace that records nothing."""

    __slots__ = ("full", "records")

    def __init__(self, level: str = "full") -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown trace level {level!r}"
                f"{did_you_mean(str(level), LEVELS)}; "
                f"choose from {list(LEVELS)}"
            )
        self.full = level == "full"
        self.records: List[TraceRecord] = []

    # Queries -----------------------------------------------------------

    def of_type(self, record_type: type) -> Iterator[TraceRecord]:
        """All records of one record class, in chronological order."""
        return (r for r in self.records if isinstance(r, record_type))

    def protocol_events(
        self, kind: Optional[str] = None
    ) -> List[ProtocolRecord]:
        events = list(self.of_type(ProtocolRecord))
        if kind is None:
            return events
        return [r for r in events if r.kind == kind]
