"""Structured execution traces with selectable recording levels.

A :class:`Trace` collects typed records of everything observable in a
simulation: sends, deliveries, timers, pulses, and protocol-specific events
(e.g. a TCB instance resolving to ⊥ and why).  Traces power debugging,
the examples' narrative output, and several tests that assert on *how* an
outcome was reached rather than just on the outcome.

Recording is tiered by :class:`TraceLevel`:

* ``FULL`` — every record type (the default; what tests and examples use).
* ``PULSES`` — only :class:`PulseRecord` entries.  Campaign sweeps that
  only tabulate skew metrics run here: no per-message ``SendRecord`` /
  ``DeliveryRecord`` is allocated, except for an adversary hook that
  was overridden to receive it — a large fraction of the simulator's
  inner-loop cost.
* ``NONE`` — nothing is recorded.

The level only controls *recording*; pulse times themselves live on the
simulation (``SimulationResult.pulses``) and are byte-identical across
levels — asserted by ``tests/test_perf.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterator, List, Optional, Union

from repro import did_you_mean


class TraceLevel(IntEnum):
    """How much of an execution a :class:`Trace` records."""

    NONE = 0
    PULSES = 1
    FULL = 2

    @classmethod
    def coerce(
        cls, value: Union["TraceLevel", str, int, None]
    ) -> "TraceLevel":
        """Accept a level, its lowercase name, or ``None`` (``FULL``).

        Bools are rejected by name: ``bool`` is an ``int``, so
        ``True`` would otherwise silently mean ``PULSES``.
        """
        if value is None:
            return cls.FULL
        names = [level.name.lower() for level in cls]
        if isinstance(value, bool):
            meant = "full" if value else "none"
            raise ValueError(
                f"trace={value!r} is not a trace level — "
                f"did you mean {meant!r}? (choose from {names})"
            )
        if isinstance(value, str):
            try:
                return cls[value.upper()]
            except KeyError:
                raise ValueError(
                    f"unknown trace level {value!r}"
                    f"{did_you_mean(value, names)}; choose from {names}"
                ) from None
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"{value!r} is not a valid TraceLevel; choose from {names}"
            ) from None


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

#: What simulation builders accept for their ``trace`` parameter: a
#: :class:`TraceLevel` or its lowercase name.
TraceSpec = Union[TraceLevel, str]


class Trace:
    """An append-only, level-gated log of simulation records."""

    __slots__ = ("level", "records")

    def __init__(self, level: Union[TraceLevel, str, None] = None) -> None:
        self.level = TraceLevel.coerce(level)
        self.records: List[TraceRecord] = []

    # Convenience constructors -----------------------------------------

    def pulse(self, **kwargs: Any) -> None:
        if self.level >= TraceLevel.PULSES:
            self.records.append(PulseRecord(**kwargs))

    def protocol(self, **kwargs: Any) -> None:
        if self.level >= TraceLevel.FULL:
            self.records.append(ProtocolRecord(**kwargs))

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
