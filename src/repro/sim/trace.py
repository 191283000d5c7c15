"""Structured execution traces with selectable recording levels.

A :class:`Trace` collects typed records of everything observable in a
simulation: sends, deliveries, timers, pulses, and protocol-specific events
(e.g. a TCB instance resolving to ⊥ and why).  Traces power debugging,
the examples' narrative output, and several tests that assert on *how* an
outcome was reached rather than just on the outcome.

Recording is tiered by :class:`TraceLevel`:

* ``FULL`` — every record type (the default; what tests and examples use).
* ``PULSES`` — only :class:`PulseRecord` entries.  Campaign sweeps that
  only tabulate skew metrics run here: per-message ``SendRecord`` /
  ``DeliveryRecord`` allocation is skipped entirely, which is a large
  fraction of the simulator's inner-loop cost.
* ``NONE`` — nothing is recorded (``Trace(enabled=False)`` maps here).

The level only controls *recording*; pulse times themselves live on the
simulation (``SimulationResult.pulses``) and are byte-identical across
levels — asserted by ``tests/test_perf.py``.

Long ``FULL`` runs can accumulate millions of records; ``Trace``
accepts ``max_records=N`` to bound memory: the first ``N`` records are
kept verbatim and everything past the cap is counted into a single
trailing :class:`TruncationRecord` marker.  The cap lives inside the
records list itself (:class:`_BoundedRecords`), because the scheduler's
hot path appends to ``trace.records`` directly — a cap enforced only in
the ``Trace`` methods would be bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Iterator, List, Optional, Union


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
        if isinstance(value, bool):
            meant = "full" if value else "none"
            raise ValueError(
                f"trace={value!r} is not a trace level — "
                f"did you mean {meant!r}? (choose from "
                f"{[level.name.lower() for level in cls]})"
            )
        if isinstance(value, str):
            try:
                return cls[value.upper()]
            except KeyError:
                raise ValueError(
                    f"unknown trace level {value!r}; "
                    f"choose from {[level.name.lower() for level in cls]}"
                ) from None
        return cls(value)


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


@dataclass(slots=True)
class TruncationRecord:
    """Marker terminating a capped trace: ``dropped`` records followed.

    Mutable on purpose — the bounded list bumps ``dropped`` in place for
    every record past the cap instead of allocating anything.
    """

    time: float
    dropped: int


TraceRecord = Any

#: What simulation builders accept for their ``trace`` parameter: a
#: :class:`TraceLevel`, its lowercase name, or a pre-built
#: :class:`Trace` (e.g. one constructed with ``max_records=``).
TraceSpec = Union[TraceLevel, str, "Trace"]


class _BoundedRecords(list):
    """A list that keeps the first ``max_records`` entries and folds the
    overflow into one trailing :class:`TruncationRecord`."""

    __slots__ = ("max_records", "marker")

    def __init__(self, max_records: int) -> None:
        super().__init__()
        self.max_records = max_records
        self.marker: Optional[TruncationRecord] = None

    def append(self, record: TraceRecord) -> None:
        marker = self.marker
        if marker is not None:
            marker.dropped += 1
            return
        if list.__len__(self) < self.max_records:
            list.append(self, record)
            return
        self.marker = TruncationRecord(
            time=getattr(record, "time", 0.0), dropped=1
        )
        list.append(self, self.marker)


class Trace:
    """An append-only, level-gated log of simulation records."""

    __slots__ = ("level", "records")

    def __init__(
        self,
        enabled: bool = True,
        level: Union[TraceLevel, str, None] = None,
        max_records: Optional[int] = None,
    ) -> None:
        if level is None:
            level = TraceLevel.FULL if enabled else TraceLevel.NONE
        self.level = TraceLevel.coerce(level)
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.records: List[TraceRecord] = (
            [] if max_records is None else _BoundedRecords(max_records)
        )

    @classmethod
    def from_spec(cls, spec: TraceSpec) -> "Trace":
        """Build (or pass through) a trace from a builder's ``trace``
        argument — a level spec, or an existing :class:`Trace` such as a
        capped one."""
        if isinstance(spec, Trace):
            return spec
        return cls(level=TraceLevel.coerce(spec))

    @property
    def enabled(self) -> bool:
        """Legacy flag: does this trace record anything at all?"""
        return self.level is not TraceLevel.NONE

    @property
    def truncated(self) -> bool:
        """Did a ``max_records`` cap drop any records?"""
        marker = getattr(self.records, "marker", None)
        return marker is not None

    @property
    def dropped_records(self) -> int:
        """How many records the ``max_records`` cap folded away."""
        marker = getattr(self.records, "marker", None)
        return 0 if marker is None else marker.dropped

    def record(self, record: TraceRecord) -> None:
        if self.level:
            self.records.append(record)

    # Convenience constructors -----------------------------------------

    def send(self, **kwargs: Any) -> None:
        if self.level >= TraceLevel.FULL:
            self.records.append(SendRecord(**kwargs))

    def delivery(self, **kwargs: Any) -> None:
        if self.level >= TraceLevel.FULL:
            self.records.append(DeliveryRecord(**kwargs))

    def timer(self, **kwargs: Any) -> None:
        if self.level >= TraceLevel.FULL:
            self.records.append(TimerRecord(**kwargs))

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

    def where(
        self, predicate: Callable[[TraceRecord], bool]
    ) -> Iterator[TraceRecord]:
        return (r for r in self.records if predicate(r))

    def pulses_of(self, node: int) -> List[PulseRecord]:
        return [r for r in self.of_type(PulseRecord) if r.node == node]

    def protocol_events(
        self, kind: Optional[str] = None
    ) -> List[ProtocolRecord]:
        events = list(self.of_type(ProtocolRecord))
        if kind is None:
            return events
        return [r for r in events if r.kind == kind]

    def __len__(self) -> int:
        return len(self.records)
