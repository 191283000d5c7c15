"""Pulse-synchronization metrics (Definition 3, measured).

All functions take a ``pulses`` map ``node -> [p_1, p_2, ...]`` (honest
nodes only — pass :meth:`SimulationResult.honest_pulses`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import ge, sub
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import RELATIVE_TOLERANCE
from repro.sim.errors import ConfigurationError

Pulses = Dict[int, List[float]]

# Every comparison of a measurement with a bound — experiment tables and
# conformance monitors alike — goes through the two functions below, up
# to the run's time tolerance (``ProtocolParameters.tolerance``).


def within(
    observed: float, bound: float, tolerance: float = RELATIVE_TOLERANCE
) -> bool:
    """``observed <= bound``, up to ``tolerance`` (False for NaN)."""
    return observed <= bound + tolerance


def at_least(
    observed: float, bound: float, tolerance: float = RELATIVE_TOLERANCE
) -> bool:
    """``observed >= bound``, up to ``tolerance`` (False for NaN)."""
    return observed >= bound - tolerance


def common_pulse_count(pulses: Pulses) -> int:
    """Number of pulses every node has generated."""
    if not pulses:
        raise ConfigurationError("no pulse data")
    return min(map(len, pulses.values()))


def _extremes(pulses: Pulses) -> Tuple[List[float], List[float]]:
    """``min_v p_{v,i}`` and ``max_v p_{v,i}`` of each common pulse index
    ``i``, the nodes taken in ``pulses``' order: the one pass every
    statistic below reads."""
    common_pulse_count(pulses)  # an empty map has no pulse data
    columns = list(zip(*pulses.values()))
    return list(map(min, columns)), list(map(max, columns))


def _skews(lows: List[float], highs: List[float], skip: int) -> List[float]:
    return list(map(sub, highs[skip:], lows[skip:]))


def _max_skew(lows: List[float], highs: List[float], skip: int) -> float:
    trajectory = _skews(lows, highs, skip)
    if not trajectory:
        raise ConfigurationError(f"no pulses left after skipping {skip}")
    return max(trajectory)


def _periods(lows: List[float], highs: List[float]) -> Tuple[float, float]:
    """Definition 3's ``(min_period, max_period)`` from the extremes."""
    if len(lows) < 2:
        raise ConfigurationError("need two pulses for a period")
    return min(map(sub, lows[1:], highs)), max(map(sub, highs[1:], lows))


def skew_trajectory(pulses: Pulses, skip: int = 0) -> List[float]:
    """Per-pulse skew ``max_v p_{v,i} - min_v p_{v,i}``, optionally
    skipping warm-up pulses."""
    return _skews(*_extremes(pulses), skip)


def max_skew(pulses: Pulses, skip: int = 0) -> float:
    """Worst per-pulse skew (Definition 3's S, measured)."""
    return _max_skew(*_extremes(pulses), skip)


def cohort_skew(
    pulses: Pulses,
    nodes: Sequence[int],
    skip: int = 0,
    default: float = float("inf"),
) -> float:
    """:func:`max_skew` over the ``nodes`` that pulsed at all;
    ``default`` when none did or fewer than ``skip + 1`` pulses are
    common (a deadlocked or truncated run has no skew to report)."""
    try:
        return max_skew(
            {v: pulses[v] for v in nodes if pulses.get(v)}, skip=skip
        )
    except ConfigurationError:
        return default


def min_period(pulses: Pulses) -> float:
    """``inf_i (min_v p_{v,i+1} - max_v p_{v,i})`` — Definition 3."""
    return _periods(*_extremes(pulses))[0]


def max_period(pulses: Pulses) -> float:
    """``sup_i (max_v p_{v,i+1} - min_v p_{v,i})`` — Definition 3."""
    return _periods(*_extremes(pulses))[1]


def check_liveness(pulses: Pulses, expected: int) -> bool:
    """Did every node output at least ``expected`` pulses, in order?

    Compared a column pair at a time over the common prefix, then node
    by node over the tails of the longer trains."""
    trains = list(pulses.values())
    shortest = min(map(len, trains), default=expected)
    if shortest < expected:
        return False
    columns = list(zip(*trains))
    if any(any(map(ge, a, b)) for a, b in zip(columns, columns[1:])):
        return False
    tail = max(shortest - 1, 0)
    return not any(
        any(map(ge, islice(t, tail, None), islice(t, tail + 1, None)))
        for t in trains if len(t) > shortest
    )


@dataclass(frozen=True)
class PulseReport:
    """Summary statistics of one run."""

    nodes: int
    pulses: int
    max_skew: float
    steady_skew: float
    min_period: float
    max_period: float

    @staticmethod
    def from_pulses(pulses: Pulses, warmup: int = 2) -> "PulseReport":
        lows, highs = _extremes(pulses)
        count = len(lows)
        warmup = min(warmup, max(count - 1, 0))
        # The skews first: with no common pulse they raise before the
        # periods do.
        skew = _max_skew(lows, highs, 0)
        steady = _max_skew(lows, highs, warmup)
        p_min, p_max = _periods(lows, highs)
        return PulseReport(
            nodes=len(pulses),
            pulses=count,
            max_skew=skew,
            steady_skew=steady,
            min_period=p_min,
            max_period=p_max,
        )


#: What a row reports for a run that died before its pulse quota.
DEAD_REPORT = PulseReport(
    nodes=0, pulses=0, max_skew=float("inf"), steady_skew=float("inf"),
    min_period=float("nan"), max_period=float("nan"),
)


# ----------------------------------------------------------------------
# Stabilization metrics (churn / membership dynamics)
#
# Under a fault schedule pulse *indices* stop aligning across nodes — a
# node that missed three rounds is three indices behind — so the static
# Definition 3 metrics above do not apply to disrupted nodes.  The
# churn metrics instead align by *time*: a disrupted node's pulse is
# compared against the nearest pulse of each reference (never-disrupted)
# node, and re-synchronization is judged on that envelope.
# ----------------------------------------------------------------------


def nearest_pulse_gap(times: Sequence[float], t: float) -> float:
    """``min_i |times[i] - t|`` over a *sorted* pulse train (inf if
    empty)."""
    if not times:
        return float("inf")
    index = bisect_left(times, t)
    best = float("inf")
    if index < len(times):
        best = times[index] - t
    if index > 0:
        best = min(best, t - times[index - 1])
    return best


def alignment_envelope(
    pulses: Pulses, reference: Sequence[int], t: float, bound: float
) -> Optional[float]:
    """Worst nearest-pulse gap of time ``t`` against the reference
    cohort.

    A reference node only participates while its recorded train covers
    ``t`` (i.e. ``t <= last pulse + bound``) — runs stop mid-round, and
    a train truncated *before* ``t`` would report a spurious gap.
    Returns ``None`` when no reference covers ``t`` (the pulse is not
    evaluable, e.g. the run's final instants).
    """
    worst: Optional[float] = None
    for node in reference:
        times = pulses.get(node, [])
        if not times or t > times[-1] + bound:
            continue
        gap = nearest_pulse_gap(times, t)
        if worst is None or gap > worst:
            worst = gap
    return worst


@dataclass(frozen=True)
class StabilizationReport:
    """Re-synchronization summary of one node after one activation.

    ``pulses_to_resync`` counts the node's pulses from the activation up
    to and including the first pulse from which *every* later evaluable
    pulse stays within ``bound`` of the reference cohort (``None`` when
    the node never restabilizes — including when it never pulses again).
    ``envelope`` is the worst evaluable post-resync gap; ``trajectory``
    the full per-pulse envelope sequence (``nan`` for non-evaluable
    pulses).
    """

    node: int
    activated_at: float
    pulses_to_resync: Optional[int]
    envelope: float
    trajectory: Tuple[float, ...]

    @property
    def resynced(self) -> bool:
        return self.pulses_to_resync is not None


def stabilization_report(
    pulses: Pulses,
    node: int,
    activated_at: float,
    reference: Sequence[int],
    bound: float,
    tolerance: float = RELATIVE_TOLERANCE,
) -> StabilizationReport:
    """Judge one node's re-synchronization after an activation at
    ``activated_at`` against the ``reference`` cohort (nodes active and
    honest throughout; compare with ``bound`` = the skew bound ``S``).
    """
    post = [t for t in pulses.get(node, []) if t > activated_at]
    envelopes = [
        alignment_envelope(pulses, reference, t, bound) for t in post
    ]
    # Last offending pulse decides the resync index; trailing
    # non-evaluable pulses (run truncation) are neutral.
    resync_index: Optional[int] = 0 if post else None
    for index, value in enumerate(envelopes):
        if value is not None and not within(value, bound, tolerance):
            resync_index = index + 1
    if resync_index is not None and resync_index >= len(post):
        resync_index = None  # never settled (or never pulsed again)
    settled = (
        envelopes[resync_index:] if resync_index is not None else []
    )
    evaluable = [value for value in settled if value is not None]
    if resync_index is not None and not evaluable:
        # Every settled pulse fell outside reference coverage: there is
        # no evidence of alignment, so do not claim re-synchronization.
        resync_index = None
    return StabilizationReport(
        node=node,
        activated_at=activated_at,
        pulses_to_resync=(
            resync_index + 1 if resync_index is not None else None
        ),
        envelope=max(evaluable) if evaluable else float("nan"),
        trajectory=tuple(
            float("nan") if value is None else value
            for value in envelopes
        ),
    )


def stabilization_reports(
    pulses: Pulses,
    stable_nodes: Sequence[int],
    activations: Sequence[Tuple[float, str, int]],
    bound: float,
    tolerance: float = RELATIVE_TOLERANCE,
) -> Tuple[List[int], List[StabilizationReport]]:
    """The reference cohort (stable nodes that pulsed) and one
    :func:`stabilization_report` against it per applied
    ``(time, kind, node)`` activation."""
    cohort = [v for v in stable_nodes if pulses.get(v)]
    return cohort, [
        stabilization_report(pulses, node, time, cohort, bound, tolerance)
        for time, _kind, node in activations
    ]


def worst_resync(
    reports: Sequence[StabilizationReport],
) -> Tuple[int, float]:
    """``(most pulses to resync, worst post-resync envelope)`` over the
    reports that resynced; ``(0, 0.0)`` when none did."""
    resynced = [report for report in reports if report.resynced]
    return (
        max((report.pulses_to_resync for report in resynced), default=0),
        max(
            (
                report.envelope
                for report in resynced
                if report.envelope == report.envelope  # drop NaNs
            ),
            default=0.0,
        ),
    )
