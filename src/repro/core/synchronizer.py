"""Round simulation on top of pulse synchronization (the intro application).

The paper motivates clock synchronization as a precise generalization of a
network synchronizer: if honest pulses have skew at most ``S`` and minimum
period at least ``S + d``, then a message sent at pulse ``i`` is delivered
before every honest node's pulse ``i + 1`` — pulses delimit simulated
lock-step rounds, each taking at most ``P_max`` real time (compared to the
``r (d + S)`` the intro quotes for a synchronizer built from logical
clocks).

Notably, the default CPS parameters *always* satisfy the separation
condition: ``P_min = (T - (theta+1) S) / theta >= S + d`` holds whenever
``T`` meets its Corollary 15 floor and ``d > 2u`` (a short calculation,
checked by :func:`supports_round_simulation` and asserted in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.params import ProtocolParameters, time_tolerance
from repro.sim.errors import ConfigurationError


def supports_round_simulation(params: ProtocolParameters) -> bool:
    """Does ``P_min >= S + d`` hold for these parameters?"""
    return params.p_min_bound >= params.S + params.d - params.tolerance


@dataclass
class RoundSchedule:
    """Rounds carved out of realized honest pulse times."""

    #: per round i (0-based): [start, deadline] = [max pulse i+1 times' ...]
    starts: List[float]
    ends: List[float]
    violations: List[int]

    @property
    def rounds(self) -> int:
        return len(self.starts)


def verify_round_separation(
    pulses: Dict[int, List[float]], d: float
) -> RoundSchedule:
    """Check the synchronizer condition on realized pulses.

    Round ``i`` spans from the *last* honest pulse ``i`` to the *first*
    honest pulse ``i + 1``; simulation is sound iff that gap is at least
    ``d`` for every round (every round-``i`` message arrives before anyone
    starts round ``i + 1``).  Returns the schedule plus any violating
    round indices.
    """
    if not pulses:
        raise ConfigurationError("no pulses supplied")
    count = min(len(times) for times in pulses.values())
    if count < 2:
        raise ConfigurationError("need at least two pulses per node")
    starts: List[float] = []
    ends: List[float] = []
    violations: List[int] = []
    for i in range(count - 1):
        start = max(times[i] for times in pulses.values())
        end = min(times[i + 1] for times in pulses.values())
        starts.append(start)
        ends.append(end)
        if end - start < d - time_tolerance(d):
            violations.append(i)
    return RoundSchedule(starts, ends, violations)


def synchronous_round_overhead(
    pulses: Dict[int, List[float]], d: float
) -> float:
    """Average realized round duration divided by the ideal ``d``.

    The paper's headline: with ``u << d`` and ``theta - 1 << 1``, each
    simulated round costs ``d + O(u + (theta-1) d) ≈ d`` — overhead close
    to 1.  Measured here as mean full-round time (pulse ``i`` to pulse
    ``i+1`` at the same node, averaged) over ``d``.
    """
    verify_round_separation(pulses, d)  # raises on a broken schedule
    count = min(len(times) for times in pulses.values())
    period_sum = 0.0
    samples = 0
    for times in pulses.values():
        for i in range(count - 1):
            period_sum += times[i + 1] - times[i]
            samples += 1
    return (period_sum / samples) / d if samples else float("nan")
