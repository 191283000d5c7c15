"""Shared wiring of the two signature-relay pulsers.

The signed-relay and chain-relay baselines take parameter records of
the same shape (``n``, ``f``, ``theta``, ``d``, ``u``, ``period``,
``initial_skew``) and differ, as simulations, in the node class and in
how many periods their default clocks keep drifting.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Sequence

from repro.sim.clocks import (
    ClockEnsemble,
    HardwareClock,
    random_drift_row,
    validate_initial_skew,
)
from repro.sim.network import DelayPolicy, NetworkConfig
from repro.sim.runtime import TimedProtocol
from repro.sim.scheduler import Simulation
from repro.sim.trace import Trace


def relay_simulation(
    params: Any,
    node: Callable[[Any], TimedProtocol],
    drift_periods: float,
    clocks: Optional[Sequence[HardwareClock]],
    faulty: Sequence[int],
    behavior: Any,
    delay_policy: Optional[DelayPolicy],
    seed: int,
    trace: str,
) -> Simulation:
    """A ready-to-run simulation of ``node(params)`` at every node.

    The default clocks are one table drawn from ``Random(seed)``: per
    node an offset in ``[0, initial_skew]`` first, then a rate in
    ``[1, theta]`` per period for ``drift_periods`` periods (the order
    every seeded E6 row depends on).
    """
    config = NetworkConfig(params.n, params.d, params.u)
    if clocks is None:
        rng = random.Random(seed)
        clocks = ClockEnsemble(
            [
                random_drift_row(
                    rng,
                    params.theta,
                    offset=rng.uniform(0.0, params.initial_skew),
                    horizon=drift_periods * params.period,
                    segment_length=params.period,
                )
                for _ in range(params.n)
            ],
            params.theta,
            tolerance=config.tolerance,
        )
    excluded = set(faulty)
    validate_initial_skew(
        [clocks[v] for v in range(params.n) if v not in excluded],
        params.initial_skew,
    )
    return Simulation(
        config=config,
        clocks=clocks,
        protocol_factory=lambda v: node(params),
        faulty=faulty,
        behavior=behavior,
        delay_policy=delay_policy,
        f=params.f,
        trace=Trace(trace),
    )
