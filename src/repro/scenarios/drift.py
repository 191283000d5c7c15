"""Drift-profile catalog: hardware-clock ensembles under registry keys.

Factories follow the ``drift`` convention of
:mod:`repro.scenarios.registry`: ``factory(params, seed, **overrides)``
returns one :class:`~repro.sim.clocks.HardwareClock` per node.  Every
ensemble honours the model assumptions the simulations validate at
start-up: initial offsets ``H_v(0) in [0, S]`` and rates in
``[1, theta]``.

``random`` and ``extreme`` are the two ensembles the low-level
``assemble_cps_simulation`` selects by its ``clock_style`` argument;
``mixed`` and ``staggered`` are stress ensembles that combine stable,
fast, and wandering hardware in one system.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.cps import default_clocks
from repro.scenarios.registry import register_scenario
from repro.sim.clocks import HardwareClock


@register_scenario(
    "drift",
    "random",
    description="Offsets uniform in [0, S]; rates re-drawn from "
    "[1, theta] as the run progresses",
    paper_ref="the benign wandering-oscillator ensemble (E10 floor "
    "measurements)",
    tags=("benign",),
)
def _random_profile(params, seed: int = 0) -> List[HardwareClock]:
    return default_clocks(params, seed=seed, style="random")


@register_scenario(
    "drift",
    "extreme",
    description="Half the nodes at rate 1 / offset 0, half at rate "
    "theta / offset S",
    paper_ref="the adversarial corner the Theorem 17 analysis is tight "
    "against (E4/E5)",
    tags=("adversarial",),
)
def _extreme_profile(params, seed: int = 0) -> List[HardwareClock]:
    return default_clocks(params, seed=seed, style="extreme")


@register_scenario(
    "drift",
    "mixed",
    description="One third stable (rate 1), one third fast (rate "
    "theta, offset S), one third wandering",
    paper_ref="mixed honest/faulty-grade hardware in one system; "
    "stresses the midpoint against heterogeneous drift",
    tags=("stress", "new"),
)
def _mixed_profile(params, seed: int = 0) -> List[HardwareClock]:
    rng = random.Random(seed)
    horizon = 200.0 * params.d
    clocks: List[HardwareClock] = []
    for node in range(params.n):
        style = node % 3
        if style == 0:
            clocks.append(
                HardwareClock.constant_rate(
                    1.0, offset=0.0, theta=params.theta
                )
            )
        elif style == 1:
            clocks.append(
                HardwareClock.constant_rate(
                    params.theta, offset=params.S, theta=params.theta
                )
            )
        else:
            clocks.append(
                HardwareClock.random_drift(
                    rng,
                    params.theta,
                    offset=rng.uniform(0.0, params.S),
                    horizon=horizon,
                    segment_length=max(horizon / 40.0, params.d),
                )
            )
    return clocks


@register_scenario(
    "drift",
    "staggered",
    description="Offsets spread linearly across the full allowed [0, S]"
    " band, rates alternating between 1 and theta",
    paper_ref="worst allowed initial spread (the E10 starting state) "
    "combined with maximal rate disagreement",
    tags=("stress", "new"),
)
def _staggered_profile(params, seed: int = 0) -> List[HardwareClock]:
    n = params.n
    clocks: List[HardwareClock] = []
    for node in range(n):
        offset = params.S * node / max(n - 1, 1)
        rate = 1.0 if node % 2 == 0 else params.theta
        clocks.append(
            HardwareClock.constant_rate(
                rate, offset=offset, theta=params.theta
            )
        )
    return clocks
