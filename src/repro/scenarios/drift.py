"""Drift-profile catalog: hardware-clock ensembles under registry keys.

Factories follow the ``drift`` convention of
:mod:`repro.scenarios.registry`: ``factory(params, seed, **overrides)``
returns a :class:`~repro.sim.clocks.ClockEnsemble` — a
``Sequence[HardwareClock]`` held as one table of segment rows, built
without per-node objects.  Every ensemble honours the model
assumptions the simulations validate at start-up: initial offsets
``H_v(0) in [0, S]`` and rates in ``[1, theta]``.

``random`` is also the ensemble the low-level
``assemble_cps_simulation`` builds when given no clocks; ``extreme`` is
the corner the analysis is tight against; ``mixed`` and ``staggered``
are stress ensembles that combine stable, fast, and wandering hardware
in one system.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List

from repro.scenarios.registry import register_scenario

if TYPE_CHECKING:
    from repro.sim.clocks import ClockEnsemble, Row


@register_scenario(
    "drift",
    "random",
    description="Offsets uniform in [0, S]; rates re-drawn from "
    "[1, theta] as the run progresses",
    paper_ref="the benign wandering-oscillator ensemble (E10 floor "
    "measurements)",
    tags=("benign",),
)
def _random_profile(params, seed: int = 0) -> ClockEnsemble:
    from repro.core.cps import default_clocks

    return default_clocks(params, seed=seed)


@register_scenario(
    "drift",
    "extreme",
    description="Half the nodes at rate 1 / offset 0, half at rate "
    "theta / offset S",
    paper_ref="the adversarial corner the Theorem 17 analysis is tight "
    "against (E4/E5)",
    tags=("adversarial",),
)
def _extreme_profile(params, seed: int = 0) -> ClockEnsemble:
    from repro.sim.clocks import ClockEnsemble, constant_row

    rows = [
        constant_row(1.0, 0.0)
        if node % 2 == 0
        else constant_row(params.theta, params.S)
        for node in range(params.n)
    ]
    return ClockEnsemble(rows, params.theta)


@register_scenario(
    "drift",
    "mixed",
    description="One third stable (rate 1), one third fast (rate "
    "theta, offset S), one third wandering",
    paper_ref="mixed honest/faulty-grade hardware in one system; "
    "stresses the midpoint against heterogeneous drift",
    tags=("stress", "new"),
)
def _mixed_profile(params, seed: int = 0) -> ClockEnsemble:
    from repro.core.cps import wandering_row
    from repro.sim.clocks import ClockEnsemble, constant_row

    rng = random.Random(seed)
    horizon = 200.0 * params.d
    rows: List[Row] = []
    for node in range(params.n):
        style = node % 3
        if style == 0:
            rows.append(constant_row(1.0, 0.0))
        elif style == 1:
            rows.append(constant_row(params.theta, params.S))
        else:
            rows.append(wandering_row(rng, params, horizon))
    return ClockEnsemble(rows, params.theta)


@register_scenario(
    "drift",
    "staggered",
    description="Offsets spread linearly across the full allowed [0, S]"
    " band, rates alternating between 1 and theta",
    paper_ref="worst allowed initial spread (the E10 starting state) "
    "combined with maximal rate disagreement",
    tags=("stress", "new"),
)
def _staggered_profile(params, seed: int = 0) -> ClockEnsemble:
    from repro.sim.clocks import ClockEnsemble, constant_row

    n = params.n
    rows: List[Row] = []
    for node in range(n):
        offset = params.S * node / max(n - 1, 1)
        rate = 1.0 if node % 2 == 0 else params.theta
        rows.append(constant_row(rate, offset))
    return ClockEnsemble(rows, params.theta)
