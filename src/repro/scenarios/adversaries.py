"""Adversary catalog: Byzantine behaviours under registry keys.

Factories follow the ``adversary`` convention of
:mod:`repro.scenarios.registry`: ``factory(params, **overrides)`` where
``params`` is the run's :class:`~repro.core.params.ProtocolParameters`
(``None`` for protocol-agnostic behaviours that ignore it).

Entries tagged ``cps`` drive the pulse-synchronization simulations;
entries tagged ``apa`` are round-model adversaries for the approximate
agreement experiments (E1) and ignore ``params`` entirely.
"""

from __future__ import annotations

from typing import Optional

from repro.scenarios.registry import ParamSpec, register_scenario


@register_scenario(
    "adversary",
    "silent",
    description="Faulty nodes crash at time 0 and never send",
    paper_ref="maximizes ⊥ outputs (b = f); exercises the f-b discard "
    "rule (ablation A2)",
    tags=("cps", "generic"),
)
def _silent(params=None):
    from repro.sim.adversary import SilentAdversary

    return SilentAdversary()


@register_scenario(
    "adversary",
    "replay",
    description="Re-sends every learned honest signature to random "
    "recipients at adversarial delays",
    paper_ref="fuzz-style stressor; cannot forge (knowledge checker), "
    "only replay",
    params=(
        ParamSpec("seed", 0, "RNG seed for target/delay choices"),
        ParamSpec("copies", 1, "replayed copies per observed delivery"),
    ),
    tags=("cps", "generic"),
)
def _replay(params=None, seed: int = 0, copies: int = 1):
    from repro.sim.adversary import ReplayAdversary

    return ReplayAdversary(seed=seed, copies=copies)


@register_scenario(
    "adversary",
    "mimic-split",
    description="Undetected faulty dealers skew their apparent pulse "
    "time differently for the two receiver groups",
    paper_ref="exploits the full slack Lemma 11 leaves an accepted "
    "dealer",
    params=(
        ParamSpec(
            "spread_fraction", 0.9,
            "fraction of the tolerated slack between the groups",
        ),
        ParamSpec(
            "stagger", 0.0,
            "extra real-time gap before the slow copies (ablation A1)",
        ),
    ),
    tags=("cps",),
)
def _mimic_split(params, spread_fraction: float = 0.9, stagger: float = 0.0):
    from repro.core.attacks import CpsMimicDealerAttack, timing_split_group

    return CpsMimicDealerAttack(
        params,
        timing_split_group(params.n),
        spread_fraction=spread_fraction,
        stagger=stagger,
    )


@register_scenario(
    "adversary",
    "equivocating-subset",
    description="Faulty dealers address only half the honest nodes, "
    "maximizing ⊥ asymmetry",
    paper_ref="the scenario Lemmas 7/8 exist for (Figure 2 timeout/echo "
    "rules); with lateness > 0 the subset also sees a late extreme "
    "only the f-b discard absorbs",
    params=(
        ParamSpec(
            "lateness", 0.0,
            "extra real-time delay of the subset's copies",
        ),
    ),
    tags=("cps",),
)
def _equivocating_subset(params, lateness: float = 0.0):
    from repro.core.attacks import CpsEquivocatingSubsetAttack

    return CpsEquivocatingSubsetAttack(params, lateness=lateness)


@register_scenario(
    "adversary",
    "rushing-echo",
    description="Instantly re-echoes honest signatures over fast faulty "
    "links to force honest-dealer rejections",
    paper_ref="Section 1 warning / Theorem 5; harmful only when "
    "u_tilde > u (E8)",
    params=(
        ParamSpec("victims", None, "receiver ids to rush (None = all)"),
    ),
    tags=("cps",),
)
def _rushing_echo(params=None, victims: Optional[tuple] = None):
    from repro.core.attacks import CpsRushingEchoAttack

    return CpsRushingEchoAttack(victims=victims)


@register_scenario(
    "adversary",
    "coordinated-offset",
    description="All faulty dealers present one coordinated extreme "
    "apparent offset, optionally flipping direction each round",
    paper_ref="maximal coherent bias against the ⊥-aware midpoint "
    "(Figure 3); oscillating variant stresses Lemma 16",
    params=(
        ParamSpec(
            "offset_fraction", 1.0,
            "how far into the admissible window the offset sits",
        ),
        ParamSpec(
            "alternate", True, "flip the pushed direction every round"
        ),
    ),
    tags=("cps", "new"),
)
def _coordinated_offset(
    params, offset_fraction: float = 1.0, alternate: bool = True
):
    from repro.core.attacks import CpsCoordinatedOffsetAttack

    return CpsCoordinatedOffsetAttack(
        params, offset_fraction=offset_fraction, alternate=alternate
    )


@register_scenario(
    "adversary",
    "early-extreme",
    description="Predictively timed broadcasts arriving just after "
    "each pulse: consistent, accepted, extreme-negative estimates",
    paper_ref="the f coordinated extremes the ⊥-aware f-b discard of "
    "Figure 3 exists to absorb — the apa=off ablation's breaking case",
    params=(
        ParamSpec(
            "margin", None,
            "real-time arrival margin after the predicted first pulse "
            "(None = 2S)",
        ),
    ),
    tags=("cps", "new"),
)
def _early_extreme(params, margin: Optional[float] = None):
    from repro.core.attacks import CpsEarlyExtremeAttack

    return CpsEarlyExtremeAttack(params, margin=margin)


@register_scenario(
    "adversary",
    "forging-impersonator",
    description="Signs <r> with its own key but claims honest dealers "
    "as senders; harmless under real verification, fatal without it",
    paper_ref="Theorem 5's unforgeability assumption — the exact "
    "attack the signatures=off ablation re-enables",
    params=(
        ParamSpec(
            "rounds", None,
            "forge only the first this-many rounds (None = every "
            "round)",
        ),
    ),
    tags=("cps", "new"),
)
def _forging_impersonator(params, rounds: Optional[int] = None):
    from repro.core.attacks import CpsForgingImpersonatorAttack

    return CpsForgingImpersonatorAttack(params, rounds=rounds)


# ----------------------------------------------------------------------
# Round-model adversaries for approximate agreement (E1)
# ----------------------------------------------------------------------

_APA_RANGE = (
    ParamSpec("low", -1000.0, "most extreme low value sent"),
    ParamSpec("high", 1000.0, "most extreme high value sent"),
)


@register_scenario(
    "adversary",
    "extreme-values",
    description="APA: faulty nodes send consistent extreme values to "
    "everyone",
    paper_ref="Theorem 9 resilience — discarded by the f-b trim",
    params=_APA_RANGE,
    tags=("apa",),
)
def _apa_extreme(params=None, low: float = -1000.0, high: float = 1000.0):
    from repro.sync.approx_agreement import ApaExtremeAdversary

    return ApaExtremeAdversary(low, high)


@register_scenario(
    "adversary",
    "split-bot",
    description="APA: faulty nodes send extremes to one half and "
    "nothing to the other, producing asymmetric ⊥ patterns",
    paper_ref="the b-dependent discard rule's worst case (Lemmas 7/8)",
    params=_APA_RANGE,
    tags=("apa",),
)
def _apa_split(params=None, low: float = -1000.0, high: float = 1000.0):
    from repro.sync.approx_agreement import ApaSplitAdversary

    return ApaSplitAdversary(low, high)


@register_scenario(
    "adversary",
    "equivocating",
    description="APA: faulty nodes send different extremes to "
    "different honest nodes",
    paper_ref="full equivocation — what signatures make detectable in "
    "the broadcast layer",
    params=_APA_RANGE,
    tags=("apa",),
)
def _apa_equivocating(
    params=None, low: float = -1000.0, high: float = 1000.0
):
    from repro.sync.approx_agreement import ApaEquivocatingAdversary

    return ApaEquivocatingAdversary(low, high)
