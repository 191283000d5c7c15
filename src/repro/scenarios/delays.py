"""Delay-policy catalog: the adversary's delay control under registry keys.

Factories follow the ``delay`` convention of
:mod:`repro.scenarios.registry`: ``factory(n, **overrides)`` where ``n``
is the system size — group-based policies default their groups to the
canonical even-id split (:func:`~repro.core.attacks.timing_split_group`)
so a bare key is always runnable.

Every policy returns delays inside the model bounds ``[d - u, d]``
(``[d - u_tilde, d]`` on faulty links); the scheduler validates each
returned delay and raises :class:`~repro.sim.errors.ModelViolation`
otherwise.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.scenarios.registry import ParamSpec, register_scenario


def _group(key: str, param: str, n: int, group: Optional[Sequence[int]]):
    """``group`` or the even-id half; an id outside ``range(n)``, which
    would match no node, is refused."""
    if group is None:
        from repro.core.attacks import timing_split_group

        return timing_split_group(n)
    bad = sorted({v for v in group if not 0 <= v < n})
    if bad:
        from repro.sim.errors import ConfigurationError

        raise ConfigurationError(
            f"delay {key!r}: {param} ids {bad} outside range(n={n})"
        )
    return group


@register_scenario(
    "delay",
    "maximum",
    description="Every message takes exactly the delay bound d",
    paper_ref="always admissible; the synchronous-looking benign case",
    tags=("benign",),
)
def _maximum(n=None):
    from repro.sim.network import MaximumDelayPolicy

    return MaximumDelayPolicy()


@register_scenario(
    "delay",
    "minimum",
    description="Every message takes the minimum admissible delay for "
    "its link",
    paper_ref="d - u on honest links, d - u_tilde on faulty ones",
    tags=("benign",),
)
def _minimum(n=None):
    from repro.sim.network import MinimumDelayPolicy

    return MinimumDelayPolicy()


@register_scenario(
    "delay",
    "constant-fraction",
    description="Every message takes d - fraction * uncertainty",
    paper_ref="interpolates between the maximum (0) and minimum (1) "
    "policies",
    params=(
        ParamSpec("fraction", 0.5, "position inside the delay window"),
    ),
    tags=("benign",),
)
def _constant_fraction(n=None, fraction: float = 0.5):
    from repro.sim.network import ConstantFractionDelayPolicy

    return ConstantFractionDelayPolicy(fraction)


@register_scenario(
    "delay",
    "random",
    description="Delays drawn uniformly from the admissible interval, "
    "per message",
    paper_ref="benign jitter — the floor measurements of E10 use this",
    params=(ParamSpec("seed", 0, "RNG seed for the delay draws"),),
    tags=("benign",),
)
def _random(n=None, seed: int = 0):
    from repro.sim.network import RandomDelayPolicy

    return RandomDelayPolicy(seed=seed)


@register_scenario(
    "delay",
    "biased-partition",
    description="Fast within each group, slow across groups — pulls "
    "two halves apart",
    paper_ref="classic worst case against averaging synchronizers; "
    "sustains skew ~ uncertainty",
    params=(
        ParamSpec("group", None, "ids of group A (None = even half)"),
    ),
    tags=("adversarial",),
)
def _biased_partition(n, group: Optional[Sequence[int]] = None):
    from repro.sim.network import BiasedPartitionDelayPolicy

    return BiasedPartitionDelayPolicy(
        _group("biased-partition", "group", n, group)
    )


@register_scenario(
    "delay",
    "skewing",
    description="Group A's messages maximally slow, group B's maximally "
    "fast — drags corrections in opposite directions",
    paper_ref="the timing-split attack delay of E4/E5",
    params=(
        ParamSpec("slow", None, "ids delivered slowly (None = even half)"),
    ),
    tags=("adversarial",),
)
def _skewing(n, slow: Optional[Sequence[int]] = None):
    from repro.sim.network import SkewingDelayPolicy

    return SkewingDelayPolicy(_group("skewing", "slow", n, slow))


@register_scenario(
    "delay",
    "fast-to-faulty",
    description="Honest-to-honest traffic maximally slow, anything "
    "touching a faulty node minimally delayed",
    paper_ref="partners the rushing-echo attack (E8 / Theorem 5 regime)",
    tags=("adversarial",),
)
def _fast_to_faulty(n=None):
    from repro.core.attacks import FastToFaultyDelayPolicy

    return FastToFaultyDelayPolicy()


@register_scenario(
    "delay",
    "eclipse",
    description="Messages to or from a victim set maximally slow, all "
    "other traffic maximally fast",
    paper_ref="delay-model eclipse: victims see the network as stale "
    "as the model permits",
    params=(
        ParamSpec("victims", None, "starved ids (None = node 0)"),
    ),
    tags=("adversarial", "new"),
)
def _eclipse(n, victims: Optional[Sequence[int]] = None):
    from repro.sim.network import EclipseDelayPolicy

    return EclipseDelayPolicy(
        _group("eclipse", "victims", n, (0,) if victims is None else victims)
    )


@register_scenario(
    "delay",
    "flicker-partition",
    description="Partition whose fast/slow orientation flips every "
    "period — a time-varying adversary",
    paper_ref="probes correction-loop stability rather than the static "
    "worst case",
    params=(
        ParamSpec("group", None, "ids of group A (None = even half)"),
        ParamSpec(
            "period", 10.0, "real-time length of each phase", unit="time"
        ),
    ),
    tags=("adversarial", "new"),
)
def _flicker_partition(
    n, group: Optional[Sequence[int]] = None, period: float = 10.0
):
    from repro.sim.network import FlickeringPartitionDelayPolicy

    return FlickeringPartitionDelayPolicy(
        _group("flicker-partition", "group", n, group), period
    )
