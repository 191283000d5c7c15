"""Ablation plan generation: catalog -> campaign grid.

:class:`AblationSpec` selects components (did-you-mean validated) and
expands into a baseline-plus-one-off matrix — for every selected
component, its challenge scenario once with the full protocol and once
with that single component switched off — optionally extended pairwise
(each selected pair, run on both members' challenge scenarios with both
components off).

The expansion is an ordinary :class:`~repro.campaigns.spec.CampaignSpec`
(name ``ABLATION``, builder ``cps-ablation``), so every planned run gets
the campaign engine's stable content-addressed ``case_key``, result-store
caching and process-pool execution for free.  Baseline cases carry no
``ablate`` key at all, so they hash identically to the same scenarios
anywhere else in the repo.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.ablation.components import COMPONENT_INDEX
from repro.build import ABLATABLE_COMPONENTS, resolve_ablation
from repro.campaigns.spec import (
    CampaignSpec,
    MeasurementSpec,
    ScenarioSpec,
    TrialPlan,
)

#: Campaign identity: the seed keys every derived per-case seed, so it
#: is part of the committed artifact's reproducibility contract.
ABLATION_CAMPAIGN_NAME = "ABLATION"
ABLATION_SEED = 53
ABLATION_BUILDER = "cps-ablation"

#: Measurement tiers.  Churn challenge rows override pulses via their
#: case dict (see :data:`~repro.ablation.components
#: .CHURN_CHALLENGE_PULSES`); the builder honours the case key.
MEASUREMENTS = {
    "quick": MeasurementSpec(pulses=10, warmup=2),
    "full": MeasurementSpec(pulses=20, warmup=2),
}


@dataclass(frozen=True)
class PlannedRun:
    """One row of the ablation matrix.

    ``component`` names the challenge scenario's owner; ``ablate`` is
    the (sorted) set of components switched off — empty for a baseline
    row.  ``case`` is the full registry-keyed case dict the campaign
    engine executes.
    """

    component: str
    ablate: Tuple[str, ...]
    mode: str
    case: Dict[str, Any]

    @property
    def variant(self) -> str:
        return "baseline" if not self.ablate else "-".join(
            self.ablate
        ) + "=off"

    @property
    def label(self) -> str:
        return f"{self.component}/{self.variant}"


@dataclass(frozen=True)
class AblationSpec:
    """What to ablate: component selection plus matrix shape.

    ``components`` empty means *all* of
    :data:`~repro.build.ABLATABLE_COMPONENTS`.  ``pairwise`` extends
    the baseline-plus-one-off matrix with every selected pair switched
    off together, run on both members' challenge scenarios (interaction
    effects: a pair whose joint flip set exceeds the union of the
    singles is more than the sum of its parts).
    """

    components: Tuple[str, ...] = field(default_factory=tuple)
    pairwise: bool = False
    seed: int = ABLATION_SEED

    def selected(self) -> Tuple[str, ...]:
        """The validated, sorted component selection."""
        return (
            resolve_ablation(self.components)
            or ABLATABLE_COMPONENTS
        )


def planned_runs(spec: AblationSpec) -> List[PlannedRun]:
    """Expand the spec into ordered matrix rows.

    Order is deterministic: per component (sorted), baseline then
    one-off; then, pairwise, per sorted pair, both members' challenge
    scenarios.  The order is load-bearing — it is the campaign grid
    order, so it must be a pure function of the spec.
    """
    runs: List[PlannedRun] = []
    selected = spec.selected()
    for name in selected:
        component = COMPONENT_INDEX[name]
        runs.append(
            PlannedRun(
                component=name,
                ablate=(),
                mode=component.mode,
                case=component.baseline_case(),
            )
        )
        runs.append(
            PlannedRun(
                component=name,
                ablate=(name,),
                mode=component.mode,
                case=component.ablated_case(),
            )
        )
    if spec.pairwise:
        for first, second in itertools.combinations(selected, 2):
            for owner in (first, second):
                component = COMPONENT_INDEX[owner]
                case = component.baseline_case()
                case["ablate"] = sorted((first, second))
                runs.append(
                    PlannedRun(
                        component=owner,
                        ablate=tuple(sorted((first, second))),
                        mode=component.mode,
                        case=case,
                    )
                )
    return runs


def ablation_campaign_spec(
    spec: AblationSpec = AblationSpec(),
) -> CampaignSpec:
    """The ablation matrix as a campaign engine spec."""
    cases = tuple(run.case for run in planned_runs(spec))
    return CampaignSpec(
        name=ABLATION_CAMPAIGN_NAME,
        description=(
            "Protocol ablation matrix: per-component importance for "
            "every theorem bound (baseline-plus-one-off"
            + (" + pairwise" if spec.pairwise else "")
            + ")"
        ),
        seed=spec.seed,
        scenarios=(
            ScenarioSpec(builder=ABLATION_BUILDER, cases={"*": cases}),
        ),
        measurements=dict(MEASUREMENTS),
    )


def planned_trials(
    spec: AblationSpec, scale: str
) -> List[Tuple[PlannedRun, TrialPlan]]:
    """Matrix rows zipped with their resolved campaign trial plans.

    The zip is positional (the grid is exactly the planned-run cases in
    order); the case-equality assertion turns any future drift between
    the two expansions into a loud failure instead of a silently
    misattributed report.
    """
    runs = planned_runs(spec)
    plans = ablation_campaign_spec(spec).trials_for(scale)
    if len(runs) != len(plans):  # pragma: no cover - structural guard
        raise RuntimeError(
            f"ablation plan drift: {len(runs)} runs vs "
            f"{len(plans)} trial plans"
        )
    paired = list(zip(runs, plans))
    for run, plan in paired:
        if dict(plan.case) != run.case:  # pragma: no cover
            raise RuntimeError(
                f"ablation plan drift at {run.label}: "
                f"{plan.case!r} != {run.case!r}"
            )
    return paired
