"""Campaign engine: declarative sweeps, parallel execution, cached results.

A run is a campaign's grid, one replay-or-execute step, and a
transport; the subsystem's five modules are:

``spec``
    :class:`ScenarioSpec`/:class:`CampaignSpec` — data-driven grids with
    per-scale tiers, deterministic per-case seeds, content hashes.
``executor``
    :func:`execute_campaign` — the one core: replay cached case keys,
    run the misses in-process or on a process pool (chunking, failure
    tabulation), persist, assemble in plan order.
``store``
    :class:`ResultStore` — content-addressed, shard-aware JSONL
    records enabling cache replay, resume, and multi-writer merges.
``queue``
    :class:`WorkQueue`/:func:`run_worker` — the elastic transport: N
    independent worker processes claim chunk leases from a shared
    directory and write disjoint store shards.
``aggregate``
    group-by/statistics helpers reducing trial records into
    :class:`~repro.analysis.reporting.Table` rows, and the
    ``--perf`` throughput summary of a run.

Scenario-typed case values (``adversary``/``delay``/``topology``/
``drift``) name entries of the scenario registry
(:mod:`repro.scenarios`) and are validated at plan time — see
:data:`~repro.campaigns.spec.SCENARIO_CASE_KEYS`.

Named campaigns live in :data:`CATALOG`: the built-ins — every
experiment id, listed in :data:`BUILTIN_CAMPAIGNS`, whose specs and
tables :mod:`repro.analysis.experiments` defines — and whatever
:func:`register_campaign` adds; ``repro campaign run E4 --workers 8``
then executes the same grid that ``repro run E4`` renders, across all
cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.reporting import Table
    from repro.campaigns.executor import CampaignRun
    from repro.campaigns.spec import CampaignSpec

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "aggregate": (
            "campaign_throughput",
            "records_to_table",
            "run_summary_table",
        ),
        "builders": (
            "register_builder",
            "resolve_builder",
        ),
        "executor": (
            "ExecutionPolicy",
            "execute_campaign",
            "map_trials",
            "run_trial",
        ),
        "queue": (
            "QueueError",
            "WorkQueue",
            "run_worker",
        ),
        "spec": (
            "CampaignSpec",
            "MeasurementSpec",
            "ScenarioSpec",
            "derive_seed",
            "scales_of",
            "stable_hash",
        ),
        "store": ("CorruptStoreError", "ResultStore", "TrialRecord"),
    },
    "BUILTIN_CAMPAIGNS",
    "CATALOG",
    "CampaignDefinition",
    "available_campaigns",
    "campaign_definition",
    "register_campaign",
)


@dataclass(frozen=True)
class CampaignDefinition:
    """A named campaign: a spec factory plus its table assembler.

    ``name`` and ``description`` are literals (not read off
    ``spec()``) so that registering — and listing — builds no spec.
    """

    name: str
    spec: Callable[[], CampaignSpec]
    tabulate: Callable[[CampaignRun], Table]
    description: str = ""


CATALOG: Dict[str, CampaignDefinition] = {}


def register_campaign(definition: CampaignDefinition) -> CampaignDefinition:
    """Add a named campaign to the catalog (last registration wins)."""
    CATALOG[definition.name.upper()] = definition
    return definition


#: The built-in campaigns, one per experiment id: id -> (stem, one-line
#: description).  :mod:`repro.analysis.experiments` defines each one's
#: spec factory ``<stem>_campaign`` and table ``<stem>_table``;
#: registering (and listing) reads this table alone, and a definition
#: imports that module the first time its spec or table is called.
BUILTIN_CAMPAIGNS: Dict[str, Tuple[str, str]] = {
    "E1": ("e1", "APA convergence (Theorem 9, Corollary 2)"),
    "E2": ("e2", "Crusader broadcast (Figure 4)"),
    "E3": ("e3", "TCB estimate accuracy (Lemmas 10-13)"),
    "E4": ("e4", "CPS skew vs bound (Theorem 17 / Corollary 4)"),
    "E5": ("e5", "Resilience range (CPS vs Lynch-Welch)"),
    "E6": ("e6", "Algorithm comparison (introduction / related work)"),
    "E7": ("e7", "Lower bound (Theorem 5)"),
    "E8": ("e8", "Skew vs faulty-link uncertainty (Section 1 discussion)"),
    "E9": ("e9", "Period bounds (Theorem 17)"),
    "E10": ("e10", "Convergence trajectory (Lemma 16)"),
    "A1": ("a1", "Echo rejection ablation"),
    "A2": ("a2", "Discard rule ablation (f-b vs f)"),
    "A3": ("a3", "Dealer send offset ablation"),
    "STRESS": (
        "stress",
        "Registry-driven stress scenarios "
        "(adversary x delay x drift x topology)",
    ),
    "CHURN-STRESS": (
        "churn",
        "Fault-schedule stress: crash / recovery / late-join / "
        "adversary-handoff dynamics",
    ),
    "FUZZ": (
        "fuzz",
        "Property-based fuzz shards: theorem-bound counterexample "
        "search over valid and known-bad strategy spaces",
    ),
    "E9-SCALE": (
        "e9_scale",
        "Vectorized-backend scale study: skew vs bound at "
        "n = 100 / 1,000 / 10,000",
    ),
    "ABLATION": (
        "ablation",
        "Protocol ablation matrix: per-component importance for "
        "every theorem bound (baseline-plus-one-off)",
    ),
}


def _experiment(attribute: str) -> Callable:
    """``repro.analysis.experiments.<attribute>``, imported when called
    (that module imports this package)."""

    def call(*args: Any) -> Any:
        from repro.analysis import experiments

        return getattr(experiments, attribute)(*args)

    return call


for _name, (_stem, _description) in BUILTIN_CAMPAIGNS.items():
    register_campaign(
        CampaignDefinition(
            _name,
            _experiment(f"{_stem}_campaign"),
            _experiment(f"{_stem}_table"),
            _description,
        )
    )


def available_campaigns() -> List[str]:
    return sorted(CATALOG)


def campaign_definition(name: str) -> CampaignDefinition:
    try:
        return CATALOG[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; choose from "
            f"{sorted(CATALOG)}"
        ) from None

