"""Campaign engine: declarative sweeps, parallel execution, cached results.

A run is a source of plan batches, one replay-or-execute step, and a
transport; the subsystem's six modules are:

``spec``
    :class:`ScenarioSpec`/:class:`CampaignSpec` — data-driven grids with
    per-scale tiers, deterministic per-case seeds, content hashes.
``executor``
    :func:`execute_campaign` — the one core: replay cached case keys,
    run the misses in-process or on a process pool (chunking, per-trial
    timeouts, failure tabulation), persist, assemble in plan order.
``store``
    :class:`ResultStore` — content-addressed, shard-aware JSONL
    records enabling cache replay, resume, and multi-writer merges.
``queue``
    :class:`WorkQueue`/:func:`run_worker` — the elastic transport: N
    independent worker processes claim chunk leases from a shared
    directory and write disjoint store shards.
``adaptive``
    :class:`AdaptivePolicy` — a plan source: per-cell replication,
    round by round, until a confidence-interval width target.
``aggregate``
    group-by/statistics helpers reducing trial records into
    :class:`~repro.analysis.reporting.Table` rows, and the
    ``--perf`` throughput summary of a run.

Scenario-typed case values (``adversary``/``delay``/``topology``/
``drift``) name entries of the scenario registry
(:mod:`repro.scenarios`) and are validated at plan time — see
:data:`~repro.campaigns.spec.SCENARIO_CASE_KEYS`.

Named campaigns — every experiment id of
:mod:`repro.analysis.experiments` — register here via
:func:`register_campaign`; ``repro campaign run E4 --workers 8`` then
executes the same grid that ``repro run E4`` renders, across all cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.reporting import Table
    from repro.campaigns.executor import CampaignRun
    from repro.campaigns.spec import CampaignSpec

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "adaptive": ("AdaptivePolicy",),
        "aggregate": (
            "campaign_throughput",
            "failure_counts",
            "records_to_table",
            "run_summary_table",
            "summary_stats",
        ),
        "builders": (
            "BUILDERS",
            "TrialFailure",
            "register_builder",
            "resolve_builder",
        ),
        "executor": (
            "CampaignRun",
            "ExecutionPolicy",
            "execute_campaign",
            "map_trials",
            "run_trial",
        ),
        "queue": (
            "QueueError",
            "WorkQueue",
            "default_worker_id",
            "run_worker",
        ),
        "spec": (
            "SCENARIO_CASE_KEYS",
            "CampaignSpec",
            "MeasurementSpec",
            "ScenarioSpec",
            "TrialPlan",
            "canonical_json",
            "derive_seed",
            "scales_of",
            "stable_hash",
            "validate_scenario_names",
        ),
        "store": ("CorruptStoreError", "ResultStore", "TrialRecord"),
    },
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


def _ensure_builtin_campaigns() -> None:
    # The experiment ports live in analysis.experiments (which imports
    # this package); import lazily so `repro.campaigns` works standalone.
    import repro.analysis.experiments  # noqa: F401


def available_campaigns() -> List[str]:
    _ensure_builtin_campaigns()
    return sorted(CATALOG)


def campaign_definition(name: str) -> CampaignDefinition:
    _ensure_builtin_campaigns()
    try:
        return CATALOG[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; choose from "
            f"{sorted(CATALOG)}"
        ) from None

