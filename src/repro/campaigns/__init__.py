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
from typing import Callable, Dict, List

from repro.analysis.reporting import Table
from repro.campaigns.aggregate import (
    campaign_throughput,
    failure_counts,
    records_to_table,
    run_summary_table,
    summary_stats,
)
from repro.campaigns.adaptive import AdaptivePolicy
from repro.campaigns.builders import (
    BUILDERS,
    TrialFailure,
    register_builder,
    resolve_builder,
)
from repro.campaigns.executor import (
    CampaignRun,
    ExecutionPolicy,
    TrialRecord,
    execute_campaign,
    map_trials,
    run_trial,
)
from repro.campaigns.spec import (
    SCENARIO_CASE_KEYS,
    CampaignSpec,
    MeasurementSpec,
    ScenarioSpec,
    TrialPlan,
    canonical_json,
    derive_seed,
    scales_of,
    stable_hash,
    validate_scenario_names,
)
from repro.campaigns.queue import (
    QueueError,
    WorkQueue,
    default_worker_id,
    run_worker,
)
from repro.campaigns.store import CorruptStoreError, ResultStore


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


__all__ = [
    "BUILDERS",
    "CATALOG",
    "SCENARIO_CASE_KEYS",
    "AdaptivePolicy",
    "CampaignDefinition",
    "CampaignRun",
    "CampaignSpec",
    "CorruptStoreError",
    "ExecutionPolicy",
    "MeasurementSpec",
    "QueueError",
    "ResultStore",
    "ScenarioSpec",
    "TrialFailure",
    "TrialPlan",
    "TrialRecord",
    "WorkQueue",
    "available_campaigns",
    "campaign_definition",
    "campaign_throughput",
    "canonical_json",
    "default_worker_id",
    "derive_seed",
    "execute_campaign",
    "failure_counts",
    "map_trials",
    "records_to_table",
    "register_builder",
    "register_campaign",
    "resolve_builder",
    "run_summary_table",
    "run_trial",
    "run_worker",
    "scales_of",
    "stable_hash",
    "summary_stats",
    "validate_scenario_names",
]
