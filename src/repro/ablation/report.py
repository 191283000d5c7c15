"""Ablation importance reporting: monitor flips and metric deltas.

The headline result of an ablation run is the **monitor-flip set**: for
each component, which conformance monitors pass on the challenge
scenario with the full protocol but fail once the component is removed.
A component whose removal flips nothing (on its challenge) is either
redundant or under-challenged; every component in the catalog flips at
least one monitor, which is the empirical form of "every mechanism
carries a theorem".

Payloads contain no wall-clock data and all floats are produced by the
deterministic simulator, so :func:`ablation_payload_bytes` is
byte-stable across runs, machines, and worker counts — the property
``tests/test_ablation.py`` asserts against the committed artifact.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.ablation.components import COMPONENT_INDEX
from repro.ablation.plan import (
    AblationSpec,
    PlannedRun,
    ablation_campaign_spec,
    planned_trials,
)
from repro.analysis.reporting import Table
from repro.campaigns.spec import canonical_json
from repro.campaigns.store import summary_bytes


def _finite(value: Any) -> Optional[float]:
    """JSON-safe float: non-finite (and non-numeric) becomes None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if not math.isfinite(value):
        return None
    return float(value)


def _variant_summary(
    run: PlannedRun, case_key: str, records: Sequence[Any]
) -> Dict[str, Any]:
    """Aggregate one matrix cell's records into a payload entry.

    A cell has one record per trial whose case it names — one, unless
    two cells share a case (say, two components with one challenge
    baseline).  Monitor verdicts take the *worst* over the records and
    ``max_skew`` averages their finite values — both reductions are
    order-independent, keeping the payload deterministic.
    """
    errors = sorted(
        {record.error for record in records if record.error}
    )
    monitors: Dict[str, bool] = {}
    skews: List[float] = []
    live = bool(records) and not errors
    for record in records:
        if record.error:
            continue
        metrics = record.metrics or {}
        for name, ok in (metrics.get("monitors") or {}).items():
            monitors[name] = monitors.get(name, True) and bool(ok)
        skew = _finite(metrics.get("max_skew"))
        if skew is not None:
            skews.append(skew)
        live = live and bool(metrics.get("live"))
    return {
        "ablate": list(run.ablate),
        "case_key": case_key,
        "trials": len(records),
        "error": errors[0] if errors else None,
        "live": live,
        "max_skew": (
            sum(skews) / len(skews) if skews else None
        ),
        "monitors": monitors,
    }


def monitor_flips(
    baseline: Mapping[str, Any], ablated: Mapping[str, Any]
) -> List[str]:
    """Monitors that pass at baseline and fail once ablated."""
    base = baseline.get("monitors") or {}
    off = ablated.get("monitors") or {}
    flips = [
        name
        for name, ok in base.items()
        if ok and not off.get(name, True)
    ]
    # An ablated run that errored or deadlocked without producing a
    # verdict still failed the monitors it never got to satisfy.
    if ablated.get("error"):
        flips.extend(
            name for name in base if base[name] and name not in off
        )
    return sorted(set(flips))


def ablation_report(
    spec: AblationSpec, campaign_run: Any
) -> Dict[str, Any]:
    """Assemble the importance payload from an executed campaign run.

    ``campaign_run`` is the :class:`~repro.campaigns.executor
    .CampaignRun` of :func:`~repro.ablation.plan.ablation_campaign_spec`
    at some scale; records are matched to matrix rows by case content
    (not case key, which a ``--backend`` override re-keys).
    """
    scale = campaign_run.scale
    records_by_case: Dict[str, List[Any]] = {}
    for record in campaign_run.records:
        key = canonical_json(record.case)
        records_by_case.setdefault(key, []).append(record)

    cells: Dict[str, Dict[str, Any]] = {}
    pair_cells: List[Dict[str, Any]] = []
    for run, plan in planned_trials(spec, scale):
        records = records_by_case.get(canonical_json(run.case), [])
        summary = _variant_summary(run, plan.case_key, records)
        if len(run.ablate) <= 1:
            entry = cells.setdefault(
                run.component,
                {"component": run.component, "mode": run.mode},
            )
            entry["baseline" if not run.ablate else "ablated"] = summary
        else:
            pair_cells.append(
                {
                    "component": run.component,
                    "ablate": list(run.ablate),
                    "summary": summary,
                }
            )

    components: List[Dict[str, Any]] = []
    for name in spec.selected():
        component = COMPONENT_INDEX[name]
        entry = cells[name]
        baseline, ablated = entry["baseline"], entry["ablated"]
        flips = monitor_flips(baseline, ablated)
        base_skew = baseline.get("max_skew")
        off_skew = ablated.get("max_skew")
        components.append(
            {
                "component": name,
                "mechanism": component.mechanism,
                "off_behavior": component.off_behavior,
                "paper_ref": component.paper_ref,
                "mode": component.mode,
                "challenge": dict(component.challenge),
                "baseline": baseline,
                "ablated": ablated,
                "monitor_flips": flips,
                "important": bool(flips),
                "skew_delta": (
                    off_skew - base_skew
                    if base_skew is not None and off_skew is not None
                    else None
                ),
            }
        )

    pairs: List[Dict[str, Any]] = []
    for cell in pair_cells:
        singles = {
            flip
            for entry in components
            if entry["component"] in cell["ablate"]
            for flip in entry["monitor_flips"]
        }
        baseline = cells[cell["component"]]["baseline"]
        flips = monitor_flips(baseline, cell["summary"])
        pairs.append(
            {
                "ablate": cell["ablate"],
                "challenge_of": cell["component"],
                "summary": cell["summary"],
                "monitor_flips": flips,
                "interaction": sorted(set(flips) - singles),
            }
        )

    return {
        "campaign": campaign_run.spec.name,
        "scale": scale,
        "seed": spec.seed,
        "spec_key": ablation_campaign_spec(spec).spec_key(scale),
        "pairwise": spec.pairwise,
        "components": components,
        "pairs": pairs,
        "summary": {
            "components": len(components),
            "flipping": sum(
                1 for entry in components if entry["monitor_flips"]
            ),
            "flips": {
                entry["component"]: entry["monitor_flips"]
                for entry in components
            },
        },
    }


#: The exact bytes ``dump_json_summary`` persists — the CI
#: byte-identity contract, under the name the benchmark imports.
ablation_payload_bytes = summary_bytes


def render_ablation_table(payload: Mapping[str, Any]) -> Table:
    """The importance table (also teed to the CI step summary)."""
    table = Table(
        f"ABLATION [{payload['scale']}] — per-component importance "
        "(monitor flips on each component's challenge scenario)",
        [
            "component",
            "mode",
            "monitor flips",
            "baseline skew",
            "ablated skew",
            "live off",
        ],
    )
    for entry in payload["components"]:
        table.add_row(
            entry["component"],
            entry["mode"],
            ", ".join(entry["monitor_flips"]) or "(none)",
            _cell_skew(entry["baseline"]),
            _cell_skew(entry["ablated"]),
            entry["ablated"]["live"],
        )
    for pair in payload.get("pairs", ()):
        table.add_row(
            "+".join(pair["ablate"]),
            f"pair@{pair['challenge_of']}",
            ", ".join(pair["monitor_flips"]) or "(none)",
            "-",
            _cell_skew(pair["summary"]),
            pair["summary"]["live"],
        )
    summary = payload["summary"]
    failing = _baseline_failures(payload["components"])
    table.add_note(
        f"{summary['flipping']}/{summary['components']} components "
        "flip at least one conformance monitor when removed; a "
        "baseline row failing any monitor would invalidate its "
        f"component's challenge ({'; '.join(failing) or 'none do'})."
    )
    return table


def _baseline_failures(
    components: Sequence[Mapping[str, Any]]
) -> List[str]:
    """One phrase per component whose baseline row failed a monitor or
    raised, in payload order (``"the apa baseline fails period,
    skew"``)."""
    failures = []
    for entry in components:
        baseline = entry["baseline"]
        failed = sorted(
            name
            for name, ok in (baseline.get("monitors") or {}).items()
            if not ok
        )
        parts = ["fails " + ", ".join(failed)] if failed else []
        if baseline.get("error"):
            parts.append(f"raised {baseline['error']}")
        if parts:
            failures.append(
                f"the {entry['component']} baseline " + " and ".join(parts)
            )
    return failures


def _cell_skew(summary: Mapping[str, Any]) -> Any:
    value = summary.get("max_skew")
    return value if value is not None else "inf/dead"


def ablation_table(campaign_run: Any) -> Table:
    """Tabulate hook for the registered ABLATION campaign."""
    return render_ablation_table(
        ablation_report(AblationSpec(), campaign_run)
    )
