"""Campaign-level telemetry: instrumented trials and byte-stable sidecars.

``repro campaign run --telemetry`` routes every executed trial through
:func:`run_instrumented` (a module-level function, so pool workers
receive it by pickle reference exactly like the plain runner): the
wrapper clears the process-global signature-verification memo, activates
a fresh :class:`~repro.telemetry.metrics.Telemetry` handle for the
duration of the trial, and attaches the deterministic snapshot to the
record as ``metrics["telemetry"]``.

:func:`campaign_telemetry` then folds a finished
:class:`~repro.campaigns.executor.CampaignRun` into the
``<spec_key>.telemetry.json`` sidecar payload (written through
:meth:`~repro.campaigns.store.ResultStore.write_summary`, mirroring the
``.perf.json`` pattern).  The payload contains only deterministic
quantities, so sidecars are byte-identical across worker counts —
asserted by ``tests/test_telemetry.py``.

Instrumentation identity note: telemetry is an *execution-time* option.
It is deliberately not part of :class:`~repro.campaigns.spec.
MeasurementSpec`, so enabling it changes neither ``case_key`` nor
``spec_key`` — instrumented and bare runs of the same campaign share
the same cache entries, as they produce identical metrics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.campaigns.executor import CampaignRun, run_trial
from repro.crypto.signatures import clear_verify_cache
from repro.telemetry.context import activate, deactivate
from repro.telemetry.metrics import Telemetry, merge_snapshots

#: Sidecar kind under :meth:`ResultStore.write_summary` /
#: :meth:`ResultStore.summary_path`.
SIDECAR_KIND = "telemetry"


def run_instrumented(task: Any) -> Any:
    """Top-level runner for (plan, builder) pairs — the instrumented
    sibling of the executor's plain runner.

    Clearing the verification memo at trial start makes the per-trial
    ``crypto.verify.*`` deltas independent of which trials shared this
    worker process before — the memo is semantics-free, so this only
    affects timing, never results.
    """
    plan, builder = task
    clear_verify_cache()
    telemetry = Telemetry(label=plan.case_key)
    activate(telemetry)
    try:
        record = run_trial(plan, builder=builder)
    finally:
        deactivate()
    record.metrics["telemetry"] = telemetry.as_dict()
    return record


# ----------------------------------------------------------------------
# Sidecar payloads


def campaign_telemetry(run: CampaignRun) -> Dict[str, Any]:
    """The ``<spec_key>.telemetry.json`` payload for a finished run.

    Contains per-trial snapshots (plan order) plus their aggregate.
    Cache state is deliberately excluded: the payload is a pure function
    of the executed trials' simulated behaviour.
    """
    trials: List[Dict[str, Any]] = []
    snapshots: List[Dict[str, Any]] = []
    for record in run.records:
        snapshot = record.metrics.get("telemetry")
        if not snapshot:
            continue
        trials.append(
            {
                "index": record.index,
                "case_key": record.case_key,
                "builder": record.builder,
                "telemetry": snapshot,
            }
        )
        snapshots.append(snapshot)
    return {
        "campaign": run.spec.name,
        "scale": run.scale,
        "spec_key": run.spec.spec_key(run.scale),
        "trials": len(run.records),
        "instrumented": len(trials),
        "failed": run.failed,
        "aggregate": merge_snapshots(snapshots),
        "records": trials,
    }


def aggregate_payloads(
    payloads: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Merge several sidecar payloads (``repro telemetry aggregate``)."""
    return {
        "campaigns": sorted(
            {
                f"{payload.get('campaign', '?')}"
                f"[{payload.get('scale', '?')}]"
                for payload in payloads
            }
        ),
        "sidecars": len(payloads),
        "instrumented": sum(
            payload.get("instrumented", 0) for payload in payloads
        ),
        "aggregate": merge_snapshots(
            [payload.get("aggregate") or {} for payload in payloads]
        ),
    }


def diff_rows(
    a: Dict[str, Any], b: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Counter/gauge deltas between two sidecar payloads' aggregates."""
    rows: List[Dict[str, Any]] = []
    for section in ("counters", "gauges"):
        left = (a.get("aggregate") or {}).get(section) or {}
        right = (b.get("aggregate") or {}).get(section) or {}
        for name in sorted(set(left) | set(right)):
            left_value = left.get(name, 0)
            right_value = right.get(name, 0)
            rows.append(
                {
                    "metric": name,
                    "section": section,
                    "a": left_value,
                    "b": right_value,
                    "delta": right_value - left_value,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Rendering


def _filter(
    section: Dict[str, Any], metrics: Optional[Sequence[str]]
) -> Dict[str, Any]:
    if not metrics:
        return section
    wanted = set(metrics)
    return {
        name: value for name, value in section.items() if name in wanted
    }


def render_aggregate(
    aggregate: Dict[str, Any],
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Render one aggregate section (counters/gauges/spans/histograms)."""
    lines: List[str] = []
    counters = _filter(aggregate.get("counters") or {}, metrics)
    gauges = _filter(aggregate.get("gauges") or {}, metrics)
    spans = _filter(aggregate.get("spans") or {}, metrics)
    histograms = _filter(aggregate.get("histograms") or {}, metrics)
    names = (
        list(counters) + list(gauges) + list(spans) + list(histograms)
    )
    width = max((len(name) for name in names), default=10)
    for name, value in counters.items():
        lines.append(f"  {name:<{width}}  {value:>14,}")
    for name, value in gauges.items():
        lines.append(f"  {name:<{width}}  {value:>14,.6g}  (gauge, max)")
    for name, value in spans.items():
        lines.append(f"  {name:<{width}}  {value:>14,}  (span count)")
    for name, payload in histograms.items():
        bounds = payload.get("boundaries") or []
        counts = payload.get("counts") or []
        edges = [f"<={bound:g}" for bound in bounds] + ["+inf"]
        cells = ", ".join(
            f"{edge}:{count}"
            for edge, count in zip(edges, counts)
            if count
        )
        lines.append(
            f"  {name:<{width}}  n={payload.get('count', 0):,} "
            f"[{cells}]"
        )
    if not lines:
        return "  (no matching metrics)"
    return "\n".join(lines)


def render_campaign_telemetry(
    payload: Dict[str, Any],
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Terminal summary for ``--telemetry`` / ``repro telemetry show``."""
    header = (
        f"telemetry: campaign {payload.get('campaign', '?')} "
        f"[{payload.get('scale', '?')}] — "
        f"{payload.get('instrumented', 0)}/{payload.get('trials', 0)} "
        f"trials instrumented"
    )
    body = render_aggregate(payload.get("aggregate") or {}, metrics)
    return f"{header}\n{body}"


def render_diff(
    rows: Sequence[Dict[str, Any]],
    metrics: Optional[Sequence[str]] = None,
    changed_only: bool = False,
) -> str:
    """Terminal table for ``repro telemetry diff``."""
    wanted = set(metrics) if metrics else None
    selected = [
        row
        for row in rows
        if (wanted is None or row["metric"] in wanted)
        and (not changed_only or row["delta"])
    ]
    if not selected:
        return "no matching metrics"
    width = max(len(row["metric"]) for row in selected)
    lines = [
        f"{'metric':<{width}}  {'a':>14}  {'b':>14}  {'delta':>14}"
    ]
    for row in selected:
        lines.append(
            f"{row['metric']:<{width}}  {row['a']:>14,.6g}  "
            f"{row['b']:>14,.6g}  {row['delta']:>+14,.6g}"
        )
    return "\n".join(lines)
