"""Reduce campaign trial records into the repo's ``Table`` rows.

The executor yields flat :class:`~repro.campaigns.store.TrialRecord`
lists; experiments group them, pull case/metric values, and emit the
same :class:`~repro.analysis.reporting.Table` objects the CLI,
benchmarks, and CSV snapshots already render.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

from repro.analysis.reporting import Table
from repro.campaigns.executor import CampaignRun
from repro.campaigns.store import TrialRecord

_MISSING = object()


def summary_stats(values: Iterable[float]) -> Dict[str, float]:
    """count / mean / min / max over the finite entries of ``values``."""
    finite = [v for v in values if isinstance(v, (int, float))
              and math.isfinite(v)]
    if not finite:
        return {"count": 0, "mean": float("nan"),
                "min": float("nan"), "max": float("nan")}
    return {
        "count": len(finite),
        "mean": sum(finite) / len(finite),
        "min": min(finite),
        "max": max(finite),
    }


def failure_counts(records: Iterable[TrialRecord]) -> Dict[str, int]:
    """Failures tabulated by error type (the ``Type:`` prefix)."""
    counter: Counter = Counter(
        (record.error or "").split(":", 1)[0]
        for record in records
        if not record.ok
    )
    return dict(counter)


#: A table column: a value name (the header is the name), or a
#: ``(header, name, default)`` triple.
Column = Union[str, Tuple[str, str, Any]]


def records_to_table(
    records: Sequence[TrialRecord],
    title: str,
    columns: Sequence[Column],
) -> Table:
    """Build a :class:`Table`, one row per record in record order.

    Each column names a metric or, failing that, a case value (a
    measured value wins over a same-named input, e.g. E1's
    ``initial_range``).  A bare name is its own header and renders the
    record's error string when the value is missing; a
    ``(header, name, default)`` triple renders ``default`` instead —
    called with the record's case when callable (error records carry
    no metrics, so e.g. ``f`` can fall back to
    ``max_faults(case["n"])``).
    """
    specs = [
        (column, column, _MISSING) if isinstance(column, str) else column
        for column in columns
    ]
    table = Table(title, [header for header, _name, _default in specs])
    for record in records:
        row = []
        for _header, name, default in specs:
            if name in record.metrics:
                value = record.metrics[name]
            elif name in record.case:
                value = record.case[name]
            elif default is _MISSING:
                value = record.error
            elif callable(default):
                value = default(record.case)
            else:
                value = default
            row.append(value)
        table.add_row(*row)
    return table


def run_summary_table(run: CampaignRun) -> Table:
    """Per-builder execution statistics for a campaign run."""
    table = Table(
        f"Campaign {run.spec.name} [{run.scale}] — execution summary",
        [
            "builder",
            "trials",
            "executed",
            "cached",
            "failed",
            "mean s/trial",
        ],
    )
    for builder, group in _by_builder(run.records).items():
        stats = summary_stats(record.duration for record in group
                              if not record.cached)
        table.add_row(
            builder,
            len(group),
            sum(1 for record in group if not record.cached),
            sum(1 for record in group if record.cached),
            sum(1 for record in group if not record.ok),
            stats["mean"],
        )
    for error_type, count in sorted(failure_counts(run.records).items()):
        table.add_note(f"{count} failure(s) of type {error_type}")
    return table


def peak_rss_kib() -> int:
    """Peak resident set size in KiB of this process or any reaped
    child, whichever is larger (0 if unknown).

    With ``--workers N`` the trials run in pool children and the
    coordinator idles; the pool is reaped before a run's summary is
    built.  ``ru_maxrss`` is KiB on Linux and bytes on macOS.
    """
    if resource is None:  # pragma: no cover
        return 0
    peak = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    if sys.platform == "darwin":  # pragma: no cover
        peak //= 1024
    return int(peak)


def trial_throughput(record: Any) -> Optional[Dict[str, Any]]:
    """Throughput of one executed trial, or None when unmeasurable.

    Cached records replay in microseconds and carry their *original*
    duration, so they are excluded rather than skewing the numbers.
    """
    events = record.metrics.get("events") if record.ok else None
    if record.cached or not events or record.duration <= 0:
        return None
    return {
        "case_key": record.case_key,
        "builder": record.builder,
        "case": dict(record.case),
        "events": events,
        "duration": record.duration,
        "events_per_sec": events / record.duration,
    }


def campaign_throughput(run: CampaignRun) -> Dict[str, Any]:
    """Per-case and total events/sec of a run (``--perf``).

    Pulse-trial builders record the simulator events each trial
    processed; with the executor's per-trial wall time that yields
    events/sec without re-running anything.  ``repro campaign run
    --perf`` persists this summary as ``<spec_key>.perf.json``.
    """
    cases = []
    for record in run.records:
        throughput = trial_throughput(record)
        if throughput is not None:
            cases.append(throughput)
    total_events = sum(case["events"] for case in cases)
    total_duration = sum(case["duration"] for case in cases)
    return {
        "campaign": run.spec.name,
        "scale": run.scale,
        "trials": len(run.records),
        "measured": len(cases),
        "cached": run.cached,
        "failed": run.failed,
        "events": total_events,
        "duration": total_duration,
        "events_per_sec": (
            total_events / total_duration if total_duration > 0 else 0.0
        ),
        "peak_rss_kib": peak_rss_kib(),
        "cases": cases,
    }


def _by_builder(
    records: Iterable[TrialRecord],
) -> Dict[str, List[TrialRecord]]:
    groups: Dict[str, List[TrialRecord]] = {}
    for record in records:
        groups.setdefault(record.builder, []).append(record)
    return groups
