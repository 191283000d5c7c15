"""Adaptive sampling: per-cell stopping on a confidence-interval target.

A fixed campaign tier runs every grid cell exactly once; estimating a
cell's headline metric (``max_skew``) with error bars means replicating
each cell N times — and a fixed N pays the worst-case price for every
cell, including the ones whose estimate converged after three draws.
This module implements the alternative from the ROADMAP: *run trials
per cell until a confidence-interval width target is hit*, bounded by a
per-cell trial cap.

Mechanics
---------
Each tier plan is a *cell*.  Replicate ``r`` of a cell is derived by
:meth:`~repro.campaigns.spec.CampaignSpec.replicate_plan` — the case
gains a ``replicate`` axis (its own seed and case key, so replicates
cache and resume like any trial; replicate 0 is the tier's own plan and
stays a cache hit against fixed-tier stores).  Execution proceeds in
rounds: every cell first gets ``min_trials`` replicates, then each
round adds one replicate to every unconverged cell, until the cell's
Student-t CI width

    ``width = 2 * t * stdev / sqrt(n)``

(``t`` the two-sided ``confidence`` critical value at ``n - 1``
degrees of freedom — 4.30 at the default three draws, not the normal
1.96, which would claim intervals less than half as wide as they are)
drops to ``ci_width`` or the cell reaches ``max_trials``.  Cells whose
records error out or produce non-finite metrics (dead runs tabulated
as ``inf`` skew) never converge and run to the cap — a noisy cell is
exactly the one that needs the draws.

This module is a *plan source*, not an executor: :func:`sample_cells`
decides which replicate plans a round needs and hands them to the
step that :func:`~repro.campaigns.executor.execute_campaign` passes
in — replay, execution, persistence and the transport (in-process,
pool or queue) all live behind that callable.  Rounds are barriers
because a round is one call of the step: which trials run next is
decided only from completed, deterministic records, so the surviving
trial set is identical for ``workers=1``, ``workers=N`` and a queue
fleet (the property the fixed tier has, lifted to the stopping rule).

The run's :class:`~repro.campaigns.executor.CampaignRun` carries an
``adaptive`` summary (cells, converged/exhausted counts, trials
executed vs. the fixed ``cells x max_trials`` design, per-cell stats)
that feeds ``repro campaign run --adaptive`` output and the telemetry
sidecar.  See ``docs/SCALING.md``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaigns.executor import TrialRecord
from repro.campaigns.spec import CampaignSpec, TrialPlan


@dataclass(frozen=True)
class AdaptivePolicy:
    """The stopping rule: target CI width on one headline metric.

    ``ci_width`` is the full width (upper minus lower bound) of the
    ``confidence``-level Student-t interval on the cell's mean
    ``metric``.  ``min_trials`` draws are taken before the first
    width check (a width from fewer than two points is meaningless);
    ``max_trials`` caps every cell, converged or not.
    """

    ci_width: float
    metric: str = "max_skew"
    confidence: float = 0.95
    min_trials: int = 3
    max_trials: int = 8

    def __post_init__(self) -> None:
        if not (self.ci_width > 0):
            raise ValueError(
                f"ci_width must be positive, got {self.ci_width!r}"
            )
        if not (0 < self.confidence < 1):
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence!r}"
            )
        if self.min_trials < 2:
            raise ValueError(
                f"min_trials must be >= 2 (a CI needs variance), "
                f"got {self.min_trials}"
            )
        if self.max_trials < self.min_trials:
            raise ValueError(
                f"max_trials ({self.max_trials}) must be >= "
                f"min_trials ({self.min_trials})"
            )

    def critical_value(self, n: int) -> float:
        """Two-sided Student-t critical value for a cell of ``n``
        draws (``n - 1`` degrees of freedom)."""
        return t_critical(self.confidence, n - 1)


def t_critical(confidence: float, df: int) -> float:
    """``t`` with ``P(|T_df| <= t) = confidence`` (stdlib only).

    Closed forms at one and two degrees of freedom; above that
    G. W. Hill's inversion (CACM Algorithm 396, 1970), whose relative
    error stays under 1e-5 for every ``df`` — the stopping rule needs
    three digits.
    """
    if df < 1:
        raise ValueError(f"need at least one degree of freedom, got {df}")
    tail = 1.0 - confidence
    if df == 1:
        return 1.0 / math.tan(tail * math.pi / 2)
    if df == 2:
        return math.sqrt(2.0 / (tail * (2.0 - tail)) - 2.0)
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(
        a * math.pi / 2
    ) * df
    y = (d * tail) ** (2.0 / df)
    if y > 0.05 + a:
        # Cornish-Fisher style expansion about the normal quantile.
        x = statistics.NormalDist().inv_cdf(tail / 2)
        y = x * x
        if df < 5:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (
            (((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0
        ) / b + 1.0
        y = math.expm1(a * (y * x) ** 2)
    else:
        # Far tail: expansion of the density's tail integral.
        y = (
            (
                1.0
                / (
                    ((df + 6.0) / (df * y) - 0.089 * d - 0.822)
                    * (df + 2.0)
                    * 3.0
                )
                + 0.5 / (df + 4.0)
            )
            * y
            - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _metric_value(
    record: TrialRecord, metric: str
) -> Optional[float]:
    """The record's finite metric value, or None (never converges)."""
    if not record.ok:
        return None
    value = record.metrics.get(metric)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if not math.isfinite(value):
        return None
    return float(value)


def _cell_width(
    records: List[TrialRecord], adaptive: AdaptivePolicy
) -> float:
    """CI width of a cell's metric; inf while unbounded or too small."""
    values = []
    for record in records:
        value = _metric_value(record, adaptive.metric)
        if value is None:
            return math.inf
        values.append(value)
    n = len(values)
    if n < 2:
        return math.inf
    spread = statistics.stdev(values)
    return 2 * adaptive.critical_value(n) * spread / math.sqrt(n)


def sample_cells(
    spec: CampaignSpec,
    plans: Sequence[TrialPlan],
    adaptive: AdaptivePolicy,
    step: Callable[[List[TrialPlan], int], List[TrialRecord]],
) -> Tuple[List[TrialRecord], Dict[str, Any]]:
    """Replicate each tier plan until its CI width target is met.

    ``step(batch, total)`` turns a list of plans into one record per
    plan, in list order (``total`` is the progress denominator: every
    replicate wanted so far).  Returns the records cell-major (every
    replicate of plan 0, then plan 1, ...) with sequential indices,
    and the stopping-rule summary.
    """
    cells: List[List[TrialRecord]] = [[] for _ in plans]
    # Replicates wanted per cell; grows one per round for unconverged
    # cells until ci_width is met or max_trials is hit.
    wanted = [adaptive.min_trials] * len(plans)
    while True:
        batch = [
            (cell, spec.replicate_plan(plan, r))
            for cell, plan in enumerate(plans)
            for r in range(len(cells[cell]), wanted[cell])
        ]
        if not batch:
            break
        records = step([plan for _cell, plan in batch], sum(wanted))
        for (cell, _plan), record in zip(batch, records):
            cells[cell].append(record)
        # Round barrier: grow only cells that are unconverged at their
        # current draw count and still under the cap.
        for cell, drawn in enumerate(cells):
            if (
                wanted[cell] < adaptive.max_trials
                and _cell_width(drawn, adaptive) > adaptive.ci_width
            ):
                wanted[cell] += 1

    per_cell = []
    for plan, drawn in zip(plans, cells):
        width = _cell_width(drawn, adaptive)
        values = [
            v
            for v in (_metric_value(r, adaptive.metric) for r in drawn)
            if v is not None
        ]
        per_cell.append(
            {
                "case_key": plan.case_key,
                "n": len(drawn),
                "mean": statistics.fmean(values) if values else None,
                "width": width,
                "converged": width <= adaptive.ci_width,
            }
        )
    converged = sum(1 for cell in per_cell if cell["converged"])
    ordered = [record for drawn in cells for record in drawn]
    fixed_trials = len(plans) * adaptive.max_trials
    summary = {
        "metric": adaptive.metric,
        "ci_width": adaptive.ci_width,
        "confidence": adaptive.confidence,
        "min_trials": adaptive.min_trials,
        "max_trials": adaptive.max_trials,
        "cells": len(plans),
        "converged": converged,
        "exhausted": len(plans) - converged,
        "trials": len(ordered),
        "fixed_trials": fixed_trials,
        "saved": fixed_trials - len(ordered),
        "per_cell": per_cell,
    }
    return [
        replace(record, index=index)
        for index, record in enumerate(ordered)
    ], summary
