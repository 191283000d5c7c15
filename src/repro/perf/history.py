"""Read ``bench-result/1`` files, keep the history, grade against it.

``python3 -m bench run --out DIR`` writes one
``RESULT_<workload>.<k>.json`` per run.  :func:`recording` folds a
directory of them into one ``perf-history/1`` line (per workload:
calibration, run count, the median of every end-to-end metric that
applies); the tracked ``results/perf_history.jsonl`` holds one line per
recording, ``git log -p`` of it maps lines to commits, and **the
baseline is the last line.**

:func:`compare` grades ``ops_per_s / calibration`` (median over a
workload's runs) against the baseline's; the calibration is the mean of
the spin-loop speeds ``bench`` takes before and after the timed passes,
so single-core machine speed cancels.  ``ratio >= 1`` is an
``improvement``, a drop within ``tolerance`` ``within-tolerance``, a
larger one a ``regression``; a run with ``correct: false`` is
``incorrect`` whatever its speed; a baseline workload not measured is
``missing``; a measured one the baseline lacks is ``new`` and passes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Mapping, Optional

RESULT_SCHEMA = "bench-result/1"
HISTORY_SCHEMA = "perf-history/1"

#: ``BENCHMARK.json``'s end-to-end metrics, in its order.
METRICS = (
    "setup_s", "wall_s", "cpu_s", "ops_per_s", "op_p50_ms",
    "events_per_s", "peak_rss_mib", "ok_share", "match_share",
    "skew_over_bound_max",
)

Result = Dict[str, Any]
Line = Dict[str, Any]


def _calibration(result: Mapping[str, Any]) -> float:
    """Mean of the before/after spin-loop speeds; 0.0 when unusable."""
    speeds = result.get("calibration_ops_per_s")
    try:
        before, after = float(speeds["before"]), float(speeds["after"])
    except (TypeError, KeyError, ValueError):
        return 0.0
    return (before + after) / 2.0 if before > 0 and after > 0 else 0.0


def _load_result(path: str) -> Result:
    try:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
    except ValueError as exc:
        raise SystemExit(f"{path}: not JSON ({exc})") from None
    if not isinstance(result, dict):
        reason = "not a JSON object"
    elif result.get("schema") != RESULT_SCHEMA:
        reason = f"schema is {result.get('schema')!r}, not {RESULT_SCHEMA!r}"
    elif result.get("trace"):
        reason = "a traced run (trace: 1) carries no gateable timing"
    elif result.get("smoke"):
        reason = "a --smoke run is not a measurement"
    elif _calibration(result) <= 0:
        reason = "no positive calibration_ops_per_s before/after"
    else:
        try:
            for metric in ("ops_per_s", *result["metrics"]):
                float(result["metrics"][metric]["value"])
            return {**result, "workload": str(result["workload"])}
        except (TypeError, KeyError, ValueError):
            reason = "no workload name, or a metric without a value"
    raise SystemExit(f"{path}: {reason}")


def read_results(directory: str) -> Dict[str, List[Result]]:
    """Every ``RESULT_*.json`` under ``directory``, by workload.

    A file that cannot be graded, or a directory without any, ends the
    program with one line naming it and the reason.
    """
    runs: Dict[str, List[Result]] = {}
    entries = sorted(os.listdir(directory)) if os.path.isdir(directory) else ()
    for entry in entries:
        if entry.startswith("RESULT_") and entry.endswith(".json"):
            result = _load_result(os.path.join(directory, entry))
            runs.setdefault(result["workload"], []).append(result)
    if not runs:
        raise SystemExit(
            f"no RESULT_*.json files under {directory!r} "
            f"(run 'python3 -m bench run' first)"
        )
    return runs


def recording(runs: Mapping[str, List[Result]], notes: str = "") -> Line:
    """One history line from the runs :func:`read_results` returned."""
    workloads = {}
    for name, results in sorted(runs.items()):
        first = results[0]
        skipped = first.get("not_applicable", ())
        workloads[name] = {
            "calibration_ops_per_s": median(map(_calibration, results)),
            "runs": len(results),
            "metrics": {
                metric: median(r["metrics"][metric]["value"] for r in results)
                for metric in METRICS
                if metric not in skipped
                and all(metric in r["metrics"] for r in results)
            },
        }
    environment = dict(first.get("environment") or {})
    environment.pop("loadavg_1m", None)  # of one run, not of the machine
    return {
        "schema": HISTORY_SCHEMA,
        "date": time.strftime("%Y-%m-%d"),
        "notes": notes,
        "environment": environment,
        "workloads": workloads,
    }


def load_history(path: str) -> List[Line]:
    """Every line of a history file, oldest first; at least one."""
    if not os.path.exists(path):
        raise SystemExit(f"baseline file not found: {path}")
    lines: List[Line] = []
    with open(path, encoding="utf-8") as handle:
        for number, text in enumerate(handle, start=1):
            try:
                line = json.loads(text)
                if line["schema"] != HISTORY_SCHEMA:
                    raise ValueError(f"schema is {line['schema']!r}")
                for entry in line["workloads"].values():
                    dict(entry["metrics"])
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                raise SystemExit(
                    f"{path}: line {number}: malformed "
                    f"{HISTORY_SCHEMA} line ({exc!r})"
                ) from None
            lines.append(line)
    if not lines:
        raise SystemExit(f"{path}: no recording")
    return lines


def append_history(path: str, line: Line) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


@dataclass(frozen=True)
class Verdict:
    """How one workload fared against the baseline line."""

    name: str
    status: str
    ratio: Optional[float] = None
    noisy: bool = False

    @property
    def ok(self) -> bool:
        return self.status in ("new", "within-tolerance", "improvement")

    def describe(self) -> str:
        ratio = "" if self.ratio is None else f" (ratio {self.ratio:.3f})"
        noisy = " [noisy run]" if self.noisy else ""
        return f"{self.name}: {self.status}{ratio}{noisy}"


def compare(
    baseline: Line, runs: Mapping[str, List[Result]], tolerance: float = 0.35
) -> List[Verdict]:
    """Grade every measured workload against the ``baseline`` line."""
    verdicts = []
    for name in sorted(set(baseline["workloads"]) | set(runs)):
        results = runs.get(name, ())
        entry = baseline["workloads"].get(name)
        ratio = None
        if not results:
            status = "missing"
        elif not all(r.get("correct") for r in results):
            status = "incorrect"
        elif entry is None:
            status = "new"
        else:
            try:
                reference = (
                    entry["metrics"]["ops_per_s"]
                    / entry["calibration_ops_per_s"]
                )
            except (TypeError, KeyError, ZeroDivisionError):
                raise SystemExit(
                    f"the baseline line has no ops_per_s or calibration "
                    f"for {name!r}; record one with 'repro perf baseline'"
                ) from None
            ratio = median(
                r["metrics"]["ops_per_s"]["value"] / _calibration(r)
                for r in results
            ) / reference
            status = (
                "improvement" if ratio >= 1.0
                else "within-tolerance" if ratio >= 1.0 - tolerance
                else "regression"
            )
        noisy = any(r.get("noisy") for r in results)
        verdicts.append(Verdict(name, status, ratio, noisy))
    return verdicts


def _cell(value: Any) -> str:
    return "—" if value is None else f"{value:,.6g}"


def trajectory(lines: List[Line]) -> List[str]:
    """The history as a markdown table plus the note of every line.

    One row per line × workload, grouped by workload so a trajectory
    reads top to bottom; ``#`` is the line number in the file (the
    last is the baseline) and ``—`` a metric the source did not state.
    """
    header = ["workload", "#", "date", "runs", "calibration", *METRICS]
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    names = sorted({name for line in lines for name in line["workloads"]})
    for name in names:
        for number, line in enumerate(lines, start=1):
            entry = line["workloads"].get(name)
            if entry is not None:
                cells = [
                    f"`{name}`", str(number), str(line.get("date")),
                    _cell(entry.get("runs")),
                    _cell(entry.get("calibration_ops_per_s")),
                    *(_cell(entry["metrics"].get(m)) for m in METRICS),
                ]
                out.append("| " + " | ".join(cells) + " |")
    out.append("")
    out.extend(
        f"{number}. {line.get('date')} — {line.get('notes')}"
        for number, line in enumerate(lines, start=1)
    )
    return out
