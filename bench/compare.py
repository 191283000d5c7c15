"""``python -m bench compare A/ B/`` — parent against change.

``A/`` holds the parent commit's ``RESULT_*.json`` files and ``B/`` the
change's, written by alternating ``python -m bench run --out ...``
invocations (the k-th file of a workload on one side pairs with the
k-th on the other).  The rule is the choosing-metrics guide's:

* at least ten pairs, else every row is ``unresolved``;
* ``improved`` needs the change to win at least nine tenths of the
  pairs (ties count for neither) *and* a median gap larger than the
  distance between the parent's own quartiles;
* where the parent's run-to-run spread is wider than the metric's
  bound in ``BENCHMARK.json`` the row is ``unresolved`` — unless every
  run of the change reads better than every run of the parent;
* otherwise ``regressed`` is a change median worse than the parent's
  by more than the bound, and ``unchanged`` is the rest;
* ``regressed`` is also the mirror of ``improved`` — the change loses
  nine tenths of the pairs by a median gap larger than the parent's
  quartile distance — because the bounds have to absorb this box's
  drift between unpaired runs (see README, "Steadiness") and paired
  runs resolve much less than that;
* a side with a ``noisy`` run (calibration drifted > 10 % across it)
  is ``unresolved`` too;
* a change whose runs are incorrect, or fail or mismatch more ops than
  the parent's, earns nothing on that workload: a failed op can return
  fast, so its rows are ``unresolved`` unless they are ``regressed``.

One row per workload x end-to-end metric that applies to the workload,
every ratio with its base.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from bench.layers import applies

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_side(directory: str) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced results of one side, by workload, in file order."""
    by_workload: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "RESULT_*.json"))):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if result.get("trace"):
            continue
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def _quartile_distance(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(
    parent: List[float],
    change: List[float],
    better: str,
    bound: float,
    noisy: bool,
) -> Tuple[str, Dict[str, float]]:
    """Apply the rule to paired samples of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    base = statistics.median(parent)
    new = statistics.median(change)
    spread = _quartile_distance(parent)
    gain = sign * (new - base)  # positive = change is better
    numbers = {
        "parent_median": base,
        "change_median": new,
        "ratio": new / base if base else float("nan"),
        "parent_iqr": spread,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
    }
    if len(pairs) < MIN_PAIRS or noisy:
        return "unresolved", numbers
    if wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved", numbers
    if losses >= WIN_SHARE * len(pairs) and -gain > spread:
        return "regressed", numbers
    if spread > bound * abs(base):
        separated = (
            min(change) > max(parent) if better == "higher"
            else max(change) < min(parent)
        )
        return ("unchanged" if separated else "unresolved"), numbers
    if -gain > bound * abs(base):
        return "regressed", numbers
    return "unchanged", numbers


def bad_ops(results: List[Dict[str, Any]]) -> int:
    """Ops that failed or mismatched their reference, over all runs."""
    return sum(
        r["failed"]
        + round(r["reported"]["mismatch_share"] * r["attempted"])
        for r in results
    )


def compare(
    parent_dir: str, change_dir: str, contract: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric."""
    parent, change = load_side(parent_dir), load_side(change_dir)
    rows = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        a, b = parent.get(workload, []), change.get(workload, [])
        count = min(len(a), len(b))
        if count == 0:
            continue
        a, b = a[:count], b[:count]
        noisy = any(r.get("noisy") for r in a + b)
        broken = (
            any(not r["correct"] for r in b) or bad_ops(b) > bad_ops(a)
        )
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if not applies(name, workload):
                continue
            label, numbers = verdict(
                [r["metrics"][name]["value"] for r in a],
                [r["metrics"][name]["value"] for r in b],
                metric["better"],
                metric["bound"],
                noisy,
            )
            if broken and label != "regressed":
                label = "unresolved"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "verdict": label,
                    "noisy": noisy,
                    "broken": broken,
                    **numbers,
                }
            )
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':18s} {'metric':13s} {'parent':>12s} {'change':>12s} "
        f"{'ratio':>7s} {'iqr/med':>8s} {'w/l/n':>9s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        base = row["parent_median"]
        lines.append(
            f"{row['workload']:18s} {row['metric']:13s} "
            f"{base:12.5g} {row['change_median']:12.5g} "
            f"{row['ratio']:7.3f} "
            f"{(row['parent_iqr'] / base if base else 0.0):8.3f} "
            f"{row['wins']:3d}/{row['losses']:d}/{row['pairs']:<3d} "
            f"{row['bound']:6.2g}  {row['verdict']}"
            + (" (noisy)" if row["noisy"] else "")
            + (" (change fails or mismatches ops)" if row["broken"] else "")
            + f" [{row['unit']}; ratio = change / parent median]"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print("usage: python -m bench compare PARENT_DIR CHANGE_DIR")
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as h:
        contract = json.load(h)
    rows = compare(argv[0], argv[1], contract)
    if not rows:
        print("no paired RESULT_*.json files found")
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
