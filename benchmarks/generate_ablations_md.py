#!/usr/bin/env python3
"""Generate ``docs/ABLATIONS.md`` from the committed importance artifact.

The document is *derived, not hand-maintained*: the component catalog
comes from :mod:`repro.ablation.components` and every measured number
from the committed ``results/ablation.json`` (written by ``repro ablate
run``).  Nothing is executed, so the emission is deterministic and
cheap enough for the tier-1 freshness test
(``tests/test_generated_docs.py``).

Usage::

    python benchmarks/generate_ablations_md.py
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Mapping

from docgen import REPO_ROOT, emit

from repro.ablation import COMPONENTS
from repro.ablation.plan import ABLATION_SEED

ARTIFACT_PATH = os.path.join(REPO_ROOT, "results", "ablation.json")

HEADER = f"""# ABLATIONS — per-component importance, measured

The paper proves every CPS mechanism necessary by theorem; this
catalog demonstrates it by measurement.  Each switchable component is
run on an engineered **challenge scenario** twice — once with the full
protocol, once with that single component removed — and judged by the
conformance monitors (`repro check list`).  The headline result per
component is its **monitor-flip set**: the theorem bounds that pass at
baseline and fail once the component is gone.

This file is **generated** from `results/ablation.json` (campaign seed
{ABLATION_SEED}, written by `repro ablate run`); do not edit either by
hand.  Regenerate with::

    repro ablate run                  # refresh results/ablation.json
    python benchmarks/generate_ablations_md.py

The tier-1 suite fails if the committed document is stale
(`tests/test_generated_docs.py`), and re-runs the whole matrix, serial
and on two workers, failing if the committed JSON is not reproduced
byte-identically (`tests/test_ablation.py`).
Inspect the matrix without executing anything via `repro ablate plan`
and `repro ablate report`; pairwise interaction runs are available
with `repro ablate run --pairwise`.
"""


def load_payload() -> Dict[str, Any]:
    with open(ARTIFACT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _skew(summary: Mapping[str, Any]) -> str:
    value = summary.get("max_skew")
    if value is None:
        return "∞ (dead)"
    return f"{value:.6g}"


def _case_line(case: Mapping[str, Any]) -> str:
    parts = [f"`{key}={case[key]}`" for key in sorted(case)]
    return ", ".join(parts)


def importance_table(payload: Mapping[str, Any]) -> List[str]:
    lines = [
        "| component | mechanism | monitor flips | baseline skew "
        "| ablated skew | live when off |",
        "|-----------|-----------|---------------|---------------"
        "|--------------|---------------|",
    ]
    for entry in payload["components"]:
        flips = ", ".join(
            f"`{name}`" for name in entry["monitor_flips"]
        ) or "—"
        lines.append(
            f"| `{entry['component']}` | {entry['mechanism']} "
            f"| {flips} | {_skew(entry['baseline'])} "
            f"| {_skew(entry['ablated'])} "
            f"| {'yes' if entry['ablated']['live'] else 'no'} |"
        )
    return lines


def component_sections(payload: Mapping[str, Any]) -> List[str]:
    by_name = {
        entry["component"]: entry for entry in payload["components"]
    }
    lines: List[str] = []
    for component in COMPONENTS:
        entry = by_name.get(component.name)
        if entry is None:
            continue
        lines.append(f"\n## `{component.name}` — {entry['mechanism']}\n")
        lines.append(f"**Off-behaviour:** {entry['off_behavior']}.\n")
        lines.append(f"**Paper:** {entry['paper_ref']}.\n")
        lines.append(
            f"**Challenge scenario:** {_case_line(entry['challenge'])} "
            f"(mode `{entry['mode']}`).\n"
        )
        flips = ", ".join(
            f"`{name}`" for name in entry["monitor_flips"]
        )
        lines.append(
            f"**Measured:** baseline passes every applicable monitor; "
            f"removing the component flips {flips} to FAIL "
            f"(baseline max skew {_skew(entry['baseline'])}, ablated "
            f"{_skew(entry['ablated'])}"
            + (
                ""
                if entry["ablated"]["live"]
                else "; the ablated run additionally deadlocks — "
                "rounds never terminate"
            )
            + ")."
        )
    return lines


def pair_section(payload: Mapping[str, Any]) -> List[str]:
    pairs = payload.get("pairs") or []
    if not pairs:
        return [
            "\n## Pairwise interactions\n",
            "The committed artifact covers the baseline-plus-one-off "
            "matrix; pairwise interaction runs (`repro ablate run "
            "--pairwise`) double-off every component pair on both "
            "members' challenge scenarios and report flips beyond the "
            "union of the singles.",
        ]
    lines = [
        "\n## Pairwise interactions\n",
        "| pair | challenge of | monitor flips | beyond singles |",
        "|------|--------------|---------------|----------------|",
    ]
    for pair in pairs:
        lines.append(
            f"| `{'+'.join(pair['ablate'])}` "
            f"| `{pair['challenge_of']}` "
            f"| {', '.join(pair['monitor_flips']) or '—'} "
            f"| {', '.join(pair['interaction']) or '—'} |"
        )
    return lines


def generate() -> str:
    payload = load_payload()
    summary = payload["summary"]
    sections = [HEADER, "\n## Importance matrix\n"]
    sections.append(
        f"Scale `{payload['scale']}`, campaign seed "
        f"{payload['seed']}, spec key `{payload['spec_key'][:16]}…`: "
        f"**{summary['flipping']}/{summary['components']} components "
        f"flip at least one monitor** when removed.\n"
    )
    sections.extend(importance_table(payload))
    sections.extend(component_sections(payload))
    sections.extend(pair_section(payload))
    sections.append("")
    return "\n".join(sections)


if __name__ == "__main__":
    sys.exit(emit("docs/ABLATIONS.md", generate()))
