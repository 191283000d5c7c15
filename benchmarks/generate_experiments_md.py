#!/usr/bin/env python3
"""Generate ``docs/EXPERIMENTS.md`` from specs and the scenario registry.

The catalog is *derived, not hand-maintained*: experiment grids come
from the declarative :class:`~repro.campaigns.spec.CampaignSpec` tiers,
scenario entries from the scenario registry
(:mod:`repro.scenarios`), the paper statements from the
:data:`COMMENTARY` table below, and each measured sentence from the
experiment's claim (:func:`repro.analysis.experiments.check_claim`) on
one deterministic quick run — about a second for the whole catalog,
cheap enough for the tier-1 freshness test
(``tests/test_generated_docs.py``).

Usage::

    python benchmarks/generate_experiments_md.py

Measured tables themselves are reproduced on demand (``repro run E4``,
``repro campaign run STRESS``, ``repro campaign run E4 --scale full``).
"""

from __future__ import annotations

import sys
from typing import List

from docgen import emit

from repro import scenarios
from repro.analysis.experiments import check_claim, run_experiment
from repro.campaigns import BUILTIN_CAMPAIGNS, campaign_definition, scales_of
from repro.core.params import THETA_MAX

#: id -> (title, the paper's statement, or what a campaign-native id runs).
COMMENTARY = {
    "E1": (
        "Theorem 9 / Corollary 2 — APA convergence",
        "**Paper:** one APA iteration (2 rounds) halves the honest value "
        "range at resilience `ceil(n/2)-1`; `2*ceil(log2(l/eps))` rounds "
        "reach any target `eps`, and outputs stay inside the honest input "
        "range (validity).",
    ),
    "E2": (
        "Figure 4 — Crusader broadcast",
        "**Paper:** with signatures, 2 synchronous rounds give validity "
        "(honest dealer's value delivered everywhere) and crusader "
        "consistency (no two honest nodes output different non-⊥ values) "
        "at `f = ceil(n/2)-1`.",
    ),
    "E3": (
        "Lemmas 10-13 — Timed crusader broadcast accuracy",
        "**Paper:** honest dealers are always accepted (Lemma 10); offset "
        "estimates of honest dealers satisfy "
        "`Delta in [true, true + delta)` (Lemma 12) and non-⊥ estimates "
        "of *any* dealer agree across honest receivers up to `delta` "
        "(Lemma 13), with `delta = 2u + (theta^2-1)d + "
        "2(theta^3-theta^2)S`.",
    ),
    "E4": (
        "Theorem 17 / Corollary 4 — CPS skew",
        "**Paper:** CPS is a `(ceil(n/2)-1)`-secure pulse-synchronization "
        "protocol with skew `S in Theta(u + (theta-1) d)`.",
    ),
    "E5": (
        "Resilience range — CPS vs Lynch-Welch",
        "**Paper (introduction):** without signatures, `ceil(n/3)-1` is "
        "tight; signatures lift the bound to `ceil(n/2)-1` with the same "
        "asymptotic skew.",
    ),
    "E6": (
        "Introduction comparison — all four algorithm families",
        "**Paper:** at optimal resilience, prior signed algorithms have "
        "skew `Theta(d)` ([28]/[21]/[2]) or `O(n(u+(theta-1)d))` "
        "(consensus-based), versus this paper's `Theta(u+(theta-1)d)`.",
    ),
    "E7": (
        "Theorem 5 — the 2*u_tilde/3 lower bound",
        "**Paper:** if links with a faulty endpoint only guarantee delay "
        "`>= d - u_tilde`, any `ceil(n/3)`-secure pulse synchronization "
        "has (expected) skew `>= 2*u_tilde/3`, even with `u = 0` and "
        "perfect initial synchrony.",
    ),
    "E8": (
        "Section 1 discussion — degradation when faulty links undercut "
        "d-u",
        "**Paper:** CPS's guarantee *requires* faulty nodes to obey the "
        "minimum delay `d - u`; otherwise they can echo a correct "
        "sender's signature so early that honest broadcasts are "
        "rejected.",
    ),
    "E9": (
        "Theorem 17 — period bounds",
        "**Paper:** `P_min >= (T - (theta+1)S)/theta` and "
        "`P_max <= T + 3S`.",
    ),
    "E10": (
        "Lemma 16 — convergence dynamics",
        "**Paper:** `skew' <= skew/2 + delta` (plus drift terms): the "
        "skew contracts geometrically until the measurement-error floor.",
    ),
    "A1": (
        "Ablation — echo-rejection rule (the crusader part of TCB)",
        "**Paper:** Figure 2's echo-rejection rule is what makes the "
        "dealer's timing a *crusader* broadcast: two honest nodes that "
        "accept the same dealer compute estimates that agree up to "
        "`delta` (Lemma 13).  The ablation disables the rule and lets "
        "faulty dealers stagger their sends.",
    ),
    "A2": (
        "Ablation — the ⊥-aware discard rule (f-b vs f)",
        "**Paper:** APA discards `f - b` values per side, counting the "
        "`b` proven-faulty ⊥ outputs against the discard budget, where "
        "the signature-free rule discards a fixed `f`, which leaves no "
        "midpoint once `f` nodes output ⊥.",
    ),
    "A3": (
        "Ablation — the theta*S dealer send offset",
        "**Paper:** an honest dealer broadcasts `theta*S` after its "
        "pulse.  In a regime where `S > d - u`, a dealer that broadcasts "
        "*at* its pulse reaches fast nodes before slow nodes have pulsed; "
        "those receptions fall outside the acceptance window and honest "
        "dealers get ⊥-ed (Lemma 10 breaks).",
    ),
    "STRESS": (
        "Scenario-registry stress campaign",
        "Campaign-native (no single claim): cross products of registry-"
        "named adversaries, delay policies, and drift profiles, plus "
        "sparse topologies run through the Appendix A overlay "
        "translation (`f + 1` vertex-disjoint paths, effective "
        "`(d_eff, u_eff)`).  Topology rows compare measured skew against "
        "the *overlay-derived* bound — the quantitative form of the "
        "paper's closing warning about balancing path lengths.  Every "
        "axis value is resolvable via `repro scenarios show <key>`.",
    ),
    "CHURN-STRESS": (
        "Fault-schedule churn campaign",
        "Campaign-native: every churn profile (crash, rolling crashes, "
        "crash-recover wave, late-join cohort, flapping node, adversary "
        "handoff) against CPS, crossed with drift — and, at full scale, "
        "size and delay — axes.  The paper's model is static, so this "
        "campaign measures the *dynamics* the theorems do not cover: "
        "crashed/dormant/corrupted nodes spend the `f` budget, "
        "rejoining nodes restart behind the listen-then-join wrapper, "
        "and rows report pulses-to-resync and the post-recovery "
        "alignment envelope against the stable cohort alongside the "
        "cohort's own Theorem 17 skew.  Judged by the stabilization "
        "monitor (`repro check run <profile>`); semantics in "
        "`docs/DYNAMICS.md`.",
    ),
    "FUZZ": (
        "Property-based counterexample search over strategy spaces",
        "Campaign-native: each shard runs the fuzzer "
        "(`repro fuzz run`) over one strategy space and reports whether "
        "it ended the way that space predicts.  Valid spaces (delays "
        "inside the `d`/`u` envelope, `cps`-tagged adversaries, fault "
        "schedules that fit the `f` budget) must find nothing; "
        "each known-bad shard (E8's `u_tilde >> u` regime) must find a "
        "counterexample and shrink it.  The rows depend on the Hypothesis "
        "version, so the sentence below states outcomes only.",
    ),
    "E9-SCALE": (
        "Vectorized-backend scale study to n = 10,000",
        "**Paper:** Theorem 17's skew bound `S` is independent of `n` — "
        "the protocol is all-to-all, so nothing in the bound degrades "
        "as the system grows.\n\nThe campaign measures skew against `S` "
        "on the round-batched numpy backend (`repro.sim.vectorized`, "
        "selected via `build_simulation(case, backend=\"vectorized\")`). "
        " The event engine dispatches every delivery individually — "
        "about 10^8 modeled messages per round at `n = 10,000` — so this "
        "regime is unreachable for it; the vectorized engine computes "
        "the same protocol semantics in a handful of block operations "
        "per round.  The differential suite (`tests/test_vectorized.py`) "
        "pins the two engines verdict-identical at small `n`, and "
        "pulse-identical for deterministic delay policies (`random` "
        "delays are compared by verdict only; `docs/VECTORIZED.md`).  The "
        "rows' floats depend on numpy, so the sentence below states `n` "
        "and outcomes only.",
    ),
    "ABLATION": (
        "Protocol ablation engine — per-component importance",
        "Campaign-native: every switchable CPS mechanism "
        "(signatures, echo amplification, the TCB acceptance window, "
        "the ⊥-aware discard, the Appendix A overlay translation, the "
        "resync wrapper) is run on an engineered *challenge scenario* "
        "twice — full protocol vs that one component removed — and "
        "judged by the conformance monitors.  The headline result is "
        "the **monitor-flip set**: which theorem bounds start failing "
        "per removed component.  The committed artifact is "
        "`results/ablation.json` (byte-stable; tier-1 re-runs the "
        "matrix and compares the bytes), the generated catalog is "
        "`docs/ABLATIONS.md`, and the surface is `repro ablate "
        "plan|run|report` (pairwise interactions via `--pairwise`).",
    ),
}

HEADER = f"""# EXPERIMENTS — paper claims, grids, and scenarios

The paper is a theory paper (PODC 2022) with no empirical section; its
"tables and figures" are four algorithm boxes and a set of quantitative
claims.  This catalog records, for every claim, what the paper states,
what this reproduction measures, and — every experiment being a
registered campaign — the exact declarative grid behind each tier.

This file is **generated** from the campaign specs, the scenario
registry and one quick run of every experiment; do not edit it by
hand.  Each **Measured** sentence is returned by the experiment's claim
(`<stem>_claim` in `repro.analysis.experiments`), which reads every
figure it quotes from that run's table and raises when the table
contradicts it; tier-1 checks every claim at quick scale and, for E3,
E4, E7, E8, E9 and E10, at full scale (`tests/test_experiments.py`).
Regenerate with::

    python benchmarks/generate_experiments_md.py

Tier-1 fails if the committed copy is stale
(``tests/test_generated_docs.py``).  Reproduce the
measured tables with ``repro run <id>`` / ``repro campaign run <id>``
(``--scale full`` for the wide grids).

**Global fidelity note.** Our parameter constants follow the appendix
derivation (Lemma 16 fixed point, Corollary 15 floor for `T`) exactly as
proven; solving the self-consistent system gives
`S = [2(2θ-1)(2u+(θ²-1)d) + 2(θ-1)((θ+1)d-2u)] / (-8θ⁴+10θ³-4θ²-θ+4)`,
feasible for `theta < {THETA_MAX:.4f}` (the paper's slightly different
bookkeeping quotes `theta <= 1.11` in Corollary 4).  Both are
`Theta(u + (theta-1)d)`; all bounds checked below use our exact
constants, so "within bound" is a *strict* check, not an asymptotic one.
"""


def _campaign_scales(spec) -> List[str]:
    """Display order for a spec's tiers: quick, full, then the rest."""
    declared = scales_of(spec)
    ordered = [s for s in ("quick", "full") if s in declared]
    return ordered + [s for s in declared if s not in ordered]


def catalog_table() -> List[str]:
    lines = [
        "| id | claim | campaign engine |",
        "|----|-------|-----------------|",
    ]
    for name in BUILTIN_CAMPAIGNS:
        title = COMMENTARY[name][0]
        lines.append(
            f"| {name} | {title} | `repro campaign run {name}` |"
        )
    return lines


def campaign_grid_section(name: str) -> List[str]:
    definition = campaign_definition(name)
    spec = definition.spec()
    lines = [
        "",
        f"**Campaign grid** (seed {spec.seed}; run with "
        f"`repro campaign run {name} [--scale TIER] [--workers N]`):",
        "",
        "| tier | trials | pulses | warmup | grid |",
        "|------|--------|--------|--------|------|",
    ]
    for scale in _campaign_scales(spec):
        info = spec.describe(scale)
        measurement = info["measurement"]
        grid = "; ".join(
            f"{scenario['builder']} ×{scenario['cases']}"
            for scenario in info["scenarios"]
        )
        lines.append(
            f"| {scale} | {info['trials']} | {measurement['pulses']} "
            f"| {measurement['warmup']} | {grid} |"
        )
    return lines


def scenario_registry_section() -> List[str]:
    lines = [
        "\n## Scenario registry\n",
        "Campaign cases name behaviours by registry key "
        "(`repro scenarios list`, `repro scenarios show <key>`); "
        "unknown keys fail at campaign *plan* time with a did-you-mean "
        "hint.  Factory conventions per kind are documented in "
        "`repro.scenarios.registry`.",
    ]
    for kind in scenarios.KINDS:
        entries = scenarios.entries(kind)
        lines.append(f"\n### {kind} ({len(entries)} entries)\n")
        lines.append("| key | description | paper anchor | parameters |")
        lines.append("|-----|-------------|--------------|------------|")
        for entry in entries:
            params = (
                ", ".join(f"`{p.render()}`" for p in entry.params)
                or "—"
            )
            ref = entry.paper_ref or "—"
            lines.append(
                f"| `{entry.key}` | {entry.description} | {ref} "
                f"| {params} |"
            )
    return lines


def generate() -> str:
    sections = [HEADER, "\n## Catalog\n"]
    sections.extend(catalog_table())
    for name in BUILTIN_CAMPAIGNS:
        title, commentary = COMMENTARY[name]
        sections.append(f"\n## {name} — {title}\n")
        measured = check_claim(name, run_experiment(name))
        sections.append(f"{commentary}\n\n**Measured:** {measured}\n")
        sections.extend(campaign_grid_section(name))
    sections.extend(scenario_registry_section())
    sections.append("")
    return "\n".join(sections)


if __name__ == "__main__":
    sys.exit(emit("docs/EXPERIMENTS.md", generate()))
