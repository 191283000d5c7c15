"""Every experiment id — E1-E10, A1-A3, STRESS, CHURN-STRESS, FUZZ,
E9-SCALE, ABLATION — declared one way: a registered campaign.

The paper is a theory paper without an empirical section, so each
experiment operationalizes one stated claim (theorem/lemma/corollary) or
one comparison from the introduction.  An experiment is three things:

* a **spec** (``eN_campaign()``): the declarative grid per scale, with
  any pinned seeds in the case and per-scale pulse counts in the
  :class:`~repro.campaigns.spec.MeasurementSpec`;
* a **builder** (:mod:`repro.campaigns.builders`, named in the spec):
  runs one case and returns flat metrics;
* a **table** (``eN_table(run)``): for the regular tables one
  declarative column list (``header <- metric | case key, default``),
  a plain function for the irregular ones (E5's optional column, E7's
  derived note, E10's one row per pulse).

The ids and their one-line descriptions are
:data:`repro.campaigns.BUILTIN_CAMPAIGNS`, which names each id's
``<stem>_campaign`` / ``<stem>_table`` here; the campaign catalog
imports this module the first time one of them is called, so listing
the catalog loads none of it.  :func:`run_experiment` — and with it
``repro run``, ``repro all``, ``repro campaign run``, the benchmarks
and the generated ``docs/EXPERIMENTS.md`` — reads that catalog; a spec
or a table imports the campaign layer, builders and baselines it uses
when it is called.

``scale="quick"`` keeps runtimes in seconds (CI-friendly);
``scale="full"`` covers wider sweeps.  Those are the only tiers: every
one is run by a gate.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaigns import campaign_definition
from repro.core.params import derive_parameters, max_faults

if TYPE_CHECKING:
    from repro.analysis.reporting import Table
    from repro.campaigns.aggregate import Column
    from repro.campaigns.executor import CampaignRun
    from repro.campaigns.spec import CampaignSpec

# Canonical model parameters of the "typical regime" (u << d, theta-1 << 1)
# the introduction argues about.  d normalizes the time unit.
TYPICAL = {"theta": 1.001, "d": 1.0, "u": 0.01}

#: The CPS attack suite of E4 and E9, in table row order.
CPS_ADVERSARIES = ("silent", "mimic-split", "equivocating-subset")

NAN, INF = float("nan"), float("inf")

#: The Theorem 17 verdict columns E4, STRESS and E9-SCALE share.
SKEW_VERDICT: Sequence[Column] = (
    ("max skew", "max_skew", INF),
    ("steady skew", "steady_skew", INF),
    ("bound S", "bound_S", NAN),
    ("within", "within", False),
    ("live", "live", False),
)


def _design_f(case: Mapping[str, Any]) -> int:
    """Default for an ``f`` column: error records carry no metrics."""
    return max_faults(case["n"])


def _description(name: str) -> str:
    return campaign_definition(name).description


def _title(name: str) -> str:
    return f"{name} — {_description(name)}"


def _table(
    title: str, columns: Sequence[Column], note: Optional[str] = None
) -> Callable[[CampaignRun], Table]:
    """A table assembler from one declarative column list."""

    def tabulate(run: CampaignRun) -> Table:
        from repro.campaigns.aggregate import records_to_table

        table = records_to_table(run.records, title, columns)
        if note:
            table.add_note(note)
        return table

    return tabulate


def _campaign(
    name: str,
    builder: str,
    tiers: Union[Tuple[int, int], Mapping[str, Tuple[int, int]]] = (0, 0),
    seed: int = 0,
    liveness: str = "tabulate",
    backend: str = "event",
    **grid: Any,
) -> CampaignSpec:
    """A single-scenario campaign — the shape of every experiment but
    STRESS and FUZZ.  ``tiers`` is one ``(pulses, warmup)`` pair for
    both ``quick`` and ``full``, or a ``{scale: pair}`` mapping;
    ``grid`` is the :class:`ScenarioSpec` ``base``/``axes``/``cases``."""
    from repro.campaigns.spec import (
        CampaignSpec,
        MeasurementSpec,
        ScenarioSpec,
    )

    if isinstance(tiers, tuple):
        tiers = {"quick": tiers, "full": tiers}
    return CampaignSpec(
        name=name,
        description=_description(name),
        seed=seed,
        scenarios=(ScenarioSpec(builder=builder, **grid),),
        measurements={
            scale: MeasurementSpec(
                pulses, warmup, liveness=liveness, backend=backend
            )
            for scale, (pulses, warmup) in tiers.items()
        },
    )


# --- E1 — Theorem 9 / Corollary 2: APA convergence --------------------


def e1_campaign() -> CampaignSpec:
    """Honest range halves per APA iteration, for every adversary."""
    adversaries = ("extreme-values", "split-bot", "equivocating")
    return _campaign(
        "E1",
        "apa-convergence",
        base={"initial_range": 64.0, "target": 1.0},
        axes={
            "quick": {"n": (5, 9), "adversary": adversaries},
            "full": {"n": (5, 9, 16, 25), "adversary": adversaries},
        },
    )


e1_table = _table(
    _title("E1"),
    [
        "n",
        ("f", "f", _design_f),
        "adversary",
        ("iterations", "iterations", 0),
        ("rounds", "rounds", 0),
        ("initial range", "initial_range", NAN),
        ("final range", "final_range", NAN),
        ("bound (l/2^k)", "halving_bound", NAN),
        ("halved every iter", "halved", False),
        ("validity ok", "validity", False),
    ],
    note="Corollary 2: 2*ceil(log2(l/eps)) rounds reach eps at resilience "
    "ceil(n/2)-1.",
)


# --- E2 — Figure 4: crusader broadcast properties ---------------------


def e2_campaign() -> CampaignSpec:
    """Validity and crusader consistency of Algorithm CB."""
    scenarios = ("honest-dealer", "equivocating-dealer", "subset-dealer")
    return _campaign(
        "E2",
        "crusader-broadcast",
        axes={
            "quick": {"n": (4, 7), "scenario": scenarios},
            "full": {"n": (4, 7, 10, 15), "scenario": scenarios},
        },
    )


e2_table = _table(
    _title("E2"),
    [
        "n",
        ("f", "f", _design_f),
        "scenario",
        ("outputs", "outputs", ""),
        ("validity ok", "validity", False),
        ("consistency ok", "consistency", False),
    ],
)


# --- E3 — Lemmas 10-13: TCB acceptance and estimate accuracy ----------


def e3_campaign() -> CampaignSpec:
    """Measured estimate errors against the delta bound."""
    return _campaign(
        "E3",
        "cps-run",
        (10, 2),
        liveness="require",
        base={
            "n": 6,
            "d": 1.0,
            "adversary": "mimic-split",
            "delay": "random",
            "delay_params": {"seed": 7},
            "drift": "random",
            "seed": 11,
        },
        cases={
            "quick": (
                {"theta": 1.0005, "u": 0.01},
                {"theta": 1.002, "u": 0.05},
                {"theta": 1.005, "u": 0.1},
            ),
            "full": (
                {"theta": 1.0002, "u": 0.005},
                {"theta": 1.0005, "u": 0.01},
                {"theta": 1.001, "u": 0.02},
                {"theta": 1.002, "u": 0.05},
                {"theta": 1.005, "u": 0.1},
                {"theta": 1.01, "u": 0.2},
            ),
        },
    )


e3_table = _table(
    _title("E3"),
    [
        "theta",
        "u",
        ("honest accepts", "accepts", 0),
        ("validity err max", "validity_err", NAN),
        ("delta bound", "delta", NAN),
        ("within (L12)", "validity_within", False),
        ("faulty consistency err", "consistency_err", NAN),
        ("within (L13)", "consistency_within", False),
    ],
    note="Lemma 10 additionally guarantees zero honest-dealer rejections "
    "when faulty links respect d-u; asserted in the test suite.",
)


# --- E4 — Theorem 17 / Corollary 4: CPS skew --------------------------


def e4_campaign() -> CampaignSpec:
    """Measured worst-case skew against the proven bound S: (n, u,
    theta) systems crossed with the attack suite."""
    systems = (
        {"n": 6, "u": 0.01, "theta": 1.001},
        {"n": 9, "u": 0.05, "theta": 1.002},
        {"n": 12, "u": 0.01, "theta": 1.0005},
        {"n": 16, "u": 0.1, "theta": 1.005},
    )
    return _campaign(
        "E4",
        "cps-run",
        {"quick": (15, 5), "full": (30, 5)},
        base={"d": 1.0, "seed": 3, "delay": "skewing", "drift": "extreme"},
        axes={"*": {"adversary": CPS_ADVERSARIES}},
        cases={"quick": systems[:2], "full": systems},
    )


e4_table = _table(
    _title("E4"),
    ["n", ("f", "f", _design_f), "u", "theta", "adversary", *SKEW_VERDICT],
    note="f = ceil(n/2)-1 everywhere — beyond the ceil(n/3)-1 barrier of "
    "the signature-free setting.",
)


# --- E5 — resilience range: CPS vs Lynch-Welch across f ---------------


def e5_campaign() -> CampaignSpec:
    """Same timing attack against CPS and LW for f = 0..ceil(n/2)-1."""
    n = 9
    grid = {
        "f": tuple(range(max_faults(n) + 1)),
        "algorithm": ("CPS", "Lynch-Welch"),
    }
    return _campaign(
        "E5",
        "cps-vs-lw-resilience",
        {"quick": (30, 8), "full": (60, 8)},
        base={"n": n, "theta": 1.001, "d": 1.0, "u": 0.02, "seed": 5},
        axes={"*": grid},
    )


def e5_table(run: CampaignRun) -> Table:
    """Assemble the E5 table from campaign trial records."""
    from repro.baselines.lynch_welch import lw_max_faults
    from repro.campaigns.aggregate import records_to_table

    table = records_to_table(
        run.records,
        _title("E5"),
        [
            "f",
            "algorithm",
            ("tolerated by design", "tolerated", False),
            ("max skew", "max_skew", INF),
            ("steady skew", "steady_skew", INF),
            ("bound", "bound", NAN),
            ("steady within", "steady_within", False),
        ],
    )
    if run.records:
        n = run.records[-1].case["n"]
        table.add_note(
            f"n={n}: LW tolerates f <= {lw_max_faults(n)}; CPS tolerates "
            f"f <= {max_faults(n)} (Theorem 17).  Beyond its tolerance LW "
            "stops contracting: the timing split pins each group to a "
            "different honest extreme and drift accumulates unchecked."
        )
    return table


# --- E6 — introduction comparison table: all four algorithms ----------


def e6_campaign() -> CampaignSpec:
    """Skew of CPS vs the three baselines in the typical regime."""
    from repro.campaigns.builders import E6_ALGORITHMS

    return _campaign(
        "E6",
        "algorithm-comparison",
        {"quick": (10, 3), "full": (20, 3)},
        base={**TYPICAL, "seed": 1},
        axes={
            "quick": {"n": (5, 9), "algorithm": E6_ALGORITHMS},
            "full": {"n": (5, 9, 13, 17), "algorithm": E6_ALGORITHMS},
        },
    )


e6_table = _table(
    _title("E6"),
    [
        "algorithm",
        "n",
        ("f", "f", _design_f),
        ("theory skew", "theory_skew", NAN),
        ("steady skew", "steady_skew", INF),
        ("skew / d", "skew_over_d", INF),
    ],
    note="Typical regime u << d, theta-1 << 1: CPS and LW sit near "
    "u + (theta-1)d, signed relays near d, chain relays grow with f.",
)


# --- E7 — Theorem 5: lower bound construction -------------------------


def e7_campaign() -> CampaignSpec:
    """The three-execution adversary vs CPS and a fixed-period pulser.

    No pulse counts: the builder derives each case's from its
    saturation time.
    """
    protocols = ("CPS (n=3)", "fixed-period")
    return _campaign(
        "E7",
        "lower-bound",
        base={"theta": 1.02, "d": 1.0},
        axes={
            "quick": {"protocol": protocols, "u_tilde": (0.15, 0.45, 0.9)},
            "full": {
                "protocol": protocols,
                "u_tilde": (0.05, 0.15, 0.3, 0.45, 0.6, 0.9),
            },
        },
    )


def e7_table(run: CampaignRun) -> Table:
    """The note quotes the ``S`` CPS would claim on honest links alone."""
    from repro.campaigns.aggregate import records_to_table

    table = records_to_table(
        run.records,
        _title("E7"),
        [
            "protocol",
            ("u~", "u_tilde", NAN),
            ("max exec skew", "max_exec_skew", NAN),
            ("bound 2u~/3", "bound", NAN),
            (">= bound", "meets_bound", False),
            ("identity sum", "identity_sum", NAN),
            ("2u~", "two_u_tilde", NAN),
            ("well-defined", "well_defined", False),
        ],
    )
    if run.records:
        case = run.records[0].case
        claimed = derive_parameters(case["theta"], case["d"], 0.0, 3, f=1).S
        table.add_note(
            "CPS derived with u=0: its claimed S is "
            f"{claimed:.4f} — the adversary exceeds it whenever "
            "2u~/3 > S, i.e. the skew is governed by u~, not u."
        )
    return table


# --- E8 — skew degradation when faulty links undercut d - u -----------


def e8_campaign() -> CampaignSpec:
    """CPS under the rushing-echo attack for growing u_tilde / u: faulty
    links ``multiplier`` times faster than ``u`` permits, capped at
    0.45 d."""
    d, u = 1.0, 0.01

    def links(*multipliers: int) -> Tuple[Mapping[str, Any], ...]:
        return tuple(
            {"multiplier": m, "u_tilde": min(u * m, 0.45 * d)}
            for m in multipliers
        )

    return _campaign(
        "E8",
        "cps-run",
        {"quick": (12, 2), "full": (25, 2)},
        base={
            "n": 6,
            "theta": 1.0005,
            "d": d,
            "u": u,
            "adversary": "rushing-echo",
            "delay": "fast-to-faulty",
            "drift": "extreme",
            "seed": 2,
        },
        cases={"quick": links(1, 4, 16), "full": links(1, 2, 4, 8, 16, 32)},
    )


e8_table = _table(
    _title("E8"),
    [
        ("u~/u", "multiplier", NAN),
        ("u~", "u_tilde", NAN),
        ("measured skew", "max_skew", INF),
        ("bound S (for u)", "bound_S", NAN),
        ("within S", "within", False),
        ("honest-dealer rejections", "rejections", 0),
    ],
    note="u~ = u: Lemma 10 holds, zero honest rejections, skew <= S.  "
    "u~ > u: rushed echoes force honest-dealer rejections and the "
    "skew bound no longer holds (Theorem 5 explains why it cannot).",
)


# --- E9 — Theorem 17 period bounds ------------------------------------


def e9_campaign() -> CampaignSpec:
    """Measured P_min / P_max against the Theorem 17 bounds."""
    systems = (
        {"n": 6, "u": 0.01, "theta": 1.001},
        {"n": 9, "u": 0.05, "theta": 1.002},
        {"n": 12, "u": 0.1, "theta": 1.005},
    )
    return _campaign(
        "E9",
        "cps-run",
        {"quick": (15, 2), "full": (30, 2)},
        base={
            "d": 1.0,
            "delay": "random",
            "delay_params": {"seed": 13},
            "drift": "extreme",
            "seed": 13,
        },
        axes={"*": {"adversary": CPS_ADVERSARIES}},
        cases={"quick": systems[:1], "full": systems},
    )


e9_table = _table(
    _title("E9"),
    [
        "n",
        "adversary",
        ("P_min measured", "min_period", NAN),
        ("P_min bound", "p_min_bound", NAN),
        ("P_max measured", "max_period", NAN),
        ("P_max bound", "p_max_bound", NAN),
        ("within", "periods_within", False),
    ],
)


# --- E10 — Lemma 16 dynamics: convergence from the worst allowed start


def e10_campaign() -> CampaignSpec:
    """Per-pulse skew trajectory from maximal initial offsets."""
    return _campaign(
        "E10",
        "cps-run",
        {"quick": (12, 0), "full": (25, 0)},
        liveness="require",
        base={
            "n": 6,
            "theta": 1.0005,
            "d": 1.0,
            "u": 0.02,
            "adversary": "silent",
            "delay": "random",
            "delay_params": {"seed": 4},
            "drift": "extreme",
            "seed": 4,
        },
    )


def e10_table(run: CampaignRun) -> Table:
    """One row per pulse of the (single) trial's skew trajectory."""
    from repro.analysis.reporting import Table

    table = Table(
        _title("E10"),
        ["pulse", "skew", "bound S", "halving ref", "floor 2*delta"],
    )
    for record in run.records:
        m = record.metrics
        trajectory = m.get("trajectory", ())
        floor = 2.0 * m.get("delta", NAN)
        for index, value in enumerate(trajectory):
            table.add_row(
                index + 1,
                value,
                m["bound_S"],
                max(trajectory[0] / (2.0 ** index), floor),
                floor,
            )
    table.add_note(
        "Lemma 16: skew' <= skew/2 + delta (+ drift terms); the trajectory "
        "contracts geometrically to an O(delta) floor."
    )
    return table


# --- A1-A3 — ablations: one CpsNode mechanism overridden per row ------


def _mechanism_campaign(
    name: str, pulses: int, axis: str, values: Sequence[Any], **base: Any
) -> CampaignSpec:
    return _campaign(
        name,
        "cps-mechanism",
        (pulses, 2),
        base={"n": 6, "d": 1.0, **base},
        axes={"*": {axis: tuple(values)}},
    )


def a1_campaign() -> CampaignSpec:
    """Disable Figure 2's echo-rejection rule; let dealers stagger sends.

    The rule's purpose is timed crusader consistency (Lemma 13): two
    honest nodes accepting the same dealer must compute estimates that
    agree up to ``delta``.  A faulty dealer staggering its sends (here
    by ``1.5 delta``, beyond what Lemma 13 permits) violates that by
    the stagger amount — unless the rushed echo of the early copy gets
    it rejected.
    """
    return _mechanism_campaign(
        "A1", 10, "echo_rejection", (True, False),
        theta=1.0005, u=0.01, adversary="mimic-split", stagger=1.5, seed=6,
    )


a1_table = _table(
    _title("A1"),
    [
        ("echo rejection", "echo_rejection", NAN),
        ("stagger", "stagger", NAN),
        ("faulty accepted", "faulty_accepted", 0),
        ("max consistency err", "consistency_err", NAN),
        ("delta bound", "delta", NAN),
        ("within delta", "consistency_within", False),
    ],
    note="With the rule the staggered dealer is either rejected or its "
    "estimates agree within delta; without it, honest nodes accept "
    "estimates a full stagger apart — the Lemma 13 invariant breaks "
    "and with it the Theorem 17 analysis.",
)


def a2_campaign() -> CampaignSpec:
    """Replace the f-b discard with the signature-free fixed-f discard."""
    return _mechanism_campaign(
        "A2", 10, "discard_rule", ("f-b", "f"),
        theta=1.0005, u=0.02, adversary="silent", seed=8,
    )


a2_table = _table(
    _title("A2"),
    [
        ("rule", "discard_rule", ""),
        ("f", "f", _design_f),
        ("outcome", "outcome", ""),
        ("measured skew", "max_skew", NAN),
        ("bound S", "bound_S", NAN),
    ],
    note="At f = ceil(n/2)-1 with silent faulty nodes, discarding a fixed f "
    "per side leaves no values at all: the ⊥-aware rule is what makes "
    "optimal resilience possible.",
)


def a3_campaign() -> CampaignSpec:
    """Drop the theta*S dealer send offset; honest broadcasts get missed.

    Fault-free, in a regime with ``S > d - u``; ``None`` keeps the
    prescribed offset.
    """
    return _mechanism_campaign(
        "A3", 8, "dealer_send_offset", (None, 0.0),
        theta=1.04, u=0.45, faults=0, drift="extreme", seed=9,
    )


a3_table = _table(
    _title("A3"),
    [
        ("send offset", "send_offset", NAN),
        ("S", "bound_S", NAN),
        ("d-u", "d_minus_u", NAN),
        ("honest ⊥ outputs", "honest_rejections", 0),
        ("measured skew", "max_skew", INF),
        ("within S", "within_S", False),
    ],
    note="With S > d-u, a dealer sending at its pulse reaches fast nodes "
    "before slow nodes have pulsed; the theta*S wait is what makes "
    "Lemma 10 hold.",
)


# --- STRESS — registry-driven scenario campaign -----------------------

#: The model parameters STRESS and CHURN-STRESS run at.
_STRESS_SYSTEM = {"d": 1.0, "u": 0.02, "theta": 1.001}


def stress_campaign() -> CampaignSpec:
    """Scenario-registry cross products: adversary x delay x drift, plus
    sparse topologies through the Appendix A overlay.

    Every axis value is a scenario-registry key (validated at plan
    time), so extending the stress surface is a registry entry plus one
    tuple element here — no builder code changes.
    """
    from repro.campaigns.spec import (
        CampaignSpec,
        MeasurementSpec,
        ScenarioSpec,
    )

    adversaries = (
        "silent",
        "mimic-split",
        "equivocating-subset",
        "coordinated-offset",
        "replay",
    )
    drifts = ("extreme", "mixed", "staggered")
    topologies = ("complete", "circulant", "random-regular", "small-world")
    return CampaignSpec(
        name="STRESS",
        description=_description("STRESS"),
        seed=17,
        scenarios=(
            ScenarioSpec(
                builder="cps-stress",
                base=_STRESS_SYSTEM,
                axes={
                    "quick": {
                        "n": (6,),
                        "adversary": ("coordinated-offset", "mimic-split"),
                        "delay": ("eclipse", "skewing"),
                        "drift": ("mixed",),
                    },
                    "full": {
                        "n": (6, 9),
                        "adversary": adversaries,
                        "delay": (
                            "skewing",
                            "eclipse",
                            "flicker-partition",
                            "random",
                        ),
                        "drift": drifts,
                    },
                },
            ),
            ScenarioSpec(
                builder="cps-stress",
                base={
                    **_STRESS_SYSTEM,
                    "adversary": "silent",
                    "delay": "random",
                    "drift": "random",
                },
                axes={
                    "quick": {
                        "n": (8,),
                        "topology": ("circulant", "random-regular"),
                    },
                    "full": {"n": (8, 12), "topology": topologies},
                },
            ),
        ),
        measurements={
            "quick": MeasurementSpec(pulses=8, warmup=3),
            "full": MeasurementSpec(pulses=15, warmup=5),
        },
    )


stress_table = _table(
    "STRESS — registry-driven scenarios "
    "(adversary x delay x drift x topology)",
    [
        "n",
        ("f", "f", NAN),
        ("topology", "topology", "-"),
        ("adversary", "adversary", "silent"),
        ("delay", "delay", "maximum"),
        ("drift", "drift", "random"),
        *SKEW_VERDICT,
    ],
    note="Every scenario axis value is a registry key (repro scenarios "
    "list); topology rows run CPS on the Appendix A overlay and "
    "compare against the overlay-derived bound.",
)


# --- CHURN-STRESS — fault schedules over the registry scenarios -------


def churn_campaign() -> CampaignSpec:
    """Every churn profile against CPS, crossed with drift (and, at
    full scale, size and delay) axes.

    Campaign-native like STRESS: each ``churn`` axis value names a
    registry profile (``repro scenarios list --kind churn``), the fault
    schedules spend the resilience budget on crashes/joins/handoffs,
    and rejoining nodes restart behind the listen-then-join wrapper.
    """
    profiles = (
        "single-crash",
        "rolling-crashes",
        "crash-recover-wave",
        "late-join-cohort",
        "flapping-node",
        "adversary-handoff",
    )
    return _campaign(
        "CHURN-STRESS",
        "cps-churn",
        # Rejoiners must catch up to the pulse quota after their
        # outage, so churn runs use a higher budget than STRESS.
        {"quick": (14, 3), "full": (24, 4)},
        seed=29,
        base=_STRESS_SYSTEM,
        axes={
            "quick": {"n": (6,), "churn": profiles, "drift": ("extreme",)},
            "full": {
                "n": (6, 9),
                "churn": profiles,
                "drift": ("extreme", "mixed"),
                "delay": ("maximum", "random"),
            },
        },
    )


churn_table = _table(
    "CHURN-STRESS — fault schedules "
    "(crash / recover / late-join / handoff)",
    [
        "n",
        ("f", "f", NAN),
        ("churn", "churn", "-"),
        ("drift", "drift", "random"),
        ("delay", "delay", "maximum"),
        ("disruptions", "disruptions", 0),
        ("resynced", "resynced", False),
        ("resync pulses", "resync_pulses", 0),
        ("envelope", "envelope", NAN),
        ("cohort skew", "cohort_skew", INF),
        ("bound S", "bound_S", NAN),
        ("cohort within", "cohort_within", False),
    ],
    note="Crashed, dormant, and corrupted nodes all spend the f budget; "
    "'resync pulses' is the worst pulses-to-resync over the "
    "schedule's recoveries/joins (time-aligned against the stable "
    "cohort), 'cohort skew' the index-aligned Definition 3 skew of "
    "the never-disturbed nodes.",
)


# --- FUZZ — sharded property-based search for bound violations --------


def fuzz_campaign() -> CampaignSpec:
    """Sharded fuzz budgets over the strategy spaces of
    :mod:`repro.fuzz`.

    Each trial is one :func:`repro.fuzz.search` run; the ``shard`` axis
    exists solely to vary the derived per-trial seed, so ``--workers``
    fans independent search shards across the pool.  The valid spaces
    must report zero counterexamples; the ``known-bad`` shards (full
    scale) must each find one — they regression-test the oracle itself.
    """
    from repro.campaigns.spec import (
        CampaignSpec,
        MeasurementSpec,
        ScenarioSpec,
    )

    return CampaignSpec(
        name="FUZZ",
        description=_description("FUZZ"),
        seed=43,
        scenarios=(
            ScenarioSpec(
                builder="fuzz-probe",
                axes={
                    "quick": {
                        "strategy": ("valid",),
                        "budget": (25,),
                        "shard": (0, 1),
                    },
                    "full": {
                        "strategy": ("cps", "churn"),
                        "budget": (75,),
                        "shard": (0, 1, 2, 3),
                    },
                },
            ),
            ScenarioSpec(
                builder="fuzz-probe",
                base={"strategy": "known-bad", "budget": 20},
                axes={"quick": {"shard": (0,)}, "full": {"shard": (0, 1)}},
            ),
        ),
        # The search loop owns its pulse counts (they are part of each
        # synthesized case); the measurement only sets the trace level.
        measurements={"*": MeasurementSpec(pulses=0, warmup=0)},
    )


fuzz_table = _table(
    "FUZZ — property-based counterexample search "
    "(sharded strategy spaces)",
    [
        ("strategy", "strategy", "valid"),
        ("shard", "shard", 0),
        ("budget", "budget", 0),
        ("executions", "executions", 0),
        ("found", "found", False),
        ("ok", "ok", False),
        ("counterexample", "counterexample_id", "-"),
        ("interesting", "interesting", 0),
    ],
    note="'ok' means the shard ended the way its space predicts: valid "
    "spaces find nothing, the known-bad space (E8's u_tilde >> u "
    "regime) always yields a shrunk counterexample; reproduce any "
    "row with repro fuzz run --strategy S --budget B --seed "
    "<derived>.",
)


# --- E9-SCALE — vectorized-backend scale study to n = 10,000 ----------


def e9_scale_campaign() -> CampaignSpec:
    """Skew vs the Theorem 17 bound at n = 100 / 1,000 / 10,000 on the
    vectorized backend (silent adversary, maximum delays, extreme
    drift).

    The event engine dispatches every message individually — at
    n = 10,000 a single pulse round models ~10^8 deliveries, far past
    its reach — so this is the one campaign whose measurement pins
    ``backend="vectorized"``: the round-batched numpy engine
    (:mod:`repro.sim.vectorized`) computes the same protocol semantics
    in a handful of block operations per round, and the differential
    suite pins it verdict- and pulse-identical to the event engine at
    small n.  The u = 0.01 base keeps theta = 1.001 feasible while the
    extreme drift profile exercises the piecewise clock fast paths.
    """
    sizes = (100, 1000, 10000)
    return _campaign(
        "E9-SCALE",
        "cps-stress",
        {"quick": (5, 2), "full": (8, 2)},
        seed=29,
        backend="vectorized",
        base={
            **TYPICAL,
            "adversary": "silent",
            "delay": "maximum",
            "drift": "extreme",
        },
        axes={"*": {"n": sizes}},
    )


e9_scale_table = _table(
    "E9-SCALE — vectorized backend at n = 100 / 1,000 / 10,000 "
    "(silent adversary, maximum delays, extreme drift)",
    ["n", ("f", "f", NAN), *SKEW_VERDICT, ("modeled events", "events", 0)],
    note="Runs on the round-batched numpy backend "
    "(repro.sim.vectorized; see docs/VECTORIZED.md); 'modeled "
    "events' counts the deliveries the event engine would have "
    "dispatched, so events/second is comparable across backends. "
    "The differential suite (tests/test_vectorized.py) pins both "
    "backends verdict-identical at small n.",
)


# --- ABLATION — per-component importance (see repro.ablation) ---------


def ablation_campaign() -> CampaignSpec:
    """The baseline-plus-one-off matrix; ``repro ablate run`` is the full
    surface (--pairwise, the committed artifact)."""
    from repro.ablation import plan

    return plan.ablation_campaign_spec()


def ablation_table(run: CampaignRun) -> Table:
    from repro.ablation import report

    return report.ablation_table(run)


def run_experiment(name: str, scale: str = "quick") -> Table:
    """Run one registered experiment by id and assemble its table."""
    from repro.campaigns.executor import execute_campaign

    definition = campaign_definition(name)
    run = execute_campaign(definition.spec(), scale=scale)
    return definition.tabulate(run)
