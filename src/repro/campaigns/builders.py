"""Trial builders: named functions that run one campaign case.

A builder takes ``(case, measurement, seed)`` and returns a flat dict of
JSON-serializable metrics; the executor wraps it in failure tabulation
(any exception becomes an ``error`` record, mirroring ``TrialOutcome``
semantics) so sweeps never die on a protocol-level error.

Builders are referenced *by name* in specs so that trial plans stay
plain data.  The campaign executor resolves the name in the parent
process and ships the function to pool workers by pickle reference, so
any *module-level* builder works with ``workers > 1`` regardless of the
multiprocessing start method.  Register your own with
:func:`register_builder`, or pass a fully-qualified
``"package.module:function"`` name, which is imported on demand.

The built-in builders carry the measurement logic of every experiment
id (E1-E10, A1-A3, the registry-driven ``cps-stress``/``cps-churn``
tiers, the ablation matrix, and the sharded ``fuzz-probe`` budgets);
``analysis/experiments.py`` declares the grids and the table columns.
Every CPS run, E5's and E6's CPS arms included, is a case dict through
:func:`repro.build.build_simulation` (see :func:`built_case`); only the
Lynch–Welch arms call :func:`~repro.core.cps.assemble_cps_simulation`,
with their own node.  A CPS row is :func:`cps_measurement` — the
report's numbers plus the Theorem 17 monitors' verdicts.  E3, E4, E8,
E9 and E10 share one builder, ``cps-run``, and differ only in their
cases and table columns; A1-A3's ``cps-mechanism`` adds four columns
to its row.  No builder compares a measurement with a bound: a builder
returns measurements, and every verdict in its row is a judge's from
:mod:`repro.checks.conformance` (``judge_pulses``,
``judge_apa``, ``judge_crusader``, ``judge_estimates``,
``judge_steady_skew``, ``judge_lower_bound``).

Scenario-typed case keys (``adversary``, ``delay``, ``topology``,
``drift``) are resolved through the scenario registry
(:mod:`repro.scenarios`), so a case names behaviours by stable string
key instead of constructing objects — and a typo fails at plan time
with a did-you-mean hint.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import asdict
from typing import Any, Callable, Dict, Tuple

from repro import scenarios
from repro.analysis import metrics, theory
from repro.analysis.runner import TrialOutcome, run_pulse_trial
from repro.baselines.chain_relay import (
    ChainStretchAttack,
    build_chain_simulation,
    derive_chain_parameters,
)
from repro.baselines.lynch_welch import (
    LwTimingAttack,
    LynchWelchNode,
    derive_lw_parameters,
    lw_max_faults,
)
from repro.baselines.srikanth_toueg import (
    StRushAttack,
    build_st_simulation,
    derive_st_parameters,
)
from repro.campaigns.spec import MeasurementSpec
from repro.checks.conformance import (
    apa_reference_run,
    judge_apa,
    judge_crusader,
    judge_estimates,
    judge_lower_bound,
    judge_pulses,
    judge_steady_skew,
    judged_run,
)
from repro.core.attacks import timing_split_group
from repro.core.cps import CpsNode, assemble_cps_simulation
from repro.core.lower_bound import FixedPeriodProtocol, run_lower_bound
from repro.core.params import derive_parameters, max_faults
from repro.sync.crusader import (
    BOT,
    CbEquivocatingDealer,
    CbSubsetDealer,
    CrusaderBroadcastNode,
)
from repro.sync.round_model import SynchronousNetwork

TrialBuilder = Callable[[Dict[str, Any], MeasurementSpec, int], Dict[str, Any]]

BUILDERS: Dict[str, TrialBuilder] = {}


class TrialFailure(RuntimeError):
    """Raised by builders for per-trial failures the executor tabulates."""


def register_builder(name: str) -> Callable[[TrialBuilder], TrialBuilder]:
    """Decorator registering a builder under ``name``."""

    def decorate(function: TrialBuilder) -> TrialBuilder:
        BUILDERS[name] = function
        return function

    return decorate


def resolve_builder(name: str) -> TrialBuilder:
    """Look up a registered builder, or import a ``module:function`` one."""
    if name in BUILDERS:
        return BUILDERS[name]
    if ":" in name:
        module_name, _, attribute = name.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, attribute)
    raise KeyError(
        f"unknown builder {name!r}; registered: {sorted(BUILDERS)}"
    )


# ----------------------------------------------------------------------
# Shared scenario plumbing
# ----------------------------------------------------------------------


def built_case(
    case: Dict[str, Any],
    measurement: MeasurementSpec,
    seed: int,
    **defaults: Any,
):
    """The case through the build facade, on the measurement's backend.

    ``defaults`` fill registry keys the case leaves out *without
    entering its hash*: E6's cases are shared by four algorithms, and
    only its CPS arm reads ``adversary`` / ``delay`` / ``drift`` the
    way the facade does.
    """
    # Resolved per call: the repo benchmark times this entry point by
    # patching the module attribute.
    from repro.build import build_simulation

    return build_simulation(
        {**defaults, **case}, backend=measurement.backend, seed=seed
    )


def measured_pulse_trial(
    simulation: Any, measurement: MeasurementSpec
) -> TrialOutcome:
    """Run a pulse trial under the measurement's liveness policy."""
    outcome = run_pulse_trial(
        simulation, measurement.pulses, warmup=measurement.warmup
    )
    if measurement.liveness == "require" and not outcome.live:
        raise TrialFailure(outcome.error or "liveness violated")
    return outcome


def cps_measurement(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Tuple[Any, TrialOutcome, Dict[str, Any]]:
    """One CPS pulse trial through the facade: ``(built, outcome, row)``.

    The row is what every CPS experiment tabulates from: the
    :class:`~repro.analysis.metrics.PulseReport` measurements, the
    bounds they are read against, and the verdicts of
    :func:`~repro.checks.conformance.judge_pulses` — ``within`` is the
    ``skew`` monitor's (Theorem 17 over *every* pulse; ``steady_skew``
    is a measurement, not a verdict) and ``periods_within`` the
    ``period`` monitor's.  A dead run reports ``inf`` skews, ``nan``
    periods and ``False`` verdicts.
    """
    built = built_case(case, measurement, seed)
    params = built.params
    outcome = measured_pulse_trial(built.simulation, measurement)
    # A report exists iff the run was live (run_pulse_trial).
    report = outcome.report or metrics.DEAD_REPORT
    verdicts = (
        judge_pulses(
            params, outcome.result.honest_pulses(), measurement.pulses
        )
        if outcome.live
        else {}
    )
    row = {
        "f": built.f,
        "max_skew": report.max_skew,
        "steady_skew": report.steady_skew,
        "bound_S": params.S,
        "within": outcome.live and verdicts["skew"].ok,
        "live": outcome.live,
        "events": _events_of(outcome),
        **built.effective,
        "delta": params.delta,
        "min_period": report.min_period,
        "p_min_bound": params.p_min_bound,
        "max_period": report.max_period,
        "p_max_bound": params.p_max_bound,
        "periods_within": outcome.live and verdicts["period"].ok,
    }
    return built, outcome, row


def _events_of(outcome: TrialOutcome) -> int:
    """Events the simulator processed (0 when the run died at build time).

    Recorded in every pulse-trial builder's metrics so ``--perf`` campaign
    runs can compute per-case throughput (events / trial duration).
    """
    return outcome.result.events_processed if outcome.result else 0


def case_delay_policy(case: Dict[str, Any], n: int, default: str = "skewing"):
    """Resolve the case's ``delay`` key through the scenario registry."""
    return scenarios.create(
        "delay", case.get("delay", default), n,
        **case.get("delay_params", {})
    )


def _honest_rejections(simulation: Any) -> int:
    """⊥ outputs for *honest* dealers over every honest node's rounds.

    Lemma 10 says zero whenever the model assumptions hold; E8 and A3
    count how many appear once one of them is dropped.
    """
    return sum(
        1
        for v in simulation.honest
        for summary in simulation.protocol(v).summaries
        for dealer, estimate in summary.estimates.items()
        if estimate is BOT and dealer not in simulation.faulty
    )


# ----------------------------------------------------------------------
# E1 — APA convergence (Theorem 9 / Corollary 2)
# ----------------------------------------------------------------------


@register_builder("apa-convergence")
def apa_convergence_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """Iterated APA from a spread of honest inputs under one adversary."""
    outcome = apa_reference_run(
        case["n"],
        case["adversary"],
        case.get("initial_range", 64.0),
        case.get("target", 1.0),
    )
    ranges, iterations = outcome.ranges(), outcome.iterations
    contraction, validity = judge_apa(outcome)
    return {
        "f": max_faults(case["n"]),
        "iterations": iterations,
        "rounds": 2 * iterations,
        "initial_range": ranges[0],
        "final_range": ranges[-1],
        "halving_bound": theory.apa_halving_bound(ranges[0], iterations),
        "halved": contraction.ok,
        "validity": validity,
    }


# ----------------------------------------------------------------------
# E2 — crusader broadcast (Figure 4)
# ----------------------------------------------------------------------


@register_builder("crusader-broadcast")
def crusader_broadcast_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """Two rounds of Algorithm CB under one dealer scenario."""
    n = case["n"]
    f = max_faults(n)
    faulty = list(range(n - f, n))
    honest = [v for v in range(n) if v not in faulty]
    scenario = case["scenario"]
    dealer = 0 if scenario == "honest-dealer" else n - 1
    if scenario == "honest-dealer":
        adversary = None
    elif scenario == "equivocating-dealer":
        adversary = CbEquivocatingDealer(dealer, 0, 1)
    elif scenario == "subset-dealer":
        adversary = CbSubsetDealer(
            dealer, 1, honest[: len(honest) // 2 + 1]
        )
    else:
        raise TrialFailure(f"unknown dealer scenario {scenario!r}")
    nodes = {
        v: CrusaderBroadcastNode(dealer, input_value=1) for v in honest
    }
    outputs = SynchronousNetwork(nodes, n, f, faulty, adversary).run(2)
    validity, consistency = judge_crusader(outputs, 1, dealer in faulty)
    return {
        "f": f,
        "outputs": ", ".join(
            f"{node}:{output!r}" for node, output in sorted(outputs.items())
        ),
        "validity": validity,
        "consistency": consistency,
    }


# ----------------------------------------------------------------------
# E3, E4, E8, E9, E10 — one CPS run (Theorem 17, Lemmas 10-16)
# ----------------------------------------------------------------------


def cps_run_measurement(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Tuple[Any, TrialOutcome, Dict[str, Any]]:
    """:func:`cps_measurement` plus Lemma 10's honest-dealer
    ``rejections`` and, for a live run, the Lemma 12-13 estimate
    verdicts and the per-pulse skew ``trajectory``."""
    built, outcome, row = cps_measurement(case, measurement, seed)
    row["rejections"] = _honest_rejections(built.simulation)
    if outcome.live:
        honest_pulses = outcome.result.honest_pulses()
        estimates = judge_estimates(
            built.simulation,
            honest_pulses,
            measurement.pulses,
            built.params.delta,
            built.params.tolerance,
        )
        row.update(
            asdict(estimates),
            trajectory=metrics.skew_trajectory(honest_pulses),
        )
    return built, outcome, row


@register_builder("cps-run")
def cps_run_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One CPS run: the :func:`cps_run_measurement` row.

    Each table reads its own columns: E3 the estimates, E4 the skew,
    E8 the rejections, E9 the periods and E10 the trajectory.
    """
    return cps_run_measurement(case, measurement, seed)[2]


# ----------------------------------------------------------------------
# E5 — resilience range: CPS vs Lynch-Welch across f
# ----------------------------------------------------------------------


@register_builder("cps-vs-lw-resilience")
def resilience_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """The same timing attack against one algorithm at one fault count.

    Both algorithms are parameterized for their own resilience, and
    ``case["f"]`` of their nodes are faulty.
    """
    n, theta, d, u = case["n"], case["theta"], case["d"], case["u"]
    f = case["f"]
    algorithm = case["algorithm"]
    if algorithm == "CPS":
        built = built_case(
            case, measurement, seed, delay="skewing", drift="extreme",
            adversary="mimic-split" if f else "silent",
        )
        simulation, params = built.simulation, built.params
        tolerated = f <= built.f
    elif algorithm == "Lynch-Welch":
        # The protocol is told the true f so it can discard.
        params = derive_lw_parameters(theta, d, u, n, f=max(f, 1))
        behavior = (
            LwTimingAttack(params, timing_split_group(n)) if f else None
        )
        simulation = assemble_cps_simulation(
            params,
            clocks=scenarios.create("drift", "extreme", params, seed),
            faulty=list(range(n - f, n)),
            behavior=behavior,
            delay_policy=case_delay_policy(case, n),
            seed=seed,
            trace="none",
            node=LynchWelchNode,
        )
        tolerated = f <= lw_max_faults(n)
    else:
        raise TrialFailure(f"unknown algorithm {algorithm!r}")
    outcome = measured_pulse_trial(simulation, measurement)
    report = outcome.report or metrics.DEAD_REPORT
    return {
        "tolerated": tolerated,
        "max_skew": report.max_skew,
        "steady_skew": report.steady_skew,
        "bound": params.S,
        "steady_within": judge_steady_skew(report.steady_skew, params),
        "events": _events_of(outcome),
    }


# ----------------------------------------------------------------------
# E6 — introduction comparison: CPS vs the three baselines
# ----------------------------------------------------------------------

E6_ALGORITHMS: Tuple[str, ...] = (
    "CPS (this paper)",
    "Lynch-Welch [25]",
    "Signed relay [28]/[21]",
    "Chain relay [2]-style",
)


@register_builder("algorithm-comparison")
def algorithm_comparison_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """Steady skew of one algorithm at one size in the typical regime."""
    n, theta, d, u = case["n"], case["theta"], case["d"], case["u"]
    algorithm = case["algorithm"]
    f = max_faults(n)
    faulty = list(range(n - f, n))
    if algorithm == "CPS (this paper)":
        built = built_case(
            case,
            measurement,
            seed,
            adversary="mimic-split",
            delay="skewing",
            drift="extreme",
        )
        simulation = built.simulation
        theory_skew = built.params.S
    elif algorithm == "Lynch-Welch [25]":
        # Lynch-Welch runs at its own maximum resilience.
        f = lw_max_faults(n)
        params = derive_lw_parameters(theta, d, u, n, f=f)
        simulation = assemble_cps_simulation(
            params,
            faulty=list(range(n - f, n)),
            behavior=(
                LwTimingAttack(params, timing_split_group(n))
                if f
                else None
            ),
            delay_policy=case_delay_policy(case, n),
            seed=seed,
            trace="none",
            node=LynchWelchNode,
        )
        theory_skew = params.S
    elif algorithm == "Signed relay [28]/[21]":
        params = derive_st_parameters(theta, d, u, n)
        simulation = build_st_simulation(
            params,
            faulty=faulty,
            behavior=StRushAttack(params),
            delay_policy=case_delay_policy(case, n, default="maximum"),
            seed=seed,
            trace="none",
        )
        theory_skew = params.skew_bound
    elif algorithm == "Chain relay [2]-style":
        params = derive_chain_parameters(theta, d, u, n)
        simulation = build_chain_simulation(
            params,
            faulty=faulty,
            behavior=ChainStretchAttack(params),
            delay_policy=case_delay_policy(case, n, default="maximum"),
            seed=seed,
            trace="none",
        )
        theory_skew = params.skew_bound
    else:
        raise TrialFailure(f"unknown algorithm {algorithm!r}")
    outcome = measured_pulse_trial(simulation, measurement)
    steady = (outcome.report or metrics.DEAD_REPORT).steady_skew
    return {
        "f": f,
        "theory_skew": theory_skew,
        "steady_skew": steady,
        "skew_over_d": steady / d,
        "events": _events_of(outcome),
    }


# ----------------------------------------------------------------------
# E7 — the Theorem 5 lower-bound construction
# ----------------------------------------------------------------------


@register_builder("lower-bound")
def lower_bound_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """The three-execution adversary around one protocol at one
    ``u_tilde``; ``run_lower_bound(check=True)`` raises (and the row
    tabulates as an error) if the construction is not well defined."""
    theta, d, u_tilde = case["theta"], case["d"], case["u_tilde"]
    protocol = case["protocol"]
    if protocol == "CPS (n=3)":
        params = derive_parameters(theta, d, 0.0, 3, f=1)
        factory = lambda _v: CpsNode(params)  # noqa: E731
    elif protocol == "fixed-period":
        factory = lambda _v: FixedPeriodProtocol(2.0 * d)  # noqa: E731
    else:
        raise TrialFailure(f"unknown protocol {protocol!r}")
    # Run until well past the fast clocks' saturation time
    # 2*u_tilde / (3 (theta-1)); periods are ~2d.
    saturation = 2.0 * u_tilde / (3.0 * (theta - 1.0))
    pulses = int(math.ceil(saturation / (1.5 * d))) + 6
    result = run_lower_bound(factory, theta, d, u_tilde, max_pulses=pulses)
    saturated = result.saturated_pulse_indices()
    index = saturated[-1] if saturated else result.common_pulse_count() - 1
    measured = result.max_skew_at(index)
    bound, meets_bound = judge_lower_bound(
        measured, u_tilde, result.tolerance
    )
    return {
        "max_exec_skew": measured,
        "bound": bound,
        "meets_bound": meets_bound,
        "identity_sum": result.theorem_identity(index),
        "two_u_tilde": 2.0 * u_tilde,
        "well_defined": True,
    }


# ----------------------------------------------------------------------
# A1-A3 — one CpsNode mechanism overridden
# ----------------------------------------------------------------------


@register_builder("cps-mechanism")
def cps_mechanism_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One CPS run with a Figure 2/3 mechanism overridden (A1-A3): the
    ``cps-run`` row plus the columns only the A-series reads — the
    adversary's ``stagger``, the nodes' ``send_offset``, ``d_minus_u``
    and the run's ``outcome`` (``"ok"`` or its error)."""
    built, outcome, row = cps_run_measurement(case, measurement, seed)
    params = built.params
    row.update(
        stagger=case.get("adversary_params", {}).get("stagger", 0.0),
        send_offset=built.simulation.protocol(0).dealer_send_offset,
        d_minus_u=params.d - params.u,
        outcome="ok" if outcome.report else outcome.error,
    )
    return row


# ----------------------------------------------------------------------
# Registry-driven stress trials: any adversary x delay x drift x topology
# ----------------------------------------------------------------------


@register_builder("cps-churn")
def cps_churn_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One CPS run under a fault schedule, judged on re-stabilization.

    The case follows :func:`repro.build.build_simulation` conventions
    plus a mandatory ``churn`` registry key.  Static pulse-index
    metrics do not apply to disrupted nodes, so the row reports the
    *stable cohort's* skew (never-disturbed nodes stay index-aligned)
    and the time-aligned stabilization metrics of
    :mod:`repro.analysis.metrics` for every applied activation.
    """
    built = built_case(case, measurement, seed)
    simulation, params = built.simulation, built.params
    controller = simulation.dynamics
    if controller is None:
        raise TrialFailure("cps-churn cases must name a 'churn' profile")
    result = simulation.run(max_pulses=measurement.pulses)
    schedule = controller.schedule
    stable, reports = metrics.stabilization_reports(
        result.pulses,
        schedule.stable_nodes(params.n),
        controller.activations_applied(),
        params.S,
        params.tolerance,
    )
    cohort_skew = metrics.cohort_skew(
        result.pulses, stable, skip=measurement.warmup
    )
    resync_pulses, envelope = metrics.worst_resync(reports)
    # "resynced" demands every *scheduled* activation was applied and
    # healed — an activation whose trigger never fired (run too short)
    # must not report vacuous success.
    scheduled = len(schedule.activations())
    return {
        "f": built.f,
        "corruptions": schedule.corruptions,
        "disruptions": len(controller.applied),
        "activations": scheduled,
        "resynced": len(reports) == scheduled
        and all(report.resynced for report in reports),
        "resync_pulses": resync_pulses,
        "envelope": envelope,
        "cohort_skew": cohort_skew,
        "bound_S": params.S,
        "cohort_within": judge_steady_skew(cohort_skew, params),
        "events": result.events_processed,
        **built.effective,
    }


@register_builder("fuzz-probe")
def fuzz_probe_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One sharded fuzz budget through the property-based search loop.

    The case names a strategy space (``strategy``), an example budget
    (``budget``), and a ``shard`` index whose only job is to vary the
    derived per-trial seed — so ``repro campaign run FUZZ --workers 8``
    fans independent search shards across the process pool.  The row is
    the :class:`~repro.fuzz.driver.FuzzReport` flattened to metrics;
    any counterexample is reported by content hash and is exactly
    reproducible via ``repro fuzz run --strategy S --budget B --seed
    <fuzz_seed>`` (the search loop is deterministic in that triple).

    The import is deferred so pool workers only pay for Hypothesis when
    a fuzz campaign actually runs.
    """
    from repro.fuzz import search

    report = search(
        strategy=case.get("strategy", "valid"),
        budget=int(case.get("budget", 50)),
        seed=seed,
        max_interesting=int(case.get("max_interesting", 1)),
    )
    counterexample = report.counterexample
    return {
        "fuzz_seed": report.seed,
        "executions": report.executions,
        "found": report.found,
        "ok": report.ok,
        "counterexample_id": (
            f"fuzz-{counterexample['fixture_id']}" if counterexample else "-"
        ),
        "violations": (
            len(counterexample["summary"].get("violations", []))
            if counterexample
            else 0
        ),
        "interesting": len(report.interesting),
    }


#: The metrics of a ``cps-stress`` record — frozen: the repo benchmark
#: digests STRESS records, key set and values.
STRESS_KEYS: Tuple[str, ...] = (
    "f", "max_skew", "steady_skew", "bound_S", "within", "live", "events",
    "d_eff", "u_eff",
)


@register_builder("cps-stress")
def cps_stress_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One CPS run fully assembled from scenario-registry keys.

    See :func:`repro.build.build_simulation` for the case conventions;
    ``measurement.backend`` selects the engine, which is how the
    E9-SCALE campaign reaches n = 10,000 on the vectorized backend.
    """
    row = cps_measurement(case, measurement, seed)[2]
    return {key: row[key] for key in STRESS_KEYS}


@register_builder("cps-ablation")
def cps_ablation_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One ablation-matrix cell: a challenge run judged by monitors.

    The case follows :func:`repro.build.build_simulation` conventions
    plus the optional ``ablate`` key (components switched off) and an
    optional ``pulses`` override (churn challenges need the longer
    conformance-tier run regardless of the measurement tier).  The row
    is the per-monitor verdict map of
    :func:`~repro.checks.conformance.judged_run` plus skew metrics —
    what the importance reporter diffs between baseline and ablated
    cells.

    Ablated runs are *expected* to violate bounds; a failing monitor is
    a metric here, never a trial error.  A deadlocked run (the
    ``tcb-filter`` ablation stalls every round on a silent dealer) also
    tabulates: the event queue drains, progress fails, and skews over
    the too-few pulses come back as ``inf``.
    """
    pulses = int(case.get("pulses", measurement.pulses))
    run = judged_run(case, pulses, seed, backend=measurement.backend)
    built, result, verdicts = run.built, run.result, run.verdicts
    simulation, params = built.simulation, built.params
    return {
        "f": built.f,
        "pulses": pulses,
        "live": all(
            len(result.pulses[v]) >= pulses for v in simulation.honest
        ),
        # Misnamed by frozen contract (the benchmark digests these
        # records): the skew *after* warm-up, not PulseReport.max_skew.
        "max_skew": metrics.cohort_skew(
            result.pulses, simulation.honest, skip=measurement.warmup
        ),
        "bound_S": params.S,
        "monitors": {v.monitor: v.ok for v in verdicts},
        "violations": {
            v.monitor: len(v.violations) for v in verdicts
        },
        "events": result.events_processed,
        **built.effective,
    }
