"""Conformance runs: every registry scenario against the paper bounds.

The conformance engine turns the scenario registry into a test matrix:
each entry is dropped into a fixed reference configuration, executed at
a CI-friendly scale with streaming monitors attached, and judged
against the closed-form bounds of :mod:`repro.analysis.theory`.  Two
execution modes cover the catalog:

``cps``
    Pulse-synchronization scenarios (``cps``-tagged adversaries, every
    delay policy, drift profile, and topology) go through
    :func:`judged_run` with the Theorem 17 / Lemma 11 monitors;
    ``backend=`` selects the event or vectorized engine, which is how
    the cross-backend differential suite reuses this machinery as its
    oracle.
``apa``
    Round-model adversaries (``apa``-tagged) run iterated approximate
    agreement and are judged by :class:`ApaContractionMonitor`
    (Theorem 9).
``churn``
    Fault-schedule profiles (registry kind ``churn``) run CPS under
    membership dynamics and are judged by
    :class:`StabilizationMonitor`: scheduled recoveries must occur,
    rejoiners must re-stabilize within a pulse budget, and survivors
    must stay live.  The static Theorem 17 monitors do not apply — a
    recovering node legitimately pulses outside the skew bound while it
    contracts.

Every monitored CPS execution in the package — matrix rows, fixture
files, fuzz cases and replays, ablation cells — is one call of
:func:`judged_run` on ``(case, pulses, seed)``: build through the
facade, attach the check set, run, collect verdicts.  Experiment rows
that run unobserved get the same monitors' verdicts afterwards, from
the recorded pulse trains (:func:`judge_pulses`) — one definition of
"within the bound" either way (docs/CONFORMANCE.md, "What *within*
means").  Every other table verdict is a named ``judge_*`` here
(Theorem 9, Figure 4, Lemmas 12–13, Theorem 5); builders only measure.

Everything here is deterministic given ``seed`` — verdict payloads
contain no wall-clock data — which is what makes persisted conformance
artifacts byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import at_least, within
from repro.campaigns.store import summary_bytes
from repro.checks.catalog import (
    MODE_MONITORS,
    MONITOR_CATALOG,
    scenario_mode,
)
from repro.checks.monitors import (
    ApaContractionMonitor,
    CheckSet,
    MonitorVerdict,
    PeriodWindowMonitor,
    ProgressMonitor,
    SkewBoundMonitor,
    StabilizationMonitor,
    TcbConsistencyMonitor,
    Violation,
)
from repro.core.params import ProtocolParameters, max_faults
from repro.scenarios import REGISTRY
from repro.sync.crusader import BOT

if TYPE_CHECKING:
    from repro.sync.approx_agreement import ApaResult

#: The reference configuration conformance runs drop scenarios into —
#: the STRESS campaign's base system in the typical regime.
CPS_BASE_CASE: Dict[str, Any] = {
    "n": 6,
    "theta": 1.001,
    "d": 1.0,
    "u": 0.02,
    "adversary": "silent",
    "delay": "maximum",
    "drift": "extreme",
}

#: Topology rows need a sparse-graph-friendly size (matches STRESS).
TOPOLOGY_N = 8

#: Pulses measured per scale (quick keeps the full matrix CI-friendly).
PULSES_BY_SCALE: Dict[str, int] = {"quick": 8, "full": 20}

#: Churn scenarios run longer: a rejoiner must catch up to the quota
#: after losing pulses to its outage, and every scheduled event has to
#: fire before the run ends.
CHURN_PULSES_BY_SCALE: Dict[str, int] = {"quick": 14, "full": 28}

#: Stabilization-monitor tolerances: a rejoiner may spend this many
#: pulses contracting (the listen-then-join estimate is O(S), so a few
#: Lemma 16 halvings suffice — the budget leaves headroom for adverse
#: delay/drift draws), and a finally-active node must have pulsed
#: within this many maximum periods of the run's end.
RESYNC_PULSE_BUDGET = 6
TAIL_WINDOW_PERIODS = 2.0

#: APA reference run (mirrors the E1 campaign's n=9 row).
APA_N = 9
APA_INITIAL_RANGE = 64.0
APA_TARGET = 1.0


def cps_check_set(
    params: ProtocolParameters,
    honest: Sequence[int],
    expected_pulses: int,
) -> CheckSet:
    """The Theorem 17 / Lemma 11 monitors for one CPS deployment."""
    from repro.analysis import theory

    honest = list(honest)
    return CheckSet(
        [
            SkewBoundMonitor(theory.cps_skew_bound(params), len(honest)),
            PeriodWindowMonitor(
                theory.cps_min_period_bound(params),
                theory.cps_max_period_bound(params),
                len(honest),
            ),
            ProgressMonitor(honest, expected_pulses),
            TcbConsistencyMonitor(
                theory.tcb_consistency_bound(params), len(honest)
            ),
        ]
    )


def judge_pulses(
    params: ProtocolParameters,
    honest_pulses: Dict[int, Sequence[float]],
    expected_pulses: int,
) -> Dict[str, MonitorVerdict]:
    """Verdicts of :func:`cps_check_set` over *recorded* pulse trains.

    The monitors :func:`judged_run` attaches, fed after the run instead
    of during it — so an experiment row's ``within`` is a monitor's
    verdict without the run having been observed (nothing reaches the
    event hot path, and the vectorized engine materialises no
    annotations at n = 10,000).  Pulse verdicts (``skew`` / ``period``
    / ``progress``) do not depend on feed order; ``tcb-consistency``
    needs annotations a finished run no longer has and reports zero
    checks.
    """
    checks = cps_check_set(params, sorted(honest_pulses), expected_pulses)
    for node, times in honest_pulses.items():
        for index, time in enumerate(times, start=1):
            # No monitor of the set reads the local-time argument.
            checks.on_pulse(time, node, index, time)
    return {verdict.monitor: verdict for verdict in checks.finish()}


def judge_steady_skew(skew: float, params: Any) -> bool:
    """Theorem 17's bound ``S`` over a skew the pulse monitors do not
    see whole: E5's skew after warm-up (for Lynch–Welch, its own
    ``S``), CHURN's stable-cohort skew."""
    return within(skew, params.S)


def judge_apa(result: Any) -> Tuple[MonitorVerdict, bool]:
    """Theorem 9 over an :class:`~repro.sync.approx_agreement.ApaResult`:
    ``(contraction, validity)`` — the ``apa-contraction`` monitor's
    verdict on the honest range trajectory, and whether every honest
    output lies in the honest inputs' range."""
    monitor = ApaContractionMonitor()
    monitor.observe_ranges(result.ranges())
    low, high = min(result.inputs.values()), max(result.inputs.values())
    validity = all(
        at_least(value, low) and within(value, high)
        for value in result.outputs.values()
    )
    return monitor.finish(), validity


def judge_crusader(
    outputs: Dict[int, Any], value: Any, dealer_faulty: bool
) -> Tuple[bool, bool]:
    """Figure 4 over one crusader-broadcast run: ``(validity,
    consistency)``.  Validity — every honest node outputs an honest
    dealer's ``value`` — is vacuous for a faulty dealer; consistency
    allows at most one non-⊥ output."""
    values = set(outputs.values())
    return dealer_faulty or values == {value}, len(values - {BOT}) <= 1


@dataclass(frozen=True)
class EstimateVerdict:
    """Lemmas 12–13 over one CPS run: how many estimates each lemma
    judged, the worst error, and whether it is within δ."""

    accepts: int
    validity_err: float
    validity_within: bool
    faulty_accepted: int
    consistency_err: float
    consistency_within: bool


def judge_estimates(
    simulation: Any,
    honest_pulses: Dict[int, Sequence[float]],
    pulses: int,
    delta: float,
) -> EstimateVerdict:
    """Lemmas 12–13 over a finished CPS run's ``cps-round`` summaries.

    Validity: an honest node's estimate of an honest dealer is within
    δ of their true pulse offset.  Consistency: per round, the honest
    nodes that accepted a faulty dealer hold estimates that agree
    within δ once each is shifted by its own pulse offset.
    """
    summaries = {
        v: simulation.protocol(v).summaries for v in sorted(honest_pulses)
    }
    accepts, validity_err = 0, 0.0
    for v in honest_pulses:
        for summary in summaries[v]:
            r = summary.pulse_round - 1
            for w, estimate in summary.estimates.items():
                if w == v or w not in honest_pulses or estimate is BOT:
                    continue
                accepts += 1
                true_offset = honest_pulses[w][r] - honest_pulses[v][r]
                validity_err = max(validity_err, abs(estimate - true_offset))
    faulty_accepted, consistency_err = 0, 0.0
    for r in range(pulses):
        for dealer in sorted(simulation.faulty):
            per_node = {}
            for v, rounds in summaries.items():
                if r < len(rounds):
                    estimate = rounds[r].estimates.get(dealer)
                    if estimate is not None and estimate is not BOT:
                        per_node[v] = estimate
            faulty_accepted += len(per_node)
            for v, estimate_v in per_node.items():
                for w, estimate_w in per_node.items():
                    if v != w:
                        gap = estimate_v - estimate_w - (
                            honest_pulses[w][r] - honest_pulses[v][r]
                        )
                        consistency_err = max(consistency_err, abs(gap))
    return EstimateVerdict(
        accepts,
        validity_err,
        within(validity_err, delta),
        faulty_accepted,
        consistency_err,
        within(consistency_err, delta),
    )


def judge_lower_bound(measured: float, u_tilde: float) -> Tuple[float, bool]:
    """Theorem 5 over one construction run: ``(bound, met)``, the
    bound being ``2ũ/3`` — some execution must reach it."""
    from repro.analysis import theory

    bound = theory.lower_bound_skew(u_tilde)
    return bound, at_least(measured, bound)


@dataclass(frozen=True)
class ScenarioReport:
    """Conformance verdicts of one scenario in one mode."""

    kind: str
    key: str
    mode: str
    seed: int
    verdicts: Tuple[MonitorVerdict, ...]
    error: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.kind}:{self.key}"

    @property
    def ok(self) -> bool:
        return self.error is None and all(v.ok for v in self.verdicts)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "key": self.key,
            "mode": self.mode,
            "seed": self.seed,
            "ok": self.ok,
            "error": self.error,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def scenario_case(
    kind: str,
    key: str,
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The reference case dict with ``(kind, key)`` plugged in.

    ``overrides`` become the entry's factory keyword arguments (the
    ``<kind>_params`` case key) — the CLI's ``--param`` plumbing.
    """
    case = dict(CPS_BASE_CASE)
    if kind == "topology":
        case["n"] = TOPOLOGY_N
    case[kind] = key
    if overrides:
        case[f"{kind}_params"] = dict(overrides)
    return case


def conformance_seed(seed: int, kind: str, key: str) -> int:
    """Deterministic per-scenario seed (independent of sweep order)."""
    from repro.campaigns.spec import derive_seed

    return derive_seed(seed, "conformance", {"kind": kind, "key": key})


def churn_check_set(
    schedule: Any, params: ProtocolParameters
) -> CheckSet:
    """The stabilization monitor for one churn deployment."""
    return CheckSet(
        [
            StabilizationMonitor(
                schedule,
                params.n,
                envelope=params.S,
                resync_budget=RESYNC_PULSE_BUDGET,
                tail_window=TAIL_WINDOW_PERIODS * params.p_max_bound,
            )
        ]
    )


@dataclass
class JudgedRun:
    """One monitored execution: verdicts plus the run's raw material.

    ``built`` is the facade's
    :class:`~repro.build.BuiltSimulation` (``.simulation`` /
    ``.params`` / ``.f`` / ``.effective``); ``result`` is surfaced so
    differential tests can compare pulse streams across trace levels
    and backends.
    """

    verdicts: Tuple[MonitorVerdict, ...]
    result: Any
    built: Any
    mode: str  # "cps" | "churn"

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def violations(self) -> List[Violation]:
        return [
            violation
            for verdict in self.verdicts
            for violation in verdict.violations
        ]


def judged_run(
    case: Dict[str, Any],
    pulses: int,
    seed: int,
    *,
    backend: str = "event",
    trace: Any = "pulses",
) -> JudgedRun:
    """Build one registry-keyed CPS case, attach its monitors, run it.

    The run is the data ``(case, pulses, seed)`` — the shape of a
    fixture file, a conformance row, a fuzz replay and an ablation
    cell.  A case naming a ``churn`` profile is judged by the
    stabilization monitor against its schedule, any other case by the
    Theorem 17 / Lemma 11 set.
    """
    # Resolved per call: the repo benchmark times this entry point by
    # patching the module attribute.
    from repro.build import build_simulation

    built = build_simulation(case, backend=backend, seed=seed, trace=trace)
    simulation = built.simulation
    mode = "churn" if case.get("churn") is not None else "cps"
    if mode == "churn":
        checks = churn_check_set(simulation.dynamics.schedule, built.params)
    else:
        checks = cps_check_set(built.params, simulation.honest, pulses)
    simulation.attach_checks(checks)
    result = simulation.run(max_pulses=pulses)
    return JudgedRun(tuple(checks.finish()), result, built, mode)


def apa_reference_run(
    n: int,
    adversary: str,
    initial_range: float = APA_INITIAL_RANGE,
    target: float = APA_TARGET,
    overrides: Optional[Dict[str, Any]] = None,
) -> ApaResult:
    """Iterated APA under one registry adversary, from evenly spread
    honest inputs down to ``target`` with the last ``ceil(n/2) - 1``
    nodes faulty — the run E1 tabulates and the ``apa`` conformance
    mode judges."""
    from repro.sync.approx_agreement import iterations_for_target, run_apa

    f = max_faults(n)
    honest = n - f
    return run_apa(
        {v: initial_range * v / max(honest - 1, 1) for v in range(honest)},
        n,
        f,
        list(range(honest, n)),
        REGISTRY.create("adversary", adversary, None, **(overrides or {})),
        iterations=iterations_for_target(initial_range, target),
    )


def check_scenario(
    kind: str,
    key: str,
    scale: str = "quick",
    seed: int = 0,
    trace: Any = "pulses",
    overrides: Optional[Dict[str, Any]] = None,
    backend: str = "event",
) -> ScenarioReport:
    """Conformance-run one registry scenario and report per-monitor
    verdicts.

    ``seed`` is the *sweep* seed; the scenario's own seed is derived
    from it deterministically.  ``overrides`` are forwarded to the
    scenario factory (the CLI's ``--param``).  Execution errors are
    tabulated (an errored scenario fails conformance but never aborts
    a matrix sweep).  ``backend`` selects the engine for ``cps``-mode
    scenarios; the other modes are event-only, so a non-default
    backend tabulates them as errors rather than silently falling
    back.
    """
    scenario_seed = conformance_seed(seed, kind, key)
    mode = "cps"
    try:
        mode = scenario_mode(kind, key)
        if mode != "cps" and backend != "event":
            from repro.sim.vectorized import UnsupportedScenarioError

            raise UnsupportedScenarioError(
                f"backend {backend!r} does not support mode {mode!r} "
                f"scenarios; use backend='event'"
            )
        if mode == "apa":
            contraction, _validity = judge_apa(
                apa_reference_run(APA_N, key, overrides=overrides)
            )
            verdicts = [contraction]
        else:
            by_scale = (
                CHURN_PULSES_BY_SCALE if mode == "churn" else PULSES_BY_SCALE
            )
            verdicts = judged_run(
                scenario_case(kind, key, overrides),
                by_scale.get(scale, by_scale["quick"]),
                scenario_seed,
                backend=backend,
                trace=trace,
            ).verdicts
        error = None
    except Exception as exc:  # noqa: BLE001 - sweeps tabulate failures
        verdicts, error = [], f"{type(exc).__name__}: {exc}"
    return ScenarioReport(
        kind=kind,
        key=key,
        mode=mode,
        seed=scenario_seed,
        verdicts=tuple(verdicts),
        error=error,
    )


def conformance_matrix(
    scale: str = "quick",
    seed: int = 0,
    kinds: Optional[Sequence[str]] = None,
    backend: str = "event",
) -> Dict[str, Any]:
    """Sweep every applicable registry scenario; JSON-ready verdicts.

    The payload is deterministic given ``seed`` (no timestamps or
    durations), so writing it twice with the same inputs produces
    byte-identical files.  A non-default ``backend`` is recorded in
    the payload; the default is omitted so the committed
    ``results/conformance.json`` stays byte-identical to the
    pre-facade format.
    """
    reports: List[ScenarioReport] = []
    for entry in REGISTRY.entries():
        if kinds is not None and entry.kind not in kinds:
            continue
        reports.append(
            check_scenario(
                entry.kind, entry.key, scale, seed, backend=backend
            )
        )
    failed = [report.qualified for report in reports if not report.ok]
    payload = {
        "scale": scale,
        "seed": seed,
        "monitors": list(MONITOR_CATALOG),
        "scenarios": [report.as_dict() for report in reports],
        "total": len(reports),
        "failed": failed,
        "pass": not failed,
    }
    if backend != "event":
        payload["backend"] = backend
    return payload


#: The canonical on-disk bytes of a verdict payload: the byte-identity
#: test compares a fresh matrix with the committed
#: ``results/conformance.json`` through the serializer that wrote it.
matrix_payload_bytes = summary_bytes


def render_matrix(payload: Dict[str, Any]) -> str:
    """The scenario x monitor pass/fail table for ``stdout``."""
    monitors = payload["monitors"]
    label_width = max(
        [len("scenario")]
        + [
            len(f"{entry['kind']}:{entry['key']}")
            for entry in payload["scenarios"]
        ]
    )
    widths = [max(len(name), 4) for name in monitors]
    lines = [
        f"conformance matrix [{payload['scale']}] — paper-bound "
        f"monitors over every registry scenario"
    ]
    header = "  ".join(
        [f"{'scenario':<{label_width}}"]
        + [f"{name:>{width}}" for name, width in zip(monitors, widths)]
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in payload["scenarios"]:
        cells = []
        by_monitor = {
            verdict["monitor"]: verdict for verdict in entry["verdicts"]
        }
        for name, width in zip(monitors, widths):
            verdict = by_monitor.get(name)
            if entry["error"] is not None and name in MODE_MONITORS.get(
                entry["mode"], ()
            ):
                cell = "ERR"
            elif verdict is None:
                cell = "—"
            else:
                cell = "PASS" if verdict["ok"] else "FAIL"
            cells.append(f"{cell:>{width}}")
        label = f"{entry['kind']}:{entry['key']}"
        lines.append("  ".join([f"{label:<{label_width}}"] + cells))
    failed = payload["failed"]
    lines.append("")
    if failed:
        lines.append(
            f"{len(failed)}/{payload['total']} scenarios FAILED: "
            + ", ".join(failed)
        )
    else:
        lines.append(
            f"all {payload['total']} scenarios PASS every applicable "
            f"monitor"
        )
    return "\n".join(lines)


def render_report(report: ScenarioReport) -> str:
    """Human-readable verdicts for one scenario."""
    lines = [
        f"{report.qualified} [{report.mode}] seed={report.seed} — "
        + ("PASS" if report.ok else "FAIL")
    ]
    if report.error is not None:
        lines.append(f"  error      {report.error}")
    for verdict in report.verdicts:
        status = "PASS" if verdict.ok else "FAIL"
        lines.append(
            f"  {verdict.monitor:<16} {status}  "
            f"({verdict.checked} checks) — {verdict.claim}"
        )
        if verdict.worst is not None:
            lines.append(f"    worst {verdict.worst.describe()}")
        for violation in verdict.violations:
            lines.append(f"    ! {violation.describe()}")
    return "\n".join(lines)
