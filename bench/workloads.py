"""The five benchmark workloads.

Each workload is a class: construction builds the plan/fixtures from
the seed (charged to ``setup_s``), :meth:`run_pass` runs one pass of
fixed content and returns a :class:`PassResult`.  A pass is closed
loop and single-process: the parent blocks while the two pool workers
or the one CLI child the workload itself defines are running.

The seed only rewrites the campaign/spec seed fed to the program; the
work per pass is the same for every seed, so passes of different seeds
are comparable.  ``smoke=True`` shrinks every workload below two
seconds for the test suite and changes nothing else.

Workloads never import :mod:`bench.trace`; a traced run replaces the
``span`` attribute with the tracer's context manager.

Timing is kept per *unit*: the finest piece of a pass the program lets
an outsider clock.  That is one op on ``event-stress``,
``vector-scale`` and ``cli-coldstart``, one campaign leg (thousands of
ops) on ``campaign-overhead``, and on ``event-judged`` one trial or
cell, plus the conformance matrix as a single unit of 34 ops.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import campaigns  # noqa: E402
from repro.campaigns.spec import canonical_json  # noqa: E402


@dataclass
class PassResult:
    """What one pass did and what the program answered.

    ``unit_ms[i]`` is the wall of the pass's i-th timed unit and
    ``unit_ops[i]`` the number of ops it stands for.  ``digests`` maps
    a check id to the digest of a simulated output; ``covers`` gives
    the number of ops a check id stands for when that is not one (a
    whole campaign leg shares one digest).
    """

    unit_ms: List[float] = field(default_factory=list)
    unit_ops: List[int] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    covers: Dict[str, int] = field(default_factory=dict)
    failed: int = 0
    events: int = 0
    skew_over_bound: float = 0.0
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(self.unit_ops)

    def add_unit(self, ms: float, ops: int = 1) -> None:
        self.unit_ms.append(ms)
        self.unit_ops.append(ops)


def digest(value: Any) -> str:
    """Short content hash of a JSON-able simulated output."""
    text = value if isinstance(value, bytes) else (
        canonical_json(value).encode("utf-8")
    )
    return hashlib.sha256(text).hexdigest()[:16]


@contextmanager
def no_span(name: str, op: bool = False) -> Iterator[None]:
    """The untraced stand-in for the tracer's span context manager."""
    yield


class Workload:
    """Base class: a named pass of fixed content."""

    name = ""
    #: Wall of one pass on the reference box (see bench/README.md).
    PASS_S = 1.0
    span: Callable[..., Any] = staticmethod(no_span)

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def passes(self, seconds: float) -> int:
        """Timed passes of a run asked to measure for ``seconds``.

        Fixed by the nominal pass wall, never by the speed measured:
        a per-unit floor is a minimum over repeats, so both sides of a
        comparison must repeat each unit the same number of times.
        """
        if self.smoke:
            return 1
        return max(3, round(seconds / self.PASS_S))

    def reference(self) -> Optional[Dict[str, str]]:
        """The committed digests for this seed, or ``None``."""
        path = REFERENCE / f"{self.name}.seed{self.seed}.json"
        if self.smoke or not path.exists():
            return None
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["digests"]


def _add_records(
    result: PassResult, prefix: str, records: Sequence[Any]
) -> None:
    """Fold executed trial records into a pass result, one op each."""
    for record in records:
        result.add_unit(record.duration * 1000.0)
        result.digests[f"{prefix}/{record.case_key[:12]}"] = digest(
            record.metrics
        )
        if not record.ok:
            result.failed += 1


class EventStress(Workload):
    """STRESS grid through execute_campaign, serial, no store: the event
    engine does ~80% of the work, overlay construction the rest, the
    campaign layer almost none."""

    name = "event-stress"
    PASS_S = 2.25

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        from repro.analysis.experiments import stress_campaign

        # The full tier's grid (every adversary x delay x drift, both
        # sizes, every topology) at a ten-pulse budget, not the tier's
        # fifteen: a run repeats the pass eight times, because a per-op
        # floor needs each op repeated (see README, "Steadiness").
        # Overlay construction costs the same per trial at any budget
        # (0.5 s of a pass), so fewer pulses would overstate it.
        self.scale = "quick" if smoke else "full"
        self.spec = replace(
            stress_campaign(),
            seed=seed,
            measurements={
                "*": campaigns.MeasurementSpec(pulses=10, warmup=3)
            },
        )
        self.trials = len(self.spec.trials_for(self.scale))

    def run_pass(self) -> PassResult:
        result = PassResult()
        run = campaigns.execute_campaign(self.spec, scale=self.scale)
        _add_records(result, "stress", run.records)
        for record in run.records:
            metrics = record.metrics
            result.events += int(metrics.get("events", 0))
            if "steady_skew" in metrics and "bound_S" in metrics:
                result.skew_over_bound = max(
                    result.skew_over_bound,
                    metrics["steady_skew"] / metrics["bound_S"],
                )
        return result


class EventJudged(Workload):
    """Conformance matrix + CHURN-STRESS + pairwise ablation matrix: the
    same engine with monitors, annotate, churn hook, active adversaries
    and the APA round model attached."""

    name = "event-judged"
    PASS_S = 2.25

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        from repro.ablation import AblationSpec, ablation_campaign_spec
        from repro.analysis.experiments import churn_campaign

        self.matrix_scale = "quick" if smoke else "full"
        self.matrix_kinds = ("drift",) if smoke else None
        # Churn's full grid (both sizes, drifts and delays) at its quick
        # tier's pulse budget: a third of the pass, like the other two.
        self.churn = replace(
            churn_campaign(),
            seed=seed,
            measurements={
                "*": campaigns.MeasurementSpec(pulses=14, warmup=3)
            },
        )
        self.churn_scale = "quick" if smoke else "full"
        self.ablation = (
            AblationSpec(components=("signatures",), seed=seed)
            if smoke
            else AblationSpec(pairwise=True, seed=seed)
        )
        self.ablation_campaign = ablation_campaign_spec(self.ablation)
        self.ablation_scale = "quick" if smoke else "full"

    def run_pass(self) -> PassResult:
        from repro.ablation import ablation_payload_bytes, ablation_report
        from repro.checks.conformance import conformance_matrix

        result = PassResult()
        start = time.perf_counter()
        payload = conformance_matrix(
            scale=self.matrix_scale,
            seed=self.seed,
            kinds=self.matrix_kinds,
        )
        wall = time.perf_counter() - start
        # The matrix exposes no per-scenario clock: one unit for all its
        # ops (the span of check_scenario is per layer).
        result.add_unit(wall * 1000.0, payload["total"])
        for scenario in payload["scenarios"]:
            key = f"matrix/{scenario['kind']}/{scenario['key']}"
            result.digests[key] = digest(scenario)
            if scenario.get("error"):
                result.failed += 1
        run = campaigns.execute_campaign(
            self.churn, scale=self.churn_scale
        )
        _add_records(result, "churn", run.records)
        run = campaigns.execute_campaign(
            self.ablation_campaign, scale=self.ablation_scale
        )
        _add_records(result, "ablation", run.records)
        report = ablation_report(self.ablation, run)
        result.digests["ablation/report"] = digest(
            ablation_payload_bytes(report)
        )
        # No skew_over_bound here: verdicts are outputs (digests), not
        # invariants — ablated cells and known-bad scenarios break the
        # bound on purpose.
        return result


def _rounded(value: float) -> float:
    """Nine significant digits: the vectorized backend's documented
    floating-point tolerance (docs/VECTORIZED.md)."""
    return float(f"{value:.9g}")


class VectorScale(Workload):
    """Vectorized backend at n=1000 and n=2500: numpy block kernels,
    delay_matrix and clock inversion do everything, the event engine
    nothing."""

    name = "vector-scale"
    PASS_S = 2.6

    PULSES = 5
    WARMUP = 2

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        delays = ("maximum", "random", "flicker-partition")
        drifts = ("extreme", "random")
        if smoke:
            grid = [(200, "maximum", "extreme"), (200, "random", "random")]
        else:
            # n=2500 has 1251 honest rows: it crosses the 1024-row
            # block boundary.
            grid = [
                (n, dl, dr)
                for n in (1000, 2500) for dl in delays for dr in drifts
            ]
        self.cases = [
            {
                "n": n,
                "theta": 1.001,
                "d": 1.0,
                "u": 0.01,
                "adversary": "silent",
                "delay": delay,
                "drift": drift,
            }
            for n, delay, drift in grid
        ]

    def run_pass(self) -> PassResult:
        from repro.analysis.runner import run_pulse_trial
        from repro.build import build_simulation

        result = PassResult()
        for case in self.cases:
            label = f"n{case['n']}/{case['delay']}/{case['drift']}"
            with self.span("vector-scale.sim", op=True):
                start = time.perf_counter()
                built = build_simulation(
                    case,
                    backend="vectorized",
                    seed=self.seed,
                    trace="none",
                )
                outcome = run_pulse_trial(
                    built.simulation, self.PULSES, warmup=self.WARMUP
                )
                result.add_unit((time.perf_counter() - start) * 1000.0)
            report = outcome.report
            if report is None or outcome.result is None:
                result.failed += 1
                result.digests[label] = digest({"error": outcome.error})
                continue
            bound = built.params.S
            result.events += outcome.result.events_processed
            result.skew_over_bound = max(
                result.skew_over_bound, report.steady_skew / bound
            )
            result.digests[label] = digest(
                {
                    "events": outcome.result.events_processed,
                    "max_skew": _rounded(report.max_skew),
                    "steady_skew": _rounded(report.steady_skew),
                    "min_period": _rounded(report.min_period),
                    "max_period": _rounded(report.max_period),
                    "bound_S": _rounded(bound),
                }
            )
            del built, outcome
        return result


class CampaignOverhead(Workload):
    """A no-op builder through plan, serial+store, cache replay, 2-worker
    pool, directory queue and aggregate: engine time is zero, so only
    the campaign layer shows."""

    name = "campaign-overhead"
    PASS_S = 2.6

    BUILDER = "bench.noop:noop_trial"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.trials = 300 if smoke else 10_000
        self.queue_trials = 100 if smoke else 2000
        self.spec = self._spec("BENCH-NOOP", self.trials)
        self.queue_spec = self._spec("BENCH-NOOP-QUEUE", self.queue_trials)

    def _spec(self, name: str, trials: int) -> Any:
        return campaigns.CampaignSpec(
            name=name,
            seed=self.seed,
            scenarios=(
                campaigns.ScenarioSpec(
                    builder=self.BUILDER,
                    axes={"*": {"i": tuple(range(trials))}},
                ),
            ),
            measurements={"*": campaigns.MeasurementSpec()},
        )

    def _leg(
        self,
        result: PassResult,
        name: str,
        trials: int,
        body: Callable[[], Tuple[Any, bool]],
    ) -> Any:
        """Time one leg: one unit standing for ``trials`` ops."""
        with self.span(f"campaign-overhead.{name}"):
            start = time.perf_counter()
            value, ok = body()
            wall = time.perf_counter() - start
        result.detail[f"{name}_s"] = wall
        result.add_unit(wall * 1000.0, trials)
        result.covers[name] = trials
        if not ok:
            result.failed += trials
        return value

    def run_pass(self) -> PassResult:
        result = PassResult()
        spec, scale = self.spec, "full"
        n = self.trials

        def records_digest(run: Any) -> str:
            return digest(
                [[r.case_key, r.metrics, r.error] for r in run.records]
            )

        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:

            def plan() -> Tuple[Any, bool]:
                plans = spec.trials_for(scale)
                result.digests["plan"] = digest(
                    [[p.case_key, p.seed] for p in plans]
                )
                return plans, len(plans) == n

            def serial() -> Tuple[Any, bool]:
                store = campaigns.ResultStore(os.path.join(tmp, "serial"))
                run = campaigns.execute_campaign(spec, scale, store=store)
                result.digests["serial"] = records_digest(run)
                return run, run.executed == n and run.failed == 0

            def replay() -> Tuple[Any, bool]:
                store = campaigns.ResultStore(os.path.join(tmp, "serial"))
                run = campaigns.execute_campaign(spec, scale, store=store)
                result.digests["replay"] = records_digest(run)
                return run, run.cached == n and run.executed == 0

            def pool() -> Tuple[Any, bool]:
                store = campaigns.ResultStore(os.path.join(tmp, "pool"))
                run = campaigns.execute_campaign(
                    spec,
                    scale,
                    policy=campaigns.ExecutionPolicy(
                        workers=2, chunk_size=64
                    ),
                    store=store,
                )
                result.digests["pool"] = records_digest(run)
                return run, run.executed == n and run.failed == 0

            def queue() -> Tuple[Any, bool]:
                store = campaigns.ResultStore(os.path.join(tmp, "queue"))
                run = campaigns.execute_campaign(
                    self.queue_spec,
                    scale,
                    policy=campaigns.ExecutionPolicy(
                        queue=os.path.join(tmp, "queue-dir"),
                        chunk_size=50,
                        worker_id="bench",
                    ),
                    store=store,
                )
                result.digests["queue"] = records_digest(run)
                return run, (
                    run.executed == self.queue_trials and run.failed == 0
                )

            self._leg(result, "plan", n, plan)
            serial_run = self._leg(result, "serial", n, serial)
            self._leg(result, "replay", n, replay)
            self._leg(result, "pool", n, pool)
            self._leg(result, "queue", self.queue_trials, queue)

            def table() -> Tuple[Any, bool]:
                rendered = campaigns.run_summary_table(serial_run)
                rows = [list(row[:5]) for row in rendered.rows]
                result.digests["table"] = digest(rows)
                return rendered, len(rows) == 1

            self._leg(result, "table", 1, table)
        return result


class CliColdstart(Workload):
    """A fresh python -m repro child per command: import cost (networkx,
    the 2k-line cli module) that no in-process workload sees."""

    name = "cli-coldstart"
    PASS_S = 3.0
    ROUNDS = 2

    COMMANDS: Tuple[Tuple[str, ...], ...] = (
        ("--help",),
        ("campaign", "list"),
        ("scenarios", "list"),
        ("check", "list"),
    )

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        from repro import scenarios
        from repro.checks import MONITOR_CATALOG

        # A command's output must list these registry names; the exact
        # --help text varies with the Python minor, the names do not.
        self.expected: Dict[Tuple[str, ...], List[str]] = {
            ("--help",): [
                "campaign", "scenarios", "check", "ablate", "perf",
            ],
            ("campaign", "list"): campaigns.available_campaigns(),
            ("scenarios", "list"): sorted(
                {entry.key for entry in scenarios.entries()}
            ),
            ("check", "list"): list(MONITOR_CATALOG),
        }
        # The seed's only input here is the order users type commands
        # in; every round runs every command once.
        order = random.Random(seed)
        self.invocations: List[Tuple[str, Tuple[str, ...]]] = []
        for round_ in range(1 if smoke else self.ROUNDS):
            commands = list(self.COMMANDS[:1] if smoke else self.COMMANDS)
            order.shuffle(commands)
            self.invocations += [
                (f"{' '.join(c)} #{round_ + 1}", c) for c in commands
            ]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [
                p for p in [os.environ.get("PYTHONPATH")] if p
            ]
        )

    def reference(self) -> Optional[Dict[str, str]]:
        """Known for every seed: each command lists all its names."""
        return {label: "lists-all" for label, _c in self.invocations}

    def invoke(
        self, command: Sequence[str], extra: Sequence[str] = ()
    ) -> "subprocess.CompletedProcess[str]":
        """One child at a time; the parent blocks until it exits."""
        return subprocess.run(
            [sys.executable, *extra, "-m", "repro", *command],
            cwd=str(ROOT),
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )

    def run_pass(self) -> PassResult:
        result = PassResult()
        for label, command in self.invocations:
            with self.span("cli.invoke", op=True):
                start = time.perf_counter()
                try:
                    done = self.invoke(command)
                except subprocess.TimeoutExpired:
                    done = None
                elapsed = (time.perf_counter() - start) * 1000.0
            result.add_unit(elapsed)
            result.detail[f"{label}_ms"] = elapsed
            if done is None or done.returncode != 0 or not done.stdout:
                result.failed += 1
                result.digests[label] = "failed"
                continue
            missing = [
                name
                for name in self.expected[tuple(command)]
                if name not in done.stdout
            ]
            result.digests[label] = (
                "lists-all" if not missing else f"missing:{missing[0]}"
            )
        return result


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        EventStress,
        EventJudged,
        VectorScale,
        CampaignOverhead,
        CliColdstart,
    )
}
