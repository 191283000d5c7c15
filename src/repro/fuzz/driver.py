"""The budgeted search loop: Hypothesis as a counterexample engine.

:func:`search` runs ``budget`` synthesized cases from one strategy
space through the oracle.  A monitor FAIL raises inside the Hypothesis
test body, which switches Hypothesis into its shrinking phase; the
final (minimal) failing example is captured on its last execution and
serialized as a ``shrunk`` fixture.  Surviving examples are ranked by
the worst headroom their monitors report (near-bound skew,
envelope-grazing resync) and the best become ``interesting`` fixtures.

Determinism: the loop pins an explicit Hypothesis seed, disables the
example database and deadlines, and restricts phases to
``generate`` + ``shrink`` (no ``explain`` re-runs that could overwrite
the captured minimum), so a ``(strategy, budget, seed)`` triple always
reproduces the same report — which is what lets the campaign layer
shard fuzz budgets across pool workers with derived seeds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from hypothesis import HealthCheck, Phase, Verbosity, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings as hypothesis_settings

from repro.checks.monitors import measured
from repro.fuzz.corpus import fixture_id, make_fixture
from repro.fuzz.oracle import interest_score, replay_fixture
from repro.fuzz.strategies import (
    fuzz_cases,
    known_bad_cases,
    valid_churn_cases,
    valid_cps_cases,
)

#: Examples generated per default-budget run (seconds, not minutes).
DEFAULT_BUDGET = 100

#: A surviving example is *interesting* when some bound ratio reaches
#: this floor; the best ``max_interesting`` of them become fixtures.
#: (The protocol legitimately operates close to ``S`` under maximum
#: delay, so the floor alone is not selective — ranking is.)
INTERESTING_FLOOR = 0.9
DEFAULT_MAX_INTERESTING = 2

#: Strategy spaces addressable from the CLI and the campaign layer.
STRATEGY_SPACES = {
    "valid": fuzz_cases,
    "cps": valid_cps_cases,
    "churn": valid_churn_cases,
    "known-bad": known_bad_cases,
}

#: What finding a violation *means* per space: in the valid spaces it
#: is a theorem-bound counterexample (the run failed); in the known-bad
#: space it is the expected outcome (the oracle works).
STRATEGY_EXPECTS_VIOLATION = {"known-bad": True}


class UnknownStrategyError(KeyError):
    """Raised for strategy names outside :data:`STRATEGY_SPACES`."""


class InvalidBudgetError(ValueError):
    """Raised for a search budget of fewer than one example, or a
    negative number of interesting fixtures to keep."""


class _CounterexampleFound(Exception):
    """Internal control flow: hands a monitor FAIL to the shrinker."""


@dataclass
class FuzzReport:
    """Outcome of one budgeted search."""

    strategy: str
    budget: int
    seed: int
    executions: int
    counterexample: Optional[Dict[str, Any]] = None
    interesting: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.counterexample is not None

    @property
    def expects_violation(self) -> bool:
        return STRATEGY_EXPECTS_VIOLATION.get(self.strategy, False)

    @property
    def ok(self) -> bool:
        """Did the search end the way its space predicts?"""
        return self.found == self.expects_violation


def available_strategies() -> List[str]:
    return list(STRATEGY_SPACES)


def search(
    strategy: str = "valid",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    max_interesting: int = DEFAULT_MAX_INTERESTING,
) -> FuzzReport:
    """Run ``budget`` examples of ``strategy`` through the oracle.

    Returns a :class:`FuzzReport`; ``counterexample`` (when found) is a
    *shrunk* fixture payload — Hypothesis re-executes the minimal
    failing example last, so the final capture is the minimum.
    ``executions`` counts actual oracle runs including shrink steps.
    """
    try:
        space = STRATEGY_SPACES[strategy]
    except KeyError:
        raise UnknownStrategyError(
            f"unknown fuzz strategy {strategy!r} "
            f"(available: {', '.join(STRATEGY_SPACES)})"
        ) from None
    if budget < 1:
        raise InvalidBudgetError(f"fuzz budget must be >= 1, got {budget}")
    if max_interesting < 0:
        raise InvalidBudgetError(
            f"max_interesting must be >= 0, got {max_interesting}"
        )
    captured: Dict[str, Any] = {}
    survivors: Dict[str, Any] = {}
    counter = {"executions": 0}

    @hypothesis_seed(seed)
    @hypothesis_settings(
        max_examples=budget,
        database=None,
        deadline=None,
        derandomize=False,
        verbosity=Verbosity.quiet,
        phases=(Phase.generate, Phase.shrink),
        suppress_health_check=list(HealthCheck),
    )
    @given(payload=space())
    def probe(payload: Dict[str, Any]) -> None:
        counter["executions"] += 1
        run = replay_fixture(payload)
        if not run.ok:
            captured["payload"] = payload
            captured["violations"] = [
                violation.as_dict() for violation in run.violations()
            ]
            raise _CounterexampleFound(payload)
        worst = None if captured else interest_score(run)
        if worst is not None and worst.ratio >= INTERESTING_FLOOR:
            key = fixture_id(
                payload["case"], payload["pulses"], payload["seed"]
            )
            survivors[key] = (worst, payload)

    try:
        probe()
        counterexample = None
    except _CounterexampleFound:
        payload = captured["payload"]
        counterexample = make_fixture(
            payload["case"],
            payload["pulses"],
            payload["seed"],
            strategy=strategy,
            origin="shrunk",
            expect="violation",
            summary={"violations": captured["violations"]},
        )
    ranked = sorted(
        survivors.items(), key=lambda item: (-item[1][0].ratio, item[0])
    )
    interesting = [
        make_fixture(
            payload["case"],
            payload["pulses"],
            payload["seed"],
            strategy=strategy,
            origin="interesting",
            expect="pass",
            summary={"score": {"score": worst.ratio, **asdict(worst)}},
        )
        for _key, (worst, payload) in ranked[:max_interesting]
    ]
    return FuzzReport(
        strategy=strategy,
        budget=budget,
        seed=seed,
        executions=counter["executions"],
        counterexample=counterexample,
        interesting=interesting,
    )


def _describe_case(fixture: Dict[str, Any]) -> str:
    case = fixture["case"]
    axes = [
        f"{kind}={case[kind]}"
        for kind in ("adversary", "delay", "drift", "churn", "topology")
        if kind in case
    ]
    if "u_tilde" in case:
        axes.append(f"u_tilde={case['u_tilde']}")
    return (
        f"n={case['n']} pulses={fixture['pulses']} "
        f"seed={fixture['seed']} " + " ".join(axes)
    )


def render_fuzz_report(report: FuzzReport) -> str:
    """Human-readable search outcome for ``stdout``."""
    lines = [
        f"fuzz [{report.strategy}] budget={report.budget} "
        f"seed={report.seed} — {report.executions} oracle run(s)"
    ]
    if report.counterexample is not None:
        fixture = report.counterexample
        violations = fixture["summary"].get("violations", [])
        lines.append(
            f"  COUNTEREXAMPLE fuzz-{fixture['fixture_id']} "
            f"({len(violations)} violation(s), shrunk): "
            f"{_describe_case(fixture)}"
        )
        for violation in violations:
            lines.append(
                f"    ! {violation['monitor']}: {violation['message']} "
                + measured(violation["observed"], violation["bound"])
            )
    else:
        lines.append("  no monitor violations found")
    for fixture in report.interesting:
        score = fixture["summary"].get("score", {})
        lines.append(
            f"  interesting fuzz-{fixture['fixture_id']} "
            f"(score {score.get('score', 0.0):.3f}): "
            f"{_describe_case(fixture)}"
        )
    verdict = "matches" if report.ok else "CONTRADICTS"
    expectation = (
        "a violation" if report.expects_violation else "no violations"
    )
    lines.append(
        f"  outcome {verdict} the {report.strategy!r} space's "
        f"expectation ({expectation})"
    )
    return "\n".join(lines)
