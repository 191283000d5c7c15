"""Adversary/schedule fuzzer: strategies, search, shrinking, corpus.

The satellite guarantees under test:

* the strategy spaces synthesize well-formed, registry-keyed payloads
  (delay policies inside the ``d``/``u`` envelope, adversaries from the
  registry's CPS-capable primitives, churn schedules within the ``f``
  budget);
* the sanity gate: fuzzing the known-bad region (E8's rushing-echo
  with ``u_tilde >> u``) *finds* a violation and shrinks it to a
  fixture no larger than the hand-written broken fixture, and
  ``repro check fixture`` confirms the monitors fire on it;
* a default-budget search over the valid space finds nothing;
* fixtures are content-hashed, byte-stable on disk, idempotently
  promotable into ``promoted/``, and replay deterministically
  — byte-identical verdicts and pulse streams across invocations and
  across ``PULSES`` vs ``FULL`` trace levels;
* the ``repro fuzz run/list/replay/promote`` CLI round-trips, and the
  gate command ``promote`` prints works.
"""

import glob
import json
import os

import pytest
from hypothesis import given

from repro.analysis import metrics
from repro.checks.conformance import (
    CHURN_PULSES_BY_SCALE,
    CPS_BASE_CASE,
    RESYNC_PULSE_BUDGET,
    conformance_seed,
    scenario_case,
)
from repro.cli import main
from repro.fuzz import (
    FIXTURE_SCHEMA,
    available_strategies,
    fixture_id,
    fixture_path,
    interest_score,
    known_bad_cases,
    list_fixtures,
    load_fixture,
    make_fixture,
    promote_fixture,
    replay_fixture,
    save_fixture,
    search,
    valid_churn_cases,
    valid_cps_cases,
    verdict_payload,
)
from repro.fuzz.corpus import MalformedFixtureError
from repro.fuzz.driver import (
    InvalidBudgetError,
    UnknownStrategyError,
    render_fuzz_report,
)
from repro.fuzz.strategies import CPS_ADVERSARIES, CPS_DELAYS
from repro.scenarios import REGISTRY

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The hand-written E8 corner (n = 6, 12 pulses), as a promoted file.
BROKEN_FIXTURE = os.path.join(
    ROOT, "results", "fuzz", "promoted", "fuzz-89ee3cb088aca93d.json",
)


@pytest.fixture(scope="module")
def known_bad_report():
    """One shrunk counterexample, shared by every test that needs it."""
    return search("known-bad", budget=25, seed=0)


# ----------------------------------------------------------------------
# Strategy spaces synthesize well-formed payloads
# ----------------------------------------------------------------------


class TestStrategies:
    @given(payload=valid_cps_cases())
    def test_cps_payloads_are_registry_keyed(self, payload):
        case = payload["case"]
        assert set(payload) == {"case", "pulses", "seed"}
        assert REGISTRY.has("adversary", case["adversary"])
        assert REGISTRY.has("delay", case["delay"])
        assert REGISTRY.has("drift", case["drift"])
        assert "cps" in REGISTRY.get("adversary", case["adversary"]).tags
        assert 4 <= case["n"] <= 8
        assert 1.0 <= case["theta"] <= 1.005
        assert 0.005 <= case["u"] <= 0.05 < case["d"] == 1.0
        assert payload["pulses"] >= 4

    @given(payload=valid_churn_cases())
    def test_churn_payloads_fit_the_fault_budget(self, payload):
        case = payload["case"]
        assert REGISTRY.has("churn", case["churn"])
        # The strategy pre-validates feasibility: building the schedule
        # at the case's (n, f) must not raise.
        from repro.core.params import derive_parameters

        params = derive_parameters(
            case["theta"], case["d"], case["u"], case["n"]
        )
        schedule = REGISTRY.create(
            "churn", case["churn"], params, **case.get("churn_params", {})
        )
        schedule.validate(params.n, params.f)

    @given(payload=known_bad_cases())
    def test_known_bad_payloads_violate_the_envelope(self, payload):
        case = payload["case"]
        assert case["adversary"] == "rushing-echo"
        assert case["delay"] == "fast-to-faulty"
        assert case["u_tilde"] > case["u"]

    def test_strategy_catalog_matches_registry_capabilities(self):
        for key in CPS_ADVERSARIES:
            assert "cps" in REGISTRY.get("adversary", key).tags, key
        for key in CPS_DELAYS:
            assert REGISTRY.has("delay", key), key
        assert set(available_strategies()) == {
            "valid", "cps", "churn", "known-bad",
        }


# ----------------------------------------------------------------------
# The sanity gate: the known-bad region is found and shrinks
# ----------------------------------------------------------------------


class TestSanityGate:
    def test_known_bad_search_finds_and_shrinks(self, known_bad_report):
        report = known_bad_report
        assert report.found and report.ok
        fixture = report.counterexample
        assert fixture["expect"] == "violation"
        assert fixture["origin"] == "shrunk"
        assert fixture["summary"]["violations"]
        # No larger than the hand-written broken fixture (n=6, 12
        # pulses): shrinking found an equal-or-smaller reproduction.
        broken = load_fixture(BROKEN_FIXTURE)
        assert fixture["case"]["n"] <= broken["case"]["n"]
        assert fixture["pulses"] <= broken["pulses"]

    def test_shrunk_fixture_fires_monitors_on_replay(
        self, known_bad_report
    ):
        run = replay_fixture(known_bad_report.counterexample)
        assert not run.ok
        assert any(v.monitor == "skew" for v in run.verdicts if not v.ok)

    def test_check_fixture_cli_confirms_the_monitors_fire(
        self, known_bad_report, tmp_path
    ):
        path = save_fixture(known_bad_report.counterexample, str(tmp_path))
        assert main(["check", "fixture", "--fixture", path]) == 0

    def test_render_names_the_counterexample(self, known_bad_report):
        text = render_fuzz_report(known_bad_report)
        assert "COUNTEREXAMPLE" in text
        assert known_bad_report.counterexample["fixture_id"] in text
        assert "matches" in text


# ----------------------------------------------------------------------
# The valid space stays clean at default-shaped budgets
# ----------------------------------------------------------------------


class TestValidSpace:
    def test_valid_search_finds_no_counterexample(self):
        report = search("valid", budget=25, seed=11)
        assert not report.found
        assert report.ok
        assert report.executions == 25

    def test_interesting_survivors_are_ranked_pass_fixtures(self):
        report = search("valid", budget=25, seed=11, max_interesting=2)
        assert len(report.interesting) <= 2
        for fixture in report.interesting:
            assert fixture["expect"] == "pass"
            assert fixture["origin"] == "interesting"
            assert fixture["summary"]["score"]["score"] >= 0.9

    def test_negative_max_interesting_is_refused(self):
        with pytest.raises(InvalidBudgetError, match="got -1"):
            search("valid", budget=1, max_interesting=-1)

    def test_zero_max_interesting_keeps_no_fixture(self):
        report = search("valid", budget=5, seed=11, max_interesting=0)
        assert report.interesting == []

    def test_unknown_strategy_raises_with_catalog(self):
        with pytest.raises(UnknownStrategyError, match="known-bad"):
            search("bogus", budget=1)


# ----------------------------------------------------------------------
# The score is the monitors' headroom, equal to the formula it replaced
# ----------------------------------------------------------------------


def reference_score(run):
    """The fuzzer's own score before headroom moved into the monitors:
    worst skew over ``S`` (the stable cohort's for a churn run), slowest
    resync over the budget and worst post-resync envelope over ``S``."""
    result, params = run.result, run.built.params
    simulation = run.built.simulation
    cohort, reports = simulation.honest, []
    if run.mode == "churn":
        cohort, reports = metrics.stabilization_reports(
            result.pulses,
            simulation.dynamics.schedule.stable_nodes(params.n),
            simulation.dynamics.activations_applied(),
            params.S,
        )
    resync_pulses, envelope = metrics.worst_resync(reports)
    return max(
        metrics.cohort_skew(result.pulses, cohort, default=0.0) / params.S,
        resync_pulses / RESYNC_PULSE_BUDGET,
        envelope / params.S,
    )


COMMITTED = sorted(
    glob.glob(os.path.join(ROOT, "results", "fuzz", "*", "fuzz-*.json"))
)

#: Explicit payloads (no Hypothesis draw): the six churn matrix rows at
#: quick scale, CPS cases (grazing ``S`` at pulse 1 under extreme
#: drift, 0.78 of it under random drift), and two churn runs whose
#: score the post-resync envelope (0.475) and the resync budget (1/6)
#: decide rather than the cohort skew.
LOW_DRIFT = {"n": 5, "theta": 1.0, "u": 0.005, "drift": "random"}
REPLAYED = [
    {
        "case": scenario_case("churn", entry.key),
        "pulses": CHURN_PULSES_BY_SCALE["quick"],
        "seed": conformance_seed(0, "churn", entry.key),
    }
    for entry in REGISTRY.entries()
    if entry.kind == "churn"
] + [
    {"case": dict(CPS_BASE_CASE, **axes), "pulses": pulses, "seed": seed}
    for axes, pulses, seed in [
        ({}, 6, 0),
        ({"drift": "random", "delay": "random"}, 6, 1),
        ({"adversary": "rushing-echo", "delay": "skewing", "n": 4}, 6, 2),
        ({"adversary": "coordinated-offset", "delay": "biased-partition"},
         6, 3),
        (dict(LOW_DRIFT, adversary="mimic-split", delay="minimum",
              churn="adversary-handoff", churn_params={"at_pulse": 2}),
         12, 5),
        (dict(LOW_DRIFT, u=0.03826369712688534, delay="maximum",
              churn="adversary-handoff", churn_params={"at_pulse": 2}),
         12, 501),
    ]
]


class TestInterestScore:
    @pytest.mark.parametrize(
        "payload",
        [load_fixture(path) for path in COMMITTED] + REPLAYED,
        ids=lambda payload: fixture_id(
            payload["case"], payload["pulses"], payload["seed"]
        ),
    )
    def test_score_equals_the_reference_formula(self, payload):
        run = replay_fixture(payload)
        worst = interest_score(run)
        assert worst.monitor in ("skew", "stabilization")
        assert worst.ratio == reference_score(run)

    @pytest.mark.parametrize(
        "path",
        [p for p in COMMITTED if load_fixture(p)["origin"] == "interesting"],
        ids=os.path.basename,
    )
    def test_committed_interesting_score_replays(self, path):
        fixture = load_fixture(path)
        worst = interest_score(replay_fixture(fixture))
        assert fixture["summary"]["score"]["score"] == worst.ratio

    def test_interesting_summary_is_the_worst_record(self):
        report = search("valid", budget=25, seed=11, max_interesting=1)
        (fixture,) = report.interesting
        score = fixture["summary"]["score"]
        worst = interest_score(replay_fixture(fixture))
        assert score["score"] == score["ratio"] == worst.ratio
        assert score["monitor"] == worst.monitor
        assert (score["observed"], score["bound"]) == (
            worst.observed, worst.bound
        )


# ----------------------------------------------------------------------
# Corpus: content-hashed files, idempotent promotion
# ----------------------------------------------------------------------

CASE = {
    "n": 4,
    "theta": 1.001,
    "d": 1.0,
    "u": 0.01,
    "adversary": "silent",
    "delay": "maximum",
    "drift": "random",
}


class TestCorpus:
    def make(self, **overrides):
        return make_fixture(
            CASE, 5, 7,
            strategy="valid", origin="seed", expect="pass",
            **overrides,
        )

    def test_identity_is_content_addressed(self):
        fixture = self.make()
        assert fixture["schema"] == FIXTURE_SCHEMA
        assert fixture["fixture_id"] == fixture_id(CASE, 5, 7)
        # Provenance never perturbs identity.
        scored = self.make(summary={"score": {"score": 1.0}})
        assert scored["fixture_id"] == fixture["fixture_id"]

    def test_expect_is_validated(self):
        with pytest.raises(ValueError, match="violation|pass"):
            make_fixture(
                CASE, 5, 7,
                strategy="valid", origin="seed", expect="bogus",
            )

    def test_save_load_roundtrip_is_byte_stable(self, tmp_path):
        fixture = self.make()
        path = save_fixture(fixture, str(tmp_path))
        assert path == fixture_path(fixture, str(tmp_path))
        assert load_fixture(path) == fixture
        first = open(path, "rb").read()
        save_fixture(fixture, str(tmp_path))
        assert open(path, "rb").read() == first
        assert list_fixtures(str(tmp_path)) == [path]

    def test_load_rejects_malformed_files(self, tmp_path):
        with pytest.raises(MalformedFixtureError, match="not found"):
            load_fixture(str(tmp_path / "missing.json"))
        bad = tmp_path / "fuzz-bad.json"
        bad.write_text("{not json")
        with pytest.raises(MalformedFixtureError, match="not valid JSON"):
            load_fixture(str(bad))
        bad.write_text(json.dumps({"schema": "other/v1"}))
        with pytest.raises(MalformedFixtureError, match="schema"):
            load_fixture(str(bad))
        stripped = {k: v for k, v in self.make().items() if k != "seed"}
        bad.write_text(json.dumps(stripped))
        with pytest.raises(MalformedFixtureError, match="seed"):
            load_fixture(str(bad))

    def test_promotion_is_idempotent(self, tmp_path):
        fixture = self.make()
        path = promote_fixture(fixture, directory=str(tmp_path))
        assert path == fixture_path(fixture, str(tmp_path))
        first = open(path, "rb").read()
        # Re-promoting rewrites the same content-addressed file.
        assert promote_fixture(fixture, directory=str(tmp_path)) == path
        assert open(path, "rb").read() == first
        assert list_fixtures(str(tmp_path)) == [path]
        assert load_fixture(path) == fixture


# ----------------------------------------------------------------------
# Determinism: byte-identical replay, trace-level independence
# ----------------------------------------------------------------------


def _replay_bytes(fixture, trace):
    run = replay_fixture(fixture, trace=trace)
    return json.dumps(
        verdict_payload(fixture, run), indent=2, sort_keys=True
    ).encode()


class TestDeterminism:
    def test_search_is_deterministic_in_its_triple(self, known_bad_report):
        again = search("known-bad", budget=25, seed=0)
        assert again == known_bad_report

    def test_replay_is_byte_identical_across_invocations(
        self, known_bad_report
    ):
        fixture = known_bad_report.counterexample
        assert _replay_bytes(fixture, "pulses") == _replay_bytes(
            fixture, "pulses"
        )

    def test_replay_is_trace_level_independent(self, known_bad_report):
        fixture = known_bad_report.counterexample
        assert _replay_bytes(fixture, "pulses") == _replay_bytes(
            fixture, "full"
        )

    def test_valid_case_replay_is_deterministic(self):
        payload = {"case": CASE, "pulses": 5, "seed": 3}
        first = replay_fixture(payload)
        second = replay_fixture(payload)
        fixture = make_fixture(
            payload["case"], 5, 3,
            strategy="valid", origin="seed", expect="pass",
        )
        assert verdict_payload(fixture, first) == verdict_payload(
            fixture, second
        )
        assert first.ok


# ----------------------------------------------------------------------
# CLI round-trip
# ----------------------------------------------------------------------


class TestCli:
    def test_run_list_replay_promote_roundtrip(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        promoted = str(tmp_path / "promoted")
        assert main([
            "fuzz", "run", "--strategy", "known-bad",
            "--budget", "15", "--seed", "0", "--out", corpus,
        ]) == 0
        paths = list_fixtures(corpus)
        assert len(paths) == 1
        out = capsys.readouterr().out
        assert "COUNTEREXAMPLE" in out and paths[0] in out

        assert main(["fuzz", "list", "--dir", str(tmp_path)]) == 0
        assert "shrunk" in capsys.readouterr().out

        assert main(["fuzz", "replay", paths[0]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["expectation_met"] and not payload["ok"]

        assert main([
            "fuzz", "promote", paths[0], "--dest", promoted,
        ]) == 0
        (gate,) = list_fixtures(promoted)
        # The instruction promote prints is a command that works.
        assert (
            f"repro check fixture --fixture {gate}"
            in capsys.readouterr().out
        )
        assert main(["check", "fixture", "--fixture", gate]) == 0

    def test_run_valid_space_exits_clean(self, tmp_path, capsys):
        assert main([
            "fuzz", "run", "--strategy", "valid", "--budget", "10",
            "--seed", "2", "--out", str(tmp_path), "--max-interesting", "1",
        ]) == 0
        assert "no monitor violations" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["-3", "0"])
    def test_nonpositive_budget_exits_cleanly(self, budget):
        with pytest.raises(SystemExit, match="budget must be >= 1"):
            main(["fuzz", "run", "--budget", budget])

    def test_negative_max_interesting_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="max_interesting must be >= 0"):
            main([
                "fuzz", "run", "--budget", "1", "--out", str(tmp_path),
                "--max-interesting", "-4",
            ])
        assert list_fixtures(str(tmp_path)) == []

    def test_unknown_strategy_exits_with_hint(self):
        with pytest.raises(SystemExit, match="available"):
            main(["fuzz", "run", "--strategy", "nope"])

    def test_check_fixture_rejects_unknown_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "fixture", "--fixture", "not-a-thing"])
