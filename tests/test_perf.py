"""Tests for the perf gate, its history and the trace-level fast path."""

import json
import math
import os

import pytest

from repro import scenarios
from repro.analysis.runner import run_pulse_trial
from repro.build import build_simulation
from repro.cli import main
from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters
from repro.crypto.signatures import clear_verify_cache, verify_cache_stats
from repro.perf import overhead
from repro.perf.history import (
    METRICS,
    append_history,
    compare,
    load_history,
    read_results,
    recording,
    trajectory,
)
from repro.sim.trace import Trace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def result(workload, ops=100.0, calibration=1e7, **fields):
    """A ``bench-result/1`` payload as ``bench/measure.py`` writes it."""
    values = dict.fromkeys(METRICS, 1.0)
    values.update(ops_per_s=ops, events_per_s=ops)
    return {
        "schema": "bench-result/1",
        "workload": workload,
        "seed": 0,
        "trace": 0,
        "smoke": False,
        "correct": True,
        "noisy": False,
        "environment": {"nproc": 2, "python": "3.11.7", "loadavg_1m": 0.5},
        "calibration_ops_per_s": {
            "before": calibration * 0.98, "after": calibration * 1.02,
        },
        "metrics": {
            name: {"value": value, "unit": "x"}
            for name, value in values.items()
        },
        "not_applicable": ["events_per_s", "skew_over_bound_max"],
        **fields,
    }


def write_results(directory, *results):
    """Write payloads the way repeated ``bench run --out`` calls do."""
    os.makedirs(directory, exist_ok=True)
    counts = {}
    for payload in results:
        name = payload["workload"]
        index = counts[name] = counts.get(name, -1) + 1
        path = os.path.join(directory, f"RESULT_{name}.{index:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return str(directory)


def baseline_of(*results):
    return recording(
        {r["workload"]: [r] for r in results}, notes="synthetic"
    )


def graded(baseline_results, current_results, tolerance=0.35):
    runs = {}
    for payload in current_results:
        runs.setdefault(payload["workload"], []).append(payload)
    verdicts = compare(baseline_of(*baseline_results), runs, tolerance)
    return {verdict.name: verdict for verdict in verdicts}


class TestReadResults:
    def test_scans_directory_and_groups_runs(self, tmp_path):
        write_results(
            tmp_path, result("alpha"), result("alpha"), result("beta")
        )
        (tmp_path / "unrelated.json").write_text("{}")
        runs = read_results(str(tmp_path))
        assert {name: len(rs) for name, rs in runs.items()} == {
            "alpha": 2, "beta": 1,
        }

    def test_empty_or_missing_directory_is_one_line(self, tmp_path):
        for directory in (tmp_path, tmp_path / "missing"):
            with pytest.raises(SystemExit, match="no RESULT_"):
                read_results(str(directory))

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{not json", "not JSON"),
            ("[1, 2]", "not a JSON object"),
            (json.dumps(result("a", schema="bench-result/0")), "schema"),
            (json.dumps(result("a", trace=1)), "traced run"),
            (json.dumps(result("a", smoke=True)), "--smoke"),
            (
                json.dumps(result("a", calibration_ops_per_s=None)),
                "calibration",
            ),
            (json.dumps(result("a", calibration=0.0)), "calibration"),
            (json.dumps(result("a", metrics={})), "metric"),
        ],
    )
    def test_ungradeable_file_names_itself_and_the_reason(
        self, tmp_path, text, reason
    ):
        write_results(tmp_path, result("good"))
        (tmp_path / "RESULT_bad.000.json").write_text(text)
        with pytest.raises(SystemExit) as info:
            read_results(str(tmp_path))
        message = str(info.value)
        assert "RESULT_bad.000.json" in message and reason in message
        assert "\n" not in message

    def test_metric_names_are_the_contract(self):
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
            contract = json.load(handle)
        assert list(METRICS) == [
            entry["name"] for entry in contract["end_to_end"]
        ]


class TestCompare:
    def test_improvement_within_tolerance_regression(self):
        by_name = graded(
            [result("up"), result("flat"), result("down")],
            [
                result("up", ops=200.0),  # 2.0x
                result("flat", ops=80.0),  # 0.8x, within 0.35
                result("down", ops=50.0),  # 0.5x, regression
            ],
        )
        assert by_name["up"].status == "improvement"
        assert by_name["flat"].status == "within-tolerance"
        assert by_name["down"].status == "regression"
        assert by_name["down"].ratio == pytest.approx(0.5)
        assert not by_name["down"].ok
        assert "down: regression (ratio 0.500)" in by_name["down"].describe()

    def test_all_good_passes(self):
        by_name = graded([result("a")], [result("a", ops=99.0)])
        assert all(verdict.ok for verdict in by_name.values())

    def test_missing_case_fails_new_case_passes(self):
        by_name = graded([result("gone")], [result("fresh")])
        assert by_name["gone"].status == "missing"
        assert by_name["fresh"].status == "new"
        assert not by_name["gone"].ok and by_name["fresh"].ok

    def test_normalization_cancels_machine_speed(self):
        # Equal work on a "machine" twice as fast: ops_per_s doubled
        # AND the calibration doubled.
        verdict = graded(
            [result("a", ops=100.0, calibration=1e7)],
            [result("a", ops=200.0, calibration=2e7)],
        )["a"]
        assert verdict.ratio == pytest.approx(1.0)
        assert verdict.status in ("within-tolerance", "improvement")

    def test_median_over_the_runs_of_one_workload(self):
        # .000/.001/.002: one wild run moves neither side.
        verdict = graded(
            [result("a")],
            [result("a", ops=90.0), result("a", ops=5.0),
             result("a", ops=95.0)],
        )["a"]
        assert verdict.ratio == pytest.approx(0.9)
        assert verdict.status == "within-tolerance"

    def test_incorrect_run_fails_whatever_its_speed(self):
        verdict = graded(
            [result("a")], [result("a", ops=500.0, correct=False)]
        )["a"]
        assert verdict.status == "incorrect" and not verdict.ok

    def test_noisy_run_is_graded_and_flagged(self):
        verdict = graded([result("a")], [result("a", noisy=True)])["a"]
        assert verdict.ok and verdict.noisy
        assert "noisy" in verdict.describe()

    def test_baseline_entry_without_calibration_cannot_gate(self):
        line = baseline_of(result("a"))
        line["workloads"]["a"]["calibration_ops_per_s"] = None
        with pytest.raises(SystemExit, match="'a'"):
            compare(line, {"a": [result("a")]})

    def test_tolerance_validated(self, capsys):
        # A usage error (exit 2) from argparse, not a traceback.
        with pytest.raises(SystemExit) as info:
            main(["perf", "compare", "--tolerance", "1.5"])
        assert info.value.code == 2
        assert "must be in [0, 1)" in capsys.readouterr().err


class TestGate:
    """``repro perf compare`` end to end on synthetic directories."""

    NAMES = ("event-stress", "cli-coldstart")

    def recorded(self, tmp_path):
        before = write_results(
            tmp_path / "before", *(result(name) for name in self.NAMES)
        )
        history = str(tmp_path / "history.jsonl")
        assert main(
            ["perf", "baseline", "--current", before, "--out", history,
             "--notes", "synthetic"]
        ) == 0
        return before, history

    def test_recorded_directory_passes_its_own_baseline(
        self, tmp_path, capsys
    ):
        before, history = self.recorded(tmp_path)
        assert main(
            ["perf", "compare", "--current", before, "--baseline", history]
        ) == 0
        assert "PASS" in capsys.readouterr().out

    def test_halved_ops_at_equal_calibration_exits_one(
        self, tmp_path, capsys
    ):
        # The test that proves the gate can fail.
        _before, history = self.recorded(tmp_path)
        after = write_results(
            tmp_path / "after",
            result("event-stress", ops=50.0), result("cli-coldstart"),
        )
        assert main(
            ["perf", "compare", "--current", after, "--baseline", history]
        ) == 1
        out = capsys.readouterr().out
        assert "event-stress: regression" in out
        assert "cli-coldstart: improvement" in out
        assert "FAIL" in out

    def test_the_baseline_is_the_last_line(self, tmp_path):
        _before, history = self.recorded(tmp_path)
        slower = write_results(
            tmp_path / "slower", *(result(n, ops=50.0) for n in self.NAMES)
        )
        compare_slower = [
            "perf", "compare", "--current", slower, "--baseline", history,
        ]
        assert main(compare_slower) == 1
        main(["perf", "baseline", "--current", slower, "--out", history])
        assert main(compare_slower) == 0


class TestBaselineFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        first = baseline_of(result("a"))
        second = recording(
            {"a": [result("a", ops=120.0), result("a", ops=80.0),
                   result("a", ops=110.0)]},
            notes="why",
        )
        append_history(path, first)
        append_history(path, second)
        assert load_history(path) == [first, second]
        entry = second["workloads"]["a"]
        assert entry["runs"] == 3
        assert entry["calibration_ops_per_s"] == pytest.approx(1e7)
        assert entry["metrics"]["ops_per_s"] == 110.0
        # Metrics that do not apply to the workload are absent, not 1.0.
        assert "skew_over_bound_max" not in entry["metrics"]
        assert second["notes"] == "why" and second["date"]
        assert second["environment"] == {"nproc": 2, "python": "3.11.7"}

    def test_malformed_line_names_its_number(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(str(path), baseline_of(result("a")))
        for bad in ("{broken\n", '{"schema": "perf-history/0"}\n',
                    '{"schema": "perf-history/1", "workloads": [1]}\n'):
            path.write_text(path.read_text().splitlines()[0] + "\n" + bad)
            with pytest.raises(SystemExit, match="line 2: malformed"):
                load_history(str(path))

    def test_missing_and_empty_files_are_one_line(self, tmp_path):
        with pytest.raises(SystemExit, match="baseline file not found"):
            load_history(str(tmp_path / "nope.jsonl"))
        (tmp_path / "empty.jsonl").write_text("")
        with pytest.raises(SystemExit, match="no recording"):
            load_history(str(tmp_path / "empty.jsonl"))

    def test_trajectory_has_a_row_per_line_and_workload(self):
        seeded = {
            "schema": "perf-history/1", "date": "2026-09-30",
            "notes": "from prose", "environment": {},
            "workloads": {"a": {"runs": 10, "metrics": {"wall_s": 2.5}}},
        }
        rows = trajectory([seeded, baseline_of(result("a"), result("b"))])
        table = [row for row in rows if row.startswith("| `")]
        assert [row.split(" | ")[:2] for row in table] == [
            ["| `a`", "1"], ["| `a`", "2"], ["| `b`", "2"],
        ]
        assert "| 2.5 |" in table[0] and "—" in table[0]
        assert rows[-2:] == [
            "1. 2026-09-30 — from prose",
            f"2. {baseline_of(result('a'))['date']} — synthetic",
        ]

    def test_committed_history_gates(self):
        # The tracked file loads, and its last line can be a baseline
        # for every workload of the benchmark.
        lines = load_history(
            os.path.join(REPO_ROOT, "results", "perf_history.jsonl")
        )
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
            names = [w["name"] for w in json.load(handle)["workloads"]]
        runs = {name: [result(name)] for name in names}
        verdicts = compare(lines[-1], runs)
        assert sorted(v.name for v in verdicts) == sorted(names)
        assert all(v.ratio is not None for v in verdicts)


class TestOverhead:
    @pytest.fixture
    def fake_runs(self, monkeypatch):
        """``timed_run`` replaced by a table of (wall, pulses, events)."""
        table = {
            ("none", False): (1.0, {0: [1.0, 2.0]}, 100),
            ("none", True): (1.2, {0: [1.0, 2.0]}, 100),
            ("full", False): (1.5, {0: [1.0, 2.0]}, 100),
        }
        monkeypatch.setattr(
            overhead, "timed_run", lambda *variant: table[variant]
        )
        return table

    def test_within_limits_exits_zero(self, fake_runs, capsys):
        assert main(["perf", "overhead"]) == 0
        out = capsys.readouterr().out
        assert "telemetry on / bare: ratio 1.200" in out
        assert "trace full / bare: ratio 1.500" in out

    def test_dropped_pulse_exits_one(self, fake_runs, capsys):
        fake_runs[("none", True)] = (1.2, {0: [1.0]}, 100)
        assert main(["perf", "overhead"]) == 1
        assert "pulses or event count differ" in capsys.readouterr().out

    def test_changed_event_count_exits_one(self, fake_runs):
        fake_runs[("full", False)] = (1.5, {0: [1.0, 2.0]}, 101)
        assert main(["perf", "overhead"]) == 1

    @pytest.mark.parametrize(
        "variant, limit",
        [
            (("none", True), overhead.MAX_TELEMETRY_RATIO),
            (("full", False), overhead.MAX_FULL_TRACE_RATIO),
        ],
    )
    def test_ratio_over_the_constant_exits_one(
        self, fake_runs, capsys, variant, limit
    ):
        fake_runs[variant] = (limit * 1.01, {0: [1.0, 2.0]}, 100)
        assert main(["perf", "overhead"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_real_runs_observe_without_perturbing(self, monkeypatch):
        monkeypatch.setattr(overhead, "REPEATS", 1)
        monkeypatch.setattr(overhead, "PULSES", 12)
        _ok, rows = overhead.overhead_report()  # speed is not asserted
        assert len(rows) == 2
        assert not any("differ" in row for row in rows)
        assert not any(" 0 events" in row for row in rows)


class TestTraceLevels:
    def test_two_names_accepted_others_refused(self):
        assert Trace().full and Trace("full").full
        assert not Trace("none").full
        # "pulses" was a level; bool is an int, ints were levels too.
        for value in ("pulses", "ful", 1, 7, True, False, None):
            with pytest.raises(ValueError) as raised:
                Trace(value)
            assert str(raised.value).endswith(
                "; choose from ['none', 'full']"
            ), value

    def test_refuses_bools_by_name(self):
        # bool is an int: True once meant FULL, and a numbered level
        # would have read it as 1.
        for value in (True, False):
            with pytest.raises(ValueError) as raised:
                Trace(value)
            assert str(raised.value) == (
                f"unknown trace level {value}; choose from ['none', 'full']"
            )

    def test_hints_a_close_name(self):
        with pytest.raises(ValueError) as raised:
            Trace("ful")
        assert str(raised.value) == (
            "unknown trace level 'ful' — did you mean 'full'?; "
            "choose from ['none', 'full']"
        )
        with pytest.raises(ValueError) as raised:
            Trace("verbose")
        assert "did you mean" not in str(raised.value)

    def test_lists_the_choices_for_a_bad_number(self):
        with pytest.raises(ValueError) as raised:
            Trace(7)
        assert str(raised.value) == (
            "unknown trace level 7; choose from ['none', 'full']"
        )

    @pytest.mark.parametrize(
        "backend, kinds",
        [
            (
                "event",
                {
                    "DeliveryRecord",
                    "ProtocolRecord",
                    "PulseRecord",
                    "SendRecord",
                    "TimerRecord",
                },
            ),
            ("vectorized", {"ProtocolRecord", "PulseRecord"}),
        ],
    )
    def test_levels_gate_record_kinds(self, backend, kinds):
        """``full`` keeps every kind the engine emits; ``none`` keeps
        nothing, pulse records included."""
        case = {"n": 4, "theta": 1.001, "d": 1.0, "u": 0.02}

        def kinds_at(level):
            built = build_simulation(case, backend, trace=level)
            outcome = run_pulse_trial(built.simulation, 4, warmup=1)
            assert outcome.result is not None, outcome.error
            return {type(r).__name__ for r in outcome.result.trace.records}

        assert kinds_at("full") == kinds
        assert kinds_at("none") == set()

    @pytest.mark.parametrize("backend", ["event", "vectorized"])
    def test_pulses_level_is_refused_by_the_facade(self, backend):
        case = {"n": 4, "theta": 1.001, "d": 1.0, "u": 0.02}
        for build in (
            lambda: build_simulation(case, backend, trace="pulses"),
            lambda: Trace("pulses"),
        ):
            with pytest.raises(ValueError) as raised:
                build()
            message = str(raised.value)
            assert "'pulses'" in message
            assert "'none'" in message and "'full'" in message

    def test_trace_level_none_matches_full_pulses(self):
        """The fast path is semantics-preserving: under every registry
        adversary of the event engine, pulse times and event counts are
        byte-identical whether or not records are allocated."""
        params = derive_parameters(1.001, 1.0, 0.02, 6)
        faulty = list(range(6 - params.f, 6))

        def run(adversary, level):
            simulation = assemble_cps_simulation(
                params,
                faulty=faulty,
                behavior=scenarios.create("adversary", adversary, params),
                seed=11,
                clocks=scenarios.create("drift", "extreme", params),
                trace=level,
            )
            outcome = run_pulse_trial(simulation, 12, warmup=3)
            assert outcome.result is not None, outcome.error
            return outcome.result

        adversaries = [
            entry.key
            for entry in scenarios.REGISTRY.entries("adversary")
            if "cps" in entry.tags
        ]
        assert {"silent", "replay", "rushing-echo"} <= set(adversaries)
        for adversary in adversaries:
            full = run(adversary, "full")
            none = run(adversary, "none")
            assert none.pulses == full.pulses, adversary
            assert none.events_processed == full.events_processed
            assert none.end_time == full.end_time
            assert none.trace.records == []
            assert full.trace.records


class TestVerifyCache:
    def test_hits_accumulate(self):
        from repro.crypto.pki import PublicKeyInfrastructure
        from repro.crypto.signatures import verify

        clear_verify_cache()
        signature = PublicKeyInfrastructure(2).key_pair(0).sign("m")
        assert verify(signature, 0, "m")
        assert verify(signature, 0, "m")
        assert not verify(signature, 1, "m")
        stats = verify_cache_stats()
        assert stats.hits >= 1
        clear_verify_cache()
        assert verify_cache_stats().hits == 0


class TestCampaignThroughput:
    def test_aggregates_executed_trials(self):
        from repro.campaigns import campaign_throughput, execute_campaign
        from repro.campaigns.spec import (
            CampaignSpec,
            MeasurementSpec,
            ScenarioSpec,
        )

        spec = CampaignSpec(
            name="PERF-T",
            scenarios=(
                ScenarioSpec(
                    builder="cps-run",
                    base={"d": 1.0, "seed": 3, "adversary": "silent"},
                    cases={"*": ({"n": 5, "u": 0.01, "theta": 1.001},)},
                ),
            ),
            measurements={"*": MeasurementSpec(pulses=4, warmup=1)},
        )
        run = execute_campaign(spec, scale="quick")
        assert run.failed == 0
        summary = campaign_throughput(run)
        assert summary["measured"] == 1
        assert summary["events"] > 0
        assert summary["events_per_sec"] > 0
        assert not math.isnan(summary["duration"])
        assert summary["cases"][0]["builder"] == "cps-run"
        assert summary["peak_rss_kib"] > 0

    def test_peak_rss_counts_reaped_children(self, monkeypatch):
        # With --workers N the trials run in pool children; the
        # coordinator's own peak says nothing about them.
        from types import SimpleNamespace

        from repro.campaigns import aggregate

        peaks = {"self": 1000, "children": 5000}
        monkeypatch.setattr(
            aggregate,
            "resource",
            SimpleNamespace(
                RUSAGE_SELF="self",
                RUSAGE_CHILDREN="children",
                getrusage=lambda who: SimpleNamespace(ru_maxrss=peaks[who]),
            ),
        )
        monkeypatch.setattr(aggregate.sys, "platform", "linux")
        assert aggregate.peak_rss_kib() == 5000
        peaks["children"] = 10
        assert aggregate.peak_rss_kib() == 1000
