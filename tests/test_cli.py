"""Tests for the command-line interface."""

import cProfile
import os
import pstats
import re

import pytest

from repro.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The two commands that take the execution flags, on a small input.
EXECUTING = {
    "campaign-run": ["campaign", "run", "E1"],
    "ablate-run": ["ablate", "run"],
}

_ADAPTIVE_FLAGS = (
    ["--adaptive"],
    ["--ci-width", "0.1"],
    ["--ci-metric", "max_skew"],
    ["--ci-confidence", "0.95"],
    ["--min-trials", "2"],
    ["--max-trials", "4"],
)

#: Flags each command no longer has.
REMOVED_FLAGS = {
    "campaign-run": _ADAPTIVE_FLAGS
    + (
        ["--profile"], ["--profile-top", "3"], ["--resume"],
        ["--timeout", "5"], ["--fresh"], ["--chunk-size", "2"],
    ),
    "ablate-run": _ADAPTIVE_FLAGS
    + (["--timeout", "5"], ["--fresh"], ["--chunk-size", "2"]),
}

#: Every command writing an output path, with ``{out}`` for the path.
WRITING = {
    "check-matrix": ["check", "matrix", "--kind", "delay", "--out", "{out}"],
    "ablate-run": ["ablate", "run", "--out", "{out}"],
    "run": ["run", "E2", "--csv", "{out}"],
    "campaign-run": ["campaign", "run", "E2", "--csv", "{out}"],
    "all": ["all", "--out", "{out}"],
    "fuzz-run": ["fuzz", "run", "--budget", "5", "--out", "{out}"],
    "telemetry-aggregate": [
        "telemetry", "aggregate", "--store", ".", "--out", "{out}",
    ],
    "perf-baseline": ["perf", "baseline", "--out", "{out}"],
}


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("E1", "E4", "E7", "A1"):
            assert name in out


class TestRun:
    def test_runs_experiment(self, capsys):
        assert main(["run", "E2"]) == 0
        out = capsys.readouterr().out
        assert "Crusader broadcast" in out

    def test_writes_csv(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "e2.csv")
        assert main(["run", "E2", "--csv", path]) == 0
        assert os.path.exists(path)

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["run", "E99"])


class TestCampaign:
    def test_lists_campaign_catalog(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("E1", "E4", "E5", "E6"):
            assert name in out

    def test_show_describes_grid(self, capsys):
        assert main(["campaign", "show", "E4"]) == 0
        out = capsys.readouterr().out
        assert "cps-run: 6 cases" in out
        assert "spec key" in out

    def test_show_stress_full_prints_each_scenarios_case_count(
        self, capsys
    ):
        # Each scenario's count is read off the plans, not a second
        # grid; the output is the one the grid walk printed.
        assert main(["campaign", "show", "STRESS", "--scale", "full"]) == 0
        assert capsys.readouterr().out == (
            "campaign STRESS [full] — Registry-driven stress scenarios "
            "(adversary x delay x drift x topology)\n"
            "  seed       17\n"
            "  spec key   0e8aea00601d597bbb39e508224835982f441c78458bdd"
            "84331e3b4af6b2abfb\n"
            "  measure    pulses=15 warmup=5 liveness=tabulate\n"
            "  scenario   cps-stress: 120 cases\n"
            "  scenario   cps-stress: 8 cases\n"
            "  trials     128\n"
        )

    def test_run_prints_table_and_summary(self, capsys):
        assert main(["campaign", "run", "E1"]) == 0
        out = capsys.readouterr().out
        assert "APA convergence" in out
        assert "6 executed, 0 cached, 0 failed" in out

    def test_run_with_store_replays_from_cache(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        assert main(["campaign", "run", "E1", "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", "E1", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 6 cached, 0 failed" in out

    def test_unknown_campaign(self):
        with pytest.raises(SystemExit, match="unknown campaign"):
            main(["campaign", "run", "E99"])


class TestParams:
    def test_prints_bounds(self, capsys):
        assert (
            main(
                [
                    "params",
                    "--theta", "1.001",
                    "--d", "1.0",
                    "--u", "0.01",
                    "--n", "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "S (skew bound)" in out
        assert "f=3" in out

    def test_explicit_f(self, capsys):
        assert (
            main(
                [
                    "params",
                    "--theta", "1.001",
                    "--d", "1.0",
                    "--u", "0.01",
                    "--n", "8",
                    "--f", "2",
                ]
            )
            == 0
        )
        assert "f=2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--n", "1", "n >= 2"),
            ("--u", "0.6", "u < d/2"),
            ("--theta", "0.9", "theta must be >= 1"),
            ("--f", "3", "f=3 outside"),
            ("--d", "1e308", "derived S overflowed to inf"),
        ],
    )
    def test_invalid_input_is_a_one_line_exit(self, flag, value, message):
        argv = {"--theta": "1.001", "--d": "1.0", "--u": "0.01", "--n": "4"}
        argv[flag] = value
        with pytest.raises(SystemExit, match=message):
            main(["params", *(x for item in argv.items() for x in item)])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("field", ["theta", "d", "u", "T"])
    def test_non_finite_input_is_a_one_line_exit(self, field, value):
        # NaN fails every range check, so each field is tested for
        # finiteness first; a str exit code is process exit status 1.
        argv = {"--theta": "1.001", "--d": "1.0", "--u": "0.01", "--n": "4"}
        argv[f"--{field}"] = value
        with pytest.raises(SystemExit) as info:
            main(["params", *(x for item in argv.items() for x in item)])
        assert info.value.code == f"{field} must be finite, got {value}"

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestErrorPaths:
    """Unknown names exit cleanly with did-you-mean hints (no
    tracebacks), and missing inputs produce actionable messages."""

    def test_unknown_experiment_suggests_close_match(self):
        with pytest.raises(SystemExit, match="did you mean 'E4'"):
            main(["run", "E44"])

    @pytest.mark.parametrize("command", ["show", "run"])
    def test_unknown_scale_suggests_close_match(self, command):
        with pytest.raises(SystemExit, match="did you mean 'full'"):
            main(["campaign", command, "E4", "--scale", "fulll"])

    @pytest.mark.parametrize("command", ["show", "run"])
    def test_store_that_is_a_file_exits_before_any_trial(
        self, tmp_path, capsys, command
    ):
        path = tmp_path / "notes.txt"
        path.write_text("not a store\n")
        with pytest.raises(SystemExit, match="is not a directory"):
            main(["campaign", command, "E4", "--store", str(path)])
        assert capsys.readouterr().out == ""
        assert path.read_text() == "not a store\n"

    @pytest.mark.parametrize("command", sorted(WRITING))
    def test_output_under_a_file_exits_before_any_work(
        self, tmp_path, capsys, command
    ):
        # The parent is a regular file: one line naming the path, and
        # nothing printed, run or written first.
        parent = tmp_path / "notes.txt"
        parent.write_text("not a directory\n")
        out = str(parent / "out")
        argv = [out if arg == "{out}" else arg for arg in WRITING[command]]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert str(info.value.code).startswith(f"cannot write {out!r}")
        assert "\n" not in str(info.value.code)
        assert capsys.readouterr().out == ""
        assert parent.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["show", "aggregate"])
    def test_torn_telemetry_sidecar_exits_in_one_line(
        self, tmp_path, command
    ):
        torn = tmp_path / "E4.telemetry.json"
        torn.write_text("{")
        argv = {
            "show": ["telemetry", "show", str(torn)],
            "aggregate": ["telemetry", "aggregate", "--store", str(tmp_path)],
        }[command]
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = str(info.value.code)
        assert message.startswith(f"{torn} is not valid JSON: ")
        assert "\n" not in message

    def test_output_that_is_a_directory_exits_before_any_work(
        self, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as info:
            main(["run", "E2", "--csv", str(tmp_path)])
        assert info.value.code == (
            f"cannot write {str(tmp_path)!r}: it is a directory"
        )
        assert capsys.readouterr().out == ""

    def test_output_into_a_missing_directory_makes_it(self, tmp_path, capsys):
        out = tmp_path / "new" / "e2.csv"
        assert main(["run", "E2", "--csv", str(out)]) == 0
        assert "E2" in capsys.readouterr().out
        assert out.read_text().count("\n") > 1

    def test_unknown_campaign_suggests_close_match(self):
        with pytest.raises(SystemExit, match="did you mean 'STRESS'"):
            main(["campaign", "run", "STRES"])

    @pytest.mark.parametrize(
        "argv,meant",
        [
            (["run", "e99"], "E9"),
            (["campaign", "show", "stres"], "STRESS"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list)
        else value,
    )
    def test_campaign_hint_ignores_case_as_lookup_does(self, argv, meant):
        # ``repro run stress`` resolves, so a lowercase near miss gets
        # the same hint as its uppercase spelling.
        with pytest.raises(SystemExit, match=f"did you mean '{meant}'"):
            main(argv)
        with pytest.raises(SystemExit, match=f"did you mean '{meant}'"):
            main([*argv[:-1], argv[-1].upper()])

    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command, flags in REMOVED_FLAGS.items()
            for flag in flags
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_removed_flag_is_refused(self, capsys, command, flag):
        # Adaptive sampling, per-trial --profile and --timeout, the
        # no-op --resume, --fresh and --chunk-size are gone: a script
        # still passing one fails loudly in the parser instead of
        # running something else.
        with pytest.raises(SystemExit) as info:
            main(EXECUTING[command] + flag)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in (
            capsys.readouterr().err
        )

    def test_unknown_campaign_show(self):
        with pytest.raises(SystemExit, match="unknown campaign"):
            main(["campaign", "show", "E99"])

    def test_perf_compare_missing_baseline(self, tmp_path):
        missing = os.path.join(tmp_path, "nope.json")
        with pytest.raises(SystemExit, match="baseline file not found"):
            main(["perf", "compare", "--baseline", missing])

    def test_unknown_scenario_show_suggests_close_match(self):
        with pytest.raises(SystemExit, match="did you mean"):
            main(["scenarios", "show", "eclips"])

    def test_check_run_unknown_scenario_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "run", "no-such-scenario-at-all"])
        assert excinfo.value.code != 0


class TestChurnErrorPaths:
    """Unknown churn profiles and malformed fault schedules exit
    cleanly and non-zero — never with a traceback."""

    def test_unknown_churn_profile_did_you_mean(self):
        with pytest.raises(
            SystemExit, match="did you mean 'single-crash'"
        ) as excinfo:
            main(["check", "run", "single-crsh", "--kind", "churn"])
        assert excinfo.value.code != 0

    def test_scenarios_show_unknown_churn_profile(self):
        with pytest.raises(
            SystemExit, match="did you mean 'flapping-node'"
        ) as excinfo:
            main(["scenarios", "show", "churn:flapping-nod"])
        assert excinfo.value.code != 0

    def test_malformed_schedule_is_tabulated_not_raised(self, capsys):
        # A factory override producing an invalid schedule fails the
        # conformance run (exit 1) with the validation error in the
        # report — no traceback.
        code = main(
            [
                "check", "run", "single-crash", "--kind", "churn",
                "--param", "node=99",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "MalformedScheduleError" in out
        assert "outside the system" in out

    def test_unknown_factory_param_is_tabulated(self, capsys):
        code = main(
            [
                "check", "run", "flapping-node", "--kind", "churn",
                "--param", "bogus=1",
            ]
        )
        assert code == 1
        assert "unexpected keyword" in capsys.readouterr().out

    def test_bad_param_syntax(self):
        with pytest.raises(SystemExit, match="key=value"):
            main(
                [
                    "check", "run", "single-crash", "--kind", "churn",
                    "--param", "nodeless",
                ]
            )

    def test_main_converts_malformed_schedule_errors(self, capsys):
        # A schedule error escaping a handler (here: forced through a
        # campaign whose case names an invalid churn override) becomes
        # a clean SystemExit via the main() wrapper.
        from repro.cli import main as cli_main
        from repro.dynamics import MalformedScheduleError

        def handler(_args):
            raise MalformedScheduleError("synthetic failure")

        import repro.cli as cli_module

        parser = cli_module.build_parser()
        args = parser.parse_args(["check", "list"])
        args.handler = handler
        import unittest.mock as mock

        with mock.patch.object(
            cli_module, "build_parser"
        ) as fake_parser:
            fake_parser.return_value.parse_args.return_value = args
            with pytest.raises(
                SystemExit, match="malformed fault schedule"
            ) as excinfo:
                cli_main(["check", "list"])
        assert excinfo.value.code != 0


class TestChurnCli:
    def test_scenarios_list_includes_churn_kind(self, capsys):
        assert main(["scenarios", "list", "--kind", "churn"]) == 0
        out = capsys.readouterr().out
        for key in ("single-crash", "late-join-cohort",
                    "adversary-handoff"):
            assert key in out

    def test_check_run_churn_profile_passes(self, capsys):
        assert main(["check", "run", "single-crash"]) == 0
        out = capsys.readouterr().out
        assert "stabilization" in out
        assert "[churn]" in out

    def test_check_fixture_churn_fires(self, capsys):
        fixture = os.path.join(
            ROOT, "results", "fuzz", "promoted", "fuzz-ad402acf2e439286.json"
        )
        assert main(["check", "fixture", "--fixture", fixture]) == 0
        out = capsys.readouterr().out
        assert "never occurred" in out
        assert "monitors fire" in out

    def test_campaign_run_churn_stress(self, capsys):
        assert main(["campaign", "run", "CHURN-STRESS"]) == 0
        out = capsys.readouterr().out
        assert "fault schedules" in out
        assert "0 failed" in out


class TestTelemetryCli:
    def _sidecar(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        assert (
            main(
                [
                    "campaign", "run", "E4", "--telemetry",
                    "--store", store,
                ]
            )
            == 0
        )
        capsys.readouterr()
        return store

    def test_list_prints_catalog(self, capsys):
        assert main(["telemetry", "list"]) == 0
        out = capsys.readouterr().out
        assert "events.dispatched.delivery" in out
        assert "tcb.echoes" in out

    def test_campaign_run_writes_sidecar_and_shows_it(
        self, tmp_path, capsys
    ):
        store = self._sidecar(tmp_path, capsys)
        sidecars = [
            name
            for name in os.listdir(store)
            if name.endswith(".telemetry.json")
        ]
        assert len(sidecars) == 1
        assert (
            main(["telemetry", "show", "E4", "--store", store]) == 0
        )
        out = capsys.readouterr().out
        assert "6/6 trials instrumented" in out
        assert "pulses.recorded" in out
        # A direct path works without --store.
        path = os.path.join(store, sidecars[0])
        assert main(["telemetry", "show", path]) == 0

    def test_aggregate_and_diff(self, tmp_path, capsys):
        store = self._sidecar(tmp_path, capsys)
        out_path = os.path.join(tmp_path, "aggregate.json")
        assert (
            main(
                [
                    "telemetry", "aggregate", "--store", store,
                    "--out", out_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 sidecar(s)" in out
        assert os.path.exists(out_path)
        assert (
            main(
                [
                    "telemetry", "diff", "E4", "E4", "--store", store,
                    "--changed-only",
                ]
            )
            == 0
        )
        assert "no matching metrics" in capsys.readouterr().out

    def test_progress_heartbeats_go_to_stderr(self, capsys):
        assert main(["campaign", "run", "E4", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[E4/quick]" in captured.err
        assert "done:" in captured.err
        assert "[E4/quick]" not in captured.out

    def test_stdlib_profiler_covers_a_campaign_run(self, tmp_path, capsys):
        # `python -m cProfile -o out.prof -m repro campaign run X` is
        # the profiler: one profile of the whole run, engine included.
        profiler = cProfile.Profile()
        assert profiler.runcall(main, ["campaign", "run", "E4"]) == 0
        path = str(tmp_path / "out.prof")
        profiler.dump_stats(path)
        files = {filename for filename, _, _ in pstats.Stats(path).stats}
        scheduler = os.path.join("repro", "sim", "scheduler.py")
        assert any(name.endswith(scheduler) for name in files)
        assert "0 failed" in capsys.readouterr().out

    def test_diff_accepts_a_metric_only_one_side_recorded(
        self, tmp_path, capsys
    ):
        # E4 runs no churn, so its sidecar has no dynamics.* names; a
        # diff validates --metric against both sides, whichever is left.
        store = self._sidecar(tmp_path, capsys)
        run = ["campaign", "run", "CHURN-STRESS", "--telemetry"]
        assert main(run + ["--store", store]) == 0
        capsys.readouterr()
        metric = ["--store", store, "--metric", "dynamics.applied.crash"]
        for a, b, row in (
            ("E4", "CHURN-STRESS", r"\b0\s+7\s+\+7$"),
            ("CHURN-STRESS", "E4", r"\b7\s+0\s+-7$"),
        ):
            assert main(["telemetry", "diff", a, b, *metric]) == 0
            out = capsys.readouterr().out
            assert re.search(row, out, re.MULTILINE), out

    def test_unknown_campaign_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown campaign") as info:
            main(
                [
                    "telemetry", "show", "E44",
                    "--store", str(tmp_path),
                ]
            )
        assert info.value.code != 0

    def test_unknown_metric_did_you_mean(self, tmp_path, capsys):
        store = self._sidecar(tmp_path, capsys)
        with pytest.raises(
            SystemExit, match="did you mean 'tcb.echoes'"
        ) as info:
            main(
                [
                    "telemetry", "show", "E4", "--store", store,
                    "--metric", "tcb.echos",
                ]
            )
        assert info.value.code != 0

    def test_missing_sidecar_suggests_the_run_command(self, tmp_path):
        with pytest.raises(
            SystemExit, match="no telemetry sidecar"
        ) as info:
            main(
                [
                    "telemetry", "show", "E4",
                    "--store", str(tmp_path),
                ]
            )
        assert info.value.code != 0

    def test_show_requires_store_or_path(self):
        with pytest.raises(SystemExit, match="--store is required"):
            main(["telemetry", "show", "E4"])


class TestScalingCli:
    def test_queue_requires_store(self):
        with pytest.raises(SystemExit, match="--queue requires"):
            main(["campaign", "run", "E1", "--queue", "/tmp/q"])

    @pytest.mark.parametrize(
        "flag,message",
        [
            (["--workers", "-3"], "workers must be >= 1"),
            (["--workers", "0"], "workers must be >= 1"),
        ],
        ids=["workers", "workers-zero"],
    )
    @pytest.mark.parametrize("command", sorted(EXECUTING))
    def test_bad_execution_flag_exits_with_one_line(
        self, command, flag, message
    ):
        # Both commands reach the engine through execute_or_exit, so a
        # bad flag value is the same one-line exit, never a traceback.
        with pytest.raises(SystemExit, match=message) as info:
            main(EXECUTING[command] + flag)
        assert "\n" not in str(info.value.code)

    @pytest.mark.parametrize(
        "flag,message",
        [
            (["--max-chunks", "0"], "max_chunks must be >= 1, got 0"),
            (["--max-chunks", "-1"], "max_chunks must be >= 1, got -1"),
            (["--lease-ttl", "0"], "lease_ttl must be positive, got 0.0"),
            (["--lease-ttl", "-5"], "lease_ttl must be positive, got -5"),
        ],
        ids=["chunks-zero", "chunks-negative", "ttl-zero", "ttl-negative"],
    )
    def test_bad_worker_flag_exits_before_a_claim(
        self, tmp_path, flag, message
    ):
        queue = os.path.join(tmp_path, "q")
        assert main(["campaign", "enqueue", "E1", "--queue", queue]) == 0
        worker = ["campaign", "worker", "--queue", queue, "--store"]
        with pytest.raises(SystemExit, match=message) as info:
            main(worker + [os.path.join(tmp_path, "store")] + flag)
        assert "\n" not in str(info.value.code)
        assert not [
            name for name in os.listdir(queue)
            if name.endswith((".claim", ".done"))
        ]

    def test_worker_without_enqueue_exits(self, tmp_path):
        store = os.path.join(tmp_path, "store")
        queue = os.path.join(tmp_path, "q")
        args = ["campaign", "worker", "--queue", queue]
        with pytest.raises(SystemExit, match="no campaign enqueued"):
            main(args + ["--store", store])

    def test_store_list_empty_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no result stores"):
            main(["store", "list", "--store", str(tmp_path)])

    def test_enqueue_worker_merge_round_trip(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        queue = os.path.join(tmp_path, "q")
        enqueue = ["campaign", "enqueue", "E1", "--queue", queue]
        assert main(enqueue + ["--chunk-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "enqueued campaign E1 [quick]: 6/6 trials" in out
        assert "3 chunks" in out
        worker = ["campaign", "worker", "--queue", queue]
        worker += ["--store", store, "--worker-id", "w1"]
        assert main(worker) == 0
        out = capsys.readouterr().out
        assert "worker w1: 3 chunks — 6 trials executed" in out
        assert main(["store", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "6 record(s) (1 shard(s): w1)" in out
        assert main(["store", "merge", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "merged 1 shard(s)" in out
        assert "6 record(s), 0 superseded" in out
        # The merged store replays as a pure cache hit.
        assert main(["campaign", "run", "E1", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 6 cached" in out

    def test_enqueue_with_store_skips_cached(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        queue = os.path.join(tmp_path, "q")
        assert main(["campaign", "run", "E1", "--store", store]) == 0
        capsys.readouterr()
        enqueue = ["campaign", "enqueue", "E1", "--queue", queue]
        assert main(enqueue + ["--store", store]) == 0
        out = capsys.readouterr().out
        assert "0/6 trials in 0 chunks" in out

    def test_reenqueue_same_queue_exits(self, tmp_path, capsys):
        # Rewritten: publishing is idempotent per case key, so the
        # same campaign again adds nothing; a *different* campaign or
        # scale in the directory still exits with the one-line error.
        queue = os.path.join(tmp_path, "q")
        enqueue = ["campaign", "enqueue", "E1", "--queue", queue]
        assert main(enqueue) == 0
        first = capsys.readouterr().out
        assert "6/6 trials in 2 chunks" in first
        assert main(enqueue) == 0
        assert capsys.readouterr().out == first
        assert len(os.listdir(queue)) == 3  # manifest + two chunks
        for other in (["E4"], ["E1", "--scale", "full"]):
            with pytest.raises(
                SystemExit, match=r"holds campaign 'E1' \[quick\]"
            ):
                main(["campaign", "enqueue", *other, "--queue", queue])

    def test_store_compact_reports_counts(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        assert main(["campaign", "run", "E1", "--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "compact", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "compacted — 6 record(s) kept, 0 line(s) dropped" in out
