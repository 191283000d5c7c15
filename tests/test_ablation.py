"""Tests for the protocol ablation engine.

The guarantees under test:

* the component catalog and the build facade's toggle registry are the
  same set, and unknown names fail loudly with did-you-mean hints at
  both the resolver and CLI layers;
* plan expansion is a pure function of the spec — stable row order,
  stable content-addressed case keys, baseline rows indistinguishable
  (hash-wise) from the same scenarios elsewhere in the repo;
* execution is worker-count independent: the serial and process-pool
  matrices aggregate to byte-identical importance payloads (the
  committed ``results/ablation.json`` contract);
* the headline semantics hold on a real cell: ablating ``tcb-filter``
  flips the ``progress`` monitor from PASS to FAIL and the run
  deadlocks, while its baseline passes everything.
"""

import json
import os

import pytest

from repro.ablation import (
    ABLATION_CAMPAIGN_NAME,
    ABLATION_SEED,
    COMPONENT_INDEX,
    COMPONENTS,
    AblationSpec,
    ablation_campaign_spec,
    ablation_payload_bytes,
    ablation_report,
    monitor_flips,
    planned_runs,
    planned_trials,
    render_ablation_table,
)
from repro.build import (
    ABLATABLE_COMPONENTS,
    UnknownBackendError,
    UnknownComponentError,
    resolve_ablation,
    resolve_backend,
)
from repro.campaigns import ExecutionPolicy, execute_campaign
from repro.cli import main


# A single-component spec keeps execution tests at two quick trials
# (n = 6, 10 pulses) instead of the full twelve-row matrix.
TCB_ONLY = AblationSpec(components=("tcb-filter",))


class TestCatalog:
    def test_catalog_matches_build_registry(self):
        assert tuple(c.name for c in COMPONENTS) == ABLATABLE_COMPONENTS

    def test_catalog_is_sorted_and_indexed(self):
        names = [c.name for c in COMPONENTS]
        assert names == sorted(names)
        assert set(COMPONENT_INDEX) == set(names)

    def test_challenge_cases_never_carry_ablate(self):
        for component in COMPONENTS:
            assert "ablate" not in component.challenge
            assert "ablate" not in component.baseline_case()
            assert component.ablated_case()["ablate"] == [
                component.name
            ]


class TestResolveAblation:
    def test_canonicalizes_to_sorted_dedup_tuple(self):
        assert resolve_ablation(
            ["tcb-filter", "apa", "apa"]
        ) == ("apa", "tcb-filter")

    def test_none_and_empty_resolve_to_nothing(self):
        assert resolve_ablation(None) == ()
        assert resolve_ablation(()) == ()

    def test_unknown_component_gets_did_you_mean(self):
        with pytest.raises(
            UnknownComponentError, match="did you mean 'signatures'"
        ):
            resolve_ablation(["signatuers"])

    def test_backend_resolver_redirects_toggle_names(self):
        with pytest.raises(
            UnknownBackendError, match="ablation component"
        ):
            resolve_backend("apa")


class TestPlan:
    def test_default_spec_is_baseline_plus_one_off(self):
        runs = planned_runs(AblationSpec())
        assert len(runs) == 2 * len(ABLATABLE_COMPONENTS)
        for baseline, ablated in zip(runs[::2], runs[1::2]):
            assert baseline.component == ablated.component
            assert baseline.variant == "baseline"
            assert ablated.variant == f"{ablated.component}=off"
            assert "ablate" not in baseline.case

    def test_pairwise_extends_with_both_members_challenges(self):
        spec = AblationSpec(
            components=("apa", "tcb-filter"), pairwise=True
        )
        runs = planned_runs(spec)
        # 2 components x (baseline + one-off) + 1 pair x 2 owners.
        assert len(runs) == 6
        pair_rows = [run for run in runs if len(run.ablate) == 2]
        assert [run.component for run in pair_rows] == [
            "apa",
            "tcb-filter",
        ]
        for run in pair_rows:
            assert run.ablate == ("apa", "tcb-filter")
            assert run.case["ablate"] == ["apa", "tcb-filter"]

    def test_case_keys_are_stable_across_expansions(self):
        first = [
            plan.case_key
            for _, plan in planned_trials(AblationSpec(), "quick")
        ]
        second = [
            plan.case_key
            for _, plan in planned_trials(AblationSpec(), "quick")
        ]
        assert first == second
        assert len(set(first)) == len(first)

    def test_baseline_rows_hash_like_plain_scenarios(self):
        # The baseline case dicts carry no ablate key, so their content
        # hash is indistinguishable from the same scenario in any other
        # campaign — cache hits across campaigns stay possible.
        for run, plan in planned_trials(AblationSpec(), "quick"):
            if not run.ablate:
                assert "ablate" not in plan.case

    def test_campaign_spec_identity(self):
        spec = ablation_campaign_spec(AblationSpec())
        assert spec.name == ABLATION_CAMPAIGN_NAME
        assert spec.seed == ABLATION_SEED
        assert set(spec.measurements) == {"quick", "full"}


class TestMonitorFlips:
    def test_pass_to_fail_flips(self):
        baseline = {"monitors": {"skew": True, "progress": True}}
        ablated = {"monitors": {"skew": False, "progress": True}}
        assert monitor_flips(baseline, ablated) == ["skew"]

    def test_fail_at_baseline_never_counts(self):
        baseline = {"monitors": {"skew": False}}
        ablated = {"monitors": {"skew": False}}
        assert monitor_flips(baseline, ablated) == []

    def test_errored_ablated_run_fails_missing_monitors(self):
        baseline = {"monitors": {"skew": True, "progress": True}}
        ablated = {"monitors": {}, "error": "boom"}
        assert monitor_flips(baseline, ablated) == [
            "progress",
            "skew",
        ]


class TestExecution:
    def _run(self, workers):
        spec = ablation_campaign_spec(TCB_ONLY)
        policy = ExecutionPolicy(workers=workers)
        return execute_campaign(spec, scale="quick", policy=policy)

    def test_tcb_filter_flips_progress_and_deadlocks(self):
        payload = ablation_report(TCB_ONLY, self._run(1))
        (entry,) = payload["components"]
        assert entry["component"] == "tcb-filter"
        assert entry["baseline"]["live"]
        assert all(entry["baseline"]["monitors"].values())
        assert "progress" in entry["monitor_flips"]
        assert entry["important"]
        assert not entry["ablated"]["live"]
        assert entry["ablated"]["max_skew"] is None

    def test_payload_is_worker_count_independent(self):
        serial = ablation_payload_bytes(
            ablation_report(TCB_ONLY, self._run(1))
        )
        pooled = ablation_payload_bytes(
            ablation_report(TCB_ONLY, self._run(2))
        )
        assert serial == pooled
        # And byte-stable: the artifact contract is exact equality.
        assert serial.endswith(b"\n")
        json.loads(serial)

    def test_render_table_covers_every_component(self):
        payload = ablation_report(TCB_ONLY, self._run(1))
        table = render_ablation_table(payload)
        rendered = str(table)
        assert "tcb-filter" in rendered
        assert "progress" in rendered


class TestCommittedArtifact:
    ARTIFACT = os.path.join(
        os.path.dirname(__file__), "..", "results", "ablation.json"
    )

    def test_committed_payload_shape(self):
        with open(self.ARTIFACT, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["campaign"] == ABLATION_CAMPAIGN_NAME
        assert payload["seed"] == ABLATION_SEED
        names = [
            entry["component"] for entry in payload["components"]
        ]
        assert names == list(ABLATABLE_COMPONENTS)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quick_matrix_reproduces_the_committed_bytes(
        self, workers, tmp_path, capsys
    ):
        # The whole quick matrix, serial and pooled: regenerating the
        # artifact must rewrite it byte for byte.
        out_path = tmp_path / "ablation.json"
        argv = ["ablate", "run", "--workers", str(workers)]
        assert main([*argv, "--out", str(out_path)]) == 0
        capsys.readouterr()
        with open(self.ARTIFACT, "rb") as handle:
            assert out_path.read_bytes() == handle.read()


class TestTableNote:
    """The note under the importance table reports the baselines that
    fail, from the payload's verdicts, not as fixed text."""

    @staticmethod
    def payload():
        with open(TestCommittedArtifact.ARTIFACT, encoding="utf-8") as f:
            return json.load(f)

    def test_passing_baselines_read_none_do(self):
        (note,) = render_ablation_table(self.payload()).notes
        assert note.endswith("challenge (none do).")

    def test_a_failing_baseline_is_named(self):
        payload = self.payload()
        apa, resync = (
            entry
            for entry in payload["components"]
            if entry["component"] in ("apa", "resync")
        )
        apa["baseline"]["monitors"]["skew"] = False
        resync["baseline"]["error"] = "SimulationError: boom"
        (note,) = render_ablation_table(payload).notes
        assert note.endswith(
            "challenge (the apa baseline fails skew; the resync "
            "baseline raised SimulationError: boom)."
        )


class TestCli:
    def test_plan_lists_rows_without_executing(self, capsys):
        assert main(["ablate", "plan"]) == 0
        out = capsys.readouterr().out
        assert "tcb-filter/baseline" in out
        assert "tcb-filter/tcb-filter=off" in out
        assert "spec key" in out

    def test_unknown_component_exits_with_hint(self, capsys):
        with pytest.raises(
            SystemExit, match="did you mean 'signatures'"
        ):
            main(["ablate", "plan", "--component", "signatuers"])

    def test_run_writes_payload_and_prints_table(
        self, tmp_path, capsys
    ):
        out_path = os.path.join(tmp_path, "ablation.json")
        assert (
            main(
                [
                    "ablate",
                    "run",
                    "--component",
                    "tcb-filter",
                    "--out",
                    out_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tcb-filter" in out
        with open(out_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["components"][0]["monitor_flips"]

    def test_report_renders_from_artifact_only(
        self, tmp_path, capsys
    ):
        out_path = os.path.join(tmp_path, "ablation.json")
        main(
            [
                "ablate",
                "run",
                "--component",
                "tcb-filter",
                "--out",
                out_path,
            ]
        )
        capsys.readouterr()
        assert main(["ablate", "report", "--path", out_path]) == 0
        out = capsys.readouterr().out
        assert "tcb-filter" in out

    def test_filtered_run_keeps_the_committed_artifact(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        os.makedirs("results")
        committed = os.path.join("results", "ablation.json")
        with open(committed, "w", encoding="utf-8") as handle:
            handle.write("committed\n")
        assert main(["ablate", "run", "--component", "tcb-filter"]) == 0
        out = capsys.readouterr().out
        assert "pass --out explicitly" in out
        with open(committed, encoding="utf-8") as handle:
            assert handle.read() == "committed\n"

    def test_report_missing_artifact_hints_at_run(self, tmp_path):
        missing = os.path.join(tmp_path, "nope.json")
        with pytest.raises(SystemExit, match="repro ablate run"):
            main(["ablate", "report", "--path", missing])

    @pytest.mark.parametrize(
        "content, message",
        [
            ("not json\n", "is not valid JSON: Expecting value"),
            (None, "cannot be read"),  # the path is a directory
            ("{}\n", "is not an ablation artifact (KeyError: 'scale')"),
        ],
    )
    def test_report_of_a_bad_artifact_exits_in_one_line(
        self, tmp_path, content, message
    ):
        path = tmp_path
        if content is not None:
            path = tmp_path / "artifact.json"
            path.write_text(content, encoding="utf-8")
        with pytest.raises(SystemExit) as raised:
            main(["ablate", "report", "--path", str(path)])
        text = raised.value.code
        assert text.startswith(f"{path} {message}") and "\n" not in text

    def test_scenarios_show_renders_churn_schedule(self, capsys):
        assert (
            main(["scenarios", "show", "crash-recover-wave"]) == 0
        )
        out = capsys.readouterr().out
        assert "schedule" in out
        assert "node" in out
