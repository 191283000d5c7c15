"""Smoke tests of the benchmark itself, at ``--smoke`` scale.

No timing is asserted anywhere: the suite must stay green on a noisy
runner.  What is checked is the shape of the instrument — names,
units, output checks, the span tree, and that tracing cleans up.
"""

import json
import subprocess
import sys

import pytest

from bench import compare, measure, trace
from bench.layers import END_TO_END, LAYER_METRICS, applies
from bench.workloads import REFERENCE, ROOT, WORKLOADS

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [entry["name"] for entry in CONTRACT["workloads"]]


def test_contract_lists_exactly_what_the_code_measures():
    assert NAMES == list(WORKLOADS)
    assert CONTRACT["end_to_end"] == [
        {key: row[key] for key in ("name", "unit", "better", "bound")}
        for row in END_TO_END.values()
    ]
    assert CONTRACT["per_layer"] == [
        {key: row[key] for key in ("name", "unit", "better")}
        for row in LAYER_METRICS.values()
    ]
    assert CONTRACT["command"] == ["python3", "-m", "bench"]


def test_metric_table_names_only_known_workloads_and_metrics():
    assert len(END_TO_END) == 10
    for row in END_TO_END.values():
        assert set(row["workloads"]) <= set(NAMES)
        assert ("elsewhere" in row) == (set(row["workloads"]) != set(NAMES))
    for row in LAYER_METRICS.values():
        for metric, workloads in row["moves"].items():
            assert set(workloads) <= set(NAMES)
            assert all(applies(metric, w) for w in workloads)


def test_readme_glossary_names_every_workload_and_metric():
    text = (ROOT / "bench" / "README.md").read_text()
    for name in [*NAMES, *END_TO_END, *LAYER_METRICS]:
        assert f"`{name}`" in text, name


def test_reference_digests_are_committed_for_both_seeds():
    for name in NAMES:
        for seed in (0, 1):
            path = REFERENCE / f"{name}.seed{seed}.json"
            payload = json.loads(path.read_text())
            assert payload["workload"] == name and payload["digests"]


@pytest.mark.parametrize("name", NAMES)
def test_untraced_smoke_run(name):
    result = measure.run_untraced(name, seed=0, seconds=0.0, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["reported"]["failed_share"] == 0
    assert result["reported"]["mismatch_share"] == 0
    assert list(result["metrics"]) == list(END_TO_END)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[key]["unit"]
        assert metric["value"] > 0
    assert result["not_applicable"] == [
        key for key in END_TO_END if not applies(key, name)
    ]
    assert {"nproc", "python", "numpy", "networkx", "loadavg_1m"} <= set(
        result["environment"]
    )
    assert set(result["calibration_ops_per_s"]) == {"before", "after"}
    assert isinstance(result["noisy"], bool)
    line = json.loads(measure.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke_run(name, tmp_path):
    result = trace.run_traced(name, 0, 0.0, True, str(tmp_path))
    assert trace.installed_wrappers() == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(LAYER_METRICS)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == LAYER_METRICS[key]["unit"]
    assert result["reported"]["self_share_sum"] == pytest.approx(
        1.0, abs=0.02
    )

    payload = json.loads((tmp_path / f"TRACE_{name}.json").read_text())
    spans = payload["spans"]
    assert [s["id"] for s in spans] == list(range(len(spans)))
    assert [s["id"] for s in spans if s["parent"] is None] == [0]
    for span in spans[1:]:
        parent = spans[span["parent"]]
        assert parent["id"] < span["id"]
        assert parent["start"] <= span["start"] <= span["end"]
        assert span["end"] <= parent["end"]
        if parent["op"] is not None:
            assert span["op"] == parent["op"]
    assert all(value >= -1e-9 for value in payload["self_s"].values())


def test_driver_form_prints_the_contract_line_last():
    done = subprocess.run(
        [
            sys.executable, "-m", "bench", "--workload", "event-stress",
            "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke",
        ],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(END_TO_END)


def test_smoke_digests_never_become_the_reference(capsys):
    from bench.__main__ import main

    with pytest.raises(SystemExit) as exit_:
        main(["--workload", "event-stress", "--smoke", "--write-reference"])
    assert exit_.value.code == 2 and "--smoke" in capsys.readouterr().err


def test_compare_applies_the_pairing_rule():
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in steady]
    slower = [v * 1.3 for v in steady]
    wide = [8.0, 12.0, 9.0, 11.0, 7.0, 13.0, 10.0, 9.5, 10.5, 12.5]

    def label(parent, change, noisy=False):
        return compare.verdict(parent, change, "lower", 0.1, noisy)[0]

    assert label(steady, faster) == "improved"
    assert label(steady, slower) == "regressed"
    assert label(steady, steady) == "unchanged"
    assert label(wide, wide[::-1]) == "unresolved"
    assert label(steady[:5], faster[:5]) == "unresolved"
    assert label(steady, faster, noisy=True) == "unresolved"
    # A parent spread wider than the bound hides even a worse median.
    assert label(wide, [v * 1.3 for v in wide[::-1]]) == "unresolved"
    # Inside the bound, but every pair lost by more than the parent's own
    # spread: the mirror of `improved`.
    worse = [v * 1.05 for v in steady]
    assert compare.verdict(steady, worse, "lower", 0.25, False)[0] == (
        "regressed"
    )


def _result(workload, wall, failed=0, mismatch_share=0.0, correct=True):
    metrics = {
        name: {"value": 1.0, "unit": row["unit"]}
        for name, row in END_TO_END.items()
    }
    metrics["wall_s"]["value"] = wall
    return {
        "workload": workload, "trace": 0, "noisy": False,
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": metrics, "reported": {"mismatch_share": mismatch_share},
    }


def test_compare_gives_a_failing_change_no_credit(tmp_path):
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    sides = {
        "parent": [_result("event-stress", v) for v in steady],
        # Faster because it fails: one op lost in one run.
        "fails": [
            _result("event-stress", v * 0.8, failed=int(k == 3),
                    correct=k != 3)
            for k, v in enumerate(steady)
        ],
        "mismatches": [
            _result("event-stress", v * 0.8, mismatch_share=0.01,
                    correct=False)
            for v in steady
        ],
        "faster": [_result("event-stress", v * 0.8) for v in steady],
    }
    for side, results in sides.items():
        for k, result in enumerate(results):
            path = tmp_path / side / f"RESULT_event-stress.{k:03d}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(result))

    def wall_verdict(change):
        rows = compare.compare(
            str(tmp_path / "parent"), str(tmp_path / change), CONTRACT
        )
        assert [row["metric"] for row in rows] == list(END_TO_END)
        return next(r["verdict"] for r in rows if r["metric"] == "wall_s")

    assert wall_verdict("faster") == "improved"
    assert wall_verdict("fails") == "unresolved"
    assert wall_verdict("mismatches") == "unresolved"


def test_compare_skips_metrics_that_do_not_apply(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        for k in range(10):
            (tmp_path / side / f"RESULT_cli-coldstart.{k:03d}.json"
             ).write_text(json.dumps(_result("cli-coldstart", 1.0 + k)))
    rows = compare.compare(
        str(tmp_path / "a"), str(tmp_path / "b"), CONTRACT
    )
    assert [row["metric"] for row in rows] == [
        name for name in END_TO_END if applies(name, "cli-coldstart")
    ]
