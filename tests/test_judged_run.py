"""``judged_run`` parity: the fold changed no verdict and no pulse.

``tests/data/judged_run_parity.json`` was dumped at the parent commit
— where build → attach the check set → run → finish was written out
six times (two conformance runners, the fuzz oracle, two fixture
builders, the ablation builder) — and every entry is re-derived here
through the one function that replaced them, byte for byte.
"""

import glob
import json
import os

import pytest

from repro.checks import judged_run, run_fixture, scenario_case
from repro.fuzz import load_fixture, replay_fixture

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(
    os.path.join(ROOT, "tests", "data", "judged_run_parity.json")
) as _handle:
    PARITY = json.load(_handle)

CORPUS = sorted(
    glob.glob(os.path.join(ROOT, "results", "fuzz", "corpus", "*.json"))
)


def _entry_bytes(entry):
    return json.dumps(entry, indent=1, sort_keys=True).encode()


def _run_bytes(run):
    return _entry_bytes(
        {
            "verdicts": [v.as_dict() for v in run.verdicts],
            "pulses": {
                str(node): times
                for node, times in sorted(run.result.pulses.items())
            },
            "events": run.result.events_processed,
        }
    )


@pytest.mark.parametrize(
    "key,name,seed",
    [
        ("fixture:broken", "broken", None),
        ("fixture:churn", "churn", None),
        # `repro check fixture` passes its own --seed (default 2).
        ("fixture:churn@seed2", "churn", 2),
    ],
)
def test_fixtures_match_the_parent(key, name, seed):
    run = run_fixture(name, seed=seed)
    assert _run_bytes(run) == _entry_bytes(PARITY[key])
    assert run.violations()


def test_corpus_replays_match_the_parent():
    assert len(CORPUS) == 3
    for path in CORPUS:
        payload = load_fixture(path)
        run = replay_fixture(payload)
        assert _run_bytes(run) == _entry_bytes(
            PARITY[f"corpus:{payload['fixture_id']}"]
        ), path


@pytest.mark.parametrize("level", ["pulses", "full"])
def test_conformance_sample_matches_the_parent(level):
    sample = sorted(k for k in PARITY if k.endswith(f"@{level}"))
    assert len(sample) == 5
    for key in sample:
        _, kind, scenario, seed = key.rsplit("@", 1)[0].split(":")
        run = judged_run(
            scenario_case(kind, scenario),
            pulses=6,
            seed=int(seed),
            trace=level,
        )
        assert _run_bytes(run) == _entry_bytes(PARITY[key]), key
