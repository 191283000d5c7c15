"""``judged_run`` parity: the fold changed no verdict and no pulse.

``tests/data/judged_run_parity.json`` was dumped at the parent commit
— where build → attach the check set → run → finish was written out
six times (two conformance runners, the fuzz oracle, two fixture
builders, the ablation builder) — and every entry is re-derived here
through the one function that replaced them, byte for byte.  The
``fixture:broken`` entry comes from its fixture file; the two
``fixture:churn`` entries from a run built by hand, because their
monitor watches a schedule the run does not execute.
"""

import glob
import json
import os

import pytest

from repro.build import build_simulation
from repro.checks import churn_check_set, judged_run, scenario_case
from repro.dynamics import FaultEvent, FaultSchedule
from repro.fuzz import load_fixture, replay_fixture

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(
    os.path.join(ROOT, "tests", "data", "judged_run_parity.json")
) as _handle:
    PARITY = json.load(_handle)

CORPUS = sorted(
    glob.glob(os.path.join(ROOT, "results", "fuzz", "corpus", "*.json"))
)
BROKEN_FIXTURE = os.path.join(
    ROOT, "results", "fuzz", "promoted", "fuzz-89ee3cb088aca93d.json"
)

#: A crash at pulse 3 that is executed, and a recovery at pulse 6 that
#: was promised but never scheduled.
CHURN_CASE = {
    "n": 6,
    "theta": 1.001,
    "d": 1.0,
    "u": 0.02,
    "adversary": "silent",
    "drift": "extreme",
    "churn": "single-crash",
    "churn_params": {"node": 0, "at_pulse": 3},
}
CHURN_PULSES = 14


def _entry_bytes(entry):
    return json.dumps(entry, indent=1, sort_keys=True).encode()


def _run_bytes(verdicts, result):
    return _entry_bytes(
        {
            "verdicts": [v.as_dict() for v in verdicts],
            "pulses": {
                str(node): times
                for node, times in sorted(result.pulses.items())
            },
            "events": result.events_processed,
        }
    )


def test_broken_fixture_file_matches_the_parent():
    run = replay_fixture(load_fixture(BROKEN_FIXTURE))
    assert _run_bytes(run.verdicts, run.result) == _entry_bytes(
        PARITY["fixture:broken"]
    )
    assert run.violations()


@pytest.mark.parametrize(
    "key,seed", [("fixture:churn", 3), ("fixture:churn@seed2", 2)]
)
def test_intended_schedule_watchdog_matches_the_parent(key, seed):
    """The stabilization monitor judges the run against the schedule
    that was *intended* — the executed crash plus the recovery that
    never happens — and reports both the missing recovery and the
    node's tail silence."""
    built = build_simulation(CHURN_CASE, seed=seed)
    executed = built.simulation.dynamics.schedule
    intended = FaultSchedule(
        events=(
            *executed.events,
            FaultEvent("recover", 0, at_pulse=6),
        ),
        corruptions=executed.corruptions,
        description="crash with the promised recovery",
    )
    checks = churn_check_set(intended, built.params)
    built.simulation.attach_checks(checks)
    result = built.simulation.run(max_pulses=CHURN_PULSES)
    verdicts = checks.finish()
    assert _run_bytes(verdicts, result) == _entry_bytes(PARITY[key])
    messages = " ".join(
        violation.message
        for verdict in verdicts
        for violation in verdict.violations
    )
    assert "never occurred" in messages
    assert "fell silent" in messages


def test_corpus_replays_match_the_parent():
    assert len(CORPUS) == 3
    for path in CORPUS:
        payload = load_fixture(path)
        run = replay_fixture(payload)
        assert _run_bytes(run.verdicts, run.result) == _entry_bytes(
            PARITY[f"corpus:{payload['fixture_id']}"]
        ), path


#: Run level → the parity entries it must reproduce: the ``@pulses``
#: entries were dumped at a level that also stored pulse records,
#: which no entry holds, so a run at ``"none"`` matches them.
LEVEL_ENTRIES = [("none", "pulses"), ("full", "full")]


@pytest.mark.parametrize("level, entries", LEVEL_ENTRIES)
def test_conformance_sample_matches_the_parent(level, entries):
    sample = sorted(k for k in PARITY if k.endswith(f"@{entries}"))
    assert len(sample) == 5
    for key in sample:
        _, kind, scenario, seed = key.rsplit("@", 1)[0].split(":")
        run = judged_run(
            scenario_case(kind, scenario),
            pulses=6,
            seed=int(seed),
            trace=level,
        )
        assert _run_bytes(run.verdicts, run.result) == _entry_bytes(
            PARITY[key]
        ), key
