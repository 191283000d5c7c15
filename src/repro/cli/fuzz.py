"""``repro fuzz`` — property-based search for bound violations.

``fuzz run [--strategy valid|cps|churn|known-bad] [--budget 100]
[--seed 0] [--out results/fuzz/corpus]``
    Property-based search for theorem-bound violations: synthesized
    registry cases through the conformance monitors, with Hypothesis
    shrinking any violation to a minimal content-hashed fixture.
    Exit status follows the space's expectation (a violation inside a
    valid space fails; the known-bad space must find one).
``fuzz list [--dir results/fuzz]``
    Show the fixture corpus (found and promoted).
``fuzz replay FIXTURE [--trace pulses|full]``
    Re-execute one fixture and print its canonical verdict payload
    (byte-identical across invocations and trace levels); non-zero
    exit when the recorded expectation is not reproduced.
``fuzz promote FIXTURE [--dest results/fuzz/promoted]``
    Persist a fixture under ``promoted/``, the directory CI replays
    through ``repro check fixture --fixture PATH`` (a permanent
    regression gate).
"""

from __future__ import annotations

import argparse
import json
import os

from repro.cli.shared import unknown_name_exit
from repro.fuzz import (
    list_fixtures,
    load_fixture,
    promote_fixture,
    render_fuzz_report,
    replay_fixture,
    save_fixture,
    search,
    verdict_payload,
)
from repro.fuzz.corpus import MalformedFixtureError
from repro.fuzz.driver import (
    InvalidBudgetError,
    UnknownStrategyError,
    available_strategies,
)


def _command_fuzz_run(args: argparse.Namespace) -> int:
    try:
        report = search(
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            max_interesting=args.max_interesting,
        )
    except UnknownStrategyError:
        raise unknown_name_exit(
            args.strategy, "fuzz strategy", available_strategies()
        ) from None
    except InvalidBudgetError as exc:
        raise SystemExit(str(exc)) from None
    print(render_fuzz_report(report))
    fixtures = list(report.interesting)
    if report.counterexample is not None:
        fixtures.insert(0, report.counterexample)
    for fixture in fixtures:
        print(f"wrote {save_fixture(fixture, args.out)}")
    return 0 if report.ok else 1


def _fuzz_fixture_line(path: str, payload: dict) -> str:
    case = payload["case"]
    axes = "/".join(
        str(case[kind])
        for kind in ("adversary", "delay", "drift", "churn")
        if kind in case
    )
    return (
        f"fuzz-{payload['fixture_id']}  {payload['origin']:<11} "
        f"expect={payload['expect']:<9} n={case['n']} "
        f"pulses={payload['pulses']} {axes}  [{path}]"
    )


def _command_fuzz_list(args: argparse.Namespace) -> int:
    shown = 0
    for label in ("corpus", "promoted"):
        directory = os.path.join(args.dir, label)
        paths = list_fixtures(directory)
        if not paths:
            continue
        print(f"{label} ({directory}):")
        for path in paths:
            print("  " + _fuzz_fixture_line(path, load_fixture(path)))
            shown += 1
    if not shown:
        print(
            f"no fuzz fixtures under {args.dir!r} "
            f"(run 'repro fuzz run' first)"
        )
    return 0


def load_fixture_or_exit(path: str) -> dict:
    """A fixture file's payload, or a one-line CLI error."""
    try:
        return load_fixture(path)
    except MalformedFixtureError as exc:
        raise SystemExit(str(exc)) from None


def _command_fuzz_replay(args: argparse.Namespace) -> int:
    payload = load_fixture_or_exit(args.fixture)
    run = replay_fixture(payload, trace=args.trace)
    verdicts = verdict_payload(payload, run)
    print(json.dumps(verdicts, indent=2, sort_keys=True))
    return 0 if verdicts["expectation_met"] else 1


def _command_fuzz_promote(args: argparse.Namespace) -> int:
    payload = load_fixture_or_exit(args.fixture)
    path = promote_fixture(payload, directory=args.dest)
    print(f"promoted fuzz-{payload['fixture_id']} -> {path}")
    print(f"gate it with: repro check fixture --fixture {path}")
    return 0


def register_fuzz(parser: argparse.ArgumentParser) -> None:
    fuzz_sub = parser.add_subparsers(
        dest="fuzz_command", required=True
    )

    fuzz_run_parser = fuzz_sub.add_parser(
        "run", help="run a budgeted search through the monitor oracle"
    )
    fuzz_run_parser.add_argument(
        "--strategy", default="valid",
        help="search space: valid (cps+churn, default), cps, churn, "
        "or known-bad (the E8 u~>>u region the oracle must catch)",
    )
    fuzz_run_parser.add_argument(
        "--budget", type=int, default=100,
        help="Hypothesis examples to generate (default 100)",
    )
    fuzz_run_parser.add_argument("--seed", type=int, default=0)
    fuzz_run_parser.add_argument(
        "--max-interesting", type=int, default=2,
        help="surviving near-bound corners kept as fixtures "
        "(default 2)",
    )
    fuzz_run_parser.add_argument(
        "--out", default=os.path.join("results", "fuzz", "corpus"),
        help="directory for found fixtures "
        "(default results/fuzz/corpus)",
    )
    fuzz_run_parser.set_defaults(handler=_command_fuzz_run)

    fuzz_list_parser = fuzz_sub.add_parser(
        "list", help="list the fixture corpus (found and promoted)"
    )
    fuzz_list_parser.add_argument(
        "--dir", default=os.path.join("results", "fuzz"),
        help="fuzz results root (default results/fuzz)",
    )
    fuzz_list_parser.set_defaults(handler=_command_fuzz_list)

    fuzz_replay_parser = fuzz_sub.add_parser(
        "replay",
        help="re-execute one fixture and print its canonical verdict "
        "payload (byte-stable)",
    )
    fuzz_replay_parser.add_argument(
        "fixture", help="path to a fuzz fixture JSON file"
    )
    fuzz_replay_parser.add_argument(
        "--trace", choices=("pulses", "full"), default="pulses",
        help="trace level for the replay (verdicts are identical)",
    )
    fuzz_replay_parser.set_defaults(handler=_command_fuzz_replay)

    fuzz_promote_parser = fuzz_sub.add_parser(
        "promote",
        help="persist a fixture under promoted/, which CI replays via "
        "'repro check fixture'",
    )
    fuzz_promote_parser.add_argument(
        "fixture", help="path to a fuzz fixture JSON file"
    )
    fuzz_promote_parser.add_argument(
        "--dest", default=os.path.join("results", "fuzz", "promoted"),
        help="promoted-corpus directory "
        "(default results/fuzz/promoted)",
    )
    fuzz_promote_parser.set_defaults(handler=_command_fuzz_promote)
