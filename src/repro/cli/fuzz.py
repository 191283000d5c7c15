"""``repro fuzz`` — property-based search for bound violations.

``fuzz run [--strategy valid|cps|churn|known-bad] [--budget 100]
[--seed 0] [--out results/fuzz/corpus]``
    Property-based search for theorem-bound violations: synthesized
    registry cases through the conformance monitors, with Hypothesis
    shrinking any violation to a minimal content-hashed fixture.
    Exit status follows the space's expectation (a violation inside a
    valid space fails; the known-bad space must find one).
"""

from __future__ import annotations

import argparse
import os

from repro.cli.shared import output_or_exit, unknown_name_exit
from repro.fuzz import render_fuzz_report, save_fixture, search
from repro.fuzz.driver import (
    InvalidBudgetError,
    UnknownStrategyError,
    available_strategies,
)


def _command_fuzz_run(args: argparse.Namespace) -> int:
    output_or_exit(args.out, directory=True)
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
