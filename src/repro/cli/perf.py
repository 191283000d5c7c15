"""``repro perf`` — the perf gate and its history.

``python3 -m bench run`` measures; these read what it wrote.

``perf compare``
    Grade a directory of ``RESULT_*.json`` files against the last line
    of ``results/perf_history.jsonl``; exits non-zero on a regression,
    a missing workload or an incorrect run (the CI gate).
``perf baseline``
    Append the directory's medians to the history as the new baseline.
``perf list``
    Print the history: the trajectory of every workload.
``perf overhead``
    Telemetry on/off and trace ``full``/``pulses`` as ratios against a
    bare run; exits non-zero when observing changed a pulse or costs
    more than its limit.
"""

from __future__ import annotations

import argparse
import os

from repro.perf.history import (
    append_history,
    compare,
    load_history,
    read_results,
    recording,
    trajectory,
)

#: ``python3 -m bench run``'s default ``--out``, from the repo root.
DEFAULT_CURRENT = os.path.join(".bench_work", "out")
DEFAULT_HISTORY = os.path.join("results", "perf_history.jsonl")


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1)")
    return value


def _command_compare(args: argparse.Namespace) -> int:
    baseline = load_history(args.baseline)[-1]
    verdicts = compare(baseline, read_results(args.current), args.tolerance)
    for verdict in verdicts:
        print(verdict.describe())
    failing = sum(not verdict.ok for verdict in verdicts)
    print(f"{'FAIL' if failing else 'PASS'} (tolerance {args.tolerance:.0%})")
    return 1 if failing else 0


def _command_baseline(args: argparse.Namespace) -> int:
    # Imported here: ``perf list`` / ``compare`` load no other cli module.
    from repro.cli.shared import output_or_exit

    output_or_exit(args.out)
    line = recording(read_results(args.current), notes=args.notes)
    append_history(args.out, line)
    print(f"appended {len(line['workloads'])} workload(s) to {args.out}")
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    print("\n".join(trajectory(load_history(DEFAULT_HISTORY))))
    return 0


def _command_overhead(_args: argparse.Namespace) -> int:
    from repro.perf.overhead import overhead_report

    ok, rows = overhead_report()
    print("\n".join(rows))
    return 0 if ok else 1


def register_perf(parser: argparse.ArgumentParser) -> None:
    perf_sub = parser.add_subparsers(dest="perf_command", required=True)
    current = argparse.ArgumentParser(add_help=False)
    current.add_argument(
        "--current", default=DEFAULT_CURRENT,
        help="directory `python3 -m bench run --out` wrote "
        f"(default {DEFAULT_CURRENT})",
    )

    perf_sub.add_parser(
        "list", help="print the recorded history, oldest first"
    ).set_defaults(handler=_command_list)

    compare_parser = perf_sub.add_parser(
        "compare", parents=[current],
        help="grade RESULT_*.json files against the baseline (CI gate)",
    )
    compare_parser.add_argument(
        "--baseline", default=DEFAULT_HISTORY,
        help="history file whose last line is the baseline "
        f"(default {DEFAULT_HISTORY})",
    )
    compare_parser.add_argument(
        "--tolerance", type=_tolerance, default=0.35,
        help="accepted fractional throughput drop (default 0.35)",
    )
    compare_parser.set_defaults(handler=_command_compare)

    baseline_parser = perf_sub.add_parser(
        "baseline", parents=[current],
        help="append the current results to the history as the baseline",
    )
    baseline_parser.add_argument(
        "--out", default=DEFAULT_HISTORY,
        help=f"history file to append to (default {DEFAULT_HISTORY})",
    )
    baseline_parser.add_argument(
        "--notes", default="", help="why the numbers moved"
    )
    baseline_parser.set_defaults(handler=_command_baseline)

    perf_sub.add_parser(
        "overhead",
        help="telemetry and full-trace cost as ratios against a bare run",
    ).set_defaults(handler=_command_overhead)
