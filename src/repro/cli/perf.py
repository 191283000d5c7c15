"""``repro perf`` — benchmark tracking.

``perf list``
    Show the registered perf cases.
``perf run [--quick] [--case NAME] [--out results/perf]``
    Measure perf cases and write ``BENCH_<name>.json`` files.
``perf compare --baseline results/perf_baseline.json [--tolerance 0.35]``
    Grade fresh measurements against the committed baseline; exits
    non-zero on a regression (the CI perf gate).
``perf baseline [--out results/perf_baseline.json]``
    Re-record the baseline from the current ``BENCH_*.json`` files.
"""

from __future__ import annotations

import argparse
import os

from repro.build import resolve_backend
from repro.cli.shared import backend_parent, unknown_name_exit
from repro.perf import (
    PERF_CASES,
    available_cases,
    compare,
    load_baseline,
    load_results,
    run_case,
    write_baseline,
)

DEFAULT_BENCH_DIR = os.path.join("results", "perf")
DEFAULT_BASELINE = os.path.join("results", "perf_baseline.json")


def _command_perf_list(_args: argparse.Namespace) -> int:
    """List both perf JSON namespaces (docs/PERFORMANCE.md has detail).

    * registered cases — ``perf run`` writes ``BENCH_<name>.json``
      under ``results/perf`` (gitignored; compared via ``perf
      baseline`` / ``perf compare``);
    * campaign sidecars — ``campaign run NAME --perf --store DIR``
      writes ``<spec_key>.perf.json`` next to the campaign's results
      (spec-keyed, so every measurement knob change re-keys the file).
    """
    print(
        "registered cases — `repro perf run` writes "
        f"{DEFAULT_BENCH_DIR}/BENCH_<name>.json:"
    )
    for name in sorted(PERF_CASES):
        print(f"  {name:<18} {PERF_CASES[name].description}")
    print()
    print(
        "campaign sidecars — `repro campaign run NAME --perf "
        "--store DIR` writes <spec_key>.perf.json in DIR (spec-keyed "
        "per measurement, including its backend)."
    )
    return 0


def _command_perf_run(args: argparse.Namespace) -> int:
    names = args.case or available_cases()
    unknown = sorted(set(names) - set(available_cases()))
    if unknown:
        raise unknown_name_exit(
            unknown[0], "perf case", available_cases()
        )
    scale = "quick" if args.quick else "full"
    # Only resolve an explicit override: ``None`` must stay ``None`` so
    # backend-aware case bodies keep their own defaults (e9-vectorized-*
    # default to the vectorized engine).
    backend = (
        resolve_backend(args.backend)
        if args.backend is not None
        else None
    )
    for name in names:
        result = run_case(
            name, scale=scale, repeats=args.repeats, backend=backend
        )
        path = result.write(args.out)
        normalized = result.normalized_throughput
        cache = result.meta.get("verify_cache") or {}
        rate = cache.get("hit_rate")
        cache_note = (
            f"verify-cache {rate:.1%}" if rate is not None
            else "verify-cache n/a"
        )
        print(
            f"{name:<18} {result.events:>9} events  "
            f"{result.wall_seconds:8.3f}s  "
            f"{result.events_per_sec:>12,.0f} ev/s  "
            f"norm {normalized:.4f}  {cache_note}  -> {path}"
        )
    return 0


def _command_perf_compare(args: argparse.Namespace) -> int:
    if not os.path.exists(args.baseline):
        raise SystemExit(f"baseline file not found: {args.baseline}")
    baseline = load_baseline(args.baseline)
    current = load_results(args.current)
    if not current:
        raise SystemExit(
            f"no BENCH_*.json files under {args.current!r} "
            f"(run 'repro perf run' first)"
        )
    comparison = compare(baseline.cases, current, tolerance=args.tolerance)
    for verdict in comparison.verdicts:
        print(verdict.describe())
    print(comparison.summary())
    return 0 if comparison.ok else 1


def _command_perf_baseline(args: argparse.Namespace) -> int:
    results = load_results(args.current)
    if not results:
        raise SystemExit(
            f"no BENCH_*.json files under {args.current!r} "
            f"(run 'repro perf run' first)"
        )
    path = write_baseline(args.out, results, notes=args.notes)
    print(f"wrote baseline with {len(results)} case(s) to {path}")
    return 0


def register_perf(parser: argparse.ArgumentParser) -> None:
    perf_sub = parser.add_subparsers(dest="perf_command", required=True)

    perf_sub.add_parser(
        "list", help="list registered perf cases"
    ).set_defaults(handler=_command_perf_list)

    perf_run_parser = perf_sub.add_parser(
        "run", help="measure perf cases and write BENCH_<name>.json",
        parents=[backend_parent()],
    )
    perf_run_parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale workloads (seconds, not minutes)",
    )
    perf_run_parser.add_argument(
        "--case", action="append",
        help="measure only this case (repeatable; default: all)",
    )
    perf_run_parser.add_argument(
        "--out", default=DEFAULT_BENCH_DIR,
        help=f"directory for BENCH_*.json (default {DEFAULT_BENCH_DIR})",
    )
    perf_run_parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per case, best run kept (default 3)",
    )
    perf_run_parser.set_defaults(handler=_command_perf_run)

    perf_compare_parser = perf_sub.add_parser(
        "compare",
        help="grade BENCH_*.json files against a baseline (CI gate)",
    )
    perf_compare_parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline JSON file (default {DEFAULT_BASELINE})",
    )
    perf_compare_parser.add_argument(
        "--current", default=DEFAULT_BENCH_DIR,
        help="directory of fresh BENCH_*.json files "
        f"(default {DEFAULT_BENCH_DIR})",
    )
    perf_compare_parser.add_argument(
        "--tolerance", type=float, default=0.35,
        help="accepted fractional throughput drop (default 0.35)",
    )
    perf_compare_parser.set_defaults(handler=_command_perf_compare)

    perf_baseline_parser = perf_sub.add_parser(
        "baseline",
        help="re-record the committed baseline from current results",
    )
    perf_baseline_parser.add_argument(
        "--current", default=DEFAULT_BENCH_DIR,
        help="directory of fresh BENCH_*.json files "
        f"(default {DEFAULT_BENCH_DIR})",
    )
    perf_baseline_parser.add_argument(
        "--out", default=DEFAULT_BASELINE,
        help=f"baseline file to write (default {DEFAULT_BASELINE})",
    )
    perf_baseline_parser.add_argument(
        "--notes", default="",
        help="free-form provenance note stored in the baseline",
    )
    perf_baseline_parser.set_defaults(handler=_command_perf_baseline)
