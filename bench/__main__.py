"""``python -m bench`` — the one command that produces the numbers.

Driver form (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 -m bench --workload W --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).

Human form::

    python3 -m bench run   [--workload W] [--seed N] [--out DIR]
    python3 -m bench trace [--workload W] [--seed N] [--out DIR]
    python3 -m bench compare A/ B/

``run`` measures every workload untraced and prints each end-to-end
metric by name with its unit; ``trace`` repeats each workload traced
and prints the per-layer metrics.  Both write ``RESULT_*.json`` (and
``TRACE_*.json``) under ``--out`` and exit non-zero on any failed op,
digest mismatch or ``skew_over_bound_max`` > 1.
"""

import time

STARTED = time.perf_counter()  # before repro is imported: set-up starts

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402


def _print_result(result: Dict[str, Any]) -> None:
    state = "ok" if result["correct"] else "INCORRECT"
    flags = " noisy" if result["noisy"] else ""
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"trace={result['trace']}: {state}{flags} "
        f"({result['attempted']} ops, {result['failed']} failed)"
    )
    for name, metric in result["metrics"].items():
        note = (
            "  (n/a on this workload; see bench/metrics.json)"
            if name in result.get("not_applicable", ()) else ""
        )
        print(
            f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}{note}"
        )
    for name, value in result["reported"].items():
        print(f"  . {name:42s} {value}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from bench import compare

        return compare.main(argv[1:])

    from bench import measure

    with open(measure.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("mode", nargs="?", choices=("run", "trace"))
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for RESULT_/TRACE_ files")
    parser.add_argument(
        "--smoke", action="store_true",
        help="sub-two-second scale for the test suite",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="check the untraced run against itself, not the committed "
        "digests, and if correct (re)write "
        "bench/reference/<workload>.seed<N>.json",
    )
    args = parser.parse_args(argv)
    seed = args.seed % 2 ** 32
    if args.write_reference and args.smoke:
        parser.error("--write-reference needs the full scale, not --smoke")

    out = args.out or str(measure.WORKDIR / "out")
    if args.mode is None:
        if args.workload is None:
            parser.error("--workload is required (or use run/trace)")
        if args.trace:
            from bench import trace

            result = trace.run_traced(
                args.workload, seed, args.seconds, args.smoke, out
            )
        else:
            result = measure.run_untraced(
                args.workload, seed, args.seconds, args.smoke, STARTED,
                run_vs_run=args.write_reference,
            )
        if args.out:
            print(f"result-file: {measure.write_result(result, out)}")
        if args.write_reference and not args.trace and result["correct"]:
            print(f"reference: {measure.write_reference(result)}")
        print(measure.contract_line(result))
        return 0 if result["correct"] else 1

    # run / trace: one fresh driver-form process per workload, so the
    # numbers are exactly the ones the driver would see.
    status = 0
    for name in [args.workload] if args.workload else names:
        command = [
            sys.executable, "-m", "bench", "--workload", name,
            "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", "1" if args.mode == "trace" else "0",
            "--out", out,
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(
            command, cwd=str(measure.ROOT), stdout=subprocess.PIPE,
            text=True, check=False,
        )
        status = status or done.returncode
        for line in done.stdout.splitlines():
            if line.startswith("result-file: "):
                path = line[len("result-file: "):]
                with open(path, encoding="utf-8") as handle:
                    _print_result(json.load(handle))
                print(f"  -> {path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
