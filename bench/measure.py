"""Untraced measurement: set-up, timed passes, output checks, result.

One run measures one workload at one seed.  End-to-end metrics come
from here and only from here; this module never imports
:mod:`bench.trace`, so no wrapper can be installed while it times.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from importlib.metadata import version
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench.layers import END_TO_END, applies
from bench.workloads import (
    REFERENCE,
    ROOT,
    WORKLOADS,
    PassResult,
    Workload,
)

SCHEMA = "bench-result/1"

#: Scratch space for stores, queues and default outputs.  Inside the
#: checkout and gitignored, not a system temp dir: the driver's contract
#: lets the benchmark read and write nowhere else.
WORKDIR = ROOT / ".bench_work"

#: A run whose calibration loop drifts by more than this is ``noisy``.
NOISE_LIMIT = 0.10

def calibration_ops_per_s(
    iterations: int = 100_000, repeats: int = 5
) -> float:
    """Speed of a fixed pure-Python spin loop, best of ``repeats``.

    Machine-drift detection only: taken before and after the timed
    passes, recorded beside the metrics, never used to rescale one.
    """
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i * i % 7
        best = max(best, iterations / (time.perf_counter() - start))
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount match)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _device, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def environment() -> Dict[str, Any]:
    """What the numbers were taken on (recorded in every result)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "loadavg_1m": os.getloadavg()[0],
        "workdir_fs": filesystem_type(str(WORKDIR)),
    }


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Max RSS of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def floor_pass(
    passes: Sequence[PassResult], walls: Sequence[float]
) -> Tuple[List[float], float]:
    """Per-unit floors (ms) and the wall (s) of one pass run at them.

    Passes have identical content, so unit ``j`` of every pass is the
    same work; its floor is its fastest repeat.  The floor wall adds
    the smallest between-units remainder any pass showed.  On a shared
    box host speed drifts by 10-15 % within seconds: over ten runs the
    median pass wall spread up to 17 % here and this floor at most
    7 %, so the floor is what the end-to-end timings report and the
    median is reported beside it.  The number of passes is fixed by
    the workload (``Workload.passes``), so the minimum is taken over
    the same number of repeats on both sides of a comparison.
    """
    if len({tuple(p.unit_ops) for p in passes}) != 1:
        raise RuntimeError("passes of one workload differ in content")
    floors = [min(column) for column in zip(*(p.unit_ms for p in passes))]
    between = min(
        wall - sum(p.unit_ms) / 1000.0 for p, wall in zip(passes, walls)
    )
    return floors, sum(floors) / 1000.0 + max(between, 0.0)


def set_up(
    name: str, seed: int, smoke: bool, started: float
) -> Tuple[Workload, PassResult, float]:
    """Build the workload and warm it; seconds since ``started``.

    ``started`` is taken at process start, before :mod:`repro` is
    imported, so set-up covers imports, plan/fixture construction and
    one warm-up pass.
    """
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[name](seed, smoke, str(WORKDIR))
    warm = workload.run_pass()
    return workload, warm, time.perf_counter() - started


def mismatched_ops(
    reference: Dict[str, str], result: PassResult
) -> List[str]:
    """Check ids whose digest differs from (or is absent in) either."""
    ids = sorted(set(reference) | set(result.digests))
    return [
        key for key in ids
        if reference.get(key) != result.digests.get(key)
    ]


def run_untraced(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool = False,
    started: Optional[float] = None,
    run_vs_run: bool = False,
) -> Dict[str, Any]:
    """Measure one workload: the result dict (see ``bench/README.md``).

    ``run_vs_run`` ignores the committed digests (a reference is about
    to be rewritten) and checks the passes against the warm-up pass.
    """
    started = time.perf_counter() if started is None else started
    workload, warm, setup = set_up(name, seed, smoke, started)

    calibration_before = calibration_ops_per_s()
    passes: List[PassResult] = []
    walls: List[float] = []
    cpus: List[float] = []
    for _ in range(workload.passes(seconds)):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        passes.append(workload.run_pass())
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
    calibration_after = calibration_ops_per_s()

    committed = None if run_vs_run else workload.reference()
    reference = committed if committed is not None else warm.digests
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    mismatched = 0
    mismatched_ids: List[str] = []
    for result in passes:
        for key in mismatched_ops(reference, result):
            mismatched += result.covers.get(key, 1)
            if key not in mismatched_ids:
                mismatched_ids.append(key)
    skew = max(p.skew_over_bound for p in passes)
    floors, wall = floor_pass(passes, walls)
    per_op_floors = [
        floor / ops for floor, ops in zip(floors, passes[0].unit_ops)
    ]
    per_op_ms = [
        ms / ops
        for p in passes for ms, ops in zip(p.unit_ms, p.unit_ops)
    ]
    drift = calibration_after / calibration_before - 1.0

    ops_per_s = passes[0].ops / wall
    values = {
        "setup_s": setup,
        "wall_s": wall,
        # CPU per wall second over every timed pass, at the floor wall.
        "cpu_s": sum(cpus) / sum(walls) * wall,
        "ops_per_s": ops_per_s,
        "op_p50_ms": statistics.median(per_op_floors),
        "events_per_s": passes[0].events / wall,
        "peak_rss_mib": peak_rss_mib(),
        "ok_share": 1.0 - failed / attempted,
        "match_share": 1.0 - mismatched / attempted,
        "skew_over_bound_max": skew,
    }
    # The contract wants every metric on every workload and never 0;
    # what a metric reads where it does not apply is in metrics.json.
    elsewhere = {"events_per_s": ops_per_s, "skew_over_bound_max": 1.0}
    not_applicable = [key for key in values if not applies(key, name)]
    for key in not_applicable:
        values[key] = elsewhere[key]
    reported: Dict[str, Any] = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "wall_s_quartiles": list(quartiles(walls)),
        "cpu_s_quartiles": list(quartiles(cpus)),
        "op_ms_quartiles": list(quartiles(per_op_ms)),
        "op_samples": len(per_op_ms),
        "failed_share": failed / attempted,
        "mismatch_share": mismatched / attempted,
        "mismatched_ids": mismatched_ids[:20],
    }
    return {
        "schema": SCHEMA,
        "workload": name,
        "seed": seed,
        "trace": 0,
        "smoke": smoke,
        "correct": (
            failed == 0 and mismatched == 0 and skew <= 1.0 + 1e-9
        ),
        "attempted": attempted,
        "failed": failed,
        "reference": (
            "committed" if committed is not None else "run-vs-run"
        ),
        "noisy": abs(drift) > NOISE_LIMIT,
        "environment": environment(),
        "calibration_ops_per_s": {
            "before": calibration_before,
            "after": calibration_after,
        },
        "metrics": {
            key: {"value": value, "unit": END_TO_END[key]["unit"]}
            for key, value in values.items()
        },
        "not_applicable": not_applicable,
        "reported": reported,
        "digests": passes[-1].digests,
    }


def contract_line(result: Dict[str, Any]) -> str:
    """The one-line JSON object the driver reads from stdout."""
    return json.dumps(
        {
            key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }
    )


def write_reference(result: Dict[str, Any]) -> str:
    """Commit a run's digests as the reference for its seed."""
    os.makedirs(REFERENCE, exist_ok=True)
    path = REFERENCE / f"{result['workload']}.seed{result['seed']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": result["workload"],
                "seed": result["seed"],
                "digests": result["digests"],
            },
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    return str(path)


def write_result(result: Dict[str, Any], out: str) -> str:
    """Persist a result under the first free index in ``out``.

    ``RESULT_<workload>[.trace].<k>.json``: repeated runs into one
    directory accumulate, which is what ``compare`` pairs up.
    """
    os.makedirs(out, exist_ok=True)
    stem = f"RESULT_{result['workload']}" + (
        ".trace" if result["trace"] else ""
    )
    index = 0
    while os.path.exists(os.path.join(out, f"{stem}.{index:03d}.json")):
        index += 1
    path = os.path.join(out, f"{stem}.{index:03d}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
