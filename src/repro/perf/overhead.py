"""What observing a run costs: two ratios against a bare run.

One CPS system is run *bare* (``trace="none"``, no telemetry), under
an active telemetry session, and at ``trace="full"``, each the fastest
of :data:`REPEATS` interleaved repeats in this process.  Both gates are
ratios of walls taken seconds apart on one machine, so they need no
baseline, calibration or file; and observing must never perturb: a
pulse or event-count difference fails whatever the speed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, List, Tuple

#: Ratio limits, set at ≈ 3× the largest overhead (ratio − 1) of PR 18's
#: ten readings; the current readings (higher since PR 21 made the bare
#: run cheaper) are in docs/PERFORMANCE.md ("Observation overheads").
MAX_TELEMETRY_RATIO = 2.0
MAX_FULL_TRACE_RATIO = 3.5

REPEATS = 5
PULSES = 60
CASE = {
    "n": 9, "theta": 1.001, "d": 1.0, "u": 0.02,
    "adversary": "mimic-split", "delay": "skewing", "drift": "extreme",
}
BARE = ("none", False)
#: label → ((trace level, telemetry on), ratio limit against BARE).
OBSERVED = {
    "telemetry on": (("none", True), MAX_TELEMETRY_RATIO),
    "trace full": (("full", False), MAX_FULL_TRACE_RATIO),
}


def timed_run(trace: str, telemetry: bool) -> Tuple[float, Any, int]:
    """``(wall seconds, pulses, events processed)`` of one fresh run."""
    from repro.build import build_simulation
    from repro.telemetry import Telemetry, telemetry_session

    session = (
        telemetry_session(Telemetry(label="perf-overhead"))
        if telemetry else nullcontext()
    )
    with session:  # hooks are bound when the system is built
        simulation = build_simulation(CASE, seed=5, trace=trace).simulation
        started = time.perf_counter()
        result = simulation.run(max_pulses=PULSES)
        wall = time.perf_counter() - started
    return wall, result.pulses, result.events_processed


def overhead_report() -> Tuple[bool, List[str]]:
    """``(ok, printable rows)``: identity and both ratios checked."""
    variants = [BARE, *(variant for variant, _limit in OBSERVED.values())]
    walls = dict.fromkeys(variants, float("inf"))
    outputs = {}
    for _ in range(REPEATS):
        for variant in variants:
            wall, *outputs[variant] = timed_run(*variant)
            walls[variant] = min(walls[variant], wall)
    ok, rows = True, []
    for label, (variant, limit) in OBSERVED.items():
        ratio = walls[variant] / walls[BARE]
        same = outputs[variant] == outputs[BARE]
        passed = same and ratio <= limit
        ok = ok and passed
        rows.append(
            f"{label} / bare: ratio {ratio:.3f} (limit {limit}; "
            f"{walls[variant]:.3f}s / {walls[BARE]:.3f}s, "
            f"{outputs[BARE][1]} events) "
            + ("ok" if passed else "FAIL")
            + ("" if same else " — pulses or event count differ")
        )
    return ok, rows
