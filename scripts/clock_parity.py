#!/usr/bin/env python
"""Pin clock ensembles and vectorized runs bit for bit.

Two captures, both taken at the commit *before* clock ensembles became
segment tables (PR 17) and compared against ever since by
``tests/test_clock_table.py``:

``tests/data/drift_rows.json``
    every drift profile's segments ``(t_start, local_start, rate)`` at
    n in {7, 64} and three seeds — a sha256 over the ``float.hex`` of
    every value, plus the values themselves at n = 7;

``tests/data/vectorized_runs.json``
    pulse streams, ``events_processed`` and ``end_time`` of vectorized
    runs over four delay policies x all four drift profiles, 12 pulses
    (so segment boundaries are crossed), at n = 130 in blocks of 37
    receiver rows (so block boundaries are too).  The n = 30 runs are
    not repeated there: they are lines of the third capture.

A third capture, ``tests/data/clock_parity_full.txt``, holds the 48
``--full`` lines (taken at the commit before the vote read row
extremes); ``tests/test_clock_table.py`` compares a fresh ``--full``
run with it byte for byte.  Those runs are unobserved, so each round
evaluates only each receiver's earliest and latest arrival (per class
for a deterministic policy, per drawn row for ``random``); the same
test file replays the n = 30 lines under ``trace="full"``, which
evaluates every round as dense blocks, so every source answers to the
one file.

Usage::

    python scripts/clock_parity.py --dump     # rewrite both files
    python scripts/clock_parity.py --full     # the 48 cases at
                                              # n in {30, 400, 1500},
                                              # one line each, to diff
                                              # between two checkouts

Only ``--dump`` (or a new ``--full`` capture) at a commit whose
numbers are *meant* to change.
"""

import argparse
import hashlib
import json
import os
import sys
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import scenarios  # noqa: E402
from repro.build import build_simulation  # noqa: E402
from repro.core.params import derive_parameters  # noqa: E402
from repro.sim.vectorized import engine  # noqa: E402

DATA = os.path.join(ROOT, "tests", "data")
PROFILES = ("extreme", "random", "mixed", "staggered")
DELAYS = ("maximum", "random", "flicker-partition", "eclipse")
#: ``(n, receiver rows a block)``; ``None`` keeps the engine's
#: default :data:`~repro.sim.vectorized.engine.BLOCK_BYTES`.
TIER1_SIZES = ((130, 37),)
FULL_SIZES = ((30, None), (400, 37), (1500, None))


def _sha(values):
    text = "\n".join(float(value).hex() for value in values)
    return hashlib.sha256(text.encode()).hexdigest()


def drift_rows(profile, n, seed):
    """``[[t_start, local_start, rate], ...]`` per node."""
    params = derive_parameters(theta=1.001, d=1.0, u=0.01, n=n)
    clocks = scenarios.create("drift", profile, params, seed)
    return [
        [[s.t_start, s.local_start, s.rate] for s in clock.segments()]
        for clock in clocks
    ]


def drift_entry(profile, n, seed):
    rows = drift_rows(profile, n, seed)
    entry = {"sha256": _sha(x for row in rows for seg in row for x in seg)}
    if n <= 7:
        entry["rows"] = rows
    return entry


def drift_payload():
    return {
        f"{profile}/n{n}/seed{seed}": drift_entry(profile, n, seed)
        for profile in PROFILES for n in (7, 64) for seed in (0, 1, 2)
    }


def run_entry(n, delay, drift, rows, seed=3, pulses=12, trace="none"):
    case = {
        "n": n, "theta": 1.001, "d": 1.0, "u": 0.01,
        "adversary": "silent", "delay": delay, "drift": drift,
    }
    simulation = build_simulation(
        case, backend="vectorized", seed=seed, trace=trace
    ).simulation
    block_bytes = (
        engine.BLOCK_BYTES if rows is None
        else rows * 8 * len(simulation.honest)
    )
    with mock.patch.object(engine, "BLOCK_BYTES", block_bytes):
        result = simulation.run(max_pulses=pulses)
    return {
        "pulses_sha256": _sha(
            t for node in sorted(result.pulses)
            for t in result.pulses[node]
        ),
        "events": result.events_processed,
        "end_time": float(result.end_time).hex(),
    }


def runs_payload(sizes):
    return {
        f"n{n}/{delay}/{drift}": run_entry(n, delay, drift, rows)
        for n, rows in sizes
        for delay in DELAYS for drift in PROFILES
    }


def _write(name, payload):
    path = os.path.join(DATA, name)
    lines = [
        f" {json.dumps(key)}: {json.dumps(payload[key], sort_keys=True)}"
        for key in sorted(payload)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dump", action="store_true")
    group.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)
    if args.dump:
        _write("drift_rows.json", drift_payload())
        _write("vectorized_runs.json", runs_payload(TIER1_SIZES))
        return 0
    for key, entry in runs_payload(FULL_SIZES).items():
        print(key, json.dumps(entry, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
