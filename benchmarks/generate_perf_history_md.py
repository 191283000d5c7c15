#!/usr/bin/env python3
"""Generate ``docs/PERF_HISTORY.md`` from the tracked perf history.

The document is *derived, not hand-maintained*: every number comes
from ``results/perf_history.jsonl`` (one line per ``repro perf
baseline``), and the table is rendered by the function ``repro perf
list`` prints.  Nothing is executed, so the emission is deterministic
and cheap enough for the tier-1 freshness test
(``tests/test_generated_docs.py``).

Usage::

    python benchmarks/generate_perf_history_md.py
"""

from __future__ import annotations

import os
import sys

from docgen import REPO_ROOT, emit

from repro.perf.history import load_history, trajectory

HISTORY_PATH = os.path.join(REPO_ROOT, "results", "perf_history.jsonl")

HEADER = """# PERF HISTORY — every recorded baseline, oldest first

One row per recording × workload of the repo benchmark (`python3 -m
bench run`; workloads, metrics and units in `bench/README.md`), grouped
by workload so each trajectory reads top to bottom, then the note of
every recording.  `#` is the line number in
`results/perf_history.jsonl`; **the last line is the baseline `repro
perf compare` gates against** (`ops_per_s / calibration`, tolerance
35 %).  A `—` is a number the recording's source did not state: lines
seeded from prose carry no calibration and can not gate.  `git log -p
results/perf_history.jsonl` maps every line to the commit that
recorded it.

This file is **generated**; do not edit it by hand.  Record and
regenerate with::

    python3 -m bench run                       # measure (≈ 2 min)
    repro perf compare                         # gate against the last line
    repro perf baseline --notes "why it moved" # append a line
    python benchmarks/generate_perf_history_md.py

The tier-1 suite fails if the committed document is stale
(`tests/test_generated_docs.py`).  `repro perf list` prints the same
table.
"""


def generate() -> str:
    return "\n".join([HEADER, *trajectory(load_history(HISTORY_PATH)), ""])


if __name__ == "__main__":
    sys.exit(emit("docs/PERF_HISTORY.md", generate()))
