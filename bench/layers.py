"""The metric table, loaded from ``bench/metrics.json``.

A layer is a module of :mod:`repro`, named by its import path without
the ``repro.`` prefix.  Every per-layer row says where its number comes
from — *span* (wall of a public entry point wrapped during the traced
run), *probe* (the bench calling the layer's public function in a timed
loop), *profile* (one pass under cProfile folded by module, exact call
counts), *counter* (the public ``telemetry_session`` counters) or
*computed* — and which end-to-end metric on which workload it is
expected to move.  On every pairing not named the prediction is **no
change**; a metric whose layer the workload never enters reads 0.

``BENCHMARK.json`` lists exactly these names, units, directions and
bounds (the smoke test checks); its schema has no room for the rest.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

with open(
    Path(__file__).resolve().parent / "metrics.json", encoding="utf-8"
) as _handle:
    _TABLE = json.load(_handle)

#: End-to-end rows by name: unit, better, bound, workloads, definition
#: and, where a metric does not apply to every workload, ``elsewhere``.
END_TO_END: Dict[str, Dict[str, Any]] = {
    row["name"]: row for row in _TABLE["end_to_end"]
}

#: Per-layer rows by name: unit, better, source, moves
#: (``{end-to-end metric: [workloads]}``) and an optional note.
LAYER_METRICS: Dict[str, Dict[str, Any]] = {
    row["name"]: row for row in _TABLE["per_layer"]
}

#: Modules whose profile self time is reported as ``<layer>.self_share``
#: (the remainder is ``other.self_share``, so the shares sum to one).
PROFILE_LAYERS: List[str] = _TABLE["profile_layers"]


def applies(metric: str, workload: str) -> bool:
    """Whether an end-to-end metric is defined on a workload."""
    return workload in END_TO_END[metric]["workloads"]
