"""The no-op trial builder of the ``campaign-overhead`` workload.

Referenced from specs as ``bench.noop:noop_trial`` so the campaign
layer resolves it like any third-party ``module:function`` builder.
It does no simulation: whatever a pass costs is plan/hash, pickle,
pool dispatch, store and queue time.
"""

from __future__ import annotations

from typing import Any, Dict


def noop_trial(
    case: Dict[str, Any], measurement: Any, seed: int
) -> Dict[str, int]:
    """Three ints derived from the inputs (so records differ by seed)."""
    return {"i": case["i"], "seed_low": seed & 0xFFFF, "parity": seed & 1}
