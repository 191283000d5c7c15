"""Helpers every command group may use; imports no ``repro`` subsystem."""

from __future__ import annotations

import argparse
import difflib
from typing import Any, Dict, List, Optional, Tuple


def artifact_out(
    out: Optional[str],
    default: str,
    selection: Dict[str, Tuple[Any, Any]],
) -> Optional[str]:
    """Where a sweep writes its artifact (``None``: nowhere).

    An explicit ``--out`` always wins.  Otherwise the sweep may only
    rewrite the committed artifact at ``default`` with the selection
    that artifact was made with: ``selection`` maps each selecting flag
    to ``(this run's value, the committed artifact's)``, and a run that
    differs in any of them leaves the committed file alone.
    """
    if out is not None:
        return out
    changed = [
        flag
        for flag, (value, committed) in selection.items()
        if value != committed
    ]
    if not changed:
        return default
    print(
        f"not overwriting {default} with a sweep filtered by "
        f"{', '.join(changed)} (pass --out explicitly)"
    )
    return None


def unknown_name_exit(
    name: str, noun: str, available: List[str]
) -> SystemExit:
    """A clean CLI error with a did-you-mean hint for close misses."""
    close = difflib.get_close_matches(name, available, n=1)
    hint = f" — did you mean {close[0]!r}?" if close else ""
    return SystemExit(
        f"unknown {noun} {name!r}{hint} "
        f"(available: {', '.join(available)})"
    )


def backend_parent() -> argparse.ArgumentParser:
    """The ``--backend`` flag shared by every simulation-executing
    subcommand (``campaign run``, ``check run``, ``check matrix``),
    validated with a did-you-mean by
    :func:`repro.build.resolve_backend`.  Default ``None`` = "whatever
    the spec or engine defaults to", so campaign specs that pin a
    backend are not silently overridden."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend: 'event' (discrete-event reference) "
        "or 'vectorized' (round-batched numpy engine)",
    )
    return parent


def execution_parent(max_trials: int) -> argparse.ArgumentParser:
    """The scheduling, store and adaptive-sampling flags of ``campaign
    run`` and ``ablate run``, consumed by
    :func:`repro.cli.execution.execution_flags`.  The two commands
    differ in one default: the replicate cap per cell."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (1 = in-process serial)",
    )
    parent.add_argument(
        "--chunk-size", type=int, default=4,
        help="trials per pool task",
    )
    parent.add_argument(
        "--timeout", type=float, default=None,
        help="per-trial timeout in seconds (runs on a process pool)",
    )
    parent.add_argument(
        "--store", help="result-store directory (enables cache replay)"
    )
    parent.add_argument(
        "--fresh", action="store_true",
        help="ignore cached records and re-execute every trial",
    )
    parent.add_argument(
        "--progress", action="store_true",
        help="print live heartbeats (trials done, rolling events/sec, "
        "ETA) to stderr",
    )
    parent.add_argument(
        "--adaptive", action="store_true",
        help="per-cell adaptive sampling: replicate each grid cell "
        "until the CI width target (--ci-width) is hit, bounded by "
        "--max-trials",
    )
    parent.add_argument(
        "--ci-width", type=float, default=None,
        help="target confidence-interval width on the headline metric "
        "(enables the adaptive stopping rule)",
    )
    parent.add_argument(
        "--ci-metric", default="max_skew",
        help="metric the stopping rule targets (default max_skew)",
    )
    parent.add_argument(
        "--ci-confidence", type=float, default=0.95,
        help="confidence level of the interval (default 0.95)",
    )
    parent.add_argument(
        "--min-trials", type=int, default=3,
        help="replicates per cell before the first width check "
        "(default 3)",
    )
    parent.add_argument(
        "--max-trials", type=int, default=max_trials,
        help="replicate cap per cell, converged or not "
        f"(default {max_trials})",
    )
    return parent
