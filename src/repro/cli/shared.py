"""Helpers every command group may use; imports no ``repro`` subsystem."""

from __future__ import annotations

import argparse
import os
from typing import Any, Dict, List, Optional, Tuple

from repro import did_you_mean


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
    return SystemExit(
        f"unknown {noun} {name!r}{did_you_mean(name, available)} "
        f"(available: {', '.join(available)})"
    )


def store_or_exit(root: str):
    """``ResultStore(root)``, or a one-line exit when ``root`` is not
    a directory — before anything runs or reads it."""
    from repro.campaigns.store import ResultStore

    try:
        return ResultStore(root)
    except NotADirectoryError as exc:
        raise SystemExit(str(exc)) from None


def output_or_exit(path: str, directory: bool = False) -> None:
    """Make the directory an output goes to (``path`` itself, or its
    parent for a file), or exit in one line naming ``path`` when that
    cannot be done — before anything runs, not after all the work."""
    folder = path if directory else os.path.dirname(path) or "."
    try:
        os.makedirs(folder, exist_ok=True)
    except OSError as exc:
        raise SystemExit(
            f"cannot write {path!r}: {exc.strerror}: {exc.filename!r}"
        ) from None
    if not directory and os.path.isdir(path):
        raise SystemExit(f"cannot write {path!r}: it is a directory")


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


def execution_parent() -> argparse.ArgumentParser:
    """The scheduling and store flags of ``campaign run`` and ``ablate
    run``, consumed by :func:`repro.cli.execution.execution_flags`."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (1 = in-process serial)",
    )
    parent.add_argument(
        "--store", help="result-store directory (enables cache replay)"
    )
    parent.add_argument(
        "--progress", action="store_true",
        help="print live heartbeats (trials done, rolling events/sec, "
        "ETA) to stderr",
    )
    return parent
