"""Helpers every command group may use; imports no ``repro`` subsystem."""

from __future__ import annotations

import argparse
import difflib
from typing import List


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
