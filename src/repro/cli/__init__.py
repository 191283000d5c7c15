"""Command-line interface: ``python -m repro`` / the ``repro`` script.

One module per command group; each group's docstring documents its
subcommands (``repro <command> --help`` prints the flags):

==================  =====================================================
``experiments``     ``list`` / ``run E4`` / ``all`` / ``params`` — the
                    experiment catalog and the Theorem 17 calculator
``campaign``        ``campaign list|show|run|enqueue|worker`` — the sweep
                    engine (pools, stores, queues, adaptive sampling)
``store``           ``store list|merge|compact`` — result-store upkeep
``scenarios``       ``scenarios list|show`` — the scenario registry
``ablate``          ``ablate plan|run|report`` — component importance
``check``           ``check list|run|matrix|fixture`` — conformance
``fuzz``            ``fuzz run|list|replay|promote`` — violation search
``perf``            ``perf compare|baseline|list|overhead`` — the perf gate
``telemetry``       ``telemetry list|show|aggregate|diff`` — sidecars
==================  =====================================================

The import rule: **a command imports its own subsystem and nothing
else.**  This module holds only the table below; a group module imports
what its parsers and listings read (a catalog) at its own top, what a
handler runs inside that handler, and is itself imported when
:func:`main` sees one of its commands in ``argv`` (or when
:func:`build_parser` is asked for the whole tree).  ``repro --help``,
``repro --version`` and an unknown command are answered from the table
alone; a listing loads its catalog and nothing behind it; graph
libraries load on first graph (see :mod:`repro.core.topology`).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, List, Optional, Tuple

from repro import __version__

#: Top-level command → (group module under ``repro.cli``, one-line
#: help), in ``--help`` order.  The group module defines
#: ``register_<command>(parser)``, which fills in the command's parser.
COMMANDS: Dict[str, Tuple[str, str]] = {
    "list": ("experiments", "list experiments"),
    "run": ("experiments", "run one experiment"),
    "all": ("experiments", "run every experiment"),
    "params": ("experiments", "derive CPS parameters for a deployment"),
    "campaign": (
        "campaign",
        "declarative sweep campaigns (parallel, cached)",
    ),
    "store": (
        "store",
        "result-store maintenance (shards, merge, compact)",
    ),
    "scenarios": (
        "scenarios",
        "the scenario registry (adversaries, delays, topologies, "
        "drift profiles)",
    ),
    "ablate": (
        "ablate",
        "protocol ablation engine: per-component importance for "
        "every theorem bound (see docs/ABLATIONS.md)",
    ),
    "check": (
        "check",
        "conformance engine (theorem-bound monitors over the "
        "scenario registry)",
    ),
    "fuzz": (
        "fuzz",
        "property-based search for theorem-bound violations "
        "(Hypothesis strategies over the scenario registry)",
    ),
    "perf": ("perf", "benchmark tracking (probes, baselines, CI gate)"),
    "telemetry": (
        "telemetry",
        "inspect campaign telemetry sidecars (counters, spans, "
        "histograms)",
    ),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser.

    With no argument every group is imported and registered.  Given
    the ``command`` about to be dispatched, only that command's group
    is; the other commands keep their name and help line — all that
    top-level ``--help`` and argparse's invalid-choice error need.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimal Clock Synchronization with "
            "Signatures' (Lenzen & Loss, PODC 2022)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (group, help_line) in COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_line)
        if command in (None, name):
            module = importlib.import_module(f"repro.cli.{group}")
            getattr(module, f"register_{name}")(command_parser)
    return parser


def _clean_exit_message(exc: Exception) -> Optional[str]:
    """The one-line exit for the four errors that are a user's typo,
    ``None`` for everything else.  Imported here, on the error path:
    ``--help`` must not load the packages that define them."""
    from repro.build import UnknownBackendError, UnknownComponentError
    from repro.dynamics import MalformedScheduleError
    from repro.scenarios import UnknownScenarioError

    if isinstance(exc, UnknownScenarioError):
        # KeyError wraps its message in repr; unwrap for a clean line.
        return exc.args[0] if exc.args else str(exc)
    if isinstance(exc, (UnknownBackendError, UnknownComponentError)):
        return str(exc)
    if isinstance(exc, MalformedScheduleError):
        return f"malformed fault schedule: {exc}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # No top-level option takes a value, so the first token that is
    # not an option is the command ("" registers no group at all).
    command = next((arg for arg in argv if not arg.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        message = _clean_exit_message(exc)
        if message is None:
            raise
        raise SystemExit(message) from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
