"""The one way the CLI looks up and executes a campaign — shared by the
``experiments``, ``campaign``, ``ablate`` and ``telemetry`` groups."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Optional

from repro.campaigns import available_campaigns, campaign_definition
from repro.cli.shared import store_or_exit, unknown_name_exit

if TYPE_CHECKING:
    from repro.campaigns.store import ResultStore


def campaign_or_exit(name: str, noun: str = "campaign"):
    try:
        return campaign_definition(name)
    except KeyError:
        raise unknown_name_exit(
            name, noun, available_campaigns()
        ) from None


def execution_flags(
    args: argparse.Namespace, *queue_flags: str
) -> dict:
    """The execution flags ``campaign run`` and ``ablate run`` share,
    as :func:`execute_or_exit` keywords (``queue_flags`` names the
    extra :class:`ExecutionPolicy` fields only ``campaign run`` has)."""
    return {
        "policy": {
            name: getattr(args, name)
            for name in ("workers", *queue_flags)
        },
        "store": store_or_exit(args.store) if args.store else None,
        "progress": args.progress,
    }


def execute_or_exit(
    spec,
    scale: str,
    policy: Optional[dict] = None,
    store: Optional[ResultStore] = None,
    progress: bool = False,
    telemetry: bool = False,
):
    """The one way the CLI executes a campaign: ``run``, ``all``,
    ``campaign run`` and ``ablate run`` all end here.

    ``policy`` is a keyword dict for :class:`ExecutionPolicy`, validated
    here so that a bad flag value — like every other
    ``ValueError``/``QueueError`` of the engine — exits with its
    one-line message instead of a traceback.
    """
    from repro.campaigns.executor import ExecutionPolicy, execute_campaign
    from repro.campaigns.queue import QueueError

    reporter = None
    if progress:
        from repro.telemetry.progress import ProgressReporter

        reporter = ProgressReporter(label=f"{spec.name}/{scale}")
    try:
        run = execute_campaign(
            spec,
            scale=scale,
            policy=ExecutionPolicy(**(policy or {})),
            store=store,
            telemetry=telemetry,
            progress=reporter.update if reporter is not None else None,
        )
    except (ValueError, QueueError) as exc:
        raise SystemExit(str(exc)) from None
    if reporter is not None:
        reporter.finish()
    return run
