"""The one way the CLI looks up and executes a campaign — shared by the
``experiments``, ``campaign``, ``ablate`` and ``telemetry`` groups."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Optional

from repro.campaigns import available_campaigns, campaign_definition
from repro.cli.shared import unknown_name_exit

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
    from repro.campaigns.store import ResultStore

    if args.adaptive and args.ci_width is None:
        raise SystemExit("--adaptive requires --ci-width")
    if args.ci_width is not None and not args.adaptive:
        raise SystemExit("--ci-width only makes sense with --adaptive")
    return {
        "policy": {
            name: getattr(args, name)
            for name in ("workers", "chunk_size", "timeout", *queue_flags)
        },
        "adaptive": (
            {
                "ci_width": args.ci_width,
                "metric": args.ci_metric,
                "confidence": args.ci_confidence,
                "min_trials": args.min_trials,
                "max_trials": args.max_trials,
            }
            if args.adaptive
            else None
        ),
        "store": ResultStore(args.store) if args.store else None,
        "fresh": args.fresh,
        "progress": args.progress,
    }


def execute_or_exit(
    spec,
    scale: str,
    policy: Optional[dict] = None,
    adaptive: Optional[dict] = None,
    store: Optional[ResultStore] = None,
    fresh: bool = False,
    progress: bool = False,
    instrumentation=None,
):
    """The one way the CLI executes a campaign: ``run``, ``all``,
    ``campaign run`` and ``ablate run`` all end here.

    ``policy`` / ``adaptive`` are keyword dicts for
    :class:`ExecutionPolicy` / :class:`AdaptivePolicy`; both are
    validated here so that a bad flag value — like every other
    ``ValueError``/``QueueError`` of the engine — exits with its
    one-line message instead of a traceback.
    """
    from repro.campaigns.adaptive import AdaptivePolicy
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
            reuse=not fresh,
            instrumentation=instrumentation,
            progress=reporter.update if reporter is not None else None,
            adaptive=(
                AdaptivePolicy(**adaptive)
                if adaptive is not None
                else None
            ),
        )
    except (ValueError, QueueError) as exc:
        raise SystemExit(str(exc)) from None
    if reporter is not None:
        reporter.finish()
    return run
