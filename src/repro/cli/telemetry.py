"""``repro telemetry`` — campaign telemetry sidecars.

``telemetry list``
    Show the fixed metric catalog with one-line meanings.
``telemetry show E4 [--scale quick] [--store DIR] [--metric NAME]``
    Render a campaign's persisted telemetry sidecar (or pass a
    ``.telemetry.json`` path directly).
``telemetry aggregate [--store DIR] [--out FILE]``
    Merge every sidecar in a store into one fleet-level aggregate.
``telemetry diff A B [--scale] [--store DIR] [--changed-only]``
    Counter/gauge deltas between two campaigns' sidecars.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from typing import List, Optional

from repro.campaigns.store import dump_json_summary
from repro.cli.execution import campaign_or_exit
from repro.cli.shared import (
    output_or_exit,
    store_or_exit,
    unknown_name_exit,
)
from repro.telemetry import METRIC_CATALOG, available_metrics
from repro.telemetry.campaign import (
    aggregate_payloads,
    diff_rows,
    render_aggregate,
    render_campaign_telemetry,
    render_diff,
)


def _load_telemetry_sidecar(name: str, scale: str, store_dir):
    """Resolve a campaign name (or a direct path) to its sidecar payload."""
    if name.endswith(".json"):
        if not os.path.exists(name):
            raise SystemExit(f"telemetry sidecar not found: {name}")
        with open(name, encoding="utf-8") as handle:
            return json.load(handle)
    definition = campaign_or_exit(name)
    if not store_dir:
        raise SystemExit(
            "--store is required to look up a campaign's sidecar "
            "(or pass a .telemetry.json path directly)"
        )
    store = store_or_exit(store_dir)
    key = definition.spec().spec_key(scale)
    payload = store.load_summary(key, kind="telemetry")
    if payload is None:
        raise SystemExit(
            f"no telemetry sidecar for campaign {name!r} "
            f"[{scale}] in {store_dir} — run "
            f"'repro campaign run {name} --scale {scale} "
            f"--telemetry --store {store_dir}' first"
        )
    return payload


def _check_metric_names(
    requested: Optional[List[str]], *payloads
) -> Optional[List[str]]:
    """``requested`` if every name is in the catalog or in one of
    ``payloads`` (a diff names metrics either side recorded)."""
    if not requested:
        return None
    available = sorted(
        {name for payload in payloads for name in available_metrics(payload)}
    )
    for name in requested:
        if name not in available:
            raise unknown_name_exit(name, "metric", available)
    return list(requested)


def _command_telemetry_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in METRIC_CATALOG)
    for name, meaning in sorted(METRIC_CATALOG.items()):
        print(f"{name:<{width}}  {meaning}")
    return 0


def _command_telemetry_show(args: argparse.Namespace) -> int:
    payload = _load_telemetry_sidecar(
        args.campaign, args.scale, args.store
    )
    metrics = _check_metric_names(args.metric, payload)
    print(render_campaign_telemetry(payload, metrics))
    return 0


def _command_telemetry_aggregate(args: argparse.Namespace) -> int:
    if args.out:
        output_or_exit(args.out)
    paths = sorted(
        glob.glob(os.path.join(args.store, "*.telemetry.json"))
    )
    if not paths:
        raise SystemExit(
            f"no *.telemetry.json sidecars under {args.store!r} "
            f"(run 'repro campaign run NAME --telemetry --store "
            f"{args.store}' first)"
        )
    payloads = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    merged = aggregate_payloads(payloads)
    print(
        f"telemetry aggregate: {merged['sidecars']} sidecar(s), "
        f"{merged['instrumented']} instrumented trial(s) — "
        f"{', '.join(merged['campaigns'])}"
    )
    print(render_aggregate(merged["aggregate"]))
    if args.out:
        dump_json_summary(args.out, merged)
        print(f"wrote {args.out}")
    return 0


def _command_telemetry_diff(args: argparse.Namespace) -> int:
    left = _load_telemetry_sidecar(args.a, args.scale, args.store)
    right = _load_telemetry_sidecar(args.b, args.scale, args.store)
    rows = diff_rows(left, right)
    metrics = _check_metric_names(args.metric, left, right)
    print(
        f"telemetry diff: a={left.get('campaign', '?')}"
        f"[{left.get('scale', '?')}] "
        f"b={right.get('campaign', '?')}[{right.get('scale', '?')}]"
    )
    print(render_diff(rows, metrics, changed_only=args.changed_only))
    return 0


def register_telemetry(parser: argparse.ArgumentParser) -> None:
    telemetry_sub = parser.add_subparsers(
        dest="telemetry_command", required=True
    )

    telemetry_sub.add_parser(
        "list", help="list the metric catalog"
    ).set_defaults(handler=_command_telemetry_list)

    telemetry_show_parser = telemetry_sub.add_parser(
        "show", help="render one campaign's telemetry sidecar"
    )
    telemetry_show_parser.add_argument(
        "campaign",
        help="campaign id (e.g. E4) or a .telemetry.json path",
    )
    telemetry_show_parser.add_argument("--scale", default="quick")
    telemetry_show_parser.add_argument(
        "--store", help="result-store directory holding the sidecar"
    )
    telemetry_show_parser.add_argument(
        "--metric", action="append",
        help="restrict output to this metric (repeatable)",
    )
    telemetry_show_parser.set_defaults(handler=_command_telemetry_show)

    telemetry_aggregate_parser = telemetry_sub.add_parser(
        "aggregate",
        help="merge every sidecar in a store into one aggregate",
    )
    telemetry_aggregate_parser.add_argument(
        "--store", required=True,
        help="result-store directory to scan for *.telemetry.json",
    )
    telemetry_aggregate_parser.add_argument(
        "--out", help="also write the merged aggregate as JSON"
    )
    telemetry_aggregate_parser.set_defaults(
        handler=_command_telemetry_aggregate
    )

    telemetry_diff_parser = telemetry_sub.add_parser(
        "diff", help="counter/gauge deltas between two sidecars"
    )
    telemetry_diff_parser.add_argument(
        "a", help="campaign id or .telemetry.json path (left side)"
    )
    telemetry_diff_parser.add_argument(
        "b", help="campaign id or .telemetry.json path (right side)"
    )
    telemetry_diff_parser.add_argument("--scale", default="quick")
    telemetry_diff_parser.add_argument(
        "--store", help="result-store directory holding the sidecars"
    )
    telemetry_diff_parser.add_argument(
        "--metric", action="append",
        help="restrict output to this metric (repeatable)",
    )
    telemetry_diff_parser.add_argument(
        "--changed-only", action="store_true",
        help="hide metrics whose delta is zero",
    )
    telemetry_diff_parser.set_defaults(handler=_command_telemetry_diff)
