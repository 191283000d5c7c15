"""``repro scenarios`` — the scenario registry.

``scenarios list [--kind adversary|delay|topology|drift|churn]``
    Show the scenario registry: every adversary behaviour, delay
    policy, topology, drift profile, and churn (fault-schedule)
    profile a campaign case can name.
``scenarios show eclipse`` / ``scenarios show delay:random``
    Describe one entry: description, paper reference, parameters,
    tags.  Qualify with ``kind:`` when a key exists in several kinds.
    Churn profiles additionally render their fault-event schedule as
    a per-event table (at the reference configuration).
"""

from __future__ import annotations

import argparse

from repro import scenarios
from repro.cli.shared import unknown_name_exit


def _command_scenarios_list(args: argparse.Namespace) -> int:
    entries = scenarios.entries(args.kind)
    for entry in entries:
        print(f"{entry.kind:<10} {entry.key:<22} {entry.description}")
    kinds = args.kind or "/".join(scenarios.KINDS)
    print(f"\n{len(entries)} registered scenarios ({kinds})")
    return 0


def _command_scenarios_show(args: argparse.Namespace) -> int:
    key = args.key
    if args.kind and ":" not in key:
        key = f"{args.kind}:{key}"
    matches = scenarios.find(key)
    if not matches:
        # Surface the registry's did-you-mean hint as a clean exit.
        kind, _, bare = (
            key.partition(":") if ":" in key else (args.kind, "", key)
        )
        if kind:
            # Surfaces the registry's did-you-mean hint; unwrapped from
            # the KeyError repr by the main() handler.
            scenarios.get(kind, bare)
        raise unknown_name_exit(
            args.key, "scenario", sorted(set(scenarios.keys()))
        )
    if len(matches) > 1:
        names = ", ".join(entry.qualified for entry in matches)
        raise SystemExit(
            f"{args.key!r} is ambiguous: {names} "
            f"(qualify as kind:key or pass --kind)"
        )
    entry = matches[0]
    print(f"{entry.qualified} — {entry.description}")
    if entry.paper_ref:
        print(f"  paper      {entry.paper_ref}")
    if entry.tags:
        print(f"  tags       {', '.join(sorted(entry.tags))}")
    if entry.params:
        print("  parameters")
        for spec in entry.params:
            doc = f"  — {spec.doc}" if spec.doc else ""
            print(f"    {spec.render()}{doc}")
    else:
        print("  parameters (none)")
    if entry.kind == "churn":
        # Churn profiles *are* their fault schedules; render the
        # events as a table (trigger / kind / node) at the reference
        # configuration instead of leaving the schedule opaque.
        from repro.checks.conformance import CPS_BASE_CASE
        from repro.core.params import derive_parameters

        params = derive_parameters(
            theta=CPS_BASE_CASE["theta"],
            d=CPS_BASE_CASE["d"],
            u=CPS_BASE_CASE["u"],
            n=CPS_BASE_CASE["n"],
        )
        schedule = scenarios.create("churn", entry.key, params)
        label = schedule.description or "fault events"
        print(f"  schedule   {label} (reference n={params.n})")
        for line in schedule.describe().splitlines():
            print(f"    {line}")
    return 0


def register_scenarios(parser: argparse.ArgumentParser) -> None:
    scenarios_sub = parser.add_subparsers(
        dest="scenarios_command", required=True
    )

    scenarios_list_parser = scenarios_sub.add_parser(
        "list", help="list registered scenarios"
    )
    scenarios_list_parser.add_argument(
        "--kind", choices=scenarios.KINDS, default=None,
        help="restrict to one scenario kind",
    )
    scenarios_list_parser.set_defaults(handler=_command_scenarios_list)

    scenarios_show_parser = scenarios_sub.add_parser(
        "show", help="describe one scenario entry"
    )
    scenarios_show_parser.add_argument(
        "key", help="scenario key, optionally qualified as kind:key"
    )
    scenarios_show_parser.add_argument(
        "--kind", choices=scenarios.KINDS, default=None,
        help="disambiguate keys that exist in several kinds",
    )
    scenarios_show_parser.set_defaults(handler=_command_scenarios_show)
