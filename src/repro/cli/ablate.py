"""``repro ablate`` — the protocol ablation engine.

``ablate plan [--tier quick] [--component NAME ...] [--pairwise]``
    Expand the ablation challenge matrix (baseline-plus-one-off per
    component, optionally pairwise) and show every planned trial with
    its content-addressed case key.
``ablate run [--tier quick] [--workers 8] [--store DIR]
[--out results/ablation.json]``
    Execute the matrix through the campaign engine, print the
    per-component importance table (monitor flips + skew deltas), and
    write the byte-stable committed artifact (tier-1's
    ``tests/test_ablation.py`` re-runs it and compares the bytes).  A
    run narrowed by ``--component`` / ``--pairwise`` / ``--tier`` /
    ``--seed`` rewrites the committed file only via ``--out``.
``ablate report [--path results/ablation.json]``
    Render the committed importance artifact without executing
    anything.  Catalog semantics in ``docs/ABLATIONS.md``.
"""

from __future__ import annotations

import argparse
import json
import os

from repro.ablation import (
    AblationSpec,
    ablation_campaign_spec,
    ablation_report,
    planned_trials,
    render_ablation_table,
)
from repro.campaigns.store import dump_json_summary
from repro.cli.execution import execute_or_exit, execution_flags
from repro.cli.shared import (
    artifact_out,
    execution_parent,
    output_or_exit,
)

DEFAULT_ABLATION = os.path.join("results", "ablation.json")


def _ablation_spec(args: argparse.Namespace):
    return AblationSpec(
        components=tuple(args.component or ()),
        pairwise=args.pairwise,
        seed=args.seed,
    )


def _case_scenario_summary(case) -> str:
    """The scenario-registry keys a case names, compactly."""
    parts = [
        f"{kind}={case[kind]}"
        for kind in ("adversary", "churn", "topology")
        if case.get(kind) is not None
    ]
    return ", ".join(parts) or "silent"


def _command_ablate_plan(args: argparse.Namespace) -> int:
    spec = _ablation_spec(args)
    pairs = planned_trials(spec, args.tier)
    campaign = ablation_campaign_spec(spec)
    print(
        f"ablation matrix [{args.tier}] — {len(pairs)} trials "
        f"({len(spec.selected())} components"
        + (", pairwise" if spec.pairwise else "")
        + f"), seed {spec.seed}, spec key "
        f"{campaign.spec_key(args.tier)}"
    )
    for run, plan in pairs:
        print(
            f"  {run.label:<42} {plan.case_key}  "
            f"seed={plan.seed}  [{_case_scenario_summary(run.case)}]"
        )
    return 0


def _command_ablate_run(args: argparse.Namespace) -> int:
    if args.out:
        output_or_exit(args.out)
    spec = _ablation_spec(args)
    run = execute_or_exit(
        ablation_campaign_spec(spec), args.tier, **execution_flags(args)
    )
    payload = ablation_report(spec, run)
    print(render_ablation_table(payload).render())
    print()
    print(run.summary() + f" (workers={args.workers})")
    if run.failed:
        for record in run.failures():
            print(f"  TRIAL ERROR {record.case_key}: {record.error}")
        return 1
    out = artifact_out(
        args.out,
        DEFAULT_ABLATION,
        {
            "--component": (spec.components, ()),
            "--pairwise": (args.pairwise, False),
            "--tier": (args.tier, "quick"),
            "--seed": (args.seed, 53),
        },
    )
    if out:
        dump_json_summary(out, payload)
        print(f"wrote {out}")
    return 0


def _command_ablate_report(args: argparse.Namespace) -> int:
    try:
        with open(args.path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            f"{args.path} not found; generate it with "
            f"'repro ablate run'"
        ) from None
    except OSError as exc:
        raise SystemExit(
            f"{args.path} cannot be read: {exc.strerror}"
        ) from None
    except ValueError as exc:
        raise SystemExit(
            f"{args.path} is not valid JSON: {exc}"
        ) from None
    try:
        table = render_ablation_table(payload)
    except (KeyError, TypeError) as exc:
        raise SystemExit(
            f"{args.path} is not an ablation artifact "
            f"({type(exc).__name__}: {exc})"
        ) from None
    print(table.render())
    summary = payload.get("summary", {})
    flips = summary.get("flips", {})
    print()
    for component in sorted(flips):
        names = ", ".join(flips[component]) or "(none)"
        print(f"  {component:<20} flips: {names}")
    print(
        f"\n{summary.get('flipping', 0)}/"
        f"{summary.get('components', 0)} components flip at least "
        f"one monitor (campaign seed {payload.get('seed')}, "
        f"scale {payload.get('scale')})"
    )
    return 0


def register_ablate(parser: argparse.ArgumentParser) -> None:
    ablate_sub = parser.add_subparsers(
        dest="ablate_command", required=True
    )

    ablate_shared = argparse.ArgumentParser(add_help=False)
    ablate_shared.add_argument(
        "--tier", choices=("quick", "full"), default="quick",
        help="measurement tier (default quick — the CI matrix)",
    )
    ablate_shared.add_argument(
        "--component", action="append", metavar="NAME",
        help="restrict to this component (repeatable; unknown names "
        "get a did-you-mean hint; default: all)",
    )
    ablate_shared.add_argument(
        "--pairwise", action="store_true",
        help="also switch off every selected pair together "
        "(interaction effects)",
    )
    ablate_shared.add_argument(
        "--seed", type=int, default=53,
        help="campaign seed keying every derived trial seed "
        "(default 53, the committed artifact's seed)",
    )

    ablate_plan_parser = ablate_sub.add_parser(
        "plan",
        help="show the expanded matrix: every planned trial with its "
        "content-addressed case key",
        parents=[ablate_shared],
    )
    ablate_plan_parser.set_defaults(handler=_command_ablate_plan)

    ablate_run_parser = ablate_sub.add_parser(
        "run",
        help="execute the matrix and write the importance artifact",
        parents=[ablate_shared, execution_parent()],
    )
    ablate_run_parser.add_argument(
        "--out", default=None,
        help=f"importance artifact path (default {DEFAULT_ABLATION})",
    )
    ablate_run_parser.set_defaults(handler=_command_ablate_run)

    ablate_report_parser = ablate_sub.add_parser(
        "report",
        help="render the committed importance artifact (no execution)",
    )
    ablate_report_parser.add_argument(
        "--path", default=DEFAULT_ABLATION,
        help=f"artifact to render (default {DEFAULT_ABLATION})",
    )
    ablate_report_parser.set_defaults(handler=_command_ablate_report)
