"""``repro check`` — the conformance engine.

``check list``
    Show the conformance monitors (one per paper guarantee) and the
    scenarios each applies to.
``check run eclipse [--kind delay] [--monitor skew] [--scale quick]
[--param key=value]``
    Conformance-run one registry scenario with streaming monitors
    attached; non-zero exit on any violation.  ``--param`` forwards
    factory overrides (e.g. ``--param cycles=3`` on a churn profile);
    malformed fault schedules exit cleanly with the validation error.
``check matrix [--scale quick] [--out results/conformance.json]``
    Sweep every applicable registry scenario and render the
    scenario x monitor pass/fail matrix (the CI conformance gate).
    A sweep narrowed by ``--kind`` / ``--scale`` / ``--seed`` /
    ``--backend`` rewrites the committed file only via ``--out``.
``check fixture [--fixture PATH ...]``
    Replay fixture files against their recorded expectations (exit
    non-zero if any replay contradicts its file) — by default every
    file under ``results/fuzz/promoted/``, which holds the
    deliberately-broken executions proving the monitors fire (the E8
    ``u_tilde >> u`` corner, a recovery that never happens, a shrunk
    fuzz counterexample).
"""

from __future__ import annotations

import argparse
import ast
import os
from dataclasses import replace
from typing import List, Optional

from repro import scenarios
from repro.checks import MONITOR_CATALOG, applicable_monitors
from repro.cli.shared import (
    artifact_out,
    backend_parent,
    output_or_exit,
    unknown_name_exit,
)

DEFAULT_CONFORMANCE = os.path.join("results", "conformance.json")


def _parse_param_overrides(pairs: Optional[List[str]]) -> dict:
    """Parse repeated ``--param key=value`` flags into overrides.

    Values are Python literals when they parse as one (ints, floats,
    tuples, ``None``) and strings otherwise.
    """
    overrides = {}
    for pair in pairs or []:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise SystemExit(
                f"--param expects key=value, got {pair!r}"
            )
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[key] = value
    return overrides


def _resolve_check_scenario(key: str, kind: Optional[str]):
    """Resolve a (possibly qualified) scenario key for ``check run``."""
    lookup = key
    if kind and ":" not in lookup:
        lookup = f"{kind}:{lookup}"
    matches = scenarios.find(lookup)
    if not matches:
        raise unknown_name_exit(
            key,
            "scenario",
            sorted(set(scenarios.keys())),
        )
    if len(matches) > 1:
        names = ", ".join(entry.qualified for entry in matches)
        raise SystemExit(
            f"{key!r} is ambiguous: {names} "
            f"(qualify as kind:key or pass --kind)"
        )
    return matches[0]


def _resolve_check_monitors(
    requested: Optional[List[str]], kind: str, key: str
) -> Optional[List[str]]:
    """Validate ``--monitor`` names against catalog and applicability."""
    if not requested:
        return None
    names = list(MONITOR_CATALOG)
    applicable = applicable_monitors(kind, key)
    for name in requested:
        if name not in names:
            raise unknown_name_exit(name, "monitor", names)
        if name not in applicable:
            raise SystemExit(
                f"monitor {name!r} is not applicable to {kind}:{key} "
                f"(applicable: {', '.join(applicable)})"
            )
    return list(requested)


def _command_check_list(_args: argparse.Namespace) -> int:
    counts = {name: 0 for name in MONITOR_CATALOG}
    for entry in scenarios.entries():
        for name in applicable_monitors(entry.kind, entry.key):
            counts[name] += 1
    for name, claim in MONITOR_CATALOG.items():
        print(f"{name:<16} {claim}  [{counts[name]} scenarios]")
    return 0


def _command_check_run(args: argparse.Namespace) -> int:
    from repro.build import resolve_backend
    from repro.checks import check_scenario, render_report

    entry = _resolve_check_scenario(args.key, args.kind)
    monitors = _resolve_check_monitors(
        args.monitor, entry.kind, entry.key
    )
    report = check_scenario(
        entry.kind,
        entry.key,
        scale=args.scale,
        seed=args.seed,
        overrides=_parse_param_overrides(args.param),
        backend=resolve_backend(args.backend),
    )
    if monitors is not None:
        report = replace(
            report,
            verdicts=tuple(
                v for v in report.verdicts if v.monitor in monitors
            ),
        )
    print(render_report(report))
    return 0 if report.ok else 1


def _command_check_matrix(args: argparse.Namespace) -> int:
    from repro.build import resolve_backend
    from repro.campaigns.store import dump_json_summary
    from repro.checks import conformance_matrix, render_matrix

    if args.out:
        output_or_exit(args.out)
    kinds = args.kind if args.kind else None
    backend = resolve_backend(args.backend)
    payload = conformance_matrix(
        scale=args.scale, seed=args.seed, kinds=kinds, backend=backend
    )
    print(render_matrix(payload))
    out = artifact_out(
        args.out,
        DEFAULT_CONFORMANCE,
        {
            "--kind": (kinds, None),
            "--scale": (args.scale, "quick"),
            "--seed": (args.seed, 0),
            "--backend": (backend, "event"),
        },
    )
    if out:
        dump_json_summary(out, payload)
        print(f"wrote {out}")
    return 0 if payload["pass"] else 1


def _replay_fixture_file(path: str) -> bool:
    """Replay one fixture file; ``True`` iff the run still does what
    the file records (a ``violation`` fixture must fire)."""
    from repro.cli.fuzz import load_fixture_or_exit
    from repro.fuzz import expectation_met, replay_fixture

    payload = load_fixture_or_exit(path)
    run = replay_fixture(payload)
    violations = run.violations()
    for violation in violations:
        print(f"! {violation.describe()}")
    name = f"fuzz-{payload['fixture_id']}"
    if violations:
        print(
            f"{name} fixture raised {len(violations)} violation(s) — "
            f"the monitors fire"
        )
    else:
        print(f"{name} fixture raised NO violations")
    if expectation_met(payload, run):
        return True
    print(
        f"{name} expects "
        + ("no violations" if violations else "a violation")
        + " — the replay CONTRADICTS the recorded expectation"
    )
    return False


def _command_check_fixture(args: argparse.Namespace) -> int:
    from repro.fuzz.corpus import PROMOTED_DIR, list_fixtures

    paths = args.fixture or list_fixtures(PROMOTED_DIR)
    if not paths:
        raise SystemExit(f"no fixture files under {PROMOTED_DIR}")
    # Every file is replayed, failing or not.
    held = [_replay_fixture_file(path) for path in paths]
    return 0 if all(held) else 1


def register_check(parser: argparse.ArgumentParser) -> None:
    check_sub = parser.add_subparsers(
        dest="check_command", required=True
    )

    check_sub.add_parser(
        "list", help="list the conformance monitors and their claims"
    ).set_defaults(handler=_command_check_list)

    check_run_parser = check_sub.add_parser(
        "run", help="conformance-run one registry scenario",
        parents=[backend_parent()],
    )
    check_run_parser.add_argument(
        "key", help="scenario key, optionally qualified as kind:key"
    )
    check_run_parser.add_argument(
        "--kind", choices=scenarios.KINDS, default=None,
        help="disambiguate keys that exist in several kinds",
    )
    check_run_parser.add_argument(
        "--monitor", action="append",
        help="restrict the report to this monitor (repeatable); must "
        "be applicable to the scenario",
    )
    check_run_parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    check_run_parser.add_argument("--seed", type=int, default=0)
    check_run_parser.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="scenario-factory override (repeatable), e.g. "
        "--param cycles=3 on a churn profile",
    )
    check_run_parser.set_defaults(handler=_command_check_run)

    check_matrix_parser = check_sub.add_parser(
        "matrix",
        help="sweep every applicable registry scenario and render the "
        "scenario x monitor pass/fail matrix",
        parents=[backend_parent()],
    )
    check_matrix_parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    check_matrix_parser.add_argument("--seed", type=int, default=0)
    check_matrix_parser.add_argument(
        "--kind", action="append", choices=scenarios.KINDS,
        help="restrict to one scenario kind (repeatable)",
    )
    check_matrix_parser.add_argument(
        "--out", default=None,
        help=f"JSON verdicts file (default {DEFAULT_CONFORMANCE}; "
        "empty string to skip)",
    )
    check_matrix_parser.set_defaults(handler=_command_check_matrix)

    check_fixture_parser = check_sub.add_parser(
        "fixture",
        help="replay fixture files against their recorded expectations",
    )
    check_fixture_parser.add_argument(
        "--fixture", nargs="+", action="extend", metavar="PATH",
        help="fixture files to replay against their recorded "
        "expectations (repeatable; default: every file under "
        "results/fuzz/promoted/)",
    )
    check_fixture_parser.set_defaults(handler=_command_check_fixture)
