"""``repro list | run | all | params`` — the experiment catalog.

``list``
    Show every experiment id with its one-line description.
``run E4 [--scale full] [--csv out.csv]``
    Run one experiment and print its table (``campaign run E4`` with
    default flags, minus the execution summary).
``all [--scale quick] [--out results/]``
    Run every experiment, printing tables (and writing CSVs if asked).
``params --theta 1.001 --d 1.0 --u 0.01 --n 8``
    Derive and display CPS parameters and every bound of Theorem 17.
"""

from __future__ import annotations

import argparse
import os
from typing import List

from repro.analysis import theory
from repro.campaigns import available_campaigns, campaign_definition
from repro.cli.execution import campaign_or_exit, execute_or_exit
from repro.core.params import derive_parameters, max_faults


def _experiment_ids() -> List[str]:
    """Every registered id, A-series first, E1..E10 in numeric order."""
    return sorted(available_campaigns(), key=lambda k: (k[0], len(k), k))


def _command_list(_args: argparse.Namespace) -> int:
    for name in _experiment_ids():
        print(f"{name:<4} {campaign_definition(name).description}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    definition = campaign_or_exit(args.experiment, noun="experiment")
    table = definition.tabulate(
        execute_or_exit(definition.spec(), args.scale)
    )
    print(table.render())
    if args.csv:
        table.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _command_all(args: argparse.Namespace) -> int:
    for name in _experiment_ids():
        definition = campaign_definition(name)
        table = definition.tabulate(
            execute_or_exit(definition.spec(), args.scale)
        )
        print(table.render())
        print()
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            table.to_csv(os.path.join(args.out, f"{name.lower()}.csv"))
    return 0


def _command_params(args: argparse.Namespace) -> int:
    from repro.sim.errors import ConfigurationError

    try:
        params = derive_parameters(
            theta=args.theta,
            d=args.d,
            u=args.u,
            n=args.n,
            f=args.f,
            T=args.T,
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"n={params.n}  f={params.f} (max {max_faults(params.n)})  "
        f"theta={params.theta}  d={params.d}  u={params.u}"
    )
    for name, value in theory.summary(params).items():
        print(f"  {name:<26} {value:.9g}")
    return 0


def register_list(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_command_list)


def register_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", help="experiment id, e.g. E4")
    parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    parser.add_argument("--csv", help="also write the table as CSV")
    parser.set_defaults(handler=_command_run)


def register_all(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    parser.add_argument("--out", help="directory for CSV outputs")
    parser.set_defaults(handler=_command_all)


def register_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, required=True)
    parser.add_argument("--d", type=float, required=True)
    parser.add_argument("--u", type=float, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--f", type=int, default=None)
    parser.add_argument("--T", type=float, default=None)
    parser.set_defaults(handler=_command_params)
