"""``repro store`` — result-store maintenance.

``store list|merge|compact --store DIR [KEY ...] [--drop-corrupt]``
    Result-store maintenance: show keys/shards, fold worker shards
    into the base files (deduped by case key), drop superseded or
    (with ``--drop-corrupt``) undecodable lines.
"""

from __future__ import annotations

import argparse
from typing import List

from repro.campaigns import CorruptStoreError, ResultStore
from repro.cli.shared import store_or_exit


def _store_keys_or_exit(store: ResultStore, keys: List[str]) -> List[str]:
    if keys:
        return keys
    found = store.keys()
    if not found:
        raise SystemExit(f"no result stores under {store.root!r}")
    return found


def _command_store_list(args: argparse.Namespace) -> int:
    store = store_or_exit(args.store)
    for key in _store_keys_or_exit(store, args.keys):
        try:
            count = store.count(key)
        except CorruptStoreError as exc:
            print(f"{key}: CORRUPT — {exc}")
            continue
        shards = store.shards(key)
        suffix = (
            f" ({len(shards)} shard(s): {', '.join(shards)})"
            if shards
            else ""
        )
        print(f"{key}: {count} record(s){suffix}")
    return 0


def _command_store_merge(args: argparse.Namespace) -> int:
    store = store_or_exit(args.store)
    for key in _store_keys_or_exit(store, args.keys):
        try:
            result = store.merge(key)
        except CorruptStoreError as exc:
            raise SystemExit(str(exc)) from None
        print(
            f"{key}: merged {result['shards']} shard(s) into the "
            f"base file — {result['records']} record(s), "
            f"{result['dropped']} superseded line(s) dropped"
        )
    return 0


def _command_store_compact(args: argparse.Namespace) -> int:
    store = store_or_exit(args.store)
    for key in _store_keys_or_exit(store, args.keys):
        try:
            result = store.compact(key, drop_corrupt=args.drop_corrupt)
        except CorruptStoreError as exc:
            raise SystemExit(
                f"{exc}\n(re-run with --drop-corrupt to discard "
                f"undecodable lines)"
            ) from None
        print(
            f"{key}: compacted — {result['records']} record(s) kept, "
            f"{result['dropped']} line(s) dropped"
        )
    return 0


def register_store(parser: argparse.ArgumentParser) -> None:
    store_sub = parser.add_subparsers(
        dest="store_command", required=True
    )

    store_list_parser = store_sub.add_parser(
        "list", help="list spec keys, record counts, and shards"
    )
    store_merge_parser = store_sub.add_parser(
        "merge",
        help="fold worker shards into each base file (deduped by "
        "case key, idempotent)",
    )
    store_compact_parser = store_sub.add_parser(
        "compact",
        help="rewrite files without superseded duplicate lines",
    )
    for parser_ in (
        store_list_parser, store_merge_parser, store_compact_parser
    ):
        parser_.add_argument(
            "--store", required=True,
            help="result-store directory",
        )
        parser_.add_argument(
            "keys", nargs="*",
            help="spec keys to operate on (default: every key)",
        )
    store_compact_parser.add_argument(
        "--drop-corrupt", action="store_true",
        help="discard undecodable interior lines instead of failing "
        "(salvages a damaged store)",
    )
    store_list_parser.set_defaults(handler=_command_store_list)
    store_merge_parser.set_defaults(handler=_command_store_merge)
    store_compact_parser.set_defaults(handler=_command_store_compact)
