"""The fuzz corpus: content-hashed, replayable fixture files.

A fixture is the serialized form of one runnable payload plus
provenance: everything needed to re-execute the case deterministically,
plus what the search observed when it found it.  It is the repo's one
fixture format — the hand-written broken executions are files too
(``origin: "seed"``).

Identity is content-addressed: :func:`fixture_id` hashes the runnable
triple ``(case, pulses, seed)`` through the campaign engine's
:func:`~repro.campaigns.spec.stable_hash`, so re-discovering the same
minimal counterexample produces the same file name, and provenance
fields (scores, violation summaries) never perturb identity.  Files are
written through :func:`~repro.campaigns.store.dump_json_summary`, the
byte-stable serializer every committed artifact uses.

Layout under ``results/fuzz/``::

    corpus/    fuzz-<id>.json   found by `repro fuzz run` (seed corpus
               entries are committed; CI finds are uploaded artifacts)
    promoted/  fuzz-<id>.json   every committed fixture, copied here
               from corpus/ or written by hand — regression gates a
               bare `repro check fixture` replays
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, List, Optional

from repro.campaigns.spec import stable_hash
from repro.campaigns.store import dump_json_summary

#: Schema tag every fixture file carries (versioned for migrations).
FIXTURE_SCHEMA = "fuzz-fixture/v1"

DEFAULT_FUZZ_DIR = os.path.join("results", "fuzz")
CORPUS_DIR = os.path.join(DEFAULT_FUZZ_DIR, "corpus")
PROMOTED_DIR = os.path.join(DEFAULT_FUZZ_DIR, "promoted")


class MalformedFixtureError(ValueError):
    """A fixture file that does not parse into the expected schema."""


def fixture_id(case: Dict[str, Any], pulses: int, seed: int) -> str:
    """Content hash of the runnable triple (16 hex chars)."""
    return stable_hash({"case": case, "pulses": pulses, "seed": seed})[:16]


def make_fixture(
    case: Dict[str, Any],
    pulses: int,
    seed: int,
    *,
    strategy: str,
    origin: str,
    expect: str,
    summary: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a fixture payload from a fuzz case plus provenance.

    ``origin`` is ``"shrunk"`` (a minimized counterexample),
    ``"interesting"`` (a surviving near-bound corner), or ``"seed"``
    (hand-promoted corpus entry); ``expect`` is ``"violation"`` or
    ``"pass"`` — what a replay must reproduce.
    """
    if expect not in ("violation", "pass"):
        raise ValueError(f"expect must be violation|pass, got {expect!r}")
    return {
        "schema": FIXTURE_SCHEMA,
        "fixture_id": fixture_id(case, pulses, seed),
        "strategy": strategy,
        "origin": origin,
        "expect": expect,
        "case": dict(case),
        "pulses": pulses,
        "seed": seed,
        "summary": dict(summary or {}),
    }


def fixture_path(payload: Dict[str, Any], directory: str) -> str:
    return os.path.join(directory, f"fuzz-{payload['fixture_id']}.json")


def save_fixture(payload: Dict[str, Any], directory: str) -> str:
    """Write a fixture canonically; returns the content-addressed path."""
    return dump_json_summary(fixture_path(payload, directory), payload)


def load_fixture(path: str) -> Dict[str, Any]:
    """Parse and schema-check one fixture file."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise MalformedFixtureError(
            f"fixture file not found: {path}"
        ) from None
    except OSError as exc:
        raise MalformedFixtureError(
            f"{path} cannot be read: {exc.strerror}"
        ) from None
    except ValueError as exc:
        raise MalformedFixtureError(
            f"{path} is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, dict) or payload.get(
        "schema"
    ) != FIXTURE_SCHEMA:
        found = (
            payload.get("schema") if isinstance(payload, dict) else None
        )
        raise MalformedFixtureError(
            f"{path} is not a {FIXTURE_SCHEMA} fixture "
            f"(schema: {found!r})"
        )
    for field in ("fixture_id", "case", "pulses", "seed", "expect"):
        if field not in payload:
            raise MalformedFixtureError(
                f"{path} is missing the {field!r} field"
            )
    return payload


def list_fixtures(directory: str) -> List[str]:
    """Fixture file paths under ``directory``, sorted by name."""
    return sorted(glob.glob(os.path.join(directory, "fuzz-*.json")))
