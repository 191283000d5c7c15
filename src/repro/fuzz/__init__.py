"""Property-based search for theorem-bound violations.

The conformance engine judges *hand-written* scenarios; this package
turns the monitors into a counterexample **oracle**: Hypothesis
strategies synthesize registry-keyed cases — delay policies within the
``d``/``u`` envelope, Byzantine behaviours composed from the registry's
adversary primitives, fault schedules validated against the ``f``
budget — and a driver runs each one through the scheduler's ``checks=``
hook.  Any monitor FAIL is a found counterexample; Hypothesis shrinking
reduces it to a minimal case that is serialized as a deterministic,
content-hashed fixture and can be promoted into
``results/fuzz/promoted/``, which CI replays as a permanent regression
gate.

``strategies``
    The search spaces: :func:`valid_cps_cases`,
    :func:`valid_churn_cases`, their union :func:`fuzz_cases`, and the
    deliberately-broken :func:`known_bad_cases` region (E8's
    ``u_tilde >> u`` corner) used to sanity-gate the oracle.
``oracle``
    :func:`replay_fixture` — one payload through the conformance
    engine's :func:`~repro.checks.conformance.judged_run` — the
    byte-stable :func:`verdict_payload` for deterministic replay, and
    :func:`expectation_met`, the one statement of what a fixture's
    ``expect`` field demands.
``corpus``
    Content-hashed fixture files under ``results/fuzz/`` —
    save/load/list and promotion into the replayed ``promoted/``
    directory.
``driver``
    :func:`search` — the budgeted Hypothesis loop with shrink capture
    and interesting-corner scoring (near-bound skew, envelope-grazing
    resync).

See ``docs/FUZZING.md`` for the workflow.
"""

from repro.fuzz.corpus import (
    CORPUS_DIR,
    FIXTURE_SCHEMA,
    PROMOTED_DIR,
    fixture_id,
    fixture_path,
    list_fixtures,
    load_fixture,
    make_fixture,
    promote_fixture,
    save_fixture,
)
from repro.fuzz.driver import (
    DEFAULT_BUDGET,
    INTERESTING_FLOOR,
    FuzzReport,
    available_strategies,
    render_fuzz_report,
    search,
)
from repro.fuzz.oracle import (
    expectation_met,
    interest_score,
    replay_fixture,
    verdict_payload,
)
from repro.fuzz.strategies import (
    fuzz_cases,
    known_bad_cases,
    valid_cps_cases,
    valid_churn_cases,
)

__all__ = [
    "CORPUS_DIR",
    "DEFAULT_BUDGET",
    "FIXTURE_SCHEMA",
    "INTERESTING_FLOOR",
    "PROMOTED_DIR",
    "FuzzReport",
    "available_strategies",
    "expectation_met",
    "fixture_id",
    "fixture_path",
    "fuzz_cases",
    "interest_score",
    "known_bad_cases",
    "list_fixtures",
    "load_fixture",
    "make_fixture",
    "promote_fixture",
    "render_fuzz_report",
    "replay_fixture",
    "save_fixture",
    "search",
    "valid_cps_cases",
    "valid_churn_cases",
    "verdict_payload",
]
