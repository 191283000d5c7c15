"""Property-based search for theorem-bound violations.

The conformance engine judges *hand-written* scenarios; this package
turns the monitors into a counterexample **oracle**: Hypothesis
strategies synthesize registry-keyed cases — delay policies within the
``d``/``u`` envelope, Byzantine behaviours composed from the registry's
adversary primitives, fault schedules validated against the ``f``
budget — and a driver runs each one through the scheduler's ``checks=``
hook.  Any monitor FAIL is a found counterexample; Hypothesis shrinking
reduces it to a minimal case that is serialized as a deterministic,
content-hashed fixture; a fixture copied into
``results/fuzz/promoted/`` is replayed by CI as a permanent regression
gate.

``strategies``
    The search spaces: :func:`valid_cps_cases`,
    :func:`valid_churn_cases`, their union :func:`fuzz_cases`, and the
    deliberately-broken :func:`known_bad_cases` region (E8's
    ``u_tilde >> u`` corner) used to sanity-gate the oracle.
``oracle``
    :func:`replay_fixture` — one payload through the conformance
    engine's :func:`~repro.checks.conformance.judged_run` —
    :func:`expectation_met`, the one statement of what a fixture's
    ``expect`` field demands, and :func:`interest_score`, the worst
    headroom of the ``skew`` / ``stabilization`` verdicts (the fuzzer
    derives no ratio of its own).
``corpus``
    Content-hashed fixture files under ``results/fuzz/`` —
    save/load/list.
``driver``
    :func:`search` — the budgeted Hypothesis loop with shrink capture
    and interesting-corner ranking by :func:`interest_score`.

See ``docs/FUZZING.md`` for the workflow.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "corpus": (
            "FIXTURE_SCHEMA",
            "fixture_id",
            "fixture_path",
            "list_fixtures",
            "load_fixture",
            "make_fixture",
            "save_fixture",
        ),
        "driver": (
            "available_strategies",
            "render_fuzz_report",
            "search",
        ),
        "oracle": (
            "expectation_met",
            "interest_score",
            "replay_fixture",
        ),
        "strategies": (
            "known_bad_cases",
            "valid_churn_cases",
            "valid_cps_cases",
        ),
    },
)
