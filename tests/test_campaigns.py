"""Campaign engine: specs, executor, result store, aggregation.

The satellite guarantees under test:

* grids come from declarative per-scale specs (``grid_for``), with
  deterministic per-case seeds independent of dict ordering;
* the result store round-trips records (including errors), hits the
  cache on identical keys, misses on changed parameters, and resumes
  partially-run campaigns by executing only the missing cases;
* serial and process-pool execution produce identical aggregated rows.
"""

import contextlib
import math
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.campaigns import (
    CampaignSpec,
    ExecutionPolicy,
    MeasurementSpec,
    ResultStore,
    ScenarioSpec,
    TrialRecord,
    available_campaigns,
    campaign_definition,
    derive_seed,
    execute_campaign,
    register_builder,
    resolve_builder,
    scales_of,
    stable_hash,
)
from repro.campaigns.aggregate import (
    failure_counts,
    records_to_table,
    run_summary_table,
    summary_stats,
)
from repro.campaigns.spec import SCENARIO_CASE_KEYS, UnknownScaleError
from repro.scenarios import UnknownScenarioError


# ----------------------------------------------------------------------
# Cheap builders for executor tests (fork start method: registrations
# made at import time here are inherited by pool workers).
# ----------------------------------------------------------------------


@register_builder("test-square")
def _square_trial(case, measurement, seed):
    return {"square": case["x"] ** 2, "seed_used": seed}


@register_builder("test-boom")
def _boom_trial(case, measurement, seed):
    raise ValueError(f"boom on {case['x']}")


_PYTEST_PID = os.getpid()


@register_builder("test-crash")
def _crash_trial(case, measurement, seed):
    # Kills the pool worker running it (never the test process itself)
    # while the marker file exists: a broken pool, not a trial error.
    if os.getpid() != _PYTEST_PID and os.path.exists(case["marker"]):
        os._exit(1)
    return {"x": case["x"]}


def _raise_timeout(item):
    raise TimeoutError(f"task {item} says so")


def _square_spec(xs=(1, 2, 3), name="squares", seed=0):
    return CampaignSpec(
        name=name,
        scenarios=(
            ScenarioSpec(builder="test-square", axes={"*": {"x": xs}}),
        ),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


class TestScenarioSpec:
    def test_grid_is_cartesian_product_in_axis_order(self):
        scenario = ScenarioSpec(
            builder="b",
            base={"c": 0},
            axes={"*": {"a": (1, 2), "b": ("x", "y")}},
        )
        grid = scenario.grid_for("quick")
        assert grid == [
            {"c": 0, "a": 1, "b": "x"},
            {"c": 0, "a": 1, "b": "y"},
            {"c": 0, "a": 2, "b": "x"},
            {"c": 0, "a": 2, "b": "y"},
        ]

    def test_explicit_cases_cross_axes_cases_outermost(self):
        scenario = ScenarioSpec(
            builder="b",
            axes={"*": {"adv": ("s", "m")}},
            cases={"*": ({"n": 6}, {"n": 9})},
        )
        grid = scenario.grid_for("quick")
        assert [(case["n"], case["adv"]) for case in grid] == [
            (6, "s"), (6, "m"), (9, "s"), (9, "m"),
        ]

    def test_unknown_scale_falls_back_to_full(self):
        scenario = ScenarioSpec(
            builder="b",
            axes={"quick": {"x": (1,)}, "full": {"x": (1, 2, 3)}},
        )
        assert len(scenario.grid_for("stress")) == 3

    def test_stress_tier_is_one_line(self):
        scenario = ScenarioSpec(
            builder="b",
            axes={
                "quick": {"x": (1,)},
                "full": {"x": (1, 2)},
                "stress": {"x": tuple(range(50))},
            },
        )
        assert len(scenario.grid_for("stress")) == 50
        assert len(scenario.grid_for("quick")) == 1

    def test_case_overrides_base(self):
        scenario = ScenarioSpec(
            builder="b", base={"x": 1}, cases={"*": ({"x": 7},)}
        )
        assert scenario.grid_for("quick") == [{"x": 7}]


class TestSeeds:
    def test_derived_seed_ignores_dict_ordering(self):
        a = derive_seed(9, "b", {"n": 6, "u": 0.01})
        b = derive_seed(9, "b", {"u": 0.01, "n": 6})
        assert a == b

    def test_derived_seed_varies_with_content(self):
        base = derive_seed(9, "b", {"n": 6})
        assert derive_seed(9, "b", {"n": 7}) != base
        assert derive_seed(8, "b", {"n": 6}) != base
        assert derive_seed(9, "c", {"n": 6}) != base

    def test_pinned_seed_wins_over_derivation(self):
        spec = CampaignSpec(
            name="pinned",
            scenarios=(
                ScenarioSpec(
                    builder="test-square",
                    base={"seed": 42},
                    axes={"*": {"x": (1, 2)}},
                ),
            ),
            seed=7,
        )
        assert [plan.seed for plan in spec.trials_for("quick")] == [42, 42]

    def test_trials_get_distinct_derived_seeds(self):
        plans = _square_spec().trials_for("quick")
        seeds = [plan.seed for plan in plans]
        assert len(set(seeds)) == len(seeds)


class TestKeys:
    def test_case_key_misses_on_changed_parameter(self):
        one = _square_spec(xs=(1,)).trials_for("quick")[0]
        other = _square_spec(xs=(2,)).trials_for("quick")[0]
        assert one.case_key != other.case_key

    def test_case_key_misses_on_changed_measurement(self):
        spec = _square_spec(xs=(1,))
        loose = CampaignSpec(
            name=spec.name,
            scenarios=spec.scenarios,
            measurements={"*": MeasurementSpec(pulses=99)},
        )
        assert (
            spec.trials_for("quick")[0].case_key
            != loose.trials_for("quick")[0].case_key
        )

    def test_spec_key_survives_grid_extension(self):
        # The store file is addressed by spec key; extending an axis
        # must keep it stable so --resume only runs the missing cases.
        assert (
            _square_spec(xs=(1, 2)).spec_key("quick")
            == _square_spec(xs=(1, 2, 3)).spec_key("quick")
        )

    def test_spec_key_changes_with_seed_and_scale(self):
        spec = _square_spec()
        assert spec.spec_key("quick") != spec.spec_key("full")
        assert (
            spec.spec_key("quick")
            != _square_spec(seed=1).spec_key("quick")
        )


class _Point:
    """A case value that canonicalizes through ``as_dict``."""

    def __init__(self, x, y):
        self.x, self.y = x, y

    def as_dict(self):
        return {"x": self.x, "y": self.y}


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2 ** 40), 2 ** 40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
_VALUES = st.recursive(
    _SCALARS
    | st.frozensets(st.integers(-9, 9), max_size=3)
    | st.builds(_Point, st.integers(-9, 9), _SCALARS),
    lambda inner: st.tuples(inner, inner)
    | st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_CASES = st.dictionaries(
    st.sampled_from(("n", "u", "grid", "mode", "nested")),
    _VALUES,
    max_size=4,
)


def _assert_plans_match_definition(spec, scale, grids):
    """``trials_for`` agrees with ``stable_hash``/``derive_seed`` applied
    to each case directly (``grids``: one case list per scenario)."""
    plans = iter(spec.trials_for(scale))
    measurement = spec.measurement_for(scale).as_dict()
    for scenario, grid in zip(spec.scenarios, grids):
        for case in grid:
            plan = next(plans)
            seed = (
                int(case["seed"])
                if "seed" in case
                else derive_seed(spec.seed, scenario.builder, case)
            )
            assert plan.seed == seed
            assert plan.case_key == stable_hash(
                scenario.builder, case, measurement, seed
            )
    assert next(plans, None) is None


class TestPlanIdentity:
    """Planning hashes each case once; the keys and seeds it produces
    are still exactly the public definitions'."""

    def test_every_catalog_plan_matches_the_definition(self):
        for name in available_campaigns():
            spec = campaign_definition(name).spec()
            # A spec that names no scale serves quick and full alike.
            for scale in scales_of(spec) or ("quick", "full"):
                grids = [s.grid_for(scale) for s in spec.scenarios]
                _assert_plans_match_definition(spec, scale, grids)

    @given(
        seed=st.integers(0, 2 ** 32),
        grids=st.lists(
            st.lists(
                st.tuples(_CASES, st.none() | st.integers(0, 2 ** 31)),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=2,
        ),
    )
    def test_drawn_cases_match_the_definition(self, seed, grids):
        grids = [
            [
                case if pinned is None else {**case, "seed": pinned}
                for case, pinned in grid
            ]
            for grid in grids
        ]
        spec = CampaignSpec(
            name="drawn",
            scenarios=tuple(
                ScenarioSpec(builder=f"b{i}", cases={"*": grid})
                for i, grid in enumerate(grids)
            ),
            seed=seed,
        )
        _assert_plans_match_definition(spec, "quick", grids)


def _grid_walk(scenario, scale):
    """Plan-time validation by definition: every case of
    ``grid_for`` in order, each case's scenario keys in
    ``SCENARIO_CASE_KEYS`` order, the first unknown raising."""
    from repro.scenarios import REGISTRY

    for case in scenario.grid_for(scale):
        for case_key, kind in SCENARIO_CASE_KEYS.items():
            value = case.get(case_key)
            if isinstance(value, str):
                REGISTRY.get(kind, value)


def _raised(call):
    """The ``UnknownScenarioError`` message ``call()`` raises, or None."""
    try:
        call()
    except UnknownScenarioError as exc:
        return str(exc)
    return None


def _assert_validation_matches_the_grid_walk(scenario):
    spec = CampaignSpec(name="names", scenarios=(scenario,))
    planned = _raised(lambda: spec.trials_for("quick"))
    assert planned == _raised(lambda: _grid_walk(scenario, "quick"))
    return planned


_NAMES = st.sampled_from(
    ("silent", "sielnt", "maximum", "maximun", "random", "randomm", 3)
)
_NAMED_CASES = st.dictionaries(
    st.sampled_from(("adversary", "delay", "drift", "x")),
    _NAMES,
    max_size=3,
)


class TestPlanValidation:
    """``trials_for`` checks each distinct scenario name once, without
    walking the grid, and raises exactly what the walk raises."""

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            # One unknown: in base, in an explicit case, in an axis.
            ({"base": {"delay": "maximun"},
              "axes": {"*": {"x": (1, 2)}}}, "maximun"),
            ({"cases": {"*": ({"adversary": "silent"},
                              {"adversary": "sielnt"})}}, "sielnt"),
            ({"axes": {"*": {"drift": ("random", "randomm")}}},
             "randomm"),
            # Two unknowns: the walk names the first case's first key.
            ({"base": {"delay": "maximun"},
              "axes": {"*": {"adversary": ("sielnt",)}}}, "sielnt"),
            ({"base": {"drift": "randomm"},
              "axes": {"*": {"adversary": ("silent", "sielnt")}}},
             "randomm"),
            ({"axes": {"*": {"delay": ("maximum", "maximun"),
                             "drift": ("random", "randomm")}}},
             "randomm"),
            ({"cases": {"*": ({"adversary": "silent"},
                              {"adversary": "sielnt"})},
              "axes": {"*": {"delay": ("maximum", "maximun")}}},
             "maximun"),
            # A base value every case or axis overrides is never run.
            ({"base": {"delay": "maximun"},
              "cases": {"*": ({"delay": "maximum"},)}}, None),
            ({"base": {"delay": "maximun"},
              "axes": {"*": {"delay": ("maximum", "minimum")}}}, None),
            # An empty axis makes an empty grid.
            ({"base": {"delay": "maximun"},
              "axes": {"*": {"x": ()}}}, None),
            ({"axes": {"*": {"adversary": ("sielnt",), "x": ()}}}, None),
        ],
    )
    def test_raises_what_the_grid_walk_raises(self, kwargs, named):
        scenario = ScenarioSpec(builder="b", **kwargs)
        planned = _assert_validation_matches_the_grid_walk(scenario)
        if named is None:
            assert planned is None
        else:
            assert repr(named) in planned

    @given(
        base=_NAMED_CASES,
        cases=st.lists(_NAMED_CASES, max_size=3),
        axes=st.dictionaries(
            st.sampled_from(("adversary", "delay", "drift", "x")),
            st.lists(_NAMES, max_size=3).map(tuple),
            max_size=3,
        ),
    )
    def test_drawn_grids_raise_what_the_walk_raises(
        self, base, cases, axes
    ):
        scenario = ScenarioSpec(
            builder="b",
            base=base,
            axes={"*": axes},
            cases={"*": tuple(cases)},
        )
        _assert_validation_matches_the_grid_walk(scenario)

    def test_describe_counts_each_scenarios_grid(self):
        for name in available_campaigns():
            spec = campaign_definition(name).spec()
            for scale in scales_of(spec) or ("quick", "full"):
                described = spec.describe(scale)["scenarios"]
                assert [s["cases"] for s in described] == [
                    len(s.grid_for(scale)) for s in spec.scenarios
                ]


class TestMeasurementSpec:
    def test_rejects_unknown_liveness(self):
        with pytest.raises(ValueError):
            MeasurementSpec(liveness="explode")

    def test_measurement_fallback_chain(self):
        # "stress" is a tier of the grid only: it is measured as "full".
        spec = CampaignSpec(
            name="m",
            scenarios=(
                ScenarioSpec(
                    builder="test-square", axes={"stress": {"x": (1,)}}
                ),
            ),
            measurements={
                "quick": MeasurementSpec(pulses=1),
                "full": MeasurementSpec(pulses=2),
            },
        )
        assert spec.measurement_for("quick").pulses == 1
        assert spec.measurement_for("stress").pulses == 2

    def test_missing_measurement_raises(self):
        spec = CampaignSpec(
            name="m",
            scenarios=(
                ScenarioSpec(
                    builder="test-square", axes={"full": {"x": (1,)}}
                ),
            ),
            measurements={"quick": MeasurementSpec()},
        )
        with pytest.raises(KeyError):
            spec.measurement_for("full")

    def test_unknown_scale_is_refused_with_a_hint(self):
        # It used to fall back to "full" and run the whole full grid.
        spec = campaign_definition("E4").spec()
        with pytest.raises(UnknownScaleError, match="did you mean 'full'"):
            spec.measurement_for("ful")
        with pytest.raises(UnknownScaleError, match="available: full, "):
            spec.trials_for("bogus")

    def test_a_spec_that_names_no_scale_serves_every_scale(self):
        spec = CampaignSpec(
            name="m",
            scenarios=(ScenarioSpec(builder="test-square"),),
            measurements={"*": MeasurementSpec(pulses=3)},
        )
        assert spec.measurement_for("full").pulses == 3
        assert spec.measurement_for("anything").pulses == 3


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------


def _record(case_key="k1", index=0, **overrides):
    payload = dict(
        campaign="c",
        builder="test-square",
        case={"x": 1, "u": 0.07},
        seed=3,
        case_key=case_key,
        index=index,
        metrics={"square": 1, "skew": 0.1234567890123456,
                 "dead": float("inf"), "nan": float("nan")},
        error=None,
        duration=0.5,
    )
    payload.update(overrides)
    return TrialRecord(**payload)


class TestResultStore:
    def test_round_trip_including_error_and_nonfinite(self, tmp_path):
        store = ResultStore(tmp_path)
        ok = _record()
        bad = _record(
            case_key="k2", index=1, metrics={},
            error="ValueError: boom",
        )
        store.append("spec", ok)
        store.append("spec", bad)
        loaded = store.load("spec")
        assert set(loaded) == {"k1", "k2"}
        back = loaded["k1"]
        assert back.metrics["skew"] == ok.metrics["skew"]  # exact float
        assert back.metrics["dead"] == float("inf")
        assert math.isnan(back.metrics["nan"])
        assert back.case == ok.case and back.seed == ok.seed
        assert loaded["k2"].error == "ValueError: boom"
        assert not loaded["k2"].ok

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("spec", _record(metrics={"square": 1}))
        store.append("spec", _record(metrics={"square": 99}))
        assert store.load("spec")["k1"].metrics["square"] == 99

    def test_torn_final_line_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("spec", _record())
        with open(store.path_for("spec"), "a") as handle:
            handle.write('{"campaign": "c", "trunc')
        assert set(store.load("spec")) == {"k1"}

    def test_read_only_use_creates_no_directory(self, tmp_path):
        root = tmp_path / "never-written"
        store = ResultStore(root)
        assert store.keys() == []
        assert store.load("missing") == {}
        assert store.count("missing") == 0
        assert not root.exists()

    def test_keys_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("a", _record())
        store.append("b", _record())
        assert store.keys() == ["a", "b"]

    def test_root_that_is_a_file_is_refused(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        with pytest.raises(NotADirectoryError, match="not a directory"):
            ResultStore(path)


class TestCaching:
    def test_rerun_with_store_executes_zero_trials(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _square_spec()
        first = execute_campaign(spec, store=store)
        again = execute_campaign(spec, store=store)
        assert first.executed == 3 and first.cached == 0
        assert again.executed == 0 and again.cached == 3
        assert [r.metrics["square"] for r in again.records] == [1, 4, 9]
        assert all(record.cached for record in again.records)

    def test_resume_runs_only_missing_cases(self, tmp_path):
        store = ResultStore(tmp_path)
        execute_campaign(_square_spec(xs=(1, 2)), store=store)
        resumed = execute_campaign(_square_spec(xs=(1, 2, 3, 4)),
                                   store=store)
        assert resumed.cached == 2
        assert resumed.executed == 2
        assert [r.metrics["square"] for r in resumed.records] == [
            1, 4, 9, 16,
        ]

    def test_repeated_case_replays_as_distinct_records(self, tmp_path):
        # Two plans share a case key: each replay is its own record.
        store = ResultStore(tmp_path)
        spec = _square_spec(xs=(1, 1, 2))
        execute_campaign(spec, store=store)
        again = execute_campaign(spec, store=store)
        assert again.executed == 0 and again.cached == 3
        assert [r.index for r in again.records] == [0, 1, 2]
        assert len({id(r) for r in again.records}) == 3
        assert [r.metrics["square"] for r in again.records] == [1, 1, 4]

    def test_changed_parameter_is_a_cache_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        execute_campaign(_square_spec(xs=(1,)), store=store)
        rerun = execute_campaign(_square_spec(xs=(5,)), store=store)
        assert rerun.executed == 1 and rerun.cached == 0


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


class TestExecutorSerial:
    def test_records_in_plan_order_with_metrics(self):
        run = execute_campaign(_square_spec())
        assert [r.metrics["square"] for r in run.records] == [1, 4, 9]
        assert [r.index for r in run.records] == [0, 1, 2]

    def test_builder_failure_is_tabulated_not_raised(self):
        spec = CampaignSpec(
            name="boomy",
            scenarios=(
                ScenarioSpec(builder="test-boom", axes={"*": {"x": (1,)}}),
                ScenarioSpec(
                    builder="test-square", axes={"*": {"x": (2,)}}
                ),
            ),
        )
        run = execute_campaign(spec)
        assert run.failed == 1
        assert run.records[0].error == "ValueError: boom on 1"
        assert run.records[1].metrics["square"] == 4

    def test_store_write_failure_propagates_not_misrouted(self):
        # An on_result (persist) failure is an environment problem and
        # must propagate — not be recorded as a failure of the trial,
        # and not trigger a second write attempt.
        class ExplodingStore:
            def __init__(self):
                self.appends = 0

            def load(self, key):
                return {}

            @contextlib.contextmanager
            def appender(self, key):
                yield self.append

            def append(self, record):
                self.appends += 1
                raise OSError("disk full")

        store = ExplodingStore()
        with pytest.raises(OSError, match="disk full"):
            execute_campaign(_square_spec(xs=(1,)), store=store)
        assert store.appends == 1

    def test_unknown_builder_is_tabulated(self):
        spec = CampaignSpec(
            name="ghost",
            scenarios=(ScenarioSpec(builder="no-such-builder"),),
        )
        run = execute_campaign(spec)
        assert run.failed == 1
        assert "KeyError" in run.records[0].error

    def test_module_colon_function_builder_resolution(self):
        builder = resolve_builder(
            "repro.campaigns.builders:apa_convergence_trial"
        )
        metrics = builder(
            {"n": 5, "adversary": "extreme-values"},
            MeasurementSpec(),
            0,
        )
        assert metrics["halved"] and metrics["validity"]


class TestExecutorParallel:
    def test_worker_pool_matches_serial_rows(self):
        # Satellite: workers=1 and workers=4 must yield identical
        # aggregated rows.  Use the (real) ported E1 campaign.
        definition = campaign_definition("E1")
        serial = execute_campaign(definition.spec(), scale="quick")
        pooled = execute_campaign(
            definition.spec(),
            scale="quick",
            policy=ExecutionPolicy(workers=4, chunk_size=2),
        )
        assert (
            definition.tabulate(serial).render()
            == definition.tabulate(pooled).render()
        )
        for left, right in zip(serial.records, pooled.records):
            assert left.metrics == right.metrics
            assert left.seed == right.seed

    def test_parallel_square_campaign_order_and_values(self):
        run = execute_campaign(
            _square_spec(xs=tuple(range(9))),
            policy=ExecutionPolicy(workers=3, chunk_size=2),
        )
        assert [r.metrics["square"] for r in run.records] == [
            x ** 2 for x in range(9)
        ]

    def test_broken_pool_failures_are_not_cached(self, tmp_path):
        # A worker that dies breaks the pool: its chunk's trials come
        # back as error records, none of them enters the store, and a
        # later run executes them again.
        marker = tmp_path / "crash"
        marker.touch()
        store = ResultStore(tmp_path / "store")
        spec = CampaignSpec(
            name="crashy",
            scenarios=(
                ScenarioSpec(
                    builder="test-crash",
                    base={"marker": str(marker)},
                    axes={"*": {"x": (1, 2)}},
                ),
            ),
        )
        policy = ExecutionPolicy(workers=2, chunk_size=1)
        first = execute_campaign(spec, store=store, policy=policy)
        assert first.failed == 2
        assert all(
            "BrokenProcessPool" in record.error for record in first.records
        )
        assert store.count(spec.spec_key("quick")) == 0
        marker.unlink()
        second = execute_campaign(spec, store=store, policy=policy)
        assert second.executed == 2 and second.cached == 0
        assert second.failed == 0
        assert [r.metrics for r in second.records] == [{"x": 1}, {"x": 2}]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_task_raising_timeout_error_is_a_task_failure(self, workers):
        # A TimeoutError is the task's own failure, tabulated through
        # on_error like any other exception it raises, on the serial
        # path and in the pool alike.
        from repro.campaigns import map_trials

        policy = ExecutionPolicy(workers=workers, chunk_size=1)
        assert map_trials(
            _raise_timeout, [1, 2], policy,
            on_error=lambda item, exc: (item, str(exc)),
        ) == [(1, "task 1 says so"), (2, "task 2 says so")]

    def test_deterministic_builder_failures_are_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = CampaignSpec(
            name="boom-cache",
            scenarios=(
                ScenarioSpec(builder="test-boom", axes={"*": {"x": (1,)}}),
            ),
        )
        execute_campaign(spec, store=store)
        replay = execute_campaign(spec, store=store)
        assert replay.executed == 0 and replay.cached == 1
        assert replay.failed == 1


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------


class TestAggregate:

    def test_summary_stats_over_campaign_records(self):
        run = execute_campaign(_square_spec(xs=(1, 2, 2, 3)))
        stats = summary_stats(
            record.metrics["square"] for record in run.records
        )
        assert stats["count"] == 4
        assert stats["min"] == 1 and stats["max"] == 9
        assert stats["mean"] == pytest.approx((1 + 4 + 4 + 9) / 4)

    def test_summary_stats_ignores_nonfinite(self):
        stats = summary_stats([1.0, float("inf"), float("nan"), 3.0])
        assert stats["count"] == 2 and stats["mean"] == 2.0

    def test_failure_counts_by_error_type(self):
        records = [
            _record(),
            _record(case_key="k2", error="ValueError: a"),
            _record(case_key="k3", error="ValueError: b"),
            _record(case_key="k4", error="TimeoutError: slow"),
        ]
        assert failure_counts(records) == {
            "ValueError": 2, "TimeoutError": 1,
        }

    def test_records_to_table_default_row_puller(self):
        run = execute_campaign(_square_spec(xs=(2, 3)))
        table = records_to_table(
            run.records, "squares", ["x", "square"]
        )
        assert table.rows == [(2, 4), (3, 9)]

    def test_records_to_table_column_triples(self):
        run = execute_campaign(_square_spec(xs=(2,)))
        record = run.records[0]
        record.case["square"] = "shadowed input"
        table = records_to_table(
            [record],
            "squares",
            [
                ("input", "x", None),
                # a measured value wins over a same-named case key
                ("x squared", "square", None),
                ("absent", "nope", "-"),
                ("from case", "nope", lambda case: case["x"] + 1),
            ],
        )
        assert table.columns == [
            "input", "x squared", "absent", "from case",
        ]
        assert table.rows == [(2, 4, "-", 3)]

    def test_run_summary_table_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _square_spec()
        execute_campaign(spec, store=store)
        run = execute_campaign(spec, store=store)
        table = run_summary_table(run)
        assert table.rows[0][:5] == ("test-square", 3, 0, 3, 0)


# ----------------------------------------------------------------------
# Ported experiments through the engine
# ----------------------------------------------------------------------


class TestCampaignPorts:
    def test_all_four_experiments_registered(self):
        from repro.campaigns import available_campaigns

        assert {"E1", "E4", "E5", "E6"} <= set(available_campaigns())

    def test_every_builtin_resolves_its_spec_and_table(self):
        from repro.analysis import experiments
        from repro.campaigns import BUILTIN_CAMPAIGNS

        for name, (stem, description) in BUILTIN_CAMPAIGNS.items():
            definition = campaign_definition(name)
            assert definition.description == description
            assert definition.spec().name == name
            assert callable(getattr(experiments, f"{stem}_table"))

    def test_every_builtin_declares_only_the_gated_tiers(self):
        # quick and full are the tiers tier-1, CI and nightly run; a
        # third would be a grid no gate ever executes.
        for name in available_campaigns():
            spec = campaign_definition(name).spec()
            assert scales_of(spec) == ["full", "quick"], name

    def test_a_registered_campaign_is_listed_beside_the_builtins(self):
        from repro.campaigns import (
            BUILTIN_CAMPAIGNS,
            CATALOG,
            CampaignDefinition,
            available_campaigns,
            register_campaign,
        )

        definition = register_campaign(
            CampaignDefinition(
                "my-sweep",
                spec=campaign_definition("E1").spec,
                tabulate=campaign_definition("E1").tabulate,
                description="a user's sweep",
            )
        )
        try:
            assert available_campaigns() == sorted(
                [*BUILTIN_CAMPAIGNS, "MY-SWEEP"]
            )
            assert campaign_definition("My-Sweep") is definition
        finally:
            del CATALOG["MY-SWEEP"]

    def test_e1_store_replay_is_byte_stable(self, tmp_path):
        definition = campaign_definition("E1")
        store = ResultStore(tmp_path)
        live = execute_campaign(definition.spec(), store=store)
        replay = execute_campaign(definition.spec(), store=store)
        assert replay.executed == 0
        assert (
            definition.tabulate(live).render()
            == definition.tabulate(replay).render()
        )


# ----------------------------------------------------------------------
# Sharded store, corruption policy, policy validation (ISSUE 9
# tentpole + satellite bugfixes)
# ----------------------------------------------------------------------


class TestShardedStore:
    def test_shard_append_routes_to_shard_file(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("spec", _record(case_key="k1"), shard="w1")
        store.append("spec", _record(case_key="k2"), shard="w2")
        assert store.shards("spec") == ["w1", "w2"]
        assert (tmp_path / "spec" / "w1.jsonl").exists()
        assert not (tmp_path / "spec.jsonl").exists()
        assert set(store.load("spec")) == {"k1", "k2"}

    def test_constructor_shard_is_default_write_target(self, tmp_path):
        store = ResultStore(tmp_path, shard="w9")
        store.append("spec", _record())
        assert store.shards("spec") == ["w9"]

    def test_cross_shard_dedup_last_shard_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("spec", _record(metrics={"square": 1}))
        store.append(
            "spec", _record(metrics={"square": 2}), shard="a"
        )
        store.append(
            "spec", _record(metrics={"square": 3}), shard="b"
        )
        # base first, then shards in sorted order: "b" wins.
        assert store.load("spec")["k1"].metrics["square"] == 3
        assert store.count("spec") == 1

    def test_invalid_shard_name_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("../evil", "", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.append("spec", _record(), shard=bad)

    def test_keys_sees_shard_only_specs(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("only-sharded", _record(), shard="w1")
        store.append("flat", _record())
        assert store.keys() == ["flat", "only-sharded"]

    def test_merge_folds_shards_and_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("spec", _record(case_key="k1"))
        store.append(
            "spec", _record(case_key="k1", metrics={"square": 7}),
            shard="w1",
        )
        store.append("spec", _record(case_key="k2"), shard="w2")
        result = store.merge("spec")
        assert result == {"records": 2, "dropped": 1, "shards": 2}
        assert store.shards("spec") == []
        assert not (tmp_path / "spec").exists()
        assert store.load("spec")["k1"].metrics["square"] == 7
        first_bytes = (tmp_path / "spec.jsonl").read_bytes()
        again = store.merge("spec")
        assert again == {"records": 2, "dropped": 0, "shards": 0}
        assert (tmp_path / "spec.jsonl").read_bytes() == first_bytes

    def test_compact_drops_superseded_lines_per_file(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("spec", _record(metrics={"square": 1}))
        store.append("spec", _record(metrics={"square": 2}))
        store.append("spec", _record(case_key="k2"))
        result = store.compact("spec")
        assert result == {"records": 2, "dropped": 1}
        lines = (tmp_path / "spec.jsonl").read_text().splitlines()
        assert len(lines) == 2


class TestCorruptStore:
    """Satellite bugfix: mid-file corruption must raise, not vanish."""

    def test_interior_corruption_raises_with_file_and_line(
        self, tmp_path
    ):
        from repro.campaigns import CorruptStoreError

        store = ResultStore(tmp_path)
        store.append("spec", _record(case_key="k1"))
        with open(store.path_for("spec"), "a") as handle:
            handle.write("{corrupt mid-file\n")
        store.append("spec", _record(case_key="k2"))
        with pytest.raises(CorruptStoreError) as excinfo:
            store.load("spec")
        assert store.path_for("spec") in str(excinfo.value)
        assert ":2:" in str(excinfo.value)
        assert excinfo.value.line == 2

    def test_torn_tail_tolerated_per_shard(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("spec", _record(case_key="k1"), shard="w1")
        with open(store.path_for("spec", "w1"), "a") as handle:
            handle.write('{"campaign": "c", "trunc')
        store.append("spec", _record(case_key="k2"), shard="w2")
        assert set(store.load("spec")) == {"k1", "k2"}

    def test_compact_drop_corrupt_salvages(self, tmp_path):
        from repro.campaigns import CorruptStoreError

        store = ResultStore(tmp_path)
        store.append("spec", _record(case_key="k1"))
        with open(store.path_for("spec"), "a") as handle:
            handle.write("{corrupt mid-file\n")
        store.append("spec", _record(case_key="k2"))
        with pytest.raises(CorruptStoreError):
            store.compact("spec")
        result = store.compact("spec", drop_corrupt=True)
        assert result["records"] == 2
        assert set(store.load("spec")) == {"k1", "k2"}

    def test_append_writes_full_line_in_one_write(self, tmp_path):
        # The crash-safety contract: one write() call per record, so
        # concurrent appenders cannot interleave partial lines.
        import unittest.mock

        store = ResultStore(tmp_path)
        writes = []
        real_write = os.write

        def spy(descriptor, data):
            writes.append(bytes(data))
            return real_write(descriptor, data)

        with unittest.mock.patch("os.write", side_effect=spy):
            store.append("spec", _record())
        assert len(writes) == 1
        assert writes[0].endswith(b"\n")


_NEEDS_PROC_FD = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


class TestAppender:
    """One descriptor a run: healed once, closed on every exit."""

    def test_tail_is_healed_once_when_the_appender_opens(
        self, tmp_path, monkeypatch
    ):
        from repro.campaigns import store as store_module

        store = ResultStore(tmp_path)
        store.append("spec", _record(case_key="k1"))
        with open(store.path_for("spec"), "a") as handle:
            handle.write('{"campaign": "c", "trunc')
        heals = []
        real_heal = store_module._heal_tail

        def counting_heal(path):
            heals.append(path)
            real_heal(path)

        monkeypatch.setattr(store_module, "_heal_tail", counting_heal)
        fresh = ResultStore(tmp_path)
        with fresh.appender("spec") as write:
            assert heals == [fresh.path_for("spec")]
            for key in ("k2", "k3", "k4"):
                write(_record(case_key=key))
        assert len(heals) == 1
        lines = (tmp_path / "spec.jsonl").read_text().splitlines()
        assert len(lines) == 4
        assert set(fresh.load("spec")) == {"k1", "k2", "k3", "k4"}

    @pytest.mark.parametrize("maintenance", ["compact", "merge"])
    def test_append_after_rewrite_lands_in_the_live_file(
        self, tmp_path, maintenance
    ):
        # compact/merge replace the file (a new inode); an append on
        # the same instance must reach the replacement, not the
        # unlinked original.
        store = ResultStore(tmp_path)
        store.append("spec", _record(case_key="k1"))
        store.append("spec", _record(case_key="k1"))
        store.append("spec", _record(case_key="k2"), shard="w1")
        getattr(store, maintenance)("spec")
        store.append("spec", _record(case_key="k3"))
        assert set(ResultStore(tmp_path).load("spec")) == {
            "k1", "k2", "k3",
        }

    @staticmethod
    def _open_descriptors():
        return len(os.listdir("/proc/self/fd"))

    @_NEEDS_PROC_FD
    def test_execute_campaign_closes_its_descriptor(self, tmp_path):
        store = ResultStore(tmp_path)
        before = self._open_descriptors()
        run = execute_campaign(_square_spec(), store=store)
        assert run.executed == 3
        assert self._open_descriptors() == before
        assert store.count(_square_spec().spec_key("quick")) == 3

    @_NEEDS_PROC_FD
    def test_execute_campaign_closes_its_descriptor_on_raise(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        calls = []

        def progress(done, total, record):
            calls.append(done)
            if len(calls) == 2:
                raise KeyboardInterrupt

        before = self._open_descriptors()
        with pytest.raises(KeyboardInterrupt) as excinfo:
            execute_campaign(
                _square_spec(), store=store, progress=progress
            )
        # Closed by the run itself, not by the garbage collector once
        # the traceback (which holds the run's frames) is dropped.
        assert excinfo.traceback
        assert self._open_descriptors() == before
        # The records persisted before the interrupt survive it.
        assert store.count(_square_spec().spec_key("quick")) == 2


class TestExecutionPolicyValidation:
    """Satellite bugfix: bad policies fail loudly, not silently."""

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExecutionPolicy(workers=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExecutionPolicy(workers=-2)

    def test_zero_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ExecutionPolicy(chunk_size=0)

    def test_nonpositive_lease_ttl_rejected(self):
        with pytest.raises(ValueError, match="lease_ttl"):
            ExecutionPolicy(lease_ttl=0)

    def test_serial_mode_without_timeout_does_not_warn(self):
        import warnings as warnings_module

        from repro.campaigns import map_trials

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert map_trials(lambda x: x, [1]) == [1]
