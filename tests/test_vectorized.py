"""The vectorized backend and the ``build_simulation`` facade.

The backbone is the differential oracle: the same registry-keyed case,
built twice through :func:`repro.build.build_simulation` — once on the
event engine, once on the round-batched numpy engine — must produce an
*identical* monitor verdict matrix, and (for deterministic delay
policies) pulse streams that agree to floating-point tolerance.
Random-delay scenarios are compared at the verdict level only: the two
engines deliver messages in different orders, so draw-order equality is
unattainable by construction (see ``repro.sim.vectorized.delays``).

A Hypothesis property runs both engines over drawn delay parameters
and holds every ``round_delays`` entry to the scalar ``delay()`` of the
same rule.

The rest covers the facade contract (backend resolution, deprecation
shims, hash stability of ``MeasurementSpec.backend``), the unsupported-
scenario envelope, and the CLI ``--backend`` plumbing.
"""

import dataclasses
import json
import os
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.build import (
    BACKENDS,
    BuiltSimulation,
    UnknownBackendError,
    build_simulation,
    resolve_backend,
)
from repro.campaigns.spec import MeasurementSpec, canonical_json
from repro.checks.conformance import (
    check_scenario,
    conformance_matrix,
    cps_check_set,
    judge_pulses,
    judged_run,
)
from repro.cli import main
from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters
from repro.scenarios import REGISTRY
from repro.sim.clocks import ClockEnsemble, HardwareClock
from repro.sim.errors import (
    ConfigurationError,
    ModelViolation,
    SimulationError,
)
from repro.sim.network import (
    DelayPolicy,
    NetworkConfig,
    RandomDelayPolicy,
)
from repro.sim.trace import PulseRecord
from repro.sim.vectorized import (
    UnsupportedScenarioError,
    VectorizedSimulation,
    engine,
)
from repro.sim.vectorized.delays import (
    class_delays,
    delay_matrix,
    delay_rng,
    round_delays,
)
from repro.sync.crusader import BOT
from repro.telemetry import Telemetry, telemetry_session

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE_CASE = {"n": 6, "theta": 1.001, "d": 1.0, "u": 0.02}

#: Deterministic-delay differential sample: every drift profile and
#: every closed-form deterministic delay policy appears at least once.
DETERMINISTIC_SCENARIOS = [
    {"delay": "maximum", "drift": "extreme"},
    {"delay": "minimum", "drift": "mixed"},
    {"delay": "skewing", "drift": "staggered"},
    {"delay": "eclipse", "drift": "random"},
    {"delay": "biased-partition", "drift": "extreme"},
    {"delay": "flicker-partition", "drift": "mixed"},
    {"delay": "constant-fraction", "drift": "random"},
]


def _case(**keys):
    case = dict(BASE_CASE)
    case.setdefault("adversary", "silent")
    case.update(keys)
    return case


def _verdict_dicts(verdicts):
    return [v.as_dict() for v in verdicts]


def _run_both(case, pulses=6, seed=11):
    event = judged_run(case, pulses, seed, backend="event")
    vector = judged_run(case, pulses, seed, backend="vectorized")
    return (
        (event.verdicts, event.result),
        (vector.verdicts, vector.result),
    )


def _pulse_records(simulation):
    return len(list(simulation.trace.of_type(PulseRecord)))


def _blocks_of(rows, simulation):
    """Size the engine's blocks so ``simulation`` splits its receivers
    into blocks of ``rows`` (the engine sizes a block by bytes)."""
    return mock.patch.object(
        engine, "BLOCK_BYTES", rows * 8 * len(simulation.honest)
    )


class TestDifferentialOracle:
    @pytest.mark.parametrize(
        "scenario",
        DETERMINISTIC_SCENARIOS,
        ids=lambda s: f"{s['delay']}-{s['drift']}",
    )
    def test_verdicts_and_pulses_identical(self, scenario):
        case = _case(**scenario)
        (ev, ev_result), (vec, vec_result) = _run_both(case)
        assert _verdict_dicts(ev) == _verdict_dicts(vec)
        assert all(v.ok for v in ev)
        assert set(ev_result.pulses) == set(vec_result.pulses)
        for node, times in ev_result.pulses.items():
            assert vec_result.pulses[node] == pytest.approx(
                times, abs=1e-9
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "scenario",
        DETERMINISTIC_SCENARIOS,
        ids=lambda s: f"{s['delay']}-{s['drift']}",
    )
    def test_judging_the_recorded_pulses_equals_the_attached_monitors(
        self, scenario, backend
    ):
        # One definition of "within": the check set fed after the run
        # (what experiment rows use) reaches the verdicts of the check
        # set attached during it, in any node order.
        run = judged_run(_case(**scenario), 6, 11, backend=backend)
        attached = {v.monitor: v for v in run.verdicts}
        trains = run.result.honest_pulses()
        order = random.Random(0).sample(sorted(trains), len(trains))
        assert order != sorted(trains)
        for pulses in (trains, {v: trains[v] for v in order}):
            replayed = judge_pulses(run.built.params, pulses, 6)
            assert list(replayed) == list(attached)
            for name in ("skew", "period", "progress"):
                assert replayed[name].as_dict() == attached[name].as_dict()
                assert replayed[name].checked > 0

    def test_random_delays_verdict_level_only(self):
        # Different (but both admissible) delay draws: the monitor
        # matrix must agree, pulse times need not.
        case = _case(delay="random", drift="random")
        (ev, _er), (vec, _vr) = _run_both(case)
        assert [(v.monitor, v.ok) for v in ev] == [
            (v.monitor, v.ok) for v in vec
        ]
        assert all(v.ok for v in vec)

    def test_quota_stop_semantics_match(self):
        # The event engine halts the instant the slowest node emits
        # its quota-filling pulse, so round P's broadcasts never
        # happen; tcb-consistency sees honest * (P - 1) evaluations.
        case = _case(delay="maximum", drift="extreme")
        pulses = 5
        (ev, _er), (vec, _vr) = _run_both(case, pulses=pulses)
        honest = BASE_CASE["n"] - derive_parameters(
            theta=1.001, u=0.02, d=1.0, n=6
        ).f
        for verdicts in (ev, vec):
            tcb = next(
                v for v in verdicts if v.monitor == "tcb-consistency"
            )
            assert tcb.checked == honest * (pulses - 1)

    def test_final_skew_matches(self):
        from repro.analysis import metrics

        case = _case(delay="skewing", drift="extreme")
        (_ev, ev_result), (_vec, vec_result) = _run_both(case)

        def honest_pulses(result):
            return {v: p for v, p in result.pulses.items() if p}

        assert metrics.max_skew(
            honest_pulses(vec_result)
        ) == pytest.approx(
            metrics.max_skew(honest_pulses(ev_result)), abs=1e-9
        )

    def test_ragged_rows_across_segment_and_block_boundaries(self):
        # What the seven n = 6 combos cannot reach: ragged rows
        # (`mixed`), 14 pulses (two segment boundaries crossed) and
        # receiver blocks of 5 rows, so every round splits into blocks
        # whose arrivals straddle a segment start.
        case = _case(n=24, delay="flicker-partition", drift="mixed")
        (ev, ev_result), (vec, vec_result) = _run_both(case, pulses=14)
        assert _verdict_dicts(ev) == _verdict_dicts(vec)
        for node, times in ev_result.pulses.items():
            assert vec_result.pulses[node] == pytest.approx(
                times, abs=1e-9
            )
        small = build_simulation(
            case, backend="vectorized", seed=11, trace="none"
        ).simulation
        with _blocks_of(5, small):
            assert small.run(max_pulses=14).pulses == vec_result.pulses

    def test_conformance_slice_equals_the_committed_event_rows(self):
        # `repro check matrix --backend vectorized --kind delay --kind
        # drift`: every row — seed, verdicts and checked counts — is
        # the event engine's committed row.
        with open(os.path.join(ROOT, "results", "conformance.json")) as f:
            committed = {
                (row["kind"], row["key"]): row
                for row in json.load(f)["scenarios"]
            }
        vector = conformance_matrix(
            kinds=("delay", "drift"), backend="vectorized"
        )["scenarios"]
        assert len(vector) == len(REGISTRY.keys("delay")) + len(
            REGISTRY.keys("drift")
        )
        for row in vector:
            assert row == committed[row["kind"], row["key"]], row["key"]


#: The factory parameter holding each group policy's member ids.
GROUP_PARAMS = {
    "biased-partition": "group",
    "eclipse": "victims",
    "flicker-partition": "group",
    "skewing": "slow",
}

#: Every delay policy whose rule the two engines evaluate alike.
DETERMINISTIC_DELAYS = sorted(set(REGISTRY.keys("delay")) - {"random"})


@st.composite
def _delay_cases(draw):
    """A silent-adversary case over a drawn deterministic delay policy:
    its member ids any subset of ``range(n)``, its period or fraction
    drawn, with the drift and the pulse count."""
    n = draw(st.integers(4, 16))
    delay = draw(st.sampled_from(DETERMINISTIC_DELAYS))
    delay_params = {}
    if delay in GROUP_PARAMS:
        delay_params[GROUP_PARAMS[delay]] = sorted(
            draw(st.sets(st.integers(0, n - 1)))
        )
    if delay == "flicker-partition":
        delay_params["period"] = draw(st.floats(0.5, 20.0))
    if delay == "constant-fraction":
        delay_params["fraction"] = draw(st.floats(0.0, 1.0))
    case = _case(
        n=n,
        delay=delay,
        delay_params=delay_params,
        drift=draw(st.sampled_from(sorted(REGISTRY.keys("drift")))),
    )
    return case, draw(st.integers(3, 8))


class TestDelaySearch:
    """Both engines evaluate one delay rule: they agree on drawn
    parameters, not only on the registry's default groups."""

    @given(_delay_cases(), st.data())
    def test_engines_agree_over_drawn_delay_parameters(self, drawn, data):
        case, pulses = drawn
        n = case["n"]
        policy = REGISTRY.create(
            "delay", case["delay"], n, **case["delay_params"]
        )
        times = data.draw(
            st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n)
        )
        config = NetworkConfig(n=n, d=1.0, u=0.02)
        nodes = list(range(n))
        matrix = round_delays(policy, config, nodes, np.array(times))(nodes)
        for i in nodes:
            for j in nodes:
                assert matrix[i, j] == policy.delay(
                    config, j, i, times[j], None, True
                ), (i, j)

        (ev, ev_result), (vec, vec_result) = _run_both(case, pulses)
        assert _verdict_dicts(ev) == _verdict_dicts(vec)
        assert set(ev_result.pulses) == set(vec_result.pulses)
        for node, train in ev_result.pulses.items():
            assert len(vec_result.pulses[node]) == len(train)
            assert vec_result.pulses[node] == pytest.approx(
                train, abs=1e-9
            )


@st.composite
def _block_specs(draw):
    """One vectorized system and the receiver rows a block to split it
    by."""
    n = draw(st.integers(6, 40))
    params = derive_parameters(theta=1.001, d=1.0, u=0.02, n=n)
    return {
        "params": params,
        "delay": draw(st.sampled_from(sorted(REGISTRY.keys("delay")))),
        "drift": draw(st.sampled_from(sorted(REGISTRY.keys("drift")))),
        "faulty": list(range(n - params.f, n)),
        "pulses": draw(st.integers(3, 14)),
        "seed": draw(st.integers(0, 5)),
        "rows": draw(st.integers(1, n - params.f + 2)),
    }


def _block_run(spec, rows, trace="none", judged=False):
    """``(result, verdict dicts or None)`` of one run of ``spec`` in
    blocks of ``rows`` receivers (``None``: the engine's default)."""
    params = spec["params"]
    simulation = VectorizedSimulation(
        params,
        clocks=_block_clocks(spec),
        faulty=spec["faulty"],
        delay_policy=REGISTRY.create("delay", spec["delay"], params.n),
        trace=trace,
    )
    checks = None
    if judged:
        checks = cps_check_set(params, simulation.honest, spec["pulses"])
        simulation.attach_checks(checks)
    if rows is None:
        result = simulation.run(max_pulses=spec["pulses"])
    else:
        with _blocks_of(rows, simulation):
            result = simulation.run(max_pulses=spec["pulses"])
    verdicts = _verdict_dicts(checks.finish()) if judged else None
    return result, verdicts


def _block_clocks(spec):
    return REGISTRY.create(
        "drift", spec["drift"], spec["params"], spec["seed"]
    )


def _same_execution(left, right):
    return (
        left.pulses == right.pulses
        and left.events_processed == right.events_processed
        and left.end_time == right.end_time
    )


class TestBlocks:
    """No output depends on where the receiver-block boundaries fall,
    and observers are handed what the kernel computed — not a buffer
    it has since reused."""

    @given(_block_specs())
    def test_block_invariance(self, spec):
        rows = spec["rows"]
        whole, _ = _block_run(spec, None)
        split, _ = _block_run(spec, rows)
        assert _same_execution(whole, split)

        whole_judged, whole_verdicts = _block_run(spec, None, judged=True)
        split_judged, split_verdicts = _block_run(spec, rows, judged=True)
        assert whole_verdicts == split_verdicts
        assert _same_execution(whole, whole_judged)
        assert _same_execution(whole, split_judged)

        whole_full, _ = _block_run(spec, None, trace="full")
        split_full, _ = _block_run(spec, rows, trace="full")
        assert _same_execution(whole, split_full)
        for kind in ("tcb-accept", "cps-round"):
            assert split_full.trace.protocol_events(
                kind
            ) == whole_full.trace.protocol_events(kind)
        self._annotations_are_the_kernels(spec, split_full.trace)

    @staticmethod
    def _annotations_are_the_kernels(spec, trace):
        # Recompute every summary from the scalar clock and the
        # acceptance times: an `arrival` or `estimates` array that was
        # overwritten before `_collect_round` read it cannot pass.
        params = spec["params"]
        clocks = _block_clocks(spec)
        offset_shift = params.d - params.u + params.S
        accepted_at = {
            (record.node, record.details): record.time
            for record in trace.protocol_events("tcb-accept")
        }
        rounds = trace.protocol_events("cps-round")
        honest = params.n - len(spec["faulty"])
        assert len(rounds) == honest * (spec["pulses"] - 1)
        for record in rounds:
            summary = record.details
            clock = clocks[record.node]
            for dealer, estimate in summary.estimates.items():
                if dealer == record.node:
                    assert estimate == 0.0
                elif dealer in spec["faulty"]:
                    assert estimate is BOT
                else:
                    arrival = accepted_at[
                        record.node, (summary.pulse_round, dealer)
                    ]
                    assert estimate == (
                        clock.local_time(arrival) - summary.pulse_local
                    ) - offset_shift
            assert summary.num_bot == len(spec["faulty"]) == params.f
            ordered = sorted(
                e for e in summary.estimates.values() if e is not BOT
            )
            low, high = ordered[0], ordered[-1]
            assert summary.interval == (low, high)
            assert summary.correction == (low + high) / 2.0

    @pytest.mark.parametrize("n", [30, 2500])
    def test_default_blocks_are_sized_by_bytes(self, n):
        params = derive_parameters(theta=1.001, d=1.0, u=0.01, n=n)
        simulation = VectorizedSimulation(
            params,
            clocks=REGISTRY.create("drift", "extreme", params, 0),
            faulty=range(n - params.f, n),
        )
        row_bytes = 8 * len(simulation.honest)
        derived = simulation._rows_per_block()
        assert derived * row_bytes <= engine.BLOCK_BYTES
        assert engine.BLOCK_BYTES < (derived + 1) * row_bytes
        with _blocks_of(5, simulation):
            assert simulation._rows_per_block() == 5


class _LatePairs(DelayPolicy):
    """``d - u`` on every link but those between two members, which
    take ``d``."""

    def __init__(self, members):
        self.members = frozenset(members)

    def slow(self, src_in, dst_in, send_time, link_is_honest):
        return src_in & dst_in


def _perfect_clocks(n):
    return [HardwareClock.over_row(([0.0], [0.0], [1.0]))] * n


class TestLemma10:
    """The window test is a checked invariant: a message outside its
    receiver's window raises, naming the round, receiver and dealer,
    instead of being voted on."""

    LATE = (
        r"round 1: node 2 received dealer 4's broadcast .* "
        r"outside its window"
    )

    @staticmethod
    def _late_pairs(faulty, trace="none", cut=True, delays=None):
        # Perfect clocks, so every round-1 message arrives theta S +
        # delay after the receiver's pulse.  A window cut between d - u
        # and d (parameters Lemma 10 does not cover; the links keep the
        # original d) leaves exactly 2 -> 4 and 4 -> 2 outside it, and
        # receiver 2's row comes first.
        params = derive_parameters(theta=1.001, d=1.0, u=0.02, n=6)
        simulation = VectorizedSimulation(
            params,
            clocks=_perfect_clocks(6),
            faulty=faulty,
            delay_policy=delays or _LatePairs({2, 4}),
            trace=trace,
        )
        if cut:
            theta, S = params.theta, params.S
            simulation.params = dataclasses.replace(
                params, d=(theta * S + 0.99) / theta - (theta + 1.0) * S
            )
        return simulation

    def test_a_late_broadcast_raises_and_names_it(self):
        with pytest.raises(SimulationError, match=self.LATE):
            self._late_pairs(faulty=[0, 5]).run(max_pulses=3)

    def test_the_class_source_names_it_as_the_dense_block_does(self):
        # faulty = f, so the vote discards nothing: unobserved, the
        # round is read from class extremes; under a full trace, from
        # the dense block.  The violation is one message either way.
        f = derive_parameters(theta=1.001, d=1.0, u=0.02, n=6).f
        faulty = [0, 5][:f]
        telemetry = Telemetry()
        with telemetry_session(telemetry):
            uncut = self._late_pairs(faulty, trace="none", cut=False)
        uncut.run(max_pulses=3)
        assert telemetry.counters["vectorized.rows.dense"] == 0
        assert telemetry.counters["vectorized.rows.extremes"] == 2 * 4
        messages = []
        for trace in ("none", "full"):
            with pytest.raises(SimulationError, match=self.LATE) as error:
                self._late_pairs(faulty, trace=trace).run(max_pulses=3)
            messages.append(str(error.value))
        assert messages[0] == messages[1]

    def test_both_sources_name_the_same_late_random_message(self):
        # Under `random` delays the cut leaves about half the messages
        # late.  Unobserved, the round reads each drawn row's extremes;
        # under a full trace, the dense block.  Both name one message:
        # at seed 16 receiver 1's row is inside its window, and
        # receiver 2's first late dealer is 1, its latest dealer 3.
        f = derive_parameters(theta=1.001, d=1.0, u=0.02, n=6).f
        messages = []
        for trace in ("none", "full"):
            with pytest.raises(SimulationError) as error:
                self._late_pairs(
                    [0, 5][:f], trace=trace, delays=RandomDelayPolicy(16)
                ).run(max_pulses=3)
            messages.append(str(error.value))
        assert messages[0].startswith(
            "round 1: node 2 received dealer 1's broadcast"
        )
        assert messages[0] == messages[1]

    def test_a_row_across_a_segment_start_is_evaluated_densely(self):
        # `random` clocks re-draw their rate every 5.0 time units.  At
        # u = 0.0265 (seed 0) the round whose broadcasts arrive around
        # t = 5.0 has three receivers whose earliest and latest arrival
        # straddle that segment start: they take the dense fallback,
        # the fourth and every other round read class extremes, and the
        # run is the observed (all-dense) run, bit for bit.
        self._three_rows_straddle(seed=0)

    def test_a_random_delay_row_across_a_segment_start(self):
        # The same straddle under `random` delays: at clock and delay
        # seed 3, three receivers' earliest and latest drawn arrival
        # fall on both sides of a segment start and are evaluated
        # densely; every other row reads its two extremes.
        self._three_rows_straddle(seed=3, delays=RandomDelayPolicy(3))

    @staticmethod
    def _three_rows_straddle(seed, delays=None):
        params = derive_parameters(theta=1.001, d=1.0, u=0.0265, n=7)
        results, counters = {}, {}
        for trace in ("none", "full"):
            telemetry = Telemetry()
            with telemetry_session(telemetry):
                simulation = VectorizedSimulation(
                    params,
                    clocks=REGISTRY.create("drift", "random", params, seed),
                    faulty=range(params.n - params.f, params.n),
                    delay_policy=delays,
                    trace=trace,
                )
            results[trace] = simulation.run(max_pulses=8)
            counters[trace] = (
                telemetry.counters["vectorized.rows.extremes"],
                telemetry.counters["vectorized.rows.dense"],
            )
        voted = (params.n - params.f) * 7
        assert counters["none"] == (voted - 3, 3)
        assert counters["full"] == (0, voted)
        assert _same_execution(results["none"], results["full"])

    def test_a_clock_that_steps_back_at_a_segment_start(self):
        # Where the map is not monotone the fallback is load-bearing.
        # Node 0's clock steps back 5e-10 at `start` (inside the 1e-9
        # continuity tolerance, d = 1), and dealer 2 sends 3e-10 earlier
        # than dealers 1 and 3, so node 0's round-1 arrivals straddle
        # `start`: its earliest local receive time is the *later*
        # arrival's.  Reading H(earliest arrival) would vote otherwise.
        params = derive_parameters(theta=1.001, d=1.0, u=0.02, n=6)
        early = 3e-10
        start = params.S + params.dealer_send_offset + params.d - early / 2
        rows = [([0.0, start], [0.0, start - 5e-10], [1.0, 1.0])] + [
            ([0.0], [early if node == 2 else 0.0], [1.0])
            for node in range(1, 6)
        ]
        results, dense = {}, {}
        for trace in ("none", "full"):
            telemetry = Telemetry()
            with telemetry_session(telemetry):
                simulation = VectorizedSimulation(
                    params,
                    clocks=ClockEnsemble(rows, params.theta),
                    faulty=[4, 5],
                    trace=trace,
                )
            results[trace] = simulation.run(max_pulses=4)
            dense[trace] = telemetry.counters["vectorized.rows.dense"]
        assert dense == {"none": 1, "full": 4 * 3}
        assert _same_execution(results["none"], results["full"])

    def test_window_bounds_are_the_event_engines(self):
        # P < h <= window_end: the end is in, P itself and one ulp past
        # the end are out.  The NaN self column is ignored, and a row
        # without another honest dealer reads (+inf, -inf).
        params = derive_parameters(theta=1.001, d=1.0, u=0.02, n=6)
        simulation = VectorizedSimulation(
            params,
            clocks=REGISTRY.create("drift", "extreme", params, 0),
            faulty=[4, 5],
        )
        nan = np.nan
        local_rx = np.array([
            [nan, 1.5, 2.0, 1.25],
            [1.5, nan, 1.5, 1.5],
        ])
        base, window_end = np.array([1.0, 1.0]), np.array([2.0, 2.0])
        rows = np.arange(2)
        first, last = simulation._window_extremes(
            local_rx, rows, 3, base, window_end
        )
        assert first.tolist() == [1.25, 1.5]
        assert last.tolist() == [2.0, 1.5]
        for (i, j, h) in ((1, 3, np.nextafter(2.0, 3.0)), (0, 2, 1.0)):
            outside = local_rx.copy()
            outside[i, j] = h
            with pytest.raises(
                SimulationError,
                match=rf"round 3: node {i} received dealer {j}'s",
            ):
                simulation._window_extremes(
                    outside, rows, 3, base, window_end
                )
        alone = np.full((1, 1), nan)
        first, last = simulation._window_extremes(
            alone, rows[:1], 1, base[:1], window_end[:1]
        )
        assert (first.tolist(), last.tolist()) == ([np.inf], [-np.inf])

    @pytest.mark.parametrize("trace", ["none", "full"])
    def test_a_single_honest_node_matches_the_parent(self, trace):
        # The vacuous vote: no other honest dealer, so the interval is
        # the self-estimate alone.  Pinned from the masked kernel.
        params = derive_parameters(theta=1.001, d=1.0, u=0.02, n=5)
        simulation = VectorizedSimulation(
            params,
            clocks=REGISTRY.create("drift", "random", params, 4),
            faulty=range(1, 5),
            trace=trace,
        )
        result = simulation.run(max_pulses=6)
        assert [t.hex() for t in result.pulses[0]] == [
            "0x1.16b239af143d8p-4", "0x1.25ed27129edcep+1",
            "0x1.21925e2be28c0p+2", "0x1.b025c05c18380p+2",
            "0x1.1f5b6d5ad19e2p+3", "0x1.66a65cf2c234bp+3",
        ]
        assert result.events_processed == 36
        assert float(result.end_time).hex() == "0x1.66a65cf2c234bp+3"
        rounds = result.trace.protocol_events("cps-round")
        assert len(rounds) == (5 if trace == "full" else 0)
        for record in rounds:
            assert record.details.interval == (0.0, 0.0)
            assert record.details.num_bot == 4


class TestTelemetry:
    """The vectorized engine adopts the ambient telemetry session and
    records its round totals once a run."""

    CASE = _case(delay="maximum", drift="extreme")

    def _run(self, backend="vectorized", telemetry=None):
        # A simulation adopts the session it is built in.
        with telemetry_session(telemetry):
            built = build_simulation(self.CASE, backend=backend, seed=3)
        return built.simulation.run(max_pulses=6)

    def test_instrumenting_a_run_changes_nothing(self):
        bare = self._run()
        instrumented = self._run(telemetry=Telemetry())
        assert _same_execution(bare, instrumented)

    def test_snapshots_are_deterministic(self):
        first, second = Telemetry(), Telemetry()
        self._run(telemetry=first)
        self._run(telemetry=second)
        assert first.as_dict() == second.as_dict()
        snapshot = first.as_dict()
        assert snapshot["spans"] == {"sim.run": 1}
        assert snapshot["meta"]["n"] == BASE_CASE["n"]

    def test_the_filled_names_read_as_the_event_engines(self):
        vector, event = Telemetry(), Telemetry()
        result = self._run(telemetry=vector)
        self._run(backend="event", telemetry=event)
        honest = len(result.honest)
        assert vector.counters["pulses.recorded"] == 6 * honest
        assert (
            vector.counters["pulses.recorded"]
            == event.counters["pulses.recorded"]
        )
        # The quota-stopped final round is not counted; the event
        # engine may have accepted part of it before it stopped.
        assert vector.counters["tcb.accepts"] == 5 * honest * (honest - 1)
        assert vector.counters["tcb.accepts"] <= event.counters[
            "tcb.accepts"
        ]
        assert vector.gauges["events.processed"] == (
            result.events_processed
        )
        assert vector.gauges["sim.end_time"] == result.end_time


class TestFacade:
    def test_backend_catalog(self):
        assert BACKENDS == ("event", "vectorized")
        assert resolve_backend(None) == "event"
        assert resolve_backend("vectorized") == "vectorized"

    def test_unknown_backend_did_you_mean(self):
        with pytest.raises(UnknownBackendError, match="vectorized"):
            resolve_backend("vectorised")

    def test_built_simulation_carries_backend(self):
        built = build_simulation(_case(), backend="vectorized")
        assert isinstance(built, BuiltSimulation)
        assert built.backend == "vectorized"
        assert isinstance(built.simulation, VectorizedSimulation)

    def test_event_default(self):
        built = build_simulation(_case())
        assert built.backend == "event"
        assert not isinstance(built.simulation, VectorizedSimulation)

    def test_identical_clocks_across_backends(self):
        # Both engines must see the same hardware clocks for the same
        # (case, seed) — the root of the differential guarantee.
        case = _case(drift="random")
        ev = build_simulation(case, backend="event", seed=5)
        vec = build_simulation(case, backend="vectorized", seed=5)
        for a, b in zip(ev.simulation.clocks, vec.simulation.clocks):
            assert a.segments() == b.segments()
            for t in (0.0, 1.0, 7.5, 31.25):
                assert a.local_time(t) == b.local_time(t)


class TestEnginesRefuseAlike:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_faulty_set_out_of_range(self, backend):
        params = derive_parameters(theta=1.001, u=0.02, d=1.0, n=6)
        clocks = REGISTRY.create("drift", "extreme", params, 0)
        build = {
            "event": lambda: assemble_cps_simulation(
                params, clocks=clocks, faulty=[99]
            ),
            "vectorized": lambda: VectorizedSimulation(
                params, clocks, faulty=[99]
            ),
        }[backend]
        with pytest.raises(
            ConfigurationError, match=r"faulty set \{99\} out of range"
        ):
            build()

    def test_second_run_never_replays_pulses(self):
        # The event engine resumes — a second run() continues from the
        # queue and equals one fresh run to the same quota; the
        # round-batched engine would restart from round 1, so it
        # refuses instead of feeding pulses 1-3 to the same trace and
        # checks twice.
        case = _case(delay="maximum", drift="extreme")
        for event_case in (
            _case(n=9, adversary="rushing-echo", delay="maximum",
                  drift="extreme"),
            case,
        ):
            event = build_simulation(
                event_case, seed=1, trace="full"
            ).simulation
            event.run(max_pulses=3)
            resumed = event.run(max_pulses=6)
            fresh = build_simulation(
                event_case, seed=1, trace="full"
            ).simulation.run(max_pulses=6)
            assert resumed.pulses == fresh.pulses
            assert resumed.events_processed == fresh.events_processed
            assert resumed.end_time == fresh.end_time
            assert resumed.warnings == fresh.warnings == []
            assert resumed.trace.records == fresh.trace.records
            assert _pulse_records(event) == 6 * len(event.honest)
        vector = build_simulation(
            case, seed=1, backend="vectorized", trace="full"
        ).simulation
        first = vector.run(max_pulses=3)
        with pytest.raises(ConfigurationError, match="runs once"):
            vector.run(max_pulses=6)
        assert _pulse_records(vector) == 3 * len(vector.honest)
        for node, times in first.pulses.items():
            assert times == pytest.approx(
                resumed.pulses[node][:3], abs=1e-9
            )


class TestUnsupportedScenarios:
    @pytest.mark.parametrize(
        "case",
        [
            _case(adversary="mimic-split"),
            _case(adversary="coordinated-offset"),
            {**_case(), "churn": "single-crash"},
        ],
        ids=["mimic-split", "coordinated-offset", "churn"],
    )
    def test_build_time_rejection(self, case):
        with pytest.raises(UnsupportedScenarioError):
            build_simulation(case, backend="vectorized")
        # The same case builds fine on the event engine.
        assert build_simulation(case, backend="event").simulation

    def test_fewer_than_f_faulty_nodes_are_refused(self):
        # Fewer than f silent dealers leave the vote values to discard;
        # the event engine is the reference for that vote.
        params = derive_parameters(theta=1.001, d=1.0, u=0.02, n=6)
        assert params.f == 2
        clocks = REGISTRY.create("drift", "extreme", params, 0)
        for faulty in ([], [5]):
            with pytest.raises(
                UnsupportedScenarioError,
                match=rf"{len(faulty)} faulty nodes, fewer than f = 2.*"
                r"backend='event'",
            ):
                VectorizedSimulation(params, clocks, faulty=faulty)
            assert assemble_cps_simulation(
                params, clocks, faulty=faulty
            ).run(max_pulses=3).pulses
        for faulty in ([4, 5], [3, 4, 5]):
            assert VectorizedSimulation(
                params, clocks, faulty=faulty
            ).run(max_pulses=3).pulses

    def test_non_cps_modes_tabulated_as_errors(self):
        report = check_scenario(
            "churn", "single-crash", backend="vectorized"
        )
        assert not report.ok
        assert "UnsupportedScenarioError" in report.error


class TestDelayMatrix:
    N = 6

    def _policies(self):
        for key in REGISTRY.keys("delay"):
            yield key, REGISTRY.create("delay", key, self.N)

    def test_shapes_with_partial_receiver_block(self):
        # Regression: sender-only masks (skewing) once broadcast to
        # (1, senders) instead of (receivers, senders).
        config = NetworkConfig(n=self.N, d=1.0, u=0.02)
        senders = list(range(self.N))
        receivers = senders[:3]
        send_real = np.linspace(0.0, 0.5, self.N)
        rng = np.random.default_rng(0)
        for key, policy in self._policies():
            matrix = delay_matrix(
                policy, config, senders, receivers, send_real, rng
            )
            assert matrix.shape == (3, self.N), key

    #: Per-sender send times over more than three flicker periods
    #: (10.0 each), two of them exact multiples of the period.
    SEND_REAL = (2.0, 9.999, 10.0, 17.5, 20.0, 31.25)

    def test_row_blocks_concatenate_to_the_one_shot_matrix(self):
        config = NetworkConfig(n=self.N, d=1.0, u=0.02)
        senders = list(range(self.N))
        send_real = np.array(self.SEND_REAL)

        def rng_of(policy):
            seeded = isinstance(policy, RandomDelayPolicy)
            return delay_rng(policy) if seeded else None

        for key, policy in self._policies():
            whole = delay_matrix(
                policy, config, senders, senders, send_real,
                rng_of(policy),
            )
            for rows in (1, 3, self.N):
                block = round_delays(
                    policy, config, senders, send_real, rng_of(policy)
                )
                stacked = np.concatenate([
                    block(senders[start:start + rows])
                    for start in range(0, self.N, rows)
                ])
                assert stacked.tolist() == whole.tolist(), (key, rows)

    def test_class_rows_are_the_rows_blocks_pick(self):
        config = NetworkConfig(n=self.N, d=1.0, u=0.02)
        nodes = list(range(self.N))
        send_real = np.array(self.SEND_REAL)
        for key, policy in self._policies():
            if isinstance(policy, RandomDelayPolicy):
                continue
            rows, member = class_delays(policy, config, nodes, send_real)
            whole = delay_matrix(policy, config, nodes, nodes, send_real)
            assert rows[member].tolist() == whole.tolist(), key

    def test_every_block_is_checked_for_admissibility(self):
        class LateToOne(DelayPolicy):
            """A custom policy, inadmissible towards one receiver."""

            members = frozenset({4})

            def slow(self, src_in, dst_in, send_time, link_is_honest):
                return dst_in

            def levels(self, low, high):
                return high, high + 0.5

        config = NetworkConfig(n=self.N, d=1.0, u=0.02)
        senders = list(range(self.N))
        block = round_delays(
            LateToOne(), config, senders, np.array(self.SEND_REAL)
        )
        assert block(senders[:3]).tolist() == [[1.0] * self.N] * 3
        with pytest.raises(ModelViolation, match="outside"):
            block(senders[3:])
        # By class: only a row some receiver takes is checked.
        send_real = np.array(self.SEND_REAL)
        rows, _ = class_delays(LateToOne(), config, senders[:4], send_real[:4])
        assert rows[0].tolist() == [1.0] * 4
        with pytest.raises(ModelViolation, match="outside"):
            class_delays(LateToOne(), config, senders, send_real)
        params = derive_parameters(theta=1.001, d=1.0, u=0.02, n=self.N)
        simulation = VectorizedSimulation(
            params,
            clocks=REGISTRY.create("drift", "extreme", params, 0),
            faulty=[0, 5],
            delay_policy=LateToOne(),
            trace="full",  # every round dense, so read in blocks
        )
        with _blocks_of(2, simulation):
            with pytest.raises(ModelViolation, match="outside"):
                simulation.run(max_pulses=3)

    def test_a_delay_only_policy_is_refused_at_construction(self):
        # A delay() override has no rule this engine could evaluate;
        # running it as the inherited maximum would be a silent
        # fallback.  The event engine still takes it.
        class Custom(DelayPolicy):
            def delay(self, config, src, dst, send_time, payload, honest):
                return config.d - config.u

        class Reseeded(RandomDelayPolicy):
            def delay(self, config, src, dst, send_time, payload, honest):
                return config.d

        class Renamed(RandomDelayPolicy):
            """Inherits the draw, which this engine makes itself."""

        params = derive_parameters(theta=1.001, d=1.0, u=0.02, n=self.N)
        clocks = REGISTRY.create("drift", "extreme", params, 0)
        for policy in (Custom(), Reseeded()):
            with pytest.raises(
                UnsupportedScenarioError, match="overrides delay"
            ):
                VectorizedSimulation(
                    params, clocks, faulty=[4, 5], delay_policy=policy
                )
            assert assemble_cps_simulation(
                params, clocks, faulty=[4, 5], delay_policy=policy
            ).run(max_pulses=3).pulses
        for policy in (RandomDelayPolicy(3), Renamed()):
            VectorizedSimulation(
                params, clocks, faulty=[4, 5], delay_policy=policy
            )


class TestHashStability:
    def test_default_backend_omitted_from_spec_dict(self):
        # Pre-facade spec keys (and the committed result stores keyed
        # by them) must hash unchanged.
        assert "backend" not in MeasurementSpec().as_dict()
        spec = MeasurementSpec(backend="vectorized")
        assert spec.as_dict()["backend"] == "vectorized"
        assert canonical_json(MeasurementSpec()) == canonical_json(
            MeasurementSpec(backend="event")
        )
        assert canonical_json(spec) != canonical_json(
            MeasurementSpec()
        )

    def test_invalid_backend_rejected_at_construction(self):
        with pytest.raises(UnknownBackendError):
            MeasurementSpec(backend="vectorised")

    def test_matrix_payload_backend_key_only_when_non_default(self):
        event = conformance_matrix(kinds=("drift",))
        vector = conformance_matrix(
            kinds=("drift",), backend="vectorized"
        )
        assert "backend" not in event
        assert vector["backend"] == "vectorized"
        assert vector["pass"]
        # Both payloads stay JSON-serializable (the CLI writes them).
        json.dumps(event), json.dumps(vector)


class TestCliBackendFlag:
    def test_check_run_vectorized(self, capsys):
        assert (
            main(
                [
                    "check", "run", "maximum", "--kind", "delay",
                    "--backend", "vectorized",
                ]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_backend_did_you_mean(self):
        with pytest.raises(SystemExit, match="did you mean"):
            main(
                [
                    "check", "run", "maximum", "--kind", "delay",
                    "--backend", "vectorised",
                ]
            )

    def test_check_matrix_refuses_default_out(self, capsys, tmp_path):
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            main(
                [
                    "check", "matrix", "--backend", "vectorized",
                    "--kind", "drift",
                ]
            )
        except SystemExit:
            pass  # matrix verdict exit code is irrelevant here
        finally:
            os.chdir(cwd)
        out = capsys.readouterr().out
        assert "not overwriting" in out
        assert not (tmp_path / "results" / "conformance.json").exists()


class TestE9ScaleCampaign:
    def test_registered_with_vectorized_measurements(self):
        from repro.analysis import experiments  # noqa: F401
        from repro.campaigns import campaign_definition

        spec = campaign_definition("E9-SCALE").spec()
        assert all(
            m.backend == "vectorized"
            for m in spec.measurements.values()
        )
        cases = spec.scenarios[0].grid_for("full")
        assert sorted(c["n"] for c in cases) == [100, 1000, 10000]

    def test_experiment_id_resolves(self):
        from repro.campaigns import available_campaigns

        assert "E9-SCALE" in available_campaigns()
