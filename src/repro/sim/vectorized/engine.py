"""The round-batched CPS engine.

One iteration of the main loop advances *every* honest node through one
full CPS round with array operations:

1. pulse — evaluate each node's next pulse (real, local) time;
2. broadcast — each honest dealer's ``<r>_v`` leaves at local
   ``H_v(p^r_v) + theta S``; the round's delays
   (:mod:`repro.sim.vectorized.delays`) give every arrival time;
3. accept — Lemma 10 puts every other honest dealer's message inside
   the TCB window ``P < h <= P + window``; each receiver's earliest and
   latest ``h`` check it, and a message outside raises
   :class:`SimulationError`.  An unobserved round evaluates only the
   two arrivals, read from its receiver class's sorted arrivals (two
   delay rows) or, for ``random`` delays, from each drawn row; an
   observed round reduces a dense (rows × honest) block instead;
4. vote — offset estimates ``h - P - d + u - S`` (⊥ for each faulty
   dealer, 0 for self).  At least ``f`` dealers are silent, so the
   ``f - b`` discard is empty and the vote reads the extreme estimates
   — step 3's extremes, shifted, and the self-estimate — and takes
   their midpoint;
5. advance — next pulse at local ``P + Delta + T``.

This is exact — not approximate — for the scenarios the backend
accepts: with silent faulty nodes and admissible honest-link delays,
Lemma 10 holds, the event engine's early/stale-message guards reduce to
the same ``P < h <= P + window`` comparison, and echo rejection
provably never fires, so simulating echoes (and per-message event
interleavings generally) cannot change any output.  Scenarios where
that argument breaks — actively Byzantine behaviours, membership churn
— raise :class:`UnsupportedScenarioError` instead of silently
degrading.  The two sources of step 3 agree bit for bit: within one
clock segment the rounded ``t -> (t - s) r + l`` is monotone, so the
local time of the earliest arrival is the earliest local time, and a
receiver whose extremes fall in different segments is evaluated as a
dense row.

Dense receivers are processed in blocks of rows sized so that one
(rows × honest) float64 array stays near :data:`BLOCK_BYTES` — small
enough to live in cache and to be reused instead of mapped afresh for
every elementwise step, and never n × n, which is what lets n = 10,000
runs fit in a few dozen MiB.  Every quantity is computed per receiver
row, so no output depends on where the block boundaries fall, nor on
which source served a row.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # gated dependency: the event engine must work without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from repro.core.cps import CpsRoundSummary
from repro.core.params import RELATIVE_TOLERANCE, ProtocolParameters
from repro.sim.clocks import (
    ClockEnsemble,
    HardwareClock,
    drift_schedule,
    validate_offset_spread,
)
from repro.sim.errors import ClockError, ConfigurationError, SimulationError
from repro.sim.network import (
    DelayPolicy,
    MaximumDelayPolicy,
    NetworkConfig,
    RandomDelayPolicy,
)
from repro.sim.scheduler import SimulationResult
from repro.sim.trace import ProtocolRecord, PulseRecord, Trace
from repro.sim.vectorized.delays import (
    class_delays,
    delay_rng,
    round_delays,
)
from repro.sync.crusader import BOT
from repro.telemetry.context import active_telemetry

#: Target size of one (rows x honest) float64 block array; the sweep
#: that chose it is docs/PERFORMANCE.md, "`BLOCK_BYTES` is a constant,
#: not a knob".
BLOCK_BYTES = 1 << 20


def _row_extremes(
    block: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Each row's smallest and largest entry, NaN ignored."""
    return (
        np.fmin.reduce(block, axis=1, initial=np.inf),
        np.fmax.reduce(block, axis=1, initial=-np.inf),
    )


class UnsupportedScenarioError(ConfigurationError):
    """The vectorized backend cannot run this scenario faithfully.

    Raised at build time (never mid-run) so campaign plans fail fast;
    the message names the unsupported feature and the escape hatch
    (``backend="event"``).
    """


def require_numpy() -> None:
    """Fail with an actionable message when numpy is absent.

    The core package deliberately keeps ``networkx`` as its only hard
    dependency; the vectorized backend is the one numpy consumer and
    gates on it here instead of at import time.
    """
    if np is None:
        raise ConfigurationError(
            "the vectorized backend needs numpy "
            "(pip install numpy, or use backend='event')"
        )


def _ensemble_columns(
    ensemble: ClockEnsemble,
) -> Tuple[Tuple["np.ndarray", "np.ndarray", "np.ndarray"], "np.ndarray"]:
    """``((starts, locals, rates), length)`` of every node: ``(n, K)``
    columns padded with ``+inf``, and each row's segment count.

    Segment rows are laid out with one scatter: each row's values land
    at ``(node, 0..len-1)``, read by one ``np.fromiter`` per column over
    the chained rows (the three lists of a row have one length).
    Wandering rows are derived from the ensemble's draw stream with the
    event layout's arithmetic (:meth:`Draws.row`): ``H(0) =
    offset_scale * x``, rates ``1 + (theta - 1) x``, and locals the
    running sums of ``rate * duration`` from ``H(0)``, taken by a
    row-wise ``np.cumsum`` — sequential, so equal to ``accumulate`` bit
    for bit.  The ensemble numbers its wandering nodes' clocks 0, 1, ...
    in node order, so they read the stream's leading blocks.
    """
    entries = ensemble.entries
    wandering = np.array(
        [isinstance(entry, int) for entry in entries], dtype=bool
    )
    drawn = np.flatnonzero(wandering)
    given = np.flatnonzero(~wandering)
    rows = [entries[v] for v in given.tolist()]
    sizes = np.fromiter((len(row[0]) for row in rows), np.intp, len(rows))
    length = np.zeros(len(entries), dtype=np.intp)
    length[given] = sizes
    if len(drawn):
        draws = ensemble.draws
        durations, grid = drift_schedule(*draws.schedule)
        length[drawn] = len(grid)
    columns = np.full((3, len(entries), max(int(length.max()), 1)), np.inf)
    starts, locals_, rates = columns
    if rows:
        at = np.repeat(given, sizes)
        first = np.repeat(np.cumsum(sizes) - sizes, sizes)
        segment = np.arange(len(at)) - first
        for column, values in zip(columns, zip(*rows)):
            column[at, segment] = np.fromiter(
                chain.from_iterable(values), float, len(at)
            )
    if len(drawn):
        stream = np.fromiter(draws.stream, float, len(draws.stream))
        block = stream.reshape(-1, len(grid))[:len(drawn)]
        rate = block[:, 1:] * (ensemble.theta - 1.0)
        rate += 1.0
        local = np.empty_like(block)
        np.multiply(block[:, 0], draws.offset_scale, out=local[:, 0])
        np.multiply(rate, durations, out=local[:, 1:])
        np.cumsum(local, axis=1, out=local)
        starts[drawn, :len(grid)] = grid
        locals_[drawn, :len(grid)] = local
        rates[drawn, :len(durations)] = rate
        rates[drawn, len(durations)] = 1.0
    return (starts, locals_, rates), length


def _inadmissible(
    starts: "np.ndarray",
    locals_: "np.ndarray",
    rates: "np.ndarray",
    length: "np.ndarray",
    theta: Optional[float],
    tolerance: float,
) -> "np.ndarray":
    """Per row, whether :func:`check_row` rejects it: its conditions as
    reductions over the ``(n, K)`` columns, padding masked out."""
    with np.errstate(invalid="ignore", over="ignore"):
        bad = ~np.isfinite(starts)
        bad |= ~np.isfinite(locals_)
        bad |= ~np.isfinite(rates)
        bad |= rates <= 0
        if theta is not None:
            bad |= ~(
                (1.0 - RELATIVE_TOLERANCE <= rates)
                & (rates <= theta + RELATIVE_TOLERANCE)
            )
        elapsed = starts[:, 1:] - starts[:, :-1]
        later = bad[:, 1:]
        later |= elapsed <= 0
        expected = locals_[:, :-1] + rates[:, :-1] * elapsed
        later |= np.abs(expected - locals_[:, 1:]) > tolerance
    bad &= np.arange(starts.shape[1]) < length[:, None]
    failing = bad.any(axis=1)
    failing |= length == 0
    failing |= np.abs(starts[:, 0]) > tolerance
    failing |= locals_[:, 0] < -tolerance
    return failing


class ClockTable:
    """Clock rows as ``(rows, K)`` arrays, evaluated in batches.

    The vectorized engine's layout of a :class:`ClockEnsemble`, derived
    from its entries in one pass over all n rows
    (:func:`_ensemble_columns`) and checked once
    (:func:`_inadmissible`); a violation re-runs :func:`check_row` on
    the first failing row, so the :class:`ClockError` is the one
    indexing the ensemble raises.  The table keeps the rows of
    ``nodes`` (every node by default), in that order.

    Row ``i`` holds one clock's segment ``starts`` / ``locals`` /
    ``rates``; shorter rows are padded with ``+inf``, which no finite
    query reaches.  Both evaluators choose a segment as the scalar
    clock does — ``bisect_right(...) - 1`` clamped at 0, i.e. the count
    of starts ``<= t``, minus one — and apply the same arithmetic to
    it, so every result is bit-equal to :meth:`HardwareClock.local_time`
    / :meth:`HardwareClock.real_time`.
    """

    def __init__(
        self,
        ensemble: ClockEnsemble,
        nodes: Optional[Sequence[int]] = None,
    ) -> None:
        columns, length = _ensemble_columns(ensemble)
        failing = _inadmissible(
            *columns, length, ensemble.theta, ensemble.tolerance
        )
        if failing.any():
            ensemble.row(int(np.argmax(failing)))  # raises its ClockError
        if nodes is None:
            nodes = range(len(length))
        nodes = np.asarray(nodes, dtype=np.intp)
        self.width = int(length[nodes].max())
        self.tolerance = ensemble.tolerance
        self.starts, self.locals, self.rates = (
            column[nodes, :self.width] for column in columns
        )

    def real_times(self, local: "np.ndarray") -> "np.ndarray":
        """``H_i^{-1}(local[i])`` for every row ``i``."""
        early = local < self.locals[:, 0] - self.tolerance
        if early.any():
            i = int(np.argmax(early))
            raise ClockError(
                f"local time {local[i]} precedes clock start "
                f"{self.locals[i, 0]}"
            )
        index = (self.locals <= local[:, None]).sum(axis=1) - 1
        np.maximum(index, 0, out=index)
        row = np.arange(len(local))
        return self.starts[row, index] + (
            local - self.locals[row, index]
        ) / self.rates[row, index]

    def segments(self, rows, t: "np.ndarray") -> "np.ndarray":
        """The segment of the ``k``-th row of ``rows`` (a slice or an
        index array) that real time ``t[k] >= 0`` falls in."""
        if self.width == 1:
            return np.zeros(len(t), dtype=np.intp)
        index = (self.starts[rows] <= t[:, None]).sum(axis=1) - 1
        np.maximum(index, 0, out=index)
        return index

    def local_times(self, rows, t: "np.ndarray") -> "np.ndarray":
        """``H(t[k, j])`` on the clock of the ``k``-th row of ``rows``
        (a slice or an index array), for real times ``t >= 0`` (one
        block of arrivals).

        One block's arrivals span at most a segment or two, so the
        segment index is each row's index at its earliest query plus
        one comparison per further segment its latest query reaches —
        there is no per-element search and no ``(rows, queries, K)``
        temporary.
        """
        starts = self.starts[rows]
        locals_ = self.locals[rows]
        rates = self.rates[rows]
        if self.width == 1:
            out = t - starts
            out *= rates
            out += locals_
            return out
        first = self.segments(rows, t.min(axis=1))
        reach = self.segments(rows, t.max(axis=1)) - first
        row = np.arange(len(first))
        out = t - starts[row, first, None]
        out *= rates[row, first, None]
        out += locals_[row, first, None]
        for step in range(1, int(reach.max()) + 1):
            # Rows that reach fewer segments re-evaluate their last one.
            seg = first + np.minimum(step, reach)
            start = starts[row, seg, None]
            np.copyto(
                out,
                locals_[row, seg, None] + rates[row, seg, None] * (t - start),
                where=t >= start,
            )
        return out


class VectorizedSimulation:
    """Array-batched CPS execution with the event engine's surface.

    Accepts the assembly-level inputs of
    :func:`repro.core.cps.assemble_cps_simulation` (parameters, clocks,
    faulty set, delay policy, trace spec) and produces a
    :class:`~repro.sim.scheduler.SimulationResult`; ``run`` /
    ``attach_checks`` / ``honest`` match the scheduler's surface, so
    :func:`~repro.analysis.runner.run_pulse_trial`, the conformance
    monitors, and the campaign builders are backend-agnostic.

    Faulty nodes are *silent*: they never pulse, never send, and each
    contributes one ⊥ to every honest node's vote — exactly the
    ``silent`` registry adversary.  Anything else is rejected by the
    facade before construction, and fewer than ``f`` faulty nodes (a
    vote that discards) here.
    """

    def __init__(
        self,
        params: ProtocolParameters,
        clocks: Sequence[HardwareClock],
        faulty: Sequence[int] = (),
        delay_policy: Optional[DelayPolicy] = None,
        u_tilde: Optional[float] = None,
        trace: str = "none",
    ) -> None:
        require_numpy()
        if len(clocks) != params.n:
            raise ConfigurationError(
                f"need {params.n} clocks, got {len(clocks)}"
            )
        # u_tilde only weakens links with a faulty endpoint; silent
        # faulty nodes never use their links, so it cannot affect any
        # vectorized execution — it is accepted (and validated) for
        # facade parity, nothing more.
        self.config = NetworkConfig(params.n, params.d, params.u, u_tilde)
        self.params = params
        self.f = params.f
        self.clocks = ClockEnsemble.of(clocks)
        faulty_set = set(faulty)
        if any(v < 0 or v >= params.n for v in faulty_set):
            raise ConfigurationError(
                f"faulty set {faulty_set} out of range"
            )
        if len(faulty_set) < params.f:
            raise UnsupportedScenarioError(
                f"{len(faulty_set)} faulty nodes, fewer than f = "
                f"{params.f}: the vote would discard values, which only "
                "backend='event' runs"
            )
        self.faulty = sorted(faulty_set)
        self.honest = [v for v in range(params.n) if v not in faulty_set]
        if not self.honest:
            raise ConfigurationError("no honest nodes")
        self.delay_policy = delay_policy or MaximumDelayPolicy()
        if type(self.delay_policy).delay not in (
            DelayPolicy.delay, RandomDelayPolicy.delay
        ):
            raise UnsupportedScenarioError(
                f"delay policy {self.delay_policy.describe()} overrides "
                "delay(), which only backend='event' evaluates"
            )
        self.trace = Trace(trace)
        self.checks: Any = None
        #: Surface parity with the scheduler: the vectorized backend
        #: never carries membership dynamics (the facade rejects churn).
        self.dynamics = None
        self.warnings: List[str] = []
        self._ran = False
        #: The clocks of the honest nodes, laid out (and every row
        #: checked) once, here.
        self.table = ClockTable(self.clocks, self.honest)
        validate_offset_spread(self.table.locals[:, 0].tolist(), params.S)
        # The ambient session, adopted as the event engine adopts it;
        # run() records its round totals once, at the end.
        self.telemetry = active_telemetry()
        if self.telemetry is not None:
            self.telemetry.attach(self)

    # ------------------------------------------------------------------

    def attach_checks(self, checks: Any) -> None:
        """Install (or clear) the streaming conformance observer."""
        self.checks = checks

    def _rows_per_block(self) -> int:
        """Receiver rows per block: as many as keep one (rows x honest)
        float64 array near :data:`BLOCK_BYTES`, at least one."""
        return max(1, BLOCK_BYTES // (8 * len(self.honest)))

    # ------------------------------------------------------------------

    def run(self, max_pulses: int) -> SimulationResult:
        """Execute ``max_pulses`` whole pulse rounds (every honest node
        pulses once per round)."""
        if self._ran:
            raise ConfigurationError(
                "a vectorized simulation runs once: a second run() would "
                "replay rounds into the same trace and checks (build a "
                "new simulation, or use backend='event' to resume)"
            )
        self._ran = True
        block_rows = self._rows_per_block()
        params = self.params
        honest = self.honest
        nh = len(honest)
        n = params.n
        # Observers (checks, a full trace) get every pulse in time
        # order and every estimate.  Unobserved pulses are appended a
        # round at a time: the trains of one node do not depend on the
        # order a round emits them.
        observing = self.checks is not None or self.trace.full
        table = self.table
        rng = (
            delay_rng(self.delay_policy)
            if isinstance(self.delay_policy, RandomDelayPolicy)
            else None
        )
        window = params.tcb_window
        fin_wait = params.tcb_finalize_wait
        tolerance = params.tolerance
        offset_shift = params.d - params.u + params.S
        # Lemma 10 (checked every round): each receiver accepts every
        # other honest dealer and a ⊥ for each faulty one, so the vote
        # sizes are per run.
        num_bot = n - nh
        accepted = nh * (nh - 1)
        accepted_total = 0
        # Only observers (handed every estimate) need the local time of
        # every arrival; every other round evaluates each receiver's
        # earliest and latest.
        rows_dense = rows_extremes = 0
        pulses: Dict[int, List[float]] = {v: [] for v in range(n)}
        trains = [pulses[v] for v in honest]
        events = 0
        end_time = 0.0
        # Next-pulse local targets; Figure 3 starts at local time S.
        local = np.full(nh, params.S)
        for pulse_round in range(1, max_pulses + 1):
            pulse_real = table.real_times(local)
            if observing:
                for i in np.argsort(pulse_real, kind="stable"):
                    self._emit_pulse(
                        pulses, float(pulse_real[i]), honest[i],
                        pulse_round, float(local[i]),
                    )
            else:
                for train, time in zip(trains, pulse_real.tolist()):
                    train.append(time)
            if pulse_round == max_pulses:
                # The event engine halts the instant the slowest node
                # emits its quota-filling pulse, so the final round's
                # broadcasts, votes, and summaries never happen — match
                # that exactly (the TCB-consistency monitor's `checked`
                # count is sensitive to it).
                events += nh
                end_time = max(end_time, float(pulse_real.max()))
                break
            send_real = table.real_times(local + params.dealer_send_offset)
            # Per-receiver vectors of the round.  The association is
            # part of the pinned arithmetic: (P + window) + tolerance.
            window_end = local + window + tolerance
            window_close = local + window + 2.0 * tolerance
            if observing:
                block_delays = round_delays(
                    self.delay_policy, self.config, honest, send_real, rng
                )
                first = np.empty(nh)
                last = np.empty(nh)
                blocks: List[Any] = []
                for start in range(0, nh, block_rows):
                    stop = min(start + block_rows, nh)
                    rows = np.arange(start, stop)
                    receivers = honest[start:stop]
                    # Two float buffers a block: delays become
                    # arrivals, local receive times become estimates.
                    arrival = block_delays(receivers)
                    np.add(send_real, arrival, out=arrival)
                    local_rx = self._receive_times(rows, arrival)
                    base = local[start:stop]
                    first[start:stop], last[start:stop] = (
                        self._window_extremes(
                            local_rx, rows, pulse_round, base,
                            window_end[start:stop],
                        )
                    )
                    estimates = local_rx  # overwritten from here on
                    estimates -= base[:, None]
                    estimates -= offset_shift
                    estimates[rows - start, rows] = 0.0
                    blocks.append((rows, receivers, arrival, estimates))
                rows_dense += nh
            else:
                # The round's windows (P, window_end] for Lemma 10.
                windows = (pulse_round, local, window_end)
                first, last, straddling = (
                    self._class_extremes(send_real, windows, block_rows)
                    if rng is None else self._drawn_extremes(
                        send_real, windows, block_rows, rng
                    )
                )
                rows_dense += straddling
                rows_extremes += nh - straddling
            # The round tail, one for both sources.  Rounding is
            # monotone, so the latest h + wait is the latest h, plus
            # the wait.
            latest = last + fin_wait
            completion_local = (
                np.maximum(latest, window_close) if num_bot else latest
            )
            # x -> (x - P) - shift is monotone under rounding, so the
            # extreme estimates are the extreme h's, shifted; 0 is the
            # self-estimate.
            low = np.minimum(0.0, (first - local) - offset_shift)
            high = np.maximum(0.0, (last - local) - offset_shift)
            correction = (low + high) / 2.0
            completion_real = table.real_times(completion_local)
            end_time = max(end_time, float(completion_real.max()))
            if observing:
                accepts: List[Any] = []
                summaries: List[Any] = []
                for block in blocks:
                    self._collect_round(
                        accepts, summaries, *block, low, high, correction,
                        pulse_round, local,
                    )
                self._emit_round(
                    accepts, summaries, completion_real, honest
                )
            # One modeled event per pulse, per delivered broadcast copy
            # (each dealer reaches all n-1 others), per echo fan-out of
            # an acceptance, and per timer the event engine would fire.
            events += (
                nh * (n - 1)
                + accepted * (n - 1)
                + 3 * nh
                + accepted
            )
            accepted_total += accepted
            local = local + correction + params.T
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.incr(
                "pulses.recorded", sum(len(train) for train in trains)
            )
            telemetry.incr("tcb.accepts", accepted_total)
            telemetry.incr("vectorized.rows.extremes", rows_extremes)
            telemetry.incr("vectorized.rows.dense", rows_dense)
            telemetry.gauges["events.processed"] = events
            telemetry.gauges["sim.end_time"] = end_time
            telemetry.observe_span("sim.run")
        return SimulationResult(
            pulses=pulses,
            honest=list(honest),
            trace=self.trace,
            warnings=list(self.warnings),
            events_processed=events,
            end_time=end_time,
        )

    # ------------------------------------------------------------------

    def _emit_pulse(
        self,
        pulses: Dict[int, List[float]],
        time: float,
        node: int,
        index: int,
        local_time: float,
    ) -> None:
        pulses[node].append(time)
        trace = self.trace
        if trace.full:
            trace.records.append(PulseRecord(time, node, index, local_time))
        if self.checks is not None:
            self.checks.on_pulse(time, node, index, local_time)

    def _receive_times(
        self, rows: "np.ndarray", arrival: "np.ndarray"
    ) -> "np.ndarray":
        """The dense ``(rows, honest)`` local receive times of receiver
        ``rows`` at real times ``arrival``; the self column is set NaN
        (no self-message) after, as a NaN would mislead the segment pick."""
        local_rx = self.table.local_times(rows, arrival)
        local_rx[np.arange(len(rows)), rows] = np.nan
        return local_rx

    def _class_extremes(
        self, send_real: "np.ndarray", windows: Tuple, block_rows: int
    ) -> Tuple["np.ndarray", "np.ndarray", int]:
        """``(first, last, straddling)`` of a deterministic round: a
        receiver's arrivals are its class's ``send + delay`` minus its
        own, so its extremes come from the class's sorted arrivals."""
        delays, member = class_delays(
            self.delay_policy, self.config, self.honest, send_real
        )
        nh = len(send_real)
        if nh == 1:  # no other honest dealer
            return np.array([np.inf]), np.array([-np.inf]), 0
        arrival = send_real + delays
        # Per receiver, its class's two earliest and two latest
        # dealers; the second of a pair stands in for the receiver.
        ranks = np.argsort(arrival, axis=1)[:, [0, 1, -1, -2]][member]
        everyone = np.arange(nh)
        early = np.where(ranks[:, 0] == everyone, ranks[:, 1], ranks[:, 0])
        late = np.where(ranks[:, 2] == everyone, ranks[:, 3], ranks[:, 2])
        times = np.stack(
            (arrival[member, early], arrival[member, late]), axis=1
        )
        return self._two_points(
            0, times, lambda k: arrival[member[k]], windows, block_rows
        )

    def _drawn_extremes(
        self,
        send_real: "np.ndarray",
        windows: Tuple,
        block_rows: int,
        rng: Any,
    ) -> Tuple["np.ndarray", "np.ndarray", int]:
        """``(first, last, straddling)`` of a ``random`` round: each
        block is drawn as an observed round draws it, and each row's
        extremes are its earliest and latest other arrival."""
        block_delays = round_delays(
            self.delay_policy, self.config, self.honest, send_real, rng
        )
        nh = len(send_real)
        first, last = np.empty(nh), np.empty(nh)
        straddling = 0
        for start in range(0, nh, block_rows):
            stop = min(start + block_rows, nh)
            arrival = block_delays(self.honest[start:stop])
            np.add(send_real, arrival, out=arrival)
            own = (np.arange(stop - start), np.arange(start, stop))
            kept, arrival[own] = arrival[own], np.nan
            times = np.stack(_row_extremes(arrival), axis=1)
            arrival[own] = kept
            first[start:stop], last[start:stop], count = self._two_points(
                start, times, lambda k: arrival[k], windows, block_rows
            )
            straddling += count
        return first, last, straddling

    def _two_points(
        self,
        start: int,
        times: "np.ndarray",
        arrivals: Any,
        windows: Tuple,
        block_rows: int,
    ) -> Tuple["np.ndarray", "np.ndarray", int]:
        """What both extreme sources share: ``(first, last, straddling)``
        of rows ``start + k`` from ``times[k]``, their earliest and
        latest real arrival from another honest dealer.

        Within one segment the rounded ``t -> (t - s) r + l`` is
        monotone, so the two's local times are the extremes, bit for
        bit; a row whose two straddle a segment start is evaluated
        densely from ``arrivals(k)`` (its real arrival rows).  Lemma 10
        is then checked against ``windows``; an offending row is
        re-evaluated densely, so it is named as the dense block names it.
        """
        table = self.table
        span = slice(start, start + len(times))
        first, last = table.local_times(span, times).T
        straddling = np.flatnonzero(
            table.segments(span, times[:, 0])
            != table.segments(span, times[:, 1])
        )
        for at in range(0, len(straddling), block_rows):
            k = straddling[at:at + block_rows]
            first[k], last[k] = _row_extremes(
                self._receive_times(start + k, arrivals(k))
            )
        pulse_round, local, window_end = windows
        base, end = local[span], window_end[span]
        outside = first <= base
        outside |= last > end
        if outside.any():
            k = np.flatnonzero(outside)[:1]
            self._window_extremes(
                self._receive_times(start + k, arrivals(k)),
                start + k, pulse_round, base[k], end[k],
            )
        return first, last, len(straddling)

    def _window_extremes(
        self,
        local_rx: "np.ndarray",
        rows: "np.ndarray",
        pulse_round: int,
        base: "np.ndarray",
        window_end: "np.ndarray",
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(first, last)``: per receiver row (of ``rows``), the
        earliest and latest local receive time of the other honest
        dealers' broadcasts (the self column is NaN and ignored) — after
        checking Lemma 10, i.e. that every one lies in the row's window
        ``P < h <= window_end``.

        A message outside it would meet the event engine's early/stale
        guards or echo rejection, which this engine does not model, so
        the run raises instead of computing something else.  A row with
        no other honest dealer reads ``(+inf, -inf)`` and passes.
        """
        first, last = _row_extremes(local_rx)
        outside = first <= base
        outside |= last > window_end
        if outside.any():
            i = int(np.argmax(outside))
            row = local_rx[i]
            j = int(np.argmax((row <= base[i]) | (row > window_end[i])))
            raise SimulationError(
                f"round {pulse_round}: node {self.honest[rows[i]]} "
                f"received dealer {self.honest[j]}'s broadcast at local "
                f"time {row[j]}, outside its window ({base[i]}, "
                f"{window_end[i]}] — Lemma 10 fails, so this backend "
                "would not be exact (use backend='event')"
            )
        return first, last

    def _collect_round(
        self,
        accepts: List[Any],
        summaries: List[Any],
        rows: "np.ndarray",
        receivers: Sequence[int],
        arrival: "np.ndarray",
        estimates: "np.ndarray",
        low: "np.ndarray",
        high: "np.ndarray",
        correction: "np.ndarray",
        pulse_round: int,
        local: "np.ndarray",
    ) -> None:
        """Materialize one block's per-node annotations (small-n
        observation path); ``low`` / ``high`` / ``correction`` are the
        round's, indexed by row.

        Every honest dealer but the node itself is accepted (Lemma 10,
        checked by the kernel).  Only runs when checks or a FULL trace
        are attached — the O(n^2) Python-object cost would dominate
        large-scale runs, and those run unobserved by construction.
        """
        honest = self.honest
        for i, node in enumerate(receivers):
            row_estimates: Dict[int, Any] = {}
            for j, dealer in enumerate(honest):
                if dealer == node:
                    row_estimates[node] = 0.0
                else:
                    row_estimates[dealer] = float(estimates[i, j])
                    accepts.append(
                        (
                            float(arrival[i, j]),
                            node,
                            (pulse_round, dealer),
                        )
                    )
            for dealer in self.faulty:
                row_estimates[dealer] = BOT
            row = int(rows[i])
            summaries.append(
                (
                    row,
                    CpsRoundSummary(
                        pulse_round=pulse_round,
                        pulse_local=float(local[row]),
                        estimates=row_estimates,
                        num_bot=len(self.faulty),
                        interval=(float(low[row]), float(high[row])),
                        correction=float(correction[row]),
                    ),
                )
            )

    def _emit_round(
        self,
        accepts: List[Any],
        summaries: List[Any],
        completion_real: "np.ndarray",
        honest: Sequence[int],
    ) -> None:
        """Feed one round's annotations in scheduler-like order:
        acceptances (by arrival time) strictly before round summaries
        (by completion time) — the order the monitors rely on."""
        for time, node, details in sorted(
            accepts, key=lambda item: (item[0], item[1])
        ):
            self._annotate(time, node, "tcb-accept", details)
        timed = [
            (float(completion_real[index]), honest[index], summary)
            for index, summary in summaries
        ]
        for time, node, summary in sorted(
            timed, key=lambda item: (item[0], item[1])
        ):
            self._annotate(time, node, "cps-round", summary)

    def _annotate(
        self, time: float, node: int, kind: str, details: Any
    ) -> None:
        trace = self.trace
        if trace.full:
            trace.records.append(ProtocolRecord(time, node, kind, details))
        if self.checks is not None:
            self.checks.on_annotate(time, node, kind, details)
