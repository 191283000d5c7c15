"""Streaming theorem-bound monitors.

Each :class:`Monitor` watches one guarantee of the paper *online*: it is
fed pulses and protocol annotations as the simulation executes (through
the :class:`~repro.sim.runtime.SimulationChecks` hook) and emits
structured :class:`Violation` records the moment a bound is exceeded.
Monitors hold only the state a streaming evaluation needs — per-pulse
aggregates are discarded as soon as every honest node has contributed —
so they compose with arbitrarily long runs and with the
``TraceLevel.PULSES`` fast path (no full trace is ever allocated).

The six monitors and their claims:

===================== ===============================================
:class:`SkewBoundMonitor`        Theorem 17 — per-pulse skew ``<= S``
:class:`PeriodWindowMonitor`     Theorem 17 — periods in
                                 ``[P_min, P_max]``
:class:`ProgressMonitor`         Theorem 17 (liveness) — every honest
                                 node pulses each round, times strictly
                                 increase
:class:`TcbConsistencyMonitor`   Lemma 11 — honest acceptances of one
                                 dealer within the consistency window
:class:`ApaContractionMonitor`   Theorem 9 — honest range halves per
                                 APA iteration
:class:`StabilizationMonitor`    Churn — scheduled recoveries happen,
                                 disrupted nodes re-stabilize within a
                                 pulse budget, the stable cohort stays
                                 within ``S``, survivors stay live
===================== ===============================================

:class:`StabilizationMonitor` is the one monitor that stores full pulse
trains instead of streaming aggregates: re-synchronization is judged by
nearest-pulse alignment, which needs pulses *after* the one under test.
Churn runs are bounded (the conformance tiers cap pulses), so the state
stays small; the other monitors keep their streaming discipline.

All bounds come from :mod:`repro.analysis.theory` /
:class:`~repro.core.params.ProtocolParameters`; every comparison is
:func:`repro.analysis.metrics.within` / ``at_least`` — the one
tolerance the experiment tables use too.  The magnitude checks (skew,
``P_min`` / ``P_max``, the Lemma 11 window, both APA bounds, the resync
budget, the post-resync envelope, the stable cohort's skew) go through
:meth:`Monitor.compare`, which also keeps the verdict's
:class:`Headroom`: how close a run came.  The liveness and ordering
checks (pulse order and counts, scheduled activations, re-stabilizing
at all, tail liveness) stay direct :meth:`Monitor.violate` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    at_least,
    cohort_skew,
    stabilization_reports,
    within,
)
from repro.checks.catalog import MONITOR_CATALOG
from repro.dynamics.schedule import FaultSchedule
from repro.sim.runtime import SimulationChecks
from repro.sync.crusader import BOT

@dataclass(frozen=True)
class Violation:
    """One observed breach of a paper guarantee, with full context."""

    monitor: str
    message: str
    observed: float
    bound: float
    time: Optional[float] = None
    node: Optional[int] = None
    pulse: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "monitor": self.monitor,
            "message": self.message,
            "observed": self.observed,
            "bound": self.bound,
            "time": self.time,
            "node": self.node,
            "pulse": self.pulse,
        }

    def describe(self) -> str:
        return f"{self.monitor}: {self.message} " + measured(
            self.observed, self.bound,
            pulse=self.pulse, node=self.node, time=self.time,
        )


def measured(observed: float, bound: float, **where: Any) -> str:
    """``(observed X, bound Y) [pulse P, node N, t=T]``, known places
    only — how a violation, a headroom and a fuzz report print."""
    places = ", ".join(
        f"t={value:.6g}" if name == "time" else f"{name} {value}"
        for name, value in where.items()
        if value is not None
    )
    return f"(observed {observed:.6g}, bound {bound:.6g})" + (
        f" [{places}]" if places else ""
    )


@dataclass(frozen=True)
class Headroom:
    """A monitor's comparison that came closest to its bound: ``ratio``
    is observed / bound (bound / observed for a lower bound), so 1
    grazes the bound and above 1 breaches it; never NaN."""

    monitor: str
    ratio: float
    observed: float
    bound: float
    pulse: Optional[int] = None
    node: Optional[int] = None

    def describe(self) -> str:
        return f"ratio {self.ratio:.6g} " + measured(
            self.observed, self.bound, pulse=self.pulse, node=self.node
        )


@dataclass(frozen=True)
class MonitorVerdict:
    """A monitor's final judgement over one execution (``worst``, the
    :class:`Headroom`, stays out of the pinned :meth:`as_dict`)."""

    monitor: str
    claim: str
    ok: bool
    checked: int
    violations: Tuple[Violation, ...]
    worst: Optional[Headroom] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "monitor": self.monitor,
            "claim": self.claim,
            "ok": self.ok,
            "checked": self.checked,
            "violations": [v.as_dict() for v in self.violations],
        }


class Monitor(SimulationChecks):
    """Base class: a named guarantee evaluated online.

    Subclasses override the event hooks they need and may implement
    :meth:`on_finish` for end-of-run checks (partial aggregates, counts).
    ``checked`` counts the individual bound checks performed (each site
    counts its own; :meth:`compare` does not), so a "pass" verdict
    distinguishes *held N times* from *never evaluated*.  A subclass's
    ``claim`` is its ``name``'s entry in
    :data:`~repro.checks.catalog.MONITOR_CATALOG`.
    """

    name: str = "monitor"
    claim: str = ""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.checked = 0
        self._finished = False
        self.worst: Optional[Headroom] = None

    # -- event hooks ----------------------------------------------------

    def on_pulse(
        self, time: float, node: int, index: int, local_time: float
    ) -> None:
        """An honest node generated its ``index``-th pulse."""

    def on_annotate(
        self, time: float, node: int, kind: str, details: Any
    ) -> None:
        """A protocol annotation arrived (e.g. ``tcb-accept``)."""

    def on_finish(self) -> None:
        """Evaluate whatever must wait for the end of the run."""

    # -- verdicts -------------------------------------------------------

    def violate(self, message: str, observed: float, bound: float,
                **context: Any) -> None:
        self.violations.append(
            Violation(
                monitor=self.name,
                message=message,
                observed=observed,
                bound=bound,
                **context,
            )
        )

    def compare(self, message: str, observed: float, bound: float, *,
                lower: bool = False, time: Optional[float] = None,
                node: Optional[int] = None,
                pulse: Optional[int] = None) -> bool:
        """Judge ``observed <= bound`` (``>=`` when ``lower``), keep the
        worst :class:`Headroom`, and :meth:`violate` when it fails."""
        held = at_least(observed, bound) if lower else within(observed, bound)
        top, base = (bound, observed) if lower else (observed, bound)
        # No ratio over a non-positive base or a NaN: 1 if held, else inf.
        ratio = top / base if base > 0 and top == top else (
            1.0 if held else float("inf")
        )
        worst = self.worst
        if worst is None or ratio > worst.ratio:
            self.worst = Headroom(
                self.name, ratio, observed, bound, pulse, node
            )
        if not held:
            self.violate(
                message, observed, bound, time=time, node=node, pulse=pulse
            )
        return held

    @property
    def ok(self) -> bool:
        return not self.violations

    def finish(self) -> MonitorVerdict:
        """Run the end-of-run checks (once) and return the verdict."""
        if not self._finished:
            self._finished = True
            self.on_finish()
        return MonitorVerdict(
            monitor=self.name,
            claim=self.claim,
            ok=self.ok,
            checked=self.checked,
            violations=tuple(self.violations),
            worst=self.worst,
        )


class _PulseAggregate:
    """Streaming (min, max, count) of one pulse index across nodes."""

    __slots__ = ("low", "high", "count")

    def __init__(self) -> None:
        self.low = float("inf")
        self.high = float("-inf")
        self.count = 0

    def add(self, time: float) -> None:
        if time < self.low:
            self.low = time
        if time > self.high:
            self.high = time
        self.count += 1

    @property
    def spread(self) -> float:
        return self.high - self.low


class SkewBoundMonitor(Monitor):
    """Theorem 17: every pulse's skew is at most ``S``.

    Checked incrementally — the spread of a *partial* set of honest
    pulse times only grows as more nodes contribute, so a breach can be
    flagged the instant the second offending pulse arrives.  One
    violation is recorded per pulse index, which is not compared again.
    """

    name = "skew"
    claim = MONITOR_CATALOG[name]
    breach = "pulse skew exceeds the Theorem 17 bound S"

    def __init__(self, bound: float, honest_count: int) -> None:
        super().__init__()
        self.bound = bound
        self.honest_count = honest_count
        self._open: Dict[int, _PulseAggregate] = {}
        self._flagged: set = set()

    def on_pulse(
        self, time: float, node: int, index: int, local_time: float
    ) -> None:
        entry = self._open.get(index)
        if entry is None:
            entry = self._open[index] = _PulseAggregate()
        entry.add(time)
        self.checked += 1
        complete = entry.count == self.honest_count
        if complete:
            del self._open[index]
        # A plain ``within`` per pulse flags a breach the instant it
        # happens; :meth:`compare` runs then, or once as the index
        # completes (its final spread is its widest), to keep headroom.
        if (
            (complete or not within(entry.spread, self.bound))
            and index not in self._flagged
            and not self.compare(
                self.breach, entry.spread, self.bound,
                time=time, node=node, pulse=index,
            )
        ):
            self._flagged.add(index)

    def on_finish(self) -> None:
        # Indices the run left incomplete held at each of their pulses.
        for index, entry in self._open.items():
            if index not in self._flagged:
                self.compare(
                    self.breach, entry.spread, self.bound, pulse=index
                )


class PeriodWindowMonitor(Monitor):
    """Theorem 17: consecutive pulses satisfy ``P_min``/``P_max``.

    Definition 3's periods compare *global* extremes of consecutive
    pulse indices, so a pair is evaluated as soon as both indices have
    been completed by every honest node; earlier aggregates are then
    discarded.  Indices left incomplete when the run stops are skipped
    (matching how the experiment tables truncate to the common pulse
    count).
    """

    name = "period"
    claim = MONITOR_CATALOG[name]

    def __init__(
        self, p_min: float, p_max: float, honest_count: int
    ) -> None:
        super().__init__()
        self.p_min = p_min
        self.p_max = p_max
        self.honest_count = honest_count
        self._open: Dict[int, _PulseAggregate] = {}
        self._completed: Dict[int, _PulseAggregate] = {}

    def on_pulse(
        self, time: float, node: int, index: int, local_time: float
    ) -> None:
        entry = self._open.get(index)
        if entry is None:
            entry = self._open[index] = _PulseAggregate()
        entry.add(time)
        if entry.count < self.honest_count:
            return
        # Index complete: compare against its completed predecessor.
        del self._open[index]
        self._completed[index] = entry
        previous = self._completed.pop(index - 1, None)
        if previous is None:
            return
        self.checked += 1
        self.compare(
            "period below the Theorem 17 minimum P_min",
            entry.low - previous.high, self.p_min, lower=True,
            time=time, pulse=index,
        )
        self.compare(
            "period above the Theorem 17 maximum P_max",
            entry.high - previous.low, self.p_max, time=time, pulse=index,
        )


class ProgressMonitor(Monitor):
    """Liveness: every honest node pulses each round, in strict order.

    Streaming checks per node — indices increment by one and pulse
    times strictly increase; at the end of the run every honest node
    must have generated at least ``expected`` pulses.
    """

    name = "progress"
    claim = MONITOR_CATALOG[name]

    def __init__(self, honest: Sequence[int], expected: int) -> None:
        super().__init__()
        self.honest = tuple(honest)
        self.expected = expected
        self._counts: Dict[int, int] = {v: 0 for v in self.honest}
        self._last_time: Dict[int, float] = {}

    def on_pulse(
        self, time: float, node: int, index: int, local_time: float
    ) -> None:
        self.checked += 1
        previous = self._counts.get(node, 0)
        if index != previous + 1:
            self.violate(
                f"pulse index jumped from {previous} to {index}",
                observed=float(index),
                bound=float(previous + 1),
                time=time,
                node=node,
                pulse=index,
            )
        self._counts[node] = index
        last = self._last_time.get(node)
        if last is not None and time <= last:
            self.violate(
                "pulse time did not strictly increase",
                observed=time,
                bound=last,
                time=time,
                node=node,
                pulse=index,
            )
        self._last_time[node] = time

    def on_finish(self) -> None:
        for node in self.honest:
            self.checked += 1
            count = self._counts.get(node, 0)
            if count < self.expected:
                self.violate(
                    f"node generated {count} of the expected "
                    f"{self.expected} pulses",
                    observed=float(count),
                    bound=float(self.expected),
                    node=node,
                )


class TcbConsistencyMonitor(Monitor):
    """Lemma 11: honest acceptances of one dealer land close together.

    Consumes the ``tcb-accept`` annotations the CPS node emits on
    acceptance and the per-round ``cps-round`` summaries that reveal
    which acceptances survived to a non-⊥ output.  For every
    ``(round, dealer)`` group the real-time spread of surviving
    acceptances must stay within the Lemma 11 consistency window
    ``(1 - 1/theta) d + 2u / theta``.  Groups are evaluated (and freed)
    once every honest node has reported its round summary; groups left
    partial at the end of the run are evaluated as-is — a partial
    spread only underestimates the true one, so this cannot
    false-positive.
    """

    name = "tcb-consistency"
    claim = MONITOR_CATALOG[name]

    def __init__(self, window: float, honest_count: int) -> None:
        super().__init__()
        self.window = window
        self.honest_count = honest_count
        # round -> dealer -> node -> acceptance real time
        self._accepts: Dict[int, Dict[int, Dict[int, float]]] = {}
        # round -> dealer -> node -> survived (estimate was not ⊥)
        self._accepted: Dict[int, Dict[int, List[Tuple[int, bool]]]] = {}
        self._summaries: Dict[int, int] = {}

    def on_annotate(
        self, time: float, node: int, kind: str, details: Any
    ) -> None:
        if kind == "tcb-accept":
            pulse_round, dealer = details
            per_round = self._accepts.setdefault(pulse_round, {})
            per_round.setdefault(dealer, {})[node] = time
        elif kind == "cps-round":
            pulse_round = details.pulse_round
            survivors = self._accepted.setdefault(pulse_round, {})
            for dealer, estimate in details.estimates.items():
                if dealer == node:
                    continue
                survivors.setdefault(dealer, []).append(
                    (node, estimate is not BOT)
                )
            seen = self._summaries.get(pulse_round, 0) + 1
            self._summaries[pulse_round] = seen
            if seen == self.honest_count:
                self._evaluate_round(pulse_round)

    def _evaluate_round(self, pulse_round: int) -> None:
        accepts = self._accepts.pop(pulse_round, {})
        survivors = self._accepted.pop(pulse_round, {})
        self._summaries.pop(pulse_round, None)
        for dealer, reports in survivors.items():
            times = [
                accepts.get(dealer, {}).get(node)
                for node, survived in reports
                if survived
            ]
            times = [t for t in times if t is not None]
            if len(times) < 2:
                continue
            self.checked += 1
            self.compare(
                f"acceptances of dealer {dealer} spread beyond the "
                f"Lemma 11 window",
                max(times) - min(times), self.window,
                time=max(times), node=dealer, pulse=pulse_round,
            )

    def on_finish(self) -> None:
        for pulse_round in sorted(self._accepted):
            self._evaluate_round(pulse_round)


class ApaContractionMonitor(Monitor):
    """Theorem 9: the honest range at most halves every APA iteration.

    Fed a range trajectory (index 0 = initial inputs) via
    :meth:`observe_ranges`; each consecutive pair must satisfy
    ``r_{i+1} <= r_i / 2`` and the final range must respect the
    cumulative bound ``r_0 / 2^k``.
    """

    name = "apa-contraction"
    claim = MONITOR_CATALOG[name]

    def observe_ranges(self, ranges: Sequence[float]) -> None:
        for index in range(len(ranges) - 1):
            self.checked += 1
            before, after = ranges[index], ranges[index + 1]
            self.compare(
                f"iteration {index + 1} contracted "
                f"{before:.6g} -> {after:.6g} (needs halving)",
                after, before / 2.0, pulse=index + 1,
            )
        if len(ranges) >= 2:
            self.checked += 1
            iterations = len(ranges) - 1
            self.compare(
                f"final range after {iterations} iterations exceeds "
                f"the cumulative bound",
                ranges[-1], ranges[0] / (2.0 ** iterations), pulse=iterations,
            )


class StabilizationMonitor(Monitor):
    """Churn: disruptions heal — recoveries fire, rejoiners re-stabilize.

    Constructed from the *intended* :class:`FaultSchedule`, so the
    monitor knows which membership changes an execution promised.  It
    consumes the ``churn`` annotations the
    :class:`~repro.dynamics.injector.ChurnController` emits (trace-level
    independent, like every check) plus the honest pulse stream, and at
    the end of the run verifies:

    1. every scheduled activation (recover / join / restore) was
       actually applied — a node that silently stays down is exactly
       the failure mode the promoted churn fixture (a recovery
       scheduled after the run ends) proves detectable;
    2. each activated node re-stabilizes: within ``resync_budget`` of
       its post-activation pulses, its nearest-pulse alignment envelope
       against the stable cohort drops to ``envelope`` (the skew bound
       ``S`` by default) and stays there;
    3. the stable cohort (never-disturbed nodes that pulsed) keeps its
       pulse skew within ``envelope`` over the whole run — not counted
       in ``checked``;
    4. tail liveness: every node the schedule expects to be active at
       the end pulsed within ``tail_window`` of the run's last pulse.
    """

    name = "stabilization"
    claim = MONITOR_CATALOG[name]

    def __init__(
        self,
        schedule: FaultSchedule,
        n: int,
        envelope: float,
        resync_budget: int,
        tail_window: float,
    ) -> None:
        super().__init__()
        self.schedule = schedule
        self.n = n
        self.envelope = envelope
        self.resync_budget = resync_budget
        self.tail_window = tail_window
        self._pulses: Dict[int, List[float]] = {}
        self._applied: List[Tuple[float, str, int]] = []

    def on_pulse(
        self, time: float, node: int, index: int, local_time: float
    ) -> None:
        self._pulses.setdefault(node, []).append(time)

    def on_annotate(
        self, time: float, node: int, kind: str, details: Any
    ) -> None:
        if kind == "churn":
            self._applied.append((time, details["action"], node))

    # -- end-of-run evaluation -----------------------------------------

    def on_finish(self) -> None:
        self._check_activations()
        self._check_tail_liveness()

    def _check_activations(self) -> None:
        # The k-th scheduled (kind, node) change is the k-th applied one.
        pending = list(self._applied)
        observed = []
        for event in self.schedule.activations():
            entry = next(
                (a for a in pending if a[1:] == (event.kind, event.node)),
                None,
            )
            if entry is not None:
                pending.remove(entry)
            observed.append((event, entry))
        cohort, reports = stabilization_reports(
            self._pulses,
            self.schedule.stable_nodes(self.n),
            [entry for _event, entry in observed if entry is not None],
            self.envelope,
        )
        reports = iter(reports)
        for event, entry in observed:
            self.checked += 1
            if entry is None:
                self.violate(
                    f"scheduled {event.kind} of node {event.node} at "
                    f"{event.trigger()} never occurred",
                    observed=0.0,
                    bound=1.0,
                    node=event.node,
                )
                continue
            time, report = entry[0], next(reports)
            self.checked += 1
            if not report.resynced:
                worst = max(
                    (
                        value
                        for value in report.trajectory
                        if value == value  # drop NaNs
                    ),
                    default=float("inf"),
                )
                self.violate(
                    f"node {event.node} never re-stabilized after its "
                    f"{event.kind}",
                    observed=worst,
                    bound=self.envelope,
                    time=time,
                    node=event.node,
                )
                continue
            self.compare(
                f"node {event.node} took {report.pulses_to_resync} "
                f"pulses to re-stabilize after its {event.kind}",
                float(report.pulses_to_resync), float(self.resync_budget),
                time=time, node=event.node,
            )
            # Records headroom only: ``report.envelope`` is the worst of
            # values ``stabilization_reports`` already held to it.
            self.compare(
                f"node {event.node} left the envelope after "
                f"re-stabilizing from its {event.kind}",
                report.envelope, self.envelope, time=time, node=event.node,
            )
        if cohort:
            self.compare(
                "stable cohort skew exceeds the Theorem 17 bound S",
                cohort_skew(self._pulses, cohort),
                self.envelope,
            )

    def _check_tail_liveness(self) -> None:
        last_any = max(
            (times[-1] for times in self._pulses.values() if times),
            default=None,
        )
        if last_any is None:
            return
        horizon = last_any - self.tail_window
        for node in self.schedule.finally_active(self.n):
            self.checked += 1
            times = self._pulses.get(node, [])
            last = times[-1] if times else float("-inf")
            if not at_least(last, horizon):
                self.violate(
                    f"node {node} fell silent: last pulse "
                    f"{last_any - last:.6g} before the end of the run "
                    f"(allowed {self.tail_window:.6g})",
                    observed=last,
                    bound=horizon,
                    node=node,
                )


class CheckSet(SimulationChecks):
    """A fan-out of monitors, attachable to a simulation as one hook."""

    __slots__ = ("monitors",)

    def __init__(self, monitors: Sequence[Monitor]) -> None:
        self.monitors = list(monitors)

    def on_pulse(
        self, time: float, node: int, index: int, local_time: float
    ) -> None:
        for monitor in self.monitors:
            monitor.on_pulse(time, node, index, local_time)

    def on_annotate(
        self, time: float, node: int, kind: str, details: Any
    ) -> None:
        for monitor in self.monitors:
            monitor.on_annotate(time, node, kind, details)

    def finish(self) -> List[MonitorVerdict]:
        """Finalize every monitor and collect the verdicts."""
        return [monitor.finish() for monitor in self.monitors]
