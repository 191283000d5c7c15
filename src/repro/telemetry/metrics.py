"""The metrics registry: counters, gauges, histograms, span counts.

One :class:`Telemetry` handle instruments one unit of work (a campaign
trial, a perf-case run, an ad-hoc simulation).  The simulator feeds it
from the hot path through pre-hoisted references — see
``Simulation.run`` — so the enabled-mode overhead is a dict increment
per event and the disabled mode pays a single ``is None`` test, the
same contract as the ``attach_checks`` and ``dynamics=`` hooks.

Determinism contract
--------------------

:meth:`Telemetry.as_dict` (the snapshot persisted into campaign
sidecars) contains **only deterministic quantities**: counters, gauges,
and histograms of simulated values, plus span *counts* — the handle
holds no wall-clock reading, so ``<spec_key>.telemetry.json`` sidecars
are byte-identical across worker counts and machines.  The campaign trial
wrapper clears the process-global signature-verification memo at trial
start, which makes the ``crypto.verify.*`` deltas per-trial exact and
independent of how trials were partitioned over pool workers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.signatures import verify_cache_stats

#: Counter names for the per-priority dispatch slots of
#: :attr:`Telemetry.dispatch` (indexed by the scheduler's priority int).
DISPATCH_NAMES: Tuple[str, ...] = (
    "events.dispatched.timer",
    "events.dispatched.delivery",
    "events.dispatched.adversary",
    "events.dispatched.churn",
)

#: Counters the scheduler's hot loop bumps with a bare ``dict[key] += 1``
#: — pre-seeded to 0 at handle construction so the key always exists.
HOT_COUNTERS: Tuple[str, ...] = (
    "events.cancelled.lazy",
    "messages.sent.honest",
    "messages.sent.faulty",
    "messages.delivered.honest",
    "messages.delivered.adversary",
    "messages.dropped.inactive",
    "timers.set",
    "timers.dropped.inactive",
    "pulses.recorded",
    "tcb.echoes",
)

#: Fixed bucket boundaries for the message-delay histogram, in units of
#: real time (the registry scenarios all use ``d = 1.0``, so these read
#: as fractions of the maximum delay).
DELAY_BUCKETS: Tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5)

#: Every fixed metric name with a one-line description — the source of
#: truth for ``repro telemetry list`` (the catalog the docs point at)
#: and the ``--metric`` did-you-mean validation.
#: Dynamic families (``annotations.<kind>``, ``dynamics.applied.<kind>``)
#: are validated against the loaded payload instead.
METRIC_CATALOG: Dict[str, str] = {
    "events.dispatched.timer": "timer events processed by the main loop",
    "events.dispatched.delivery": "message deliveries processed",
    "events.dispatched.adversary": "adversary wakeups processed",
    "events.dispatched.churn": "membership-change events processed",
    "events.cancelled.lazy": "cancelled heap entries dropped at the front",
    "events.cancelled.requested": "EventQueue.cancel() calls that hit",
    "events.processed": "total events the simulation processed (gauge)",
    "messages.sent.honest": "sends dispatched by honest protocol code",
    "messages.sent.faulty": "knowledge-checked sends by faulty nodes",
    "messages.delivered.honest": "deliveries handled by an active node",
    "messages.delivered.adversary": "deliveries absorbed by faulty nodes",
    "messages.dropped.inactive": "deliveries dropped at crashed nodes",
    "messages.delay": "histogram of network delays chosen per message",
    "timers.set": "timers requested via NodeAPI.set_timer",
    "timers.dropped.inactive": "timers that fired at crashed nodes",
    "pulses.recorded": "honest pulses generated",
    "tcb.echoes": "TCB echo amplifications (forwarded dealer messages)",
    "tcb.accepts": "TCB instances that observably accepted (Lemma 11)",
    "tcb.instances.resolved": "TCB instances resolved at round completion",
    "tcb.instances.bot": "TCB instances resolved to bot",
    "crypto.verify.hits": "signature-verification memo hits (per trial)",
    "crypto.verify.misses": "signature-verification memo misses",
    "crypto.verify.cache_size": "distinct verification keys memoized",
    "dynamics.deactivate": "scheduler-level node deactivations",
    "dynamics.activate": "scheduler-level node (re)activations",
    "dynamics.corrupt": "honest nodes flipped Byzantine mid-run",
    "dynamics.restore": "Byzantine nodes handed back to the honest side",
    "knowledge.signatures.known": "honest signatures the adversary learned",
    "knowledge.payloads.memoized": "payload walks memoized (gauge)",
    "sim.end_time": "simulated real time when the run stopped (gauge)",
    "vectorized.rows.extremes": "voting-round receiver rows read from "
    "their arrival extremes",
    "vectorized.rows.dense": "voting-round receiver rows evaluated over "
    "every arrival",
}


def available_metrics(payload: Optional[Dict[str, Any]] = None) -> List[str]:
    """Catalog names plus any dynamic metrics present in ``payload``."""
    names = set(METRIC_CATALOG)
    if payload is not None:
        aggregate = payload.get("aggregate") or {}
        for section in ("counters", "gauges", "histograms", "spans"):
            names.update((aggregate.get(section) or {}).keys())
    return sorted(names)


class Histogram:
    """A fixed-boundary histogram of a simulated quantity.

    ``counts[i]`` tallies observations in ``(boundaries[i-1],
    boundaries[i]]`` with an implicit ``+inf`` final boundary.  Both the
    boundaries and the float ``total`` are deterministic: observations
    arrive in simulation order, which worker partitioning cannot change.
    """

    __slots__ = ("boundaries", "counts", "count", "total")

    def __init__(self, boundaries: Sequence[float]) -> None:
        self.boundaries: Tuple[float, ...] = tuple(boundaries)
        self.counts: List[int] = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value

    def as_dict(self) -> Dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }


class Telemetry:
    """One run's worth of instrumentation, fed by the simulator.

    The scheduler hoists :attr:`counters` (a plain dict of int tallies)
    and :attr:`dispatch` (a per-priority list the main loop indexes
    directly) out of its loop; everything else is updated through the
    cold-path hooks below.
    """

    __slots__ = (
        "label",
        "counters",
        "dispatch",
        "gauges",
        "histograms",
        "meta",
        "delay_hist",
        "_spans",
        "_verify_base",
        "_policies",
    )

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.counters: Dict[str, int] = {name: 0 for name in HOT_COUNTERS}
        self.dispatch: List[int] = [0, 0, 0, 0]
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.meta: Dict[str, Any] = {}
        self.delay_hist = Histogram(DELAY_BUCKETS)
        self.histograms["messages.delay"] = self.delay_hist
        self._spans: Dict[str, int] = {}
        self._verify_base = verify_cache_stats()
        self._policies: set = set()

    # -- counters -------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    # -- spans ----------------------------------------------------------

    def observe_span(self, name: str) -> None:
        """Count one completed ``name`` span (e.g. one ``sim.run``)."""
        self._spans[name] = self._spans.get(name, 0) + 1

    # -- simulator hooks (cold paths; the hot loop uses the hoisted
    # ``counters`` / ``dispatch`` references directly) ------------------

    def attach(self, sim: Any) -> None:
        """Called from ``Simulation.__init__`` when this handle is in
        effect; records run-shape metadata."""
        self._policies.add(sim.delay_policy.describe())
        self.meta["delay_policies"] = sorted(self._policies)
        self.meta.setdefault("n", sim.config.n)
        self.meta.setdefault("f", sim.f)

    def on_honest_send(self, src: int, payload: Any, delay: float) -> None:
        counters = self.counters
        counters["messages.sent.honest"] += 1
        # An echo amplification is a forwarded TCB message: the payload
        # names a dealer other than the node relaying it.
        dealer = getattr(payload, "dealer", None)
        if dealer is not None and dealer != src:
            counters["tcb.echoes"] += 1
        self.delay_hist.observe(delay)

    def on_faulty_send(self, delay: float) -> None:
        self.counters["messages.sent.faulty"] += 1
        self.delay_hist.observe(delay)

    def on_annotate(self, kind: str, details: Any) -> None:
        self.incr(f"annotations.{kind}")
        if kind == "cps-round":
            num_bot = getattr(details, "num_bot", None)
            estimates = getattr(details, "estimates", None)
            if num_bot is not None and estimates is not None:
                self.incr("tcb.instances.resolved", len(estimates))
                self.incr("tcb.instances.bot", num_bot)
        elif kind == "tcb-accept":
            self.incr("tcb.accepts")

    def finalize(self, sim: Any) -> None:
        """Called at the end of ``Simulation.run``: fold in the gauges
        that are cheapest to read once per run."""
        info = verify_cache_stats()
        base = self._verify_base
        self.counters["crypto.verify.hits"] = info.hits - base.hits
        self.counters["crypto.verify.misses"] = info.misses - base.misses
        gauges = self.gauges
        gauges["crypto.verify.cache_size"] = info.currsize
        stats = sim.knowledge.stats()
        gauges["knowledge.signatures.known"] = stats["signatures_known"]
        gauges["knowledge.payloads.memoized"] = stats["payloads_memoized"]
        gauges["events.processed"] = sim.events_processed
        gauges["events.cancelled.requested"] = sim.queue.cancelled
        gauges["sim.end_time"] = sim.now

    # -- snapshots ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """The deterministic snapshot persisted into sidecars."""
        counters = dict(self.counters)
        for name, count in zip(DISPATCH_NAMES, self.dispatch):
            if count:
                counters[name] = count
        return {
            "counters": {name: counters[name] for name in sorted(counters)},
            "gauges": {
                name: self.gauges[name] for name in sorted(self.gauges)
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
                if histogram.count
            },
            "spans": {
                name: self._spans[name] for name in sorted(self._spans)
            },
            "meta": {key: self.meta[key] for key in sorted(self.meta)},
        }


def merge_snapshots(
    snapshots: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Aggregate snapshots: counters/spans/histograms sum, gauges max.

    Gauges are per-run readings (end time, table sizes), so the maximum
    is the only order-independent reduction that stays meaningful.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    spans: Dict[str, int] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, value in (snapshot.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in (snapshot.get("gauges") or {}).items():
            if name not in gauges or value > gauges[name]:
                gauges[name] = value
        for name, value in (snapshot.get("spans") or {}).items():
            spans[name] = spans.get(name, 0) + value
        for name, payload in (snapshot.get("histograms") or {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "boundaries": list(payload["boundaries"]),
                    "counts": list(payload["counts"]),
                    "count": payload["count"],
                    "total": payload["total"],
                }
            elif merged["boundaries"] == list(payload["boundaries"]):
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], payload["counts"])
                ]
                merged["count"] += payload["count"]
                merged["total"] += payload["total"]
    return {
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "histograms": {
            name: histograms[name] for name in sorted(histograms)
        },
        "spans": {name: spans[name] for name in sorted(spans)},
    }
