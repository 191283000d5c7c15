"""The traced run: spans from outside, profile shares, counters.

Spans are recorded by wrapping *public entry points* of :mod:`repro`
for the duration of one pass — coarse ones only, a few per op; the hot
inner calls (``EventQueue.push``, ``honest_send``, ``verify``) get
probes and profile shares instead.  Wrappers are installed by
:meth:`Tracer.install` and removed by :meth:`Tracer.remove`; the timed
(untraced) runs never import this module.

A span has a name (the layer), start, end, the id of the span that
caused it, and the op id shared by all spans of one trial.  A layer's
self time is its spans' duration minus the part their children cover.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import os
import pstats
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from bench import measure, probes
from bench.layers import LAYER_METRICS, PROFILE_LAYERS
from bench.workloads import PassResult, Workload

#: ``(module, attribute path, span name, starts an op)``.  A name may be
#: a callable of the call's positional arguments returning the span
#: name or ``None`` (no span for this call).
SPAN_POINTS: List[Tuple[str, str, Any, bool]] = [
    ("repro.campaigns.executor", "execute_campaign",
     "campaigns.executor.execute_campaign", False),
    ("repro.campaigns.executor", "run_trial",
     "campaigns.executor.run_trial", True),
    ("repro.campaigns.spec", "CampaignSpec.trials_for",
     "campaigns.spec.trials_for", False),
    ("repro.build", "build_simulation", "build.build_simulation", False),
    ("repro.core.topology", "simulate_full_connectivity",
     "build.overlay", False),
    ("networkx", "node_connectivity", "build.overlay", False),
    ("repro.scenarios", "create",
     lambda args: "scenarios.drift.create" if args[:1] == ("drift",)
     else None, False),
    ("repro.sim.scheduler", "Simulation.run", "sim.scheduler.run", False),
    ("repro.sim.vectorized.engine", "VectorizedSimulation.run",
     "sim.vectorized.engine.run", False),
    ("repro.analysis.metrics", "PulseReport.from_pulses",
     "analysis.metrics.report", False),
    ("repro.checks.conformance", "check_scenario",
     "checks.conformance.check_scenario", True),
    ("repro.ablation.report", "ablation_report",
     "ablation.report.ablation_report", False),
    ("repro.campaigns.store", "ResultStore.load",
     "campaigns.store.load", False),
    ("repro.campaigns.queue", "WorkQueue.enqueue",
     "campaigns.queue.enqueue", False),
    ("repro.campaigns.queue", "WorkQueue.claim",
     "campaigns.queue.claim", False),
    ("repro.campaigns.queue", "WorkQueue.complete",
     "campaigns.queue.complete", False),
    ("repro.campaigns.queue", "run_worker",
     "campaigns.queue.run_worker", False),
    ("repro.campaigns.aggregate", "run_summary_table",
     "campaigns.aggregate.table", False),
]

#: Attribute marking a wrapper, so a test can prove none is left behind.
MARK = "__bench_span__"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent id or None, op id or None]``
        self.spans: List[List[Any]] = []
        #: Return values of wrapped calls worth keeping, by span name.
        self.results: Dict[str, List[Any]] = {}
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._ops = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str, op: bool) -> Tuple[int, Optional[int]]:
        previous_op = self._op
        if op and previous_op is None:
            self._ops += 1
            self._op = self._ops
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, parent, self._op]
        )
        self._stack.append(index)
        return index, previous_op

    def _close(self, index: int, previous_op: Optional[int]) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._op = previous_op

    @contextmanager
    def span(self, name: str, op: bool = False) -> Iterator[None]:
        """Record a span around a block (the workloads' ``span`` hook)."""
        index, previous_op = self._open(name, op)
        try:
            yield
        finally:
            self._close(index, previous_op)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, original: Callable, name: Any, op: bool) -> Callable:
        keep = name == "campaigns.queue.run_worker"

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args) if callable(name) else name
            if label is None:
                return original(*args, **kwargs)
            index, previous_op = self._open(label, op)
            try:
                value = original(*args, **kwargs)
            finally:
                self._close(index, previous_op)
            if keep:
                self.results.setdefault(label, []).append(value)
            return value

        setattr(wrapper, MARK, True)
        return wrapper

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every span point, and every alias other modules hold."""
        for module_name, path, name, op in SPAN_POINTS:
            module = importlib.import_module(module_name)
            owner: Any = module
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attribute]
            if isinstance(raw, staticmethod):
                self._patch(
                    owner, attribute,
                    staticmethod(self._wrap(raw.__func__, name, op)),
                )
                continue
            wrapper = self._wrap(raw, name, op)
            self._patch(owner, attribute, wrapper)
            if parents:
                continue
            # ``from x import f`` copies: patch them too.
            for other_name, other in list(sys.modules.items()):
                if other is module or other is None:
                    continue
                if not other_name.startswith(("repro", "bench")):
                    continue
                if other.__dict__.get(attribute) is raw:
                    self._patch(other, attribute, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading --------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus what direct children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _p, _op) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (
                (end - start) - covered[index]
            )
        return totals

    def as_payload(self, workload: str, seed: int) -> Dict[str, Any]:
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "schema": "bench-trace/1",
            "workload": workload,
            "seed": seed,
            "spans": [
                {
                    "id": index,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": op,
                }
                for index, (name, start, end, parent, op)
                in enumerate(self.spans)
            ],
            "self_s": self.self_times(),
        }


def installed_wrappers() -> List[str]:
    """Every wrapper still reachable from a loaded module or class."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(
            ("repro", "bench", "networkx")
        ):
            continue
        for key, value in list(vars(module).items()):
            if getattr(value, MARK, False):
                found.append(f"{module_name}.{key}")
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, member in list(vars(value).items()):
                    member = getattr(member, "__func__", member)
                    if getattr(member, MARK, False):
                        found.append(f"{module_name}.{key}.{attr}")
    return found


# ----------------------------------------------------------------------
# Profile folding
# ----------------------------------------------------------------------


def _layer_of(filename: str, function: str) -> Optional[str]:
    """The profile layer owning a code location (``None``: builtin)."""
    path = filename.replace(os.sep, "/")
    if "/numpy/" in path or (filename == "~" and "numpy" in function):
        return "numpy"
    if "/networkx/" in path:
        return "networkx"
    if filename == "~":
        return None
    marker = "/repro/"
    if marker not in path:
        return "other"
    module = path.rsplit(marker, 1)[1][: -len(".py")].replace("/", ".")
    for layer in sorted(PROFILE_LAYERS, key=len, reverse=True):
        if module == layer or module.startswith(layer + "."):
            return layer
    return "other"


def fold_profile(
    profile: cProfile.Profile,
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Self-time share per layer, call counts, and the numpy-sort share.

    A C builtin's self time is charged to the layers of its callers
    (``heappush`` belongs to whoever pushed), except numpy's, which is
    its own layer.  Shares sum to one by construction.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    seconds: Dict[str, float] = {layer: 0.0 for layer in PROFILE_LAYERS}
    seconds["other"] = 0.0
    calls: Dict[str, int] = {}
    sort_seconds = 0.0
    for (filename, _line, function), entry in stats.items():
        _cc, ncalls, tottime, _ct, callers = entry
        layer = _layer_of(filename, function)
        if layer == "numpy" and "sort" in function:
            sort_seconds += tottime
        if layer is not None:
            seconds[layer] += tottime
            if layer not in ("numpy", "networkx", "other"):
                key = f"{layer}:{function}"
                calls[key] = calls.get(key, 0) + ncalls
            continue
        charged = 0.0
        for (c_file, _c_line, c_function), c_entry in callers.items():
            share = c_entry[2]
            seconds[_layer_of(c_file, c_function) or "other"] += share
            charged += share
        seconds["other"] += max(tottime - charged, 0.0)
    total = sum(seconds.values()) or 1.0
    shares = {layer: value / total for layer, value in seconds.items()}
    return shares, calls, sort_seconds / total


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _span_metrics(
    tracer: Tracer,
    result: PassResult,
    workload: Any,
    baseline: List[PassResult],
) -> Dict[str, float]:
    """Per-layer numbers read off the span pass.

    ``baseline`` (the untraced passes) gives what the workload times
    itself: the campaign legs and the per-command CLI medians.
    """
    ms = 1000.0
    out: Dict[str, float] = {
        "sim.scheduler.run_s": tracer.total("sim.scheduler.run"),
        "sim.vectorized.engine.run_s": tracer.total(
            "sim.vectorized.engine.run"),
        "checks.conformance.scenario_p50_ms": ms * _median(
            tracer.durations("checks.conformance.check_scenario")),
        "ablation.report.report_ms": ms * tracer.total(
            "ablation.report.ablation_report"),
        "build.build_ms": ms * _median(
            tracer.durations("build.build_simulation")),
        "build.overlay_ms": ms * tracer.total("build.overlay"),
        "scenarios.drift.create_ms": ms * _median(
            tracer.durations("scenarios.drift.create")),
        "analysis.metrics.report_ms": ms * _median(
            tracer.durations("analysis.metrics.report")),
        "campaigns.store.loads": float(
            len(tracer.durations("campaigns.store.load"))),
        "campaigns.queue.enqueue_ms": ms * tracer.total(
            "campaigns.queue.enqueue"),
        "campaigns.queue.claim_ms": ms * _median(
            tracer.durations("campaigns.queue.claim")),
        "campaigns.queue.complete_ms": ms * _median(
            tracer.durations("campaigns.queue.complete")),
        "campaigns.queue.reclaims": float(sum(
            stats["reclaimed"] for stats in tracer.results.get(
                "campaigns.queue.run_worker", []))),
        "campaigns.aggregate.table_ms": ms * tracer.total(
            "campaigns.aggregate.table"),
        "campaigns.executor.trial_p95_ms": _percentile(
            [s * ms for s in tracer.durations(
                "campaigns.executor.run_trial")], 0.95),
    }
    if out["sim.vectorized.engine.run_s"] and result.events:
        out["sim.vectorized.engine.ns_per_modeled_event"] = (
            1e9 * out["sim.vectorized.engine.run_s"] / result.events
        )
    if workload.name == "campaign-overhead":
        # The first trials_for span is the plan leg itself.
        out["campaigns.spec.plan_trials_per_s"] = _rate(
            workload.trials,
            tracer.durations("campaigns.spec.trials_for")[0])
        # The workload times its own legs, so their rates come from the
        # untraced passes: a span per no-op trial would dominate them.
        for leg, metric, count in (
            ("serial", "campaigns.executor.serial_trials_per_s", "trials"),
            ("replay", "campaigns.executor.replay_trials_per_s", "trials"),
            ("pool", "campaigns.executor.pool_trials_per_s", "trials"),
            ("queue", "campaigns.queue.trials_per_s", "queue_trials"),
        ):
            out[metric] = _rate(
                getattr(workload, count),
                min(p.detail[f"{leg}_s"] for p in baseline),
            )
    if workload.name == "cli-coldstart":
        invocations = [s * ms for s in tracer.durations("cli.invoke")]
        out["cli.invoke_p75_ms"] = _percentile(invocations, 0.75)
        for command, metric in (
            ("--help", "cli.help_p50_ms"),
            ("campaign list", "cli.campaign_list_p50_ms"),
        ):
            out[metric] = _median([
                elapsed
                for p in baseline + [result]
                for label, elapsed in p.detail.items()
                if label.startswith(f"{command} #")
            ])
    return out


def _profile_metrics(workload: Workload) -> Dict[str, float]:
    """One pass under cProfile inside the public telemetry session.

    The profile gives self-time shares and exact call counts, the
    session the deterministic counters; neither reads a clock that the
    other distorts, so they share the pass.
    """
    from repro.crypto.signatures import clear_verify_cache
    from repro.telemetry import Telemetry, telemetry_session

    # The verify memo is process-wide and the earlier passes filled it:
    # start it empty, as one `repro campaign run` would, so the hit
    # ratio is a campaign's and not identically 1.
    clear_verify_cache()
    telemetry = Telemetry(label=f"bench:{workload.name}")
    profile = cProfile.Profile()
    with telemetry_session(telemetry):
        profile.enable()
        try:
            workload.run_pass()
        finally:
            profile.disable()
    counters = telemetry.as_dict()["counters"]

    def count(key: str) -> float:
        return float(counters.get(key, 0))

    lookups = count("crypto.verify.hits") + count("crypto.verify.misses")
    resolved = count("tcb.instances.resolved")
    shares, calls, sort_share = fold_profile(profile)
    out = {f"{layer}.self_share": share for layer, share in shares.items()}
    out.update({
        "numpy.sort_share": sort_share,
        "sim.events.pushes": float(calls.get("sim.events:push", 0)),
        "sim.network.delays_validated": float(
            calls.get("sim.network:validate_delay", 0)),
        "sim.scheduler.events_dispatched": float(sum(telemetry.dispatch)),
        "sim.scheduler.sends_honest": count("messages.sent.honest"),
        "sim.events.cancelled_lazy": count("events.cancelled.lazy"),
        "crypto.signatures.hit_ratio": (
            count("crypto.verify.hits") / lookups if lookups else 0.0
        ),
        "core.tcb.accepts": count("tcb.accepts"),
        "core.tcb.bot_ratio": (
            count("tcb.instances.bot") / resolved if resolved else 0.0
        ),
    })
    return out


def run_traced(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool,
    out: str,
) -> Dict[str, Any]:
    """One traced run: every per-layer metric of ``BENCHMARK.json``.

    The spans are written to ``<out>/TRACE_<workload>.json``.
    """
    started = time.perf_counter()
    workload, warm, _setup = measure.set_up(name, seed, smoke, started)
    metrics: Dict[str, float] = {key: 0.0 for key in LAYER_METRICS}

    calibration_before = measure.calibration_ops_per_s()
    # Untraced baseline for the overhead share: a third of the passes
    # an untraced run would time.
    walls: List[float] = []
    baseline: List[PassResult] = []
    for _ in range(1 if smoke else max(2, workload.passes(seconds) // 3)):
        t0 = time.perf_counter()
        baseline.append(workload.run_pass())
        walls.append(time.perf_counter() - t0)
    untraced = statistics.median(walls)

    tracer = Tracer()
    workload.span = tracer.span
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span(f"bench.pass.{name}"):
            traced = workload.run_pass()
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.remove()
        del workload.span
    metrics.update(_span_metrics(tracer, traced, workload, baseline))
    metrics["bench.trace_overhead_share"] = (
        (traced_wall - untraced) / untraced
    )

    metrics.update(_profile_metrics(workload))
    if metrics["sim.scheduler.events_dispatched"]:
        metrics["sim.scheduler.ns_per_event"] = (
            1e9 * metrics["sim.scheduler.run_s"]
            / metrics["sim.scheduler.events_dispatched"]
        )
    metrics.update(probes.run(workload, smoke))
    metrics["bench.calibration_ops_per_s"] = (
        measure.calibration_ops_per_s())

    reference = workload.reference()
    reference = reference if reference is not None else warm.digests
    mismatched = measure.mismatched_ops(reference, traced)
    skew = max(p.skew_over_bound for p in baseline + [traced])
    unknown = sorted(set(metrics) - set(LAYER_METRICS))
    if unknown:
        raise RuntimeError(f"metrics outside the layer table: {unknown}")
    result = {
        "schema": measure.SCHEMA,
        "workload": name,
        "seed": seed,
        "trace": 1,
        "smoke": smoke,
        "correct": (
            traced.failed == 0
            and not mismatched
            and skew <= 1.0 + 1e-9
        ),
        "attempted": traced.ops,
        "failed": traced.failed,
        "noisy": abs(
            metrics["bench.calibration_ops_per_s"] / calibration_before
            - 1.0
        ) > measure.NOISE_LIMIT,
        "environment": measure.environment(),
        "calibration_ops_per_s": {
            "before": calibration_before,
            "after": metrics["bench.calibration_ops_per_s"],
        },
        "metrics": {
            key: {"value": value, "unit": LAYER_METRICS[key]["unit"]}
            for key, value in metrics.items()
        },
        "reported": {
            "untraced_wall_s": untraced,
            "traced_wall_s": traced_wall,
            "spans": len(tracer.spans),
            "self_share_sum": sum(
                value for key, value in metrics.items()
                if key.endswith(".self_share")
            ),
            "mismatched_ids": mismatched[:20],
        },
    }
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"TRACE_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.as_payload(name, seed), handle)
        handle.write("\n")
    result["reported"]["trace_file"] = path
    return result
