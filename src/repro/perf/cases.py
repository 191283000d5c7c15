"""The registered perf cases: named workloads measured by ``repro perf``.

Each case builds and runs real simulations under a
:class:`~repro.perf.probe.PerfProbe` and reports the simulator events it
processed.  Cases accept a scale (``quick`` for the CI smoke gate,
``full`` for local investigation) that widens the workload without
changing its shape.

``e5-stress`` is the reference case for the engine rewrite: the E5
resilience grid (CPS and Lynch-Welch at the extreme fault counts) under
the three registry delay policies of the stress tier — the workload the
pre-rewrite scheduler processed at ~96k events/sec (FULL trace, one
2.3 GHz core; see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.perf.bench import BenchResult
from repro.perf.probe import PerfProbe

#: A case body: ``run(scale)`` returning (events, meta) — the probe wall
#: time is captured around the call by :func:`run_case`.
CaseBody = Callable[[str], Tuple[int, Dict[str, object]]]

PERF_CASES: Dict[str, "PerfCase"] = {}


class PerfCase:
    """A named measurable workload."""

    def __init__(self, name: str, description: str, body: CaseBody) -> None:
        self.name = name
        self.description = description
        self.body = body


def register_case(
    name: str, description: str
) -> Callable[[CaseBody], CaseBody]:
    def decorate(body: CaseBody) -> CaseBody:
        PERF_CASES[name] = PerfCase(name, description, body)
        return body

    return decorate


def available_cases() -> List[str]:
    return sorted(PERF_CASES)


def run_case(
    name: str,
    scale: str = "quick",
    repeats: int = 3,
    backend: Optional[str] = None,
) -> BenchResult:
    """Measure one case: best-of-``repeats`` wall time, summed events.

    The first (warmup) run is excluded — it pays import, allocation, and
    cache-priming costs that steady-state throughput should not include.
    The signature-verification memo's hit/miss delta across the measured
    repeats is reported as ``meta["verify_cache"]`` (warm-cache steady
    state, since the warmup run primes the memo).

    ``backend`` (when given) is forwarded to case bodies that declare a
    ``backend`` parameter — the backend-aware cases, e.g.
    ``e9-vectorized-*``, whose bodies carry their own default backend.
    An override against a body without one is an error rather than a
    silently ignored flag; ``None`` leaves every body's default alone.
    """
    import inspect

    from repro.build import resolve_backend
    from repro.crypto.signatures import verify_cache_stats
    from repro.sim.errors import ConfigurationError

    case = PERF_CASES[name]
    accepts_backend = (
        "backend" in inspect.signature(case.body).parameters
    )
    if backend is not None:
        backend = resolve_backend(backend)
        if not accepts_backend:
            aware = [
                key
                for key in available_cases()
                if "backend" in inspect.signature(
                    PERF_CASES[key].body
                ).parameters
            ]
            raise ConfigurationError(
                f"perf case {name!r} does not take a backend "
                f"override; backend-aware cases: {aware}"
            )
    kwargs = {"backend": backend} if (
        accepts_backend and backend is not None
    ) else {}
    case.body(scale, **kwargs)  # warmup, unmeasured
    cache_before = verify_cache_stats()
    best: Tuple[float, int, Dict[str, object]] = (float("inf"), 0, {})
    for _ in range(max(repeats, 1)):
        probe = PerfProbe(calibrate=False)
        with probe:
            events, meta = case.body(scale, **kwargs)
            probe.add_events(events)
        if probe.wall_seconds < best[0]:
            best = (probe.wall_seconds, probe.events, meta)
    cache_after = verify_cache_stats()
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    lookups = hits + misses
    verify_cache = {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else None,
    }
    final = PerfProbe()
    final.wall_seconds, final.events = best[0], best[1]
    return BenchResult.from_reading(
        name,
        final.reading(
            scale=scale,
            description=case.description,
            verify_cache=verify_cache,
            **best[2],
        ),
    )


# ----------------------------------------------------------------------
# Case bodies
# ----------------------------------------------------------------------


@register_case(
    "e5-stress",
    "E5 resilience grid (CPS + Lynch-Welch) under the stress-tier "
    "delay policies; the engine-rewrite reference workload",
)
def _e5_stress(scale: str) -> Tuple[int, Dict[str, object]]:
    from repro.campaigns.builders import resilience_trial
    from repro.campaigns.spec import MeasurementSpec
    from repro.core.params import max_faults

    n, seed = 9, 5
    pulses = 20 if scale == "quick" else 60
    measurement = MeasurementSpec(pulses=pulses, warmup=8)
    total_events = 0
    trials = 0
    for delay_key in ("skewing", "eclipse", "flicker-partition"):
        for f in (0, max_faults(n)):
            for algorithm in ("CPS", "Lynch-Welch"):
                case = {
                    "n": n,
                    "theta": 1.001,
                    "d": 1.0,
                    "u": 0.02,
                    "f": f,
                    "algorithm": algorithm,
                    "delay": delay_key,
                }
                events = resilience_trial(case, measurement, seed)["events"]
                assert events, f"{algorithm} f={f} {delay_key} died"
                total_events += events
                trials += 1
    return total_events, {"trials": trials, "pulses": pulses}


@register_case(
    "cps-full-trace",
    "One CPS system under mimic-split with FULL tracing — guards the "
    "record-allocating path the examples and tests rely on",
)
def _cps_full_trace(scale: str) -> Tuple[int, Dict[str, object]]:
    from repro.analysis.runner import run_pulse_trial
    from repro.build import build_simulation

    n = 9 if scale == "quick" else 13
    pulses = 25 if scale == "quick" else 50
    simulation = build_simulation(
        {
            "n": n,
            "theta": 1.001,
            "d": 1.0,
            "u": 0.02,
            "adversary": "mimic-split",
            "drift": "extreme",
        },
        seed=3,
        trace="full",
    ).simulation
    outcome = run_pulse_trial(simulation, pulses, warmup=5)
    assert outcome.result is not None, outcome.error
    return outcome.result.events_processed, {
        "pulses": pulses,
        "trace_records": len(outcome.result.trace.records),
    }


@register_case(
    "stress-campaign",
    "The STRESS campaign (registry adversary/delay/drift/topology cross "
    "products) through the campaign executor, serial",
)
def _stress_campaign(scale: str) -> Tuple[int, Dict[str, object]]:
    from repro.campaigns import campaign_definition, execute_campaign

    campaign_scale = "quick" if scale == "quick" else "full"
    definition = campaign_definition("STRESS")
    run = execute_campaign(definition.spec(), scale=campaign_scale)
    events = sum(r.metrics.get("events", 0) for r in run.records)
    return events, {"trials": len(run.records), "failed": run.failed}


@register_case(
    "telemetry-overhead",
    "CPS stress workload run bare and under an active telemetry "
    "handle — guards the zero-cost-when-unused instrumentation hooks",
)
def _telemetry_overhead(scale: str) -> Tuple[int, Dict[str, object]]:
    import time as time_module

    from repro.analysis.runner import run_pulse_trial
    from repro.build import build_simulation
    from repro.telemetry import Telemetry, telemetry_session

    pulses = 15 if scale == "quick" else 45
    case = {
        "n": 9,
        "theta": 1.001,
        "d": 1.0,
        "u": 0.02,
        "adversary": "mimic-split",
        "delay": "skewing",
        "drift": "extreme",
    }

    def build():  # one fresh instrumentable system per measurement
        return build_simulation(case, seed=5).simulation

    started = time_module.perf_counter()
    bare = run_pulse_trial(build(), pulses, warmup=8)
    bare_seconds = time_module.perf_counter() - started
    assert bare.result is not None, bare.error

    telemetry = Telemetry(label="telemetry-overhead")
    started = time_module.perf_counter()
    with telemetry_session(telemetry):
        instrumented = run_pulse_trial(build(), pulses, warmup=8)
    instrumented_seconds = time_module.perf_counter() - started
    assert instrumented.result is not None, instrumented.error

    # The hooks must never change simulated behaviour, only observe it.
    assert bare.result.pulses == instrumented.result.pulses, (
        "telemetry instrumentation perturbed the simulation"
    )
    events = bare.result.events_processed
    assert instrumented.result.events_processed == events, (
        "telemetry instrumentation changed the event count"
    )
    overhead = (
        (instrumented_seconds - bare_seconds) / bare_seconds
        if bare_seconds > 0
        else 0.0
    )
    snapshot = telemetry.as_dict()
    return events * 2, {
        "pulses": pulses,
        "bare_seconds": round(bare_seconds, 6),
        "instrumented_seconds": round(instrumented_seconds, 6),
        "overhead_fraction": round(overhead, 4),
        "dispatched": sum(
            value
            for name, value in snapshot["counters"].items()
            if name.startswith("events.dispatched.")
        ),
    }


def _e9_scale_point(
    n: int, scale: str, backend: str
) -> Tuple[int, Dict[str, object]]:
    """One E9-SCALE grid point: silent-adversary CPS at scale ``n``.

    The same registry case the E9-SCALE campaign sweeps; ``events`` are
    the *modeled* events (what the event engine would have dispatched),
    so events/sec across backends measures simulated-work throughput —
    the number the scale study exists to compare.
    """
    from repro.analysis.runner import run_pulse_trial
    from repro.build import build_simulation

    case = {
        "n": n,
        "theta": 1.001,
        "d": 1.0,
        "u": 0.01,
        "adversary": "silent",
        "delay": "maximum",
        "drift": "extreme",
    }
    pulses = 5 if scale == "quick" else 8
    built = build_simulation(case, backend=backend, seed=7, trace="none")
    outcome = run_pulse_trial(built.simulation, pulses, warmup=2)
    assert outcome.result is not None, outcome.error
    assert outcome.report is not None, "scale point must stay live"
    return outcome.result.events_processed, {
        "n": n,
        "pulses": pulses,
        "backend": backend,
        "max_skew": round(outcome.report.max_skew, 9),
        "bound_S": round(built.params.S, 9),
    }


@register_case(
    "e9-vectorized-1k",
    "E9-SCALE point at n=1,000 on the vectorized backend (silent "
    "adversary, maximum delays, extreme drift)",
)
def _e9_vectorized_1k(
    scale: str, backend: str = "vectorized"
) -> Tuple[int, Dict[str, object]]:
    return _e9_scale_point(1000, scale, backend)


@register_case(
    "e9-vectorized-10k",
    "E9-SCALE point at n=10,000 on the vectorized backend — the "
    "regime the round-batched engine exists for",
)
def _e9_vectorized_10k(
    scale: str, backend: str = "vectorized"
) -> Tuple[int, Dict[str, object]]:
    return _e9_scale_point(10000, scale, backend)


@register_case(
    "queue-churn",
    "EventQueue push/pop microbenchmark (heap + slab, no protocol work)",
)
def _queue_churn(scale: str) -> Tuple[int, Dict[str, object]]:
    from repro.sim.events import PRIORITY_DELIVERY, EventQueue, TimerEvent

    operations = 100_000 if scale == "quick" else 500_000
    queue = EventQueue()
    event = TimerEvent(0, "tick", 0.0)
    push, pop = queue.push, queue.pop
    # Interleave pushes and pops with drifting times: the heap stays
    # ~1000 entries deep, like a mid-size simulation.
    for i in range(1000):
        push(float(i), PRIORITY_DELIVERY, event)
    for i in range(operations):
        push(1000.0 + i * 0.5, PRIORITY_DELIVERY, event)
        pop()
    while pop() is not None:
        pass
    return operations, {"operations": operations}
