"""Probes: a layer's public function called directly in a timed loop.

The hot inner calls are too fine for spans (a wrapper would cost more
than the call), so the traced run times them in isolation here, on
inputs shaped like the workload's.  Each probe runs for a small fixed
budget and reports the mean cost of one call; the loop's own overhead
(one Python call, ~50 ns) is included and is the same on both sides of
any comparison.
"""

from __future__ import annotations

import os
import pickle
import random
import re
import tempfile
import time
from typing import Any, Callable, Dict, Iterable, List

from bench.workloads import Workload

#: Seconds each probe loops for (full scale / smoke scale).
BUDGET = 0.12
SMOKE_BUDGET = 0.01


def per_call(
    body: Callable[[], Any], budget: float, batch: int = 200
) -> float:
    """Mean seconds per ``body()`` over roughly ``budget`` seconds.

    The clock is read once per ``batch`` calls; millisecond-scale
    bodies pass ``batch=1``.
    """
    calls = 0
    start = time.perf_counter()
    while True:
        for _ in range(batch):
            body()
        calls += batch
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return elapsed / calls


def per_item(
    prepare: Callable[[], Iterable[Any]],
    body: Callable[[Any], Any],
    budget: float,
) -> float:
    """Mean seconds per ``body(item)``; ``prepare()`` is not timed."""
    calls = 0
    spent = 0.0
    while spent < budget:
        items = list(prepare())
        start = time.perf_counter()
        for item in items:
            body(item)
        spent += time.perf_counter() - start
        calls += len(items)
    return spent / calls


# ----------------------------------------------------------------------
# Event engine
# ----------------------------------------------------------------------


def event_queue(budget: float) -> Dict[str, float]:
    from repro.sim.events import PRIORITY_DELIVERY, EventQueue, TimerEvent

    queue = EventQueue()
    event = TimerEvent(0, "tick", 0.0)
    for i in range(1000):
        queue.push(float(i), PRIORITY_DELIVERY, event)
    clock = [1000.0]

    def push_pop() -> None:
        clock[0] += 0.5
        queue.push(clock[0], PRIORITY_DELIVERY, event)
        queue.pop()

    def doomed() -> List[int]:
        # Pushed in front of every live key, so the lazy cleanup of
        # peek_time() drops them again and the depth stays at 1000.
        queue.peek_time()
        return [
            queue.push(-1.0, PRIORITY_DELIVERY, event) for _ in range(500)
        ]

    return {
        "sim.events.push_pop_ns": 1e9 * per_call(push_pop, budget),
        "sim.events.cancel_ns": 1e9 * per_item(
            doomed, queue.cancel, budget),
    }


def network_delay(budget: float) -> Dict[str, float]:
    from repro import scenarios
    from repro.sim.network import NetworkConfig

    n = 9
    config = NetworkConfig(n, 1.0, 0.02)
    costs = []
    # The delay policies of the STRESS grid.
    for key in ("skewing", "eclipse", "flicker-partition", "random"):
        policy = scenarios.create("delay", key, n)
        state = [0]

        def one(policy: Any = policy, state: List[int] = state) -> None:
            i = state[0] = state[0] + 1
            delay = policy.delay(
                config, i % n, (i + 1) % n, i * 0.37, None, True
            )
            config.validate_delay(delay, True, True)

        costs.append(per_call(one, budget / 4))
    return {"sim.network.delay_ns": 1e9 * sum(costs) / len(costs)}


def clocks(seed: int, budget: float) -> Dict[str, float]:
    from repro.sim.clocks import HardwareClock

    clock = HardwareClock.random_drift(random.Random(seed), theta=1.001)
    state = [0.0]

    def local_time() -> None:
        state[0] = (state[0] + 7.3) % 1000.0
        clock.local_time(state[0])

    def real_time() -> None:
        state[0] = (state[0] + 7.3) % 1000.0
        clock.real_time(state[0])

    return {
        "sim.clocks.local_time_ns": 1e9 * per_call(local_time, budget),
        "sim.clocks.real_time_ns": 1e9 * per_call(real_time, budget),
    }


def signatures(budget: float) -> Dict[str, float]:
    from repro.core.messages import TcbMessage, tcb_tag
    from repro.crypto.pki import PublicKeyInfrastructure
    from repro.crypto.signatures import verify
    from repro.sim.knowledge import SignatureKnowledge

    pair = PublicKeyInfrastructure(4).key_pair(0)
    tag = tcb_tag(1)
    signature = pair.sign(tag)
    verify(signature, 0, tag)
    batch = [0]

    def fresh() -> List[Any]:
        # Values no earlier lookup can have memoized: all misses.
        batch[0] += 1
        return [
            pair.sign(("bench-probe", batch[0], i)) for i in range(500)
        ]

    knowledge = SignatureKnowledge([3])
    messages = [
        TcbMessage(r, 0, pair.sign(tcb_tag(r))) for r in range(1, 65)
    ]
    state = [0]

    def learn() -> None:
        i = state[0] = state[0] + 1
        knowledge.learn_payload(messages[i % 64], float(i))

    return {
        "crypto.signatures.verify_hit_ns": 1e9 * per_call(
            lambda: verify(signature, 0, tag), budget),
        "crypto.signatures.verify_miss_ns": 1e9 * per_item(
            fresh, lambda sig: verify(sig, 0, sig.value), budget),
        "sim.knowledge.learn_payload_ns": 1e9 * per_call(learn, budget),
    }


def tcb_instance(budget: float) -> Dict[str, float]:
    from repro.core.params import derive_parameters
    from repro.core.tcb import TcbInstance

    params = derive_parameters(1.001, 1.0, 0.02, 9)
    window = params.tcb_window
    wait = params.tcb_finalize_wait
    echoes = params.f + 1

    def one() -> None:
        instance = TcbInstance(
            dealer=1, pulse_round=1, pulse_local=10.0,
            window=window, finalize_wait=wait,
        )
        instance.on_direct(10.5)
        for i in range(echoes):
            instance.on_echo(10.5 + wait + 0.01 * i)
        instance.on_window_end()
        instance.on_finalize()

    return {"core.tcb.instance_ns": 1e9 * per_call(one, budget)}


def monitors(budget: float) -> Dict[str, float]:
    from repro.checks.conformance import cps_check_set
    from repro.core.params import derive_parameters

    params = derive_parameters(1.001, 1.0, 0.02, 6)
    honest = list(range(6 - params.f))
    checks = cps_check_set(params, honest, 10 ** 9)
    state = [0]

    def one() -> None:
        i = state[0] = state[0] + 1
        index, node = divmod(i, len(honest))
        # Every node pulses at the same instant each round: the skew
        # and period monitors do their full comparisons and never fire.
        at = params.S + index * params.T
        checks.on_pulse(at, honest[node], index + 1, at)

    return {"checks.monitors.on_pulse_ns": 1e9 * per_call(one, budget)}


# ----------------------------------------------------------------------
# Vectorized engine
# ----------------------------------------------------------------------


def delay_matrices(workload: Any, budget: float) -> Dict[str, float]:
    import numpy as np

    from repro import scenarios
    from repro.sim.network import NetworkConfig, RandomDelayPolicy
    from repro.sim.vectorized.delays import delay_matrix, delay_rng

    largest = max(case["n"] for case in workload.cases)
    rows = min(1024, largest)
    config = NetworkConfig(largest, 1.0, 0.01)
    senders = list(range(largest))
    receivers = list(range(rows))
    send_real = np.linspace(0.0, 1.0, largest)
    costs = []
    for key in sorted({c["delay"] for c in workload.cases}):
        policy = scenarios.create("delay", key, largest)
        rng = (
            delay_rng(policy)
            if isinstance(policy, RandomDelayPolicy) else None
        )
        costs.append(per_call(
            lambda: delay_matrix(
                policy, config, senders, receivers, send_real, rng),
            budget / 3, batch=1,
        ))
    from repro.core.params import max_faults

    honest = largest - max_faults(largest)
    return {
        "sim.vectorized.delays.matrix_ms": 1e3 * sum(costs) / len(costs),
        # delays, arrival, local_rx, estimates, ordered, finalize are
        # float64 (rows x honest); the accept mask is one byte per cell.
        "sim.vectorized.engine.block_bytes": float(
            min(1024, honest) * honest * (6 * 8 + 1)),
    }


# ----------------------------------------------------------------------
# Campaign layer
# ----------------------------------------------------------------------


def campaign_layer(workload: Any, budget: float) -> Dict[str, float]:
    """Hash, pickle, store and queue primitives on replayed records."""
    from repro import campaigns
    from repro.campaigns.builders import resolve_builder
    from repro.campaigns.queue import WorkQueue

    spec = workload.spec
    plans = spec.trials_for("full")
    builder = resolve_builder(plans[0].builder)
    records = [campaigns.run_trial(plan, builder) for plan in plans]
    state = [0]

    def hash_one() -> None:
        i = state[0] = state[0] + 1
        plan = plans[i % len(plans)]
        campaigns.stable_hash(
            plan.builder, plan.case, plan.measurement.as_dict(), plan.seed
        )

    task = (plans[0], builder)

    def pickle_one() -> None:
        pickle.loads(pickle.dumps(task))
        pickle.loads(pickle.dumps(records[0]))

    out = {
        "campaigns.spec.hash_us": 1e6 * per_call(hash_one, budget),
        "campaigns.executor.pickle_us": 1e6 * per_call(pickle_one, budget),
    }
    key = spec.spec_key("full")
    with tempfile.TemporaryDirectory(dir=workload.workdir) as tmp:
        store = campaigns.ResultStore(os.path.join(tmp, "store"))
        start = time.perf_counter()
        for record in records:
            store.append(key, record)
        out["campaigns.store.append_us"] = (
            1e6 * (time.perf_counter() - start) / len(records)
        )
        out["campaigns.store.bytes_per_record"] = (
            os.path.getsize(store.path_for(key)) / len(records)
        )
        out["campaigns.store.load_records_per_s"] = len(records) / (
            per_call(lambda: store.load(key), budget, batch=1)
        )
        # Two shards that duplicate the base file: merge has real
        # dedup work, and compact real superseded lines, to do.
        half = len(records) // 2
        for record in records[:half]:
            store.append(key, record, shard="a")
        for record in records[half:]:
            store.append(key, record, shard="b")
        start = time.perf_counter()
        merged = store.merge(key)
        out["campaigns.store.merge_ms"] = (
            1e3 * (time.perf_counter() - start)
        )
        for record in records[:half]:
            store.append(key, record)
        start = time.perf_counter()
        compacted = store.compact(key)
        out["campaigns.store.compact_ms"] = (
            1e3 * (time.perf_counter() - start)
        )
        if (
            merged["records"] != len(records)
            or compacted["records"] != len(records)
        ):
            raise RuntimeError(
                f"store probe lost records: {merged} {compacted}"
            )
        queue = WorkQueue(os.path.join(tmp, "queue"))
        queue.enqueue(spec, "full", plans=plans[:50], chunk_size=50)
        lease = queue.claim("bench-probe")
        if lease is None:
            raise RuntimeError("queue probe could not claim its chunk")
        out["campaigns.queue.heartbeat_us"] = 1e6 * per_call(
            lambda: queue.heartbeat(lease), budget)
        queue.complete(lease)
    return out


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

_IMPORT_LINE = re.compile(
    r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)$"
)


def cli_imports(workload: Any) -> Dict[str, float]:
    """``python -X importtime -m repro --help``, parsed from stderr."""
    done = workload.invoke(("--help",), ("-X", "importtime"))
    modules = 0
    numpy_imported = 0.0
    cumulative: Dict[str, float] = {}
    for line in done.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        _self_us, total_us, indent, module = match.groups()
        modules += 1
        if module == "numpy" or module.startswith("numpy."):
            numpy_imported = 1.0
        # Top-level imports only (one space of indent): nested ones are
        # already inside their parent's cumulative time.
        if len(indent) == 1:
            cumulative[module] = cumulative.get(module, 0.0) + float(
                total_us)
    return {
        "cli.import_ms": sum(cumulative.values()) / 1000.0,
        "cli.networkx_import_ms": _cumulative_of(done.stderr, "networkx"),
        "cli.modules_imported": float(modules),
        "cli.numpy_imported": numpy_imported,
    }


def _cumulative_of(stderr: str, module: str) -> float:
    """Cumulative import milliseconds of one module, wherever nested."""
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is not None and match.group(4) == module:
            return float(match.group(2)) / 1000.0
    return 0.0


# ----------------------------------------------------------------------


def run(workload: Workload, smoke: bool) -> Dict[str, float]:
    """The probes that belong to ``workload`` (others read 0)."""
    budget = SMOKE_BUDGET if smoke else BUDGET
    out: Dict[str, float] = {}
    if workload.name == "event-stress":
        out.update(event_queue(budget))
        out.update(network_delay(budget))
        out.update(clocks(workload.seed, budget))
        out.update(signatures(budget))
        out.update(tcb_instance(budget))
    elif workload.name == "event-judged":
        out.update(monitors(budget))
    elif workload.name == "vector-scale":
        out.update(clocks(workload.seed, budget))
        out.update(delay_matrices(workload, budget))
    elif workload.name == "campaign-overhead":
        out.update(campaign_layer(workload, budget))
    elif workload.name == "cli-coldstart":
        out.update(cli_imports(workload))
    return out
