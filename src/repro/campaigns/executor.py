"""Campaign execution: one replay-or-execute core, three transports.

A run is *a campaign's grid at one scale → one replay-or-execute step
→ a transport*.  :func:`execute_campaign` owns the step: replay the
plans whose case key a :class:`~repro.campaigns.store.ResultStore`
already holds, run the rest, persist what ran, and return one
:class:`TrialRecord` per plan in plan order, however the work was
scheduled.  The misses travel through the transport the
:class:`ExecutionPolicy` names — in-process, a process pool
(:func:`map_trials`), or a directory work queue
(:mod:`repro.campaigns.queue`) — and every combination yields
identical records:

* **Determinism** — every plan carries its own derived seed and records
  are aligned to plan position, so ``workers=1``, ``workers=N`` and
  queue runs yield identical aggregated rows.
* **Failure tabulation** — a builder exception becomes an ``error``
  record (the :class:`~repro.analysis.runner.TrialOutcome` convention),
  it never aborts the campaign.
* **Caching** — already-recorded case keys are replayed without
  execution and new records are appended as soon as their chunk
  completes, so an interrupted campaign resumes where it stopped.

The pool transport is one submit-and-read loop: every chunk is
submitted at once and the futures are read in chunk order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.campaigns.spec import CampaignSpec, TrialPlan
from repro.campaigns.store import TrialRecord

@dataclass(frozen=True)
class ExecutionPolicy:
    """How a campaign is scheduled.

    ``workers == 1`` runs in-process; larger values use a
    ``ProcessPoolExecutor`` with ``chunk_size`` plans per task: every
    chunk is submitted at once and the futures are read in order.

    ``queue`` switches the transport to the elastic work queue: the
    run's misses are published as leases under the given directory
    and run by any number of queue workers — the in-process
    coordinator plus every ``repro campaign worker`` pointed at the
    same directory (see :mod:`repro.campaigns.queue`).  ``worker_id``
    names this process's store shard (defaults to a host/pid-derived
    name) and ``lease_ttl`` is the heartbeat age after which another
    worker may reclaim a chunk.
    """

    workers: int = 1
    chunk_size: int = 4
    queue: Optional[str] = None
    worker_id: Optional[str] = None
    lease_ttl: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers} "
                f"(1 = in-process serial)"
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not self.lease_ttl > 0:
            raise ValueError(
                f"lease_ttl must be positive, got {self.lease_ttl}"
            )


def run_trial(
    plan: TrialPlan, builder: Optional[Callable[..., Any]] = None
) -> TrialRecord:
    """Execute one plan, tabulating any exception as an error record.

    ``builder`` may be supplied pre-resolved; the campaign executor does
    so in the parent process and ships the function by pickle reference,
    which keeps pool mode working for any module-level builder even
    under spawn/forkserver start methods (where worker processes do not
    inherit registrations made outside :mod:`repro.campaigns.builders`).
    """
    start = time.perf_counter()
    metrics: Dict[str, Any] = {}
    error: Optional[str] = None
    try:
        if builder is None:
            from repro.campaigns.builders import resolve_builder

            builder = resolve_builder(plan.builder)
        metrics = builder(dict(plan.case), plan.measurement, plan.seed)
    except Exception as exc:  # noqa: BLE001 - sweeps tabulate failures
        metrics, error = {}, f"{type(exc).__name__}: {exc}"
    return TrialRecord(
        campaign=plan.campaign,
        builder=plan.builder,
        case=dict(plan.case),
        seed=plan.seed,
        case_key=plan.case_key,
        index=plan.index,
        metrics=metrics,
        error=error,
        duration=time.perf_counter() - start,
    )


def _run_prepared(task: Any) -> TrialRecord:
    """Top-level runner for (plan, pre-resolved builder) pairs."""
    plan, builder = task
    return run_trial(plan, builder=builder)


def prepare_tasks(
    plans: Sequence[TrialPlan], telemetry: bool = False
) -> Tuple[Callable[[Any], TrialRecord], List[Any]]:
    """Pick the runner for some plans and pre-resolve their builders.

    The one place a plan meets the builder registry — the core and
    the queue worker both run ``function(task) for task in tasks``.
    Resolving each distinct builder once, up front, lets functions
    travel to pool workers by pickle reference (spawn-safe for
    module-level builders); an unknown name stays ``None`` and is
    tabulated in-place by :func:`run_trial`.
    """
    from repro.campaigns.builders import resolve_builder

    function: Callable[[Any], TrialRecord] = _run_prepared
    if telemetry:
        # Imported lazily: the telemetry campaign layer imports this
        # module, and bare runs must not pay for it.
        from repro.telemetry.campaign import run_instrumented

        function = run_instrumented
    builders: Dict[str, Optional[Callable[..., Any]]] = {}
    for name in dict.fromkeys(plan.builder for plan in plans):
        try:
            builders[name] = resolve_builder(name)
        except Exception:  # noqa: BLE001 - run_trial tabulates it
            builders[name] = None
    return function, [(plan, builders[plan.builder]) for plan in plans]


def _run_batch(
    function: Callable[[Any], Any], items: Sequence[Any]
) -> List[Any]:
    """Top-level pool task (must be picklable by reference)."""
    return [function(item) for item in items]


def map_trials(
    function: Callable[[Any], Any],
    items: Sequence[Any],
    policy: Optional[ExecutionPolicy] = None,
    on_error: Optional[Callable[[Any, BaseException], Any]] = None,
    on_result: Optional[Callable[[Any], None]] = None,
) -> List[Any]:
    """Order-preserving serial/pool map with pool-level failure hooks.

    ``on_error(item, exc)`` supplies a substitute result when an item (or
    its whole chunk, for a broken pool) fails; the default re-raises.
    ``on_result`` is invoked for each result as soon as it is available
    (the hook behind incremental store writes).  In pool mode
    ``function`` and ``items`` must be picklable — module-level
    functions and plain-data items.

    Two paths: in-process, or one pool that gets every chunk at once
    and whose futures are read in chunk order, so each batch is
    emitted as soon as every earlier chunk has settled.
    """
    policy = policy or ExecutionPolicy()
    if on_error is None:
        def on_error(_item: Any, exc: BaseException) -> Any:
            raise exc

    results: List[Any] = []

    def emit(result: Any) -> None:
        results.append(result)
        if on_result is not None:
            on_result(result)

    if policy.workers <= 1 or len(items) <= 1:
        for item in items:
            try:
                result = function(item)
            except Exception as exc:  # noqa: BLE001
                result = on_error(item, exc)
            # emit outside the try: an on_result failure (say, the
            # store's disk filling up) must propagate, not masquerade
            # as a failure of the trial itself.
            emit(result)
        return results

    chunks = [
        list(items[start:start + policy.chunk_size])
        for start in range(0, len(items), policy.chunk_size)
    ]
    pool = ProcessPoolExecutor(max_workers=policy.workers)
    try:
        futures = [
            pool.submit(_run_batch, function, chunk) for chunk in chunks
        ]
        for chunk, future in zip(chunks, futures):
            try:
                batch = future.result()
            except Exception as exc:  # noqa: BLE001 - task or broken pool
                batch = [on_error(item, exc) for item in chunk]
            for result in batch:
                emit(result)
    finally:
        # An on_result failure leaves chunks unread: drop the ones no
        # worker has started instead of running them for nothing.
        pool.shutdown(wait=True, cancel_futures=True)
    return results


@dataclass
class CampaignRun:
    """The outcome of executing one campaign at one scale."""

    spec: CampaignSpec
    scale: str
    records: List[TrialRecord]
    executed: int
    cached: int

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if not record.ok)

    def failures(self) -> List[TrialRecord]:
        return [record for record in self.records if not record.ok]

    def summary(self) -> str:
        return (
            f"campaign {self.spec.name} [{self.scale}]: "
            f"{len(self.records)} trials — {self.executed} executed, "
            f"{self.cached} cached, {self.failed} failed"
        )


def _pool_failure_record(
    plan: TrialPlan, exc: BaseException
) -> TrialRecord:
    return TrialRecord(
        campaign=plan.campaign,
        builder=plan.builder,
        case=dict(plan.case),
        seed=plan.seed,
        case_key=plan.case_key,
        index=plan.index,
        error=f"{type(exc).__name__}: {exc}",
    )


def execute_campaign(
    spec: CampaignSpec,
    scale: str = "quick",
    policy: Optional[ExecutionPolicy] = None,
    store: Optional[Any] = None,
    telemetry: bool = False,
    progress: Optional[Callable[[int, int, TrialRecord], None]] = None,
) -> CampaignRun:
    """Run (or replay) every trial of ``spec`` at ``scale``.

    With ``store`` set, cached case keys are replayed without execution
    and fresh records are appended incrementally under the campaign's
    :meth:`~CampaignSpec.spec_key`, so re-running a completed campaign
    executes zero new trials and an interrupted one resumes with only
    the missing cases (a new store directory re-runs every trial).
    Builder failures are deterministic and are cached like successes;
    a broken pool's failures are environment artifacts and are *not*
    persisted, so a later run retries them.

    ``telemetry`` routes executed trials through the telemetry wrapper
    (:func:`~repro.telemetry.campaign.run_instrumented`) — an
    execution-time option that deliberately does not enter
    ``case_key``/``spec_key`` hashing, since instrumented trials produce
    identical metrics.  ``progress(done, total, record)`` is invoked for
    every trial this process executes as soon as its record is
    available (after the incremental store write); ``done`` counts
    cache replays as already complete.

    Queue transport needs a store, because that is its protocol:
    workers coordinate through it (skipping persisted case keys *is*
    crash recovery).
    """
    policy = policy or ExecutionPolicy()
    queued = policy.queue is not None
    if queued and store is None:
        raise ValueError(
            "queue execution requires a result store: elastic "
            "workers coordinate through it (pass store=/--store)"
        )
    plans = spec.trials_for(scale)
    key = spec.spec_key(scale) if store is not None else None
    known: Dict[str, TrialRecord] = (
        store.load(key) if store is not None else {}
    )
    records: List[Any] = [None] * len(plans)
    slots: List[int] = []
    misses: List[TrialPlan] = []
    for slot, plan in enumerate(plans):
        hit = known.get(plan.case_key)
        if hit is not None:
            # ``store.load`` returned fresh records, so the hit is ours
            # to re-index; one a repeated case already replayed is
            # copied first.
            if hit.cached:
                hit = replace(hit)
            hit.index = plan.index
            hit.cached = True
            records[slot] = hit
        else:
            slots.append(slot)
            misses.append(plan)
    cached = done = len(plans) - len(misses)
    # Queue workers append to their own shards; the core persists only
    # what its own transport ran, through one descriptor opened at the
    # first record and closed when the run returns or raises.
    sink = None if queued else store
    transient: set = set()
    stack = ExitStack()
    write: Optional[Callable[[TrialRecord], None]] = None

    def pool_failure(task: Any, exc: BaseException) -> TrialRecord:
        plan = task[0]
        transient.add(plan.case_key)
        return _pool_failure_record(plan, exc)

    def persist(record: TrialRecord) -> None:
        nonlocal done, write
        if sink is not None and record.case_key not in transient:
            if write is None:
                write = stack.enter_context(sink.appender(key))
            write(record)
        done += 1
        if progress is not None:
            progress(done, len(plans), record)

    with stack:
        if not misses:
            fresh: List[TrialRecord] = []
        elif queued:
            from repro.campaigns.queue import run_queued

            fresh = run_queued(
                spec, scale, misses, policy, store, telemetry,
                on_record=persist,
            )
        else:
            function, tasks = prepare_tasks(misses, telemetry)
            fresh = map_trials(
                function,
                tasks,
                policy,
                on_error=pool_failure,
                on_result=persist,
            )
    for slot, record in zip(slots, fresh):
        records[slot] = record
    return CampaignRun(
        spec=spec,
        scale=scale,
        records=records,
        executed=len(fresh),
        cached=cached,
    )
