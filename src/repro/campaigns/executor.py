"""Campaign execution: one replay-or-execute core, three transports.

A run is *a source of plan batches → one replay-or-execute step → a
transport*.  :func:`execute_campaign` owns the step: replay the plans
whose case key a :class:`~repro.campaigns.store.ResultStore` already
holds, run the rest, persist what ran, and return one
:class:`TrialRecord` per plan in list order, however the work was
scheduled.  The fixed tier is one batch; adaptive sampling
(:mod:`repro.campaigns.adaptive`) is a plan source that calls the step
once per round.  The misses of a batch travel through the transport
the :class:`ExecutionPolicy` names — in-process, a process pool
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

The pool transport is one loop over pool generations; a per-trial
``timeout`` is a parameter of that loop, not a second one.  It always
runs on a process pool, ``workers=1`` included (an in-process trial
cannot be preempted): a chunk is given ``timeout * len(chunk)``,
measured from the moment a worker actually *starts* the chunk, and
tabulated as timeout errors if exceeded.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
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

#: How often the parent re-checks chunk start stamps while waiting on a
#: budgeted future.  Bounds timeout-detection latency, not throughput.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a campaign is scheduled.

    ``workers == 1`` runs in-process; larger values use a
    ``ProcessPoolExecutor`` with ``chunk_size`` plans per task: every
    chunk is submitted at once and the futures are read in order.
    ``timeout`` is the per-trial budget in seconds; it needs a process
    to preempt, so with a timeout ``workers == 1`` is a one-worker
    pool.  It is enforced per *chunk* (``timeout * len(chunk)``)
    against the chunk's own execution time (stamped by the worker when
    it starts, so queue-wait behind a slow sibling is never charged),
    and one slow trial can still tabulate its whole chunk as timed
    out; pair ``timeout`` with ``chunk_size=1`` when per-trial
    precision matters.
    Workers hung past their budget are terminated so the pool shutdown
    cannot block indefinitely, and the chunks they had not finished run
    in a fresh pool generation.  Only a timeout starts the manager
    process that carries the stamps, and only then does the parent poll.

    ``queue`` switches the transport to the elastic work queue: each
    batch's misses are published as leases under the given directory
    and run by any number of queue workers — the in-process
    coordinator plus every ``repro campaign worker`` pointed at the
    same directory (see :mod:`repro.campaigns.queue`).  ``worker_id``
    names this process's store shard (defaults to a host/pid-derived
    name) and ``lease_ttl`` is the heartbeat age after which another
    worker may reclaim a chunk.
    """

    workers: int = 1
    chunk_size: int = 4
    timeout: Optional[float] = None
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
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")


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
    from repro.campaigns.builders import resolve_builder

    start = time.perf_counter()
    metrics: Dict[str, Any] = {}
    error: Optional[str] = None
    try:
        if builder is None:
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
    plans: Sequence[TrialPlan], instrumentation: Optional[Any] = None
) -> Tuple[Callable[[Any], TrialRecord], List[Any]]:
    """Pick the runner for a batch and pre-resolve its builders.

    The one place a batch meets the builder registry — the core and
    the queue worker both run ``function(task) for task in tasks``.
    Resolving up front lets functions travel to pool workers by pickle
    reference (spawn-safe for module-level builders); an unknown name
    stays ``None`` and is tabulated in-place by :func:`run_trial`.
    """
    from repro.campaigns.builders import resolve_builder

    function: Callable[[Any], TrialRecord] = _run_prepared
    options: Tuple[Any, ...] = ()
    if instrumentation is not None and instrumentation.active:
        # Imported lazily: the telemetry campaign layer imports this
        # module, and bare runs must not pay for it.
        from repro.telemetry.campaign import run_instrumented

        function, options = run_instrumented, (instrumentation,)
    tasks = []
    for plan in plans:
        try:
            builder = resolve_builder(plan.builder)
        except Exception:  # noqa: BLE001 - run_trial tabulates it
            builder = None
        tasks.append((plan, builder, *options))
    return function, tasks


def _run_batch(
    function: Callable[[Any], Any],
    items: Sequence[Any],
    stamps: Any = None,
    index: Optional[int] = None,
) -> List[Any]:
    """Top-level pool task (must be picklable by reference).

    Under a budget ``stamps`` is a manager-dict proxy shared with the
    parent and the task stamps its own start time before running; the
    stamp is what lets the parent charge the chunk's budget against
    *execution* time instead of time-in-queue — a chunk stuck behind a
    hung sibling has no stamp and is never tabulated as timed out.
    ``time.monotonic`` is a system-wide clock on the platforms we
    support, so parent and worker readings are comparable.
    """
    if stamps is not None:
        stamps[index] = time.monotonic()
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
    its whole chunk, for timeouts and broken pools) fails; the default
    re-raises.  ``on_result`` is invoked for each result as soon as it is
    available (the hook behind incremental store writes).  In pool mode
    ``function`` and ``items`` must be picklable — module-level functions
    and plain-data items.

    Two paths: in-process, or pool generations
    (:func:`_pool_generation`).  Without a timeout the pool path is one
    generation — submit every chunk, read the futures in order — and
    starts no manager process; with one, workers stamp each chunk's
    start into a shared manager dict and a generation torn down for a
    hung chunk hands its unfinished chunks to the next.  Each torn-down
    generation tabulates at least one chunk, so the loop terminates.
    Batches are emitted in chunk order, each as soon as every earlier
    chunk has settled.
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

    # Serial only without a budget: an in-process trial cannot be
    # preempted, so a requested timeout always gets a pool — a
    # one-worker pool for workers=1, a pool for a single item.
    if policy.timeout is None and (
        policy.workers <= 1 or len(items) <= 1
    ):
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
    batches: Dict[int, List[Any]] = {}
    next_emit = 0

    def settle(index: int, batch: List[Any]) -> None:
        nonlocal next_emit
        batches[index] = batch
        while next_emit in batches:
            for result in batches.pop(next_emit):
                emit(result)
            next_emit += 1

    with ExitStack() as stack:
        stamps = None
        if policy.timeout is not None:
            manager = stack.enter_context(multiprocessing.Manager())
            stamps = manager.dict()
        pending = list(range(len(chunks)))
        while pending:
            pending = _pool_generation(
                function, chunks, pending, policy, stamps, settle,
                on_error,
            )
            # Only a budgeted generation leaves work behind.  A stale
            # stamp would bill a resubmitted chunk for its previous,
            # terminated attempt.
            for index in pending:
                stamps.pop(index, None)
    return results


def _pool_generation(
    function: Callable[[Any], Any],
    chunks: List[List[Any]],
    pending: List[int],
    policy: ExecutionPolicy,
    stamps: Any,
    settle: Callable[[int, List[Any]], None],
    on_error: Callable[[Any, BaseException], Any],
) -> List[int]:
    """One pool generation over ``pending``; returns what to resubmit.

    Waits on the head future — indefinitely without a budget, in
    ``_POLL_SECONDS`` slices with one — and settles it when done.
    Between slices a started chunk is billed once ``now - start``
    exceeds ``timeout * len(chunk)``; a chunk still waiting for a
    worker carries no stamp and is never charged.  A billed chunk
    forces the pool down: whatever else finished is harvested, and
    every started-but-unfinished and never-started chunk is returned,
    so innocent work queued behind the hang runs in the next
    generation instead of being billed for it.
    """
    poll = None if policy.timeout is None else _POLL_SECONDS
    pool = ProcessPoolExecutor(max_workers=policy.workers)
    overdue: set = set()
    leftover: List[int] = []
    try:
        futures = {
            index: pool.submit(
                _run_batch, function, chunks[index], stamps, index
            )
            for index in pending
        }

        def harvest(index: int) -> None:
            try:
                batch = futures[index].result()
            except Exception as exc:  # noqa: BLE001 - broken pool
                batch = [on_error(item, exc) for item in chunks[index]]
            settle(index, batch)

        waiting = deque(pending)
        while waiting:
            head = waiting[0]
            # wait(), not result(timeout=): a TimeoutError raised by
            # the task itself is a failure of the task, not a poll tick.
            if wait([futures[head]], timeout=poll).done:
                harvest(head)
                waiting.popleft()
                continue
            now = time.monotonic()
            started = stamps.copy()
            overdue = {
                index
                for index in waiting
                if not futures[index].done()
                and index in started
                and now - started[index]
                > policy.timeout * len(chunks[index])
            }
            if not overdue:
                continue
            late = TimeoutError(
                f"trial chunk exceeded {policy.timeout}s per trial"
            )
            for index in waiting:
                if index in overdue:
                    settle(
                        index,
                        [on_error(item, late) for item in chunks[index]],
                    )
                elif futures[index].done():
                    harvest(index)
                else:
                    leftover.append(index)
            break
    finally:
        if overdue:
            # shutdown(wait=True) would block on the hung worker until
            # its trial returns — possibly forever.  Every outstanding
            # chunk is either settled or resubmitted, so kill the
            # workers.
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
    return leftover


@dataclass
class CampaignRun:
    """The outcome of executing one campaign at one scale.

    ``adaptive`` is populated only when :func:`execute_campaign` ran
    under an :class:`~repro.campaigns.adaptive.AdaptivePolicy` — a
    summary of the per-cell stopping rule (trials run vs. the fixed
    tier, converged cells, saved trials) that feeds the run summary
    table and the telemetry sidecar.
    """

    spec: CampaignSpec
    scale: str
    records: List[TrialRecord]
    executed: int
    cached: int
    adaptive: Optional[Dict[str, Any]] = None

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


def _timeout_record(plan: TrialPlan, exc: BaseException) -> TrialRecord:
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
    reuse: bool = True,
    instrumentation: Optional[Any] = None,
    progress: Optional[Callable[[int, int, TrialRecord], None]] = None,
    adaptive: Optional[Any] = None,
) -> CampaignRun:
    """Run (or replay) every trial of ``spec`` at ``scale``.

    With ``store`` set, cached case keys are replayed without execution
    (unless ``reuse=False``) and fresh records are appended incrementally
    under the campaign's :meth:`~CampaignSpec.spec_key`, so re-running a
    completed campaign executes zero new trials and an interrupted one
    resumes with only the missing cases.  Builder failures are
    deterministic and are cached like successes; pool-level failures
    (timeouts, broken pools) are environment artifacts and are *not*
    persisted, so a later run retries them.

    ``adaptive`` (an :class:`~repro.campaigns.adaptive.AdaptivePolicy`)
    replaces the single fixed-tier batch with rounds of replicate
    plans; the records are then cell-major and ``CampaignRun.adaptive``
    carries the stopping-rule summary.  Every batch, of either source,
    goes through the same step and the transport ``policy`` names.

    ``instrumentation`` (a :class:`~repro.telemetry.campaign.
    InstrumentationPlan`) routes executed trials through the telemetry
    wrapper — an execution-time option that deliberately does not enter
    ``case_key``/``spec_key`` hashing, since instrumented trials produce
    identical metrics.  ``progress(done, total, record)`` is invoked for
    every trial this process executes as soon as its record is
    available (after the incremental store write); ``done`` counts
    cache replays as already complete.

    Queue transport keeps three rules, because they are its protocol:
    it needs a store (workers coordinate through it), always reuses it
    (skipping persisted case keys *is* crash recovery), and excludes
    ``timeout`` (a transient failure must not enter the store, and the
    store is the only channel back).
    """
    policy = policy or ExecutionPolicy()
    queued = policy.queue is not None
    if queued:
        if store is None:
            raise ValueError(
                "queue execution requires a result store: elastic "
                "workers coordinate through it (pass store=/--store)"
            )
        if not reuse:
            raise ValueError(
                "queue execution always reuses the store (workers skip "
                "persisted case keys); clear the store to force re-runs"
            )
        if policy.timeout is not None:
            raise ValueError(
                "per-trial timeouts are not supported in queue mode "
                "(stale-lease reclaim bounds lost work instead)"
            )
    plans = spec.trials_for(scale)
    key = spec.spec_key(scale) if store is not None else None
    known: Dict[str, TrialRecord] = (
        store.load(key) if store is not None and reuse else {}
    )
    # Queue workers append to their own shards; the core persists only
    # what its own transport ran.
    sink = None if queued else store
    executed = cached = done = 0

    def step(batch: Sequence[TrialPlan], total: int) -> List[TrialRecord]:
        """Replay-or-execute ``batch``; results by list position
        (replicates share ``plan.index``).  ``total`` is the progress
        denominator while this batch runs."""
        nonlocal executed, cached, done
        results: List[Any] = [None] * len(batch)
        slots: List[int] = []
        misses: List[TrialPlan] = []
        for slot, plan in enumerate(batch):
            hit = known.get(plan.case_key)
            if hit is not None:
                results[slot] = replace(
                    hit, index=plan.index, cached=True
                )
            else:
                slots.append(slot)
                misses.append(plan)
        cached += len(batch) - len(misses)
        done += len(batch) - len(misses)
        transient: set = set()

        def pool_failure(task: Any, exc: BaseException) -> TrialRecord:
            plan = task[0]
            transient.add(plan.case_key)
            return _timeout_record(plan, exc)

        def persist(record: TrialRecord) -> None:
            nonlocal done
            if sink is not None and record.case_key not in transient:
                sink.append(key, record)
            done += 1
            if progress is not None:
                progress(done, total, record)

        if not misses:
            fresh: List[TrialRecord] = []
        elif queued:
            from repro.campaigns.queue import run_queued

            fresh = run_queued(
                spec, scale, misses, policy, store, instrumentation,
                on_record=persist,
            )
        else:
            function, tasks = prepare_tasks(misses, instrumentation)
            fresh = map_trials(
                function,
                tasks,
                policy,
                on_error=pool_failure,
                on_result=persist,
            )
        executed += len(fresh)
        for slot, record in zip(slots, fresh):
            results[slot] = record
            # Later batches (or a cell sharing a case key) hit.
            if record.case_key not in transient:
                known[record.case_key] = record
        return results

    if adaptive is None:
        records, summary = step(plans, len(plans)), None
    else:
        from repro.campaigns.adaptive import sample_cells

        records, summary = sample_cells(spec, plans, adaptive, step)
    return CampaignRun(
        spec=spec,
        scale=scale,
        records=records,
        executed=executed,
        cached=cached,
        adaptive=summary,
    )
