"""The elastic transport: a campaign's misses over a directory queue.

The pool transport scales to one machine; this module scales a batch
of plans to *N independent worker processes* — started by hand, by CI,
or on other machines — coordinating through nothing but a shared
directory (local disk for same-host workers, a network mount for a
fleet):

* ``WorkQueue.enqueue`` publishes plans as chunk files under the queue
  directory, plus a ``manifest.json`` naming the campaign, scale, spec
  key and whether trials run instrumented (written last, atomically,
  so a worker that sees the manifest sees every chunk).  Publishing is
  **idempotent per case key**: plans an existing chunk already names
  are skipped and new chunks are numbered after the last one, so a
  pre-enqueued queue is joined, a restarted coordinator joins its own
  queue, and a grid extended since the last publish adds only its new
  cases.
* Workers (:func:`run_worker`, CLI ``repro campaign worker``) loop:
  **claim** a chunk by exclusively creating its ``.claim`` file
  (``O_CREAT | O_EXCL`` — the filesystem is the lock manager), run its
  trials, **heartbeat** by touching the claim's mtime between trials,
  and **complete** by writing a ``.done`` marker.  A claim whose
  heartbeat is older than the lease TTL is presumed dead and
  **reclaimed** (removed and re-claimed) by any live worker.  A worker
  leaves when every published chunk is done.
* Every worker writes records to its *own shard* of the shared
  :class:`~repro.campaigns.store.ResultStore`
  (``<spec_key>/<worker_id>.jsonl``) — appends never interleave across
  writers, and :meth:`~repro.campaigns.store.ResultStore.load` dedups
  across shards by case key, so the rare double-execution after a
  reclaim race (a zombie worker finishing a chunk someone else
  re-claimed) is idempotent: records are deterministic per case key.
* :func:`run_queued` is what :func:`~repro.campaigns.executor.
  execute_campaign` calls for ``ExecutionPolicy(queue=...)``: publish
  the run's misses, join the queue as one more worker — the only one
  guaranteed to stay until the run is done — and read the records
  back from the store.

Crash recovery falls out of the store contract: a worker killed
mid-chunk leaves a stale claim and a partial shard; the reclaiming
worker re-runs only the trials of that chunk not already in the store
(each chunk starts with a cache check), so lost work is bounded by one
trial per crash.

Queue directory layout::

    <queue>/manifest.json        campaign, scale, spec_key, telemetry
    <queue>/chunk-00000.json     {"chunk": 0, "entries":
                                  [[plan index, case_key]]}
    <queue>/chunk-00000.claim    held lease; mtime = last heartbeat
    <queue>/chunk-00000.done     completion marker

See ``docs/SCALING.md`` for the full protocol.
"""

from __future__ import annotations

import json
import os
import re
import socket
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.campaigns.executor import ExecutionPolicy, prepare_tasks
from repro.campaigns.spec import CampaignSpec, TrialPlan
from repro.campaigns.store import TrialRecord

_CHUNK_FILE = re.compile(r"^chunk-\d{5}\.json$")


class QueueError(RuntimeError):
    """A work-queue protocol violation (missing/mismatched manifest,
    a worker whose grid differs from the enqueuer's)."""


def _write_json(path: str, payload: Any, **layout: Any) -> None:
    """Atomic publish: a reader sees the whole file or none of it."""
    staging = path + ".tmp"
    with open(staging, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, **layout)
        handle.write("\n")
    os.replace(staging, path)


def default_worker_id() -> str:
    """Host+pid derived shard name, unique per worker process."""
    host = re.sub(r"[^A-Za-z0-9._-]+", "-", socket.gethostname())
    host = host.lstrip("._-") or "host"
    return f"{host}-{os.getpid()}"


@dataclass(frozen=True)
class Lease:
    """One claimed chunk: its ``[plan index, case_key]`` entries,
    held by which worker."""

    chunk: str
    entries: List[List[Any]]
    worker: str
    reclaimed: bool = False


class WorkQueue:
    """A campaign's chunk queue in one shared directory."""

    def __init__(self, root: str) -> None:
        self.root = str(root)

    # ------------------------------------------------------------------
    # Paths

    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def chunk_path(self, chunk: str) -> str:
        return os.path.join(self.root, f"{chunk}.json")

    def claim_path(self, chunk: str) -> str:
        return os.path.join(self.root, f"{chunk}.claim")

    def done_path(self, chunk: str) -> str:
        return os.path.join(self.root, f"{chunk}.done")

    # ------------------------------------------------------------------
    # Publishing

    def manifest(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.manifest_path(), encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def enqueue(
        self,
        spec: CampaignSpec,
        scale: str,
        plans: Optional[List[TrialPlan]] = None,
        chunk_size: int = 4,
        telemetry: bool = False,
        store: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Publish ``plans`` (default: the full tier) as chunk files.

        Idempotent per case key: a plan that an existing chunk already
        names — or whose record ``store`` already holds — is skipped,
        and new chunks are numbered after the last one.  Chunk files
        land first and the manifest last (each an atomic rename), so a
        worker that can read the manifest can rely on every chunk file
        it names being whole.  One directory holds one (campaign,
        scale), instrumented or not; anything else is a
        :class:`QueueError`.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        key = spec.spec_key(scale)
        manifest = self.manifest()
        if manifest is not None:
            if manifest["spec_key"] != key:
                raise QueueError(
                    f"queue at {self.root} holds campaign "
                    f"{manifest['campaign']!r} [{manifest['scale']}], "
                    f"not {spec.name!r} [{scale}]; use a fresh "
                    f"directory per run"
                )
            if manifest["telemetry"] != telemetry:
                raise QueueError(
                    f"queue at {self.root} was published with "
                    f"telemetry={manifest['telemetry']}, this run asks "
                    f"for telemetry={telemetry}"
                )
        if plans is None:
            plans = spec.trials_for(scale)
        os.makedirs(self.root, exist_ok=True)
        published = self.chunk_ids()
        named = set(store.load(key)) if store is not None else set()
        trials = 0
        for chunk in published:
            earlier = self._entries(chunk)
            trials += len(earlier)
            named.update(case_key for _index, case_key in earlier)
        entries = []
        for plan in plans:
            if plan.case_key not in named:
                named.add(plan.case_key)
                entries.append([plan.index, plan.case_key])
        first = int(published[-1][len("chunk-"):]) + 1 if published else 0
        chunks = range(0, len(entries), chunk_size)
        for number, start in enumerate(chunks, start=first):
            _write_json(
                self.chunk_path(f"chunk-{number:05d}"),
                {
                    "chunk": number,
                    "entries": entries[start:start + chunk_size],
                },
            )
        manifest = {
            "campaign": spec.name,
            "scale": scale,
            "spec_key": key,
            "chunk_size": chunk_size,
            "chunks": len(published) + len(chunks),
            "trials": trials + len(entries),
            "telemetry": telemetry,
        }
        _write_json(
            self.manifest_path(), manifest, indent=2, sort_keys=True
        )
        return manifest

    def _entries(self, chunk: str) -> List[List[Any]]:
        with open(self.chunk_path(chunk), encoding="utf-8") as handle:
            return json.load(handle)["entries"]

    # ------------------------------------------------------------------
    # Leases

    def chunk_ids(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if _CHUNK_FILE.match(name)
        )

    def claim(
        self, worker_id: str, lease_ttl: float = 60.0
    ) -> Optional[Lease]:
        """Claim the first open chunk, reclaiming stale leases.

        Exclusive claim-file creation is the mutual exclusion; a claim
        whose mtime (the heartbeat) is older than ``lease_ttl`` is
        removed and re-claimed.  Every race loses gracefully: a
        contested reclaim moves on to the next chunk, and a chunk
        completed between our existence check and our claim is
        released immediately.
        """
        now = time.time()
        for chunk in self.chunk_ids():
            if os.path.exists(self.done_path(chunk)):
                continue
            claim_path = self.claim_path(chunk)
            reclaimed = False
            try:
                fd = os.open(
                    claim_path,
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                try:
                    heartbeat = os.path.getmtime(claim_path)
                except OSError:
                    continue  # released under us; next pass retries
                if now - heartbeat <= lease_ttl:
                    continue  # live lease held elsewhere
                try:
                    os.remove(claim_path)
                except FileNotFoundError:
                    continue  # another worker reclaimed first
                try:
                    fd = os.open(
                        claim_path,
                        os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                    )
                except FileExistsError:
                    continue  # lost the reclaim race
                reclaimed = True
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"worker": worker_id}, handle)
            if os.path.exists(self.done_path(chunk)):
                # Completed while we were claiming; release.
                self._release(chunk)
                continue
            return Lease(
                chunk=chunk,
                entries=self._entries(chunk),
                worker=worker_id,
                reclaimed=reclaimed,
            )
        return None

    def heartbeat(self, lease: Lease) -> None:
        """Refresh the lease's liveness stamp (claim-file mtime)."""
        try:
            os.utime(self.claim_path(lease.chunk), None)
        except FileNotFoundError:
            # Reclaimed from under us (we looked dead).  Keep going:
            # store dedup makes the double execution idempotent.
            pass

    def complete(self, lease: Lease) -> None:
        """Mark the chunk done and release the claim."""
        try:
            with open(
                self.done_path(lease.chunk), "x", encoding="utf-8"
            ) as handle:
                json.dump({"worker": lease.worker}, handle)
        except FileExistsError:
            pass  # a reclaimer finished it first
        self._release(lease.chunk)

    def _release(self, chunk: str) -> None:
        try:
            os.remove(self.claim_path(chunk))
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # Introspection

    def all_done(self) -> bool:
        return all(
            os.path.exists(self.done_path(chunk))
            for chunk in self.chunk_ids()
        )

    def status(self) -> Dict[str, int]:
        """Chunk counts by state (done / claimed / open)."""
        done = claimed = opened = 0
        for chunk in self.chunk_ids():
            if os.path.exists(self.done_path(chunk)):
                done += 1
            elif os.path.exists(self.claim_path(chunk)):
                claimed += 1
            else:
                opened += 1
        return {
            "chunks": done + claimed + opened,
            "done": done,
            "claimed": claimed,
            "open": opened,
        }


def run_worker(
    queue_dir: str,
    store: Any,
    spec: Optional[CampaignSpec] = None,
    worker_id: Optional[str] = None,
    lease_ttl: float = 60.0,
    poll: float = 0.5,
    max_chunks: Optional[int] = None,
    on_record: Optional[Callable[[TrialRecord], None]] = None,
) -> Dict[str, Any]:
    """Drain the queue: claim chunks, run trials, write our shard.

    Runs until every published chunk is done (waiting out — and
    eventually reclaiming — other workers' leases), or until
    ``max_chunks`` of our own are finished.  ``spec`` defaults to the
    catalog campaign named by the queue manifest; passing it explicitly
    supports ad-hoc specs whose builders are registered in this
    process.  Trials run instrumented iff the manifest says so, so
    every worker produces what the core would.  Each chunk starts with
    a store cache check, so trials another worker (or a previous life
    of this chunk's lease) already persisted are skipped — crash recovery re-executes at most the one
    trial that was in flight.
    """
    queue = WorkQueue(queue_dir)
    manifest = queue.manifest()
    if manifest is None:
        raise QueueError(
            f"no campaign enqueued at {queue.root} "
            f"(run 'repro campaign enqueue' first)"
        )
    if spec is None:
        from repro.campaigns import campaign_definition

        spec = campaign_definition(manifest["campaign"]).spec()
    scale = manifest["scale"]
    key = spec.spec_key(scale)
    if key != manifest["spec_key"]:
        raise QueueError(
            f"spec key mismatch for campaign "
            f"{manifest['campaign']!r} [{scale}]: queue has "
            f"{manifest['spec_key'][:12]}…, this process computes "
            f"{key[:12]}… — worker and enqueuer disagree about the "
            f"campaign definition"
        )
    tier = spec.trials_for(scale)
    worker = worker_id or default_worker_id()
    stats: Dict[str, Any] = {
        "worker": worker,
        "chunks": 0,
        "trials": 0,
        "skipped": 0,
        "reclaimed": 0,
    }
    while True:
        lease = queue.claim(worker, lease_ttl=lease_ttl)
        if lease is None:
            if queue.all_done():
                break
            time.sleep(poll)
            continue
        if lease.reclaimed:
            stats["reclaimed"] += 1
        known = store.load(key)
        plans = []
        for index, case_key in lease.entries:
            if case_key in known:
                stats["skipped"] += 1
                continue
            # spec_key excludes the grid, so a checkout with another
            # grid gets this far: rebuild the plan and compare keys
            # rather than run whatever sits at that index.
            plan = tier[index] if 0 <= index < len(tier) else None
            if plan is None or plan.case_key != case_key:
                queue._release(lease.chunk)
                raise QueueError(
                    f"{lease.chunk} names case {case_key[:12]}… at "
                    f"plan {index} of {manifest['campaign']!r} "
                    f"[{scale}], which this process does not compute "
                    f"— worker and enqueuer disagree about the "
                    f"campaign grid"
                )
            plans.append(plan)
        function, tasks = prepare_tasks(plans, manifest["telemetry"])
        for task in tasks:
            record = function(task)
            store.append(key, record, shard=worker)
            stats["trials"] += 1
            if on_record is not None:
                on_record(record)
            queue.heartbeat(lease)
        queue.complete(lease)
        stats["chunks"] += 1
        if max_chunks is not None and stats["chunks"] >= max_chunks:
            break
    return stats


def run_queued(
    spec: CampaignSpec,
    scale: str,
    plans: List[TrialPlan],
    policy: ExecutionPolicy,
    store: Any,
    telemetry: bool = False,
    on_record: Optional[Callable[[TrialRecord], None]] = None,
) -> List[TrialRecord]:
    """The queue transport: run ``plans`` through ``policy.queue``.

    Publishes the plans (idempotently — a pre-enqueued or restarted
    queue is simply joined), works the queue as an in-process worker
    alongside any external ``repro campaign worker`` processes until
    every chunk is done, and reads the plans' records back from the
    shared store, in ``plans`` order.
    """
    WorkQueue(policy.queue).enqueue(
        spec,
        scale,
        plans=plans,
        chunk_size=policy.chunk_size,
        telemetry=telemetry,
    )
    run_worker(
        policy.queue,
        store,
        spec=spec,
        worker_id=policy.worker_id,
        lease_ttl=policy.lease_ttl,
        on_record=on_record,
    )
    final = store.load(spec.spec_key(scale))
    records: List[TrialRecord] = []
    for plan in plans:
        record = final.get(plan.case_key)
        if record is None:
            raise QueueError(
                f"queue drained but case {plan.case_key[:12]}… of "
                f"campaign {spec.name!r} [{scale}] is missing from "
                f"the store — was a worker's shard deleted?"
            )
        records.append(replace(record, index=plan.index))
    return records
