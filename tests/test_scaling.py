"""Elastic queue execution.

Covers the scaling layer end to end:

* ``WorkQueue`` protocol units — exclusive claims, heartbeats, stale
  lease reclaim, completion markers;
* crash/resume — a worker dying mid-shard loses only its lease, and
  the reclaiming worker re-executes only the unrecorded trials;
* two concurrent writers produce a store whose ``load()`` equals the
  serial run's;
* the queued coordinator path matches the pool path record for
  record, and every transport composes with telemetry, with a repeat
  publish of an extended grid, with any other transport's store, with
  builder failures and with progress reporting.
"""

import json
import os
import threading
import time

import pytest

from repro.campaigns import (
    CampaignSpec,
    ExecutionPolicy,
    QueueError,
    ResultStore,
    ScenarioSpec,
    WorkQueue,
    execute_campaign,
    register_builder,
    run_worker,
)
from repro.campaigns.queue import default_worker_id
from repro.telemetry.campaign import campaign_telemetry


@register_builder("scale-log")
def _logged_trial(case, measurement, seed):
    """Square a number, appending an execution log line (crash tests
    count executions through it)."""
    with open(case["log"], "a", encoding="utf-8") as handle:
        handle.write(f"{case['x']}\n")
    return {"square": case["x"] ** 2, "max_skew": float(case["x"])}


@register_builder("scale-slow")
def _slow_trial(case, measurement, seed):
    time.sleep(case.get("delay", 0.02))
    return {"square": case["x"] ** 2}


@register_builder("scale-boom")
def _boom_trial(case, measurement, seed):
    raise ValueError("boom")


def _log_spec(log_path, xs=(1, 2, 3, 4, 5, 6), name="logged"):
    return CampaignSpec(
        name=name,
        scenarios=(
            ScenarioSpec(
                builder="scale-log",
                base={"log": str(log_path)},
                axes={"*": {"x": xs}},
            ),
        ),
    )


def _content(run):
    """What every mode must agree on, record for record."""
    return [
        (
            r.case_key,
            {k: v for k, v in r.metrics.items() if k != "telemetry"},
            r.error,
        )
        for r in run.records
    ]


TRANSPORTS = ("serial", "pool", "queue")


def _policy(transport, queue_dir):
    """The same grid on each of the executor's three transports."""
    return {
        "serial": ExecutionPolicy(workers=1),
        "pool": ExecutionPolicy(workers=2, chunk_size=1),
        "queue": ExecutionPolicy(
            queue=str(queue_dir), chunk_size=1, worker_id="coord"
        ),
    }[transport]


def _log_counts(log_path):
    if not os.path.exists(log_path):
        return {}
    counts = {}
    with open(log_path, encoding="utf-8") as handle:
        for line in handle:
            x = int(line.strip())
            counts[x] = counts.get(x, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Queue protocol units
# ----------------------------------------------------------------------


class TestWorkQueue:
    def test_enqueue_publishes_manifest_and_chunks(self, tmp_path):
        spec = _log_spec(tmp_path / "log")
        queue = WorkQueue(tmp_path / "q")
        manifest = queue.enqueue(spec, "quick", chunk_size=2)
        assert manifest["campaign"] == "logged"
        assert manifest["chunks"] == 3 and manifest["trials"] == 6
        assert manifest["spec_key"] == spec.spec_key("quick")
        assert queue.manifest() == manifest
        assert queue.chunk_ids() == [
            "chunk-00000",
            "chunk-00001",
            "chunk-00002",
        ]
        assert not queue.all_done()

    def test_reenqueue_is_idempotent_per_case_key(self, tmp_path):
        # Publishing is idempotent, so the same spec adds nothing; an
        # extended grid (same spec key: it excludes the grid) adds only
        # its new cases, in chunks numbered after the last one; and
        # only a *different* campaign/scale in the directory is an
        # error.
        spec = _log_spec(tmp_path / "log")
        queue = WorkQueue(tmp_path / "q")
        first = queue.enqueue(spec, "quick")
        assert queue.enqueue(spec, "quick") == first
        assert queue.chunk_ids() == ["chunk-00000", "chunk-00001"]
        extended = _log_spec(tmp_path / "log", xs=(1, 2, 3, 4, 5, 6, 7))
        assert extended.spec_key("quick") == spec.spec_key("quick")
        again = queue.enqueue(extended, "quick")
        assert again["chunks"] == 3 and again["trials"] == 7
        assert queue.manifest() == again
        lease = [queue.claim("a") for _ in range(3)][-1]
        assert lease.chunk == "chunk-00002"
        new = extended.trials_for("quick")[6]
        assert lease.entries == [[6, new.case_key]]
        other = _log_spec(tmp_path / "log", name="other")
        with pytest.raises(QueueError, match="holds campaign 'logged'"):
            queue.enqueue(other, "quick")
        with pytest.raises(QueueError, match="holds campaign 'logged'"):
            queue.enqueue(spec, "full")

    def test_claims_are_mutually_exclusive_and_ordered(self, tmp_path):
        spec = _log_spec(tmp_path / "log")
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, "quick", chunk_size=3)
        first = queue.claim("a")
        second = queue.claim("b")
        assert first.chunk == "chunk-00000"
        assert second.chunk == "chunk-00001"
        keys = [p.case_key for p in spec.trials_for("quick")]
        assert first.entries == [[i, keys[i]] for i in (0, 1, 2)]
        assert queue.claim("c") is None  # both live, nothing open

    def test_complete_marks_done_and_releases(self, tmp_path):
        spec = _log_spec(tmp_path / "log", xs=(1, 2))
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, "quick", chunk_size=2)
        lease = queue.claim("a")
        assert not queue.all_done()
        queue.complete(lease)
        assert queue.all_done()
        assert queue.status() == {
            "chunks": 1,
            "done": 1,
            "claimed": 0,
            "open": 0,
        }
        assert queue.claim("b") is None

    def test_stale_lease_is_reclaimed_fresh_is_not(self, tmp_path):
        spec = _log_spec(tmp_path / "log", xs=(1, 2))
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, "quick", chunk_size=2)
        lease = queue.claim("dying-worker")
        # Fresh heartbeat: not reclaimable.
        assert queue.claim("b", lease_ttl=60.0) is None
        # Backdate the heartbeat past the TTL: reclaimable.
        stale = time.time() - 120.0
        os.utime(queue.claim_path(lease.chunk), (stale, stale))
        reclaimed = queue.claim("b", lease_ttl=60.0)
        assert reclaimed is not None
        assert reclaimed.chunk == lease.chunk
        assert reclaimed.reclaimed is True
        assert reclaimed.worker == "b"

    def test_heartbeat_refreshes_the_lease(self, tmp_path):
        spec = _log_spec(tmp_path / "log", xs=(1, 2))
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, "quick", chunk_size=2)
        lease = queue.claim("a")
        stale = time.time() - 120.0
        os.utime(queue.claim_path(lease.chunk), (stale, stale))
        queue.heartbeat(lease)
        assert queue.claim("b", lease_ttl=60.0) is None

    def test_default_worker_id_is_a_valid_shard_name(self, tmp_path):
        store = ResultStore(tmp_path)
        # Raises ValueError if the derived name violates shard rules.
        assert store.path_for("k", default_worker_id())


# ----------------------------------------------------------------------
# Workers: drain, concurrency, crash/resume
# ----------------------------------------------------------------------


class TestRunWorker:
    def test_worker_requires_an_enqueued_campaign(self, tmp_path):
        with pytest.raises(QueueError, match="no campaign enqueued"):
            run_worker(tmp_path / "empty", ResultStore(tmp_path / "s"))

    def test_spec_key_mismatch_is_an_error(self, tmp_path):
        spec = _log_spec(tmp_path / "log")
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, "quick")
        other = _log_spec(tmp_path / "log", name="other")
        with pytest.raises(QueueError, match="spec key mismatch"):
            run_worker(
                tmp_path / "q",
                ResultStore(tmp_path / "s"),
                spec=other,
            )

    def test_worker_with_a_different_grid_is_refused(self, tmp_path):
        # spec_key excludes the grid on purpose, so a checkout that
        # extended (or shrank) an axis passes the spec-key check; the
        # case keys in the chunk entries are what stops it from running
        # whatever sits at the published indices.
        log = tmp_path / "log"
        spec = _log_spec(log, xs=(1, 2, 3))
        key = spec.spec_key("quick")
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, "quick", chunk_size=2)
        store = ResultStore(tmp_path / "store")
        for xs in ((0, 1, 2, 3), (1,)):  # shifted; index out of range
            other = _log_spec(log, xs=xs)
            assert other.spec_key("quick") == key
            with pytest.raises(
                QueueError, match="disagree about the campaign grid"
            ):
                run_worker(tmp_path / "q", store, spec=other)
        assert _log_counts(log) == {} and store.load(key) == {}
        # The refused workers gave their leases back: no TTL wait.
        stats = run_worker(tmp_path / "q", store, spec=spec, poll=0.01)
        assert stats["trials"] == 3 and stats["reclaimed"] == 0
        assert _log_counts(log) == {1: 1, 2: 1, 3: 1}

    def test_single_worker_drains_and_matches_serial(self, tmp_path):
        spec = _log_spec(tmp_path / "log")
        serial = execute_campaign(spec)
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, "quick", chunk_size=2)
        store = ResultStore(tmp_path / "store")
        stats = run_worker(
            tmp_path / "q", store, spec=spec, worker_id="w1"
        )
        assert stats["chunks"] == 3 and stats["trials"] == 6
        assert queue.all_done()
        loaded = store.load(spec.spec_key("quick"))
        assert {
            k: r.metrics for k, r in loaded.items()
        } == {r.case_key: r.metrics for r in serial.records}
        assert store.shards(spec.spec_key("quick")) == ["w1"]

    def test_two_concurrent_writers_equal_serial_load(self, tmp_path):
        # Satellite: concurrent appenders through disjoint shards must
        # yield a store whose load() equals the serial run's.
        spec = CampaignSpec(
            name="concurrent",
            scenarios=(
                ScenarioSpec(
                    builder="scale-slow",
                    base={"delay": 0.03},
                    axes={"*": {"x": tuple(range(8))}},
                ),
            ),
        )
        serial = execute_campaign(spec)
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, "quick", chunk_size=1)
        store = ResultStore(tmp_path / "store")
        results = {}

        def drain(worker_id):
            results[worker_id] = run_worker(
                tmp_path / "q",
                store,
                spec=spec,
                worker_id=worker_id,
                poll=0.05,
            )

        threads = [
            threading.Thread(target=drain, args=(w,))
            for w in ("wa", "wb")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        key = spec.spec_key("quick")
        loaded = store.load(key)
        assert {
            k: r.metrics for k, r in loaded.items()
        } == {r.case_key: r.metrics for r in serial.records}
        total = sum(r["trials"] for r in results.values())
        assert total == 8  # every trial executed exactly once
        merged = store.merge(key)
        assert merged["records"] == 8 and merged["dropped"] == 0

    def test_crash_midshard_reclaims_only_the_lost_lease(
        self, tmp_path
    ):
        # Simulate worker A dying mid-chunk: it claimed chunk 0, ran
        # only the first of its two trials (persisted to its shard),
        # then stopped heartbeating.  Worker B must reclaim exactly
        # that lease and re-execute only the unrecorded trial.
        log = tmp_path / "log"
        spec = _log_spec(log)
        key = spec.spec_key("quick")
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(spec, "quick", chunk_size=2)
        store = ResultStore(tmp_path / "store")

        plans = spec.trials_for("quick")
        dead = queue.claim("wa")
        assert [entry[0] for entry in dead.entries] == [0, 1]
        from repro.campaigns import run_trial

        store.append(key, run_trial(plans[0]), shard="wa")
        stale = time.time() - 120.0
        os.utime(queue.claim_path(dead.chunk), (stale, stale))

        stats = run_worker(
            tmp_path / "q",
            store,
            spec=spec,
            worker_id="wb",
            lease_ttl=60.0,
            poll=0.05,
        )
        assert stats["reclaimed"] == 1
        assert stats["skipped"] == 1  # plan 0: already in wa's shard
        assert stats["trials"] == 5  # plan 1 + chunks 1 and 2
        assert queue.all_done()
        # Every trial executed exactly once across both lives.
        assert _log_counts(log) == {x: 1 for x in (1, 2, 3, 4, 5, 6)}
        assert len(store.load(key)) == 6


# ----------------------------------------------------------------------
# Queued coordinator (ExecutionPolicy.queue)
# ----------------------------------------------------------------------


class TestQueueCoordinator:
    def test_queue_mode_requires_store(self, tmp_path):
        spec = _log_spec(tmp_path / "log")
        with pytest.raises(ValueError, match="requires a result store"):
            execute_campaign(
                spec,
                policy=ExecutionPolicy(queue=str(tmp_path / "q")),
            )

    def test_coordinator_matches_pool_run(self, tmp_path):
        spec = _log_spec(tmp_path / "log-a", name="coordinated")
        pool = execute_campaign(
            spec,
            policy=ExecutionPolicy(workers=2, chunk_size=2),
            store=ResultStore(tmp_path / "store-pool"),
        )
        queued_spec = _log_spec(tmp_path / "log-a", name="coordinated")
        queued = execute_campaign(
            queued_spec,
            policy=ExecutionPolicy(
                queue=str(tmp_path / "q"),
                chunk_size=2,
                worker_id="coord",
            ),
            store=ResultStore(tmp_path / "store-q"),
        )
        assert queued.executed == 6 and queued.cached == 0
        assert [r.case_key for r in queued.records] == [
            r.case_key for r in pool.records
        ]
        for left, right in zip(pool.records, queued.records):
            assert left.metrics == right.metrics
            assert left.index == right.index

    def test_coordinator_replays_cache_and_reports_cached(
        self, tmp_path
    ):
        spec = _log_spec(tmp_path / "log")
        store = ResultStore(tmp_path / "store")
        execute_campaign(spec, store=store)
        rerun = execute_campaign(
            spec,
            policy=ExecutionPolicy(queue=str(tmp_path / "q")),
            store=store,
        )
        assert rerun.executed == 0 and rerun.cached == 6
        assert all(record.cached for record in rerun.records)
        # A fully-cached campaign enqueues zero chunks.
        assert WorkQueue(str(tmp_path / "q")).chunk_ids() == []


# ----------------------------------------------------------------------
# Composition: {fixed, extended} x {serial, pool, queue} x {bare, telemetry}
# ----------------------------------------------------------------------


def _detached_worker(queue_dir, store, spec):
    """A ``repro campaign worker`` stand-in: joins once the manifest
    exists, leaves when every published chunk is done."""
    stop = threading.Event()

    def work():
        while WorkQueue(queue_dir).manifest() is None:
            if stop.wait(0.005):
                return
        run_worker(
            queue_dir, store, spec=spec, worker_id="detached", poll=0.01
        )

    thread = threading.Thread(target=work)
    thread.start()
    return thread, stop


class TestComposition:
    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("source", ["fixed", "extended"])
    def test_every_mode_agrees_with_the_serial_run(
        self, tmp_path, source, transport, telemetry
    ):
        # "fixed" runs the tier from an empty store; "extended" finds
        # its first half already run through the same transport (for
        # the queue: published and done), so the run is the repeat
        # publish that `campaign enqueue` + `campaign run --queue`
        # performs — spec_key excludes the grid.
        log = tmp_path / "log"
        spec = _log_spec(log)
        reference = execute_campaign(spec, telemetry=telemetry)
        store = ResultStore(tmp_path / "store")
        policy = _policy(transport, tmp_path / "q")
        if source == "extended":
            execute_campaign(
                _log_spec(log, xs=(1, 2, 3)),
                policy=policy,
                store=store,
                telemetry=telemetry,
            )
        expected = {"fixed": (6, 0), "extended": (3, 3)}[source]

        def run():
            return execute_campaign(
                spec, policy=policy, store=store, telemetry=telemetry
            )

        if transport == "queue":
            thread, stop = _detached_worker(tmp_path / "q", store, spec)
            try:
                first = run()
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not thread.is_alive()
        else:
            first = run()
        assert _content(first) == _content(reference)
        assert (first.executed, first.cached) == expected
        assert first.executed + first.cached == len(first.records)
        # Once for the reference, once across this transport's runs.
        assert _log_counts(log) == {x: 2 for x in range(1, 7)}
        payload = json.dumps(campaign_telemetry(first), sort_keys=True)
        assert payload == json.dumps(
            campaign_telemetry(reference), sort_keys=True
        )
        assert ("telemetry" in first.records[0].metrics) is telemetry

        again = run()
        assert again.executed == 0
        assert again.cached == len(again.records) == len(first.records)
        assert _content(again) == _content(reference)
        assert payload == json.dumps(
            campaign_telemetry(again), sort_keys=True
        )


# ----------------------------------------------------------------------
# Every transport: replay, failures, progress
# ----------------------------------------------------------------------


class TestTransports:
    @pytest.mark.parametrize("reader", TRANSPORTS)
    @pytest.mark.parametrize("writer", TRANSPORTS)
    def test_a_store_replays_under_every_transport(
        self, tmp_path, writer, reader
    ):
        # Queue runs write worker shards, the others the default file;
        # a store is one store whichever transport wrote it.
        log = tmp_path / "log"
        spec = _log_spec(log)
        store = ResultStore(tmp_path / "store")
        first = execute_campaign(
            spec, policy=_policy(writer, tmp_path / "q-w"), store=store
        )
        again = execute_campaign(
            spec, policy=_policy(reader, tmp_path / "q-r"), store=store
        )
        assert (again.executed, again.cached) == (0, 6)
        assert all(record.cached for record in again.records)
        assert _content(again) == _content(first)
        assert [r.index for r in again.records] == list(range(6))
        assert _log_counts(log) == {x: 1 for x in range(1, 7)}

    @pytest.mark.parametrize("kind", ["raises", "unknown"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_builder_failures_are_tabulated_and_cached(
        self, tmp_path, transport, kind
    ):
        builder = {"raises": "scale-boom", "unknown": "scale-missing"}
        spec = CampaignSpec(
            name=f"failing-{kind}",
            scenarios=(
                ScenarioSpec(
                    builder=builder[kind], axes={"*": {"x": (1, 2, 3)}}
                ),
            ),
        )
        store = ResultStore(tmp_path / "store")
        run = execute_campaign(
            spec, policy=_policy(transport, tmp_path / "q"), store=store
        )
        assert run.failed == 3 and run.executed == 3
        prefix = {
            "raises": "ValueError: boom",
            "unknown": "KeyError: \"unknown builder 'scale-missing'",
        }[kind]
        assert all(r.error.startswith(prefix) for r in run.records)
        # A builder failure is deterministic, so it is cached like a
        # success: the re-run replays it instead of retrying.
        again = execute_campaign(spec, store=store)
        assert (again.executed, again.cached, again.failed) == (0, 3, 3)
        assert _content(again) == _content(run)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_progress_counts_replays_as_done(self, tmp_path, transport):
        log = tmp_path / "log"
        store = ResultStore(tmp_path / "store")
        execute_campaign(_log_spec(log, xs=(1, 2)), store=store)
        spec = _log_spec(log)
        calls = []
        run = execute_campaign(
            spec,
            policy=_policy(transport, tmp_path / "q"),
            store=store,
            progress=lambda done, total, record: calls.append(
                (done, total, record.case_key)
            ),
        )
        assert (run.executed, run.cached) == (4, 2)
        # One call per executed trial, after the two replays.
        assert [(done, total) for done, total, _ in calls] == [
            (3, 6), (4, 6), (5, 6), (6, 6)
        ]
        assert sorted(key for _, _, key in calls) == sorted(
            r.case_key for r in run.records[2:]
        )
