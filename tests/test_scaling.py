"""Elastic queue execution and adaptive sampling (ISSUE 9 tentpole).

Covers the scaling layer end to end:

* ``WorkQueue`` protocol units — exclusive claims, heartbeats, stale
  lease reclaim, completion markers;
* crash/resume — a worker dying mid-shard loses only its lease, and
  the reclaiming worker re-executes only the unrecorded trials;
* two concurrent writers produce a store whose ``load()`` equals the
  serial run's;
* the queued coordinator path matches the pool path record for
  record;
* adaptive sampling — per-cell stopping on a CI-width target that is
  deterministic across worker counts and demonstrably cheaper than
  fixed replication.
"""

import json
import os
import random
import threading
import time

import pytest

from repro.campaigns import (
    AdaptivePolicy,
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
from repro.campaigns.adaptive import _cell_width, t_critical
from repro.campaigns.executor import TrialRecord
from repro.campaigns.queue import default_worker_id
from repro.telemetry.campaign import (
    InstrumentationPlan,
    campaign_telemetry,
)


@register_builder("scale-log")
def _logged_trial(case, measurement, seed):
    """Square a number, appending an execution log line (crash tests
    count executions through it)."""
    with open(case["log"], "a", encoding="utf-8") as handle:
        handle.write(f"{case['x']}\n")
    return {"square": case["x"] ** 2, "max_skew": float(case["x"])}


@register_builder("scale-noisy")
def _noisy_trial(case, measurement, seed):
    """A seed-deterministic noisy metric: cells with small ``spread``
    converge fast under the adaptive stopping rule, wide ones don't."""
    rng = random.Random(seed)
    return {"max_skew": case["base"] + rng.random() * case["spread"]}


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


def _noisy_spec(name="noisy", seed=0):
    return CampaignSpec(
        name=name,
        scenarios=(
            ScenarioSpec(
                builder="scale-noisy",
                cases={
                    "*": (
                        {"base": 1.0, "spread": 0.001},
                        {"base": 2.0, "spread": 0.001},
                        {"base": 3.0, "spread": 5.0},
                    )
                },
            ),
        ),
        seed=seed,
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
        # Rewritten from test_reenqueue_is_an_error: publishing is
        # idempotent, so the same spec adds nothing, new plans land in
        # chunks numbered after the last one, and only a *different*
        # campaign/scale in the directory is an error.
        spec = _log_spec(tmp_path / "log")
        queue = WorkQueue(tmp_path / "q")
        first = queue.enqueue(spec, "quick")
        assert queue.enqueue(spec, "quick") == first
        assert queue.chunk_ids() == ["chunk-00000", "chunk-00001"]
        plans = spec.trials_for("quick")
        replicates = [spec.replicate_plan(plans[0], r) for r in (0, 1)]
        again = queue.enqueue(spec, "quick", plans=replicates)
        assert again["chunks"] == 3 and again["trials"] == 7
        assert queue.manifest() == again
        lease = [queue.claim("a") for _ in range(3)][-1]
        assert lease.chunk == "chunk-00002"
        assert lease.entries == [[0, 1, replicates[1].case_key]]
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
        assert first.entries == [[i, 0, keys[i]] for i in (0, 1, 2)]
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

    def test_queue_mode_rejects_fresh_and_timeout(self, tmp_path):
        spec = _log_spec(tmp_path / "log")
        store = ResultStore(tmp_path / "store")
        policy = ExecutionPolicy(queue=str(tmp_path / "q"))
        with pytest.raises(ValueError, match="reuses the store"):
            execute_campaign(
                spec, policy=policy, store=store, reuse=False
            )
        with pytest.raises(ValueError, match="timeouts are not"):
            execute_campaign(
                spec,
                policy=ExecutionPolicy(
                    queue=str(tmp_path / "q"), timeout=1.0
                ),
                store=store,
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
# Adaptive sampling
# ----------------------------------------------------------------------


class TestAdaptivePolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="ci_width"):
            AdaptivePolicy(ci_width=0)
        with pytest.raises(ValueError, match="confidence"):
            AdaptivePolicy(ci_width=1.0, confidence=1.0)
        with pytest.raises(ValueError, match="min_trials"):
            AdaptivePolicy(ci_width=1.0, min_trials=1)
        with pytest.raises(ValueError, match="max_trials"):
            AdaptivePolicy(ci_width=1.0, min_trials=4, max_trials=3)

    def test_z_value_matches_confidence(self):
        # The normal critical value is the large-n limit of the t one.
        policy = AdaptivePolicy(ci_width=1.0, confidence=0.95)
        assert policy.critical_value(10**6) == pytest.approx(
            1.9599, abs=1e-3
        )
        # ... and nowhere near it at the default three draws.
        assert policy.critical_value(3) == pytest.approx(4.3027, abs=1e-3)

    @pytest.mark.parametrize(
        "df,quantiles",
        [
            (1, (6.3138, 12.7062, 63.6567)),
            (2, (2.9200, 4.3027, 9.9248)),
            (4, (2.1318, 2.7764, 4.6041)),
            (9, (1.8331, 2.2622, 3.2498)),
            (29, (1.6991, 2.0452, 2.7564)),
        ],
    )
    def test_t_critical_matches_the_published_table(self, df, quantiles):
        for confidence, expected in zip((0.90, 0.95, 0.99), quantiles):
            assert t_critical(confidence, df) == pytest.approx(
                expected, abs=1e-3
            )

    @pytest.mark.parametrize(
        "confidence", [0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
    )
    def test_t_critical_is_within_its_stated_error_of_scipy(
        self, confidence
    ):
        """The docstring's claim, relative error under 1e-5, at every
        ``df`` the stopping rule can meet and far past it (the worst
        case is 6.98e-6, at 0.9 and df = 3).  scipy is no dependency:
        the cross-check skips without it."""
        stats = pytest.importorskip("scipy.stats")
        for df in [*range(1, 301), 500, 10**3, 10**4, 10**5]:
            exact = stats.t.ppf((1 + confidence) / 2, df)
            assert t_critical(confidence, df) == pytest.approx(
                exact, rel=1e-5
            ), df

    @pytest.mark.parametrize("n", [3, 5, 10, 30])
    def test_interval_covers_the_mean_at_its_stated_rate(self, n):
        """Seeded coverage check: over synthetic normal cells of ``n``
        draws, the 95 % interval the stopping rule computes contains
        the true mean 95 % of the time (±3 points; the z-interval it
        replaces covers 82 % at n = 3)."""
        rng = random.Random(1000 + n)
        policy = AdaptivePolicy(ci_width=1.0, confidence=0.95)
        trials, covered = 4000, 0
        for _ in range(trials):
            draws = [rng.gauss(5.0, 2.0) for _ in range(n)]
            records = [
                TrialRecord(
                    "synthetic", "normal", {}, i, str(i), i,
                    metrics={"max_skew": value},
                )
                for i, value in enumerate(draws)
            ]
            half = _cell_width(records, policy) / 2
            covered += abs(sum(draws) / n - 5.0) <= half
        assert covered / trials == pytest.approx(0.95, abs=0.03)


class TestReplicatePlans:
    def test_replicate_zero_is_the_plan_itself(self):
        spec = _noisy_spec()
        plan = spec.trials_for("quick")[0]
        assert spec.replicate_plan(plan, 0) is plan

    def test_replicates_get_distinct_seeds_and_keys(self):
        spec = _noisy_spec()
        plan = spec.trials_for("quick")[0]
        reps = [spec.replicate_plan(plan, r) for r in range(4)]
        assert len({rp.case_key for rp in reps}) == 4
        assert len({rp.seed for rp in reps}) == 4
        assert reps[2].case["replicate"] == 2
        assert "replicate" not in plan.case

    def test_pinned_seed_steps_by_replicate(self):
        spec = CampaignSpec(
            name="pinned",
            scenarios=(
                ScenarioSpec(
                    builder="scale-noisy",
                    cases={
                        "*": (
                            {"base": 0.0, "spread": 1.0, "seed": 100},
                        )
                    },
                ),
            ),
        )
        plan = spec.trials_for("quick")[0]
        assert spec.replicate_plan(plan, 3).seed == 103


class TestAdaptiveSampling:
    def test_converged_cells_stop_early_wide_cells_run_to_cap(self):
        run = execute_campaign(
            _noisy_spec(),
            adaptive=AdaptivePolicy(
                ci_width=0.01, min_trials=2, max_trials=6
            ),
        )
        a = run.adaptive
        assert a["cells"] == 3
        assert a["converged"] == 2 and a["exhausted"] == 1
        per_cell = {c["case_key"]: c for c in a["per_cell"]}
        ns = sorted(c["n"] for c in per_cell.values())
        assert ns[:2] == [2, 2]  # tight cells stopped at min_trials
        assert ns[2] == 6  # the wide cell hit the cap
        assert a["trials"] == sum(ns) == len(run.records)
        assert a["saved"] == a["fixed_trials"] - a["trials"] > 0

    def test_deterministic_across_worker_counts(self):
        adaptive = AdaptivePolicy(
            ci_width=0.01, min_trials=2, max_trials=5
        )
        serial = execute_campaign(
            _noisy_spec(), adaptive=adaptive
        )
        pooled = execute_campaign(
            _noisy_spec(),
            adaptive=adaptive,
            policy=ExecutionPolicy(workers=3, chunk_size=1),
        )
        assert [r.case_key for r in serial.records] == [
            r.case_key for r in pooled.records
        ]
        for left, right in zip(serial.records, pooled.records):
            assert left.metrics == right.metrics
        assert serial.adaptive == pooled.adaptive

    def test_error_cells_never_converge(self):
        spec = CampaignSpec(
            name="adaptive-boom",
            scenarios=(
                ScenarioSpec(
                    builder="scale-boom", axes={"*": {"x": (1,)}}
                ),
            ),
        )
        run = execute_campaign(
            spec,
            adaptive=AdaptivePolicy(
                ci_width=10.0, min_trials=2, max_trials=4
            ),
        )
        assert run.adaptive["converged"] == 0
        assert run.adaptive["per_cell"][0]["n"] == 4
        assert run.failed == 4

    def test_store_resume_replays_every_replicate(self, tmp_path):
        store = ResultStore(tmp_path)
        adaptive = AdaptivePolicy(
            ci_width=0.01, min_trials=2, max_trials=5
        )
        first = execute_campaign(
            _noisy_spec(), adaptive=adaptive, store=store
        )
        again = execute_campaign(
            _noisy_spec(), adaptive=adaptive, store=store
        )
        assert first.executed == first.adaptive["trials"]
        assert again.executed == 0
        assert again.cached == first.adaptive["trials"]
        assert again.adaptive == first.adaptive
        assert [r.case_key for r in again.records] == [
            r.case_key for r in first.records
        ]

    def test_queue_mode_matches_serial(self, tmp_path):
        # Rewritten from test_queue_mode_is_rejected: a round is one
        # call of the core's step, so the queue transport keeps the
        # round barrier and adaptive × queue is no longer refused.
        adaptive = AdaptivePolicy(
            ci_width=0.01, min_trials=2, max_trials=5
        )
        serial = execute_campaign(_noisy_spec(), adaptive=adaptive)
        queued = execute_campaign(
            _noisy_spec(),
            adaptive=adaptive,
            policy=ExecutionPolicy(
                queue=str(tmp_path / "q"), worker_id="coord"
            ),
            store=ResultStore(tmp_path / "store"),
        )
        assert _content(queued) == _content(serial)
        assert queued.adaptive == serial.adaptive
        assert queued.executed == serial.executed
        # Each round was one more publish into the same directory.
        queue = WorkQueue(tmp_path / "q")
        assert queue.all_done()
        assert queue.manifest()["trials"] == serial.adaptive["trials"]
        assert len(queue.chunk_ids()) > 2

    def test_telemetry_sidecar_records_the_summary(self):
        run = execute_campaign(
            _noisy_spec(),
            adaptive=AdaptivePolicy(
                ci_width=0.01, min_trials=2, max_trials=4
            ),
        )
        payload = campaign_telemetry(run)
        assert payload["adaptive"]["metric"] == "max_skew"
        assert "per_cell" not in payload["adaptive"]
        fixed = execute_campaign(_noisy_spec(name="noisy-fixed"))
        assert "adaptive" not in campaign_telemetry(fixed)


# ----------------------------------------------------------------------
# Composition: {fixed, adaptive} x {serial, pool, queue} x {bare, telemetry}
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
    @pytest.mark.parametrize("transport", ["serial", "pool", "queue"])
    @pytest.mark.parametrize("source", ["fixed", "adaptive"])
    def test_every_mode_agrees_with_the_serial_run(
        self, tmp_path, source, transport, telemetry
    ):
        if source == "fixed":
            spec, adaptive = _log_spec(tmp_path / "log"), None
        else:
            spec = _noisy_spec()
            adaptive = AdaptivePolicy(
                ci_width=0.01, min_trials=2, max_trials=5
            )
        instrumentation = InstrumentationPlan(telemetry=telemetry)
        reference = execute_campaign(
            spec, adaptive=adaptive, instrumentation=instrumentation
        )
        store = ResultStore(tmp_path / "store")
        policy = {
            "serial": ExecutionPolicy(workers=1),
            "pool": ExecutionPolicy(workers=2, chunk_size=1),
            "queue": ExecutionPolicy(
                queue=str(tmp_path / "q"), chunk_size=1, worker_id="coord"
            ),
        }[transport]

        def run():
            return execute_campaign(
                spec,
                policy=policy,
                store=store,
                adaptive=adaptive,
                instrumentation=instrumentation,
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
        assert first.adaptive == reference.adaptive
        assert (first.executed, first.cached) == (
            reference.executed,
            reference.cached,
        )
        assert first.executed + first.cached == len(first.records)
        payload = json.dumps(campaign_telemetry(first), sort_keys=True)
        assert payload == json.dumps(
            campaign_telemetry(reference), sort_keys=True
        )
        assert ("telemetry" in first.records[0].metrics) is telemetry

        again = run()
        assert again.executed == 0
        assert again.cached == len(again.records) == len(first.records)
        assert _content(again) == _content(reference)
        assert again.adaptive == reference.adaptive
        assert payload == json.dumps(
            campaign_telemetry(again), sort_keys=True
        )
