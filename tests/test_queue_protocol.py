"""Queue + store protocol hardening (ROADMAP "one executor", 2nd half).

Two adversarial views of the elastic transport:

* a Hypothesis state machine that interleaves everything the protocol
  allows — publishes (disjoint slices of a tier, the repeat publish of
  ``campaign enqueue`` followed by ``campaign run --queue``), claims,
  heartbeats, single trials, completions, workers dying mid-chunk,
  leases expiring under live *and* dead holders, real ``run_worker``
  passes, ``merge`` and ``compact`` — and checks that the store never
  holds a record that differs from the serial run's, and that a final
  drain leaves exactly the published cases, each under its own key;
* torn-write injection: a shard whose last line is cut at every byte
  boundary is tolerated and costs a reclaiming worker exactly the one
  lost trial, while the same cut in an interior line is refused with
  the file and line named — and a writer restarted on its own torn
  shard (same store file, same ``--worker-id``) repairs the tail before
  it appends, down to a worker process killed with ``SIGKILL``.
"""

import multiprocessing
import os
import shutil
import signal
import tempfile
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.campaigns import (
    CampaignSpec,
    CorruptStoreError,
    ResultStore,
    ScenarioSpec,
    WorkQueue,
    register_builder,
    run_trial,
    run_worker,
)
from repro.campaigns.store import record_line


@register_builder("proto-cell")
def _cell_trial(case, measurement, seed):
    if case["x"] == 3:
        raise ValueError("cell 3 always fails")
    return {"value": 1000 * case["x"]}


SPEC = CampaignSpec(
    name="protocol",
    scenarios=(
        ScenarioSpec(
            builder="proto-cell", axes={"*": {"x": tuple(range(1, 16))}}
        ),
    ),
)
KEY = SPEC.spec_key("quick")
TIER = SPEC.trials_for("quick")
#: What one publish may name: disjoint slices of the tier.
SLICES = {part: TIER[5 * part:5 * part + 5] for part in (0, 1, 2)}
#: The serial run of every plan the machine can publish.
REFERENCE = {
    plan.case_key: (record.metrics, record.error)
    for plan in TIER
    for record in [run_trial(plan)]
}
WORKERS = ("wa", "wb", "wc")


def _slow_cell(case, measurement, seed):
    """Slow enough to be killed mid-chunk; workers import it by name."""
    time.sleep(case["delay"])
    return {"value": 1000 * case["x"]}


SLOW = CampaignSpec(
    name="slow",
    scenarios=(
        ScenarioSpec(
            builder=f"{__name__}:_slow_cell",
            base={"delay": 0.2},
            axes={"*": {"x": (1, 2, 3)}},
        ),
    ),
)


def _drain_as_w(root):
    return run_worker(
        os.path.join(root, "q"),
        ResultStore(os.path.join(root, "store")),
        spec=SLOW,
        worker_id="w",
        poll=0.05,
    )


class QueueProtocol(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="queue-protocol-")
        self.queue = WorkQueue(os.path.join(self.tmp, "q"))
        self.store = ResultStore(os.path.join(self.tmp, "store"))
        self.published = set()
        # worker -> (lease, entries still to run); a killed worker's
        # lease stays on disk but leaves this map.
        self.held = {}

    def teardown(self):
        try:
            if self.queue.manifest() is not None:
                self.drain_and_compare()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    # -- publishing -----------------------------------------------------

    @rule(part=st.sampled_from(sorted(SLICES)))
    def publish(self, part):
        plans = SLICES[part]
        before = len(self.queue.chunk_ids())
        manifest = self.queue.enqueue(
            SPEC, "quick", plans=plans, chunk_size=2
        )
        added = {p.case_key for p in plans} - self.published
        self.published |= added
        assert manifest["trials"] == len(self.published)
        assert len(self.queue.chunk_ids()) - before == (
            (len(added) + 1) // 2
        )

    # -- a hand-driven worker, one protocol step per rule ---------------

    @rule(worker=st.sampled_from(WORKERS))
    def claim(self, worker):
        if worker in self.held:
            return
        lease = self.queue.claim(worker, lease_ttl=60.0)
        if lease is not None:
            known = self.store.load(KEY)
            self.held[worker] = (
                lease,
                [e for e in lease.entries if e[1] not in known],
            )

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def run_one_trial_or_complete(self, data):
        worker = data.draw(st.sampled_from(sorted(self.held)))
        lease, todo = self.held[worker]
        if not todo:
            self.queue.complete(lease)
            del self.held[worker]
            return
        index, case_key = todo.pop(0)
        plan = TIER[index]
        assert plan.case_key == case_key
        self.store.append(KEY, run_trial(plan), shard=worker)
        self.queue.heartbeat(lease)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def kill(self, data):
        # Dies mid-chunk: no completion, the claim file stays behind.
        del self.held[data.draw(st.sampled_from(sorted(self.held)))]

    @rule(data=st.data())
    def expire_a_lease(self, data):
        # Any claim may look dead — a killed holder's (crash recovery)
        # or a live one's (the zombie double-execution case).
        claimed = [
            chunk
            for chunk in self.queue.chunk_ids()
            if os.path.exists(self.queue.claim_path(chunk))
        ]
        if claimed:
            stale = time.time() - 120.0
            path = self.queue.claim_path(data.draw(st.sampled_from(claimed)))
            os.utime(path, (stale, stale))

    # -- the real worker ------------------------------------------------

    @precondition(lambda self: self.queue.status()["open"] > 0)
    @rule()
    def real_worker_takes_a_chunk(self):
        stats = run_worker(
            self.queue.root,
            self.store,
            spec=SPEC,
            worker_id="real",
            max_chunks=1,
            on_record=self.check_record,
        )
        assert stats["chunks"] == 1

    # -- store maintenance ----------------------------------------------

    @rule()
    def merge(self):
        before = self.store.load(KEY)
        self.store.merge(KEY)
        assert self.store.shards(KEY) == []
        assert set(self.store.load(KEY)) == set(before)

    @rule()
    def compact(self):
        before = self.store.load(KEY)
        self.store.compact(KEY)
        assert set(self.store.load(KEY)) == set(before)

    # -- what must always hold ------------------------------------------

    @staticmethod
    def check_record(record):
        assert (record.metrics, record.error) == REFERENCE[record.case_key]

    @invariant()
    def store_only_holds_serial_records(self):
        for case_key, record in self.store.load(KEY).items():
            assert case_key in self.published
            self.check_record(record)

    def drain_and_compare(self):
        run_worker(
            self.queue.root,
            self.store,
            spec=SPEC,
            worker_id="drain",
            lease_ttl=1e-6,  # every leftover claim is reclaimable
            poll=0.001,
            on_record=self.check_record,
        )
        assert self.queue.all_done()
        assert {
            case_key: (record.metrics, record.error)
            for case_key, record in self.store.load(KEY).items()
        } == {k: REFERENCE[k] for k in self.published}


QueueProtocol.TestCase.settings = settings(stateful_step_count=30)
TestQueueProtocol = QueueProtocol.TestCase


# ----------------------------------------------------------------------
# Torn writes
# ----------------------------------------------------------------------


class TestTornWrites:
    """Worker ``wa`` ran both trials of its chunk and died while the
    second line was in flight; ``wb`` reclaims the lease.

    Each test clears one directory before each cut and writes the
    same shard path again, so a run leaves a handful of files behind
    instead of a tree per cut.  The file is removed, not truncated in
    place: on ext4 an ``O_TRUNC`` rewrite of a written file flushes
    it, ≈ 65 ms a cut."""

    PAIR = CampaignSpec(
        name="torn",
        scenarios=(
            ScenarioSpec(builder="proto-cell", axes={"*": {"x": (1, 2)}}),
        ),
    )

    def _crashed_chunk(self, root, shard_bytes):
        shutil.rmtree(root, ignore_errors=True)
        key = self.PAIR.spec_key("quick")
        queue = WorkQueue(os.path.join(root, "q"))
        queue.enqueue(self.PAIR, "quick", chunk_size=2)
        lease = queue.claim("wa")
        stale = time.time() - 120.0
        os.utime(queue.claim_path(lease.chunk), (stale, stale))
        store = ResultStore(os.path.join(root, "store"))
        path = store.path_for(key, "wa")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(shard_bytes)
        return store, key, path

    def _reclaim(self, root, store):
        return run_worker(
            os.path.join(root, "q"),
            store,
            spec=self.PAIR,
            worker_id="wb",
            lease_ttl=60.0,
        )

    def test_a_torn_tail_costs_exactly_the_lost_trial(self, tmp_path):
        first, second = (
            record_line(run_trial(plan)).encode("utf-8")
            for plan in self.PAIR.trials_for("quick")
        )
        root = str(tmp_path / "tail")
        for cut in range(len(second)):
            store, key, _path = self._crashed_chunk(
                root, first + second[:cut]
            )
            # Only the newline missing: the record itself is whole.
            lost = 0 if cut == len(second) - 1 else 1
            assert len(store.load(key)) == 2 - lost
            stats = self._reclaim(root, store)
            assert stats["reclaimed"] == 1
            assert (stats["skipped"], stats["trials"]) == (2 - lost, lost)
            assert {
                r.case["x"]: r.metrics for r in store.load(key).values()
            } == {1: {"value": 1000}, 2: {"value": 2000}}

    def test_the_same_cut_in_an_interior_line_is_refused(self, tmp_path):
        first, second = (
            record_line(run_trial(plan)).encode("utf-8")
            for plan in self.PAIR.trials_for("quick")
        )
        root = str(tmp_path / "interior")
        for cut in range(1, len(first) - 1):
            store, key, path = self._crashed_chunk(
                root, first[:cut] + b"\n" + second
            )
            with pytest.raises(CorruptStoreError) as info:
                self._reclaim(root, store)
            assert (info.value.path, info.value.line) == (path, 1)
            assert f"{path}:1" in str(info.value)

    def test_a_restarted_writer_appends_after_its_own_torn_tail(
        self, tmp_path
    ):
        # The writer that tore the file comes back (a re-run with the
        # same ``--store`` on the base file, or the same
        # ``--worker-id`` on a shard) and
        # appends: nothing may be glued onto the fragment.
        records = [run_trial(TIER[i]) for i in (0, 1, 3)]
        first, second, third = (
            record_line(record).encode("utf-8") for record in records
        )
        for shard in (None, "w"):
            for cut in range(len(second)):
                root = tmp_path / f"{shard}"
                shutil.rmtree(root, ignore_errors=True)
                store = ResultStore(root)
                path = store.path_for(KEY, shard)
                os.makedirs(os.path.dirname(path))
                with open(path, "wb") as handle:
                    handle.write(first + second[:cut])
                store.append(KEY, records[1], shard=shard)
                store.append(KEY, records[2], shard=shard)
                assert {
                    key: (record.metrics, record.error)
                    for key, record in store.load(KEY).items()
                } == {
                    record.case_key: REFERENCE[record.case_key]
                    for record in records
                }
                if cut < len(second) - 1:
                    # The fragment is gone; an untorn file (cut 0) is
                    # appended to exactly as before.
                    with open(path, "rb") as handle:
                        assert handle.read() == first + second + third

    @pytest.mark.skipif(
        not hasattr(signal, "SIGKILL"), reason="needs SIGKILL"
    )
    def test_a_killed_worker_restarts_under_its_own_id(self, tmp_path):
        root = str(tmp_path)
        plans = SLOW.trials_for("quick")
        key = SLOW.spec_key("quick")
        serial = {
            plan.case_key: (record.metrics, record.error)
            for plan in plans
            for record in [run_trial(plan)]
        }
        queue = WorkQueue(os.path.join(root, "q"))
        queue.enqueue(SLOW, "quick", chunk_size=len(plans))
        store = ResultStore(os.path.join(root, "store"))
        shard = store.path_for(key, "w")
        child = multiprocessing.Process(target=_drain_as_w, args=(root,))
        child.start()
        try:
            deadline = time.monotonic() + 10.0
            while not (
                os.path.exists(shard) and os.path.getsize(shard)
            ):
                assert time.monotonic() < deadline, "no record landed"
                time.sleep(0.01)
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10.0)
        assert not child.is_alive()
        with open(shard, "rb") as handle:
            landed = handle.read().count(b"\n")
        assert 1 <= landed < len(plans)
        # The write that was in flight when the process died.
        in_flight = record_line(run_trial(plans[landed]))
        with open(shard, "ab") as handle:
            handle.write(in_flight[:25].encode("utf-8"))
        stale = time.time() - 120.0
        os.utime(queue.claim_path("chunk-00000"), (stale, stale))
        stats = _drain_as_w(root)
        assert stats["reclaimed"] == 1
        assert stats["skipped"] == landed
        assert stats["trials"] == len(plans) - landed
        assert store.shards(key) == ["w"]
        assert {
            case_key: (record.metrics, record.error)
            for case_key, record in store.load(key).items()
        } == serial


# ----------------------------------------------------------------------
# The refresh rule
# ----------------------------------------------------------------------


class CountingStore(ResultStore):
    """A store that counts its full reads."""

    def __init__(self, root):
        super().__init__(root)
        self.loads = 0

    def load(self, key):
        self.loads += 1
        return super().load(key)


class TestRefreshRule:
    """A worker re-reads the store only when a file other than its own
    shard changed, and skips exactly what a fresh read would."""

    def _queue(self, root):
        queue = WorkQueue(os.path.join(root, "q"))
        queue.enqueue(SPEC, "quick", chunk_size=2)
        return queue, CountingStore(os.path.join(root, "store"))

    def _drain(self, queue, store, on_record=None):
        return run_worker(
            queue.root,
            store,
            spec=SPEC,
            worker_id="w",
            on_record=on_record,
        )

    def _assert_serial(self, store):
        assert {
            case_key: (record.metrics, record.error)
            for case_key, record in store.load(KEY).items()
        } == REFERENCE

    def test_a_lone_worker_reads_the_store_once(self, tmp_path):
        queue, store = self._queue(str(tmp_path))
        stats = self._drain(queue, store)
        assert (stats["chunks"], stats["trials"]) == (8, len(TIER))
        assert store.loads == 1
        self._assert_serial(store)

    @pytest.mark.parametrize("shard", ["other", None], ids=["shard", "base"])
    def test_a_foreign_append_costs_one_reload(self, tmp_path, shard):
        # After chunk-00000's last record, another writer persists the
        # first case of chunk-00001 (a new shard, or a new base file).
        queue, store = self._queue(str(tmp_path))
        foreign = TIER[2]
        ran = []

        def on_record(record):
            ran.append(record.case_key)
            if len(ran) == 2:
                ResultStore(store.root).append(
                    KEY, run_trial(foreign), shard=shard
                )

        stats = self._drain(queue, store, on_record)
        assert store.loads == 2
        assert foreign.case_key not in ran
        assert (stats["skipped"], stats["trials"]) == (1, len(TIER) - 1)
        self._assert_serial(store)

    def test_a_chunk_won_after_a_stale_claim_was_removed(self, tmp_path):
        # ``wa`` holds chunk-00000, so ``w`` starts on chunk-00001 and
        # reads the empty store.  Then ``wa`` persists one trial and
        # dies, and a third worker removes its claim but loses the
        # re-create to ``w``: ``w``'s lease is not ``reclaimed``, yet
        # it must skip what ``wa`` persisted.
        queue, store = self._queue(str(tmp_path))
        held = queue.claim("wa")
        assert held.chunk == "chunk-00000"
        index, persisted = held.entries[0]
        ran = []

        def on_record(record):
            ran.append(record.case_key)
            if record.case_key == TIER[2].case_key:
                store.append(KEY, run_trial(TIER[index]), shard="wa")
                os.remove(queue.claim_path(held.chunk))

        stats = self._drain(queue, store, on_record)
        assert (stats["reclaimed"], stats["skipped"]) == (0, 1)
        assert persisted not in ran
        assert stats["trials"] == len(ran) == len(TIER) - 1
        assert store.loads == 2
        self._assert_serial(store)
