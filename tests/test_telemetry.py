"""Tests for the telemetry subsystem: registry, sidecars, progress.

The load-bearing guarantees:

* **Zero perturbation** — instrumented and bare runs of the same
  simulation produce identical pulse streams and event counts; the
  ``none`` and ``full`` trace levels produce identical telemetry
  snapshots.
* **Sidecar determinism** — campaign ``.telemetry.json`` payloads are
  byte-identical across worker counts.
"""

import io
import json
import os

import pytest

from repro import scenarios
from repro.campaigns import (
    ExecutionPolicy,
    campaign_definition,
    execute_campaign,
)
from repro.campaigns.store import dump_json_summary
from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters
from repro.crypto.signatures import clear_verify_cache
from repro.telemetry import (
    DELAY_BUCKETS,
    DISPATCH_NAMES,
    METRIC_CATALOG,
    Histogram,
    Telemetry,
    active_telemetry,
    available_metrics,
    merge_snapshots,
    telemetry_session,
)
from repro.telemetry.campaign import (
    aggregate_payloads,
    campaign_telemetry,
    diff_rows,
    render_campaign_telemetry,
    render_diff,
)
from repro.telemetry.progress import ProgressReporter

PULSES = 8


def build_small_cps(trace="none", n=5, seed=7):
    params = derive_parameters(1.001, 1.0, 0.02, n)
    faulty = list(range(n - params.f, n))
    return assemble_cps_simulation(
        params,
        faulty=faulty,
        behavior=scenarios.create("adversary", "mimic-split", params),
        seed=seed,
        trace=trace,
    )


def run_instrumented_cps(trace="none", **kwargs):
    clear_verify_cache()
    telemetry = Telemetry(label="test")
    with telemetry_session(telemetry):
        result = build_small_cps(trace=trace, **kwargs).run(
            max_pulses=PULSES
        )
    return telemetry, result


class TestZeroPerturbation:
    def test_pulses_identical_with_and_without_telemetry(self):
        bare = build_small_cps().run(max_pulses=PULSES)
        _telemetry, instrumented = run_instrumented_cps()
        assert bare.pulses == instrumented.pulses
        assert bare.events_processed == instrumented.events_processed

    def test_counters_are_internally_consistent(self):
        telemetry, result = run_instrumented_cps()
        snapshot = telemetry.as_dict()
        counters = snapshot["counters"]
        dispatched = sum(
            counters.get(name, 0) for name in DISPATCH_NAMES
        )
        assert dispatched == result.events_processed
        delivered = (
            counters["messages.delivered.honest"]
            + counters["messages.delivered.adversary"]
            + counters["messages.dropped.inactive"]
        )
        assert delivered == counters["events.dispatched.delivery"]
        assert counters["pulses.recorded"] == sum(
            len(times) for times in result.pulses.values()
        )
        assert counters["tcb.echoes"] > 0
        assert counters["crypto.verify.misses"] > 0
        assert snapshot["gauges"]["events.processed"] == (
            result.events_processed
        )
        assert snapshot["spans"] == {"sim.run": 1}

    def test_trace_level_does_not_change_telemetry(self):
        """An unrecorded and a fully traced run observe the same
        execution, so their snapshots must be identical."""
        none_telemetry, none_result = run_instrumented_cps("none")
        full_telemetry, full_result = run_instrumented_cps("full")
        assert none_result.pulses == full_result.pulses
        assert none_telemetry.as_dict() == full_telemetry.as_dict()

    def test_snapshot_counts_spans_and_carries_no_wall_clock(self):
        telemetry, _result = run_instrumented_cps()
        snapshot = telemetry.as_dict()
        assert snapshot["spans"]["sim.run"] == 1
        # Counts only: no seconds anywhere, on the handle or in the
        # sidecar (a second run of the same case is byte-identical).
        assert all(type(n) is int for n in snapshot["spans"].values())
        again, _result = run_instrumented_cps()
        assert json.dumps(again.as_dict()) == json.dumps(snapshot)

    def test_delay_histogram_covers_every_send(self):
        telemetry, _result = run_instrumented_cps()
        snapshot = telemetry.as_dict()
        histogram = snapshot["histograms"]["messages.delay"]
        sent = (
            snapshot["counters"]["messages.sent.honest"]
            + snapshot["counters"]["messages.sent.faulty"]
        )
        assert histogram["count"] == sent
        assert sum(histogram["counts"]) == sent

    def test_meta_records_run_shape(self):
        telemetry, _result = run_instrumented_cps()
        meta = telemetry.as_dict()["meta"]
        params = derive_parameters(1.001, 1.0, 0.02, 5)
        assert meta["n"] == 5
        assert meta["f"] == params.f
        assert len(meta["delay_policies"]) == 1


class TestAmbientContext:
    def test_session_restores_previous_handle(self):
        outer = Telemetry(label="outer")
        inner = Telemetry(label="inner")
        with telemetry_session(outer):
            assert active_telemetry() is outer
            with telemetry_session(inner):
                assert active_telemetry() is inner
            assert active_telemetry() is outer
        assert active_telemetry() is None

    def test_simulation_adopts_ambient_handle(self):
        telemetry = Telemetry()
        with telemetry_session(telemetry):
            simulation = build_small_cps()
        assert simulation.telemetry is telemetry
        assert build_small_cps().telemetry is None


class TestHistogram:
    def test_boundary_value_lands_in_closed_bucket(self):
        """The maximum delay d (= 1.0 in registry scenarios) must land
        in the <=1.0 bucket, not the (1.0, 1.25] one."""
        histogram = Histogram(DELAY_BUCKETS)
        histogram.observe(1.0)
        assert histogram.counts[DELAY_BUCKETS.index(1.0)] == 1

    def test_overflow_bucket(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(5.0)
        assert histogram.counts == [0, 0, 1]
        assert histogram.count == 1
        assert histogram.total == 5.0


class TestMergeAndDiff:
    def test_merge_sums_counters_and_maxes_gauges(self):
        a = {
            "counters": {"x": 1},
            "gauges": {"g": 3.0},
            "spans": {"s": 1},
            "histograms": {
                "h": {
                    "boundaries": [1.0],
                    "counts": [1, 0],
                    "count": 1,
                    "total": 0.5,
                }
            },
        }
        b = {
            "counters": {"x": 2, "y": 5},
            "gauges": {"g": 2.0},
            "spans": {"s": 4},
            "histograms": {
                "h": {
                    "boundaries": [1.0],
                    "counts": [0, 2],
                    "count": 2,
                    "total": 4.0,
                }
            },
        }
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"x": 3, "y": 5}
        assert merged["gauges"] == {"g": 3.0}
        assert merged["spans"] == {"s": 5}
        assert merged["histograms"]["h"]["counts"] == [1, 2]
        assert merged["histograms"]["h"]["total"] == 4.5

    def test_diff_rows_cover_both_sides(self):
        left = {"aggregate": {"counters": {"x": 1}, "gauges": {}}}
        right = {"aggregate": {"counters": {"y": 2}, "gauges": {}}}
        rows = diff_rows(left, right)
        by_name = {row["metric"]: row for row in rows}
        assert by_name["x"]["delta"] == -1
        assert by_name["y"]["delta"] == 2
        assert "x" in render_diff(rows)
        assert render_diff(rows, changed_only=True) != "no matching metrics"

    def test_aggregate_payloads_merges_stores(self):
        payload = {
            "campaign": "E4",
            "scale": "quick",
            "instrumented": 2,
            "aggregate": {"counters": {"x": 1}},
        }
        merged = aggregate_payloads([payload, payload])
        assert merged["sidecars"] == 2
        assert merged["instrumented"] == 4
        assert merged["campaigns"] == ["E4[quick]"]
        assert merged["aggregate"]["counters"] == {"x": 2}


class TestMetricCatalog:
    def test_catalog_names_are_available(self):
        names = available_metrics()
        assert names == sorted(names)
        for name in METRIC_CATALOG:
            assert name in names

    def test_payload_extends_catalog_with_dynamic_names(self):
        payload = {
            "aggregate": {"counters": {"annotations.cps-round": 3}}
        }
        assert "annotations.cps-round" in available_metrics(payload)
        assert "annotations.cps-round" not in METRIC_CATALOG


class TestCampaignSidecars:
    def _run(self, workers):
        policy = ExecutionPolicy(workers=workers, chunk_size=1)
        definition = campaign_definition("E4")
        return execute_campaign(
            definition.spec(),
            scale="quick",
            policy=policy,
            telemetry=True,
        )

    def test_sidecar_identical_across_worker_counts(self, tmp_path):
        """The acceptance criterion: workers=1 and workers=2 produce
        record-identical, byte-identical telemetry sidecars."""
        serial = campaign_telemetry(self._run(workers=1))
        pooled = campaign_telemetry(self._run(workers=2))
        paths = []
        for name, payload in (("serial", serial), ("pooled", pooled)):
            path = os.path.join(tmp_path, f"{name}.telemetry.json")
            dump_json_summary(path, payload)
            paths.append(path)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_payload_shape_and_rendering(self):
        run = self._run(workers=1)
        payload = campaign_telemetry(run)
        assert payload["campaign"] == "E4"
        assert payload["instrumented"] == payload["trials"]
        assert payload["failed"] == 0
        assert len(payload["records"]) == payload["trials"]
        for entry in payload["records"]:
            assert entry["telemetry"]["counters"]["pulses.recorded"] > 0
        text = render_campaign_telemetry(
            payload, metrics=["pulses.recorded"]
        )
        assert "pulses.recorded" in text
        assert "tcb.echoes" not in text

    def test_instrumentation_plan_activity(self):
        # The plan is one bool: off, a run attaches no snapshot and its
        # sidecar counts nothing instrumented; on, every executed
        # record carries one.
        bare = execute_campaign(campaign_definition("E4").spec())
        assert not any("telemetry" in r.metrics for r in bare.records)
        assert campaign_telemetry(bare)["instrumented"] == 0
        instrumented = self._run(workers=1)
        assert all("telemetry" in r.metrics for r in instrumented.records)

    def test_lower_bound_trials_are_instrumented(self):
        # The Theorem 5 construction runs on the event engine, so an E7
        # sidecar counts its pulses and messages.
        run = execute_campaign(
            campaign_definition("E7").spec(), scale="quick", telemetry=True
        )
        payload = campaign_telemetry(run)
        assert payload["instrumented"] == payload["trials"]
        counters = payload["aggregate"]["counters"]
        assert counters["pulses.recorded"] > 0
        assert counters["messages.sent.honest"] > 0


class _Record:
    def __init__(self, events, duration, ok=True, cached=False):
        self.metrics = {"events": events}
        self.duration = duration
        self.ok = ok
        self.cached = cached


class TestProgressReporter:
    def _reporter(self, interval=1.0):
        stream = io.StringIO()
        clock_value = [0.0]

        def clock():
            return clock_value[0]

        reporter = ProgressReporter(
            "E4/quick", stream=stream, interval=interval, clock=clock
        )
        return reporter, stream, clock_value

    def test_emits_throttled_heartbeats(self):
        reporter, stream, clock_value = self._reporter(interval=10.0)
        clock_value[0] = 0.5
        reporter.update(1, 4, _Record(1000, 0.5))
        clock_value[0] = 1.0  # within the interval: suppressed
        reporter.update(2, 4, _Record(1000, 0.5))
        clock_value[0] = 20.0
        reporter.update(3, 4, _Record(1000, 0.5))
        assert reporter.lines_emitted == 2
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[E4/quick] 1/4 trials (25%)")
        assert "ev/s" in lines[0]
        assert "ETA" in lines[0]

    def test_final_update_always_emits(self):
        reporter, stream, clock_value = self._reporter(interval=100.0)
        reporter.update(1, 2, _Record(10, 0.1))
        clock_value[0] = 0.5
        reporter.update(2, 2, _Record(10, 0.1))
        assert "2/2 trials (100%)" in stream.getvalue()

    def test_rolling_rate_ignores_cached_and_failed(self):
        reporter, _stream, _clock = self._reporter()
        reporter.update(1, 3, _Record(500, 1.0, cached=True))
        reporter.update(2, 3, _Record(500, 1.0, ok=False))
        assert reporter.rolling_events_per_sec() is None
        reporter.update(3, 3, _Record(500, 2.0))
        assert reporter.rolling_events_per_sec() == pytest.approx(250.0)

    def test_eta_extrapolates_observed_rate(self):
        reporter, _stream, clock_value = self._reporter()
        reporter.update(2, 6, _Record(10, 0.1))
        clock_value[0] = 4.0
        assert reporter.eta_seconds(4.0) == pytest.approx(8.0)
        reporter.update(6, 6, _Record(10, 0.1))
        assert reporter.eta_seconds(4.0) is None

    def test_finish_prints_closing_line(self):
        reporter, stream, clock_value = self._reporter()
        reporter.update(1, 1, _Record(10, 0.1))
        clock_value[0] = 2.5
        reporter.finish()
        assert "done: 1/1 trials in 2.5s" in stream.getvalue()
