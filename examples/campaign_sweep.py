"""Declarative sweep campaigns: grids, parallel-ready execution, caching.

Builds a small custom CPS-skew campaign as a ``CampaignSpec`` (the same
engine behind ``repro campaign run E4 --workers 8``), executes it, then
re-executes it against a result store to show a pure cache replay —
zero new trials, byte-identical table.
"""

import shutil
import tempfile

from repro.campaigns import (
    CampaignSpec,
    MeasurementSpec,
    ResultStore,
    ScenarioSpec,
    execute_campaign,
    records_to_table,
)


def build_campaign() -> CampaignSpec:
    """A two-system, two-adversary CPS skew study with a stress tier."""
    return CampaignSpec(
        name="demo-skew",
        description="CPS skew under the timing-split attack suite",
        seed=2024,
        scenarios=(
            ScenarioSpec(
                builder="cps-run",
                base={"d": 1.0, "delay": "skewing", "drift": "extreme"},
                axes={
                    # Per-scale tiers: a new tier is one entry here.
                    "quick": {
                        "n": (4, 6),
                        "adversary": ("silent", "mimic-split"),
                    },
                    "full": {
                        "n": (4, 6, 9),
                        "adversary": (
                            "silent",
                            "mimic-split",
                            "equivocating-subset",
                        ),
                    },
                },
                cases={"*": ({"u": 0.01, "theta": 1.001},)},
            ),
        ),
        measurements={
            "quick": MeasurementSpec(pulses=6, warmup=2),
            "full": MeasurementSpec(pulses=15, warmup=5),
        },
    )


def main() -> None:
    spec = build_campaign()
    print(f"campaign {spec.name!r}: "
          f"{len(spec.trials_for('quick'))} quick trials, "
          f"{len(spec.trials_for('full'))} full trials")
    print(f"spec key (quick): {spec.spec_key('quick')[:16]}…")

    # Every trial gets a deterministic seed derived from the campaign
    # seed and the canonical case content — parallel execution with
    # ExecutionPolicy(workers=N) yields identical records.
    store_dir = tempfile.mkdtemp(prefix="repro-campaign-")
    try:
        store = ResultStore(store_dir)
        live = execute_campaign(spec, scale="quick", store=store)
        table = records_to_table(
            live.records,
            "Demo — CPS skew campaign (quick tier)",
            ["n", "adversary", "max_skew", "bound_S", "within", "live"],
        )
        print()
        print(table.render())
        print()
        print(live.summary())

        replay = execute_campaign(spec, scale="quick", store=store)
        replay_table = records_to_table(
            replay.records,
            "Demo — CPS skew campaign (quick tier)",
            ["n", "adversary", "max_skew", "bound_S", "within", "live"],
        )
        print(replay.summary())

        assert live.failed == 0, "demo trials must all succeed"
        assert all(record.metrics["within"] for record in live.records), (
            "Theorem 17: measured skew must stay within the bound S"
        )
        assert replay.executed == 0, "second run must be a pure replay"
        assert replay_table.render() == table.render(), (
            "cached records must reproduce the table byte-for-byte"
        )
        print()
        print("replay executed zero trials and reproduced the table "
              "byte-for-byte — caching works.")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
