"""Shared helpers for the benchmark harness.

``bench_experiments.py`` regenerates every experiment table (the paper
has no empirical section, so the "tables/figures" are its quantitative
claims — see the generated ``docs/EXPERIMENTS.md``).  Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_SCALE=full`` for the wide sweeps.

The harness imports :mod:`repro` from the installed package (CI runs
``pip install -e .``); no ``sys.path`` manipulation happens here, and
the ``repro`` imports are deferred into the helpers so pytest can at
least collect (and report a clean import error for) the bench files in
an environment where the package is missing.  For an uninstalled
checkout, ``scripts/verify.sh`` exports ``PYTHONPATH=src``.

``REPRO_BENCH_SCALE`` and campaign grids
----------------------------------------

Every experiment is a registered campaign that declares its grid per
scale in a ``CampaignSpec`` (see
``repro.campaigns.spec``): the env var's value is passed straight
through as the ``scale`` argument, so ``quick``/``full`` select the
corresponding axes/case tiers and measurement settings
(``ScenarioSpec.grid_for(scale)`` / ``CampaignSpec.measurement_for``);
any other value falls back to the ``full`` tier unless a spec defines
that tier explicitly — e.g. adding ``axes["stress"]`` to a scenario is
all it takes to make ``REPRO_BENCH_SCALE=stress`` meaningful.
``bench_campaign_parallel.py`` additionally runs one campaign through
the serial and process-pool executors and records the speedup.
"""

import os

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def bench_campaign(benchmark, capsys, name: str):
    """Benchmark one campaign through the sweep engine, print and
    persist its table.

    Returns ``(run, table)`` so bench files can assert on execution
    counters (failures, cache hits) as well as table contents.
    """
    from repro.campaigns import campaign_definition, execute_campaign

    definition = campaign_definition(name)
    run = benchmark.pedantic(
        execute_campaign,
        args=(definition.spec(),),
        kwargs={"scale": SCALE},
        rounds=1,
        iterations=1,
    )
    table = definition.tabulate(run)
    assert table.rows, f"campaign {name} produced no rows"
    with capsys.disabled():
        print()
        print(table.render())
    os.makedirs(RESULTS_DIR, exist_ok=True)
    table.to_csv(os.path.join(RESULTS_DIR, f"{name.lower()}.csv"))
    return run, table
