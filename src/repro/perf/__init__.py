"""Benchmark tracking: probes, ``BENCH_*.json`` results, and baselines.

The perf subsystem keeps the simulator's speed measurable and gated:

* :mod:`repro.perf.probe` — :class:`PerfProbe` captures wall time,
  events/sec, peak RSS, and a machine calibration around any workload;
* :mod:`repro.perf.cases` — the registered perf cases (real simulation
  workloads) that ``repro perf run`` measures;
* :mod:`repro.perf.bench` — :class:`BenchResult` serialization to
  ``BENCH_<name>.json`` (uploaded as CI artifacts);
* :mod:`repro.perf.baseline` — the committed baseline store and
  :func:`compare`, whose regression verdicts are the CI perf gate;
* :mod:`repro.perf.campaign` — per-case throughput aggregation behind
  ``repro campaign run --perf``.

See ``docs/PERFORMANCE.md`` for the workflow (running, reading, and
updating baselines).
"""

from repro.perf.baseline import (
    Baseline,
    CaseVerdict,
    Comparison,
    compare,
    grade,
    load_baseline,
    write_baseline,
)
from repro.perf.bench import BenchResult, load_results
from repro.perf.campaign import campaign_throughput, trial_throughput
from repro.perf.cases import (
    PERF_CASES,
    PerfCase,
    available_cases,
    register_case,
    run_case,
)
from repro.perf.probe import (
    PerfProbe,
    ProbeReading,
    machine_calibration,
    peak_rss_kib,
)

__all__ = [
    "Baseline",
    "BenchResult",
    "CaseVerdict",
    "Comparison",
    "PERF_CASES",
    "PerfCase",
    "PerfProbe",
    "ProbeReading",
    "available_cases",
    "campaign_throughput",
    "compare",
    "grade",
    "load_baseline",
    "load_results",
    "machine_calibration",
    "peak_rss_kib",
    "register_case",
    "run_case",
    "trial_throughput",
    "write_baseline",
]
