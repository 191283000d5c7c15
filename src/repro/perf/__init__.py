"""The perf gate: a reader, grader and history over ``bench-result/1``.

``python3 -m bench run`` (the repo benchmark, outside this package) is
the one instrument; nothing here measures a workload.
:mod:`repro.perf.history` reads the ``RESULT_*.json`` files it writes,
keeps ``results/perf_history.jsonl`` (the baseline is its last line)
and grades a directory of results against it;
:mod:`repro.perf.overhead` holds the two ratios ``bench`` cannot
express, telemetry on/off and trace ``full``/``pulses`` in one process.
See ``docs/PERFORMANCE.md`` ("Measure, gate, record").
"""
