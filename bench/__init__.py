"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

Everything here measures :mod:`repro` from outside, through its public
functions; nothing under ``src/`` knows this package exists.  See
``bench/README.md`` for the glossary and ``BENCHMARK.json`` for the
contract the numbers are judged against.
"""
