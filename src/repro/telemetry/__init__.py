"""Observability: metrics registry, campaign sidecars, progress.

The subsystem splits into four small layers:

``metrics``
    :class:`Telemetry` — counters/gauges/histograms/spans with a
    deterministic :meth:`~Telemetry.as_dict` snapshot, plus the
    :data:`METRIC_CATALOG` of fixed metric names.
``context``
    The ambient per-process session (:func:`telemetry_session`) through
    which campaign trials reach simulations built deep inside registered
    builders without changing any builder signature.
``campaign``
    The instrumented trial wrapper and the byte-stable
    ``<spec_key>.telemetry.json`` sidecar behind
    ``repro campaign run --telemetry``, plus aggregate/diff helpers for
    the ``repro telemetry`` subcommands.
``progress``
    Live heartbeats (trials done/total, rolling events/sec, ETA) on
    stderr so long full-tier runs are no longer silent.

Only the light layers (metrics, context) are exported here, and only
on first use; the simulator imports :mod:`repro.telemetry.context` at
module load, so this package must not pull in the campaign stack.

See ``docs/OBSERVABILITY.md`` for the metric catalog and sidecar
format.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "context": ("active_telemetry", "telemetry_session"),
        "metrics": (
            "DELAY_BUCKETS",
            "DISPATCH_NAMES",
            "Histogram",
            "METRIC_CATALOG",
            "Telemetry",
            "available_metrics",
            "merge_snapshots",
        ),
    },
)
