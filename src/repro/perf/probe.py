"""Wall-time / throughput / memory capture around arbitrary workloads.

:class:`PerfProbe` is a context manager: enter it, run the workload,
feed it the number of simulator events the workload processed, and read
a :class:`ProbeReading` out.  It captures

* wall time (``time.perf_counter``),
* events/second (the simulator's primary throughput unit),
* peak RSS of the process (``resource.getrusage``; 0 where the
  :mod:`resource` module is unavailable), and
* a *machine calibration* — the throughput of a fixed pure-Python
  spin workload measured in the same process.

The calibration is what makes stored baselines portable: CI runners and
laptops differ by integer factors in raw events/sec, but the *ratio*
``events_per_sec / calibration`` cancels single-core speed, so
:func:`repro.perf.baseline.compare` can gate on it with a tight
tolerance without flaking across machines.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]


def peak_rss_kib() -> int:
    """Peak resident set size of this process in KiB (0 if unknown).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalized here.
    """
    if resource is None:  # pragma: no cover
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover
        peak //= 1024
    return int(peak)


def machine_calibration(spins: int = 200_000, repeats: int = 3) -> float:
    """Throughput of a fixed pure-Python workload (operations/second).

    The workload — integer arithmetic, a list append, a dict hit per
    iteration — is a rough stand-in for the simulator inner loop.  The
    best of ``repeats`` timings is returned, which discards warmup and
    scheduler noise.
    """
    best = float("inf")
    table = {0: 0, 1: 1, 2: 2, 3: 3}
    for _ in range(repeats):
        sink = []
        append = sink.append
        start = time.perf_counter()
        accumulator = 0
        for i in range(spins):
            accumulator += table[i & 3] + (i >> 2)
            if not i & 1023:
                append(accumulator)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        del sink
    return spins / best if best > 0 else 0.0


@dataclass(frozen=True)
class ProbeReading:
    """One completed capture: throughput plus its measurement context."""

    wall_seconds: float
    events: int
    events_per_sec: float
    peak_rss_kib: int
    calibration: float
    meta: Dict[str, Any] = field(default_factory=dict)


class PerfProbe:
    """Capture wall time, events/sec, and peak RSS around a workload.

    Usage::

        probe = PerfProbe()
        with probe:
            result = simulation.run(max_pulses=30)
            probe.add_events(result.events_processed)
        reading = probe.reading()

    Repeated ``with`` blocks accumulate (wall time and events sum), so a
    probe can wrap each trial of a sweep individually while excluding
    setup work between trials.  ``calibrate=False`` skips the machine
    calibration for probes whose readings are never stored as baselines.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.wall_seconds = 0.0
        self.events = 0
        self._entered_at: Optional[float] = None
        self._calibrate = calibrate
        self._calibration: Optional[float] = None

    def __enter__(self) -> "PerfProbe":
        if self._entered_at is not None:
            raise RuntimeError("PerfProbe is not reentrant")
        self._entered_at = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._entered_at is not None
        self.wall_seconds += time.perf_counter() - self._entered_at
        self._entered_at = None

    def add_events(self, count: int) -> None:
        """Credit ``count`` processed events to this capture."""
        self.events += int(count)

    @property
    def calibration(self) -> float:
        """Machine calibration ops/sec (measured lazily, cached)."""
        if not self._calibrate:
            return 0.0
        if self._calibration is None:
            self._calibration = machine_calibration()
        return self._calibration

    def reading(self, **meta: Any) -> ProbeReading:
        """Snapshot the capture (callable between ``with`` blocks)."""
        wall = self.wall_seconds
        return ProbeReading(
            wall_seconds=wall,
            events=self.events,
            events_per_sec=self.events / wall if wall > 0 else 0.0,
            peak_rss_kib=peak_rss_kib(),
            calibration=self.calibration,
            meta=dict(meta),
        )
