"""Ambient telemetry session: how instrumentation reaches every builder.

Campaign trials construct their simulations deep inside registered
builders whose signatures must not change (they feed the
content-hashed ``case_key``), so a
:class:`~repro.telemetry.metrics.Telemetry` handle is never passed to
:class:`~repro.sim.scheduler.Simulation`.  Instead, the caller
*activates* a handle for the duration of a run and
``Simulation.__init__`` picks it up:

* :func:`activate` / :func:`deactivate` — install/remove the ambient
  handle for the current process;
* :func:`active_telemetry` — the current handle or ``None``;
* :func:`telemetry_session` — context-manager form used by the trial
  wrapper and tests.

The state is a module global, which is exactly right for the execution
model: pool workers are separate processes, each activating its own
handle around its own trial, and serial mode runs trials one at a time.
With no active session ``active_telemetry()`` returns ``None`` and the
simulator's instrumentation reduces to ``is None`` tests — the same
zero-cost-when-unused contract as ``attach_checks`` and ``dynamics=``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

_ACTIVE: Optional[Any] = None


def activate(telemetry: Any) -> None:
    """Install ``telemetry`` as the process-wide ambient handle."""
    global _ACTIVE
    _ACTIVE = telemetry


def deactivate() -> None:
    """Remove the ambient handle (idempotent)."""
    global _ACTIVE
    _ACTIVE = None


def active_telemetry() -> Optional[Any]:
    """The ambient handle simulations adopt, or ``None``."""
    return _ACTIVE


@contextmanager
def telemetry_session(telemetry: Any) -> Iterator[Any]:
    """Activate ``telemetry`` for the duration of a ``with`` block."""
    previous = _ACTIVE
    activate(telemetry)
    try:
        yield telemetry
    finally:
        activate(previous)
