"""Timed discrete-event simulation substrate.

This package realizes the paper's network and timing model:

* :mod:`repro.sim.clocks` — hardware clocks with rates in ``[1, theta]``;
* :mod:`repro.sim.network` — delays in ``[d - u, d]`` (``[d - u_tilde, d]``
  on links with a faulty endpoint), adversary-controlled via delay policies;
* :mod:`repro.sim.scheduler` — the deterministic event loop tying together
  honest protocol state machines and a Byzantine behaviour;
* :mod:`repro.sim.knowledge` — enforcement of signature unforgeability
  against the adversary;
* :mod:`repro.sim.trace` — structured execution records.
"""

from repro.sim.adversary import (
    ByzantineBehavior,
    ReplayAdversary,
    ScheduledSendAdversary,
    SilentAdversary,
)
from repro.sim.clocks import EPS, ClockSegment, HardwareClock
from repro.sim.errors import (
    ClockError,
    ConfigurationError,
    ForgeryError,
    ModelViolation,
    SimulationError,
)
from repro.sim.network import (
    BiasedPartitionDelayPolicy,
    ConstantFractionDelayPolicy,
    DelayPolicy,
    MaximumDelayPolicy,
    MinimumDelayPolicy,
    NetworkConfig,
    RandomDelayPolicy,
    SkewingDelayPolicy,
)
from repro.sim.runtime import NodeAPI, TimedProtocol
from repro.sim.scheduler import AdversaryContext, Simulation, SimulationResult
from repro.sim.trace import Trace, TraceLevel

__all__ = [
    "AdversaryContext",
    "BiasedPartitionDelayPolicy",
    "ByzantineBehavior",
    "ClockError",
    "ClockSegment",
    "ConfigurationError",
    "ConstantFractionDelayPolicy",
    "DelayPolicy",
    "EPS",
    "ForgeryError",
    "HardwareClock",
    "MaximumDelayPolicy",
    "MinimumDelayPolicy",
    "ModelViolation",
    "NetworkConfig",
    "NodeAPI",
    "RandomDelayPolicy",
    "ReplayAdversary",
    "ScheduledSendAdversary",
    "SilentAdversary",
    "SimulationError",
    "Simulation",
    "SimulationResult",
    "SkewingDelayPolicy",
    "TimedProtocol",
    "Trace",
    "TraceLevel",
]
