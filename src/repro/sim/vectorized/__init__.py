"""Vectorized pulse-level simulation backend.

A second simulation engine that batches a whole CPS pulse round into
numpy array operations instead of dispatching per-message events:
per-node clock/phase/round vectors, per-round sampled delay matrices,
vectorized acceptance masks and midpoint votes.  It presents the same
``run``/``attach_checks``/``honest`` surface as
:class:`~repro.sim.scheduler.Simulation` and returns a genuine
:class:`~repro.sim.scheduler.SimulationResult`, so the conformance
monitors, pulse reports, and campaign builders consume it unchanged —
which is what lets the monitor matrix double as a cross-backend
differential oracle.

Scope: the vectorized backend covers the *silent-adversary* regime
(at least ``f`` faulty nodes, each contributing a ⊥ and nothing else)
with every delay policy and drift profile; fewer faulty nodes, churn
and actively-Byzantine behaviours stay on the event engine and raise
:class:`UnsupportedScenarioError` here.
See ``docs/VECTORIZED.md`` for the batching model and its exactness
argument.
"""

from repro.sim.vectorized.engine import (
    UnsupportedScenarioError,
    VectorizedSimulation,
)

__all__ = ["UnsupportedScenarioError", "VectorizedSimulation"]
