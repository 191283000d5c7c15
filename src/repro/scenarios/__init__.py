"""Scenario registry: adversaries, delay policies, topologies, drift.

Every behaviour a campaign can throw at a protocol — *who misbehaves*
(adversary), *how the network delays messages* (delay), *what the
physical network looks like* (topology), and *how hardware clocks
drift* (drift) — registers here under a stable string key with metadata
(description, paper reference, parameter schema).  Campaign cases name
entries by key, which is what lets ``ScenarioSpec`` grids, the result
store, the ``repro scenarios`` CLI, and the generated experiment docs
all share one catalog:

>>> from repro import scenarios
>>> [e.key for e in scenarios.entries("topology")]
['circulant', 'complete', 'random-regular', 'small-world']
>>> policy = scenarios.create("delay", "eclipse", 6, victims=(0, 1))

Importing this package imports the catalog modules, so the registry is
fully populated as a side effect — the same pattern the campaign
catalog uses.  A catalog module imports what an entry builds inside
that entry's factory, so populating (and listing) the registry loads
no engine.  Register your own entries with
:func:`register_scenario`; unknown keys raise
:class:`UnknownScenarioError` (with a did-you-mean hint) at campaign
*plan* time, before any trial runs.
"""

from __future__ import annotations

# Importing the catalog modules populates the process-wide registry.
from repro.scenarios import (  # noqa: F401
    adversaries,
    churn,
    delays,
    drift,
    topologies,
)
from repro.scenarios.registry import (
    KINDS,
    REGISTRY,
    UnknownScenarioError,
    register_scenario,
)

#: Module-level conveniences bound to the process-wide registry.
get = REGISTRY.get
create = REGISTRY.create
has = REGISTRY.has
keys = REGISTRY.keys
entries = REGISTRY.entries
find = REGISTRY.find

__all__ = [
    "KINDS",
    "REGISTRY",
    "UnknownScenarioError",
    "create",
    "entries",
    "find",
    "get",
    "has",
    "keys",
    "register_scenario",
]
