"""repro — a reproduction of "Optimal Clock Synchronization with Signatures"
(Lenzen & Loss, PODC 2022).

Quickstart::

    from repro import PulseReport, build_simulation

    built = build_simulation(
        {"n": 8, "adversary": "silent", "delay": "maximum"},
        backend="event",  # or "vectorized" for the numpy engine
    )
    result = built.simulation.run(max_pulses=20)
    print(PulseReport.from_pulses(result.honest_pulses()))

Package map:

* :mod:`repro.build` — the unified :func:`build_simulation` facade:
  registry-keyed cases on a selectable ``event``/``vectorized`` backend;
* :mod:`repro.core` — Algorithm CPS, TCB, parameters, the Theorem 5 lower
  bound, and the pulse-based round synchronizer;
* :mod:`repro.sync` — the synchronous substrate: crusader broadcast
  and approximate agreement;
* :mod:`repro.sim` — discrete-event timed simulation (clocks, delays,
  Byzantine behaviours, signature-knowledge enforcement) plus the
  round-batched numpy engine in :mod:`repro.sim.vectorized`;
* :mod:`repro.crypto` — symbolic unforgeable signatures and PKI;
* :mod:`repro.baselines` — Lynch-Welch, signed-relay, chain-relay;
* :mod:`repro.scenarios` — the scenario registry: adversaries, delay
  policies, topologies, and drift profiles under stable string keys;
* :mod:`repro.campaigns` — declarative sweep campaigns: per-scale
  grids, parallel execution, content-addressed result caching;
* :mod:`repro.analysis` — metrics, theory bounds, experiments E1-E10,
  ablations A1-A3, and the STRESS campaign.

See ``docs/ARCHITECTURE.md`` for the package-to-paper mapping and the
generated ``docs/EXPERIMENTS.md`` for the experiment catalog.
"""

import importlib

__version__ = "1.1.0"

#: Public name → defining module.  Resolved on first access (PEP 562),
#: so ``import repro`` — and with it ``python -m repro --help`` —
#: executes no engine module.
_EXPORTS = {
    "BACKENDS": "repro.build",
    "BuiltSimulation": "repro.build",
    "CpsNode": "repro.core.cps",
    "ProtocolParameters": "repro.core.params",
    "PulseReport": "repro.analysis.metrics",
    "Simulation": "repro.sim.scheduler",
    "SimulationResult": "repro.sim.scheduler",
    "THETA_MAX": "repro.core.params",
    "UnknownBackendError": "repro.build",
    "assemble_cps_simulation": "repro.core.cps",
    "build_simulation": "repro.build",
    "derive_parameters": "repro.core.params",
    "max_faults": "repro.core.params",
    "resolve_backend": "repro.build",
    "run_lower_bound": "repro.core.lower_bound",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
