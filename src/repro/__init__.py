"""repro — a reproduction of "Optimal Clock Synchronization with Signatures"
(Lenzen & Loss, PODC 2022).

Quickstart::

    from repro import PulseReport
    from repro.build import build_simulation

    built = build_simulation(
        {"n": 8, "adversary": "silent", "delay": "maximum"},
        backend="event",  # or "vectorized" for the numpy engine
    )
    result = built.simulation.run(max_pulses=20)
    print(PulseReport.from_pulses(result.honest_pulses()))

Package map:

* :mod:`repro.build` — the unified
  :func:`~repro.build.build_simulation` facade: registry-keyed cases on
  a selectable ``event``/``vectorized`` backend;
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
import sys

__version__ = "1.1.0"


def lazy_exports(package, table, *inline):
    """A package's PEP 562 exports: ``(__getattr__, __dir__, __all__)``.

    ``table`` maps a submodule, relative to ``package``, to the public
    names it defines; ``inline`` names what the package body defines
    itself.  Importing the package executes none of the submodules: a
    name is imported from its submodule when it is first read, then
    bound on the package, so later reads are plain attribute lookups.
    """
    owners = {
        name: f"{package}.{module}"
        for module, names in table.items()
        for name in names
    }
    names = sorted([*owners, *inline])

    def __getattr__(name):
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *names})

    return __getattr__, __dir__, names


def closest(name, choices):
    """The one of ``choices`` closest to a mistyped ``name``, case
    ignored, or ``None`` when none is close.  Every did-you-mean of the
    package asks here; difflib loads on this error path only."""
    import difflib

    folded = {choice.casefold(): choice for choice in choices}
    close = difflib.get_close_matches(name.casefold(), list(folded), n=1)
    return folded[close[0]] if close else None


def did_you_mean(name, choices):
    """``" — did you mean 'x'?"`` for a close miss, else ``""``."""
    close = closest(name, choices)
    return f" — did you mean {close!r}?" if close else ""


# ``import repro`` — and with it ``python -m repro --help`` — executes
# no engine module.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "analysis.metrics": ("PulseReport",),
        "core.cps": ("assemble_cps_simulation",),
        "core.params": ("derive_parameters",),
    },
    "__version__",
)
