"""The unified simulation construction facade.

One entry point — :func:`build_simulation` — assembles a runnable CPS
simulation from a registry-keyed case dict on either execution backend:

``event``
    The discrete-event engine (:class:`~repro.sim.scheduler.Simulation`)
    — per-message dispatch, every adversary/churn behaviour, the
    reference semantics.
``vectorized``
    The round-batched numpy engine
    (:class:`~repro.sim.vectorized.VectorizedSimulation`) — array ops
    over whole pulse rounds, built for the n = 100..10,000 regime.
    Supports every delay policy and drift profile under the *silent*
    adversary; churn and active Byzantine behaviours raise
    :class:`~repro.sim.vectorized.UnsupportedScenarioError`.

Every CPS run in :mod:`repro` goes through this facade; the one
low-level step underneath it is
:func:`repro.core.cps.assemble_cps_simulation` (explicit clocks,
behaviours and hooks, event engine only), which code outside this
module calls directly only where it needs something no case key names.
The case-dict conventions:

>>> built = build_simulation(
...     {"n": 6, "adversary": "silent", "delay": "maximum",
...      "drift": "extreme"},
...     backend="vectorized", seed=1,
... )
>>> result = built.simulation.run(max_pulses=8)

Backends are named by string everywhere a case travels (specs, CLI
flags, perf cases); :func:`resolve_backend` owns validation and the
did-you-mean hint for typos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro import closest, did_you_mean

if TYPE_CHECKING:
    from repro.core.params import ProtocolParameters

#: The registered execution backends, in documentation order.
BACKENDS: Tuple[str, ...] = ("event", "vectorized")

#: The backend implied everywhere a backend is not named.
DEFAULT_BACKEND = "event"

#: The CPS mechanisms the ablation engine can switch off, sorted.
#: Each name maps to a validated off-behaviour (see
#: :mod:`repro.ablation` for the catalog with descriptions):
#: ``apa`` → single-shot vote, ``echo-amplification`` → direct relay,
#: ``overlay`` → base-model parameters on the overlay network,
#: ``resync`` → cold join, ``signatures`` → trust-all verify,
#: ``tcb-filter`` → accept-all window.
ABLATABLE_COMPONENTS: Tuple[str, ...] = (
    "apa",
    "echo-amplification",
    "overlay",
    "resync",
    "signatures",
    "tcb-filter",
)


class UnknownBackendError(ValueError):
    """An unregistered backend name, with a did-you-mean hint."""


class UnknownComponentError(ValueError):
    """An unregistered ablation component, with a did-you-mean hint."""


def resolve_backend(name: Optional[str]) -> str:
    """Normalize and validate a backend name (``None`` → the default)."""
    if name is None:
        return DEFAULT_BACKEND
    if name in BACKENDS:
        return name
    hint = ""
    if name in ABLATABLE_COMPONENTS:
        hint = (
            f" — {name!r} is an ablation component, not a backend "
            f"(see 'repro ablate')"
        )
    else:
        close = closest(name, BACKENDS + ABLATABLE_COMPONENTS)
        if close in BACKENDS:
            hint = f" — did you mean {close!r}?"
        elif close:
            hint = (
                f" — did you mean the ablation component {close!r}? "
                f"(see 'repro ablate')"
            )
    raise UnknownBackendError(
        f"unknown backend {name!r}{hint} (available: {list(BACKENDS)})"
    )


def resolve_ablation(names: Any) -> Tuple[str, ...]:
    """Validate a collection of ablation component names.

    Returns the names deduplicated and sorted (the canonical order all
    content-addressed case hashes use).  Unknown names raise
    :class:`UnknownComponentError` with a did-you-mean hint.
    """
    if names is None:
        return ()
    if isinstance(names, str):
        names = (names,)
    resolved = []
    for name in names:
        if name not in ABLATABLE_COMPONENTS:
            hint = did_you_mean(name, ABLATABLE_COMPONENTS)
            raise UnknownComponentError(
                f"unknown ablation component {name!r}{hint} "
                f"(available: {list(ABLATABLE_COMPONENTS)})"
            )
        if name not in resolved:
            resolved.append(name)
    return tuple(sorted(resolved))


@dataclass(frozen=True)
class BuiltSimulation:
    """What :func:`build_simulation` hands back.

    ``simulation`` exposes the engine-agnostic surface (``run`` /
    ``attach_checks`` / ``honest`` / ``dynamics``); ``params`` are the
    derived protocol parameters (the *overlay's* parameters when the
    case names a topology); ``effective`` carries the effective
    ``d_eff``/``u_eff`` the measurement should be judged against.
    """

    simulation: Any
    params: ProtocolParameters
    f: int
    effective: Dict[str, float]
    backend: str


def _case_parameters(
    case: Dict[str, Any],
    ablate: Tuple[str, ...] = (),
) -> Tuple[
    ProtocolParameters,
    int,
    Dict[str, float],
    Optional[Tuple[float, float]],
]:
    """Derive protocol parameters (Appendix A overlay when asked).

    The fourth return value is a ``(d, u)`` network-timing override, or
    ``None``.  It is only non-``None`` for the ``overlay`` ablation:
    the protocol is parameterized for the *base* model (as if the graph
    were a clique with the raw ``d``/``u``) while the network keeps the
    overlay's real effective delays — exactly the mismatch Appendix A's
    translation exists to prevent.
    """
    from repro import scenarios
    from repro.core.params import derive_parameters, max_faults
    from repro.core.topology import (
        node_connectivity,
        simulate_full_connectivity,
        uniform_timings,
    )

    n = case["n"]
    theta = case.get("theta", 1.001)
    d = case.get("d", 1.0)
    u = case.get("u", 0.01)
    topology_key = case.get("topology")
    network_timing: Optional[Tuple[float, float]] = None
    if topology_key is not None:
        graph = scenarios.create(
            "topology", topology_key, n,
            **case.get("topology_params", {})
        )
        # The one connectivity sweep of the build; the overlay's own
        # check reuses the number.
        connectivity = node_connectivity(graph)
        f = case.get("f")
        if f is None:
            f = min(max_faults(n), connectivity - 1)
        overlay = simulate_full_connectivity(
            graph,
            uniform_timings(graph, d, u),
            f,
            theta=theta,
            connectivity=connectivity,
        )
        effective = {"d_eff": overlay.d_eff, "u_eff": overlay.u_eff}
        if "overlay" in ablate:
            params = derive_parameters(theta, d, u, n, f=f)
            network_timing = (overlay.d_eff, overlay.u_eff)
        else:
            params = overlay.derive_parameters(theta)
    else:
        params = derive_parameters(theta, d, u, n, f=case.get("f"))
        f = params.f
        effective = {"d_eff": d, "u_eff": u}
    return params, f, effective, network_timing


def build_simulation(
    case: Dict[str, Any],
    backend: str = DEFAULT_BACKEND,
    seed: int = 0,
    trace: Any = "pulses",
) -> BuiltSimulation:
    """Assemble a CPS simulation from scenario-registry keys.

    The case names each behaviour by registry key — ``adversary``,
    ``delay``, ``drift``, optionally ``topology``, and optionally
    ``churn`` — with optional ``*_params`` dicts forwarded to the
    factories.  Without a topology the run uses the paper's base model
    (a clique with the given ``d``/``u``); with one, the Appendix A
    translation is applied first and CPS runs with the effective
    ``(d_eff, u_eff)``.  The case dict is the whole description: no
    object hook rides beside it, and monitors are attached afterwards
    through ``simulation.attach_checks``.

    A ``churn`` key attaches a fault schedule through the scheduler's
    dynamics hook (event backend only).  An optional ``u_tilde`` case
    key overrides the faulty-link uncertainty (experiment E8's
    model-violation regime when ``u_tilde > u``).

    An optional ``ablate`` key lists protocol components to switch
    *off* (see :data:`ABLATABLE_COMPONENTS` and :mod:`repro.ablation`);
    unknown names raise :class:`UnknownComponentError`.  Ablations are
    event-backend only.

    ``backend`` selects the engine; resolution failures raise
    :class:`UnknownBackendError` and scenarios outside the vectorized
    backend's support raise
    :class:`~repro.sim.vectorized.UnsupportedScenarioError` at build
    time, never mid-run.  Identical ``(case, seed)`` inputs resolve
    identical clocks and parameters on both backends, which is what
    the cross-backend differential suite leans on.
    """
    from repro import scenarios
    from repro.core.cps import assemble_cps_simulation

    backend = resolve_backend(backend)
    n = case["n"]
    ablate = resolve_ablation(case.get("ablate"))
    params, f, effective, network_timing = _case_parameters(case, ablate)
    adversary_key = case.get("adversary", "silent")
    # Resolve through the registry first so typos keep their
    # did-you-mean behaviour on every backend.
    scenarios.REGISTRY.get("adversary", adversary_key)
    churn_key = case.get("churn")
    clocks = scenarios.create(
        "drift", case.get("drift", "random"), params, seed,
        **case.get("drift_params", {})
    )
    delay_policy = scenarios.create(
        "delay", case.get("delay", "maximum"), n,
        **case.get("delay_params", {})
    )
    if backend == "vectorized":
        from repro.sim.vectorized import (
            UnsupportedScenarioError,
            VectorizedSimulation,
        )

        if ablate:
            raise UnsupportedScenarioError(
                "the vectorized backend does not support ablated "
                "protocol components; use backend='event'"
            )
        if churn_key is not None:
            raise UnsupportedScenarioError(
                "the vectorized backend does not support membership "
                "dynamics (churn); use backend='event'"
            )
        if adversary_key != "silent":
            raise UnsupportedScenarioError(
                f"the vectorized backend only supports the 'silent' "
                f"adversary, got {adversary_key!r}; use backend='event'"
            )
        simulation: Any = VectorizedSimulation(
            params,
            clocks=clocks,
            faulty=list(range(n - f, n)) if f else [],
            delay_policy=delay_policy,
            u_tilde=case.get("u_tilde"),
            seed=seed,
            trace=trace,
        )
        return BuiltSimulation(simulation, params, f, effective, backend)
    dynamics = None
    if churn_key is not None:
        from repro.dynamics import ChurnController

        schedule = scenarios.create(
            "churn", churn_key, params, **case.get("churn_params", {})
        )
        # resync=off ablation: restart recovering/joining nodes cold
        # (round 1, no listen-then-join median vote) by withholding the
        # parameters the controller needs to wrap restarts in
        # ResyncProtocol.
        resync_params = None if "resync" in ablate else params
        dynamics = ChurnController(schedule, resync_params)
        faulty = schedule.initially_corrupted(n)
    else:
        faulty = list(range(n - f, n)) if f else []
    behavior = scenarios.create(
        "adversary", adversary_key, params,
        **case.get("adversary_params", {})
    )
    node_kwargs: Dict[str, Any] = {}
    if "signatures" in ablate:
        node_kwargs["verify_signatures"] = False
    if "echo-amplification" in ablate:
        node_kwargs["relay_echo"] = False
    if "tcb-filter" in ablate:
        node_kwargs["window_filter"] = False
    if "apa" in ablate:
        node_kwargs["discard_rule"] = "none"
    simulation = assemble_cps_simulation(
        params,
        clocks=clocks,
        faulty=faulty,
        behavior=behavior,
        delay_policy=delay_policy,
        u_tilde=case.get("u_tilde"),
        seed=seed,
        trace=trace,
        dynamics=dynamics,
        network_timing=network_timing,
        **node_kwargs,
    )
    return BuiltSimulation(simulation, params, f, effective, backend)
