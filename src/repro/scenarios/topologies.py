"""Topology catalog: physical networks for the Appendix A translation.

Factories follow the ``topology`` convention of
:mod:`repro.scenarios.registry`: ``factory(n, **overrides)`` returns a
``networkx.Graph`` on nodes ``0..n-1``.  Consumers (the ``cps-stress``
builder, :mod:`examples.general_network`) feed the graph through
:func:`~repro.core.topology.simulate_full_connectivity` to obtain the
effective ``(d_eff, u_eff)`` of the virtual clique and derive CPS
parameters from those.

The tolerable fault count of a topology entry is bounded by its node
connectivity: with signatures, ``f <= connectivity - 1`` (the paper's
"(f+1)-connectivity is trivially necessary and sufficient").
"""

from __future__ import annotations

from repro.core.topology import circulant, random_regular, small_world
from repro.scenarios.registry import ParamSpec, register_scenario


@register_scenario(
    "topology",
    "complete",
    description="The paper's base model: every pair of nodes directly "
    "linked",
    paper_ref="full connectivity — d_eff = d, u_eff = u, f = ceil(n/2)-1",
    tags=("dense",),
)
def _complete(n: int):
    import networkx as nx

    return nx.complete_graph(n)


@register_scenario(
    "topology",
    "circulant",
    description="Ring with chord jumps — the canonical balanced sparse "
    "topology",
    paper_ref="Appendix A: 2|jumps|-regular with matching connectivity; "
    "balanced path lengths keep u_eff small",
    params=(
        ParamSpec("jumps", (1, 2), "chord offsets around the ring"),
    ),
    tags=("sparse",),
)
def _circulant(n: int, jumps=(1, 2)):
    return circulant(n, jumps)


@register_scenario(
    "topology",
    "random-regular",
    description="Connected random degree-regular graph — a typical "
    "balanced sparse network",
    paper_ref="degree-connected a.a.s., so f <= degree-1 with "
    "signatures at degree links per node",
    params=(
        ParamSpec("degree", 4, "links per node (n * degree must be even)"),
        ParamSpec("seed", 0, "sampling seed (deterministic retries)"),
    ),
    tags=("sparse", "new"),
)
def _random_regular(n: int, degree: int = 4, seed: int = 0):
    return random_regular(n, degree=degree, seed=seed)


@register_scenario(
    "topology",
    "small-world",
    description="Watts–Strogatz ring with rewired shortcuts — short "
    "paths but unbalanced lengths",
    paper_ref="the regime of the paper's closing warning: unbalanced "
    "paths inflate u_eff unless relays pad",
    params=(
        ParamSpec("k", 4, "nearest neighbours in the base ring"),
        ParamSpec("p", 0.25, "rewiring probability"),
        ParamSpec("seed", 0, "sampling seed"),
    ),
    tags=("sparse", "new"),
)
def _small_world(n: int, k: int = 4, p: float = 0.25, seed: int = 0):
    return small_world(n, k=k, p=p, seed=seed)
