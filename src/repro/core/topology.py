"""General networks (Appendix A): CPS beyond full connectivity.

The paper: *"In the setting with signatures, (f+1)-connectivity is
trivially necessary and sufficient to simulate full connectivity of the
network. ... Our algorithm can be translated to any known
(f+1)-connected network in the same way, where u~ and d are replaced by
the maximum end-to-end delay and uncertainty over all paths used to
simulate full connectivity."*

This module implements that translation layer:

* verify the `(f+1)`-connectivity requirement (and the `(2f+1)` bound the
  signature-free setting would need instead);
* pick, for every node pair, `f + 1` vertex-disjoint simulation paths
  (via networkx's disjoint-path machinery) — with signatures, a message
  routed along `f + 1` vertex-disjoint paths reaches its target on at
  least one fully honest path, and the signature authenticates it
  regardless of which path delivered it first;
* aggregate per-link delay intervals into the effective end-to-end
  `(d_eff, u_eff)` over all chosen paths, and hand those to the standard
  :func:`~repro.core.params.derive_parameters`;
* quantify the paper's final warning: keeping `u_eff` small requires
  *balancing* path lengths — the module reports the imbalance penalty.

The translation is conservative: the effective uncertainty is the spread
between the fastest possible and slowest possible end-to-end delivery
over the selected paths, exactly the quantity the receiver faces when it
cannot tell which path (or how adversarially delayed) a delivery was.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.params import ProtocolParameters, derive_parameters
from repro.sim.errors import ConfigurationError

# networkx costs ~140 ms to import: the functions that build or inspect
# a graph import it on entry, so listings and parsers never pay for it.
if TYPE_CHECKING:
    import networkx as nx

Edge = Tuple[int, int]


@dataclass(frozen=True)
class LinkTiming:
    """Delay interval ``[d - u, d]`` of one physical link."""

    d: float
    u: float

    def __post_init__(self) -> None:
        if self.d <= 0 or not 0 <= self.u <= self.d:
            raise ConfigurationError(
                f"link timing needs 0 <= u <= d, d > 0; got d={self.d}, "
                f"u={self.u}"
            )


def required_connectivity(f: int, with_signatures: bool = True) -> int:
    """Node connectivity needed to tolerate ``f`` faults.

    With signatures, ``f + 1`` vertex-disjoint paths suffice (one of them
    is fully honest, and signatures authenticate end-to-end); without,
    ``2f + 1`` are needed so honest paths form a majority [11].
    """
    if f < 0:
        raise ConfigurationError(f"f must be non-negative, got {f}")
    return f + 1 if with_signatures else 2 * f + 1


def check_connectivity(
    graph: nx.Graph,
    f: int,
    with_signatures: bool = True,
    connectivity: Optional[int] = None,
) -> None:
    """Raise unless ``graph`` is connected enough to tolerate ``f`` faults.

    ``connectivity`` is ``graph``'s node connectivity when the caller
    already knows it (the sweep is the expensive part of the check).
    """
    import networkx as nx

    needed = required_connectivity(f, with_signatures)
    if graph.number_of_nodes() <= needed:
        raise ConfigurationError(
            f"need more than {needed} nodes for connectivity {needed}"
        )
    actual = (
        nx.node_connectivity(graph) if connectivity is None else connectivity
    )
    if actual < needed:
        raise ConfigurationError(
            f"graph has node connectivity {actual}, but tolerating f={f} "
            f"faults {'with' if with_signatures else 'without'} signatures "
            f"needs {needed}"
        )


@dataclass(frozen=True)
class PathTiming:
    """End-to-end delay interval of one simulation path."""

    nodes: Tuple[int, ...]
    d: float   # maximum end-to-end delay (sum of link maxima)
    d_min: float  # minimum end-to-end delay (sum of link minima)

    @property
    def u(self) -> float:
        return self.d - self.d_min


@dataclass
class SimulatedTopology:
    """A virtual fully connected overlay over a sparse physical network.

    Attributes
    ----------
    paths:
        For each ordered pair ``(src, dst)``: the ``f + 1`` vertex-disjoint
        paths chosen to simulate the virtual link.
    d_eff, u_eff:
        The effective delay bound and uncertainty of the overlay: the
        receiver accepts the first authenticated copy, which may arrive as
        early as the fastest path's minimum and as late as the slowest
        path's maximum (the adversary delays every copy maximally and may
        control all but one path).
    """

    graph: nx.Graph
    f: int
    paths: Dict[Tuple[int, int], List[PathTiming]]
    d_eff: float
    u_eff: float

    def imbalance_penalty(self) -> float:
        """How much of ``u_eff`` is due to unbalanced path lengths.

        The paper's closing remark: *"one needs to balance the length (in
        terms of overall delay) of the utilized paths in order to keep u~
        much smaller than d."*  Returns ``u_eff`` minus the worst
        single-path uncertainty — the share caused purely by some pairs'
        paths being longer than others' fastest.
        """
        worst_single = max(
            path.u
            for path_list in self.paths.values()
            for path in path_list
        )
        return max(self.u_eff - worst_single, 0.0)

    def derive_parameters(
        self, theta: float, n: Optional[int] = None
    ) -> ProtocolParameters:
        """CPS parameters for the overlay (Appendix A translation)."""
        return derive_parameters(
            theta,
            self.d_eff,
            self.u_eff,
            self.graph.number_of_nodes() if n is None else n,
            f=self.f,
        )


def _path_timing(
    nodes: Sequence[int], timings: Dict[Edge, LinkTiming]
) -> PathTiming:
    total_max = 0.0
    total_min = 0.0
    for a, b in zip(nodes, nodes[1:]):
        key = (a, b) if (a, b) in timings else (b, a)
        try:
            link = timings[key]
        except KeyError:
            raise ConfigurationError(
                f"no timing given for link {a}-{b}"
            ) from None
        total_max += link.d
        total_min += link.d - link.u
    return PathTiming(tuple(nodes), total_max, total_min)


def simulate_full_connectivity(
    graph: nx.Graph,
    timings: Dict[Edge, LinkTiming],
    f: int,
    with_signatures: bool = True,
    balance: bool = True,
    theta: float = 1.0,
    connectivity: Optional[int] = None,
) -> SimulatedTopology:
    """Build the virtual fully connected overlay.

    Selects, for every node pair, the required number of vertex-disjoint
    paths (preferring low worst-case delay) and aggregates the end-to-end
    timing.

    ``balance`` applies the paper's closing prescription: *"one needs to
    balance the length (in terms of overall delay) of the utilized paths
    in order to keep u~ much smaller than d"*.  Relays on a fast path pad
    their forwarding with local-time holds so every path's worst-case
    delay matches the globally slowest one (``D*``).  A pad of nominal
    length ``D* - d_path`` elapses at least ``(D* - d_path)/theta`` real
    time on a drifting clock, so the balanced per-path uncertainty is
    ``u_path + (D* - d_path)(1 - 1/theta)`` — the overlay uncertainty
    drops from "spread of path lengths" to "per-path uncertainty plus a
    drift term", i.e. ``Theta(L (u + (theta-1) d))`` for ``L``-hop paths.

    Without balancing, the overlay's uncertainty is the raw spread
    between the fastest minimum and the slowest maximum, which for
    non-regular topologies is typically ``Theta(d_eff)`` and makes the
    derived CPS parameters infeasible — quantifying the paper's warning.

    ``connectivity`` is forwarded to :func:`check_connectivity`.

    Raises :class:`ConfigurationError` if the graph's connectivity is
    insufficient or a link's timing is missing.
    """
    import networkx as nx
    from networkx.algorithms import connectivity as nx_connectivity
    from networkx.algorithms import flow

    if theta < 1.0:
        raise ConfigurationError(f"theta must be >= 1, got {theta}")
    check_connectivity(graph, f, with_signatures, connectivity)
    needed = required_connectivity(f, with_signatures)
    missing = [
        edge
        for edge in graph.edges
        if edge not in timings and (edge[1], edge[0]) not in timings
    ]
    if missing:
        raise ConfigurationError(f"links without timing: {missing}")

    # One flow network for all n(n-1) pairs: networkx would otherwise
    # rebuild both per call.  Every ordered pair is still solved on its
    # own and without a cutoff — reversing (dst, src) or stopping at
    # f + 1 paths changes which paths are found, hence d_eff/u_eff.
    auxiliary = nx_connectivity.build_auxiliary_node_connectivity(graph)
    residual = flow.build_residual_network(auxiliary, "capacity")
    paths: Dict[Tuple[int, int], List[PathTiming]] = {}
    for src, dst in itertools.permutations(sorted(graph.nodes), 2):
        disjoint = list(
            nx.node_disjoint_paths(
                graph, src, dst, auxiliary=auxiliary, residual=residual
            )
        )
        if len(disjoint) < needed:  # pragma: no cover - connectivity checked
            raise ConfigurationError(
                f"only {len(disjoint)} disjoint paths between {src} and "
                f"{dst}, need {needed}"
            )
        paths[(src, dst)] = sorted(
            (_path_timing(p, timings) for p in disjoint),
            key=lambda timing: timing.d,
        )[:needed]

    d_eff = max(
        timing.d for path_list in paths.values() for timing in path_list
    )
    if balance:
        u_eff = max(
            timing.u + (d_eff - timing.d) * (1.0 - 1.0 / theta)
            for path_list in paths.values()
            for timing in path_list
        )
    else:
        fastest_minimum = min(
            min(timing.d_min for timing in path_list)
            for path_list in paths.values()
        )
        u_eff = d_eff - fastest_minimum
    u_eff = min(u_eff, d_eff)
    return SimulatedTopology(graph, f, paths, d_eff, u_eff)


def circulant(n: int, jumps: Iterable[int]) -> nx.Graph:
    """A circulant graph — the canonical balanced sparse topology.

    ``circulant(n, [1, 2])`` is 4-regular with node connectivity 4: it
    tolerates f = 3 with signatures while every node has only 4 links.
    """
    import networkx as nx

    jumps = list(jumps)
    if n < 3 or not jumps:
        raise ConfigurationError("need n >= 3 and at least one jump")
    return nx.circulant_graph(n, jumps)


def random_regular(n: int, degree: int = 4, seed: int = 0) -> nx.Graph:
    """A connected random ``degree``-regular graph.

    Random regular graphs are asymptotically almost surely
    ``degree``-connected, which makes them the natural "what does a
    *typical* balanced sparse network buy us" counterpart to the
    worst-case-designed circulant: with signatures they tolerate
    ``f = degree - 1`` while every node keeps ``degree`` links.  Samples
    are drawn with deterministic seeds and re-drawn (up to 64 times)
    until one achieves full connectivity ``degree``, so the result is a
    pure function of ``(n, degree, seed)``.
    """
    import networkx as nx

    if n <= degree:
        raise ConfigurationError(
            f"random_regular needs n > degree, got n={n}, degree={degree}"
        )
    if (n * degree) % 2 != 0:
        raise ConfigurationError(
            f"n * degree must be even, got n={n}, degree={degree}"
        )
    for attempt in range(64):
        graph = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(graph) and (
            nx.node_connectivity(graph) == degree
        ):
            return graph
    raise ConfigurationError(  # pragma: no cover - vanishing probability
        f"no {degree}-connected {degree}-regular graph on {n} nodes "
        f"found in 64 attempts from seed {seed}"
    )


def small_world(
    n: int, k: int = 4, p: float = 0.25, seed: int = 0
) -> nx.Graph:
    """A connected Watts–Strogatz small-world graph.

    Starts from a ring where each node links to its ``k`` nearest
    neighbours and rewires each edge with probability ``p``.  Rewiring
    shortens average path length (good for the overlay's ``d_eff``) but
    *unbalances* the topology — exactly the regime where the paper's
    closing warning bites: unbalanced path lengths inflate ``u_eff``
    unless relays pad (see :func:`simulate_full_connectivity`).  The
    sample is deterministic in ``(n, k, p, seed)``.
    """
    import networkx as nx

    if k >= n:
        raise ConfigurationError(
            f"small_world needs k < n, got n={n}, k={k}"
        )
    return nx.connected_watts_strogatz_graph(n, k, p, tries=200, seed=seed)


def uniform_timings(
    graph: nx.Graph, d: float, u: float
) -> Dict[Edge, LinkTiming]:
    """Identical timing on every link."""
    return {edge: LinkTiming(d, u) for edge in graph.edges}
