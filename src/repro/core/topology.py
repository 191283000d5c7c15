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
  (networkx's node-split Edmonds–Karp flow, ported to integer arrays so
  that it finds the same paths) — with signatures, a message
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
    needed = required_connectivity(f, with_signatures)
    if graph.number_of_nodes() <= needed:
        raise ConfigurationError(
            f"need more than {needed} nodes for connectivity {needed}"
        )
    actual = (
        node_connectivity(graph) if connectivity is None else connectivity
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


class _SplitNetwork:
    """networkx's node-split flow network of a graph, on integer arrays.

    A port of ``build_auxiliary_node_connectivity``,
    ``build_residual_network`` and ``edmonds_karp`` that finds the same
    paths as ``nx.node_disjoint_paths`` and the same values as
    ``local_node_connectivity``.  Node ``i`` (in the graph's iteration
    order) splits into ``iA = 2i`` and ``iB = 2i + 1``, and every
    adjacency list keeps networkx's insertion order, so each search
    breaks ties as networkx does.  Residual edge ``e``'s reverse is
    ``e ^ 1``.
    """

    def __init__(self, graph: nx.Graph) -> None:
        self.nodes = list(graph)
        self.index = {node: i for i, node in enumerate(self.nodes)}
        # The auxiliary digraph: iA -> iB, then aB -> bA and bB -> aA
        # for each graph edge (a, b).
        self.auxiliary: List[List[int]] = []
        for i in range(len(self.nodes)):
            self.auxiliary += [[2 * i + 1], []]
        for a, b in graph.edges():
            a, b = self.index[a], self.index[b]
            for x, y in ((a, b), (b, a)):
                if 2 * y not in self.auxiliary[2 * x + 1]:
                    self.auxiliary[2 * x + 1].append(2 * y)
        # The residual network: (neighbour, edge) lists in R.succ and
        # R.pred order.
        self.head: List[int] = []
        self.capacity: List[int] = []
        self.out: List[List[Tuple[int, int]]] = [[] for _ in self.auxiliary]
        self.into: List[List[Tuple[int, int]]] = [[] for _ in self.auxiliary]
        edges: Dict[Edge, int] = {}
        for u, successors in enumerate(self.auxiliary):
            for v in successors:
                if (u, v) in edges:  # the reverse of an earlier edge
                    self.capacity[edges[u, v]] = 1
                    continue
                for tail, head, capacity in ((u, v, 1), (v, u, 0)):
                    edges[tail, head] = len(self.head)
                    self.out[tail].append((head, len(self.head)))
                    self.into[head].append((tail, len(self.head)))
                    self.head.append(head)
                    self.capacity.append(capacity)

    def _augmenting_path(
        self, s: int, t: int, residual: List[int]
    ) -> Optional[List[int]]:
        """The edges of networkx's bidirectional-BFS path, or ``None``."""
        pred: List[Optional[int]] = [None] * len(self.out)
        succ = pred[:]
        pred[s] = succ[t] = -1
        forward, backward = [s], [t]

        def grow(frontier, arcs, mine, theirs):
            grown = []
            for u in frontier:
                for v, e in arcs[u]:
                    if mine[v] is None and residual[e] > 0:
                        mine[v] = e
                        if theirs[v] is not None:
                            return v, grown
                        grown.append(v)
            return None, grown

        while True:
            if len(forward) <= len(backward):
                meet, forward = grow(forward, self.out, pred, succ)
                frontier = forward
            else:
                meet, backward = grow(backward, self.into, succ, pred)
                frontier = backward
            if meet is not None:
                break
            if not frontier:
                return None
        path = []
        v = meet
        while v != s:
            path.append(pred[v])
            v = self.head[pred[v] ^ 1]
        v = meet
        while v != t:
            path.append(succ[v])
            v = self.head[succ[v]]
        return path

    def max_flow(self, s: int, t: int, cutoff: int) -> Tuple[int, List[int]]:
        """Edmonds–Karp from auxiliary node ``s`` to ``t``, stopping once
        the value reaches ``cutoff``: the value and each edge's residual
        capacity (capacity minus flow)."""
        residual = self.capacity[:]
        value = 0
        while value < cutoff:
            path = self._augmenting_path(s, t, residual)
            if path is None:
                break
            amount = min(residual[e] for e in path)
            for e in path:
                residual[e] -= amount
                residual[e ^ 1] += amount
            value += amount
        return value, residual

    def disjoint_paths(self, source: int, target: int) -> List[List[int]]:
        """``list(nx.node_disjoint_paths(graph, source, target))``, or
        ``[]`` where networkx raises ``NetworkXNoPath``."""
        s, t = 2 * self.index[source] + 1, 2 * self.index[target]
        # min(out-degree of sB, in-degree of tA) = min(deg s, deg t)
        cutoff = min(len(self.auxiliary[s]), len(self.auxiliary[t + 1]))
        residual = self.max_flow(s, t, cutoff)[1]
        out, capacity = self.out, self.capacity
        # networkx's flow_dict, filled on first use: the heads of each
        # node's saturated edges (flow == capacity > 0), in R.edges order.
        saturated: Dict[int, List[int]] = {}

        def heads(u: int) -> List[int]:
            if u not in saturated:
                saturated[u] = [
                    v for v, e in out[u] if residual[e] == 0 < capacity[e]
                ]
            return saturated[u]

        # networkx also stops after ``cutoff`` paths (direct edges
        # uncounted), which never binds: sB has ``value <= cutoff``
        # saturated edges.
        found: List[List[int]] = []
        for v in list(heads(s)):
            path = [s]
            while v != t:
                path.append(v)
                successors = heads(v)
                if not successors:
                    break
                v = successors.pop()  # dict.popitem: the last inserted
            else:
                found.append(path + [t])
        return [
            [self.nodes[i] for i in dict.fromkeys(a >> 1 for a in path)]
            for path in found
        ]


def node_connectivity(graph: nx.Graph) -> int:
    """``nx.node_connectivity(graph)``, 0 for a disconnected graph.

    networkx's sweep: the minimum degree, lowered by the flow from a
    minimum-degree node ``v`` to each node not adjacent to it and
    between each non-adjacent pair of ``v``'s neighbours.  A node in
    another component than ``v`` is one such node, with flow 0.
    """
    if not graph:
        return 0
    network = _SplitNetwork(graph)
    v, k = min(graph.degree(), key=lambda item: item[1])
    pairs = [(v, w) for w in graph if w != v and w not in graph[v]]
    pairs += [
        (x, y)
        for x, y in itertools.combinations(graph[v], 2)
        if y not in graph[x]
    ]
    for x, y in pairs:
        s, t = 2 * network.index[x] + 1, 2 * network.index[y]
        k = min(k, network.max_flow(s, t, k)[0])
    return k


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
    if theta < 1.0:
        raise ConfigurationError(f"theta must be >= 1, got {theta}")
    check_connectivity(graph, f, with_signatures, connectivity)
    needed = required_connectivity(f, with_signatures)
    hops: Dict[Edge, Tuple[float, float]] = {}
    missing = []
    for edge in graph.edges:
        for a, b in (edge, edge[::-1]):
            link = timings.get((a, b)) or timings.get((b, a))
            if link is None:
                missing.append(edge)
                break
            hops[a, b] = (link.d, link.d - link.u)
    if missing:
        raise ConfigurationError(f"links without timing: {missing}")

    # One flow network for all n(n-1) pairs.  Every ordered pair is
    # still solved on its own and without a cutoff below min(deg s,
    # deg t) — reversing (dst, src) or stopping at f + 1 paths changes
    # which paths are found, hence d_eff/u_eff.
    network = _SplitNetwork(graph)
    paths: Dict[Tuple[int, int], List[PathTiming]] = {}
    for src, dst in itertools.permutations(sorted(graph.nodes), 2):
        found = []
        for nodes in network.disjoint_paths(src, dst):
            d = d_min = 0.0
            for hop in zip(nodes, nodes[1:]):
                d += hops[hop][0]
                d_min += hops[hop][1]
            found.append((d, d_min, nodes))
        if len(found) < needed:  # pragma: no cover - connectivity checked
            raise ConfigurationError(
                f"only {len(found)} disjoint paths between {src} and "
                f"{dst}, need {needed}"
            )
        found.sort(key=lambda path: path[0])
        paths[(src, dst)] = [
            PathTiming(tuple(nodes), d, d_min)
            for d, d_min, nodes in found[:needed]
        ]

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
        if node_connectivity(graph) == degree:
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
