"""Tests for the general-network translation layer (Appendix A)."""

import itertools

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import build, scenarios
from repro.core import topology
from repro.core.params import max_faults
from repro.core.topology import (
    LinkTiming,
    PathTiming,
    check_connectivity,
    circulant,
    node_connectivity,
    required_connectivity,
    simulate_full_connectivity,
    uniform_timings,
)
from repro.sim.errors import ConfigurationError


class TestRequiredConnectivity:
    def test_with_signatures(self):
        assert required_connectivity(0) == 1
        assert required_connectivity(2) == 3

    def test_without_signatures(self):
        assert required_connectivity(2, with_signatures=False) == 5

    def test_negative_f(self):
        with pytest.raises(ConfigurationError):
            required_connectivity(-1)


class TestLinkTiming:
    def test_validation(self):
        LinkTiming(1.0, 0.1)
        with pytest.raises(ConfigurationError):
            LinkTiming(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            LinkTiming(1.0, 1.5)


class TestCheckConnectivity:
    def test_complete_graph_passes(self):
        check_connectivity(nx.complete_graph(6), f=2)

    def test_cycle_fails_for_f2(self):
        with pytest.raises(ConfigurationError):
            check_connectivity(nx.cycle_graph(8), f=2)

    def test_cycle_passes_for_f1(self):
        check_connectivity(nx.cycle_graph(8), f=1)

    def test_signature_free_needs_more(self):
        graph = nx.cycle_graph(8)  # connectivity 2
        check_connectivity(graph, f=1, with_signatures=True)
        with pytest.raises(ConfigurationError):
            check_connectivity(graph, f=1, with_signatures=False)

    def test_too_few_nodes(self):
        with pytest.raises(ConfigurationError):
            check_connectivity(nx.complete_graph(3), f=2)


class TestSimulateFullConnectivity:
    def test_complete_graph_unbalanced_uncertainty(self):
        graph = nx.complete_graph(5)
        overlay = simulate_full_connectivity(
            graph, uniform_timings(graph, 1.0, 0.05), f=1, balance=False
        )
        # Direct links exist; f+1 = 2 disjoint paths include the direct
        # one and a 2-hop detour; the overlay worst case is the detour,
        # and without balancing the uncertainty is the full spread down
        # to the direct path's minimum.
        assert overlay.d_eff == pytest.approx(2.0)
        assert overlay.u_eff == pytest.approx(2.0 - 0.95)

    def test_balancing_shrinks_uncertainty(self):
        graph = nx.complete_graph(5)
        theta = 1.001
        overlay = simulate_full_connectivity(
            graph, uniform_timings(graph, 1.0, 0.05), f=1, theta=theta
        )
        assert overlay.d_eff == pytest.approx(2.0)
        # Per-path uncertainty (2 hops: 0.1) plus the drift cost of the
        # 1.0-long pad on the direct path.
        expected = max(0.1, 0.05 + 1.0 * (1 - 1 / theta))
        assert overlay.u_eff == pytest.approx(expected)
        assert overlay.u_eff < 0.2

    def test_cycle_f1_effective_delay_is_long_way_round(self):
        graph = nx.cycle_graph(6)
        overlay = simulate_full_connectivity(
            graph, uniform_timings(graph, 1.0, 0.01), f=1, balance=False
        )
        # Adjacent pairs: the two disjoint paths are the 1-hop link and
        # the 5-hop long way around the ring.
        assert overlay.d_eff == pytest.approx(5.0)
        # Adjacent pairs deliver in 1 hop minimum: big imbalance.
        assert overlay.u_eff == pytest.approx(5.0 - 0.99)
        assert overlay.imbalance_penalty() > 1.0

    def test_cycle_f1_balanced_is_feasible(self):
        graph = nx.cycle_graph(6)
        overlay = simulate_full_connectivity(
            graph, uniform_timings(graph, 1.0, 0.01), f=1, theta=1.0005
        )
        assert overlay.u_eff < overlay.d_eff / 2
        params = overlay.derive_parameters(theta=1.0005)
        params.check_feasible()

    def test_paths_are_vertex_disjoint_and_enough(self):
        graph = circulant(10, [1, 2])
        overlay = simulate_full_connectivity(
            graph, uniform_timings(graph, 1.0, 0.02), f=2, theta=1.0005
        )
        for (src, dst), paths in overlay.paths.items():
            assert len(paths) == 3
            interiors = [set(p.nodes[1:-1]) for p in paths]
            for i in range(len(interiors)):
                for j in range(i + 1, len(interiors)):
                    assert not (interiors[i] & interiors[j])

    def test_missing_timing_rejected(self):
        graph = nx.complete_graph(4)
        timings = uniform_timings(graph, 1.0, 0.01)
        timings.pop(next(iter(timings)))
        with pytest.raises(ConfigurationError):
            simulate_full_connectivity(graph, timings, f=1)

    def test_derive_parameters_for_overlay(self):
        graph = nx.complete_graph(6)
        overlay = simulate_full_connectivity(
            graph, uniform_timings(graph, 1.0, 0.05), f=2, theta=1.0005
        )
        params = overlay.derive_parameters(theta=1.0005)
        assert params.d == pytest.approx(overlay.d_eff)
        assert params.u == pytest.approx(overlay.u_eff)
        assert params.f == 2
        params.check_feasible()

    def test_overlay_cps_run_end_to_end(self):
        """The Appendix A pipeline: overlay parameters drive a real CPS
        run (on the virtual fully connected network) and the Theorem 17
        bounds hold with the lifted (d_eff, u_eff)."""
        from repro.analysis.metrics import check_liveness, max_skew
        from repro.core.cps import assemble_cps_simulation

        graph = nx.complete_graph(6)
        overlay = simulate_full_connectivity(
            graph, uniform_timings(graph, 1.0, 0.05), f=2, theta=1.0005
        )
        params = overlay.derive_parameters(theta=1.0005)
        simulation = assemble_cps_simulation(
            params, faulty=[4, 5], seed=2, trace="none"
        )
        result = simulation.run(max_pulses=6)
        assert check_liveness(result.honest_pulses(), 6)
        assert max_skew(result.honest_pulses()) <= params.S + 1e-9

    def test_circulant_validation(self):
        with pytest.raises(ConfigurationError):
            circulant(2, [1])
        with pytest.raises(ConfigurationError):
            circulant(8, [])

    def test_unbalanced_overlay_often_infeasible(self):
        """The paper's warning, quantified: without path balancing the
        overlay uncertainty exceeds d/2 and no CPS parameters exist."""
        graph = nx.complete_graph(6)
        overlay = simulate_full_connectivity(
            graph, uniform_timings(graph, 1.0, 0.05), f=2, balance=False
        )
        with pytest.raises(ConfigurationError):
            overlay.derive_parameters(theta=1.0005)


def _reference_overlay(graph, timings, f, theta):
    """``paths, d_eff, u_eff`` the way the overlay was first built: a
    fresh ``nx.node_disjoint_paths`` flow network for every pair."""
    needed = f + 1
    paths = {}
    for src, dst in itertools.permutations(sorted(graph.nodes), 2):
        found = []
        for nodes in nx.node_disjoint_paths(graph, src, dst):
            d_max = d_min = 0.0
            for a, b in zip(nodes, nodes[1:]):
                link = timings.get((a, b)) or timings[(b, a)]
                d_max += link.d
                d_min += link.d - link.u
            found.append(PathTiming(tuple(nodes), d_max, d_min))
        paths[(src, dst)] = sorted(found, key=lambda t: t.d)[:needed]
    d_eff = max(t.d for found in paths.values() for t in found)
    u_eff = max(
        t.u + (d_eff - t.d) * (1.0 - 1.0 / theta)
        for found in paths.values()
        for t in found
    )
    return paths, d_eff, min(u_eff, d_eff)


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


TOPOLOGY_CELLS = [
    (key, n)
    for key in scenarios.REGISTRY.keys("topology")
    for n in (8, 12, 16)
]


@st.composite
def shuffled_graphs(draw):
    """A 2-connected graph (a Hamiltonian cycle plus random chords) whose
    node and edge insertion orders, and edge orientations, are drawn, with
    a non-uniform timing on every link."""
    n = draw(st.integers(4, 11))
    labels = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    chords = draw(st.lists(st.sampled_from(pairs), unique=True))
    edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    edges += [(labels[a], labels[b]) for a, b in chords]
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    graph = nx.Graph()
    graph.add_nodes_from(draw(st.permutations(labels)))
    graph.add_edges_from(
        (b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)
    )
    timings = {}
    for edge in graph.edges:
        d = draw(st.sampled_from([0.5, 1.0, 1.25, 3.0]))
        u = draw(st.sampled_from([0.0, 0.01, 0.1])) * d
        timings[edge if draw(st.booleans()) else edge[::-1]] = (
            LinkTiming(d, u)
        )
    return graph, timings


class TestFlowNetworkReuse:
    """One integer-array flow network per overlay, one connectivity sweep
    per build — with networkx's per-pair paths and connectivity intact."""

    @pytest.mark.parametrize("key,n", TOPOLOGY_CELLS)
    def test_matches_fresh_network_per_pair(self, key, n):
        graph = scenarios.create("topology", key, n)
        timings = uniform_timings(graph, 1.0, 0.01)
        f = min(max_faults(n), nx.node_connectivity(graph) - 1)
        paths, d_eff, u_eff = _reference_overlay(graph, timings, f, 1.001)
        overlay = simulate_full_connectivity(
            graph, timings, f, theta=1.001, connectivity=f + 1
        )
        assert overlay.paths == paths
        assert (overlay.d_eff, overlay.u_eff) == (d_eff, u_eff)

    @given(shuffled_graphs(), st.data())
    def test_matches_networkx_on_shuffled_graphs(self, drawn, data):
        graph, timings = drawn
        connectivity = nx.node_connectivity(graph)
        assert node_connectivity(graph) == connectivity
        f = data.draw(st.integers(0, connectivity - 1))
        paths, d_eff, u_eff = _reference_overlay(graph, timings, f, 1.001)
        overlay = simulate_full_connectivity(graph, timings, f, theta=1.001)
        assert overlay.paths == paths
        assert (overlay.d_eff, overlay.u_eff) == (d_eff, u_eff)

    @pytest.mark.parametrize(
        "graph",
        [
            nx.empty_graph(1),
            nx.empty_graph(2),
            nx.path_graph(2),
            nx.path_graph(5),
            nx.disjoint_union(nx.complete_graph(4), nx.complete_graph(3)),
            nx.barbell_graph(4, 1),
            nx.petersen_graph(),
            nx.complete_bipartite_graph(3, 5),
        ],
        ids=lambda graph: f"{graph.number_of_nodes()}-"
        f"{graph.number_of_edges()}",
    )
    def test_node_connectivity_matches_networkx(self, graph):
        assert node_connectivity(graph) == nx.node_connectivity(graph)

    @pytest.mark.parametrize(
        "graph,f,connectivity",
        [
            (nx.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(4)), 1, 0),
            (nx.cycle_graph(8), 2, 2),
            (nx.barbell_graph(4, 0), 1, 1),
        ],
    )
    def test_under_connected_graph_is_refused(self, graph, f, connectivity):
        needs = f + 1
        message = (
            f"graph has node connectivity {connectivity}, but tolerating "
            f"f={f} faults with signatures needs {needs}"
        )
        with pytest.raises(ConfigurationError) as raised:
            simulate_full_connectivity(
                graph, uniform_timings(graph, 1.0, 0.01), f
            )
        assert str(raised.value) == message

    @pytest.mark.parametrize("key,n", TOPOLOGY_CELLS)
    def test_one_connectivity_sweep_per_build(self, key, n, monkeypatch):
        sweeps = _counting(monkeypatch, topology, "node_connectivity")
        networkx_sweeps = _counting(monkeypatch, nx, "node_connectivity")
        # What the factory sweeps for itself (random-regular verifies
        # every candidate it draws) is not the builder's to save.
        scenarios.create("topology", key, n)
        by_factory = len(sweeps)
        build.build_simulation({"n": n, "topology": key})
        assert len(sweeps) == 2 * by_factory + 1
        assert not networkx_sweeps

    def test_known_connectivity_is_trusted_by_the_check(self, monkeypatch):
        sweeps = _counting(monkeypatch, topology, "node_connectivity")
        graph = nx.cycle_graph(8)
        check_connectivity(graph, f=1, connectivity=2)
        with pytest.raises(ConfigurationError):
            check_connectivity(graph, f=2, connectivity=2)
        assert not sweeps
        check_connectivity(graph, f=1)
        assert len(sweeps) == 1
