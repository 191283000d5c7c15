#!/usr/bin/env python3
"""CPS on a sparse network (Appendix A of the paper).

A 12-node circulant network (each node linked to its 2 nearest neighbours
on each side — 4 links per node instead of 11) simulates full
connectivity by routing every virtual message along f + 1 = 3
vertex-disjoint paths.  With signatures, one honest path suffices for an
authenticated delivery, so (f+1)-connectivity is all that is needed —
against 2f+1 without signatures.

The example also quantifies the paper's closing warning: the utilized
paths' lengths must be *balanced*, otherwise the effective uncertainty
u_eff approaches the effective delay d_eff and no feasible CPS
parameters exist.
"""

from repro.analysis.metrics import PulseReport
from repro.core.cps import assemble_cps_simulation
from repro.core.params import max_faults
from repro.core.topology import (
    circulant,
    required_connectivity,
    simulate_full_connectivity,
    uniform_timings,
)
from repro.sim.errors import ConfigurationError

N = 12
F = 2
THETA = 1.0002
LINK_D = 1.0
LINK_U = 0.02


def main() -> None:
    graph = circulant(N, [1, 2])
    print(
        f"Physical network: circulant({N}, [1,2]) — {graph.number_of_edges()}"
        f" links (complete graph would need {N * (N - 1) // 2})."
    )
    print(
        f"Tolerating f={F} faults needs connectivity "
        f"{required_connectivity(F)} with signatures "
        f"(vs {required_connectivity(F, with_signatures=False)} without)."
    )

    print("\nWithout path balancing:")
    unbalanced = simulate_full_connectivity(
        graph, uniform_timings(graph, LINK_D, LINK_U), F, balance=False
    )
    print(
        f"  d_eff = {unbalanced.d_eff:.2f}, u_eff = {unbalanced.u_eff:.2f} "
        f"(imbalance penalty {unbalanced.imbalance_penalty():.2f})"
    )
    try:
        unbalanced.derive_parameters(THETA)
        print("  -> parameters feasible")
    except ConfigurationError as error:
        print(f"  -> INFEASIBLE: {error}")

    print("\nWith per-hop padding to balance path lengths:")
    overlay = simulate_full_connectivity(
        graph, uniform_timings(graph, LINK_D, LINK_U), F, theta=THETA
    )
    print(f"  d_eff = {overlay.d_eff:.2f}, u_eff = {overlay.u_eff:.4f}")
    params = overlay.derive_parameters(THETA)
    print(
        f"  CPS parameters: S = {params.S:.4f}, T = {params.T:.4f} "
        f"(f = {params.f} of ceil(n/2)-1 = {max_faults(N)})"
    )

    simulation = assemble_cps_simulation(
        params, faulty=list(range(N - F, N)), seed=5, trace="none"
    )
    result = simulation.run(max_pulses=10)
    report = PulseReport.from_pulses(result.honest_pulses(), warmup=3)
    print(
        f"\nRun over the virtual overlay: steady skew "
        f"{report.steady_skew:.4f} <= S = {params.S:.4f} "
        f"({'ok' if report.steady_skew <= params.S else 'VIOLATED'}), "
        f"periods in [{report.min_period:.3f}, {report.max_period:.3f}]."
    )
    assert report.max_skew <= params.S + 1e-9
    print(
        "\nTakeaway: signatures halve the connectivity requirement, but "
        "only balanced path delays keep the skew near "
        "u + (theta-1)*d rather than near d."
    )


if __name__ == "__main__":
    main()
