#!/usr/bin/env python3
"""Datacenter scenario: sub-10-microsecond fault-tolerant time.

Realistic parameters for a rack-scale deployment (times in seconds):

* one-way delay d = 100 us (ToR switch round trip + processing),
* uncertainty u = 2 us (hardware timestamping),
* oscillator drift theta - 1 = 2e-5 (20 ppm crystal),
* n = 16 servers, up to 7 of them compromised.

The example contrasts what each algorithm family delivers in this regime,
then shows the headline application: simulating lock-step rounds with
almost no overhead over the raw network delay.
"""

from repro import assemble_cps_simulation, derive_parameters
from repro.analysis.metrics import PulseReport
from repro.analysis.reporting import Table
from repro.baselines.lynch_welch import (
    LynchWelchNode,
    derive_lw_parameters,
    lw_max_faults,
)
from repro.baselines.srikanth_toueg import (
    StRushAttack,
    build_st_simulation,
    derive_st_parameters,
)
from repro.core.attacks import CpsMimicDealerAttack
from repro.core.params import max_faults
from repro.core.synchronizer import (
    synchronous_round_overhead,
    verify_round_separation,
)
from repro.sim.network import RandomDelayPolicy

D = 100e-6
U = 2e-6
THETA = 1.00002
N = 16
PULSES = 12


def main() -> None:
    table = Table(
        "Rack-scale clock sync (d=100us, u=2us, 20ppm drift, n=16)",
        ["algorithm", "f tolerated", "skew bound", "measured skew (us)"],
    )

    params = derive_parameters(THETA, D, U, N)
    faulty = list(range(N - params.f, N))
    group_a = [v for v in range(N) if v % 2 == 0]
    simulation = assemble_cps_simulation(
        params,
        faulty=faulty,
        behavior=CpsMimicDealerAttack(params, group_a),
        delay_policy=RandomDelayPolicy(seed=1),
        seed=1,
    )
    result = simulation.run(max_pulses=PULSES)
    report = PulseReport.from_pulses(result.honest_pulses(), warmup=4)
    table.add_row(
        "CPS (this paper)", params.f, f"{params.S * 1e6:.2f} us",
        report.steady_skew * 1e6,
    )

    lw_f = lw_max_faults(N)
    lw_params = derive_lw_parameters(THETA, D, U, N, f=lw_f)
    lw_sim = assemble_cps_simulation(
        lw_params,
        faulty=list(range(N - lw_f, N)),
        delay_policy=RandomDelayPolicy(seed=1),
        seed=1,
        node=LynchWelchNode,
    )
    lw_result = lw_sim.run(max_pulses=PULSES)
    lw_report = PulseReport.from_pulses(lw_result.honest_pulses(), warmup=4)
    table.add_row(
        "Lynch-Welch (no signatures)", lw_f,
        f"{lw_params.S * 1e6:.2f} us", lw_report.steady_skew * 1e6,
    )

    st_params = derive_st_parameters(THETA, D, U, N)
    st_sim = build_st_simulation(
        st_params,
        faulty=faulty,
        behavior=StRushAttack(st_params),
        seed=1,
    )
    st_result = st_sim.run(max_pulses=PULSES)
    st_report = PulseReport.from_pulses(st_result.honest_pulses(), warmup=4)
    table.add_row(
        "Signed relay (ST-style)", max_faults(N),
        f"~d = {D * 1e6:.0f} us", st_report.steady_skew * 1e6,
    )

    print(table.render())
    print(
        f"\nCPS tolerates {params.f} corrupted servers (vs {lw_f} without "
        f"signatures) at {report.steady_skew * 1e6:.2f} us steady skew — "
        f"{D * 1e6 / max(report.steady_skew * 1e6, 1e-9):.0f}x tighter "
        "than the relay-based alternative at the same resilience."
    )

    # The application: lock-step round simulation on top of the pulses.
    schedule = verify_round_separation(result.honest_pulses(), D)
    overhead = synchronous_round_overhead(result.honest_pulses(), D)
    print(
        f"\nSynchronizer view: {schedule.rounds} lock-step rounds "
        f"simulated, {len(schedule.violations)} separation violations, "
        f"mean round duration {overhead:.2f}x the raw delay d."
    )


if __name__ == "__main__":
    main()
