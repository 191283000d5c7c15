"""Churn in action: crash a node mid-run, watch it rejoin and resync.

Walks the churn engine end to end:

1. *declare* — a fault schedule as plain data: one node crashes at
   pulse 3 and recovers at pulse 6, with the budget check showing why
   a crash spends one of the ``f`` fault slots;
2. *inject* — attach the schedule to a CPS simulation through the
   scheduler's dynamics hook and run it;
3. *measure* — time-aligned stabilization metrics: the recovered node
   re-locks to the stable cohort within a few pulses of the
   listen-then-join handoff, and the cohort itself never leaves the
   Theorem 17 envelope.
"""

from repro import scenarios
from repro.analysis.metrics import max_skew, stabilization_report
from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters
from repro.dynamics import (
    ChurnController,
    FaultEvent,
    FaultSchedule,
    MalformedScheduleError,
)

params = derive_parameters(theta=1.001, d=1.0, u=0.02, n=6)
print("=== The deployment ===")
print(
    f"n={params.n} f={params.f} skew bound S={params.S:.4f} "
    f"round T={params.T:.4f}"
)

print("\n=== 1. Declare the fault schedule ===")
schedule = FaultSchedule(
    events=(
        FaultEvent("crash", 0, at_pulse=3),
        FaultEvent("recover", 0, at_pulse=6),
    ),
    corruptions=1,  # one Byzantine node; the crash spends a 2nd slot
)
schedule.validate(params.n, params.f)
print(schedule.describe())

# Crashes are faults: one corruption + two crashes would exceed f=2.
over_budget = FaultSchedule(
    events=(
        FaultEvent("crash", 0, at_pulse=2),
        FaultEvent("crash", 1, at_pulse=3),
    ),
    corruptions=1,
)
try:
    over_budget.validate(params.n, params.f)
except MalformedScheduleError as error:
    print(f"over-budget schedule rejected: {error}")
else:
    raise AssertionError("budget violation went undetected")

print("\n=== 2. Inject and run ===")
controller = ChurnController(schedule, params)
simulation = assemble_cps_simulation(
    params,
    faulty=schedule.initially_corrupted(params.n),
    seed=11,
    clocks=scenarios.create("drift", "extreme", params),
    dynamics=controller,
)
result = simulation.run(max_pulses=14)
for time, kind, node in controller.applied:
    print(f"t={time:8.3f}  {kind} node {node}")

print("\n=== 3. Measure re-stabilization ===")
stable = schedule.stable_nodes(params.n)
recover_time = controller.applied[-1][0]
report = stabilization_report(
    result.pulses, 0, recover_time, stable, params.S
)
print(f"stable cohort: {stable}")
print(
    f"node 0 resynced in {report.pulses_to_resync} pulse(s); "
    f"post-resync envelope {report.envelope:.5f} (bound {params.S:.4f})"
)
trajectory = ", ".join(f"{value:.4f}" for value in report.trajectory[:6])
print(f"envelope trajectory: {trajectory} ...")

cohort_skew = max_skew({v: result.pulses[v] for v in stable}, skip=3)
print(f"cohort skew (index-aligned): {cohort_skew:.5f}")

assert report.resynced, "recovered node never re-stabilized"
assert report.pulses_to_resync <= 6
assert report.envelope <= params.S
assert cohort_skew <= params.S + 1e-9
assert len(result.pulses[0]) >= 14, "rejoiner did not reach the quota"
print("\nall churn assertions hold")
