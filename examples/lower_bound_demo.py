#!/usr/bin/env python3
"""Theorem 5, step by step: the three-execution adversary in action.

Builds the paper's indistinguishability construction around a real CPS
deployment (n = 3, f = 1, *zero* honest-link uncertainty) and walks
through what each execution looks like, verifying:

* the three executions are generated by one shared local-time behaviour,
* the faulty node always learns the signatures it needs in time
  (well-definedness, Lemma 18),
* the signed pulse-time differences telescope to exactly 2 u~,
* hence some execution exhibits skew >= 2 u~ / 3 — more than CPS's
  claimed bound S when u~ is large enough, even though u = 0.
"""

from repro.core.cps import CpsNode
from repro.core.lower_bound import ShiftFunction, run_lower_bound
from repro.core.params import derive_parameters

THETA = 1.02
D = 1.0
U_TILDE = 0.6


def main() -> None:
    params = derive_parameters(THETA, D, 0.0, 3, f=1)
    print(
        f"CPS at n=3, f=1, u=0 (honest links perfectly punctual): "
        f"claimed skew bound S = {params.S:.4f}"
    )
    print(
        f"Adversary: faulty links only guarantee delay >= d - u~ "
        f"= {D - U_TILDE:.2f} (u~ = {U_TILDE})"
    )

    saturation = ShiftFunction(THETA, 2 * U_TILDE / 3).saturation_time
    pulses = int(saturation / 1.5) + 6
    # check=True (the default) raises unless the construction is well
    # defined.
    result = run_lower_bound(
        lambda v: CpsNode(params), THETA, D, U_TILDE, max_pulses=pulses
    )
    print(
        f"\nShared local-time execution: {len(result.messages)} messages, "
        f"{result.common_pulse_count()} pulses per node; "
        "well-definedness check passed (the faulty node always had the "
        "signatures it forwarded)."
    )

    index = result.saturated_pulse_indices()[-1]
    print(f"\nAt pulse {index + 1} (fast clocks saturated, shift = "
          f"2u~/3 = {2 * U_TILDE / 3:.4f}):")
    for k in range(3):
        nodes = sorted(result.execution_pulses[k])
        times = {
            node: result.execution_pulses[k][node][index] for node in nodes
        }
        skew = result.skew_of_execution(k, index)
        print(
            f"  Ex^{k} (node {k} faulty): honest pulses "
            + ", ".join(f"p_{node}={times[node]:.4f}" for node in nodes)
            + f"  -> skew {skew:.4f}"
        )
    identity = result.theorem_identity(index)
    print(
        f"\nTelescoping identity: sum of signed differences = "
        f"{identity:.4f} = 2 u~ = {2 * U_TILDE:.4f}"
    )
    worst = result.max_skew_at(index)
    print(
        f"Worst execution skew {worst:.4f} >= 2u~/3 = "
        f"{2 * U_TILDE / 3:.4f}  (CPS's honest-link bound was "
        f"S = {params.S:.4f} — blown by {worst / params.S:.1f}x)"
    )
    assert worst >= 2 * U_TILDE / 3 - 1e-9
    print(
        "\nNo algorithm can do better: the three executions are "
        "indistinguishable to their honest nodes, so the skew is forced "
        "by the hardware-clock shift alone (Theorem 5)."
    )


if __name__ == "__main__":
    main()
