"""The paper's contribution: Crusader Pulse Synchronization and Theorem 5.

* :mod:`repro.core.params` — parameter derivation (Theorem 17/Corollary 4);
* :mod:`repro.core.tcb` — timed crusader broadcast (Figure 2);
* :mod:`repro.core.cps` — the pulse-synchronization protocol (Figure 3);
* :mod:`repro.core.attacks` — Byzantine strategies tailored to CPS;
* :mod:`repro.core.lower_bound` — the executable Theorem 5 construction;
* :mod:`repro.core.synchronizer` — the round-simulation application the
  introduction motivates.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "attacks": (
            "CpsEquivocatingSubsetAttack",
            "CpsMimicDealerAttack",
            "CpsRushingEchoAttack",
            "FastToFaultyDelayPolicy",
        ),
        "cps": (
            "CpsNode",
            "CpsRoundSummary",
            "assemble_cps_simulation",
            "default_clocks",
        ),
        "lower_bound": (
            "FixedPeriodProtocol",
            "LowerBoundResult",
            "ShiftFunction",
            "run_lower_bound",
        ),
        "messages": ("TcbMessage", "tcb_tag"),
        "params": (
            "InfeasibleParameters",
            "ProtocolParameters",
            "THETA_MAX",
            "derive_parameters",
            "max_faults",
        ),
        "synchronizer": (
            "RoundSchedule",
            "supports_round_simulation",
            "synchronous_round_overhead",
            "verify_round_separation",
        ),
        "tcb": ("TcbInstance", "TcbState", "offset_estimate"),
        "topology": (
            "LinkTiming",
            "SimulatedTopology",
            "check_connectivity",
            "circulant",
            "required_connectivity",
            "simulate_full_connectivity",
            "uniform_timings",
        ),
    },
)
