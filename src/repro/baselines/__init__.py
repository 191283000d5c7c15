"""Baseline synchronizers the paper compares against.

* :mod:`repro.baselines.lynch_welch` — [25], no signatures, resilience
  ``ceil(n/3) - 1``, skew ``Θ(u + (theta-1) d)``;
* :mod:`repro.baselines.srikanth_toueg` — [28]/[21]-style signed relays,
  resilience ``ceil(n/2) - 1``, skew ``Θ(d)``;
* :mod:`repro.baselines.chain_relay` — [2]-style signature chains,
  resilience ``ceil(n/2) - 1``, skew ``Θ(f (u + (theta-1) d))``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "chain_relay": (
            "ChainMessage",
            "ChainParameters",
            "ChainRelayNode",
            "ChainStretchAttack",
            "build_chain_simulation",
            "chain_tag",
            "derive_chain_parameters",
        ),
        "lynch_welch": (
            "LwMessage",
            "LwTimingAttack",
            "LynchWelchNode",
            "build_lw_simulation",
            "derive_lw_parameters",
            "lw_max_faults",
        ),
        "srikanth_toueg": (
            "SrikanthTouegNode",
            "StBundle",
            "StParameters",
            "StReady",
            "StRushAttack",
            "build_st_simulation",
            "derive_st_parameters",
            "st_tag",
        ),
    },
)
