"""Baseline synchronizers the paper compares against.

* :mod:`repro.baselines.lynch_welch` — [25], no signatures, resilience
  ``ceil(n/3) - 1``, skew ``Θ(u + (theta-1) d)``;
* :mod:`repro.baselines.srikanth_toueg` — [28]/[21]-style signed relays,
  resilience ``ceil(n/2) - 1``, skew ``Θ(d)``;
* :mod:`repro.baselines.chain_relay` — [2]-style signature chains,
  resilience ``ceil(n/2) - 1``, skew ``Θ(f (u + (theta-1) d))``.
"""
