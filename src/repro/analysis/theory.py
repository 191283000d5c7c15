"""Closed-form bounds from the paper (the "paper" column of every table).

Everything here is a direct transcription of a stated claim; experiments
compare these numbers against measurements.  A bound that a derived
parameter set already holds (``S``, ``p_min_bound``, ``p_max_bound``,
``consistency_window``, a baseline's ``skew_bound``) is read off the
parameters, not wrapped here.
"""

from __future__ import annotations

from typing import Dict

from repro.core.params import ProtocolParameters


def apa_halving_bound(initial_range: float, iteration: int) -> float:
    """Theorem 9: range after ``iteration`` iterations is
    ``<= initial / 2^iteration``."""
    return initial_range / (2.0 ** iteration)


def lower_bound_skew(u_tilde: float) -> float:
    """Theorem 5: expected skew at least ``2 * u_tilde / 3``."""
    return 2.0 * u_tilde / 3.0


def fault_free_lower_bound(u: float, theta: float, d: float) -> float:
    """[4]: ``u + (theta - 1) d`` order lower bound without faults (we use
    ``u/2 + (1 - 1/theta) d / 2``-style constants loosely; reported as the
    order term the paper quotes)."""
    return u + (theta - 1.0) * d


def summary(params: ProtocolParameters) -> Dict[str, float]:
    """All CPS bounds in one map (used by the CLI's ``params`` command)."""
    return {
        "S (skew bound)": params.S,
        "T (round length)": params.T,
        "delta (estimate error)": params.delta,
        "P_min bound": params.p_min_bound,
        "P_max bound": params.p_max_bound,
        "TCB window (local)": params.tcb_window,
        "TCB finalize wait": params.tcb_finalize_wait,
        "Lemma 11 window": params.consistency_window,
        "fault-free order bound": fault_free_lower_bound(
            params.u, params.theta, params.d
        ),
    }
