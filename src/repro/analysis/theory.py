"""Closed-form bounds from the paper (the "paper" column of every table).

Everything here is a direct transcription of a stated claim; experiments
compare these numbers against measurements.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.params import ProtocolParameters

if TYPE_CHECKING:
    from repro.baselines.chain_relay import ChainParameters
    from repro.baselines.srikanth_toueg import StParameters


def cps_skew_bound(params: ProtocolParameters) -> float:
    """Theorem 17: skew at most ``S``."""
    return params.S


def cps_min_period_bound(params: ProtocolParameters) -> float:
    """Theorem 17: ``P_min >= (T - (theta+1) S) / theta``."""
    return params.p_min_bound


def cps_max_period_bound(params: ProtocolParameters) -> float:
    """Theorem 17: ``P_max <= T + 3 S``."""
    return params.p_max_bound


def tcb_consistency_bound(params: ProtocolParameters) -> float:
    """Lemma 11: honest acceptances of one dealer within
    ``(1 - 1/theta) d + 2u/theta`` real time."""
    return params.consistency_window


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


def st_skew_bound(params: StParameters) -> float:
    """Θ(d) for threshold-relay pulsers ([28]/[21]/[2])."""
    return params.skew_bound


def chain_skew_bound(params: ChainParameters) -> float:
    """Θ(f (u + (theta-1) d)) for chain-relay timing."""
    return params.skew_bound


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
