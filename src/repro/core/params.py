"""Protocol parameters for Algorithm CPS (Theorem 17 / Corollary 4).

The analysis ties together three quantities:

* the measurement error bound (defined before Lemma 12)

  ``delta = 2u + (theta^2 - 1) d + 2 (theta^3 - theta^2) S``;

* the Corollary 15 feasibility constraint on the nominal round length

  ``T >= (theta^2 + theta + 1) S + (theta + 1) d - 2u``;

* the Lemma 16 contraction condition

  ``S (2 - theta) >= 2 (2 theta - 1) delta + 2 (theta - 1) T``.

Because ``delta`` itself contains ``S``, we solve the self-consistent linear
system exactly.  With ``T`` tied to its feasibility bound, the closed form is

  ``S = N(theta, d, u) / D(theta)``,
  ``N = 2 (2θ-1) (2u + (θ²-1) d) + 2 (θ-1) ((θ+1) d - 2u)``,
  ``D = -8 θ^4 + 10 θ^3 - 4 θ^2 - θ + 4``,

which is positive for ``theta < THETA_MAX ≈ 1.0795``.  (The paper's
Corollary 4 quotes feasibility up to ``theta <= 1.11`` with the slightly
different constant bookkeeping of its appendix; both are
``Theta(u + (theta - 1) d)`` and we document the difference in
docs/EXPERIMENTS.md.)  ``S`` also serves as the bound on initial clock offsets:
CPS assumes ``H_v(0) in [0, S]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.sim.errors import ConfigurationError


class InfeasibleParameters(ConfigurationError):
    """The requested (theta, d, u, T) admit no valid skew bound S."""


def _lemma16_denominator(theta: float) -> float:
    """``D(theta)`` for the T-tied closed form (see module docstring)."""
    return (
        -8.0 * theta**4 + 10.0 * theta**3 - 4.0 * theta**2 - theta + 4.0
    )


def _fixed_t_denominator(theta: float) -> float:
    """Denominator when ``T`` is given: ``(2-θ) - 4(2θ-1)θ²(θ-1)``."""
    return (2.0 - theta) - 4.0 * (2.0 * theta - 1.0) * theta**2 * (
        theta - 1.0
    )


def _solve_theta_max() -> float:
    """Largest drift rate our derivation supports (root of ``D``)."""
    low, high = 1.0, 1.5
    for _ in range(200):
        mid = (low + high) / 2.0
        if _lemma16_denominator(mid) > 0:
            low = mid
        else:
            high = mid
    return low


#: Maximum supported hardware-clock drift rate (exclusive).
THETA_MAX = _solve_theta_max()


def _require_finite(**values: Optional[float]) -> None:
    """Reject a NaN or infinite model parameter: NaN fails every
    comparison, so it would slip past each range check below."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


def max_faults(n: int) -> int:
    """Optimal resilience with signatures: ``ceil(n/2) - 1`` (paper's f)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return math.ceil(n / 2) - 1


@dataclass(frozen=True)
class ProtocolParameters:
    """Validated parameters for one CPS deployment.

    Attributes
    ----------
    n, f:
        System size and resilience (``f <= ceil(n/2) - 1``).
    theta:
        Maximum hardware clock rate (minimum normalized to 1).
    d, u:
        Maximum delay and delay uncertainty (honest links).
    T:
        Nominal round length (local-time units between pulses, before the
        correction ``Delta``).
    S:
        The proven skew bound; also the assumed bound on initial offsets.
    """

    n: int
    f: int
    theta: float
    d: float
    u: float
    T: float
    S: float

    def __post_init__(self) -> None:
        _require_finite(
            theta=self.theta, d=self.d, u=self.u, T=self.T, S=self.S
        )
        if self.n < 2:
            raise ConfigurationError(f"CPS needs n >= 2, got n={self.n}")
        if not 0 <= self.f <= max_faults(self.n):
            raise ConfigurationError(
                f"f={self.f} outside [0, ceil(n/2)-1={max_faults(self.n)}]"
            )
        if self.theta < 1.0:
            raise ConfigurationError(f"theta must be >= 1, got {self.theta}")
        if self.u < 0 or self.d <= 0:
            raise ConfigurationError(
                f"need d > 0 and u >= 0, got d={self.d}, u={self.u}"
            )
        if 2 * self.u >= self.d:
            raise ConfigurationError(
                f"TCB requires u < d/2 (finalize wait d - 2u must be "
                f"positive), got u={self.u}, d={self.d}"
            )
        if self.S <= 0 or self.T <= 0:
            raise ConfigurationError("S and T must be positive")

    # -- derived quantities (all straight from the paper) ---------------

    @property
    def delta(self) -> float:
        """Estimate error bound (before Lemma 12)."""
        return (
            2.0 * self.u
            + (self.theta**2 - 1.0) * self.d
            + 2.0 * (self.theta**3 - self.theta**2) * self.S
        )

    @property
    def dealer_send_offset(self) -> float:
        """Local-time delay before the dealer sends: ``theta * S``."""
        return self.theta * self.S

    @property
    def tcb_window(self) -> float:
        """Local-time acceptance window length after a pulse:
        ``theta (d + (theta + 1) S)`` (Figure 2)."""
        return self.theta * (self.d + (self.theta + 1.0) * self.S)

    @property
    def tcb_finalize_wait(self) -> float:
        """Local time between acceptance and output: ``d - 2u``."""
        return self.d - 2.0 * self.u

    @property
    def p_min_bound(self) -> float:
        """Theorem 17's minimum-period guarantee."""
        return (self.T - (self.theta + 1.0) * self.S) / self.theta

    @property
    def p_max_bound(self) -> float:
        """Theorem 17's maximum-period guarantee."""
        return self.T + 3.0 * self.S

    @property
    def consistency_window(self) -> float:
        """Lemma 11: max real-time spread of honest acceptances of one
        dealer: ``(1 - 1/theta) d + 2u / theta``."""
        return (1.0 - 1.0 / self.theta) * self.d + 2.0 * self.u / self.theta

    def check_feasible(self) -> None:
        """Verify the Lemma 16 and Corollary 15 preconditions hold."""
        t_floor = (
            (self.theta**2 + self.theta + 1.0) * self.S
            + (self.theta + 1.0) * self.d
            - 2.0 * self.u
        )
        # The slack is 1e-9 relative to the bound once it exceeds 1, so
        # the derivation's own rounding at large d is not a violation.
        if self.T < t_floor - 1e-9 * max(1.0, abs(t_floor)):
            raise InfeasibleParameters(
                f"T={self.T} below Corollary 15 floor {t_floor}"
            )
        lhs = self.S * (2.0 - self.theta)
        rhs = (
            2.0 * (2.0 * self.theta - 1.0) * self.delta
            + 2.0 * (self.theta - 1.0) * self.T
        )
        if lhs < rhs - 1e-9 * max(1.0, abs(rhs)):
            raise InfeasibleParameters(
                f"Lemma 16 contraction violated: S(2-theta)={lhs} < {rhs}"
            )


def derive_parameters(
    theta: float,
    d: float,
    u: float,
    n: int,
    f: Optional[int] = None,
    T: Optional[float] = None,
    slack: float = 1.0,
) -> ProtocolParameters:
    """Compute a feasible ``(S, T)`` pair for the given model parameters.

    Parameters
    ----------
    theta, d, u:
        Model parameters (``1 <= theta < THETA_MAX``, ``0 <= u < d/2``).
    n, f:
        System size and resilience; ``f`` defaults to ``ceil(n/2) - 1``.
    T:
        Optional explicit round length.  If omitted, ``T`` is tied to its
        Corollary 15 floor (the fastest admissible pulse rate).
    slack:
        Multiplies the derived skew bound ``S`` (``>= 1``); useful to study
        how conservative the analysis is.

    Raises
    ------
    InfeasibleParameters
        If ``theta >= THETA_MAX`` (no S exists) or the explicit ``T`` is
        infeasible.
    ConfigurationError
        If an input is out of range or not finite, or the derived ``S``
        or ``T`` overflows a float (the message names the inputs).
    """
    _require_finite(theta=theta, d=d, u=u, T=T, slack=slack)
    if theta < 1.0:
        raise ConfigurationError(f"theta must be >= 1, got {theta}")
    if slack < 1.0:
        raise ConfigurationError(f"slack must be >= 1, got {slack}")
    if f is None:
        f = max_faults(n)
    base = 2.0 * u + (theta**2 - 1.0) * d
    amplification = 2.0 * (2.0 * theta - 1.0)

    if T is None:
        denominator = _lemma16_denominator(theta)
        if denominator <= 0:
            raise InfeasibleParameters(
                f"theta={theta} >= THETA_MAX={THETA_MAX:.6f}: the Lemma 16 "
                "contraction cannot compensate the drift"
            )
        numerator = amplification * base + 2.0 * (theta - 1.0) * (
            (theta + 1.0) * d - 2.0 * u
        )
        s_value = slack * (numerator / denominator)
        if s_value <= 0:
            # Degenerate corner: theta == 1 and u == 0 — perfect clocks and
            # exact delays need no correction, but S must stay positive for
            # the algorithm's windows; pick a tiny S relative to d.
            s_value = 1e-9 * d
        t_value = (
            (theta**2 + theta + 1.0) * s_value + (theta + 1.0) * d - 2.0 * u
        )
    else:
        denominator = _fixed_t_denominator(theta)
        if denominator <= 0:
            raise InfeasibleParameters(
                f"theta={theta} too large for a fixed-T derivation"
            )
        s_value = slack * (
            (amplification * base + 2.0 * (theta - 1.0) * T) / denominator
        )
        if s_value <= 0:
            s_value = 1e-9 * d
        t_value = T
    for name, value in (("S", s_value), ("T", t_value)):
        if not math.isfinite(value):
            given = f"theta={theta}, d={d}, u={u}"
            if T is not None:
                given += f", T={T}"
            if slack != 1.0:
                given += f", slack={slack}"
            raise ConfigurationError(
                f"derived {name} overflowed to {value} from {given}"
            )

    params = ProtocolParameters(
        n=n, f=f, theta=theta, d=d, u=u, T=t_value, S=s_value
    )
    params.check_feasible()
    return params
