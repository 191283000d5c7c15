"""Tests for the Theorem 17 / Lemma 16 parameter derivation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.params import (
    THETA_MAX,
    InfeasibleParameters,
    ProtocolParameters,
    derive_parameters,
    max_faults,
)
from repro.sim.errors import ConfigurationError


class TestMaxFaults:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, 0), (3, 1), (4, 1), (5, 2), (6, 2), (7, 3), (9, 4), (10, 4)],
    )
    def test_ceil_n_half_minus_one(self, n, expected):
        assert max_faults(n) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            max_faults(0)


class TestDerivation:
    def test_basic_shape(self):
        params = derive_parameters(1.001, 1.0, 0.01, 8)
        assert params.f == 3
        assert params.S > 0
        assert params.T > params.S
        params.check_feasible()

    def test_skew_is_order_u_plus_drift_d(self):
        """Corollary 4: S in Theta(u + (theta-1) d)."""
        base = derive_parameters(1.001, 1.0, 0.01, 8)
        # Scale u by 4 with tiny drift: S roughly scales with u.
        more_u = derive_parameters(1.0 + 1e-9, 1.0, 0.04, 8)
        less_u = derive_parameters(1.0 + 1e-9, 1.0, 0.01, 8)
        assert more_u.S == pytest.approx(4 * less_u.S, rel=1e-3)
        # Drift contributes proportionally to (theta - 1) d.
        drift_only_small = derive_parameters(1.0005, 1.0, 0.0, 8)
        drift_only_large = derive_parameters(1.001, 1.0, 0.0, 8)
        assert drift_only_large.S == pytest.approx(
            2 * drift_only_small.S, rel=0.05
        )
        assert base.S > 0

    def test_t_is_order_d(self):
        params = derive_parameters(1.001, 1.0, 0.001, 8)
        assert 1.0 < params.T < 10.0

    def test_theta_max_boundary(self):
        derive_parameters(THETA_MAX - 1e-4, 1.0, 0.01, 8)
        with pytest.raises(InfeasibleParameters):
            derive_parameters(THETA_MAX + 1e-4, 1.0, 0.01, 8)

    def test_theta_max_value(self):
        # Our derivation's constant (the paper's bookkeeping gives 1.11).
        assert 1.07 < THETA_MAX < 1.08

    def test_explicit_t_respected(self):
        params = derive_parameters(1.001, 1.0, 0.01, 8, T=5.0)
        assert params.T == 5.0
        params.check_feasible()

    def test_explicit_t_too_small_rejected(self):
        with pytest.raises(InfeasibleParameters):
            derive_parameters(1.001, 1.0, 0.01, 8, T=0.5)

    @pytest.mark.parametrize(
        "d,name", [(1e308, "S"), (8.9e307, "T")], ids=["S", "T"]
    )
    def test_overflowed_derivation_names_its_inputs(self, d, name):
        # (theta + 1) d overflows in S's numerator at d = 1e308; at
        # 8.9e307 S is finite and only T's sum passes the largest float.
        with pytest.raises(ConfigurationError) as info:
            derive_parameters(1.001, d, 0.01, 4)
        assert str(info.value) == (
            f"derived {name} overflowed to inf from theta=1.001, "
            f"d={d}, u=0.01"
        )

    def test_non_finite_slack_rejected(self):
        with pytest.raises(ConfigurationError, match="^slack must be"):
            derive_parameters(1.001, 1.0, 0.01, 4, slack=math.nan)

    def test_slack_scales_s(self):
        tight = derive_parameters(1.001, 1.0, 0.01, 8)
        loose = derive_parameters(1.001, 1.0, 0.01, 8, slack=2.0)
        assert loose.S == pytest.approx(2 * tight.S)
        loose.check_feasible()

    def test_slack_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_parameters(1.001, 1.0, 0.01, 8, slack=0.5)

    def test_u_at_least_half_d_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_parameters(1.001, 1.0, 0.5, 8)

    def test_theta_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_parameters(0.99, 1.0, 0.01, 8)

    def test_perfect_model_degenerate_corner(self):
        params = derive_parameters(1.0, 1.0, 0.0, 4)
        assert params.S > 0  # tiny positive placeholder
        params.check_feasible()

    @given(
        theta=st.floats(min_value=1.0, max_value=1.07),
        d=st.floats(min_value=0.1, max_value=100.0),
        u_fraction=st.floats(min_value=0.0, max_value=0.45),
        n=st.integers(min_value=2, max_value=33),
    )
    def test_derivation_always_feasible(self, theta, d, u_fraction, n):
        """Any admissible (theta, d, u) yields parameters passing every
        precondition of Lemma 16 and Corollary 15."""
        params = derive_parameters(theta, d, u_fraction * d, n)
        params.check_feasible()
        assert params.p_min_bound > 0
        assert params.p_max_bound >= params.p_min_bound


    @pytest.mark.parametrize("k", range(13))
    def test_derivation_feasible_at_every_scale_of_d(self, k):
        """The slack scales with the bound: rounding in the derivation at
        large ``d`` (Lemma 16 missed by 1.3e-9 at d = 7e7) is no
        violation."""
        derive_parameters(1.001, 10.0**k, 0.01, 4).check_feasible()
        derive_parameters(1.001, 7.0 * 10.0**k, 0.01, 4).check_feasible()

    @pytest.mark.parametrize(
        "d,shortfall,feasible",
        [
            (0.1, 0.5e-9, True),
            (0.1, 2e-9, False),
            (1e6, 1e-4, True),
            (1e6, 1e-2, False),
        ],
    )
    def test_floor_slack_is_absolute_below_one(self, d, shortfall, feasible):
        derived = derive_parameters(1.001, d, d / 100, 4)
        t_floor = (
            (derived.theta**2 + derived.theta + 1.0) * derived.S
            + (derived.theta + 1.0) * derived.d
            - 2.0 * derived.u
        )
        assert (t_floor <= 1.0) == (d < 1.0)
        params = ProtocolParameters(
            n=4, f=1, theta=1.001, d=d, u=d / 100,
            T=t_floor - shortfall, S=derived.S,
        )
        if feasible:
            params.check_feasible()
        else:
            with pytest.raises(InfeasibleParameters, match="Corollary 15"):
                params.check_feasible()


class TestDerivedQuantities:
    def setup_method(self):
        self.params = derive_parameters(1.002, 1.0, 0.05, 6)

    def test_delta_formula(self):
        theta, d, u, s = 1.002, 1.0, 0.05, self.params.S
        expected = (
            2 * u + (theta**2 - 1) * d + 2 * (theta**3 - theta**2) * s
        )
        assert self.params.delta == pytest.approx(expected)

    def test_window_formula(self):
        theta, d, s = 1.002, 1.0, self.params.S
        assert self.params.tcb_window == pytest.approx(
            theta * (d + (theta + 1) * s)
        )

    def test_finalize_wait(self):
        assert self.params.tcb_finalize_wait == pytest.approx(0.9)

    def test_dealer_send_offset(self):
        assert self.params.dealer_send_offset == pytest.approx(
            1.002 * self.params.S
        )

    def test_period_bounds(self):
        p = self.params
        assert p.p_min_bound == pytest.approx(
            (p.T - (p.theta + 1) * p.S) / p.theta
        )
        assert p.p_max_bound == pytest.approx(p.T + 3 * p.S)

    def test_consistency_window(self):
        p = self.params
        assert p.consistency_window == pytest.approx(
            (1 - 1 / p.theta) * p.d + 2 * p.u / p.theta
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["theta", "d", "u", "T", "S"])
    def test_non_finite_field_rejected(self, field, value):
        fields = dict(n=6, f=2, theta=1.002, d=1.0, u=0.05, T=3.0, S=0.1)
        fields[field] = value
        with pytest.raises(
            ConfigurationError, match=f"^{field} must be finite"
        ):
            ProtocolParameters(**fields)

    def test_invalid_direct_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(
                n=6, f=5, theta=1.002, d=1.0, u=0.05, T=3.0, S=0.1
            )
        with pytest.raises(ConfigurationError):
            ProtocolParameters(
                n=1, f=0, theta=1.002, d=1.0, u=0.05, T=3.0, S=0.1
            )
        with pytest.raises(ConfigurationError):
            ProtocolParameters(
                n=6, f=2, theta=1.002, d=1.0, u=0.05, T=3.0, S=-0.1
            )
