import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hrvlc import associate, reduce_coefficients, total_rate

from conftest import make_ap, make_coeffs, make_mt, make_scenario, random_coeffs
from oracles import (
    channel_gain,
    downlink_rate,
    harvest_term_reference,
    rate_derivative,
    rate_second_derivative,
    uplink_budget,
)

LN2 = math.log(2)


def rel_err(x, y):
    return abs(x - y) / max(abs(x), abs(y))


class TestReduceCoefficients:
    def test_single_ap_no_interference(self):
        scn = make_scenario()
        coeffs = reduce_coefficients(scn, 0, associate(scn, 0), 1.0)
        assert coeffs.c == 0.0
        assert coeffs.e == 0.0
        assert coeffs.a > 0 and coeffs.d > 0

    def test_zero_fade_kills_harvest_terms(self):
        scn = make_scenario()
        coeffs = reduce_coefficients(scn, 0, associate(scn, 0), 0.0)
        assert coeffs.d == 0.0
        assert coeffs.e == 0.0

    def test_two_ap_matches_end_to_end_recomputation(self):
        aps = [make_ap(1, 2, 3), make_ap(3, 2, 3)]
        mt = make_mt(1.5, 2, 1)
        scn = make_scenario(aps=aps, mts=[mt])
        h_sq = 1.7
        assoc = associate(scn, 0)
        coeffs = reduce_coefficients(scn, 0, assoc, h_sq)

        # oracle: recompose every coefficient from raw primitives
        p = scn.params
        g0 = channel_gain(aps[0], mt).value
        g1 = channel_gain(aps[1], mt).value

        t0, t1 = (harvest_term_reference(ap, mt) for ap in aps)

        scale = mt.conv_coeff * p.t_d * mt.oe_efficiency
        assert assoc.serving == 0
        assert rel_err(coeffs.a, aps[0].power * g0) <= 1e-12
        assert coeffs.b == pytest.approx(p.n0 * p.b_v, rel=1e-12)
        assert rel_err(coeffs.c, aps[1].power * g1) <= 1e-12
        assert rel_err(coeffs.d, scale * t0 * h_sq) <= 1e-12
        assert rel_err(coeffs.e, scale * t1 * h_sq) <= 1e-12
        assert coeffs.g == pytest.approx(
            p.t_u * p.n0 * mt.rf_distance ** mt.pathloss_exp, rel=1e-12)
        assert coeffs.b1 == p.b_v
        assert coeffs.b2 == p.b_r


class TestTotalRate:
    def test_alpha_zero_drops_downlink(self):
        coeffs = make_coeffs(a=3, b=1, c=0, d=4, e=1, g=1)
        ev = total_rate(coeffs, 0.0)
        assert ev.downlink_term == 0.0
        assert ev.total == pytest.approx(math.log2(1 + 5), rel=1e-12)

    def test_alpha_one_boundary(self):
        coeffs = make_coeffs(a=3, b=1, c=0, d=4, e=2, g=1)
        ev = total_rate(coeffs, 1.0)
        assert ev.total == pytest.approx(math.log2(4) + math.log2(3), rel=1e-12)

    def test_hand_arithmetic_midpoint(self):
        ev = total_rate(make_coeffs(), 0.5)
        # 0.5*log2(4) + log2(3) frozen by hand
        assert ev.total == pytest.approx(1.0 + 1.584962500721156, rel=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            total_rate(make_coeffs(), 1.5)

    def test_decomposition_matches_physical_rates(self):
        scn = make_scenario(aps=[make_ap(1, 2, 3), make_ap(3, 2, 3)],
                            mts=[make_mt(1.5, 2, 1)])
        h_sq = 0.8
        assoc = associate(scn, 0)
        coeffs = reduce_coefficients(scn, 0, assoc, h_sq)
        r_d = downlink_rate(scn, 0, assoc.serving).rate
        for alpha in np.linspace(0, 1, 7):
            r_u = uplink_budget(scn, 0, assoc.serving, alpha, h_sq).rate
            ev = total_rate(coeffs, alpha)
            assert rel_err(ev.total, alpha * r_d + r_u) <= 1e-12

    def test_tradeoff_monotonicity(self):
        rng = np.random.default_rng(3)
        coeffs = random_coeffs(rng)
        grid = np.linspace(0, 1, 100)
        evs = [total_rate(coeffs, a) for a in grid]
        down = [e.downlink_term for e in evs]
        up = [e.uplink_term for e in evs]
        assert all(x <= y for x, y in zip(down, down[1:]))
        assert all(x >= y for x, y in zip(up, up[1:]))


def fd_first(coeffs, alpha, h=1e-6):
    lo = total_rate(coeffs, alpha - h).total
    hi = total_rate(coeffs, alpha + h).total
    return (hi - lo) / (2 * h)


def fd_second(coeffs, alpha, h=1e-3):
    # differences only the uplink term: the downlink part is linear in alpha
    # and would contribute nothing but cancellation noise
    lo = total_rate(coeffs, alpha - h).uplink_term
    mid = total_rate(coeffs, alpha).uplink_term
    hi = total_rate(coeffs, alpha + h).uplink_term
    return (hi - 2 * mid + lo) / (h * h)


class TestDerivatives:
    def test_constant_when_harvest_slope_zero(self):
        coeffs = make_coeffs(d=0.0)
        expected = coeffs.b1 * math.log2(1 + coeffs.a / (coeffs.b + coeffs.c))
        for alpha in (0.0, 0.3, 1.0):
            assert rate_derivative(coeffs, alpha) == pytest.approx(expected)
            assert rate_second_derivative(coeffs, alpha) == 0.0

    def test_negative_without_downlink_gain(self):
        coeffs = make_coeffs(a=0.0)
        for alpha in np.linspace(0, 1, 11):
            assert rate_derivative(coeffs, alpha) < 0.0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_first_derivative_matches_finite_difference(self, alpha):
        rng = np.random.default_rng(11)
        for _ in range(100):
            coeffs = random_coeffs(rng)
            analytic = rate_derivative(coeffs, alpha)
            assert rel_err(analytic, fd_first(coeffs, alpha)) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_second_derivative_matches_finite_difference(self, alpha):
        rng = np.random.default_rng(12)
        for _ in range(100):
            coeffs = random_coeffs(rng)
            analytic = rate_second_derivative(coeffs, alpha)
            assert rel_err(analytic, fd_second(coeffs, alpha)) <= 1e-4

    def test_derivative_consistency_on_grid(self):
        rng = np.random.default_rng(13)
        coeffs = random_coeffs(rng)
        for alpha in np.linspace(0.01, 0.99, 100):
            assert rel_err(rate_derivative(coeffs, alpha),
                           fd_first(coeffs, alpha)) <= 1e-6

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10 ** 9), alpha=st.floats(0, 1))
    def test_concavity_everywhere(self, seed, alpha):
        coeffs = random_coeffs(np.random.default_rng(seed))
        assert rate_second_derivative(coeffs, alpha) <= 0.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_derivative_strictly_decreasing_when_d_positive(self, seed):
        coeffs = random_coeffs(np.random.default_rng(seed))
        grid = np.linspace(0, 1, 20)
        values = [rate_derivative(coeffs, a) for a in grid]
        assert all(x > y for x, y in zip(values, values[1:]))
