import dataclasses
import math

import numpy as np
import pytest

from hrvlc import (
    ReducedCoefficients,
    grid_oracle,
    rate_derivative,
    solve_closed_form,
    solve_iterative,
    total_rate,
)

from conftest import make_coeffs, random_coeffs
from oracles import DegenerateObjective, stationary_alpha

INTERIOR = make_coeffs(a=3, b=1, c=0, d=4, e=0, g=1, b1=1, b2=1)
# frozen: 1 + 1/4 - 1/(2*ln 2)
INTERIOR_ALPHA = 0.5286524795555183


def dense_bisection_root(coeffs, lo=0.0, hi=1.0, iters=80):
    # oracle: locate the derivative sign change without the closed form
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if rate_derivative(coeffs, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStationaryAlpha:
    def test_interior_example_matches_frozen_value(self):
        assert stationary_alpha(INTERIOR) == pytest.approx(
            INTERIOR_ALPHA, abs=1e-12)

    def test_interior_example_matches_dense_bisection(self):
        assert stationary_alpha(INTERIOR) == pytest.approx(
            dense_bisection_root(INTERIOR), abs=1e-12)

    def test_downlink_dominant_exceeds_one(self):
        coeffs = make_coeffs(a=1e9, d=4.0, b2=1e-3)
        assert stationary_alpha(coeffs) > 1.0

    def test_zero_downlink_signals_degenerate(self):
        with pytest.raises(DegenerateObjective):
            stationary_alpha(make_coeffs(a=0.0))

    def test_zero_harvest_slope_signals_degenerate(self):
        with pytest.raises(DegenerateObjective):
            stationary_alpha(make_coeffs(d=0.0))

    def test_derivative_vanishes_at_stationary_point(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 50:
            coeffs = random_coeffs(rng)
            alpha = stationary_alpha(coeffs)
            if not 0 <= alpha <= 1:
                continue
            scale = max(1.0, abs(rate_derivative(coeffs, 0.0)))
            assert abs(rate_derivative(coeffs, alpha)) <= 1e-9 * scale
            checked += 1


def assert_kkt(coeffs, res, scale=None):
    kkt = res.kkt
    assert 0.0 <= kkt.alpha <= 1.0
    assert kkt.lam >= 0.0
    assert kkt.mu >= 0.0
    assert abs(kkt.lam * (kkt.alpha - 1.0)) <= 1e-12
    assert abs(kkt.mu * kkt.alpha) <= 1e-12
    if scale is None:
        scale = max(1.0, abs(rate_derivative(coeffs, 0.0)))
    residual = rate_derivative(coeffs, kkt.alpha) - kkt.lam + kkt.mu
    assert abs(residual) <= 1e-9 * scale


class TestClosedForm:
    def test_downlink_dominant_binds_upper(self):
        res = solve_closed_form(make_coeffs(a=1e9, b2=1e-3))
        assert res.kkt.alpha == 1.0
        assert res.kkt.lam > 0.0
        assert res.kkt.mu == 0.0

    def test_no_downlink_binds_lower(self):
        res = solve_closed_form(make_coeffs(a=0.0))
        assert res.kkt.alpha == 0.0
        assert res.kkt.mu > 0.0
        assert res.kkt.lam == 0.0

    def test_interior_example_agrees_with_grid(self):
        res = solve_closed_form(INTERIOR)
        assert res.kkt.alpha == pytest.approx(INTERIOR_ALPHA, abs=1e-12)
        assert res.kkt.lam == 0.0 and res.kkt.mu == 0.0
        alpha_hat, _ = grid_oracle(INTERIOR, 10 ** 5)
        assert abs(res.kkt.alpha - alpha_hat) <= 1e-4

    def test_affine_objective_boundary_rule(self):
        assert solve_closed_form(make_coeffs(d=0.0)).kkt.alpha == 1.0
        assert solve_closed_form(make_coeffs(a=0.0, d=0.0)).kkt.alpha == 1.0

    def test_kkt_certificate_randomized(self):
        rng = np.random.default_rng(22)
        for i in range(200):
            force = ("a0", "d0", None)[i % 3]
            coeffs = random_coeffs(rng, force=force)
            res = solve_closed_form(coeffs)
            assert_kkt(coeffs, res)
            assert res.rate == total_rate(coeffs, res.kkt.alpha).total

    def test_batch_equals_batches_of_one_bitwise(self):
        rng = np.random.default_rng(26)
        singles = [random_coeffs(rng, force=("a0", "d0", None)[i % 3])
                   for i in range(300)]
        batch = ReducedCoefficients(**{
            f.name: np.array([getattr(c, f.name) for c in singles])
            for f in dataclasses.fields(ReducedCoefficients)})
        res = solve_closed_form(batch)
        ones = [solve_closed_form(c) for c in singles]
        for got, one in ((res.kkt.alpha, [r.kkt.alpha for r in ones]),
                         (res.rate, [r.rate for r in ones]),
                         (res.kkt.lam, [r.kkt.lam for r in ones]),
                         (res.kkt.mu, [r.kkt.mu for r in ones])):
            assert got.tobytes() == np.array(one, dtype=float).tobytes()
        alphas = res.kkt.alpha
        assert np.any(alphas == 0.0) and np.any(alphas == 1.0)
        assert np.any((alphas > 0.0) & (alphas < 1.0))


class TestIterative:
    def test_interior_converges_within_bisection_bound(self):
        res = solve_iterative(INTERIOR, eps=1e-9)
        assert res.iterations <= math.ceil(math.log2(1e9)) + 1
        assert res.kkt.alpha == pytest.approx(INTERIOR_ALPHA, abs=2e-9)

    def test_boundary_returns_without_bisection(self):
        res = solve_iterative(make_coeffs(a=0.0))
        assert res.kkt.alpha == 0.0
        assert res.trace == ()
        res = solve_iterative(make_coeffs(a=1e9, b2=1e-3))
        assert res.kkt.alpha == 1.0
        assert res.trace == ()

    def test_trace_bracket_width_halves_exactly(self):
        res = solve_iterative(INTERIOR, eps=1e-9)
        widths = [w for _, _, w in res.trace]
        assert widths[0] == 0.5
        for a, b in zip(widths, widths[1:]):
            assert b == a / 2

    def test_matches_closed_form_randomized(self):
        rng = np.random.default_rng(23)
        eps = 1e-9
        for i in range(300):
            force = ("a0", "d0", None)[i % 3]
            coeffs = random_coeffs(rng, force=force)
            alpha_it = solve_iterative(coeffs, eps=eps).kkt.alpha
            alpha_cf = solve_closed_form(coeffs).kkt.alpha
            assert abs(alpha_it - alpha_cf) <= 2 * eps

    def test_kkt_certificate_randomized(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            coeffs = random_coeffs(rng)
            assert_kkt(coeffs, solve_iterative(coeffs))

    def test_rejects_bad_arguments(self):
        for eps in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError):
                solve_iterative(INTERIOR, eps=eps)
        with pytest.raises(ValueError):
            solve_iterative(INTERIOR, max_iter=0)


class TestGridOracle:
    def test_affine_decreasing_picks_zero(self):
        alpha, _ = grid_oracle(make_coeffs(a=0.0), 101)
        assert alpha == 0.0

    def test_affine_increasing_picks_one(self):
        alpha, _ = grid_oracle(make_coeffs(d=0.0), 101)
        assert alpha == 1.0

    def test_interior_example(self):
        alpha, value = grid_oracle(INTERIOR, 10 ** 5)
        assert abs(alpha - INTERIOR_ALPHA) <= 1e-4
        assert value == total_rate(INTERIOR, alpha).total

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            grid_oracle(INTERIOR, 1)

    def test_optimality_certificate_randomized(self):
        rng = np.random.default_rng(25)
        grid = np.linspace(0, 1, 10 ** 4)
        for _ in range(50):
            coeffs = random_coeffs(rng)
            res = solve_closed_form(coeffs)
            values = total_rate(coeffs, grid).total
            assert np.all(res.rate >= values - 1e-8 * abs(res.rate))
