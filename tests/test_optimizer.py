import dataclasses
import math

import numpy as np
import pytest

import hrvlc.optimizer
from hrvlc import grid_oracle, solve_closed_form, solve_iterative, total_rate
from hrvlc.errors import ConvergenceError
from hrvlc.objective import ReducedCoefficients
from hrvlc.optimizer import _stop_step

from conftest import make_coeffs, random_coeffs
from oracles import (
    DegenerateObjective,
    rate_derivative,
    solve_iterative_reference,
    stationary_alpha,
)

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


def bits(value):
    return np.float64(value).tobytes()


def batch_of(singles):
    return ReducedCoefficients(**{
        f.name: np.array([getattr(c, f.name) for c in singles])
        for f in dataclasses.fields(ReducedCoefficients)})


def mixed_instances(rng, count):
    """Interior, alpha = 0, alpha = 1, d = 0 and A = 0 instances in turn."""
    singles = []
    for i in range(count):
        kind = i % 5
        if kind == 3:
            singles.append(random_coeffs(rng, force="d0"))
        elif kind == 4:
            singles.append(random_coeffs(rng, force="a0"))
        else:
            c = random_coeffs(rng)
            if kind == 1:    # a vanishing downlink: dR/dalpha < 0 at 0
                c = dataclasses.replace(c, a=(c.b + c.c) * 1e-12)
            elif kind == 2:  # a vanishing uplink: dR/dalpha > 0 at 1
                c = dataclasses.replace(c, b2=c.b1 * 1e-12)
            singles.append(c)
    return singles


def assert_matches_reference(res, singles, eps):
    """Each instance of a batch result equals the one-instance reference."""
    for i, coeffs in enumerate(singles):
        alpha, rate, lam, mu, trace = solve_iterative_reference(coeffs, eps)
        assert bits(res.kkt.alpha[i]) == bits(alpha)
        assert bits(res.rate[i]) == bits(rate)
        assert bits(res.kkt.lam[i]) == bits(lam)
        assert bits(res.kkt.mu[i]) == bits(mu)
        assert res.trace[i] == trace


class TestBatchedIterative:
    """The lockstep batch against the step-by-step one-instance reference."""

    @pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.3, 2.0 ** -53, 1e-16,
                                     1e-300])
    def test_batch_matches_reference_bitwise(self, eps):
        singles = mixed_instances(np.random.default_rng(27), 100)
        res = solve_iterative(batch_of(singles), eps=eps)
        assert_matches_reference(res, singles, eps)
        alphas = res.kkt.alpha
        assert np.any((alphas > 0.0) & (alphas < 1.0))
        assert np.all(alphas[1::5] == 0.0) and np.all(alphas[4::5] == 0.0)
        assert np.all(alphas[2::5] == 1.0) and np.all(alphas[3::5] == 1.0)

    def test_scalar_call_is_a_batch_of_one(self):
        rng = np.random.default_rng(28)
        for coeffs in mixed_instances(rng, 50):
            res = solve_iterative(coeffs)
            alpha, rate, lam, mu, trace = solve_iterative_reference(coeffs)
            assert np.ndim(res.kkt.alpha) == 0 and np.ndim(res.rate) == 0
            assert [bits(v) for v in (res.kkt.alpha, res.rate, res.kkt.lam,
                                      res.kkt.mu)] == \
                [bits(v) for v in (alpha, rate, lam, mu)]
            assert res.trace == trace
            assert res.iterations == len(trace)

    @pytest.mark.parametrize("eps, steps", [
        (2.0, 2), (0.25, 2), (0.2, 3), (1e-3, 10), (1e-9, 30),
        (2.0 ** -30, 30), (2.0 ** -30 * (1 + 2 ** -52), 30),
        (2.0 ** -30 * (1 - 2 ** -53), 31), (2.0 ** -53, 53)])
    def test_every_interior_instance_stops_at_k_eps(self, eps, steps):
        assert _stop_step(eps) == steps
        singles = [random_coeffs(np.random.default_rng(29 + i))
                   for i in range(40)]
        res = solve_iterative(batch_of(singles), eps=eps)
        interior = (res.kkt.alpha > 0.0) & (res.kkt.alpha < 1.0)
        assert interior.any()
        assert {len(t) for t, inside in zip(res.trace, interior)
                if inside} == {steps}

    # the pole divides by zero; no reduced coefficients the CLI builds have
    # e < 0, so nothing else may warn
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_instance_whose_sign_rises_keeps_the_batch_exact(self,
                                                             monkeypatch):
        # e < 0 puts a pole at alpha = 0.5 where dR/dalpha jumps from below
        # zero to above it: a boundary instance, but bisected with the rest
        pole = make_coeffs(a=3, b=1, c=0, d=2, e=-2, g=1, b1=1, b2=1)
        singles = [INTERIOR, pole]
        row_calls = []
        denominator = hrvlc.optimizer._uplink_denominator

        def counted(coeffs, alpha):
            row_calls.append(np.ndim(alpha) == 1)
            return denominator(coeffs, alpha)

        monkeypatch.setattr(hrvlc.optimizer, "_uplink_denominator", counted)
        res = solve_iterative(batch_of(singles), eps=1e-9)
        assert_matches_reference(res, singles, 1e-9)
        # the grid's rising sign sends every step down the one-at-a-time path
        assert sum(row_calls) == 30
        row_calls.clear()
        solve_iterative(batch_of([INTERIOR, INTERIOR]), eps=1e-9)
        assert sum(row_calls) == 1

    @pytest.mark.parametrize("batch", [False, True])
    def test_step_budget_below_k_eps_raises(self, batch):
        singles = [INTERIOR, make_coeffs(a=0.0)]
        coeffs = batch_of(singles) if batch else INTERIOR
        with pytest.raises(ConvergenceError):
            solve_iterative_reference(INTERIOR, eps=1e-9, max_iter=29)
        with pytest.raises(ConvergenceError):
            solve_iterative(coeffs, eps=1e-9, max_iter=29)
        res = solve_iterative(coeffs, eps=1e-9, max_iter=30)
        assert len(res.trace[0] if batch else res.trace) == 30
