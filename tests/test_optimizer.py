import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hrvlc.optimizer
from hrvlc import grid_oracle, solve_closed_form, solve_iterative, total_rate
from hrvlc.objective import (ReducedCoefficients, _uplink_slope,
                             downlink_log_term)

from conftest import make_coeffs, random_coeffs
from oracles import (
    DegenerateObjective,
    exact_optimum,
    exact_rate,
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
    assert 0.0 <= res.alpha <= 1.0
    assert res.lam >= 0.0
    assert res.mu >= 0.0
    assert abs(res.lam * (res.alpha - 1.0)) <= 1e-12
    assert abs(res.mu * res.alpha) <= 1e-12
    if scale is None:
        scale = max(1.0, abs(rate_derivative(coeffs, 0.0)))
    residual = rate_derivative(coeffs, res.alpha) - res.lam + res.mu
    assert abs(residual) <= 1e-9 * scale


class TestClosedForm:
    def test_downlink_dominant_binds_upper(self):
        res = solve_closed_form(make_coeffs(a=1e9, b2=1e-3))
        assert res.alpha == 1.0
        assert res.lam > 0.0
        assert res.mu == 0.0

    def test_no_downlink_binds_lower(self):
        res = solve_closed_form(make_coeffs(a=0.0))
        assert res.alpha == 0.0
        assert res.mu > 0.0
        assert res.lam == 0.0

    def test_interior_example_agrees_with_grid(self):
        res = solve_closed_form(INTERIOR)
        assert res.alpha == pytest.approx(INTERIOR_ALPHA, abs=1e-12)
        assert res.lam == 0.0 and res.mu == 0.0
        alpha_hat = grid_oracle(INTERIOR, 10 ** 5).alpha
        assert abs(res.alpha - alpha_hat) <= 1e-4

    def test_affine_objective_boundary_rule(self):
        assert solve_closed_form(make_coeffs(d=0.0)).alpha == 1.0
        assert solve_closed_form(make_coeffs(a=0.0, d=0.0)).alpha == 1.0

    @pytest.mark.parametrize("b2, d, alpha", [(1.0, 1e-300, 1.0),
                                              (1e300, 1e-10, 0.0)])
    def test_root_lost_to_inf_minus_inf_takes_the_bound(self, b2, d, alpha):
        # (g + e)/d and b2/(A ln 2) both overflow, so the stationary point
        # is nan: the bound dR/dalpha points at, as the bisection takes it
        coeffs = make_coeffs(b1=5e-324, g=1e300, b2=b2, d=d)
        assert np.isnan(stationary_alpha(coeffs))
        res = solve_closed_form(coeffs)
        assert res.alpha == solve_iterative(coeffs).alpha == alpha
        assert_kkt(coeffs, res)

    def test_kkt_certificate_randomized(self):
        rng = np.random.default_rng(22)
        for i in range(200):
            force = ("a0", "d0", None)[i % 3]
            coeffs = random_coeffs(rng, force=force)
            res = solve_closed_form(coeffs)
            assert_kkt(coeffs, res)
            assert res.rate == total_rate(coeffs, res.alpha).total

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_within_a_few_ulp_of_the_exact_optimum(self, seed):
        # alpha* = 1 + q - p loses about an ulp of each term to rounding,
        # and p carries A's error; R* is well conditioned.  Over 120000
        # seeds (x86-64, numpy 2.4.6) the alpha error reached 0.94 of the
        # bound with 1 ulp a term, and R*'s relative error 1.7 ulp.
        coeffs = random_coeffs(np.random.default_rng(seed))
        res = solve_closed_form(coeffs)
        exact = exact_optimum(coeffs)
        eps = np.finfo(float).eps
        with mpmath.workdps(60):
            big_a = float(downlink_log_term(coeffs))
            bound = (2 * eps * (1 + abs(exact.q) + abs(exact.p))
                     + abs(exact.p * (big_a - exact.big_a) / exact.big_a))
            assert abs(float(res.alpha) - exact.alpha) <= bound
            assert abs(float(res.rate) - exact.rate) <= 4 * eps * exact.rate

    def test_batch_equals_batches_of_one_bitwise(self):
        rng = np.random.default_rng(26)
        singles = [random_coeffs(rng, force=("a0", "d0", None)[i % 3])
                   for i in range(300)]
        batch = ReducedCoefficients(**{
            f.name: np.array([getattr(c, f.name) for c in singles])
            for f in dataclasses.fields(ReducedCoefficients)})
        res = solve_closed_form(batch)
        ones = [solve_closed_form(c) for c in singles]
        for got, one in ((res.alpha, [r.alpha for r in ones]),
                         (res.rate, [r.rate for r in ones]),
                         (res.lam, [r.lam for r in ones]),
                         (res.mu, [r.mu for r in ones])):
            assert got.tobytes() == np.array(one, dtype=float).tobytes()
        alphas = res.alpha
        assert np.any(alphas == 0.0) and np.any(alphas == 1.0)
        assert np.any((alphas > 0.0) & (alphas < 1.0))


class TestIterative:
    def test_interior_converges_within_bisection_bound(self):
        res = solve_iterative(INTERIOR, eps=1e-9)
        assert len(res.trace) <= math.ceil(math.log2(1e9)) + 1
        assert res.alpha == pytest.approx(INTERIOR_ALPHA, abs=2e-9)

    def test_boundary_returns_without_bisection(self):
        res = solve_iterative(make_coeffs(a=0.0))
        assert res.alpha == 0.0
        assert res.trace == ()
        res = solve_iterative(make_coeffs(a=1e9, b2=1e-3))
        assert res.alpha == 1.0
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
            alpha_it = solve_iterative(coeffs, eps=eps).alpha
            alpha_cf = solve_closed_form(coeffs).alpha
            assert abs(alpha_it - alpha_cf) <= 2 * eps

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_within_a_few_ulp_of_the_exact_optimum(self, seed):
        # the Newton polish lands within a few ulp of the exact root: the
        # closed form's bound with 4 eps a term in place of 2, and R* is
        # well conditioned.
        # Over seeds 0-27999 (10807 interior; x86-64, numpy 2.4.6) the alpha
        # error reached 0.80 of this bound (0.88 of the closed form's), and
        # R*'s relative error 1.36 ulp.
        coeffs = random_coeffs(np.random.default_rng(seed))
        res = solve_iterative(coeffs)
        exact = exact_optimum(coeffs)
        eps = np.finfo(float).eps
        with mpmath.workdps(60):
            big_a = float(downlink_log_term(coeffs))
            bound = (4 * eps * (1 + abs(exact.q) + abs(exact.p))
                     + abs(exact.p * (big_a - exact.big_a) / exact.big_a))
            assert abs(float(res.alpha) - exact.alpha) <= bound
            assert abs(float(res.rate) - exact.rate) <= 4 * eps * exact.rate

    def test_kkt_certificate_randomized(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            coeffs = random_coeffs(rng)
            assert_kkt(coeffs, solve_iterative(coeffs))

    def test_rejects_bad_arguments(self):
        for eps in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError):
                solve_iterative(INTERIOR, eps=eps)


class TestGridOracle:
    def test_affine_decreasing_picks_zero(self):
        alpha = grid_oracle(make_coeffs(a=0.0), 101).alpha
        assert alpha == 0.0

    def test_affine_increasing_picks_one(self):
        alpha = grid_oracle(make_coeffs(d=0.0), 101).alpha
        assert alpha == 1.0

    def test_interior_example(self):
        res = grid_oracle(INTERIOR, 10 ** 5)
        assert abs(res.alpha - INTERIOR_ALPHA) <= 1e-4
        assert res.rate == total_rate(INTERIOR, res.alpha).total
        # the grid certifies nothing
        assert (res.lam, res.mu, res.trace) == (0.0, 0.0, ())

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            grid_oracle(INTERIOR, 1)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_within_a_few_ulp_of_the_exact_rate(self, seed):
        # the grid's rate is R at its own alpha to 4 ulp, so it exceeds the
        # exact R* by no more.  Over seeds 0-2999 at 10001 points (x86-64,
        # numpy 2.4.6) the first error reached 1.06 ulp; 910 rates rounded
        # above R*, by at most 0.97 ulp
        coeffs = random_coeffs(np.random.default_rng(seed))
        res = grid_oracle(coeffs, 10001)
        exact = exact_rate(coeffs, res.alpha)
        best = exact_optimum(coeffs).rate
        eps = np.finfo(float).eps
        with mpmath.workdps(60):
            assert exact <= best
            assert abs(float(res.rate) - exact) <= 4 * eps * exact
            assert float(res.rate) <= best * (1 + 4 * eps)

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
        assert bits(res.alpha[i]) == bits(alpha)
        assert bits(res.rate[i]) == bits(rate)
        assert bits(res.lam[i]) == bits(lam)
        assert bits(res.mu[i]) == bits(mu)
        assert res.trace[i] == trace


class TestBatchedIterative:
    """The lockstep batch against the step-by-step one-instance reference."""

    @pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.3, 2.0 ** -53, 1e-16,
                                     1e-300])
    def test_batch_matches_reference_bitwise(self, eps):
        singles = mixed_instances(np.random.default_rng(27), 100)
        res = solve_iterative(batch_of(singles), eps=eps)
        assert_matches_reference(res, singles, eps)
        alphas = res.alpha
        assert np.any((alphas > 0.0) & (alphas < 1.0))
        assert np.all(alphas[1::5] == 0.0) and np.all(alphas[4::5] == 0.0)
        assert np.all(alphas[2::5] == 1.0) and np.all(alphas[3::5] == 1.0)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 9), eps=st.one_of(
        st.floats(-1074.0, 2.0).map(lambda e: 2.0 ** e),
        # 2**k and its neighbours one ulp away, k often where midpoints
        # are exact and consecutive ones differ by exactly 2**-k
        st.one_of(st.integers(-60, 2), st.integers(-1074, 2)).flatmap(
            lambda k: st.sampled_from([
                2.0 ** k, math.nextafter(2.0 ** k, 0.0),
                math.nextafter(2.0 ** k, math.inf)])).filter(
                    lambda e: e > 0.0)))
    def test_batch_matches_reference_at_any_eps(self, seed, eps):
        # eps log-uniform down to the smallest subnormal: each instance
        # stops at the step the reference stops at
        singles = mixed_instances(np.random.default_rng(seed), 20)
        assert_matches_reference(solve_iterative(batch_of(singles), eps=eps),
                                 singles, eps)

    def test_scalar_call_is_a_batch_of_one(self):
        rng = np.random.default_rng(28)
        for coeffs in mixed_instances(rng, 50):
            res = solve_iterative(coeffs)
            alpha, rate, lam, mu, trace = solve_iterative_reference(coeffs)
            assert np.ndim(res.alpha) == 0 and np.ndim(res.rate) == 0
            assert [bits(v) for v in (res.alpha, res.rate, res.lam,
                                      res.mu)] == \
                [bits(v) for v in (alpha, rate, lam, mu)]
            assert res.trace == trace
            assert len(res.trace) == len(trace)

    @pytest.mark.parametrize("eps, steps", [
        (2.0, 2), (0.25, 2), (0.2, 3), (1e-3, 10), (1e-9, 30),
        (2.0 ** -30, 30), (2.0 ** -30 * (1 + 2 ** -52), 30),
        (2.0 ** -30 * (1 - 2 ** -53), 31), (2.0 ** -53, 53)])
    def test_every_interior_instance_stops_at_k_eps(self, eps, steps):
        # README's K(eps): the smallest k >= 2 with 2**-k <= eps
        assert max(2, 1 - math.frexp(eps)[1]) == steps
        singles = [random_coeffs(np.random.default_rng(29 + i))
                   for i in range(40)]
        res = solve_iterative(batch_of(singles), eps=eps)
        interior = (res.alpha > 0.0) & (res.alpha < 1.0)
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
        slope = hrvlc.optimizer._uplink_slope

        def counted(coeffs, alpha):
            row_calls.append(np.ndim(alpha) == 1)
            return slope(coeffs, alpha)

        monkeypatch.setattr(hrvlc.optimizer, "_uplink_slope", counted)
        res = solve_iterative(batch_of(singles), eps=1e-9)
        assert_matches_reference(res, singles, 1e-9)
        # one sign test per bisection step, two more for the Newton polish,
        # whether or not a sign in the batch rises along the bracket
        assert sum(row_calls) == 30 + 2
        row_calls.clear()
        solve_iterative(batch_of([INTERIOR, INTERIOR]), eps=1e-9)
        assert sum(row_calls) == 30 + 2


class TestStepBound:
    """At the smallest eps, bisection runs until two midpoints coincide.

    For finite coefficients the sign change lies above 2**-54, where
    1 - alpha rounds to 1, so no instance needs more than 108 steps.
    """

    EPS = 5e-324

    def test_random_draws_stop_within_the_bound(self):
        rng = np.random.default_rng(30)
        singles = [random_coeffs(rng) for _ in range(500)]
        res = solve_iterative(batch_of(singles), eps=self.EPS)
        assert_matches_reference(res, singles, self.EPS)
        assert 0 < max(len(t) for t in res.trace) <= 108

    def test_sign_change_near_zero_stops_within_the_bound(self):
        # b2 scaled so that the uplink slope at 0 is A*(1 - 2**-k): the sign
        # change falls to about 2**-k, and each step halves a bracket that
        # ends at adjacent doubles there; k = 52 or so takes the most steps
        scale = downlink_log_term(INTERIOR) / _uplink_slope(INTERIOR, 0.0)
        family = [dataclasses.replace(INTERIOR,
                                      b2=INTERIOR.b2 * scale * (1 - 2.0 ** -k))
                  for k in range(200)]
        res = solve_iterative(batch_of(family), eps=self.EPS)
        assert_matches_reference(res, family, self.EPS)
        steps = [len(t) for t in res.trace]
        assert sum(n > 0 for n in steps) > 40
        assert 100 <= max(steps) <= 108

    def test_nan_coefficient_returns(self):
        # nan compares false, so lo stays at 0 and hi halves down to 0
        singles = [INTERIOR, make_coeffs(b2=math.nan)]
        res = solve_iterative(batch_of(singles), eps=self.EPS)
        assert_matches_reference(res, singles, self.EPS)
        assert res.alpha[1] == 5e-324 and len(res.trace[1]) == 1074
