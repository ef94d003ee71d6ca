"""Solvers for max R(alpha) on [0, 1]: closed form, bisection, grid oracle.

R is concave with a strictly decreasing derivative whenever the harvest
coefficient d is positive, so the box-constrained maximization reduces to
clamping the unique stationary point.  The closed form works element by
element on batched coefficients.  The iterative route bisects the
derivative sign change instead, every instance of a batch in lockstep; the
grid oracle brute-forces the objective and is kept deliberately
independent of both.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .objective import (LN2, _uplink_curvature, _uplink_denominator,
                        _uplink_slope, downlink_log_term, total_rate)

DEFAULT_EPS = 1e-9
DEFAULT_MAX_ITER = 200
_GRID_LEVELS = 6  # bisection steps resolved per evaluation on a grid


@dataclass(frozen=True)
class KktPoint:
    """Primal-dual certificate: dR/dalpha - lam + mu = 0, lam, mu >= 0.

    lam multiplies (alpha - 1) <= 0, mu multiplies -alpha <= 0.
    """

    alpha: float
    lam: float
    mu: float


@dataclass(frozen=True)
class OptResult:
    kkt: KktPoint
    rate: float                # R(alpha*) [bits/s]
    # (iteration, alpha, bracket_width) per iterate; of a batch, one such
    # tuple per instance
    trace: tuple = ()

    @property
    def iterations(self):
        """Bisection steps of a one-instance solve."""
        return len(self.trace)


def _root(coeffs, big_a):
    # inf or nan where d = 0 or A = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return (1.0 + np.divide(coeffs.g + coeffs.e, coeffs.d)
                - np.divide(coeffs.b2, big_a * LN2))


def _tie_rule(coeffs, big_a, alpha):
    # degenerate objectives: an affine R (d = 0) rises with slope A >= 0, so
    # full decoding, constant R included; without downlink (A = 0) it falls
    return np.where(coeffs.d == 0.0, 1.0,
                    np.where(big_a == 0.0, 0.0, alpha))[()]


def _with_multipliers(alpha, at_zero, at_one):
    # each multiplier takes up the outward pull of dR/dalpha at its bound,
    # given as its values at_zero and at_one
    lam = np.where((alpha >= 1.0) & (at_one > 0.0), at_one, 0.0)[()]
    mu = np.where((alpha <= 0.0) & (at_zero < 0.0), -at_zero, 0.0)[()]
    return KktPoint(alpha=alpha, lam=lam, mu=mu)


def _slopes_at_bounds(coeffs, big_a):
    # dR/dalpha at alpha = 0 and at alpha = 1
    return (big_a - _uplink_slope(coeffs, 0.0),
            big_a - _uplink_slope(coeffs, 1.0))


def _finish(coeffs, kkt, trace=()):
    return OptResult(kkt=kkt, rate=total_rate(coeffs, kkt.alpha).total,
                     trace=trace)


def solve_closed_form(coeffs):
    """Clamp of the stationary point, multipliers recovered at the bindings."""
    big_a = downlink_log_term(coeffs)
    alpha = _tie_rule(coeffs, big_a, np.clip(_root(coeffs, big_a), 0.0, 1.0))
    return _finish(coeffs, _with_multipliers(
        alpha, *_slopes_at_bounds(coeffs, big_a)))


def _stop_step(eps):
    """K(eps), the smallest k >= 2 with 2**-k <= eps.

    Bisection on [0, 1] stops at step K(eps) whenever its midpoints are
    exact, which they are through step 53: consecutive midpoints then
    differ by exactly 2**-k.
    """
    return max(2, 1 - math.frexp(eps)[1])


def solve_iterative(coeffs, eps=DEFAULT_EPS, max_iter=DEFAULT_MAX_ITER):
    """Bisection on the strictly decreasing derivative over [0, 1].

    Coefficients may be batched along one axis, as for the closed form; a
    scalar call is a batch of one.  Bisection stops once two consecutive
    midpoints are within eps.  The trace records (iteration, midpoint,
    bracket width) per bisection step, and of a batch holds one such trace
    per instance; boundary-binding instances take no step and have an
    empty trace.  A final Newton polish drives the stationarity residual of
    interior solutions to machine precision without touching the trace.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be finite and > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    big_a = downlink_log_term(coeffs)
    at_zero, at_one = _slopes_at_bounds(coeffs, big_a)
    # boundary binding: the bound the derivative points at, or the tie rule
    alpha = _tie_rule(coeffs, big_a, np.where(at_zero <= 0.0, 0.0, 1.0))
    interior = np.logical_not((at_zero <= 0.0) | (at_one >= 0.0))
    traces = ((),) * interior.size
    if interior.any():
        mids, widths, steps = _bisect(coeffs, big_a, interior.ravel(), eps,
                                      max_iter)
        # a boundary instance reads some midpoint, and its polish is dropped
        last = mids[steps - 1, np.arange(steps.size)].reshape(interior.shape)
        alpha = np.where(interior, _newton_polish(coeffs, big_a, last),
                         alpha)[()]
        traces = tuple(tuple(zip(range(1, k + 1), m[:k], w[:k]))
                       for k, m, w in zip(steps.tolist(), mids.T.tolist(),
                                          widths.T.tolist()))
    kkt = _with_multipliers(alpha, at_zero, at_one)
    return _finish(coeffs, kkt, traces if interior.ndim else traces[0])


def _bisect(coeffs, big_a, live, eps, max_iter):
    """Lockstep bisection of every instance of a 1-d batch.

    Returns the midpoints and the bracket widths, one row per step and one
    column per instance, and the step at which each ``live`` instance
    stopped (0 for the others).
    """
    pull = coeffs.b2 * coeffs.d / LN2

    def rising(alpha):
        # dR/dalpha > 0, as _uplink_slope with its numerator computed once
        return big_a > pull / _uplink_denominator(coeffs, alpha)

    # Through step 53 the midpoints are exact: after k steps the bracket is
    # [lo, lo + 2**-k] with lo a multiple of 2**-k, and no instance stops
    # before step K(eps). The next `levels` steps then visit only points of
    # the grid lo + j*2**-(k + levels). If dR/dalpha > 0 holds on a prefix
    # of that grid, as it does for a decreasing derivative, whichever points
    # they visit they move lo to the prefix's last point.
    first = min(_stop_step(eps), 54)
    lo = np.zeros(live.shape)
    k = 0
    while k < min(first - 1, max_iter):
        levels = min(_GRID_LEVELS, first - 1 - k, max_iter - k)
        step = 0.5 ** (k + levels)
        up = rising(lo + step * np.arange(1.0, 2 ** levels)[:, None])
        if np.any(up[1:] > up[:-1]):
            break  # a sign rises again: take these steps one at a time
        lo = lo + step * up.sum(axis=0)
        k += levels
    # step s + 1 bisects the bracket [lo cut to s bits, that + 2**-s]
    cut = 2.0 ** np.arange(k)[:, None]
    mids = [np.floor(lo * cut) / cut + 0.5 / cut]
    widths = [np.broadcast_to(0.5 / cut, mids[0].shape)]
    hi = lo + 0.5 ** k
    prev = mids[0][k - 1] if k else None
    pending = live.copy()
    steps = np.zeros(live.shape, dtype=int)
    for k in range(k + 1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        up = rising(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        mids.append(mid)
        widths.append(hi - lo)
        if k >= first:
            done = pending & (np.abs(mid - prev) <= eps)
            steps[done] = k
            pending &= ~done
            if not pending.any():
                return np.vstack(mids), np.vstack(widths), steps
        prev = mid
    raise ConvergenceError(f"bisection did not converge in {max_iter} iterations")


def _newton_polish(coeffs, big_a, alpha, steps=2):
    # dR/dalpha is smooth and strictly decreasing here; a couple of Newton
    # steps from the bisection estimate land on the root to machine
    # precision.  An instance stops at a flat slope or a step leaving (0, 1).
    live = np.ones(np.shape(alpha), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            slope = _uplink_curvature(coeffs, alpha)
            live &= slope != 0.0
            candidate = alpha - (big_a - _uplink_slope(coeffs, alpha)) / slope
            live &= (0.0 < candidate) & (candidate < 1.0)
            alpha = np.where(live, candidate, alpha)
    return alpha


def grid_oracle(coeffs, n_points):
    """Brute-force argmax of R over a uniform alpha grid (ties to smallest)."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    alphas = np.linspace(0.0, 1.0, n_points)
    values = total_rate(coeffs, alphas).total
    idx = int(np.argmax(values))
    return float(alphas[idx]), float(values[idx])
