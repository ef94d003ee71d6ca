"""Solvers for max R(alpha) on [0, 1]: closed form, bisection, grid oracle.

R is concave with a strictly decreasing derivative whenever the harvest
coefficient d is positive, so the box-constrained maximization reduces to
clamping the unique stationary point.  The closed form works element by
element on batched coefficients.  The iterative route bisects the
derivative sign change instead: one step loop, every instance of a batch
in lockstep, each stopping once two consecutive midpoints are within eps.
The grid oracle brute-forces the objective and is kept deliberately
independent of both.
"""

import math
from dataclasses import dataclass

import numpy as np

from .objective import (LN2, _uplink_curvature, _uplink_slope,
                        downlink_log_term, total_rate)

DEFAULT_EPS = 1e-9


@dataclass(frozen=True)
class OptResult:
    """alpha* with its certificate dR/dalpha - lam + mu = 0, lam, mu >= 0.

    lam multiplies (alpha - 1) <= 0, mu multiplies -alpha <= 0.
    """

    alpha: float
    rate: float                # R(alpha*) [bits/s]
    lam: float
    mu: float
    # (iteration, alpha, bracket_width) per iterate; of a batch, one such
    # tuple per instance
    trace: tuple = ()


def _root(coeffs, big_a):
    # inf or nan where d = 0 or A = 0, or where a ratio overflows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (1.0 + np.divide(coeffs.g + coeffs.e, coeffs.d)
                - np.divide(coeffs.b2, big_a * LN2))


def _tie_rule(coeffs, big_a, alpha):
    # degenerate objectives: an affine R (d = 0) rises with slope A >= 0, so
    # full decoding, constant R included; without downlink (A = 0) it falls
    return np.where(coeffs.d == 0.0, 1.0,
                    np.where(big_a == 0.0, 0.0, alpha))[()]


def _slopes_at_bounds(coeffs, big_a):
    # dR/dalpha at 0 and 1; at 1 it may overflow to -inf, a sign all the same
    with np.errstate(over="ignore"):
        return (big_a - _uplink_slope(coeffs, 0.0),
                big_a - _uplink_slope(coeffs, 1.0))


def _finish(coeffs, alpha, at_zero, at_one, trace=()):
    # each multiplier takes up the outward pull of dR/dalpha at its bound,
    # given as its values at_zero and at_one
    lam = np.where((alpha >= 1.0) & (at_one > 0.0), at_one, 0.0)[()]
    mu = np.where((alpha <= 0.0) & (at_zero < 0.0), -at_zero, 0.0)[()]
    return OptResult(alpha, total_rate(coeffs, alpha).total, lam, mu, trace)


def solve_closed_form(coeffs):
    """Clamp of the stationary point, multipliers recovered at the bindings."""
    big_a = downlink_log_term(coeffs)
    at_zero, at_one = _slopes_at_bounds(coeffs, big_a)
    root = _root(coeffs, big_a)
    # a root lost to inf - inf: the bound the derivative points at
    root = np.where(np.isnan(root), at_zero > 0.0, root)
    alpha = _tie_rule(coeffs, big_a, np.clip(root, 0.0, 1.0))
    return _finish(coeffs, alpha, at_zero, at_one)


def solve_iterative(coeffs, eps=DEFAULT_EPS):
    """Bisection on the strictly decreasing derivative over [0, 1].

    Coefficients may be batched along one axis, as for the closed form; a
    scalar call is a batch of one.  Bisection stops once two consecutive
    midpoints are within eps.  The trace records (iteration, midpoint,
    bracket width) per bisection step, and of a batch holds one such trace
    per instance; boundary-binding instances take no step and have an
    empty trace.  The bisection guarantees a bracket around the sign change
    about eps wide, or of adjacent doubles; two Newton steps from its last
    midpoint, outside the trace, reach the root to a few ulp only from a
    close start (on the two-AP room eps = 0.3 gives alpha 0.526, not 0.499).
    """
    if not 0.0 < eps < math.inf:  # a nan eps would never stop the bisection
        raise ValueError("eps must be finite and > 0")
    big_a = downlink_log_term(coeffs)
    at_zero, at_one = _slopes_at_bounds(coeffs, big_a)
    # boundary binding: the bound the derivative points at, or the tie rule
    alpha = _tie_rule(coeffs, big_a, np.where(at_zero <= 0.0, 0.0, 1.0))
    interior = np.logical_not((at_zero <= 0.0) | (at_one >= 0.0))
    traces = ((),) * interior.size
    if interior.any():
        with np.errstate(over="ignore"):  # an inf slope is a sign all the same
            mids, widths, steps = _bisect(coeffs, big_a, interior.ravel(), eps)
        # a boundary instance reads some midpoint, and its polish is dropped
        last = mids[steps - 1, np.arange(steps.size)].reshape(interior.shape)
        alpha = np.where(interior, _newton_polish(coeffs, big_a, last),
                         alpha)[()]
        traces = tuple(tuple(zip(range(1, k + 1), m[:k], w[:k]))
                       for k, m, w in zip(steps.tolist(), mids.T.tolist(),
                                          widths.T.tolist()))
    return _finish(coeffs, alpha, at_zero, at_one,
                   traces if interior.ndim else traces[0])


def _bisect(coeffs, big_a, live, eps):
    """Lockstep bisection of every instance of a 1-d batch.

    Each step halves every bracket [lo, hi], from [0, 1], and from step 2
    on stops each ``live`` instance whose midpoint is within eps of the
    last.  Returns the midpoints and the bracket widths, one row per step
    and one column per instance, and the step at which each ``live``
    instance stopped (0 for the others).

    It ends for any eps > 0: while a double lies strictly inside a bracket
    the rounded midpoint does too, so each bracket shrinks to two adjacent
    doubles or one, where the midpoint is an end and the next repeats it.
    With finite coefficients 1 - alpha rounds to 1 up to 2**-54, so an
    interior sign change lies above it and its instance stops within about
    108 steps; a nan coefficient halves hi down to 0 in 1074.
    """
    lo, hi = np.zeros(live.shape), np.ones(live.shape)
    mids, widths = [], []
    pending = live.copy()
    steps = np.zeros(live.shape, dtype=int)
    while pending.any():
        mid = 0.5 * (lo + hi)
        up = big_a > _uplink_slope(coeffs, mid)  # dR/dalpha > 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        mids.append(mid)
        widths.append(hi - lo)
        if len(mids) > 1:
            done = pending & (np.abs(mid - mids[-2]) <= eps)
            steps[done] = len(mids)
            pending &= ~done
    return np.vstack(mids), np.vstack(widths), steps


def _newton_polish(coeffs, big_a, alpha):
    # dR/dalpha is smooth and strictly decreasing here; two Newton steps
    # from a close bisection estimate land on the root to a few ulp.
    # An instance stops at a flat slope or a step leaving (0, 1).
    live = np.ones(np.shape(alpha), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2):
            slope = _uplink_curvature(coeffs, alpha)
            live &= slope != 0.0
            candidate = alpha - (big_a - _uplink_slope(coeffs, alpha)) / slope
            live &= (0.0 < candidate) & (candidate < 1.0)
            alpha = np.where(live, candidate, alpha)
    return alpha


def grid_oracle(coeffs, n_points):
    """Brute-force argmax of R over a uniform alpha grid (ties to smallest);
    it certifies nothing: lam = mu = 0 and the trace is empty."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    alphas = np.linspace(0.0, 1.0, n_points)
    values = total_rate(coeffs, alphas).total
    idx = int(np.argmax(values))
    return OptResult(float(alphas[idx]), float(values[idx]), 0.0, 0.0)
