"""Solvers for max R(alpha) on [0, 1]: closed form, bisection, grid oracle.

R is concave with a strictly decreasing derivative whenever the harvest
coefficient d is positive, so the box-constrained maximization reduces to
clamping the unique stationary point.  The closed form works element by
element on batched coefficients.  The iterative route bisects the
derivative sign change of one instance instead; the grid oracle
brute-forces the objective and is kept deliberately independent of both.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .objective import (LN2, downlink_log_term, rate_derivative,
                        rate_second_derivative, total_rate)

DEFAULT_EPS = 1e-9
DEFAULT_MAX_ITER = 200


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
    breakdown: object          # ObjectiveEval at alpha*
    trace: tuple = ()          # (iteration, alpha, bracket_width) per iterate

    @property
    def iterations(self):
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


def _with_multipliers(coeffs, alpha):
    # each multiplier takes up the outward pull of dR/dalpha at its bound
    at_one = rate_derivative(coeffs, 1.0)
    at_zero = rate_derivative(coeffs, 0.0)
    lam = np.where((alpha >= 1.0) & (at_one > 0.0), at_one, 0.0)[()]
    mu = np.where((alpha <= 0.0) & (at_zero < 0.0), -at_zero, 0.0)[()]
    return KktPoint(alpha=alpha, lam=lam, mu=mu)


def _finish(coeffs, kkt, trace=()):
    ev = total_rate(coeffs, kkt.alpha)
    return OptResult(kkt=kkt, rate=ev.total, breakdown=ev, trace=tuple(trace))


def solve_closed_form(coeffs):
    """Clamp of the stationary point, multipliers recovered at the bindings."""
    big_a = downlink_log_term(coeffs)
    alpha = _tie_rule(coeffs, big_a, np.clip(_root(coeffs, big_a), 0.0, 1.0))
    return _finish(coeffs, _with_multipliers(coeffs, alpha))


def solve_iterative(coeffs, eps=DEFAULT_EPS, max_iter=DEFAULT_MAX_ITER):
    """Bisection on the strictly decreasing derivative over [0, 1].

    The trace records (iteration, midpoint, bracket width) per bisection
    step; boundary-binding instances return immediately with an empty
    trace.  A final Newton polish drives the stationarity residual of
    interior solutions to machine precision without touching the trace.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be finite and > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    deriv_at_zero = rate_derivative(coeffs, 0.0)
    if deriv_at_zero <= 0.0 or rate_derivative(coeffs, 1.0) >= 0.0:
        bound = 0.0 if deriv_at_zero <= 0.0 else 1.0
        alpha = _tie_rule(coeffs, downlink_log_term(coeffs), bound)
        return _finish(coeffs, _with_multipliers(coeffs, alpha))

    lo, hi = 0.0, 1.0
    trace = []
    prev = None
    for iteration in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if rate_derivative(coeffs, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        trace.append((iteration, mid, hi - lo))
        if prev is not None and abs(mid - prev) <= eps:
            alpha = _newton_polish(coeffs, mid)
            return _finish(coeffs, _with_multipliers(coeffs, alpha), trace)
        prev = mid
    raise ConvergenceError(f"bisection did not converge in {max_iter} iterations")


def _newton_polish(coeffs, alpha, steps=2):
    # dR/dalpha is smooth and strictly decreasing here; a couple of Newton
    # steps from the bisection estimate land on the root to machine precision
    for _ in range(steps):
        slope = rate_second_derivative(coeffs, alpha)
        if slope == 0.0:
            break
        candidate = alpha - rate_derivative(coeffs, alpha) / slope
        if not 0.0 < candidate < 1.0:
            break
        alpha = candidate
    return alpha


def grid_oracle(coeffs, n_points):
    """Brute-force argmax of R over a uniform alpha grid (ties to smallest)."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    alphas = np.linspace(0.0, 1.0, n_points)
    values = total_rate(coeffs, alphas).total
    idx = int(np.argmax(values))
    return float(alphas[idx]), float(values[idx])
