"""Reduced scalar rate objective in the time-splitting factor alpha.

The joint rate collapses to

    R(alpha) = alpha*b1*log2(1 + a/(b+c)) + b2*log2(1 + ((1-alpha)*d + e)/g)

with eight nonnegative coefficients computed once per (scenario, terminal,
fading draw).  dR/dalpha is the downlink factor less ``_uplink_slope``,
and d2R/dalpha2 is ``_uplink_curvature``, which is never positive, so R is
concave on [0, 1].

Coefficients and alpha may be floats or broadcastable numpy arrays: every
function works element by element, and a scalar call is a batch of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .harvest_uplink import _check_alpha, _libm, _pow

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ReducedCoefficients:
    a: float    # serving-AP received power P_T*G
    b: float    # integrated noise N0*B_v
    c: float    # power-weighted interference sum
    d: float    # serving harvest coefficient times |h|^2
    e: float    # interferer harvest coefficient times |h|^2
    g: float    # uplink noise-and-pathloss product T_u*N0*d^n
    b1: float   # VLC bandwidth
    b2: float   # RF bandwidth


@dataclass(frozen=True)
class ObjectiveEval:
    alpha: float
    total: float           # R(alpha) [bits/s]
    downlink_term: float   # alpha-weighted downlink contribution [bits/s]
    uplink_term: float     # uplink contribution at this alpha [bits/s]


def reduce_coefficients(scn, mt_index, assoc, h_sq):
    """The eight coefficients of ``assoc = associate(scn, mt_index)``.

    An array of fading powers h_sq batches d and e.
    """
    rf_distance, pathloss_exp = scn.mts.row(mt_index, "rf_distance",
                                            "pathloss_exp")
    params = scn.params
    return ReducedCoefficients(
        a=assoc.a,
        b=params.n0 * params.b_v,
        c=assoc.c,
        d=assoc.k1 * h_sq,
        e=assoc.k2 * h_sq,
        g=params.t_u * params.n0 * _pow(rf_distance, pathloss_exp),
        b1=params.b_v,
        b2=params.b_r,
    )


def downlink_log_term(coeffs):
    """The alpha-independent downlink factor b1*log2(1 + a/(b+c))."""
    return coeffs.b1 * _libm(math.log2, 1.0 + coeffs.a / (coeffs.b + coeffs.c))


def total_rate(coeffs, alpha):
    """Evaluate R(alpha) with its downlink and uplink terms."""
    _check_alpha(alpha)
    down = np.multiply(alpha, downlink_log_term(coeffs))
    up = coeffs.b2 * np.log2(
        1.0 + ((1.0 - np.asarray(alpha)) * coeffs.d + coeffs.e) / coeffs.g)
    return ObjectiveEval(alpha=np.asarray(alpha, dtype=float)[()],
                         total=down + up, downlink_term=down, uplink_term=up)


def _uplink_slope(coeffs, alpha):
    # -d(uplink term)/dalpha, for an alpha already known to be in [0, 1]
    return (coeffs.b2 * coeffs.d / LN2) / _uplink_denominator(coeffs, alpha)


def _uplink_curvature(coeffs, alpha):
    # d2R/dalpha2, for an alpha already known to be in [0, 1]
    denom = _uplink_denominator(coeffs, alpha)
    return -(coeffs.b2 * coeffs.d * coeffs.d / LN2) / (denom * denom)


def _uplink_denominator(coeffs, alpha):
    return coeffs.g + coeffs.d * (1.0 - alpha) + coeffs.e
