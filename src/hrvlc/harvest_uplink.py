"""Light-energy harvesting under time splitting and the Rician RF uplink.

The downlink slot is shared by information decoding (a fraction ``alpha``)
and energy harvesting (the remaining ``1 - alpha``).  The harvested energy
powers the RF uplink, whose envelope fades with a Rician law.
"""

import itertools
import math

import numpy as np


def _libm(fn, x, *y):
    """The math module's ``fn(x)`` or ``fn(x, y)``, element by element.

    numpy's SIMD pow, log2, cos and sin can differ from libm in the last ulp,
    and libm's values fix the CSV bytes of every command.  ``x`` gives the
    shape: a scalar gives a float, and ``y`` is a scalar or an array shaped
    as x.
    """
    if not getattr(x, "ndim", 0):
        return fn(x, *y)
    columns = [x.ravel().tolist()] + [
        other.ravel().tolist() if getattr(other, "ndim", 0)
        else itertools.repeat(other) for other in y]
    return np.fromiter(map(fn, *columns), float, x.size).reshape(x.shape)


def _pow(x, y):
    """libm's x**y, and inf past the float range, as numpy gives it, where
    the math module raises; every power taken here has a base >= 0."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _harvest_term(power, d, cos_phi, m):
    """P_T^2/d^4 * cos^(2m) of AP links of Lambertian order m, element-wise."""
    return (_libm(_pow, power, 2.0) / _libm(_pow, d, 4.0)
            * _libm(_pow, cos_phi, 2.0 * m))


def rician_envelope(k, omega, x, y):
    """Envelope |h| of Rician factor k and E|h|^2 = omega from normal pairs.

    |h| = sqrt(omega/(1+k)) * |sqrt(k) + (x + 1j*y)/sqrt(2)|, element by
    element over the standard normal arrays x (real part) and y (imaginary).
    """
    z = (x + 1j * y) / math.sqrt(2.0)
    return math.sqrt(omega / (1.0 + k)) * np.abs(math.sqrt(k) + z)
