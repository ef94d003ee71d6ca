"""Light-energy harvesting under time splitting and the Rician RF uplink.

The downlink slot is shared by information decoding (a fraction ``alpha``)
and energy harvesting (the remaining ``1 - alpha``).  The harvested energy
powers the RF uplink, whose envelope fades with a Rician law.
"""

import math

import numpy as np


def _libm(fn, x, *y):
    """The math module's ``fn(x)`` or ``fn(x, y)``, element by element.

    numpy's SIMD pow, log2, cos and sin can differ from libm in the last ulp,
    and libm's values fix the CSV bytes of every command.  ``x`` gives the
    shape: a scalar gives a float, and ``y`` is an array shaped as x.
    """
    if not getattr(x, "ndim", 0):
        return fn(x, *y)
    columns = [column.ravel().tolist() for column in (x, *y)]
    return np.fromiter(map(fn, *columns), float, x.size).reshape(x.shape)


def _pow(x, y):
    """libm's x**y, and inf past the float range, as numpy gives it, where
    the math module raises; every power taken here has a base >= 0."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def rician_envelope(k, omega, x, y):
    """Envelope |h| of Rician factor k and E|h|^2 = omega from normal pairs.

    |h| = sqrt(omega/(1+k)) * hypot(sqrt(k) + x/sqrt(2), y/sqrt(2)), element
    by element over the standard normal arrays x (in phase) and y (quadrature).
    """
    root2 = math.sqrt(2.0)
    return math.sqrt(omega / (1.0 + k)) * np.hypot(math.sqrt(k) + x / root2,
                                                    y / root2)
