"""Lambertian line-of-sight channel gain of an AP-to-terminal link."""

import math
from dataclasses import dataclass

from .scenario import link_geometry


@dataclass(frozen=True)
class ChannelGain:
    value: float
    in_fov: bool


def lambertian_order(half_angle):
    """Lambertian emission order m = -1/log2(cos(half_angle))."""
    if not 0 < half_angle < math.pi / 2:
        raise ValueError("half_angle must be in (0, pi/2)")
    return -1.0 / math.log2(math.cos(half_angle))


def concentrator_gain(n_c, fov):
    """Optical concentrator gain n_c^2 / sin^2(fov)."""
    if n_c < 1:
        raise ValueError("refractive index must be >= 1")
    if not 0 < fov <= math.pi / 2:
        raise ValueError("fov must be in (0, pi/2]")
    return n_c * n_c / math.sin(fov) ** 2


def channel_gain(ap, mt):
    """LOS Lambertian gain of an AP-to-MT link; zero outside the FOV."""
    d, cos_angle = link_geometry(ap, mt)
    if cos_angle < math.cos(mt.fov):
        return ChannelGain(0.0, False)
    g = concentrator_gain(mt.refractive_index, mt.fov)
    return ChannelGain(
        _los_gain(mt, g, lambertian_order(ap.half_angle), d, cos_angle), True)


def _los_gain(mt, g, m, d, cos_angle):
    """Gain of an in-FOV link of order m; g is the concentrator gain."""
    return ((m + 1.0) * mt.area * mt.responsivity * cos_angle ** m * cos_angle
            * mt.filter_gain * g) / (2.0 * math.pi * d * d)
