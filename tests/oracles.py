"""Physics, density and CSV oracles that the package itself does not need.

The package optimizes the reduced objective R(alpha).  These functions
rebuild the same quantities link by link from the scenario, so tests can
check the reduction against them, and give the Rician envelope density that
the sampler is checked against.  The cell-by-cell CSV writer is the
reference that the CLI's row-template writer must match byte for byte.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e

from hrvlc import (
    channel_gain,
    harvested_energy,
    lambertian_order,
    link_geometry,
)


@dataclass(frozen=True)
class HarvestConstants:
    """E_H(alpha) = (1 - alpha)*k1 + k2, for feeding ``harvested_energy``."""

    k1: float
    k2: float


@dataclass(frozen=True)
class DownlinkRate:
    sinr: float
    rate: float   # bits/s


@dataclass(frozen=True)
class UplinkRate:
    e_h: float    # harvested energy [J]
    p_h: float    # uplink transmit power [W]
    snr: float
    rate: float   # bits/s


def downlink_rate(scn, mt_index, serving_index):
    """Downlink SINR and rate for one MT served by one AP.

    Interference sums transmit-power-weighted gains of the other in-FOV
    APs; the noise floor is the PSD integrated over the VLC bandwidth.
    """
    mt = scn.mts[mt_index]
    params = scn.params
    serving = scn.aps[serving_index]
    signal = serving.power * channel_gain(serving, mt).value
    interference = 0.0
    for k, ap in enumerate(scn.aps):
        if k == serving_index:
            continue
        interference += ap.power * channel_gain(ap, mt).value
    sinr = signal / (params.n0 * params.b_v + interference)
    return DownlinkRate(sinr=sinr, rate=params.b_v * math.log2(1.0 + sinr))


def uplink_snr(consts, alpha, h_sq, mt, params):
    """Uplink SNR for a given fading power |h|^2 at splitting factor alpha."""
    e_h = harvested_energy(consts, alpha)
    return e_h * h_sq / (params.t_u * params.n0 * mt.rf_distance ** mt.pathloss_exp)


def uplink_rate(snr, params):
    """Uplink rate over the RF bandwidth."""
    return params.b_r * math.log2(1.0 + snr)


def harvest_constants(scn, mt_index, serving_index):
    """k1 and k2 rebuilt link by link from the raw geometry.

    Each AP leaves P_T^2/d^4*cos^(2m) on the harvester; k2 counts every
    AP but the serving one, inside the MT's FOV or not.
    """
    mt = scn.mts[mt_index]
    scale = mt.conv_coeff * scn.params.t_d * mt.oe_efficiency
    k1 = k2 = 0.0
    for k, ap in enumerate(scn.aps):
        d, cos_phi, _ = link_geometry(ap, mt)
        term = ap.power ** 2 / d ** 4 * cos_phi ** (
            2 * lambertian_order(ap.half_angle))
        if k == serving_index:
            k1 = scale * term
        else:
            k2 += scale * term
    return HarvestConstants(k1=k1, k2=k2)


def uplink_budget(scn, mt_index, serving_index, alpha, h_sq):
    """Full uplink chain: harvested energy, transmit power, SNR and rate."""
    consts = harvest_constants(scn, mt_index, serving_index)
    e_h = harvested_energy(consts, alpha)
    snr = uplink_snr(consts, alpha, h_sq, scn.mts[mt_index], scn.params)
    return UplinkRate(e_h=e_h, p_h=e_h / scn.params.t_u, snr=snr,
                      rate=uplink_rate(snr, scn.params))


def rician_pdf(r, k, omega):
    """Rician envelope density; accepts scalars or numpy arrays in r.

    Evaluated via the exponentially scaled Bessel function so large
    arguments do not overflow.
    """
    if k < 0:
        raise ValueError("Rician factor must be >= 0")
    if omega <= 0:
        raise ValueError("omega must be > 0")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("envelope must be >= 0")
    kp1 = 1.0 + k
    bessel_arg = 2.0 * r * math.sqrt(k * kp1 / omega)
    density = (2.0 * r * kp1 / omega) * i0e(bessel_arg) * np.exp(
        -k - r * r * kp1 / omega + bessel_arg)
    return density if density.ndim else float(density)


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv_reference(out_path, header, rows):
    """CSV of ``header`` (a list of names) and ``rows``, cell by cell.

    Strings verbatim, integers in decimal, anything else as a float at 17
    significant digits; UTF-8 with LF line endings.
    """
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
