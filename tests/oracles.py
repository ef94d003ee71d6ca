"""Physics, density, solver, CSV and SVG oracles the package does not need.

The package optimizes the reduced objective R(alpha).  These functions
rebuild the same quantities link by link from the scenario, in Python
floats, so tests can check the reduction and the one-array-pass
association against them bit for bit; give the harvested energy that
``sweep`` writes, the checked first and second derivatives of R over the
solvers' kernels, the Rician envelope density and a reference sampler
that the fading draws are checked against, and the unconstrained
stationary point that the solvers clamp, and the closed form's optimum
at 60 digits that bounds its error.  The
cell-by-cell CSV writer and the point-by-point chart renderer are the
references that the CLI's row-template writer and its array-pass chart
must match byte for byte.  The draw-by-draw fading power
and the one-instance bisection are the references that the CLI's batched
fading draws and the lockstep batched bisection must match bit for bit.
"""

import csv
import math
from collections import namedtuple
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.special import i0e

from hrvlc import total_rate
from hrvlc.errors import (ConvergenceError, HrvlcError, MalformedCsvError,
                          NoCoverageError)
from hrvlc.objective import (
    _check_alpha,
    _uplink_curvature,
    _uplink_slope,
    downlink_log_term,
)
from hrvlc.optimizer import _root
from hrvlc.scenario import Association

# one AP: position (x, y, z) [m], optical power [W], half angle [rad]
Ap = namedtuple("Ap", "position power half_angle")
# one MT: position (x, y, z) [m], then one value per MtTable column, named
# as the column
Mt = namedtuple("Mt", "position area responsivity filter_gain "
                "refractive_index fov conv_coeff oe_efficiency pathloss_exp "
                "rician_k rician_omega rf_distance")


def _rows(table, row_type):
    columns = [getattr(table, name).tolist() for name in row_type._fields]
    columns[0] = map(tuple, columns[0])
    return [row_type(*row) for row in zip(*columns)]


def ap_rows(aps):
    """The APs of an ``ApTable`` as ``Ap`` rows of floats, in AP order."""
    return _rows(aps, Ap)


def mt_rows(mts):
    """The MTs of an ``MtTable`` as ``Mt`` rows of floats, in MT order."""
    return _rows(mts, Mt)


def link_reference(ap, mt):
    """Distance and cosine of one AP-to-MT link, in Python floats."""
    (ax, ay, az), (mx, my, mz) = ap.position, mt.position
    dx, dy, dz = ax - mx, ay - my, az - mz
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    return d, dz / d


def lambertian_order_reference(half_angle):
    return -1.0 / math.log2(math.cos(half_angle))


@dataclass(frozen=True)
class ChannelGain:
    value: float
    in_fov: bool


def channel_gain(ap, mt):
    """LOS Lambertian gain of one AP-to-MT link; zero outside the FOV.

    The gain ``associate`` computes for the link in its array pass, here in
    Python floats with the same operations in the same order.
    """
    d, cos_angle = link_reference(ap, mt)
    if cos_angle < math.cos(mt.fov):
        return ChannelGain(0.0, False)
    sin = math.sin(mt.fov)
    g = mt.refractive_index * mt.refractive_index / (sin * sin)
    m = lambertian_order_reference(ap.half_angle)
    return ChannelGain(((m + 1.0) * mt.area * mt.responsivity * cos_angle ** m
                        * cos_angle * mt.filter_gain * g)
                       / (2.0 * math.pi * d * d), True)


def harvest_term_reference(ap, mt):
    """P_T^2/d^4 * cos^(2m) of one AP-to-MT link, in Python floats, its
    integer powers as products of cos^m and d^2 as ``associate`` takes them."""
    d, cos_angle = link_reference(ap, mt)
    cos_m = cos_angle ** lambertian_order_reference(ap.half_angle)
    d_sq = d * d
    return (ap.power * ap.power / (d_sq * d_sq)) * (cos_m * cos_m)


def associate_reference(scn, mt_index):
    """``associate`` AP by AP in Python floats.

    The strongest gain serves, ties to the lowest index, and ``c`` and
    ``k2`` add the other APs' terms from 0.0 in an explicit ``acc += x``
    loop in AP order, as ``sum`` did before Python 3.12 began to compensate.
    """
    mt = mt_rows(scn.mts)[mt_index]
    best, best_gain = None, 0.0
    powers, terms = [], []
    for k, ap in enumerate(ap_rows(scn.aps)):
        gain = channel_gain(ap, mt).value
        if gain > best_gain:
            best, best_gain = k, gain
        powers.append(ap.power * gain)
        terms.append(harvest_term_reference(ap, mt))
    if best is None:
        raise NoCoverageError(f"mt {mt_index}: no AP serves")
    c = k2 = 0.0
    for k, (power, term) in enumerate(zip(powers, terms)):
        if k != best:
            c += power
            k2 += term
    scale = mt.conv_coeff * scn.params.t_d * mt.oe_efficiency
    return Association(serving=best, a=powers[best], c=c,
                       k1=scale * terms[best], k2=scale * k2)


def rate_derivative(coeffs, alpha):
    """dR/dalpha from the solvers' unchecked kernel, alpha checked first."""
    _check_alpha(alpha)
    return downlink_log_term(coeffs) - _uplink_slope(coeffs, alpha)


def rate_second_derivative(coeffs, alpha):
    """d2R/dalpha2 from the solvers' unchecked kernel; never positive."""
    _check_alpha(alpha)
    return _uplink_curvature(coeffs, alpha)


def harvested_energy(consts, alpha):
    """E_H(alpha) = (1 - alpha)*k1 + k2 of an ``Association``, as ``sweep``
    writes its E_H column; alpha may be a float, an array or a list."""
    _check_alpha(alpha)
    return (1.0 - np.asarray(alpha)) * consts.k1 + consts.k2


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
    mt = mt_rows(scn.mts)[mt_index]
    params = scn.params
    aps = ap_rows(scn.aps)
    serving = aps[serving_index]
    signal = serving.power * channel_gain(serving, mt).value
    interference = 0.0
    for k, ap in enumerate(aps):
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
    mt = mt_rows(scn.mts)[mt_index]
    scale = mt.conv_coeff * scn.params.t_d * mt.oe_efficiency
    k1 = k2 = 0.0
    for k, ap in enumerate(ap_rows(scn.aps)):
        term = harvest_term_reference(ap, mt)
        if k == serving_index:
            k1 = scale * term
        else:
            k2 += scale * term
    return HarvestConstants(k1=k1, k2=k2)


def uplink_budget(scn, mt_index, serving_index, alpha, h_sq):
    """Full uplink chain: harvested energy, transmit power, SNR and rate."""
    consts = harvest_constants(scn, mt_index, serving_index)
    e_h = harvested_energy(consts, alpha)
    snr = uplink_snr(consts, alpha, h_sq, mt_rows(scn.mts)[mt_index],
                     scn.params)
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


def rician_reference(k, omega, rng, n):
    """n envelope samples: n in-phase normals from ``rng``, then n
    quadrature ones, each pair's modulus taken by libm's hypot."""
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    return math.sqrt(omega / (1.0 + k)) * np.hypot(
        math.sqrt(k) + x / math.sqrt(2.0), y / math.sqrt(2.0))


def fading_power_reference(k, omega, seed, draw_index):
    """|h|^2 of one fading draw, from its own generator (seed, draw_index)."""
    rng = np.random.default_rng([seed, draw_index])
    h = float(rician_reference(k, omega, rng, 1)[0])
    return h * h


def solve_iterative_reference(coeffs, eps=1e-9, max_iter=200):
    """(alpha, rate, lam, mu, trace) of one instance, bisected step by step.

    The trace holds (iteration, midpoint, bracket width) per step and is
    empty when a bound binds.  Two Newton steps polish an interior alpha.
    """
    at_zero = rate_derivative(coeffs, 0.0)
    at_one = rate_derivative(coeffs, 1.0)
    trace = []
    if at_zero <= 0.0 or at_one >= 0.0:
        # d = 0 rises to full decoding, A = 0 falls to none
        if coeffs.d == 0.0:
            alpha = 1.0
        elif downlink_log_term(coeffs) == 0.0:
            alpha = 0.0
        else:
            alpha = 0.0 if at_zero <= 0.0 else 1.0
    else:
        lo, hi = 0.0, 1.0
        prev = None
        for iteration in range(1, max_iter + 1):
            mid = 0.5 * (lo + hi)
            if rate_derivative(coeffs, mid) > 0.0:
                lo = mid
            else:
                hi = mid
            trace.append((iteration, mid, hi - lo))
            if prev is not None and abs(mid - prev) <= eps:
                break
            prev = mid
        else:
            raise ConvergenceError(
                f"bisection did not converge in {max_iter} iterations")
        alpha = mid
        for _ in range(2):
            slope = rate_second_derivative(coeffs, alpha)
            if slope == 0.0:
                break
            candidate = alpha - rate_derivative(coeffs, alpha) / slope
            if not 0.0 < candidate < 1.0:
                break
            alpha = candidate
    lam = at_one if alpha >= 1.0 and at_one > 0.0 else 0.0
    mu = -at_zero if alpha <= 0.0 and at_zero < 0.0 else 0.0
    return alpha, total_rate(coeffs, alpha).total, lam, mu, tuple(trace)


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


class DegenerateObjective(HrvlcError):
    """The rate objective has no interior stationary point (boundary optimum)."""


def stationary_alpha(coeffs):
    """Unconstrained root of dR/dalpha; may fall outside [0, 1].

    Raises DegenerateObjective when the objective is affine in alpha
    (d = 0) or the downlink term vanishes (a = 0), in which case the
    optimum sits on a boundary; for a batch, when any element is.
    """
    big_a = downlink_log_term(coeffs)
    if np.any((coeffs.d == 0.0) | (big_a == 0.0)):
        raise DegenerateObjective("no interior stationary point")
    return _root(coeffs, big_a)


# A = b1*log2(1 + a/(b + c)); alpha* = clip(1 + q - p) with q = (g + e)/d and
# p = b2/(A*ln 2); R* = R(alpha*)
ExactOptimum = namedtuple("ExactOptimum", "big_a q p alpha rate")


def exact_optimum(coeffs):
    """The closed form's quantities at 60 significant digits, as mpmath
    numbers, from the exact values of one instance's float coefficients."""
    with mpmath.workdps(60):
        a, b, c, d, e, g, b1, b2 = (mpmath.mpf(getattr(coeffs, name))
                                    for name in "a b c d e g b1 b2".split())
        big_a = b1 * mpmath.log(1 + a / (b + c), 2)
        q, p = (g + e) / d, b2 / (big_a * mpmath.ln2)
        alpha = min(max(1 + q - p, mpmath.mpf(0)), mpmath.mpf(1))
        rate = alpha * big_a + b2 * mpmath.log(1 + ((1 - alpha) * d + e) / g,
                                               2)
        return ExactOptimum(big_a, q, p, alpha, rate)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _read_numeric_csv(csv_path):
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        table = [row for row in reader if row]
    if len(table) < 2:
        raise MalformedCsvError(f"{csv_path}: no data rows")
    header, data = table[0], table[1:]
    parsed = []
    for row in data:
        if len(row) != len(header):
            raise MalformedCsvError(f"{csv_path}: ragged row {row!r}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise MalformedCsvError(
                f"{csv_path}: non-numeric value in {row!r}") from exc
        if not all(map(math.isfinite, values)):
            raise MalformedCsvError(f"{csv_path}: non-finite value in {row!r}")
        parsed.append(values)
    return header, parsed


def chart_reference(csv_path, out_path):
    """Render a sweep or converge CSV as a self-contained SVG line chart.

    Converge CSVs are split into one polyline per bandwidth block (block
    boundaries are iteration-counter resets); any other CSV gets one
    polyline per column plotted against the first column.
    """
    header, data = _read_numeric_csv(csv_path)
    series = []
    if header[0] == "iteration":
        block = []
        prev = None
        count = 0
        for row in data:
            if prev is not None and row[0] <= prev:
                count += 1
                series.append((f"block {count}", block))
                block = []
            block.append((row[0], row[1]))
            prev = row[0]
        series.append((f"block {count + 1}", block))
        x_label, y_label = "iteration", "alpha"
    else:
        for j in range(1, len(header)):
            series.append((header[j], [(row[0], row[j]) for row in data]))
        x_label, y_label = header[0], "value (per-series normalized)"
    _write_svg(out_path, series, x_label, y_label)


def _write_svg(out_path, series, x_label, y_label):
    width, height, margin = 800, 500, 60
    xs = [x for _, pts in series for x, _ in pts]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - margin / 4}" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="{margin / 4}" y="{height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 {margin / 4} {height / 2})">{y_label}</text>',
        f'<text x="{margin}" y="{height - margin + 20}" '
        f'text-anchor="middle">{x_lo:g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" '
        f'text-anchor="middle">{x_hi:g}</text>',
    ]
    for idx, (name, pts) in enumerate(series):
        ys = [y for _, y in pts]
        y_lo, y_hi = min(ys), max(ys)
        y_span = (y_hi - y_lo) or 1.0

        def sy(y):
            return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{coords}"/>')
        parts.append(f'<text x="{width - margin - 150}" '
                     f'y="{margin + 18 * idx}" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
