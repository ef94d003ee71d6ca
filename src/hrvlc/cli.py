"""Command-line surface: sweeps, solves, convergence traces, fading studies.

All commands read one JSON scenario config and emit CSV (LF line endings,
UTF-8, floats at 17 significant digits) so that identical inputs and seed
reproduce byte-identical files.  Charts are derived SVG artifacts rendered
from previously written CSVs.
"""

import argparse
import csv
import functools
import hashlib
import itertools
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigValidationError, ConvergenceError, HrvlcError,
                     MalformedCsvError)
from .harvest_uplink import harvested_energy, rician_envelope
from .objective import reduce_coefficients, total_rate
from .optimizer import grid_oracle, solve_closed_form, solve_iterative
from .scenario import associate, load_scenario


@dataclass(frozen=True)
class RunReport:
    command: str
    digest: str      # sha256 of the config file's bytes
    seed: int
    rows: tuple
    wall_time: float


def _write_csv(out_path, header, template, rows, tail=""):
    """The header line, ``template % row`` per row, then ``tail`` verbatim."""
    body = "".join([template % row for row in rows])
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines([header, "\n", body, tail])


def _load(config_path):
    with open(config_path, "rb") as fh:
        raw = fh.read()
    return load_scenario(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()


def _fading_power(k, omega, seed, n_draws):
    """|h|^2 of fading draws 0..n_draws-1 as one array; k and omega are the
    Rician factor and E|h|^2 of the fade.

    Draw i owns the generator ``default_rng([seed, i])`` and takes its
    (real, imaginary) normal pair from one ``standard_normal(2)`` call.
    """
    pairs = np.empty((n_draws, 2))
    for i in range(n_draws):
        pairs[i] = np.random.default_rng([seed, i]).standard_normal(2)
    h = rician_envelope(k, omega, pairs[:, 0], pairs[:, 1])
    return h * h


def _prepare(config_path, mt_index, seed, n_draws=None):
    """(scenario, digest, association, h_sq, coefficients) of one terminal.

    h_sq is fading draw 0 as a float, or with n_draws an array of draws
    0..n_draws-1.
    """
    scn, digest = _load(config_path)
    n_mts = len(scn.mts.position)
    if not 0 <= mt_index < n_mts:
        raise ValueError(f"--mt must be in [0, {n_mts})")
    assoc = associate(scn, mt_index)
    fade = scn.mts.row(mt_index, "rician_k", "rician_omega")
    if n_draws is None:
        h_sq = float(_fading_power(*fade, seed, 1)[0])
    else:
        h_sq = _fading_power(*fade, seed, n_draws)
    coeffs = reduce_coefficients(scn, mt_index, assoc, h_sq)
    _check_rates(coeffs, mt_index)
    return scn, digest, assoc, h_sq, coeffs


def _check_rates(coeffs, mt_index):
    """Refuse a terminal whose downlink or peak uplink rate is not finite.

    A config with every field in range can still leave float64 behind: an
    uplink noise product that underflows to 0, or a noise floor so small
    that the SINR overflows, makes a rate inf or nan, and the solver routes
    then divide by zero or disagree.  The uplink rate peaks at alpha = 0.
    """
    with np.errstate(all="ignore"):
        links = (
            ("downlink rate B_v*log2(1 + P_T*G/(N0*B_v + interference))",
             coeffs.b1, np.divide(coeffs.a, coeffs.b + coeffs.c)),
            ("uplink rate B_r*log2(1 + E_H*|h|^2/(T_u*N0*rf_distance"
             "^pathloss_exp))", coeffs.b2,
             np.divide(coeffs.d + coeffs.e, coeffs.g)))
        for name, bandwidth, snr in links:
            if not np.isfinite(bandwidth * np.log2(1.0 + snr)).all():
                raise ConfigValidationError(f"mts[{mt_index}]",
                                            f"{name} is not finite")


def cmd_sweep(config_path, mt_index, n_points, seed, out_path):
    """Rate components on a uniform alpha grid for one fading draw."""
    start = time.perf_counter()
    if n_points < 2:
        raise ValueError("--points must be >= 2")
    _, digest, assoc, _, coeffs = _prepare(config_path, mt_index, seed)
    ev = total_rate(coeffs, np.linspace(0.0, 1.0, n_points))
    e_h = harvested_energy(assoc, ev.alpha)
    cols = (ev.alpha, ev.total, ev.downlink_term, ev.uplink_term, e_h)
    rows = list(zip(*(col.tolist() for col in cols)))
    _write_csv(out_path, "alpha,R_total,R_d_term,R_u_term,E_H",
               "%.17g,%.17g,%.17g,%.17g,%.17g\n", rows)
    return RunReport("sweep", digest, seed, tuple(rows),
                     time.perf_counter() - start)


def cmd_solve(config_path, mt_index, method, seed, out_path,
              eps=1e-9, n_points=10001):
    """Single optimal-alpha solve by one of the three solver routes."""
    start = time.perf_counter()
    _, digest, _, _, coeffs = _prepare(config_path, mt_index, seed)
    if method in ("closed", "iter"):
        res = (solve_closed_form(coeffs) if method == "closed"
               else solve_iterative(coeffs, eps=eps))
        row = (res.kkt.alpha, res.rate, res.kkt.lam, res.kkt.mu, method,
               res.iterations)
    elif method == "grid":
        alpha, rate = grid_oracle(coeffs, n_points)
        row = (alpha, rate, 0.0, 0.0, method, 0)
    else:
        raise ValueError(f"unknown method {method!r}")
    _write_csv(out_path, "alpha_star,R_star,lambda,mu,method,iterations",
               "%.17g,%.17g,%.17g,%.17g,%s,%d\n", [row])
    return RunReport("solve", digest, seed, (row,),
                     time.perf_counter() - start)


def cmd_converge(config_path, mt_index, eps, seed, out_path):
    """Bisection traces, one block per VLC bandwidth in the config sweep list."""
    start = time.perf_counter()
    scn, digest, _, _, coeffs = _prepare(config_path, mt_index, seed)
    # association does not depend on B_v: swap only b = N0*B_v and b1 = B_v
    b_v = np.array(scn.bv_sweep or (scn.params.b_v,))
    coeffs = replace(coeffs, b=scn.params.n0 * b_v, b1=b_v)
    _check_rates(coeffs, mt_index)
    res = solve_iterative(coeffs, eps=eps)
    rows = []
    for trace, alpha in zip(res.trace, res.kkt.alpha.tolist()):
        # boundary binding: one iteration, no bisection residual
        rows.extend(trace or [(1, alpha, 0.0)])
    _write_csv(out_path, "iteration,alpha,residual", "%d,%.17g,%.17g\n", rows)
    return RunReport("converge", digest, seed, tuple(rows),
                     time.perf_counter() - start)


def cmd_montecarlo(config_path, mt_index, n_draws, seed, out_path):
    """Per-fading-draw solves plus mean/std summary rows."""
    start = time.perf_counter()
    if n_draws < 1:
        raise ValueError("--draws must be >= 1")
    _, digest, _, h_sq, coeffs = _prepare(config_path, mt_index, seed, n_draws)
    res = solve_closed_form(coeffs)
    alphas = res.kkt.alpha
    rows = list(zip(range(n_draws), h_sq.tolist(), alphas.tolist(),
                    res.rate.tolist()))
    summary = [(stat, "", float(f(alphas)), float(f(res.rate)))
               for stat, f in (("mean", np.mean), ("std", np.std))]
    _write_csv(out_path, "draw_index,h_sq,alpha_star,R_star",
               "%d,%.17g,%.17g,%.17g\n", rows,
               "".join(["%s,%s,%.17g,%.17g\n" % row for row in summary]))
    return RunReport("montecarlo", digest, seed, tuple(rows + summary),
                     time.perf_counter() - start)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


# the characters XML 1.0 forbids, but the surrogates, which no text decoded
# as UTF-8 holds: the C0 controls other than tab, LF and CR, U+FFFE, U+FFFF
_NOT_XML = (frozenset(map(chr, range(0x20))) - set("\t\n\r")
            | {"\ufffe", "\uffff"})


def _read_numeric_csv(csv_path):
    """(header, values): a header row, then equal-width rows of finite numbers.

    Blank lines are skipped and cells parse as ``float`` parses them;
    ``values`` is a float64 array with one row per data row. A bad file
    names its first bad row, checking each row for width, then for a
    non-numeric cell, then for a non-finite one.
    """
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        try:
            table = list(filter(None, csv.reader(fh)))
        except csv.Error as exc:
            raise MalformedCsvError(f"{csv_path}: {exc}") from exc
    if len(table) < 2:
        raise MalformedCsvError(f"{csv_path}: no data rows")
    header, data = table[0], table[1:]
    width = len(header)
    if width < 2:
        raise MalformedCsvError(f"{csv_path}: need at least 2 columns")
    try:
        if set(map(len, data)) == {width}:
            cells = itertools.chain.from_iterable(data)
            values = np.fromiter(map(float, cells), float, len(data) * width)
            if np.isfinite(values).all():
                return header, values.reshape(len(data), width)
    except ValueError:  # a non-numeric cell
        pass
    # some row is bad: walk them in order to name the first
    for row in data:
        if len(row) != width:
            raise MalformedCsvError(f"{csv_path}: ragged row {row!r}")
        try:
            cells = [float(v) for v in row]
        except ValueError as exc:
            raise MalformedCsvError(
                f"{csv_path}: non-numeric value in {row!r}") from exc
        if not all(map(math.isfinite, cells)):
            raise MalformedCsvError(f"{csv_path}: non-finite value in {row!r}")


def cmd_chart(csv_path, out_path):
    """Render a sweep or converge CSV as a self-contained SVG line chart.

    Converge CSVs are split into one polyline per bandwidth block (block
    boundaries are iteration-counter resets); any other CSV gets one
    polyline per column plotted against the first column. A CSV is refused
    for a header cell that XML 1.0 cannot hold, and for a column or block
    whose values span more than the largest float.
    """
    header, values = _read_numeric_csv(csv_path)
    for name in header:
        if not _NOT_XML.isdisjoint(name):
            raise MalformedCsvError(
                f"{csv_path}: header {name!r} has a character XML forbids")
    x = values[:, 0]
    if header[0] == "iteration":
        y = values[:, 1]
        resets = np.flatnonzero(x[1:] <= x[:-1]) + 1
        bounds = np.concatenate(([0], resets, [y.size]))
        names = [f"block {k}" for k in range(1, bounds.size)]
        columns = header[1:2] * len(names)
        x_label, y_label = "iteration", "alpha"
    else:
        y = values[:, 1:].T.ravel()
        bounds = np.arange(0, y.size + 1, x.size)
        names = columns = header[1:]
        x_label, y_label = header[0], "value (per-series normalized)"
    y_lo = np.minimum.reduceat(y, bounds[:-1])
    with np.errstate(over="ignore"):
        spans = np.concatenate(([np.ptp(x)],
                                np.maximum.reduceat(y, bounds[:-1]) - y_lo))
    # scaled by an infinite span, a series would be drawn at nan
    for column, span in zip(header[:1] + columns, spans.tolist()):
        if span == math.inf:
            raise MalformedCsvError(
                f"{csv_path}: column {column!r} spans more than the float "
                "range")
    _write_svg(out_path, x, y, bounds, y_lo, spans[1:], names, x_label,
               y_label)


def _escape(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write_svg(out_path, x, y, bounds, y_lo, y_span, names, x_label,
               y_label):
    """Line chart of series ``names[k]``: ``y[bounds[k]:bounds[k + 1]]``.

    ``y`` holds the series end to end and its point i is drawn at
    ``x[i % len(x)]``: a series spans all of ``x`` or its own run of rows.
    Each series is scaled to the plot height on its own, from its minimum
    ``y_lo[k]`` over its finite span ``y_span[k]``.
    """
    width, height, margin = 800, 500, 60
    # the axis labels print these: of 0.0 and -0.0, min and max keep the first
    xs = x.tolist()
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    px = margin + (x - x_lo) / x_span * (width - 2 * margin)
    counts = np.diff(bounds)
    y_span[y_span == 0.0] = 1.0
    py = height - margin - (y - np.repeat(y_lo, counts)) / np.repeat(
        y_span, counts) * (height - 2 * margin)
    # each "x," is formatted once; a series fills in its y values
    points = ["%.2f,%%.2f" % v for v in px.tolist()] * (y.size // x.size)
    ys = py.tolist()
    bounds = bounds.tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - margin / 4}" '
        f'text-anchor="middle">{_escape(x_label)}</text>',
        f'<text x="{margin / 4}" y="{height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 {margin / 4} {height / 2})">{y_label}</text>',
        f'<text x="{margin}" y="{height - margin + 20}" '
        f'text-anchor="middle">{x_lo:g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" '
        f'text-anchor="middle">{x_hi:g}</text>',
    ]
    for idx, (name, start, stop) in enumerate(zip(names, bounds, bounds[1:])):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(points[start:stop]) % tuple(ys[start:stop])
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{coords}"/>')
        parts.append(f'<text x="{width - margin - 150}" '
                     f'y="{margin + 18 * idx}" fill="{color}">'
                     f'{_escape(name)}</text>')
    parts.append("</svg>")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hrvlc",
        description="Hybrid RF/VLC joint uplink-downlink rate optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--mt", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="rate components over an alpha grid")
    common(p)
    p.add_argument("--points", type=int, default=101)

    p = sub.add_parser("solve", help="optimal alpha by one solver route")
    common(p)
    p.add_argument("--method", choices=("closed", "iter", "grid"),
                   default="closed")
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--points", type=int, default=10001)

    p = sub.add_parser("converge", help="bisection trace per VLC bandwidth")
    common(p)
    p.add_argument("--eps", type=float, default=1e-9)

    p = sub.add_parser("montecarlo", help="solve across fading draws")
    common(p)
    p.add_argument("--draws", type=int, default=1000)

    p = sub.add_parser("chart", help="render a CSV as an SVG line chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    return parser


@functools.cache
def _parser():
    # parse_args leaves the parser as it was, so one serves every main call
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "sweep":
            cmd_sweep(args.config, args.mt, args.points, args.seed, args.out)
        elif args.command == "solve":
            cmd_solve(args.config, args.mt, args.method, args.seed, args.out,
                      eps=args.eps, n_points=args.points)
        elif args.command == "converge":
            cmd_converge(args.config, args.mt, args.eps, args.seed, args.out)
        elif args.command == "montecarlo":
            cmd_montecarlo(args.config, args.mt, args.draws, args.seed,
                           args.out)
        elif args.command == "chart":
            cmd_chart(args.csv, args.out)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (HrvlcError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
