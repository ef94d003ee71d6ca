"""Command-line surface: sweeps, solves, convergence traces, fading studies.

All commands read one JSON scenario config and emit CSV (LF line endings,
UTF-8, floats at 17 significant digits) so that identical inputs and seed
reproduce byte-identical files.  Charts are derived SVG artifacts rendered
from previously written CSVs.
"""

import argparse
import csv
import functools
import io
import math
import sys
from dataclasses import replace

import numpy as np

from .csv_kernel import table_bytes
from .errors import (ConfigValidationError, ConvergenceError, HrvlcError,
                     MalformedCsvError)
from .harvest_uplink import rician_envelope
from .objective import downlink_log_term, reduce_coefficients, total_rate
from .optimizer import (DEFAULT_EPS, grid_oracle, solve_closed_form,
                        solve_iterative)
from .scenario import associate, load_scenario


# A numeric table of this many cells or more is written by the kernel, a
# smaller one by the row template: the kernel's fixed cost, about 0.09 ms,
# outweighs its saving per cell below it.  The sweep, converge and
# montecarlo shapes cross at about 210, 235 and 280 cells.
_KERNEL_MIN_CELLS = 300
_SPECS = {"f": "%.17g", "i": "%d", "u": "%d"}


def _write_csv(out_path, header, columns, tail=""):
    """The header line, a row per index of the equal-length ``columns``, then
    ``tail`` verbatim.

    A float column's cells are written as ``%.17g``, an integer column's as
    ``%d`` and any other's as ``%s``.  A numeric table of at least
    ``_KERNEL_MIN_CELLS`` cells takes ``csv_kernel.table_bytes``, which writes
    the row template's bytes.
    """
    columns = [np.asarray(col) for col in columns]
    specs = [_SPECS.get(col.dtype.kind, "%s") for col in columns]
    if "%s" in specs or columns[0].size * len(columns) < _KERNEL_MIN_CELLS:
        template = ",".join(specs) + "\n"
        body = "".join([template % row for row in
                        zip(*(col.tolist() for col in columns))]).encode()
    else:
        body = table_bytes(columns)
    with open(out_path, "wb") as fh:
        fh.writelines([header.encode(), b"\n", body, tail.encode()])


def _fading_power(k, omega, seed, n_draws):
    """|h|^2 of fading draws 0..n_draws-1 as one array; k and omega are the
    Rician factor and E|h|^2 of the fade.

    Draw i owns the generator ``default_rng([seed, i])`` and takes its
    (real, imaginary) normal pair from its first two standard normals.  The
    generator is seeded from the uint32 words SeedSequence reads ``[seed, i]``
    as: seed's little-endian 32-bit words (one 0 word for seed 0), then i,
    which is one word for i < 2**32.  A uint32 array is taken as it is, so
    numpy skips converting the Python list for every draw.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")  # as numpy says
    n_words = max(1, (seed.bit_length() + 31) // 32)
    entropy = np.empty((n_draws, n_words + 1), np.uint32)
    entropy[:, :-1] = np.frombuffer(seed.to_bytes(4 * n_words, "little"),
                                    "<u4")
    entropy[:, -1] = np.arange(n_draws)
    pairs = np.empty((n_draws, 2))
    for words, pair in zip(entropy, pairs):
        np.random.default_rng(words).standard_normal(out=pair)
    h = rician_envelope(k, omega, pairs[:, 0], pairs[:, 1])
    return h * h


def _prepare(config_path, mt_index, seed, n_draws=None):
    """(scenario, association, h_sq, coefficients) of one terminal.

    h_sq is fading draw 0 as a float, or with n_draws an array of draws
    0..n_draws-1.  The rates are not checked: each command passes the
    coefficients it solves to ``_check_rates``.
    """
    with open(config_path, "rb") as fh:
        scn = load_scenario(fh.read().decode("utf-8"))
    n_mts = len(scn.mts.position)
    if not 0 <= mt_index < n_mts:
        raise ValueError(f"--mt must be in [0, {n_mts})")
    assoc = associate(scn, mt_index)
    fade = scn.mts.row(mt_index, "rician_k", "rician_omega")
    # a fade past the float range leaves an inf or nan rate: _check_rates
    # names it, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        if n_draws is None:
            h_sq = float(_fading_power(*fade, seed, 1)[0])
        else:
            h_sq = _fading_power(*fade, seed, n_draws)
        coeffs = reduce_coefficients(scn, mt_index, assoc, h_sq)
    return scn, assoc, h_sq, coeffs


def _check_rates(coeffs, mt_index):
    """Refuse a terminal whose rates are not finite.

    A config with every field in range can still leave float64 behind: an
    uplink noise product that underflows to 0, or a noise floor so small
    that the SINR overflows, makes a rate inf or nan, and the solver routes
    then divide by zero or disagree.  The uplink rate peaks at alpha = 0,
    and the downlink rate plus that peak bounds R(alpha).
    """
    with np.errstate(all="ignore"):
        down = downlink_log_term(coeffs)
        up = total_rate(coeffs, 0.0).uplink_term
        checks = (
            ("downlink rate B_v*log2(1 + P_T*G/(N0*B_v + interference))",
             down),
            ("uplink rate B_r*log2(1 + E_H*|h|^2/(T_u*N0*rf_distance"
             "^pathloss_exp))", up),
            ("peak total rate, downlink + uplink at alpha = 0", down + up))
    for name, value in checks:
        if not np.isfinite(value).all():
            raise ConfigValidationError(f"mts[{mt_index}]",
                                        f"{name} is not finite")


def cmd_sweep(config_path, mt_index, n_points, seed, out_path):
    """Rate components on a uniform alpha grid for one fading draw."""
    if n_points < 2:
        raise ValueError("--points must be >= 2")
    _, assoc, _, coeffs = _prepare(config_path, mt_index, seed)
    _check_rates(coeffs, mt_index)
    ev = total_rate(coeffs, np.linspace(0.0, 1.0, n_points))
    e_h = (1.0 - ev.alpha) * assoc.k1 + assoc.k2
    _write_csv(out_path, "alpha,R_total,R_d_term,R_u_term,E_H",
               (ev.alpha, ev.total, ev.downlink_term, ev.uplink_term, e_h))


def cmd_solve(config_path, mt_index, method, seed, out_path,
              eps=DEFAULT_EPS, n_points=10001):
    """Single optimal-alpha solve by one of the three solver routes."""
    _, _, _, coeffs = _prepare(config_path, mt_index, seed)
    _check_rates(coeffs, mt_index)
    # argparse admits only the methods closed, iter and grid
    res = (solve_closed_form(coeffs) if method == "closed"
           else solve_iterative(coeffs, eps=eps) if method == "iter"
           else grid_oracle(coeffs, n_points))
    row = (res.alpha, res.rate, res.lam, res.mu, method, len(res.trace))
    _write_csv(out_path, "alpha_star,R_star,lambda,mu,method,iterations",
               [[cell] for cell in row])


def cmd_converge(config_path, mt_index, eps, seed, out_path):
    """Bisection traces, one block per VLC bandwidth in the config sweep list."""
    scn, assoc, h_sq, _ = _prepare(config_path, mt_index, seed)
    # the association and the fade do not depend on B_v: reduce them again
    # with B_v the sweep array
    b_v = np.array(scn.bv_sweep or (scn.params.b_v,))
    sweep = replace(scn, params=replace(scn.params, b_v=b_v))
    with np.errstate(over="ignore"):  # an inf N0*B_v leaves A = 0
        coeffs = reduce_coefficients(sweep, mt_index, assoc, h_sq)
    _check_rates(coeffs, mt_index)
    res = solve_iterative(coeffs, eps=eps)
    rows = []
    for trace, alpha in zip(res.trace, res.alpha.tolist()):
        # boundary binding: one iteration, no bisection residual
        rows.extend(trace or [(1, alpha, 0.0)])
    _write_csv(out_path, "iteration,alpha,residual", list(zip(*rows)))


def cmd_montecarlo(config_path, mt_index, n_draws, seed, out_path):
    """Per-fading-draw solves plus mean/std summary rows."""
    if n_draws < 1:
        raise ValueError("--draws must be >= 1")
    if n_draws > 2 ** 32:  # a draw index past one uint32 entropy word
        raise ValueError("--draws must be <= 4294967296")
    _, _, h_sq, coeffs = _prepare(config_path, mt_index, seed, n_draws)
    _check_rates(coeffs, mt_index)
    res = solve_closed_form(coeffs)
    with np.errstate(over="ignore"):  # np.std squares the deviations
        summary = [(stat, f(res.alpha), f(res.rate))
                   for stat, f in (("mean", np.mean), ("std", np.std))]
    if not np.isfinite([rate for _, _, rate in summary]).all():
        raise ConfigValidationError(f"mts[{mt_index}]",
                                    "mean or std of R_star is not finite")
    _write_csv(out_path, "draw_index,h_sq,alpha_star,R_star",
               (np.arange(n_draws), h_sq, res.alpha, res.rate),
               "".join("%s,,%.17g,%.17g\n" % stat for stat in summary))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


# the characters XML 1.0 forbids, but the surrogates, which no text decoded
# as UTF-8 holds: the C0 controls other than tab, LF and CR, U+FFFE, U+FFFF
_NOT_XML = (frozenset(map(chr, range(0x20))) - set("\t\n\r")
            | {"\ufffe", "\uffff"})


# A plain numeric CSV: a header line of printable ASCII with no quote, then
# a body of these bytes alone holding at least one data row.  numpy's C text
# reader splits such a body as csv does and converts each cell through
# PyOS_string_to_double, as float() does.  Every table the commands write is
# plain.
_PLAIN_HEADER = bytes(range(0x20, 0x7F)).replace(b'"', b"")
_PLAIN_BODY = b"0123456789+-.eE,\n"
_PLAIN_CHUNK = 1 << 16


def _plain_header(data):
    """The header cells of ``data``, a CSV's bytes, if it is plain numeric and
    csv's field size limit admits each of its cells; else None."""
    limit = csv.field_size_limit()
    start = data.find(b"\n") + 1
    if (not start or data[:start - 1].translate(None, _PLAIN_HEADER)
            or start > limit
            or data.count(b"\n", start) == len(data) - start):
        return None
    # a cell longer than the limit fills at least one whole aligned chunk
    step = max(1, min(_PLAIN_CHUNK, limit // 2))
    for pos in range(start, len(data), step):
        chunk = data[pos:pos + step]
        if chunk.translate(None, _PLAIN_BODY) or (
                len(chunk) == step and b"," not in chunk
                and b"\n" not in chunk):
            return None
    return data[:start - 1].decode("ascii").split(",")


def _read_numeric_csv(csv_path):
    """(header, values): a header row, then equal-width rows of finite numbers.

    Blank lines are skipped and cells parse as ``float`` parses them;
    ``values`` is a float64 array with one row per data row. A bad file
    names its first bad row, checking each row for width, then for a
    non-numeric cell, then for a non-finite one.

    A plain file (``_plain_header``) is read by ``np.loadtxt``; any other,
    and a plain file that it refuses or that holds an inf, by ``csv`` and
    ``float``, which name the first bad row.
    """
    with open(csv_path, "rb") as fh:
        raw = fh.read()
    header = _plain_header(raw)
    if header is not None:
        stream = io.BytesIO(raw)  # shares the buffer: no copy of the file
        stream.readline()
        try:
            values = np.loadtxt(stream, delimiter=",", ndmin=2)
        except ValueError:  # a ragged row or a non-numeric cell
            pass
        else:
            if (values.shape[1] == len(header) >= 2
                    and np.isfinite(values).all()):
                return header, values
    try:
        text = io.StringIO(raw.decode("utf-8"), newline="")
        table = list(filter(None, csv.reader(text)))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise MalformedCsvError(f"{csv_path}: {exc}") from exc
    if len(table) < 2:
        raise MalformedCsvError(f"{csv_path}: no data rows")
    header, data = table[0], table[1:]
    width = len(header)
    if width < 2:
        raise MalformedCsvError(f"{csv_path}: need at least 2 columns")
    rows = []
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
        rows.append(cells)
    return header, np.array(rows)


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


@functools.cache
def _parser():
    # parse_args leaves the parser as it was, so one serves every main call
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
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--points", type=int, default=10001)

    p = sub.add_parser("converge", help="bisection trace per VLC bandwidth")
    common(p)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)

    p = sub.add_parser("montecarlo", help="solve across fading draws")
    common(p)
    p.add_argument("--draws", type=int, default=1000)

    p = sub.add_parser("chart", help="render a CSV as an SVG line chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    return parser


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
