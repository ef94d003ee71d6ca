"""Output verifier: invariants of each CLI output, never golden bytes.

Later changes may alter output bytes on purpose (a new fading stream, a model
fix), so every check here is a property the outputs must keep: solver routes
agree, KKT signs hold, rows add up, counts and moments match the request.
Each check returns a list of problem strings; an empty list is a pass.
"""

import csv
import math
import xml.etree.ElementTree as ET

# route tolerances of the package's own cross-checks
ITER_ALPHA_TOL = 2e-9
RATE_REL_TOL = 1e-8
SUM_REL_TOL = 1e-12
MOMENT_SIGMAS = 6.0


def read_rows(path):
    """Data rows of a CSV as dicts keyed by its header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(row, *keys):
    values = [float(row[k]) for k in keys]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite value in {row!r}")
    return values


def read_solve(path, method):
    """The solve row as (alpha, rate, lam, mu, iterations) plus problems."""
    rows = read_rows(path)
    if len(rows) != 1:
        return None, [f"solve: {len(rows)} rows, expected 1"]
    row = rows[0]
    alpha, rate, lam, mu = _floats(row, "alpha_star", "R_star", "lambda", "mu")
    problems = []
    if row["method"] != method:
        problems.append(f"solve: method {row['method']!r}, expected {method!r}")
    if not 0.0 <= alpha <= 1.0:
        problems.append(f"solve: alpha {alpha} outside [0, 1]")
    if lam < 0.0 or mu < 0.0:
        problems.append(f"solve: negative multiplier lam={lam} mu={mu}")
    if lam > 0.0 and alpha != 1.0:
        problems.append(f"solve: lam={lam} > 0 at alpha={alpha} != 1")
    if mu > 0.0 and alpha != 0.0:
        problems.append(f"solve: mu={mu} > 0 at alpha={alpha} != 0")
    return (alpha, rate, lam, mu, int(row["iterations"])), problems


def cross_check_solves(closed, iterative, grid, grid_points):
    """Closed, iterative and grid routes agree on alpha* and R*."""
    problems = []
    a_c, r_c = closed[0], closed[1]
    if abs(a_c - iterative[0]) > ITER_ALPHA_TOL:
        problems.append(f"closed alpha {a_c} vs iter {iterative[0]}")
    if abs(a_c - grid[0]) > 1.0 / (grid_points - 1) + SUM_REL_TOL:
        problems.append(f"closed alpha {a_c} vs grid {grid[0]}")
    for name, other in (("iter", iterative), ("grid", grid)):
        if abs(r_c - other[1]) > RATE_REL_TOL * abs(r_c):
            problems.append(f"closed R* {r_c} vs {name} {other[1]}")
    return problems


def check_sweep(path, points, alpha_star):
    rows = read_rows(path)
    if len(rows) != points:
        return [f"sweep: {len(rows)} rows, expected {points}"]
    problems = []
    best, best_alpha = -math.inf, None
    for j, row in enumerate(rows):
        alpha, total, down, up, e_h = _floats(
            row, "alpha", "R_total", "R_d_term", "R_u_term", "E_H")
        if abs(alpha - j / (points - 1)) > SUM_REL_TOL:
            problems.append(f"sweep row {j}: alpha {alpha} off the grid")
        if abs(total - (down + up)) > SUM_REL_TOL * max(abs(total), 1.0):
            problems.append(f"sweep row {j}: R_total != R_d_term + R_u_term")
        if e_h < 0.0:
            problems.append(f"sweep row {j}: negative E_H")
        if total > best:
            best, best_alpha = total, alpha
    if abs(best_alpha - alpha_star) > 1.0 / (points - 1) + SUM_REL_TOL:
        problems.append(f"sweep argmax {best_alpha} vs alpha* {alpha_star}")
    return problems


def check_montecarlo(path, draws, k, omega):
    rows = read_rows(path)
    if len(rows) != draws + 2:
        return [f"montecarlo: {len(rows)} rows, expected {draws + 2}"]
    problems = []
    h_sum = alpha_sum = rate_sum = 0.0
    for j, row in enumerate(rows[:draws]):
        h_sq, alpha, rate = _floats(row, "h_sq", "alpha_star", "R_star")
        if row["draw_index"] != str(j):
            problems.append(f"montecarlo row {j}: index {row['draw_index']}")
        if h_sq < 0.0 or not 0.0 <= alpha <= 1.0:
            problems.append(f"montecarlo row {j}: h_sq={h_sq} alpha={alpha}")
        h_sum += h_sq
        alpha_sum += alpha
        rate_sum += rate
    if [r["draw_index"] for r in rows[draws:]] != ["mean", "std"]:
        problems.append("montecarlo: missing mean/std summary rows")
        return problems
    mean_alpha, mean_rate = _floats(rows[draws], "alpha_star", "R_star")
    if abs(mean_alpha - alpha_sum / draws) > 1e-9:
        problems.append("montecarlo: mean alpha_star disagrees with the rows")
    if abs(mean_rate - rate_sum / draws) > 1e-9 * abs(mean_rate):
        problems.append("montecarlo: mean R_star disagrees with the rows")
    # |h|^2 of a Rician fade has variance omega^2 (1 + 2K) / (1 + K)^2
    sd = omega * math.sqrt((1.0 + 2.0 * k) / ((1.0 + k) ** 2 * draws))
    if abs(h_sum / draws - omega) > MOMENT_SIGMAS * sd:
        problems.append(f"montecarlo: mean h_sq {h_sum / draws} far from {omega}")
    return problems


def check_converge(path, blocks):
    rows = read_rows(path)
    found = []
    for row in rows:
        iteration = int(row["iteration"])
        alpha, width = _floats(row, "alpha", "residual")
        if not found or iteration <= found[-1][-1][0]:
            found.append([])
        found[-1].append((iteration, alpha, width))
    problems = []
    if len(found) != blocks:
        problems.append(f"converge: {len(found)} blocks, expected {blocks}")
    for b, block in enumerate(found):
        if [it for it, _, _ in block] != list(range(1, len(block) + 1)):
            problems.append(f"converge block {b}: iteration counter not 1..n")
        if len(block) == 1 and block[0][2] == 0.0:
            continue  # boundary optimum: one row, no bracket
        for (_, _, w0), (_, _, w1) in zip(block, block[1:]):
            if abs(w1 - 0.5 * w0) > SUM_REL_TOL * w0:
                problems.append(f"converge block {b}: width {w1} != {w0}/2")
                break
    return problems


def check_svg(path):
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"svg: not XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"svg: root element {root.tag}"]
    problems = []
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if not lines:
        problems.append("svg: no polyline")
    coords = []
    for el in lines:
        for pair in el.get("points", "").split():
            coords.extend(pair.split(","))
    for el in root.iter():
        coords.extend(el.get(a) for a in ("x", "y", "x1", "y1", "x2", "y2")
                      if el.get(a) is not None)
    try:
        bad = [c for c in coords if not math.isfinite(float(c))]
    except ValueError as exc:
        return problems + [f"svg: unparsable coordinate: {exc}"]
    if bad:
        problems.append(f"svg: {len(bad)} non-finite coordinates")
    return problems


def verify_cycle(ops, solve_alpha):
    """Problems of each op of one cycle, in op order.

    ``solve_alpha(argv)`` runs the closed-form solve ``argv`` and returns the
    alpha* that a sweep's argmax is checked against.
    """
    problems = [[] for _ in ops]
    solves = {}
    for j, op in enumerate(ops):
        try:
            problems[j] += _check_op(op, j, solves, solve_alpha)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems[j].append(f"{op.kind}: unreadable output: {exc!r}")
    if len(solves) == 3:
        (jc, closed), (ji, iterative), (jg, grid) = (
            solves["closed"], solves["iter"], solves["grid"])
        cross = cross_check_solves(closed, iterative, grid,
                                   ops[jg].expect["points"])
        for j in (jc, ji, jg):
            problems[j] += cross
    return problems


def _check_op(op, j, solves, solve_alpha):
    expect = op.expect
    if op.kind.startswith("solve_"):
        row, problems = read_solve(op.out, expect["method"])
        if row is not None and not problems:
            solves[expect["method"]] = (j, row)
        return problems
    if op.kind == "montecarlo":
        return check_montecarlo(op.out, expect["draws"], expect["k"],
                                expect["omega"])
    if op.kind == "sweep":
        return check_sweep(op.out, expect["points"],
                           solve_alpha(expect["solve"]))
    if op.kind == "converge":
        return check_converge(op.out, expect["blocks"])
    if op.kind == "chart":
        return check_svg(op.out)
    raise ValueError(f"no check for op kind {op.kind!r}")
