"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from hrvlc import (
    associate,
    harvested_energy,
    reduce_coefficients,
    solve_closed_form,
    solve_iterative,
    total_rate,
)
from hrvlc.cli import (
    _fading_power,
    cmd_converge,
    cmd_montecarlo,
    cmd_solve,
    cmd_sweep,
)
from hrvlc.scenario import Scenario, SystemParams

from conftest import CONFIG_DIR, make_aps, make_mts, random_coeffs
from oracles import (
    Ap,
    Mt,
    downlink_rate,
    rate_derivative,
    rate_second_derivative,
    rician_pdf,
    rician_reference,
    uplink_budget,
)

TWO_AP = str(CONFIG_DIR / "two_ap_room.json")
SINGLE_AP = str(CONFIG_DIR / "single_ap_room.json")


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")


def instances(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        force = {0: "a0", 1: "d0"}.get(i % 10)  # 20% forced boundary cases
        out.append(random_coeffs(rng, force=force))
    return out


def is_unimodal(values):
    peak = values.index(max(values))
    rising = all(x <= y for x, y in zip(values[:peak], values[1:peak + 1]))
    falling = all(x >= y for x, y in zip(values[peak:], values[peak + 1:]))
    return rising and falling


def test_criterion_1_concavity(tmp_path):
    with criterion(1, "concavity"):
        start = time.perf_counter()
        grid = np.linspace(0.0, 1.0, 100)
        for coeffs in instances(1000, seed=101):
            second = rate_second_derivative(coeffs, grid)
            assert np.all(second <= 0.0)
        for config in (TWO_AP, SINGLE_AP):
            out = tmp_path / "sweep.csv"
            report = cmd_sweep(config, 0, 201, 7, str(out))
            totals = [row[1] for row in report.rows]
            assert is_unimodal(totals)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_derivative_correctness():
    with criterion(2, "derivative correctness"):
        start = time.perf_counter()
        for coeffs in instances(1000, seed=101):
            for alpha in (0.1, 0.5, 0.9):
                h = 1e-6
                fd1 = (total_rate(coeffs, alpha + h).total
                       - total_rate(coeffs, alpha - h).total) / (2 * h)
                an1 = rate_derivative(coeffs, alpha)
                assert abs(an1 - fd1) <= 1e-6 * max(abs(an1), abs(fd1))
                h = 1e-3
                # difference only the curved (uplink) component: the downlink
                # part is linear in alpha and contributes pure roundoff
                fd2 = (total_rate(coeffs, alpha + h).uplink_term
                       - 2 * total_rate(coeffs, alpha).uplink_term
                       + total_rate(coeffs, alpha - h).uplink_term) / h ** 2
                an2 = rate_second_derivative(coeffs, alpha)
                if an2 == fd2 == 0.0:
                    continue
                assert abs(an2 - fd2) <= 1e-4 * max(abs(an2), abs(fd2))
        assert time.perf_counter() - start < 5.0


def test_criterion_3_solver_triple_agreement():
    with criterion(3, "solver triple agreement"):
        start = time.perf_counter()
        eps = 1e-9
        n_grid = 10 ** 5
        alphas = np.linspace(0.0, 1.0, n_grid)
        tol_alpha = max(2 * eps, 2.0 / n_grid)
        for coeffs in instances(1000, seed=202):
            closed = solve_closed_form(coeffs)
            iterative = solve_iterative(coeffs, eps=eps)
            values = total_rate(coeffs, alphas).total
            idx = int(np.argmax(values))
            alpha_grid, r_grid = float(alphas[idx]), float(values[idx])
            assert abs(closed.kkt.alpha - iterative.kkt.alpha) <= 2 * eps
            assert abs(closed.kkt.alpha - alpha_grid) <= tol_alpha
            assert abs(closed.rate - iterative.rate) <= 1e-8 * abs(closed.rate)
            assert abs(closed.rate - r_grid) <= 1e-8 * abs(closed.rate)
        assert time.perf_counter() - start < 60.0


def test_criterion_4_kkt_certificate():
    with criterion(4, "KKT certificate"):
        for coeffs in instances(1000, seed=303):
            for res in (solve_closed_form(coeffs),
                        solve_iterative(coeffs, eps=1e-9)):
                kkt = res.kkt
                assert kkt.lam >= 0.0 and kkt.mu >= 0.0
                assert abs(kkt.lam * (kkt.alpha - 1.0)) <= 1e-12
                assert abs(kkt.mu * kkt.alpha) <= 1e-12
                scale = max(1.0, abs(rate_derivative(coeffs, 0.0)))
                residual = rate_derivative(coeffs, kkt.alpha) - kkt.lam + kkt.mu
                assert abs(residual) <= 1e-9 * scale


def test_criterion_5_convergence_shape(tmp_path):
    with criterion(5, "convergence shape"):
        eps = 1e-9
        out = tmp_path / "conv.csv"
        report = cmd_converge(TWO_AP, 0, eps, 7, str(out))
        blocks = []
        current = []
        prev = None
        for iteration, alpha, residual in report.rows:
            if prev is not None and iteration <= prev:
                blocks.append(current)
                current = []
            current.append((iteration, alpha, residual))
            prev = iteration
        blocks.append(current)
        assert len(blocks) == 3
        bound = math.ceil(math.log2(1.0 / eps)) + 1
        for block in blocks:
            assert len(block) <= bound
            residuals = [r for _, _, r in block]
            assert all(x >= y for x, y in zip(residuals, residuals[1:]))
        finals = [block[-1][1] for block in blocks]
        assert len({round(a, 8) for a in finals}) == 3


def random_scenario(rng):
    n_aps = rng.integers(1, 4)
    aps = make_aps([
        Ap((rng.uniform(0.5, 4.5), rng.uniform(0.5, 4.5), 3.0),
           power=rng.uniform(1.0, 5.0),
           half_angle=math.radians(rng.uniform(40, 70)))
        for _ in range(n_aps)])
    mt = Mt(
        position=(rng.uniform(0.5, 4.5), rng.uniform(0.5, 4.5),
                  rng.uniform(0.8, 1.2)),
        area=10.0 ** rng.uniform(-5, -3),
        responsivity=rng.uniform(0.2, 0.8),
        filter_gain=1.0,
        refractive_index=rng.uniform(1.0, 1.8),
        fov=math.radians(rng.uniform(80, 90)),
        conv_coeff=rng.uniform(0.1, 1.0),
        oe_efficiency=rng.uniform(0.3, 1.0),
        pathloss_exp=rng.uniform(2.0, 3.5),
        rician_k=rng.uniform(0.0, 10.0),
        rician_omega=rng.uniform(0.5, 2.0),
        rf_distance=rng.uniform(1.0, 8.0))
    params = SystemParams(b_v=10.0 ** rng.uniform(6.5, 7.5),
                          b_r=10.0 ** rng.uniform(6.5, 7.5),
                          n0=10.0 ** rng.uniform(-21, -19),
                          t_d=rng.uniform(0.1, 1.0), t_u=rng.uniform(0.1, 1.0))
    return Scenario(aps=aps, mts=make_mts([mt]), params=params)


def test_criterion_6_physics_consistency():
    with criterion(6, "physics consistency"):
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 100:
            scn = random_scenario(rng)
            consts = associate(scn, 0)
            k, omega = scn.mts.row(0, "rician_k", "rician_omega")
            h = rician_reference(k, omega, rng, 1)[0]
            h_sq = h * h
            coeffs = reduce_coefficients(scn, 0, consts, h_sq)
            r_d = downlink_rate(scn, 0, consts.serving).rate
            for alpha in np.linspace(0.0, 1.0, 11):
                r_u = uplink_budget(scn, 0, consts.serving, alpha, h_sq).rate
                composed = alpha * r_d + r_u
                reduced = total_rate(coeffs, alpha).total
                assert abs(composed - reduced) <= 1e-12 * max(
                    abs(composed), abs(reduced))
            # affine in alpha: evaluation equals the affine form identically
            for alpha in (0.0, 0.25, 0.5, 1.0):
                assert harvested_energy(consts, alpha) == \
                    (1.0 - alpha) * consts.k1 + consts.k2
            drop = harvested_energy(consts, 0.0) - harvested_energy(consts, 1.0)
            assert drop == pytest.approx(consts.k1, rel=1e-12)
            checked += 1


def test_criterion_7_rician_channel():
    with criterion(7, "Rician channel"):
        start = time.perf_counter()
        for k, omega in ((0.0, 1.0), (3.0, 1.0), (10.0, 2.0)):
            total, err = integrate.quad(lambda r: rician_pdf(r, k, omega),
                                        0, np.inf)
            assert err < 1e-8
            assert abs(total - 1.0) <= 1e-8
        k, omega = 3.0, 1.0
        dist = stats.rice(math.sqrt(2 * k),
                          scale=math.sqrt(omega / (2 * (1 + k))))
        samples = rician_reference(k, omega, np.random.default_rng(77),
                                   10 ** 5)
        assert stats.kstest(samples, dist.cdf).pvalue > 0.01
        # the stream montecarlo writes: draw i from its own (seed, i) generator
        drawn = np.sqrt(_fading_power(k, omega, 77, 10 ** 5))
        assert stats.kstest(drawn, dist.cdf).pvalue > 0.01
        big = rician_reference(2.0, 1.7, np.random.default_rng(78), 10 ** 6)
        assert abs(np.mean(big * big) - 1.7) <= 0.01 * 1.7
        assert time.perf_counter() - start < 30.0


def test_criterion_8_reproducibility(tmp_path):
    with criterion(8, "reproducibility"):
        runs = (
            lambda out: cmd_sweep(TWO_AP, 0, 101, 13, out),
            lambda out: cmd_solve(TWO_AP, 0, "iter", 13, out),
            lambda out: cmd_converge(TWO_AP, 0, 1e-9, 13, out),
            lambda out: cmd_montecarlo(TWO_AP, 0, 25, 13, out),
        )
        for i, run in enumerate(runs):
            a = tmp_path / f"a{i}.csv"
            b = tmp_path / f"b{i}.csv"
            run(str(a))
            run(str(b))
            assert a.read_bytes() == b.read_bytes()
