import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hrvlc.cli
import hrvlc.harvest_uplink
import hrvlc.optimizer
import hrvlc.scenario
from hrvlc import load_scenario
from hrvlc.cli import (
    build_parser,
    cmd_chart,
    cmd_converge,
    cmd_montecarlo,
    cmd_solve,
    cmd_sweep,
    main,
)

from conftest import CONFIG_DIR
from oracles import fading_power_reference, write_csv_reference

TWO_AP = str(CONFIG_DIR / "two_ap_room.json")
SINGLE_AP = str(CONFIG_DIR / "single_ap_room.json")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    return rows[0], rows[1:]


# every route from a config to a CSV
ROUTES = [pytest.param(route, id="-".join(route[::2]))
          for route in (["solve", "--method", "closed"],
                        ["solve", "--method", "iter"],
                        ["solve", "--method", "grid"], ["sweep"],
                        ["converge"], ["montecarlo"])]


def patched_config(tmp_path, name, **param_patches):
    doc = json.loads(open(TWO_AP, encoding="utf-8").read())
    doc["params"].update(param_patches)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSweep:
    def test_two_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cmd_sweep(TWO_AP, 0, 2, 7, str(out))
        header, rows = read_rows(out)
        assert header == ["alpha", "R_total", "R_d_term", "R_u_term", "E_H"]
        assert len(rows) == 2
        assert [float(r[0]) for r in rows] == [0.0, 1.0]

    def test_alpha_zero_row_has_no_downlink_contribution(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cmd_sweep(TWO_AP, 0, 21, 7, str(out))
        _, rows = read_rows(out)
        assert float(rows[0][2]) == 0.0

    def test_rows_sorted_and_unimodal(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cmd_sweep(TWO_AP, 0, 201, 7, str(out))
        _, rows = read_rows(out)
        alphas = [float(r[0]) for r in rows]
        assert alphas == sorted(alphas)
        totals = [float(r[1]) for r in rows]
        peak = totals.index(max(totals))
        assert all(x <= y for x, y in zip(totals[:peak], totals[1:peak + 1]))
        assert all(x >= y for x, y in zip(totals[peak:], totals[peak + 1:]))

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_sweep(TWO_AP, 0, 51, 7, str(a))
        cmd_sweep(TWO_AP, 0, 51, 7, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cmd_sweep(TWO_AP, 0, 3, 7, str(out))
        _, rows = read_rows(out)
        value = rows[1][1]
        digits = re.sub(r"[^0-9]", "", value.split("e")[0]).lstrip("0")
        assert len(digits) >= 16  # 17 sig digits unless trailing zeros trimmed


class TestSolve:
    def test_closed_and_iter_agree(self, tmp_path):
        out_c, out_i = tmp_path / "c.csv", tmp_path / "i.csv"
        cmd_solve(TWO_AP, 0, "closed", 7, str(out_c))
        cmd_solve(TWO_AP, 0, "iter", 7, str(out_i))
        _, (row_c,) = read_rows(out_c)
        _, (row_i,) = read_rows(out_i)
        assert abs(float(row_c[0]) - float(row_i[0])) <= 2e-9
        assert row_c[4] == "closed" and row_i[4] == "iter"
        assert int(row_i[5]) >= 1

    def test_grid_matches_closed_form_rate(self, tmp_path):
        out_c, out_g = tmp_path / "c.csv", tmp_path / "g.csv"
        cmd_solve(TWO_AP, 0, "closed", 7, str(out_c))
        cmd_solve(TWO_AP, 0, "grid", 7, str(out_g), n_points=10 ** 4)
        _, (row_c,) = read_rows(out_c)
        _, (row_g,) = read_rows(out_g)
        r_c, r_g = float(row_c[1]), float(row_g[1])
        assert abs(r_c - r_g) <= 1e-8 * abs(r_c)

    def test_downlink_dominant_hits_upper_bound(self, tmp_path):
        cfg = patched_config(tmp_path, "dominant.json", B_r=1e3)
        out = tmp_path / "s.csv"
        cmd_solve(cfg, 0, "closed", 7, str(out))
        _, (row,) = read_rows(out)
        assert float(row[0]) == 1.0
        assert float(row[2]) > 0.0   # lambda
        assert float(row[3]) == 0.0  # mu

    def test_header(self, tmp_path):
        out = tmp_path / "s.csv"
        cmd_solve(TWO_AP, 0, "closed", 7, str(out))
        header, _ = read_rows(out)
        assert header == ["alpha_star", "R_star", "lambda", "mu", "method",
                          "iterations"]


class TestConverge:
    def test_blocks_and_trace_shape(self, tmp_path):
        out = tmp_path / "conv.csv"
        cmd_converge(TWO_AP, 0, 1e-9, 7, str(out))
        header, rows = read_rows(out)
        assert header == ["iteration", "alpha", "residual"]
        # blocks restart the iteration counter
        blocks = []
        current = []
        prev = None
        for row in rows:
            it = int(float(row[0]))
            if prev is not None and it <= prev:
                blocks.append(current)
                current = []
            current.append((it, float(row[1]), float(row[2])))
            prev = it
        blocks.append(current)
        assert len(blocks) == 3  # one per sweep B_v value
        bound = math.ceil(math.log2(1e9)) + 1
        for block in blocks:
            assert len(block) <= bound
            residuals = [r for _, _, r in block]
            assert all(x >= y for x, y in zip(residuals, residuals[1:]))
        finals = {round(block[-1][1], 6) for block in blocks}
        assert len(finals) == 3  # distinct bandwidths, distinct alpha*

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_converge(TWO_AP, 0, 1e-9, 7, str(a))
        cmd_converge(TWO_AP, 0, 1e-9, 7, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestMonteCarlo:
    def test_single_draw_matches_solve(self, tmp_path):
        out_mc, out_s = tmp_path / "mc.csv", tmp_path / "s.csv"
        cmd_montecarlo(TWO_AP, 0, 1, 7, str(out_mc))
        cmd_solve(TWO_AP, 0, "closed", 7, str(out_s))
        _, rows = read_rows(out_mc)
        _, (solve_row,) = read_rows(out_s)
        assert rows[0][0] == "0"
        assert float(rows[0][2]) == float(solve_row[0])
        assert float(rows[0][3]) == float(solve_row[1])

    def test_summary_rows(self, tmp_path):
        out = tmp_path / "mc.csv"
        cmd_montecarlo(TWO_AP, 0, 50, 7, str(out))
        header, rows = read_rows(out)
        assert header == ["draw_index", "h_sq", "alpha_star", "R_star"]
        assert len(rows) == 52
        assert rows[-2][0] == "mean" and rows[-1][0] == "std"
        alphas = np.array([float(r[2]) for r in rows[:-2]])
        assert float(rows[-2][2]) == pytest.approx(alphas.mean(), rel=1e-12)
        assert float(rows[-1][2]) == pytest.approx(alphas.std(), rel=1e-9)

    def test_huge_rician_factor_freezes_alpha(self, tmp_path):
        doc = json.loads(open(TWO_AP, encoding="utf-8").read())
        doc["mts"][0]["rician_K"] = 1e12
        cfg = tmp_path / "frozen.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "mc.csv"
        cmd_montecarlo(str(cfg), 0, 200, 7, str(out))
        _, rows = read_rows(out)
        assert float(rows[-1][2]) <= 1e-9  # std of alpha_star

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_montecarlo(TWO_AP, 0, 20, 7, str(a))
        cmd_montecarlo(TWO_AP, 0, 20, 7, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestChart:
    def test_sweep_chart_polylines(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        cmd_sweep(TWO_AP, 0, 41, 7, str(csv_path))
        svg_path = tmp_path / "sweep.svg"
        cmd_chart(str(csv_path), str(svg_path))
        svg = svg_path.read_text()
        polylines = re.findall(r'<polyline[^>]*points="([^"]*)"', svg)
        assert len(polylines) == 4  # R_total, R_d_term, R_u_term, E_H
        for pts in polylines:
            assert len(pts.split()) == 41

    def test_converge_chart_one_polyline_per_block(self, tmp_path):
        csv_path = tmp_path / "conv.csv"
        cmd_converge(TWO_AP, 0, 1e-6, 7, str(csv_path))
        svg_path = tmp_path / "conv.svg"
        cmd_chart(str(csv_path), str(svg_path))
        svg = svg_path.read_text()
        assert len(re.findall(r"<polyline", svg)) == 3

    def test_empty_csv_rejected(self, tmp_path):
        from hrvlc.errors import MalformedCsvError

        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(MalformedCsvError):
            cmd_chart(str(empty), str(tmp_path / "x.svg"))
        header_only = tmp_path / "h.csv"
        header_only.write_text("alpha,R_total\n")
        with pytest.raises(MalformedCsvError):
            cmd_chart(str(header_only), str(tmp_path / "y.svg"))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"alpha,R_total\n0,1\n0.5,{cell}\n1,2\n")
        svg = tmp_path / "bad.svg"
        assert main(["chart", "--csv", str(bad), "--out", str(svg)]) == 1
        assert not svg.exists()


class TestMainExitCodes:
    def test_success(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", TWO_AP, "--mt", "0",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_validation_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"room": {}}')
        assert main(["solve", "--config", str(bad), "--mt", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("argv", [["solve", "--method", "iter"],
                                      ["converge"]])
    def test_step_budget_below_k_eps_is_three(self, tmp_path, capsys,
                                              monkeypatch, argv):
        # eps 1e-9 needs K = 30 steps; cut the budget of 200 to 29
        monkeypatch.setattr(hrvlc.cli, "solve_iterative", functools.partial(
            hrvlc.optimizer.solve_iterative, max_iter=29))
        out = tmp_path / "x.csv"
        assert main(argv + ["--config", TWO_AP, "--mt", "0",
                            "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: bisection did not converge in 29 iterations\n")
        assert not out.exists()

    def test_bad_mt_index_is_one(self, tmp_path):
        assert main(["solve", "--config", TWO_AP, "--mt", "5",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("command", ["sweep", "solve", "converge",
                                         "montecarlo"])
    @pytest.mark.parametrize("mt", ["-1", "1"])  # the two-AP room has one MT
    def test_mt_out_of_range_is_one(self, tmp_path, command, mt):
        out = tmp_path / "x.csv"
        assert main([command, "--config", TWO_AP, "--mt", mt,
                     "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["solve", "--method", "iter"],
                                      ["converge"]],
                             ids=["solve-iter", "converge"])
    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_bad_eps_is_one(self, tmp_path, argv, eps):
        out = tmp_path / "x.csv"
        assert main(argv + ["--config", TWO_AP, "--mt", "0", "--eps", eps,
                            "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_file_is_two(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--mt", "0", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_out_is_two(self, tmp_path):
        assert main(["solve", "--config", TWO_AP, "--mt", "0",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 2

    def test_ap_below_mt_is_one(self, tmp_path, capsys):
        doc = json.loads(open(TWO_AP, encoding="utf-8").read())
        doc["mts"].append(dict(doc["mts"][0], pos=[3.0, 3.0, 2.5]))
        doc["aps"][1]["pos"][2] = 2.0
        cfg = tmp_path / "low_ap.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(cfg), "--mt", "0",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: aps[1].pos[2]: AP must be above MT mts[1]\n"
        assert not out.exists()

    def test_huge_integer_is_one(self, tmp_path, capsys):
        doc = json.loads(open(TWO_AP, encoding="utf-8").read())
        doc["aps"][1]["P_T"] = 10 ** 400
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(cfg), "--mt", "0",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: aps[1].P_T: must be finite\n"
        assert not out.exists()

    def test_chart_empty_is_one(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["chart", "--csv", str(empty),
                     "--out", str(tmp_path / "x.svg")]) == 1

    def test_deeply_nested_json_is_one(self, tmp_path, capsys):
        # deeper than the JSON decoder's recursion limit
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100000)
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(cfg), "--mt", "0",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    # Each field in range, but past what float64 carries, on the single-AP
    # room: a half angle whose cosine rounds to 1; a FOV whose sine squares
    # to 0, or that is 0 in radians; an uplink noise product T_u*N0*d^n that
    # underflows to 0; a noise floor so far below the signal that the
    # downlink SINR overflows; a link so short that d^4 underflows to 0 in
    # the harvest term; a power whose square P_T^2 overflows.
    @pytest.mark.parametrize("patch, error", [
        pytest.param({"aps": {"half_angle_deg": 1e-7}},
                     "aps[0].half_angle_deg: too small: its cosine rounds "
                     "to 1", id="half-angle"),
        pytest.param({"mts": {"fov_deg": 1e-300}},
                     "mts[0].fov_deg: too small: its sine squared rounds "
                     "to 0", id="fov"),
        pytest.param({"mts": {"fov_deg": 5e-324}},
                     "mts[0].fov_deg: too small: its sine squared rounds "
                     "to 0", id="fov-zero-radians"),
        pytest.param({"params": {"N0": 1e-300, "T_u": 1e-30}},
                     "mts[0]: uplink rate B_r*log2(1 + E_H*|h|^2/(T_u*N0*"
                     "rf_distance^pathloss_exp)) is not finite",
                     id="uplink-noise-underflow"),
        pytest.param({"params": {"N0": 1e-320}},
                     "mts[0]: downlink rate B_v*log2(1 + P_T*G/(N0*B_v + "
                     "interference)) is not finite", id="sinr-overflow"),
        pytest.param({"aps": {"pos": [2.0, 2.0, 2e-100]},
                      "mts": {"pos": [2.0, 2.0, 1e-100]}},
                     "mts[0]: uplink rate B_r*log2(1 + E_H*|h|^2/(T_u*N0*"
                     "rf_distance^pathloss_exp)) is not finite",
                     id="link-distance-underflow"),
        pytest.param({"aps": {"P_T": 1e200}},
                     "mts[0]: uplink rate B_r*log2(1 + E_H*|h|^2/(T_u*N0*"
                     "rf_distance^pathloss_exp)) is not finite",
                     id="power-square-overflow"),
    ])
    @pytest.mark.parametrize("route", ROUTES)
    def test_degenerate_config_is_one(self, tmp_path, capsys, patch, error,
                                      route):
        doc = json.loads(Path(SINGLE_AP).read_text(encoding="utf-8"))
        for section, fields in patch.items():
            (doc[section][0] if section in ("aps", "mts")
             else doc[section]).update(fields)
        cfg = tmp_path / "degenerate.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning either
            code = main(route + ["--config", str(cfg), "--mt", "0",
                                 "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("far", [1e80, 1e200])
    @pytest.mark.parametrize("route", ROUTES)
    def test_ap_past_the_floats_counts_for_nothing(self, tmp_path, capsys,
                                                   far, route):
        # d^4 overflows in the harvest term from about 1.2e77 m, and d^2 in
        # the geometry from about 1.3e154 m: the AP harvests and interferes
        # nothing, so the CSV is that of the room without it
        doc = json.loads(open(TWO_AP, encoding="utf-8").read())
        doc["room"]["x"] = 1e300
        doc["aps"][1]["pos"][0] = far
        outs = []
        for name, aps in [("far", doc["aps"]), ("near", doc["aps"][:1])]:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(dict(doc, aps=aps)))
            outs.append(tmp_path / f"{name}.csv")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(route + ["--config", str(cfg), "--mt", "0",
                                     "--out", str(outs[-1])]) == 0
        assert capsys.readouterr().err == ""
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("patch", [
        {"pathloss_exp": 1e300}, {"pathloss_exp": -2.0, "rf_distance": 1e-300},
    ], ids=["exponent", "distance"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_path_loss_past_the_floats_leaves_no_uplink(self, tmp_path,
                                                        capsys, patch, route):
        # rf_distance^pathloss_exp overflows to inf: the uplink carries
        # nothing, and the whole slot decodes
        doc = json.loads(Path(SINGLE_AP).read_text(encoding="utf-8"))
        doc["mts"][0].update(patch)
        cfg = tmp_path / "lossy.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(route + ["--config", str(cfg), "--mt", "0",
                                 "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_rows(out)
        if route == ["sweep"]:  # no alpha*: the uplink term is 0 throughout
            column, expected = header.index("R_u_term"), 0.0
        else:
            column = header.index("alpha_star" if "alpha_star" in header
                                  else "alpha")
            expected = 1.0
        values = [float(row[column]) for row in rows
                  if row[0] not in ("mean", "std")]
        assert values and set(values) == {expected}

    def test_converge_bandwidth_past_the_floats_is_one(self, tmp_path,
                                                      capsys):
        # N0*B_v underflows to 0 at the least float, and with no interferer
        # the SINR of that block is inf; the config's own B_v is fine
        doc = json.loads(Path(SINGLE_AP).read_text(encoding="utf-8"))
        doc["sweep"] = {"B_v": [1e7, 5e-324]}
        cfg = tmp_path / "tiny_bandwidth.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["converge", "--config", str(cfg), "--mt", "0",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: mts[0]: downlink rate B_v*log2(1 + P_T*G/(N0*B_v + "
            "interference)) is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sweep", "--points"],
                                      ["montecarlo", "--draws"]],
                             ids=["points", "draws"])
    def test_oversized_array_is_one(self, tmp_path, capsys, argv):
        # 10**15 float64 take 8 PB, past the address space: refused at once
        out = tmp_path / "x.csv"
        assert main(argv + [str(10 ** 15), "--config", SINGLE_AP, "--mt", "0",
                            "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()


class TestCsvWriter:
    """The row-template writer writes the reference writer's bytes."""

    EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, 0.1)

    @staticmethod
    def assert_same_bytes(tmp_path, header, template, rows, tail_rows=()):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        tail = "".join(",".join(map(str, row)) + "\n" for row in tail_rows)
        hrvlc.cli._write_csv(got, ",".join(header), template, rows, tail)
        write_csv_reference(want, header, list(rows) + list(tail_rows))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("kind", [float, np.float64, np.array],
                             ids=["float", "float64", "0-d-array"])
    def test_float_extremes(self, tmp_path, kind):
        rows = [(kind(x), kind(-x)) for x in self.EXTREMES]
        self.assert_same_bytes(tmp_path, ["a", "b"], "%.17g,%.17g\n", rows)

    def test_integer_columns(self, tmp_path):
        rows = [(0, np.int64(-1), "closed"),
                (10 ** 20, np.int64(2 ** 63 - 1), "grid")]
        self.assert_same_bytes(tmp_path, ["i", "j", "method"], "%d,%d,%s\n",
                               rows)

    def test_summary_tail(self, tmp_path):
        rows = [(i, np.float64(x), x) for i, x in enumerate(self.EXTREMES)]
        self.assert_same_bytes(tmp_path, ["draw_index", "h_sq", "alpha"],
                               "%d,%.17g,%.17g\n", rows,
                               [("mean", "", "0.5"), ("std", "", "0")])

    SOLVE = ["alpha_star", "R_star", "lambda", "mu", "method", "iterations"]
    MONTECARLO = ["draw_index", "h_sq", "alpha_star", "R_star"]

    @pytest.mark.parametrize("run, header", [
        (lambda out: cmd_sweep(TWO_AP, 0, 1001, 7, out),
         ["alpha", "R_total", "R_d_term", "R_u_term", "E_H"]),
        (lambda out: cmd_solve(TWO_AP, 0, "closed", 7, out), SOLVE),
        (lambda out: cmd_solve(TWO_AP, 0, "iter", 7, out), SOLVE),
        (lambda out: cmd_solve(TWO_AP, 0, "grid", 7, out), SOLVE),
        (lambda out: cmd_converge(TWO_AP, 0, 1e-9, 7, out),
         ["iteration", "alpha", "residual"]),
        (lambda out: cmd_montecarlo(TWO_AP, 0, 1, 7, out), MONTECARLO),
        (lambda out: cmd_montecarlo(TWO_AP, 0, 200, 7, out), MONTECARLO),
    ], ids=["sweep", "solve-closed", "solve-iter", "solve-grid", "converge",
            "montecarlo-1", "montecarlo-200"])
    def test_command_csv(self, tmp_path, run, header):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        report = run(str(got))
        write_csv_reference(want, header, report.rows)
        assert got.read_bytes() == want.read_bytes()


class TestReusedParser:
    """main's one parser starts each call from the defaults."""

    def test_interleaved_calls_match_a_fresh_parser(self, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "x.csv"
        common = ["--config", TWO_AP, "--mt", "0", "--out", str(out)]
        calls = [["solve", "--method", "grid", "--points", "101"] + common,
                 ["solve", "--method", "grid"] + common,
                 ["solve", "--method", "bogus"] + common,
                 ["sweep", "--points", "11"] + common]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            if not out.exists():
                return code, None
            data = out.read_bytes()
            out.unlink()
            return code, data

        shared = [run(argv) for argv in calls]
        assert hrvlc.cli._parser() is hrvlc.cli._parser()
        monkeypatch.setattr(hrvlc.cli, "_parser", build_parser)
        fresh = [run(argv) for argv in calls]
        assert shared == fresh
        assert shared[2] == (("SystemExit", 2), None)
        default_grid = tmp_path / "default_grid.csv"
        cmd_solve(TWO_AP, 0, "grid", 0, str(default_grid), n_points=10001)
        assert shared[1] == (0, default_grid.read_bytes())
        assert shared[0][1] != shared[1][1]


class TestOnePassPerCall:
    """Each call parses its config once and evaluates its AP links in one
    batched geometry call, with the Lambertian orders worked out once.

    It also draws its fades through one envelope pass and bisects in at
    most one ``solve_iterative`` call.
    """

    @pytest.fixture
    def three_ap(self, tmp_path):
        doc = json.loads(open(TWO_AP, encoding="utf-8").read())
        doc["aps"].append({"pos": [1.25, 3.75, 3.0], "P_T": 3.0,
                           "half_angle_deg": 60})
        path = tmp_path / "three_ap.json"
        path.write_text(json.dumps(doc, indent=1))
        return str(path)

    @pytest.mark.parametrize("run, bisections", [
        (lambda cfg, out: cmd_sweep(cfg, 0, 11, 7, out), 0),
        (lambda cfg, out: cmd_solve(cfg, 0, "closed", 7, out), 0),
        (lambda cfg, out: cmd_solve(cfg, 0, "iter", 7, out), 1),
        (lambda cfg, out: cmd_solve(cfg, 0, "grid", 7, out, n_points=101),
         0),
        (lambda cfg, out: cmd_converge(cfg, 0, 1e-9, 7, out), 1),
        (lambda cfg, out: cmd_montecarlo(cfg, 0, 5, 7, out), 0),
    ], ids=["sweep", "solve-closed", "solve-iter", "solve-grid", "converge",
            "montecarlo"])
    def test_counts_and_digest(self, tmp_path, monkeypatch, three_ap, run,
                               bisections):
        calls = {"link_geometry": 0, "_lambertian_order": 0, "loads": 0,
                 "rician_envelope": 0, "solve_iterative": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # replace every binding, so a module-level import is counted too
        for fn in (hrvlc.scenario.link_geometry,
                   hrvlc.scenario._lambertian_order,
                   hrvlc.harvest_uplink.rician_envelope,
                   hrvlc.optimizer.solve_iterative):
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("hrvlc"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key,
                                            counted(fn.__name__, fn))
        monkeypatch.setattr(json, "loads", counted("loads", json.loads))
        report = run(three_ap, str(tmp_path / "out.csv"))
        assert calls == {"link_geometry": 1, "_lambertian_order": 1,
                         "loads": 1, "rician_envelope": 1,
                         "solve_iterative": bisections}
        with open(three_ap, "rb") as fh:
            assert report.digest == hashlib.sha256(fh.read()).hexdigest()


class TestBatchedFading:
    """Every draw of a call from one envelope pass, bit for bit."""

    @pytest.mark.parametrize("k", [0.0, 0.7, 3.0, 1e12])
    @pytest.mark.parametrize("n_draws", [1, 200, 20000])
    def test_matches_the_draw_by_draw_reference(self, k, n_draws):
        got = hrvlc.cli._fading_power(k, 1.7, 11, n_draws)
        want = [fading_power_reference(k, 1.7, 11, i) for i in range(n_draws)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_one_fade_is_draw_zero_as_a_float(self):
        # the fade that sweep, solve and converge use
        mts = load_scenario(Path(TWO_AP).read_text()).mts
        h_sq = hrvlc.cli._prepare(TWO_AP, 0, 5)[3]
        assert type(h_sq) is float
        assert h_sq == fading_power_reference(mts.rician_k[0],
                                              mts.rician_omega[0], 5, 0)


def _subprocess_env(**extra):
    src = str(Path(hrvlc.__file__).resolve().parent.parent)
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_cli_import_leaves_scipy_out():
    code = ("import sys, hrvlc.cli; "
            "sys.exit(any(m.partition('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          timeout=60).returncode == 0


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_first_error_does_not_depend_on_hash_seed(tmp_path, hash_seed):
    # with every params key missing, the first in table order is named
    doc = json.loads(open(TWO_AP, encoding="utf-8").read())
    doc["params"] = {}
    cfg = tmp_path / "no_params.json"
    cfg.write_text(json.dumps(doc))
    done = subprocess.run(
        [sys.executable, "-m", "hrvlc.cli", "solve", "--config", str(cfg),
         "--mt", "0", "--out", str(tmp_path / "x.csv")],
        env=_subprocess_env(PYTHONHASHSEED=hash_seed), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr == "error: params.B_v: missing\n"


# good and bad values of each flag; <name> stands for a path the test
# makes. --points and --draws stay small.
GOOD = {
    "--config": st.sampled_from(["<two_ap>", "<single_ap>"]),
    "--mt": st.just("0"),
    "--seed": st.integers(0, 2 ** 70).map(str),
    "--out": st.just("<out>"),
    "--points": st.integers(2, 2000).map(str),
    "--draws": st.integers(1, 300).map(str),
    "--eps": st.sampled_from(["1e-9", "1e-3", "0.5", "1e-300", "5e-324"]),
    "--method": st.sampled_from(["closed", "iter", "grid"]),
    "--csv": st.sampled_from(["<sweep_csv>", "<converge_csv>"]),
}
BAD = {
    "--config": st.sampled_from(["<missing>", "<sweep_csv>", "<dir>", ""]),
    "--mt": st.sampled_from(["1", "-1", "x", ""]),
    "--seed": st.sampled_from(["-1", "0.5"]),
    "--out": st.sampled_from(["<dir>", "<missing>/x.csv", ""]),
    "--points": st.sampled_from(["1", "0", "-3", "1e3"]),
    "--draws": st.sampled_from(["0", "-3", "2.5"]),
    "--eps": st.sampled_from(["0", "-1", "nan", "inf", "1e309", "x"]),
    "--method": st.just("newton"),
    "--csv": st.sampled_from(["<two_ap>", "<missing>", "<dir>", "<out>"]),
}
COMMON = ["--config", "--mt", "--out"]
REQUIRED = {"sweep": COMMON, "solve": COMMON, "converge": COMMON,
            "montecarlo": COMMON, "chart": ["--csv", "--out"]}
OPTIONAL = {"sweep": ["--seed", "--points"],
            "solve": ["--seed", "--method", "--eps", "--points"],
            "converge": ["--seed", "--eps"],
            "montecarlo": ["--seed", "--draws"], "chart": []}


@st.composite
def cli_argv(draw):
    """A command and its flags in any order, with at most one fault: a bad
    value, a missing flag or a stray token."""
    command = draw(st.sampled_from(sorted(REQUIRED)))
    flags = REQUIRED[command] + [flag for flag in OPTIONAL[command]
                                 if draw(st.booleans())]
    values = {flag: draw(GOOD[flag]) for flag in flags}
    fault = draw(st.sampled_from(["none", "none", "value", "missing",
                                  "stray"]))
    if fault == "value":
        flag = draw(st.sampled_from(flags))
        values[flag] = draw(BAD[flag])
    elif fault == "missing":
        del values[draw(st.sampled_from(flags))]
    argv = [command] + [token for flag in draw(st.permutations(list(values)))
                        for token in (flag, values[flag])]
    if fault == "stray":
        argv.insert(draw(st.integers(1, len(argv))), draw(
            st.sampled_from(sorted(GOOD)) | st.text(max_size=6)))
    return argv


ERROR_LINE = re.compile(r"(hrvlc(?: \w+)?: )?error: ")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_any_argv_exits_with_a_documented_code(tmp_path, monkeypatch, argv):
    # a bare token may be taken as a path: keep what it writes in tmp_path
    monkeypatch.chdir(tmp_path)
    paths = {"<two_ap>": TWO_AP, "<single_ap>": SINGLE_AP,
             "<missing>": str(tmp_path / "missing"), "<dir>": str(tmp_path),
             "<out>": str(tmp_path / "out.csv"),
             "<sweep_csv>": str(tmp_path / "sweep.csv"),
             "<converge_csv>": str(tmp_path / "converge.csv")}
    if not (tmp_path / "sweep.csv").exists():
        cmd_sweep(TWO_AP, 0, 11, 0, paths["<sweep_csv>"])
        cmd_converge(TWO_AP, 0, 1e-3, 0, paths["<converge_csv>"])
    argv = [token.replace("<missing>", paths["<missing>"])
            if token.startswith("<missing>") else paths.get(token, token)
            for token in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
    errors = [line for line in err.getvalue().splitlines()
              if ERROR_LINE.match(line)]
    assert len(errors) == (code != 0)
    assert "Traceback" not in err.getvalue()
