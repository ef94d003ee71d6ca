"""The chart command: bytes against the point-by-point reference, errors.

``oracles.chart_reference`` is the renderer that formatted each point through
Python floats; the array-pass chart must write its bytes for every CSV it
accepts, and name the same first bad row for every CSV it rejects.
"""

import contextlib
import csv
import io
import json
import re
import sys
import warnings
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hrvlc.cli import cmd_chart, cmd_converge, cmd_sweep, main
from hrvlc.errors import MalformedCsvError

from conftest import CONFIG_DIR
from oracles import chart_reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import generate_hall  # noqa: E402

CONFIGS = [str(CONFIG_DIR / "two_ap_room.json"),
           str(CONFIG_DIR / "single_ap_room.json")]


def outcome(render, csv_path, svg_path):
    """("ok", SVG bytes) or ("error", message) of one render call."""
    try:
        render(str(csv_path), str(svg_path))
    except MalformedCsvError as exc:
        return "error", str(exc)
    return "ok", Path(svg_path).read_bytes()


def assert_matches_reference(csv_path):
    got = outcome(cmd_chart, csv_path, csv_path.with_suffix(".got.svg"))
    want = outcome(chart_reference, csv_path,
                   csv_path.with_suffix(".want.svg"))
    assert got == want


def write(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


class TestSameBytesAsReference:
    @pytest.mark.parametrize("config", CONFIGS, ids=["two_ap", "single_ap"])
    @pytest.mark.parametrize("points", [2, 41, 1001])
    def test_sweep(self, tmp_path, config, points):
        csv_path = tmp_path / "sweep.csv"
        cmd_sweep(config, 0, points, 7, str(csv_path))
        assert_matches_reference(csv_path)

    def test_converge_two_ap(self, tmp_path):
        csv_path = tmp_path / "conv.csv"
        cmd_converge(CONFIGS[0], 0, 1e-9, 7, str(csv_path))
        assert_matches_reference(csv_path)

    def test_converge_hall_terminal(self, tmp_path):
        config = tmp_path / "hall.json"
        config.write_text(json.dumps(generate_hall(2, False, 16, 16, 24)))
        csv_path = tmp_path / "conv.csv"
        cmd_converge(str(config), 1, 1e-9, 7, str(csv_path))
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        # 24 blocks, 16 of them a single boundary row, more than the palette
        starts = [i for i, row in enumerate(rows) if row[0] == "1"]
        lengths = [b - a for a, b in zip(starts, starts[1:] + [len(rows)])]
        assert len(lengths) == 24 and lengths.count(1) == 16
        assert_matches_reference(csv_path)

    @pytest.mark.parametrize("text", [
        '"alpha","R"\n"0","1.5"\n"0.5",3\n"1","2"\n',
        "alpha,R\n 0 , 1 \n0.5,\t3\n1,  2\n",
        "a,b\n1_0,2_5\n2_0,1e1_0\n",
        "alpha,R,S\r\n0,1,2\r\n1,2,0\r\n",
        "\nalpha,R\n\n0,1\n\n\n1,2\n\n",
        "a,b,c\n5,1,2\n5,3,2\n5,2,2\n",
        "a,b\n-3,-1e-300\n-1,-5\n2,4\n",
        "a,b\n7,8\n",
        "a,b\n0,1\n-0,-0\n",
        "a,b\n-0,1\n0,0\n",
        "a,b\n-8.9e307,8.9e307\n8.9e307,-8.9e307\n0,5e-324\n",
        "iteration,alpha\n1,0.5\n1,0.25\n2,0.375\n1,0.9\n0,0.1\n",
        "iteration,alpha,residual\n3,0.5,1\n2,0.25,1\n5,0.125,2\n",
        "x y,é\n1,2\n3,4\n",
        # the column spans more than the largest float, but no block does
        "iteration,alpha\n1,1e308\n2,0\n1,-1e308\n",
    ], ids=["quoted", "space-padded", "underscores", "crlf", "blank-lines",
            "constant-x", "negative", "one-row", "zero-then-minus-zero",
            "minus-zero-then-zero", "extremes", "converge-resets",
            "converge-falling", "unicode-header", "blocks-apart"])
    def test_hand_written(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(write(tmp_path, text))


class TestFirstError:
    """Rows in order; in each row width, then non-numeric, then non-finite."""

    @pytest.mark.parametrize("text, message", [
        ("a,b\n0,1\nnan,2\n1,2\n2,3\n4\n",
         "non-finite value in ['nan', '2']"),
        ("a,b\n0,1\n1,2\n2,3\n4\n0,inf\n", "ragged row ['4']"),
        ("a,b\n0,1\n0,x\n0,-inf\n", "non-numeric value in ['0', 'x']"),
        ("a,b\n0,1\n0,-inf\n0,x\n", "non-finite value in ['0', '-inf']"),
        ("a,b\n0,1\ninf,x\n", "non-numeric value in ['inf', 'x']"),
        ("a,b\n0,1\nx,1,2\n", "ragged row ['x', '1', '2']"),
        ("a,b\n0,1\n\"\"\n", "ragged row ['']"),
        ("a,b\n", "no data rows"),
        ("\n\n", "no data rows"),
    ])
    def test_names_the_reference_row(self, tmp_path, text, message):
        path = write(tmp_path, text)
        want = outcome(chart_reference, path, tmp_path / "want.svg")
        assert want == ("error", f"{path}: {message}")
        assert outcome(cmd_chart, path, tmp_path / "got.svg") == want
        assert not (tmp_path / "got.svg").exists()

    @pytest.mark.parametrize("text", ["alpha\n0\n1\n", "iteration\n1\n2\n",
                                      "a\n1,2\n"])
    def test_fewer_than_two_columns(self, tmp_path, text):
        path = write(tmp_path, text)
        with pytest.raises(MalformedCsvError) as err:
            cmd_chart(str(path), str(tmp_path / "x.svg"))
        assert str(err.value) == f"{path}: need at least 2 columns"

    @pytest.mark.parametrize("text, column", [
        ("a,b\n-1e308,1e308\n1e308,-1e308\n0,5e-324\n", "a"),
        ("a,b\n0,1.7976931348623157e308\n1,-1e300\n", "b"),
        ("iteration,alpha\n1,0\n2,1e308\n3,-1e308\n1,5\n", "alpha"),
    ])
    def test_range_past_the_largest_float(self, tmp_path, capsys, text,
                                          column):
        # the reference scales such a column by an infinite span to nan
        path = write(tmp_path, text)
        assert b"nan" in outcome(chart_reference, path,
                                 tmp_path / "want.svg")[1]
        svg = tmp_path / "x.svg"
        assert main(["chart", "--csv", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: column {column!r} spans more than the float "
            "range\n")
        assert not svg.exists()

    @pytest.mark.parametrize("name", ["\x01b", "b\x1f", "\ufffe", "a\x00"])
    def test_header_xml_cannot_hold(self, tmp_path, capsys, name):
        path = write(tmp_path, f"a,{name}\n0,1\n1,2\n")
        svg = tmp_path / "x.svg"
        assert main(["chart", "--csv", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: header {name!r} has a character XML forbids\n")
        assert not svg.exists()

    def test_cell_past_field_limit_is_one_error_line(self, tmp_path, capsys):
        path = write(tmp_path, "a,b\n" + "1" * 200000 + ",2\n")
        svg = tmp_path / "x.svg"
        assert main(["chart", "--csv", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: field larger than field limit (131072)\n")
        assert not svg.exists()

    def test_bytes_past_utf8_name_the_csv(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(b"a,b\n0,1\n\xff,2\n")
        svg = tmp_path / "x.svg"
        assert main(["chart", "--csv", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in "
            "position 8: invalid start byte\n")
        assert not svg.exists()


class TestLabels:
    def test_header_names_are_escaped(self, tmp_path):
        path = write(tmp_path, "<x>&,a,<b>&\n0,1,2\n1,2,1\n")
        svg = tmp_path / "x.svg"
        cmd_chart(str(path), str(svg))
        texts = [node.firstChild.data for node in
                 minidom.parse(str(svg)).getElementsByTagName("text")]
        assert "<x>&" in texts and "a" in texts and "<b>&" in texts
        assert "&amp;" in svg.read_text() and "<b>" not in svg.read_text()

    def test_every_character_xml_allows_parses_back(self, tmp_path):
        names = ["\t\u00e9\U0001f600", "\ud7ff\ue000\ufffd", "x\U0010ffff",
                 "a\r\nb"]
        path = tmp_path / "in.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["x"] + names, [0, 1, 2, 3, 4],
                                      [1, 2, 1, 0, 5]])
        svg = tmp_path / "x.svg"
        cmd_chart(str(path), str(svg))
        texts = [node.firstChild.data for node in
                 minidom.parse(str(svg)).getElementsByTagName("text")]
        # the parser reads a CR LF in text as one LF
        assert texts[-4:] == names[:3] + ["a\nb"]


# cells and separators of small CSVs, numbers and non-numbers alike
TOKENS = st.sampled_from(["0", "1", "-", "+", ".", "e", "5", "_", "inf",
                          "nan", "x", "iteration", "1e308", ",", ",", "\n",
                          "\n", "\r\n", '"', " "])
CSV_TEXT = st.lists(TOKENS, max_size=40).map("".join)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=CSV_TEXT)
def test_chart_matches_reference_on_small_csvs(tmp_path, text):
    path = write(tmp_path, text)
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(filter(None, csv.reader(fh)))
    got = outcome(cmd_chart, path, tmp_path / "got.svg")
    if len(table) >= 2 and len(table[0]) < 2:
        assert got == ("error", f"{path}: need at least 2 columns")
        return
    want = outcome(chart_reference, path, tmp_path / "want.svg")
    if want[0] == "ok" and re.search(rb'points="[^"]*nan', want[1]):
        # the reference scaled a series by an infinite span; no token
        # here makes a header that XML forbids
        assert got[0] == "error"
        assert re.fullmatch(f"{re.escape(str(path))}: column '.*' spans "
                            "more than the float range", got[1])
    else:
        assert got == want


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(CSV_TEXT, st.text(max_size=40)))
def test_chart_exit_code_on_arbitrary_text(tmp_path, text):
    path = write(tmp_path, text)
    svg = tmp_path / "x.svg"
    svg.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["chart", "--csv", str(path), "--out", str(svg)])
    assert code in (0, 1, 2)
    if code == 0:
        assert svg.exists() and err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
