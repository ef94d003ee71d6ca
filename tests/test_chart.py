"""The chart command: bytes against the point-by-point reference, errors.

``oracles.chart_reference`` is the renderer that formatted each point through
Python floats; the array-pass chart must write its bytes for every CSV it
accepts.  Chart reads one dialect, the one every command writes, and refuses
any other file in one ``error:`` line that names its first fault.
"""

import contextlib
import csv
import io
import json
import re
import sys
import tracemalloc
import warnings
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hrvlc.cli
from hrvlc.cli import (_read_numeric_csv, cmd_chart, cmd_converge, cmd_sweep,
                       main)
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
        "alpha,R\n\n0,1\n\n\n1,2\n\n",
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
    ], ids=["blank-lines", "constant-x", "negative", "one-row",
            "zero-then-minus-zero", "minus-zero-then-zero", "extremes",
            "converge-resets", "converge-falling", "unicode-header",
            "blocks-apart"])
    def test_hand_written(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(write(tmp_path, text))


# a data byte outside the dialect, as chart names it
def not_a_data_byte(byte, offset):
    return (f"data byte {byte:#04x} at offset {offset} is not "
            "0-9 + - . e E , or LF")


# text, the reference's message, chart's message: chart names the first byte
# outside the dialect, else the first row that fails to parse, else the
# first not finite, with rows counted from 1 at the first data row
FIRST_ERRORS = [
    ("a,b\n0,1\nnan,2\n1,2\n2,3\n4\n", "non-finite value in ['nan', '2']",
     not_a_data_byte(ord("n"), 8)),
    ("a,b\n0,1\n1,2\n2,3\n4\n0,inf\n", "ragged row ['4']",
     not_a_data_byte(ord("i"), 20)),
    ("a,b\n0,1\n0,x\n0,-inf\n", "non-numeric value in ['0', 'x']",
     not_a_data_byte(ord("x"), 10)),
    ("a,b\n0,1\n0,-inf\n0,x\n", "non-finite value in ['0', '-inf']",
     not_a_data_byte(ord("i"), 11)),
    ("a,b\n0,1\ninf,x\n", "non-numeric value in ['inf', 'x']",
     not_a_data_byte(ord("i"), 8)),
    ("a,b\n0,1\nx,1,2\n", "ragged row ['x', '1', '2']",
     not_a_data_byte(ord("x"), 8)),
    ("a,b\n0,1\n\"\"\n", "ragged row ['']", not_a_data_byte(ord('"'), 8)),
    ("a,b\n", "no data rows", "no data rows"),
    ("\n\n", "no data rows", "no data rows"),
    ("a,b\n\n\n", "no data rows", "no data rows"),
    ("a,b\n0,1\n1,\n1e,2\n", "non-numeric value in ['1', '']",
     "could not convert string '' to float64 at row 2, column 2."),
    ("a,b\n0,1\n+-1,2\n", "non-numeric value in ['+-1', '2']",
     "could not convert string '+-1' to float64 at row 2, column 1."),
    ("a,b\n0,1\n\n1,2,3\n0,1e\n", "ragged row ['1', '2', '3']",
     "the number of columns changed from 2 to 3 at row 2"),
    ("a,b\n0,1\n1e999,1e\n", "non-numeric value in ['1e999', '1e']",
     "could not convert string '1e' to float64 at row 2, column 2."),
    # a row that fails to parse comes before an earlier one not finite
    ("a,b\n0,1\n1,-1e999\n1,\n", "non-finite value in ['1', '-1e999']",
     "could not convert string '' to float64 at row 3, column 2."),
    ("a,b\n0,1\n1,-1e999\n2,3\n", "non-finite value in ['1', '-1e999']",
     "overflow to -inf at row 2, column 2"),
    ("a,b,c\n0,1\n1,2\n", "ragged row ['0', '1']",
     "the header has 3 columns, but row 1 has 2"),
]


class TestFirstError:
    """The header, then the body's bytes, then each row's width and cells in
    order, then the values' finiteness."""

    @pytest.mark.parametrize("text, message, ours", FIRST_ERRORS,
                             ids=[f"{text}-{message}"
                                  for text, message, _ in FIRST_ERRORS])
    def test_names_the_reference_row(self, tmp_path, text, message, ours):
        # the reference names its first bad row, chart its own first fault
        path = write(tmp_path, text)
        want = outcome(chart_reference, path, tmp_path / "want.svg")
        assert want == ("error", f"{path}: {message}")
        assert outcome(cmd_chart, path, tmp_path / "got.svg") == (
            "error", f"{path}: {ours}")
        assert not (tmp_path / "got.svg").exists()

    @pytest.mark.parametrize("text, message", [
        ('"alpha","R"\n"0","1.5"\n"0.5",3\n"1","2"\n',
         "header byte 0x22 at offset 0 is a '\"' or CR"),
        ('"alpha",R\n0,1.5\n1,2\n',
         "header byte 0x22 at offset 0 is a '\"' or CR"),
        ("alpha,R\n 0 , 1 \n0.5,\t3\n1,  2\n", not_a_data_byte(0x20, 8)),
        ("a,b\n1_0,2_5\n2_0,1e1_0\n", not_a_data_byte(ord("_"), 5)),
        ("alpha,R,S\r\n0,1,2\r\n1,2,0\r\n",
         "header byte 0x0d at offset 9 is a '\"' or CR"),
        ("alpha,R\n0,1\r\n1,2\r\n", not_a_data_byte(0x0d, 11)),
        # the first line is the header, blank or not
        ("\nalpha,R\n\n0,1\n\n\n1,2\n\n", "need at least 2 columns"),
        # np.loadtxt would strip each of these around a cell
        ("a,b\n0,1\n2\x1c,3\n", not_a_data_byte(0x1c, 9)),
        ("a,b\n0,1\n\x0b2,3\n", not_a_data_byte(0x0b, 8)),
        ("a,b\n0,1\n2,3\xa0\n", not_a_data_byte(0xc2, 11)),
    ], ids=["quoted", "quoted-header", "space-padded", "underscores", "crlf",
            "crlf-body", "leading-blank-line", "file-separator",
            "vertical-tab", "no-break-space"])
    def test_outside_the_dialect(self, tmp_path, capsys, text, message):
        # the reference reads each, but chart reads only what commands write
        path = write(tmp_path, text)
        svg = tmp_path / "x.svg"
        assert main(["chart", "--csv", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not svg.exists()

    @pytest.mark.parametrize("text, message", [
        # the header comes first, then the body's bytes
        ('"a",b\n0,x\n', "header byte 0x22 at offset 0 is a '\"' or CR"),
        ("a\n0,x\n", "need at least 2 columns"),
        # a byte anywhere comes before a row that fails to parse
        ("a,b\n0\n1,2,x\n", not_a_data_byte(ord("x"), 10)),
        # row 1 against the header, before a later row fails to parse
        ("a,b\n0,1,2\n1,e\n", "the header has 2 columns, but row 1 has 3"),
        # a width, then a cell, in row order; blank lines are not counted
        ("a,b\n0,1\n\n1,e\n2\n", "could not convert string 'e' to float64 "
         "at row 2, column 2."),
        ("a,b\n0,1\n\n\n1\n2,e\n", "the number of columns changed from 2 "
         "to 1 at row 2"),
        ("a,b\n1e999,1\n2\n", "the number of columns changed from 2 to 1 at "
         "row 2"),
    ], ids=["header-then-body", "width-then-body", "byte-then-rows",
            "row-1-width", "cell-then-width", "width-then-cell",
            "parse-then-finite"])
    def test_check_order(self, tmp_path, text, message):
        path = write(tmp_path, text)
        assert outcome(cmd_chart, path, tmp_path / "got.svg") == (
            "error", f"{path}: {message}")

    def test_numpy_wording_not_known_is_passed_on(self, tmp_path, capsys,
                                                   monkeypatch):
        def loadtxt(*args, **kwargs):
            raise ValueError("row 0 is not to our taste; nor is row 1")
        monkeypatch.setattr(hrvlc.cli.np, "loadtxt", loadtxt)
        path = write(tmp_path, "a,b\n0,1\n")
        svg = tmp_path / "x.svg"
        assert main(["chart", "--csv", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: row 0 is not to our taste; nor is row 1\n")
        assert not svg.exists()

    def test_header_past_utf8_names_its_offset(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(b"a,\xff\n0,1\n")
        svg = tmp_path / "x.svg"
        assert main(["chart", "--csv", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in "
            "position 2: invalid start byte\n")
        assert not svg.exists()

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
        # longer than csv.field_size_limit(): chart reads it whole
        path = write(tmp_path, "a,b\n" + "1" * 200000 + ",2\n")
        svg = tmp_path / "x.svg"
        assert main(["chart", "--csv", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: overflow to inf at row 1, column 1\n")
        assert not svg.exists()

    @pytest.mark.parametrize("text", [
        "a,b\n0." + "0" * 200000 + "1,2\n",
        "a" * 200000 + ",b\n0,1\n",
    ], ids=["finite", "header"])
    def test_cell_past_field_limit_charts(self, tmp_path, text):
        path = write(tmp_path, text)
        header, values = _read_numeric_csv(str(path))
        lines = text.splitlines()
        assert header == lines[0].split(",")
        assert values.tolist() == [[float(v) for v in lines[1].split(",")]]
        assert main(["chart", "--csv", str(path), "--out",
                     str(tmp_path / "x.svg")]) == 0

    def test_bytes_past_utf8_name_the_csv(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(b"a,b\n0,1\n\xff,2\n")
        svg = tmp_path / "x.svg"
        assert main(["chart", "--csv", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {not_a_data_byte(0xff, 8)}\n")
        assert not svg.exists()

    def test_bytes_past_utf8_after_8_kb_name_their_offset(self, tmp_path,
                                                          capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(b"a,b\n" + b"0,1\n" * 5000 + b"\xff,2\n")
        assert main(["chart", "--csv", str(path), "--out",
                     str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {not_a_data_byte(0xff, 20004)}\n")

    # the body is checked 64 KB at a time from offset 4: each side of the
    # first slice's end, and far past it
    @pytest.mark.parametrize("offset", [65539, 65540, 400004])
    def test_byte_in_any_slice_names_its_offset(self, tmp_path, offset):
        data = bytearray(b"a,b\n" + b"0,1\n" * 100001)
        data[offset] = ord("x")
        path = tmp_path / "in.csv"
        path.write_bytes(bytes(data))
        assert outcome(cmd_chart, path, tmp_path / "x.svg") == (
            "error", f"{path}: {not_a_data_byte(ord('x'), offset)}")


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
        names = ["\t\u00e9\U0001f600", "\ud7ff\ue000\ufffd", "x\U0010ffff"]
        path = write(tmp_path,
                     ",".join(["x"] + names) + "\n0,1,2,3\n1,2,1,0\n")
        svg = tmp_path / "x.svg"
        cmd_chart(str(path), str(svg))
        texts = [node.firstChild.data for node in
                 minidom.parse(str(svg)).getElementsByTagName("text")]
        assert texts[-3:] == names


# cells and separators of small CSVs, numbers and non-numbers alike
TOKENS = st.sampled_from(["0", "1", "-", "+", ".", "e", "5", "_", "inf",
                          "nan", "x", "iteration", "1e308", ",", ",", "\n",
                          "\n", "\r\n", '"', " "])
CSV_TEXT = st.lists(TOKENS, max_size=40).map("".join)
PLAIN_TOKENS = st.sampled_from(["0", "1", "5", "9", ".", "e", "E", "+", "-",
                                ",", "\n", "1e308", "1e999", "5e-324"])


@st.composite
def plain_csv_text(draw):
    """A numeric CSV in chart's dialect, with up to two dialect tokens
    spliced in.

    Every byte is one the dialect admits, so, but for a blank first line,
    chart refuses what the reference refuses: ragged rows, empty cells,
    "1e", "+-", an overflow to inf, and a body of blank lines alone.
    """
    header = draw(st.sampled_from(["a,b", "iteration,alpha", "a,b,c"]))
    cell = st.one_of(PLAIN_TOKENS, st.floats(allow_nan=False,
                                             allow_infinity=False).map(repr))
    row = st.lists(cell, min_size=header.count(",") + 1,
                   max_size=header.count(",") + 1).map(",".join)
    text = "\n".join([header] + draw(st.lists(row, max_size=6))) + "\n"
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(PLAIN_TOKENS) + text[at:]
    return text


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(CSV_TEXT, plain_csv_text(), st.text(max_size=40)))
def test_chart_matches_reference_on_small_csvs(tmp_path, text):
    """Whatever chart accepts, the reference draws to the same bytes."""
    path = write(tmp_path, text)
    got = outcome(cmd_chart, path, tmp_path / "got.svg")
    # chart escapes &, < and > in a name (TestLabels); the reference does not
    if got[0] == "ok" and set("&<>").isdisjoint(text.partition("\n")[0]):
        assert outcome(chart_reference, path, tmp_path / "want.svg") == got


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=plain_csv_text().filter(lambda text: text[:1] != "\n"))
def test_chart_accepts_plain_csvs_as_the_reference_does(tmp_path, text):
    # the reference skips a blank first line, where chart reads the header
    path = write(tmp_path, text)
    got = outcome(cmd_chart, path, tmp_path / "got.svg")
    want = outcome(chart_reference, path, tmp_path / "want.svg")
    if want[0] == "ok" and re.search(rb'points="[^"]*nan', want[1]):
        # the reference scaled a series by an infinite span
        assert got[0] == "error"
        assert re.fullmatch(f"{re.escape(str(path))}: column '.*' spans "
                            "more than the float range", got[1])
    else:
        assert got[0] == want[0]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(CSV_TEXT, plain_csv_text(), st.text(max_size=40)))
def test_chart_exit_code_on_arbitrary_text(tmp_path, text):
    path = write(tmp_path, text)
    svg = tmp_path / "x.svg"
    svg.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["chart", "--csv", str(path), "--out", str(svg)])
    assert code in (0, 1)
    assert svg.exists() == (code == 0)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


class TestPlainReader:
    """Every file goes through np.loadtxt, with float's values."""

    def test_values_are_float_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(24)
        bits = rng.integers(0, 2 ** 64, 3000, dtype=np.uint64, endpoint=False)
        finite = bits.view(np.float64)
        finite = finite[np.isfinite(finite)].tolist()
        cells = ["%.17g" % v for v in finite[:1000]]
        cells += [repr(v) for v in finite[1000:2000]]
        cells += ["%.25g" % v for v in finite[2000:]]
        # 1 to 30 digit mantissas, from underflow to near the largest float
        cells += ["".join(map(str, rng.integers(0, 10, n))) +
                  f"e{rng.integers(-330, 309 - n)}"
                  for n in rng.integers(1, 31, 1000).tolist()]
        cells += ["0", "-0", "0.0", "-0.0", "+0", "5e-324", "-5e-324",
                  "2.2250738585072009e-308", "2.2250738585072014e-308",
                  "1.7976931348623157e308", "-1.7976931348623157e308",
                  "1E5", ".5", "5.", "+1", "007", "-.5e-3", "1e+3", "1e-3"]
        cells += ["1"] * (-len(cells) % 6)
        rows = [cells[i:i + 6] for i in range(0, len(cells), 6)]
        path = tmp_path / "bits.csv"
        path.write_text("a,b,c,d,e,f\n" + "".join(
            ",".join(row) + "\n" for row in rows))
        header, values = _read_numeric_csv(str(path))
        want = np.array([[float(v) for v in row] for row in rows])
        assert header == list("abcdef")
        assert values.dtype == np.float64
        assert values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("command", ["sweep", "converge"])
    def test_command_output_takes_the_plain_path(self, tmp_path, command):
        csv_path = tmp_path / "in.csv"
        if command == "sweep":
            cmd_sweep(CONFIGS[0], 0, 1001, 7, str(csv_path))
        else:
            cmd_converge(CONFIGS[0], 0, 1e-9, 7, str(csv_path))
        want = outcome(chart_reference, csv_path, tmp_path / "want.svg")
        assert want[0] == "ok"
        # np.loadtxt is the one reader: no csv module to fall back on
        assert not hasattr(hrvlc.cli, "csv")
        assert outcome(cmd_chart, csv_path, tmp_path / "got.svg") == want

    def test_traced_peak_of_a_long_sweep(self, tmp_path):
        # the file's bytes, the array and one chunk of the reader: a csv
        # reader peaked near 5x the file's size
        csv_path = tmp_path / "sweep.csv"
        cmd_sweep(CONFIGS[0], 0, 20001, 7, str(csv_path))
        _read_numeric_csv(str(csv_path))
        tracemalloc.start()
        try:
            _read_numeric_csv(str(csv_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * csv_path.stat().st_size
