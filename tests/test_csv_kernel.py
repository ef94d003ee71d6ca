"""The CSV kernel against Python's own formatting, cell by cell.

``csv_kernel.table_bytes`` must write ``'%.17g' % x`` for every float and
``'%d' % v`` for every integer: for any float or integer hypothesis draws,
at the edges of its digit count, exponent forms, tables and blocks, over a
million random bit patterns, for cells it sends down its fallback, and from
several threads at once.
"""

import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrvlc.cli
import hrvlc.csv_kernel
from hrvlc.csv_kernel import table_bytes

from conftest import CONFIG_DIR


def reference(columns):
    """The rows of ``columns`` through the ``%`` operator."""
    template = ",".join("%d" if col.dtype.kind in "iu" else "%.17g"
                        for col in columns) + "\n"
    rows = zip(*(col.tolist() for col in columns))
    return "".join([template % row for row in rows]).encode()


def assert_same_bytes(*columns):
    columns = [np.asarray(col) for col in columns]
    assert table_bytes(columns) == reference(columns)


def edges():
    """Floats at the edges of the kernel's digit count, exponent forms,
    tables and ties, with their neighbours, of both signs."""
    values = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    for k in range(-300, 301):
        values.append(float(f"1e{k}"))
    values += [1e-280, 1e300, 5e-324, sys.float_info.max, 0.0, math.inf,
               math.nan, 2.0 ** 53, 2.0 ** 58]
    # digits 1e16 - 1 and 1e17 - 1 at every exponent form: fixed, a dot
    # inside the digits, "0." and its zeros, two and three exponent digits
    for k in (-120, -20, -6, -5, -4, -3, -1, 0, 1, 8, 15, 16, 17, 20, 120):
        values += [float(f"9999999999999999e{k}"),
                   float(f"99999999999999999e{k}"),
                   float(f"9.99999999999999995e{k}")]
    # exact ties of the 18th digit: 2**50 + 1/4 and + 3/4
    values += [2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, (2.0 ** 50 + 0.25) / 8]
    values = np.array(values)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour
        values = np.concatenate((values, np.nextafter(values, 0.0),
                                 np.nextafter(values, math.inf)))
    return np.concatenate((values, -values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float_writes_its_percent_bytes(values):
    # subnormals, -0.0, inf and nan among them
    assert_same_bytes(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1), st.floats(),
                          st.integers(0, 2 ** 32)), min_size=1, max_size=64))
def test_any_row_of_integers_and_floats(rows):
    assert_same_bytes(*(np.array(col, dtype=np.int64 if k != 1 else float)
                        for k, col in enumerate(zip(*rows))))


def test_edges():
    values = edges()
    assert_same_bytes(values[::2], values[1::2])


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(20181203).integers(
        0, 2 ** 64, 10 ** 6, np.uint64, endpoint=False)
    assert_same_bytes(*bits.view(float).reshape(4, -1))


def test_forced_fallback_writes_percent_bytes(monkeypatch):
    # a tie margin of 1/2 sends every cell to the % operator
    monkeypatch.setattr(hrvlc.csv_kernel, "_TIE", 0.5)
    values = edges()[:1000]
    assert_same_bytes(np.arange(1000) * 3 ** 30, values,
                      np.arange(-500, 500))


def test_exponent_estimate_is_exact():
    # k = floor(e * log10(2)) as an integer shift, for every double's
    # exponent: 10**k <= 2**e < 10**(k + 1), as exact fractions p/q
    def fraction(base, power):
        return (base ** power, 1) if power >= 0 else (1, base ** -power)

    for e in range(-1074, 1024):
        k = hrvlc.csv_kernel._log10_pow2(e)
        p, q = fraction(2, e)
        (lo, lo_den), (hi, hi_den) = fraction(10, k), fraction(10, k + 1)
        assert lo * q <= p * lo_den and p * hi_den < hi * q, e


def test_tables_fit_in_a_megabyte():
    tables = hrvlc.csv_kernel._tables()
    arrays = [t for t in tables if isinstance(t, np.ndarray)]
    arrays += [t for t in tables[0] if isinstance(t, np.ndarray)]
    assert sum(t.nbytes for t in arrays) < 2 ** 20


@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_integer_dtypes(dtype):
    assert_same_bytes(np.arange(0, 2 ** 32, 2 ** 22 + 7, dtype=dtype))


def test_digit_count_thresholds():
    # the least double above each T = 10**(X0 + 1) - 10**(X0 - 16) / 2,
    # where a cell's exponent steps from X0 to X0 + 1, and the double below
    above = np.unique(hrvlc.csv_kernel._tables()[1])
    values = np.concatenate((above, np.nextafter(above, 0.0)))
    assert_same_bytes(np.concatenate((values, -values)))


@pytest.mark.parametrize("n_cols", range(1, 7))
def test_block_edges(n_cols):
    # one row short of k blocks, k blocks and one row past them, with a
    # fallback cell first and last in every block, in a float column and
    # in an integer one
    per_block = max(1, hrvlc.csv_kernel._BLOCK_CELLS // n_cols)
    floats = itertools.cycle([0.0, -0.0, math.nan, math.inf,
                              741849465.529296875])
    ints = itertools.cycle([2 ** 53 + 1, 0, -2 ** 63])
    rng = np.random.default_rng(n_cols)
    for n_rows in (k * per_block + d for k in (1, 2) for d in (-1, 0, 1)):
        for first_int in (False, True):
            kinds = [(j % 2 == 1) != first_int for j in range(n_cols)]
            columns = [rng.integers(-2 ** 53, 2 ** 53, n_rows) if is_int
                       else rng.standard_normal(n_rows)
                       * 10.0 ** rng.integers(-20, 20, n_rows)
                       for is_int in kinds]
            for start in range(0, n_rows, per_block):
                stop = min(start + per_block, n_rows)
                for row, j in ((start, 0), (stop - 1, n_cols - 1)):
                    columns[j][row] = next(ints if kinds[j] else floats)
            assert_same_bytes(*columns)


def test_threads_write_their_own_tables():
    # each thread keeps its own workspace: more threads than cores write
    # tables of their own sizes and values at once, with a short switch
    # interval, and every table must come out as % writes it
    rng = np.random.default_rng(11)
    tables = [[rng.standard_normal(n_rows) * 10.0 ** k for k in range(3)]
              for n_rows in (150, 3000, 9000, 20000)]
    barrier = threading.Barrier(len(tables))

    def write(columns):
        barrier.wait(timeout=30)
        return [table_bytes(columns) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(tables)) as pool:
            futures = [pool.submit(write, columns) for columns in tables]
            written = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for columns, bodies in zip(tables, written):
        assert bodies == [reference(columns)] * 10


def test_a_repeat_call_keeps_its_workspace():
    workspace = hrvlc.csv_kernel._WORKSPACE
    columns = [np.linspace(0.0, 1.0, 1001)] * 5
    table_bytes(columns)
    canvases = workspace.canvases
    table_bytes(columns)
    table_bytes([col[:10] for col in columns])
    assert workspace.canvases is canvases
    # a longer table grows it to its largest block, and no further
    capacity = workspace.capacity
    table_bytes([np.linspace(0.0, 1.0, 100001)] * 5)
    per_block = hrvlc.csv_kernel._BLOCK_CELLS // 5
    assert workspace.capacity == max(capacity, 5 * per_block)


def sweep_columns(monkeypatch, tmp_path, n_points):
    written = []
    monkeypatch.setattr(hrvlc.cli, "_write_csv",
                        lambda path, header, columns: written.append(columns))
    hrvlc.cli.cmd_sweep(str(CONFIG_DIR / "two_ap_room.json"), 0, n_points,
                        3, tmp_path / "sweep.csv")
    return [np.asarray(col) for col in written[0]]


def test_traced_peak_of_a_long_sweep(monkeypatch, tmp_path):
    # a repeat call on the 100001-point sweep of the two-AP room, seed 3.
    # The kernel that joined one bytes object per block into the result
    # peaked at 19403860 bytes here (Python 3.11.7, numpy 2.4.6): twice
    # the 9.7 MB it writes.  One BytesIO buffer peaks near 9.8 MB.
    columns = sweep_columns(monkeypatch, tmp_path, 100001)
    table_bytes(columns)  # the tables and the workspace, once per thread
    tracemalloc.start()
    try:
        table_bytes(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19403860
