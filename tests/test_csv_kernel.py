"""The CSV kernel against Python's own formatting, cell by cell.

``csv_kernel.table_bytes`` must write ``'%.17g' % x`` for every float and
``'%d' % v`` for every integer: for any float or integer hypothesis draws,
at the edges of its digit count, exponent forms and tables, over a million
random bit patterns, and for cells it sends down its fallback.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrvlc.csv_kernel
from hrvlc.csv_kernel import table_bytes


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
