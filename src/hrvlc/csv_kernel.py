"""CSV rows of numeric columns in numpy passes, byte for byte as ``%`` writes.

A float cell is ``'%.17g' % x`` and an integer cell ``'%d' % v``.  Each cell
takes its 17 significant digits from a double-double product (Dekker 1971)
and is laid out on a fixed canvas, whose unwanted bytes a keep mask zeroes.
A cell whose rounding the product cannot decide falls back to ``%``.

The digits.  With ``e - 1 = floor(log2 |x|)`` read from the exponent bits,
``X0 = floor((e - 1) * log10(2))`` is the integer ``((e - 1) * 78913) >> 18``
(exact over the exponents taken here), so ``V = |x| * 10**(16 - X0)`` lies
in [1e16, 2e17).
``10**s`` is a pair (hi, lo) of correctly rounded doubles, and ``|x| * hi``
is taken exactly as ``p + err`` by Veltkamp splitting, so ``p + q`` with
``q = err + |x| * lo`` is V within 2**-46 (table 2**-48, ``|x| * lo``
2**-48, the sum into q 2**-47).  p is an integer, as V >= 1e16 > 2**53.
When V rounds to 1e17 or more, the exponent is ``X0 + 1`` and the digits
are ``round(V / 10)``, taken as ``p // 10`` plus ``(p % 10 + q) / 10``.

The fallback.  A cell goes to ``%`` when its fraction, or V - 1e17, lies
within 2**-40 of a half (a tie, or too close to one for the error bound to
decide), and when it is 0, -0, inf, nan or outside [1e-280, 1e300], where
the table and the splitting stop.  An integer cell is the float of its
value, whose ``%.17g`` is its ``%d`` below 2**53 in magnitude; past that,
and at 0, it falls back to ``%d``.

The layout.  A cell's canvas is 48 bytes: sign, the ``0.000`` prefix, the
17 digits each followed by a dot slot, ``e``, the exponent's sign and
three digits, the separator and two pad bytes.  Its digits come as five
chunks of one and four digits from one table, and its exponent and
separator as one row of another.  A keep mask, one row per (sign, layout),
zeroes what ``%.17g`` does not write: the layout is the exponent's form
(fixed at exponent -4..16, else two or three exponent digits) and the last
nonzero digit, which fix the prefix, the digits kept and the dot.
``bytes.translate`` then drops the zeroed bytes.
"""

import functools
import math

import numpy as np

_LOW, _HIGH = 1e-280, 1e300
_TIE = 2.0 ** -40
_WIDTH = 48
_FIXED = range(-4, 17)  # the exponents %.17g writes without an "e"
_LAYOUTS = (len(_FIXED) + 2) * 17  # (form, last nonzero digit) pairs
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's factor for a double
# the digit table: 10**4 rows of four digits, then the leading digits
# "-0.000d." from row _LEAD, then two rows per exponent from _EXPONENT
_LEAD, _EXPONENT = 10000, 10010
# cells per pass: a pass's arrays stay in cache, and its peak near 3 MB
_BLOCK_CELLS = 2 ** 14


def _log10_pow2(e):
    # floor(e * log10(2)) for |e| < 1650
    return (e * 78913) >> 18


@functools.cache
def _tables():
    """The kernel's lookup tables, built once; 10**s in exact integers.

    They are built in Python where numpy would run code the commands do
    not otherwise run, and so map in more of its library.
    """
    e_lo, e_hi = (math.frexp(v)[1] for v in (_LOW, _HIGH))
    x_lo, x_hi = _log10_pow2(e_lo - 1), _log10_pow2(e_hi - 1) + 1
    # 10**s for s = 16 - X0 as correctly rounded (hi, lo) pairs
    pairs = []
    for s in range(16 - x_hi + 1, 16 - x_lo + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        pairs.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(pairs).T
    hi_split = hi * _SPLIT
    hi_hi = hi_split - (hi_split - hi)
    pow10 = (16 - x_hi + 1, hi, lo, hi_hi, hi - hi_hi)

    # rows "d.d.d.d." for 0000..9999, "-0.000d." for the leading digit,
    # then "e+XXX" with "," and with "\n" for each exponent
    digits = np.zeros((_LEAD, 8), np.uint8)
    for k in range(4):  # column by column: each temporary is 10**4 long
        digits[:, 2 * k] = np.tile(np.repeat(np.arange(ord("0"), ord(":")),
                                             10 ** (3 - k)), 10 ** k)
    digits[:, 1::2] = ord(".")
    rows = b"".join([b"-0.000%d." % d for d in range(10)]
                    + [b"e%+04d,\0\0e%+04d\n\0\0" % (x, x)
                       for x in range(x_lo, x_hi + 1)])
    chunk_rows = np.concatenate((digits.ravel(),
                                 np.frombuffer(rows, np.uint8)))
    trailing_zeros = np.zeros(_LEAD, np.intp)  # of 0 read as 0000: 4
    for step in (10, 100, 1000, 10000):
        trailing_zeros[::step] += 1

    # the keep mask of each layout, 0xff where %.17g writes the byte: the
    # form (fixed at an exponent in _FIXED, or an "e" with two or three
    # exponent digits) and the last nonzero digit fix it
    keep = bytearray()
    for form in range(len(_FIXED) + 2):
        for last in range(17):
            row = bytearray(_WIDTH)
            row[45] = 0xff  # the separator
            if form < len(_FIXED):
                x = _FIXED[form]
                kept, dot = max(last, x), x if 0 <= x < last else None
                if x < 0:
                    row[1:2 - x] = b"\xff" * (1 - x)  # "0." .. "0.000"
            else:
                kept, dot = last, 0 if last > 0 else None
                row[40:45] = b"\xff" * 5  # "e+XXX"
                if form == len(_FIXED):
                    row[42] = 0  # "e+XX"
            row[6:7 + 2 * kept:2] = b"\xff" * (kept + 1)
            if dot is not None:
                row[2 * dot + 7] = 0xff
            keep += row
    signed = bytearray(keep)
    signed[::_WIDTH] = b"\xff" * _LAYOUTS  # the "-"
    fallback = bytearray(_WIDTH)  # a fallback cell keeps its separator
    fallback[45] = 0xff
    masks = np.frombuffer(bytes(keep + signed + fallback), np.uint64)
    # each exponent's first layout: its form times 17
    layout_base = 17 * np.array(
        [x - _FIXED[0] if x in _FIXED else len(_FIXED) + (x * x > 9801)
         for x in range(x_lo, x_hi + 1)])
    # 8-byte rows and masks as one uint64 each
    return (pow10, chunk_rows.view(np.uint64), trailing_zeros, x_lo,
            masks.reshape(-1, _WIDTH // 8), layout_base)


def _product(a, pow10):
    """(X0, p, q): ``a * 10**(16 - X0)`` is ``p + q`` within 2**-46."""
    x0 = _log10_pow2((a.view(np.int64) >> 52) - 1023)  # of a normal a
    hi, lo, hi_hi, hi_lo = (np.take(t, 16 - pow10[0] - x0)
                            for t in pow10[1:])
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p = a * hi
    q = ((((a_hi * hi_hi - p) + a_hi * hi_lo) + a_lo * hi_hi) + a_lo * hi_lo
         + a * lo)
    return x0, p, q


def _digits(a, pow10, x_lo):
    """(N, X - x_lo, undecided) of the floats ``a`` in [1e-280, 1e300]: a
    rounds to ``N * 10**(X - 16)`` at 17 digits, 1e16 <= N < 1e17, but
    where ``undecided``."""
    x0, p, q = _product(a, pow10)
    ip = p.astype(np.int64)
    # V - 1e17, exact to 2**-45 where it is near -1/2
    over = (ip - 10 ** 17) + q
    big = over >= -0.5  # V rounds to 1e17 or more: N is round(V / 10)
    scale = np.where(big, 10, 1)
    base = ip // scale
    t = (ip - base * scale + q) / scale
    whole = np.floor(t)
    t -= whole
    undecided = (np.abs(t - 0.5) <= _TIE) | (np.abs(over + 0.5) <= _TIE)
    n = base + whole.astype(np.int64) + (t > 0.5)
    return n, x0 + big - x_lo, undecided


def _chunks(n, trailing_zeros):
    """(index, last): the digit-table rows of the 17 digits ``n``, the
    leading digit and four of four digits, in the first five of six index
    columns; and the place of the last nonzero digit, 0..16."""
    head = n // 10 ** 8
    tail = n - head * 10 ** 8
    index = np.empty((n.size, 6), np.intp)
    index[:, 0] = head // 10 ** 8
    index[:, 1] = head // 10 ** 4 - index[:, 0] * 10 ** 4
    index[:, 2] = head - head // 10 ** 4 * 10 ** 4
    index[:, 3] = tail // 10 ** 4
    index[:, 4] = tail - index[:, 3] * 10 ** 4
    # trailing zeros of the last eight digits and of the eight before
    # them; a 0000 chunk counts 4 and adds the chunk before it
    low = np.take(trailing_zeros, index[:, 4])
    low += (index[:, 4] == 0) * np.take(trailing_zeros, index[:, 3])
    high = np.take(trailing_zeros, index[:, 2])
    high += (index[:, 2] == 0) * np.take(trailing_zeros, index[:, 1])
    index[:, 0] += _LEAD
    return index, 16 - low - (tail == 0) * high


def table_bytes(columns):
    """The CSV rows of equal-length numeric ``columns``, as ``%`` writes them.

    A float column's cells are ``'%.17g' % x`` and an integer column's
    ``'%d' % v``; cells end in "," and each row in "\\n".
    """
    rows = max(1, _BLOCK_CELLS // len(columns))
    return b"".join([_block_bytes([col[i:i + rows] for col in columns])
                     for i in range(0, columns[0].size, rows)])


def _block_bytes(columns):
    """``table_bytes`` of one block of rows."""
    pow10, chunk_rows, trailing_zeros, x_lo, masks, layout_base = _tables()
    n_rows, n_cols = columns[0].size, len(columns)
    ints = [col.dtype.kind in "iu" for col in columns]
    x = np.stack(columns, axis=1, dtype=float).ravel()
    a = np.abs(x)
    fallback = ~((a >= _LOW) & (a <= _HIGH))
    if any(ints):  # an integer's float is exact below 2**53
        fallback |= np.tile(ints, n_rows) & (a >= 2.0 ** 53)
    a[fallback] = 1.0
    n, x_row, undecided = _digits(a, pow10, x_lo)
    del a  # arrays go once used: a block's peak memory is the RSS it adds
    fallback |= undecided
    index, last = _chunks(n, trailing_zeros)

    # the exponent's row, with "\n" after a row's last cell
    index[:, 5] = 2 * x_row + _EXPONENT
    index[n_cols - 1::n_cols, 5] += 1
    canvas = np.take(chunk_rows, index)
    del index
    key = np.take(layout_base, x_row) + last
    key[np.signbit(x)] += _LAYOUTS
    key[fallback] = len(masks) - 1
    canvas &= np.take(masks, key, axis=0)
    canvas = canvas.view(np.uint8).reshape(-1, _WIDTH)
    cells = np.flatnonzero(fallback)
    if cells.size:
        # each fallback text, at most 24 bytes ("-2.2250738585072014e-308"
        # or an int64), NUL-padded before its separator
        row, col = np.divmod(cells, n_cols)
        texts = [("%d" if ints[j] else "%.17g") % columns[j][i]
                 for i, j in zip(row.tolist(), col.tolist())]
        canvas[cells, :24] = np.array(texts, "S24").view(np.uint8).reshape(
            -1, 24)
    body = canvas.tobytes()
    del canvas
    return body.translate(None, b"\0")
