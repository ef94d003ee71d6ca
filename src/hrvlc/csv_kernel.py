"""CSV rows of numeric columns in numpy passes, byte for byte as ``%`` writes.

A float cell is ``'%.17g' % x`` and an integer cell ``'%d' % v``.  Each cell
takes its 17 significant digits from a double-double product (Dekker 1971)
and is laid out on a fixed canvas, whose unwanted bytes a keep mask zeroes.
A cell whose rounding the product cannot decide falls back to ``%``.

The digits.  For a cell x in [1e-280, 1e300], with ``e - 1 = floor(log2 x)``
read from the exponent bits, ``X0 = floor((e - 1) * log10(2))`` is the
integer ``((e - 1) * 78913) >> 18`` (exact over the exponents taken here),
so ``x * 10**(16 - X0)`` lies in [1e16, 2e17).  It rounds to 17 digits
when it is below ``1e17 - 1/2``, that is when ``x`` is below
``T = 10**(X0 + 1) - 10**(X0 - 16) / 2``; else the exponent is
``X = X0 + 1``.  ``T`` is never a double, so the least double above it,
read from a table by the exponent bits, decides this exactly, and every
per-cell table is read by the key ``2 * (exponent bits) + (x >= T)``,
below 4096.  Then ``V = x * 10**(16 - X)`` lies in [1e16 - 0.05, 1e17 - 1/2).
``10**s`` is a pair (hi, lo) of correctly rounded doubles, and ``x * hi``
is taken exactly as ``p + err`` by Veltkamp splitting, so ``p + q`` with
``q = err + x * lo`` is V within 2**-46 (table 2**-48, ``x * lo``
2**-48, the sum into q 2**-47).  p is an integer, as V > 2**53, and the
digits are ``p + rint(q)``.

The fallback.  A cell goes to ``%`` when the fraction of q lies within
2**-40 of a half (a tie, or too close to one for the error bound to
decide), and when it is negative, 0, -0, inf, nan or outside
[1e-280, 1e300], where the table and the splitting stop: no command
writes a negative cell.  An integer cell is the float of its value, whose
``%.17g`` is its ``%d`` below 2**53; past that, and at 0 or below, it
falls back to ``%d``.

The layout.  A cell's canvas is 48 bytes: a pad byte, the ``0.000``
prefix, the 17 digits each followed by a dot slot, ``e``, the exponent's
sign and three digits, the separator and two pad bytes.  Its digits come
as five chunks of one and four digits from one table, and its exponent
and separator as one row of another.  A keep mask, one row per layout,
zeroes what ``%.17g`` does not write, the pad byte 0 in every row: the
layout is the exponent's form (fixed at exponent -4..16, else two or
three exponent digits) and the last nonzero digit, which fix the prefix,
the digits kept and the dot.  ``bytes.translate`` then drops the zeroed
bytes.

The working set.  A table goes in blocks of at most 2**13 cells, and every
pass of a block writes into one workspace per thread, kept between calls
and grown only to the largest block written: two 48-byte canvases, a key
and four bytes of flags and counts per cell, under 1 MB.  The digit
passes' scratch columns lie in the canvases until the layout's gathers
overwrite them.  A repeat call so touches no fresh pages, where arrays
freed at the end of each call go back to the OS and the next call faults
them in again.  The bytes go out through ``translate`` in pieces of 64 KB,
below the size at which malloc maps fresh pages, into one ``BytesIO``,
whose buffer becomes the result uncopied.
"""

import functools
import io
import math
import threading

import numpy as np

# the % spec of a cell by its column's dtype kind: float, int, uint
SPECS = {"f": "%.17g", "i": "%d", "u": "%d"}
_LOW, _HIGH = 1e-280, 1e300
# the bits of _LOW, and how far x's bits may pass them and stay in range
_LOW_BITS = np.float64(_LOW).view(np.uint64)
_SPAN_BITS = np.float64(_HIGH).view(np.uint64) - _LOW_BITS
_TIE = 2.0 ** -40
_WIDTH = 48
_FIXED = range(-4, 17)  # the exponents %.17g writes without an "e"
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's factor for a double
# the digit table: 10**4 rows of four digits, then the leading digits
# "\00.000d." from row _LEAD, then two rows per exponent from _EXPONENT
_LEAD, _EXPONENT = 10000, 10010
# cells per pass, and canvas bytes per translate
_BLOCK_CELLS = 2 ** 13
_PIECE = 2 ** 16


def _log10_pow2(e):
    # floor(e * log10(2)) for |e| < 1650
    return (e * 78913) >> 18


@functools.cache
def _tables():
    """The kernel's lookup tables, built once; 10**s in exact integers.

    They are built in Python where numpy would run code the commands do
    not otherwise run, and so map in more of its library.  The per-cell
    tables are indexed by ``key = 2 * (x's exponent bits) + (x >= T)``,
    below 4096.
    """
    e_lo, e_hi = (math.frexp(v)[1] for v in (_LOW, _HIGH))
    x_lo, x_hi = _log10_pow2(e_lo - 1), _log10_pow2(e_hi - 1) + 1
    # 10**s for s = 16 - X as correctly rounded (hi, lo) pairs, and the
    # least double above T for X0 = 16 - s
    pairs, above = [], []
    for s in range(16 - x_hi, 16 - x_lo + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        pairs.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
        # T = (2e17 - 1) / (2 * 10**s): its digits end in 9, so no double
        t_num, t_den = 2 * 10 ** 17 * den - den, 2 * num
        t = t_num / t_den
        t_int, t_int_den = t.as_integer_ratio()
        above.append(t if t_int * t_den > t_num * t_int_den
                     else math.nextafter(t, math.inf))
    hi, lo = np.array(pairs).T
    hi_split = hi * _SPLIT
    hi_hi = hi_split - (hi_split - hi)

    # by exponent bits: X0 (clipped, as only 1.0 stands for a cell out of
    # range), then by key: X, the row of 10**(16 - X) and the exponent row
    x0 = np.clip(_log10_pow2(np.arange(2048) - 1023), x_lo, x_hi - 1)
    x_key = (x0[:, None] + [0, 1]).ravel()
    pow10 = tuple(t[x_hi - x_key] for t in (hi, lo, hi_hi, hi - hi_hi))
    above = np.array(above)[x_hi - x0]

    # rows "d.d.d.d." for 0000..9999, "\00.000d." for the leading digit,
    # then "e+XXX" with "," and with "\n" for each exponent
    digits = np.zeros((_LEAD, 8), np.uint8)
    for k in range(4):  # column by column: each temporary is 10**4 long
        digits[:, 2 * k] = np.tile(np.repeat(np.arange(ord("0"), ord(":")),
                                             10 ** (3 - k)), 10 ** k)
    digits[:, 1::2] = ord(".")
    rows = b"".join([b"\0" b"0.000%d." % d for d in range(10)]
                    + [b"e%+04d,\0\0e%+04d\n\0\0" % (x, x)
                       for x in range(x_lo, x_hi + 1)])
    chunk_rows = np.concatenate((digits.ravel(),
                                 np.frombuffer(rows, np.uint8)))
    trailing_zeros = np.zeros(_LEAD, np.int8)  # of 0 read as 0000: 4
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
    fallback = bytearray(_WIDTH)  # a fallback cell keeps its separator
    fallback[45] = 0xff
    masks = np.frombuffer(bytes(keep + fallback), np.uint64)
    # each key's mask row at 16 trailing digits: its form times 17, plus 16
    form = np.where((x_key >= _FIXED[0]) & (x_key <= _FIXED[-1]),
                    x_key - _FIXED[0], len(_FIXED) + (x_key * x_key > 9801))
    layout = 17 * form + 16
    # 8-byte rows and masks as one uint64 each
    return (pow10, above, 2 * (x_key - x_lo) + _EXPONENT, layout,
            chunk_rows.view(np.uint64), trailing_zeros,
            masks.reshape(-1, _WIDTH // 8))


class _Workspace(threading.local):
    """One thread's block arrays, kept between calls and grown to the
    largest block written."""

    capacity = 0

    def reserve(self, cells):
        if cells > self.capacity:
            self.capacity = cells
            # the canvas, and the index and then the masks it gathers
            self.canvases = np.empty((2, cells, _WIDTH // 8), np.uint64)
            self.key = np.empty(cells, np.int64)
            # the fallback, a flag, the trailing zeros and a step of them
            self.flags = np.empty((4, cells), np.int8)
        return self


_WORKSPACE = _Workspace()


def table_bytes(columns):
    """The CSV rows of equal-length numeric ``columns``, as ``%`` writes them.

    A float column's cells are ``'%.17g' % x`` and an integer column's
    ``'%d' % v``; cells end in "," and each row in "\\n".
    """
    rows = max(1, _BLOCK_CELLS // len(columns))
    ws = _WORKSPACE.reserve(min(columns[0].size, rows) * len(columns))
    out = io.BytesIO()
    for i in range(0, columns[0].size, rows):
        _write_block([col[i:i + rows] for col in columns], ws, out)
    return out.getvalue()


def _write_block(columns, ws, out):
    """Write ``table_bytes`` of one block of rows to the file ``out``, in
    the workspace ``ws``."""
    (pow10, above, exponent_rows, layout, chunk_rows, trailing_zeros,
     masks) = _tables()
    n_rows, n_cols = columns[0].size, len(columns)
    n_cells = n_rows * n_cols
    canvas, index = ws.canvases[:, :n_cells]
    # twelve columns in the same space, 0-5 in the canvas's and 6-11 in
    # the index's: x in 10, the digits n in 0 until the index is written,
    # and scratch in the rest.  Every gather writes straight into its out
    # array in mode "clip" (the default mode buffers it); its indices are
    # in range by construction.
    f = ws.canvases.reshape(12, -1)[:, :n_cells].view(float)
    i = f.view(np.int64)
    key, flags = ws.key[:n_cells], ws.flags[:, :n_cells]
    fallback, flag = flags[:2].view(bool)

    x = f[10]
    for j, column in enumerate(columns):
        x[j::n_cols] = column
    # out of range, negative and nan too, where x's bits pass _LOW's by
    # more than the span, as unsigned integers: the sign bit passes it
    np.subtract(x.view(np.uint64), _LOW_BITS, out=i[1].view(np.uint64))
    np.greater(i[1].view(np.uint64), _SPAN_BITS, out=fallback)
    for j, column in enumerate(columns):
        if column.dtype.kind in "iu":  # exact as a float below 2**53
            np.greater_equal(x[j::n_cols], 2.0 ** 53, out=flag[:n_rows])
            fallback[j::n_cols] |= flag[:n_rows]
    np.copyto(x, 1.0, where=fallback)

    # key = 2 * (x's exponent bits) + (x >= T)
    np.right_shift(x.view(np.uint64), 52, out=key.view(np.uint64))
    np.take(above, key, out=f[1], mode="clip")
    np.greater_equal(x, f[1], out=i[2])
    key <<= 1
    key += i[2]
    q_sq = _digits(x, key, pow10, i[0], f[1:7])
    np.greater_equal(q_sq, (0.5 - _TIE) ** 2, out=flag)
    fallback |= flag
    zeros = _chunks(i[:6], index.view(np.intp), trailing_zeros, flags[2:])

    # the exponent's row, with "\n" after a row's last cell
    np.take(exponent_rows, key, out=i[5], mode="clip")
    index[:, 5] = i[5]
    index[n_cols - 1::n_cols, 5] += 1
    np.take(layout, key, out=i[1], mode="clip")
    np.subtract(i[1], zeros, out=key)
    np.copyto(key, len(masks) - 1, where=fallback)
    np.take(chunk_rows, index.view(np.intp), out=canvas, mode="clip")
    np.take(masks, key, axis=0, out=index, mode="clip")
    canvas &= index
    text = canvas.view(np.uint8).reshape(-1, _WIDTH)
    cells = np.flatnonzero(fallback)
    if cells.size:
        # each fallback text, at most 24 bytes ("-2.2250738585072014e-308"
        # or an int64), NUL-padded before its separator
        row, col = np.divmod(cells, n_cols)
        texts = [SPECS[columns[j].dtype.kind] % columns[j][r]
                 for r, j in zip(row.tolist(), col.tolist())]
        text[cells, :24] = np.array(texts, "S24").view(np.uint8).reshape(
            -1, 24)
    text = text.reshape(-1)
    for start in range(0, text.size, _PIECE):
        out.write(text[start:start + _PIECE].tobytes().translate(None, b"\0"))


def _digits(a, key, pow10, n, scratch):
    """The digits ``n`` of the floats ``a`` in [1e-280, 1e300]: a rounds to
    ``n * 10**(X - 16)``, 1e16 <= n < 1e17, with X read by ``key``; where
    the returned ``(q - rint(q))**2`` is within about 2**-40 of a quarter,
    undecided.  The six float columns ``scratch`` are overwritten."""
    hi, lo, hi_hi, hi_lo = pow10
    p, q, a_hi, a_lo, u, t = scratch
    np.take(hi, key, out=p, mode="clip")
    p *= a
    np.multiply(a, _SPLIT, out=a_hi)
    np.subtract(a_hi, a, out=a_lo)
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    # q = (((a_hi*hi_hi - p) + a_hi*hi_lo) + a_lo*hi_hi) + a_lo*hi_lo + a*lo
    np.take(hi_hi, key, out=t, mode="clip")
    np.multiply(a_hi, t, out=q)
    q -= p
    t *= a_lo
    np.take(hi_lo, key, out=u, mode="clip")
    a_hi *= u
    q += a_hi
    q += t
    u *= a_lo
    q += u
    np.take(lo, key, out=t, mode="clip")
    t *= a
    q += t
    # p is an integer, so n is p + rint(q), with rint(q) as an integer in
    # a_hi's column
    np.rint(q, out=u)
    np.copyto(n, p, casting="unsafe")
    whole = a_hi.view(np.int64)
    np.copyto(whole, u, casting="unsafe")
    n += whole
    q -= u
    return np.multiply(q, q, out=q)


def _chunks(cols, index, trailing_zeros, counts):
    """Into ``index``'s first five columns, the digit-table rows of the 17
    digits in ``cols[0]``: the leading digit and four of four digits.
    Returns the count of zeros after the last nonzero digit, 0..16, in
    ``counts[0]``; the columns ``cols`` and ``counts`` are overwritten."""
    n, head, chunks = cols[0], cols[1], cols[2:6]
    np.floor_divide(n, 10 ** 8, out=head)  # the leading nine digits
    np.multiply(head, 10 ** 8, out=chunks[3])
    tail = np.subtract(n, chunks[3], out=n)  # the last eight
    np.floor_divide(tail, 10 ** 4, out=chunks[2])
    np.multiply(chunks[2], 10 ** 4, out=chunks[3])
    np.subtract(tail, chunks[3], out=chunks[3])
    np.floor_divide(head, 10 ** 4, out=chunks[0])  # the leading five
    np.multiply(chunks[0], 10 ** 4, out=chunks[1])
    np.subtract(head, chunks[1], out=chunks[1])
    np.floor_divide(head, 10 ** 8, out=head)  # the leading digit
    np.add(head, _LEAD, out=index[:, 0])
    head *= 10 ** 4
    chunks[0] -= head
    index[:, 1:5] = chunks.T
    # the trailing zeros, chunk by chunk: a 0000 chunk counts 4 and adds
    # those of the chunks before it
    zeros, step = counts
    np.take(trailing_zeros, chunks[0], out=zeros, mode="clip")
    for chunk in chunks[1:]:
        np.equal(chunk, 0, out=step)
        zeros *= step
        np.take(trailing_zeros, chunk, out=step, mode="clip")
        zeros += step
    return zeros
