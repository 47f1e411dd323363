"""Event CSV rows decoded in integer arrays, a block of whole lines at a
time: the years as int64 and the intensities as the doubles that Python's
``float`` gives for their decimals.

One scan finds the bytes that are not digits; the rows, their commas,
points and exponents follow from where those bytes lie.  Each cell's
digits are read as 24-byte windows of three unaligned little-endian
words, the point dropped by taking the digits before it from the window
one byte earlier, and combined eight at a time (D. Lemire's SWAR digit
parse) into a uint64 significand and a decimal exponent.  The doubles are
rounded by Eisel-Lemire against a 128-bit power-of-five table built for
the exponents a block uses; a cell that this cannot round for certain, a
subnormal or infinite result, is read by ``float`` alone.

The decoder reads the rows that `io.write_events_stream` writes and no
other form: a block with any other line is None, and the line parser
reads its file.  The encoder of the same cells is in `_cells`, whose
128-bit product this module shares.
"""

from __future__ import annotations

import functools

import numpy as np

from ._cells import _mul_64


# What a byte is in an event row, 0 for a byte no row of `event_cells` holds.
_EOL, _COMMA, _POINT, _EXP, _SIGN = range(1, 6)
_PAD = b"\n" * 32  # before a block: a cell's words reach 25 bytes back
# Rows decoded at once: their temporaries, about 230 bytes a row, stay
# under 2 MB however short the rows of a block are.
_CHUNK_ROWS = 1 << 13
_Q_MIN, _Q_MAX = -342, 308  # decimal exponents of the power-of-five table
_U1, _U8, _U9, _U16, _U32, _U52, _U53, _U63 = (np.uint64(n) for n in (1, 8, 9, 16, 32, 52, 53, 63))
_UM52, _U1E8 = np.uint64(2**52 - 1), np.uint64(10**8)
_PAIRS, _QUADS = np.uint64(0xFF00FF00FF00FF), np.uint64(0xFFFF0000FFFF)


@functools.cache
def _decode_tables():
    """The tables of the decoder, built on first use: ``kind``, ``tail``
    and ``digits``.

    ``kind[b]``: what byte ``b`` is in an event row, ``_EOL`` to
    ``_SIGN``, 6 for a digit, or 0.

    ``tail[t]``: the three little-endian words of a 24-byte window, its
    bytes j >= t set and the others clear.  ``digits[t]``: the same with
    only the low four bits of each byte set, which take an ASCII digit to
    its value.
    """
    kind = np.zeros(256, np.uint8)
    chars = [b"\n\r", b",", b".", b"eE", b"+-", b"0123456789"]
    for k, c in enumerate(chars, start=1):
        kind[list(c)] = k
    j = np.arange(24).reshape(1, 3, 8)
    byte = np.uint64(0xFF) << np.arange(0, 64, 8, dtype=np.uint64)
    tail = ((j >= np.arange(25)[:, None, None]) * byte).sum(axis=2, dtype=np.uint64)
    return kind, tail, tail & np.uint64(0x0F0F0F0F0F0F0F0F)


@functools.cache
def _power_of_five(q: int) -> tuple[int, int]:
    """5^q to 128 bits as the Eisel-Lemire table holds it, top bit set
    (a negative power rounded up as fast_float rounds it): its high and
    low word."""
    p = 5 ** abs(q)
    if q >= 0:
        v = p << 128 >> p.bit_length()
    else:
        z = p.bit_length()
        v = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
        v >>= max(v.bit_length() - 128, 0)
    return v >> 64, v & 2**64 - 1


def _nearest_doubles(w: np.ndarray, q: np.ndarray):
    """The doubles nearest ``w * 10**q``, ties to even, for uint64 ``w > 0``
    and ``q`` in the table's range, and whether each is certain: normal
    and finite.  Eisel-Lemire (D. Lemire, "Number parsing at a gigabyte
    per second", 2021) as fast_float computes it, which needs no
    fallback (N. Mushtak and D. Lemire, "Fast number parsing without
    fallback", 2023)."""
    # w's top bit: the float's exponent, one less where it rounded up to
    # a power of two
    top = (w.astype(np.float64).view(np.int64) >> 52) - 1023
    top -= w >> top.view(np.uint64) == 0
    w = w << (63 - top).view(np.uint64)
    # the table's rows for the exponents from q's least to its largest
    first = int(q.min())
    table = np.array([_power_of_five(k) for k in range(first, int(q.max()) + 1)], np.uint64)
    row = q - first
    lo, hi = _mul_64(w, table[:, 0].take(row))
    # The 55 bits kept are exact unless the 9 below them are all ones;
    # there the low word of the power may carry into them.
    near = np.flatnonzero(hi & np.uint64(511) == 511)
    if near.size:
        _, add = _mul_64(w[near], table[:, 1].take(row[near]))
        lo[near] += add
        hi[near] += lo[near] < add
    upper = hi >> _U63
    shift = upper + _U9
    m = hi >> shift
    power2 = ((217706 * q) >> 16) + 1023 + upper.view(np.int64) + top
    # halfway between two doubles with only zeros dropped: round to even
    tie = np.flatnonzero(lo <= _U1)
    tie = tie[(q[tie] >= -4) & (q[tie] <= 23) & (m[tie] & np.uint64(3) == 1)]
    m[tie[m[tie] << shift[tie] == hi[tie]]] -= _U1
    m += m & _U1
    m >>= _U1
    carry = m >> _U53  # rounded up to 2^53
    m >>= carry
    power2 += carry.view(np.int64)
    bits = power2.view(np.uint64) << _U52 | m & _UM52
    return bits.view(np.float64), (power2 > 0) & (power2 < 2047)


def _windows(buf: np.ndarray, end: np.ndarray, k: int) -> np.ndarray:
    """The last ``k`` little-endian words of the 24-byte windows of bytes
    ``buf`` that end before each byte of ``end``, one row each."""
    rows = np.ndarray((len(buf) - 8 * k + 1, k), "<u8", buf, 0, (1, 8))
    return rows[end - 8 * k]


def _digits(windows: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The numbers that the last ``count`` bytes of rows of window words
    (`_windows`) spell, read as ASCII digits, eight to a word; computed
    in ``windows``."""
    v = windows
    v &= _decode_tables()[2][:, 3 - v.shape[1] :].take(24 - count, axis=0)
    # eight digits, the first in the low byte, to a number (Lemire)
    v *= np.uint64(2561)
    v >>= _U8
    v &= _PAIRS
    v *= np.uint64(6553601)
    v >>= _U16
    v &= _QUADS
    v *= np.uint64(42949672960001)
    v >>= _U32
    return v


def _number(parts: np.ndarray) -> np.ndarray:
    """The number of each row of eight-digit parts, most significant first."""
    value = parts[:, 0]
    for k in range(1, parts.shape[1]):
        value = value * _U1E8 + parts[:, k]
    return value


def _in_fields(at: np.ndarray, comma: np.ndarray, end: np.ndarray):
    """The row of each position of ``at``, which must lie in intensity
    fields, one at most in a field; None where they do not."""
    if len(at) == len(comma):  # then one in each
        row = np.arange(len(at))
        inside = ((comma < at) & (at < end)).all()
    else:
        row = np.searchsorted(comma, at) - 1
        inside = not len(at) or row[0] >= 0 and (at < end[row]).all() and np.diff(row).min(initial=1) > 0
    return row if inside else None


def _rows(buf: np.ndarray):
    """The rows of the lines in ``buf``, each the byte positions of its
    start, comma, point (the comma where it has none), "e" (its end where
    it has none) and end; None if a line is neither empty nor a row with
    its signs, point and "e" where `event_cells` reads them."""
    kind_of = _decode_tables()[0]
    nd = np.flatnonzero(buf - np.uint8(48) > 9)  # the bytes that are not digits
    kind = kind_of.take(buf[nd])
    if kind.min() == 0:
        return None
    eol, comma, point, exp, signs = (np.compress(kind == k, nd) for k in (_EOL, _COMMA, _POINT, _EXP, _SIGN))
    # A line that is not empty is a row, with one comma.
    line = np.flatnonzero(np.diff(eol) > 1)
    start, end = eol[line] + 1, eol[line + 1]
    if len(line) != len(comma) or not ((start < comma) & (comma < end)).all():
        return None
    # A sign starts a year, as "-", or follows the "e".
    before = kind_of.take(buf[signs - 1])
    if not ((before == _EXP) | (before == _EOL) & (buf[signs] == ord("-"))).all():
        return None
    # The point and the "e" lie in an intensity, one of each at most.
    p_row, e_row = _in_fields(point, comma, end), _in_fields(exp, comma, end)
    if p_row is None or e_row is None:
        return None
    if len(point) < len(comma):
        point, at = comma.copy(), point
        point[p_row] = at
    e_at = end.copy()
    e_at[e_row] = exp
    return start, comma, point, e_at, end


def _significands(buf: np.ndarray, point: np.ndarray, digits_end: np.ndarray, n_digits):
    """The number that each intensity's ``n_digits`` <= 23 digits spell,
    and whether they hold more than 19 significant ones."""
    # The digits without the point: those after it from the 24-byte
    # window that ends at the digits' end, those before it from the
    # window one byte earlier.
    x, y = _windows(buf, digits_end, 3), _windows(buf, digits_end - 1, 3)
    x ^= y
    x &= _decode_tables()[1].take(np.maximum(point + 25 - digits_end, 0), axis=0)
    x ^= y
    del y
    parts = _digits(x, n_digits)
    return _number(parts), parts[:, 0] >= 1000


def _intensities(buf, comma, point, digits_end, end):
    """The intensities of the rows (see `_rows`), or None for one with no
    digit, its point after its "e", a value of 0 or a form that
    `event_cells` does not read."""
    has_point = point != comma
    n_digits = digits_end - comma - 1 - has_point
    n_frac = np.where(has_point, digits_end - point - 1, 0)
    if n_digits.min() < 1 or n_digits.max() > 23 or n_frac.min() < 0:
        return None
    q = -n_frac
    e_row = np.flatnonzero(digits_end < end)
    if len(e_row):
        exp = digits_end[e_row]
        n_exp = end[e_row] - exp - 1 - (_decode_tables()[0].take(buf[exp + 1]) == _SIGN)
        if n_exp.min() < 1 or n_exp.max() > 8:
            return None
        value = _number(_digits(_windows(buf, end[e_row], 1), n_exp)).view(np.int64)
        q[e_row] += np.where(buf[exp + 1] == ord("-"), -value, value)
    w, wide = _significands(buf, point, digits_end, n_digits)
    if wide.any() or q.min() < _Q_MIN or q.max() > _Q_MAX or (w == 0).any():
        return None
    intensity, certain = _nearest_doubles(w, q)
    for i in np.flatnonzero(~certain).tolist():
        intensity[i] = float(buf[comma[i] + 1 : end[i]].tobytes())
    return intensity


def _years(buf, start, comma):
    """The years of the rows (see `_rows`), or None for one with no digit,
    more than 19 or outside int64."""
    negative = buf[start] == ord("-")
    n_year = comma - start - negative
    if n_year.min() < 1 or n_year.max() > 19:
        return None
    year = _number(_digits(_windows(buf, comma, -(-int(n_year.max()) // 8)), n_year))
    if (year > np.uint64(2**63 - 1) + negative).any():
        return None
    year = year.view(np.int64)
    np.negative(year, out=year, where=negative)
    return year


def event_cells(block: bytes):
    """The years (int64) and intensities (float64) of the event rows in
    ``block``, whole lines of an event CSV body, or None if a line is
    neither empty nor a row as `io.write_events_stream` writes it; the
    line parser reads every other form.

    A row is a year ``[-]digits`` of at most 19 digits, in int64, and an
    intensity ``digits[.digits][(e|E)[+-]digits]`` (a digit before or
    after the point) of at most 19 significant digits and 23 in all,
    with an exponent of at most 8 digits and a decimal exponent in the
    power table, parted by one comma; lines end in LF, CRLF or CR.  The
    intensity must not be 0.  Its double is rounded by
    `_nearest_doubles` to the bits that ``float`` gives, and read by
    ``float`` where that rounding is not certain: a subnormal or
    infinite result.
    """
    buf = np.frombuffer(b"".join((_PAD, block, b"\n")), np.uint8)
    rows = _rows(buf)
    if rows is None:
        return None
    start, comma, point, digits_end, end = rows
    year, intensity = np.empty(len(comma), np.int64), np.empty(len(comma), np.float64)
    for lo in range(0, len(comma), _CHUNK_ROWS):
        part = slice(lo, lo + _CHUNK_ROWS)
        x = _intensities(buf, comma[part], point[part], digits_end[part], end[part])
        y = None if x is None else _years(buf, start[part], comma[part])
        if y is None:
            return None
        year[part], intensity[part] = y, x
    return year, intensity
