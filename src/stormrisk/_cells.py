"""CSV cells of a whole column chunk as NUL-padded 32-bit words.

A float is written as ``repr`` writes it: the shortest decimal that
reads back to the same double, the nearest such decimal on a tie (even
last digit on an exact one), in CPython's fixed or exponent layout.  The
digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), computed for every double of the chunk at once in
integer arrays: one exact product of the binary significand with a
126-bit power of ten, rounded three ways, then at most one digit
dropped.  An integer is written as ``str`` writes it and any other cell
as its ``str`` in UTF-8.

Each encoder returns a ``(k, n)`` array of ``uint32`` words, k words per
cell.  Read as little-endian bytes, the non-NUL bytes of a cell's words,
in order, are the cell's text, so the caller can lay cells side by side
and drop every NUL at once.  Digits are looked up four at a time, in a
table whose variants blank leading or trailing zeros or turn the first
digit into the decimal point.

A float call of n cells holds five 8n-byte rows throughout.  Before its
k word rows exist it makes at most five more at once; after, only bool
masks and the copies ``np.take`` makes of the word rows it fills.
"""

from __future__ import annotations

import functools

import numpy as np

_U1, _U32, _U63, _U64 = np.uint64(1), np.uint64(32), np.uint64(63), np.uint64(64)
_UM32, _UM63, _U1E4 = np.uint64(2**32 - 1), np.uint64(2**63 - 1), np.uint64(10**4)
_K_MIN, _K_MAX = -324, 292  # decimal exponents of Schubfach's power table

_SUFFIX = 10  # the first suffix in _tables' affix table, after ten prefixes


@functools.cache
def _tables():
    """The tables of the encoders, built on first use: ``affix``,
    ``digits``, ``pow10`` (10^0 to 10^18 as int64) and ``schubfach``.

    ``affix`` and ``digits``: little-endian text, NUL-padded.  In the two
    rows of ``affix``, at ``5 * neg + lead``: the sign, then none, ``0.``,
    ``0.0``, ``0.00`` or ``0.000``; at ``_SUFFIX + i``: none, the ``0``
    after the point of an integral value, then ``e-324`` to ``e+308``.  At
    ``digits[10000 * (2 * lead + trail) + v]``: the four digits of ``v``,
    with trailing zeros blanked where ``trail``; with leading zeros
    blanked where ``lead`` is 1, and also the first digit made the decimal
    point where it is 2.

    ``schubfach``, as uint64: for every biased exponent, plus 2048 for a
    power of two, Schubfach's h + 2 and k, then g(k) = floor(10^-k 2^r) +
    1 in [2^125, 2^126), with (g - 1) 2^-r <= 10^-k < g 2^-r, as two
    64-bit limbs (from Python integers), then g times the half-widths of
    the rounding interval below and above a significand, each as its
    floor over 2^127, its bits 64..126 and its low 64 bits, complemented
    above so that adding them carries where ``lo`` exceeds them.
    """
    fields = [sign + lead for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")]
    fields += ["", "0"] + [f"e{x:+03d}" for x in range(-324, 309)]
    affix = np.frombuffer(b"".join(f.encode().ljust(8, b"\0") for f in fields), np.uint32)

    # one row per digit place, one column per group value 0..9999
    v = np.arange(10000)
    place = np.array([[1000], [100], [10], [1]])
    chars = (v // place % 10 + ord("0")).astype(np.uint8)
    first = 4 - (v >= place[::-1]).sum(axis=0)  # place of the first nonzero digit, 4 for 0
    row = np.arange(4)[:, None]
    lead = row >= first  # no leading zero
    trail = v % (10 * place) != 0  # no trailing zero
    dotted = np.where(row == first, np.uint8(ord(".")), chars)
    variants = [chars, chars * trail, chars * lead, chars * (lead & trail)]
    variants = np.stack(variants + [dotted * lead, dotted * (lead & trail)])
    digits = np.ascontiguousarray(variants.transpose(0, 2, 1)).view(np.uint32).ravel()

    # Schubfach's k and h for every biased exponent, regular and irregular
    q = np.maximum(np.arange(2048), 1) - 1075
    k = np.concatenate([q * 661971961083, q * 661971961083 - 274743187321]) >> 41
    k = np.clip(k, _K_MIN, _K_MAX)
    h = np.tile(q, 2) + (-k * 913124641741 >> 38) + 2
    g = []
    for kk in range(_K_MIN, _K_MAX + 1):
        r = 125 - (-kk * 913124641741 >> 38)
        num, den = (10**-kk, 1) if kk <= 0 else (1, 10**kk)
        g.append((num << max(r, 0)) // (den << max(-r, 0)) + 1)
    g = np.array([[x & 2**64 - 1 for x in g], [x >> 64 for x in g]], np.uint64)
    g_lo, g_hi = g[:, k - _K_MIN]
    ends = []
    # g 4 2^h (c - cl) and g 4 2^h (cr - c): g 2^(h+1), or g 2^h below a
    # power of two, and g 2^(h+1)
    for w, flip in ((h + 1 - np.repeat([0, 1], 2048), 0), (h + 1, 2**64 - 1)):
        w = w.astype(np.uint64)
        mid = g_hi << w | g_lo >> _U64 - w
        ends += [mid >> _U63 | g_hi >> _U64 - w << _U1, mid & _UM63, g_lo << w ^ np.uint64(flip)]
    schubfach = np.stack([(h + 2).view(np.uint64), k.view(np.uint64), g_lo, g_hi, *ends])
    pow10 = 10 ** np.arange(19, dtype=np.int64)
    return np.ascontiguousarray(affix.reshape(-1, 2).T), digits, pow10, schubfach


def _mul_64(a: np.ndarray, b: np.ndarray):
    """The 128-bit products of uint64 ``a`` and ``b`` as low and high
    words, from the 32 x 32-bit products of the halves, in four new rows
    and ``b``, which the high words overwrite."""
    b0, a0, a1 = b & _UM32, a & _UM32, a >> _U32
    b >>= _U32
    lo = a0 * b0
    a0 *= b  # a0 b1
    b0 *= a1  # a1 b0
    b *= a1  # a1 b1
    b0 += np.right_shift(lo, _U32, out=a1)  # below 2^64
    lo &= _UM32
    a0 += np.bitwise_and(b0, _UM32, out=a1)  # bits 32..95, less their carry
    b += np.right_shift(b0, _U32, out=b0)
    b += np.right_shift(a0, _U32, out=a1)
    lo |= np.left_shift(a0, _U32, out=a0)
    return lo, b


def _shortest(w: np.ndarray):
    """Schubfach's shortest digits of positive doubles, given as the bits
    of a finite value of at least three subnormal steps in row 0 of the
    ``(5, n)`` workspace ``w``: int64 rows ``(f, e)`` of ``w`` with value
    ``f * 10**e``, f of 16 or 17 digits for a normal double."""
    table = _tables()[3]
    c, col, b1, top, x = w
    ci, coli, b1i, topi = w[:4].view(np.int64)
    np.right_shift(c, 52, out=col)
    c &= (1 << 52) - 1
    np.add(col, 2048, out=col, where=(c == 0) & (col > 1))  # a power of two: half the gap below
    np.bitwise_or(c, 1 << 52, out=c, where=col > 0)
    odd = np.bitwise_and(c, _U1, out=x) == 1  # an odd significand's rounding interval is open
    c <<= table[0].take(coli, out=x)

    # P = g * c exactly, from the two 128-bit products of c and a limb of g
    lo, _ = _mul_64(c, table[2].take(coli, out=b1))
    b1 += (lo1 := _mul_64(c, table[3].take(coli, out=top))[0])  # bits 64..127 of P
    top += b1 < lo1
    top <<= _U1
    top |= np.right_shift(b1, _U63, out=c)  # floor(P / 2^127)
    b1 &= _UM63
    # Round to odd, floor(x / 2^127) with bit 0 set where bits 64..126 of x
    # are not all zero, for x = P and x = P -/+ g 2^h (c - cl, cr - c): rows 4-6, 7-9
    for op, carry, r, end in ((np.subtract, np.less, 4, x), (np.add, np.greater, 7, lo)):
        mid = op(b1, table[r + 1].take(coli, out=c), out=c)
        op(mid, carry(lo, table[r + 2].take(coli, out=lo1)), out=mid)
        op(top, table[r].take(coli, out=end), out=end)
        op(end, mid > _UM63, out=end)
        end |= np.bitwise_and(mid, _UM63, out=mid) != 0
    top |= b1 != 0
    lower, upper = x.view(np.int64) + odd + 3 >> 2, lo.view(np.int64) - odd >> 2  # over 4, inwards

    # s 10^k <= v < (s + 1) 10^k, with s >= 14, so one digit fewer is tried
    # from s >= 10 on (Java's s >= 100 keeps two digits for 5e-324).
    s, sp = np.right_shift(topi, 2, out=b1i), ci
    np.multiply(np.floor_divide(s, 10, out=sp), 10, out=sp)
    upin, uin, up = lower <= sp, lower <= s, s < upper
    drop = upin != (sp + 10 <= upper)  # one multiple of 10 in the interval
    topi &= 3  # v against the midpoint of s and s + 1: 4 s + 2
    s += ~np.where(uin != up, uin, (topi < 2) | (topi == 2) & (s & 1 == 0))
    np.copyto(s, np.add(sp, 10, out=sp, where=~upin), where=drop)
    return s, table[1].take(coli, out=col).view(np.int64)


def _digits(digits, x, lead, trim: bool, out, quot, idx) -> None:
    """Write to the rows of ``out`` the words of the four-digit groups of
    uint64 ``x``, most significant first: leading zeros blanked by adding
    ``lead`` (20000, or 40000 to also make a first "1" the point), and
    trailing zeros too where ``trim``.  Overwrites x, quot and idx."""
    after = trim  # every later group is zero
    for j in range(len(out) - 1, -1, -1):
        np.subtract(x, np.multiply(np.floor_divide(x, _U1E4, out=quot), _U1E4, out=idx), out=idx)
        x, quot = quot, x
        if trim:
            blank, after = after, after & (idx == 0)
            np.add(idx, 10000, out=idx, where=blank)
        np.add(idx, lead, out=idx, where=x == 0)  # every earlier group is zero
        digits.take(idx.view(np.int64), out=out[j])


def float_words(x: np.ndarray, na_rep: str) -> np.ndarray:
    """``repr`` of each double, and ``na_rep`` for NaN."""
    affix, digits, pow10, _ = _tables()
    bits = np.ascontiguousarray(x, np.float64).view(np.int64)
    neg = bits < 0
    w = np.empty((5, len(bits)), np.uint64)  # the call's workspace
    wi = w.view(np.int64)
    mag = np.bitwise_and(bits, 2**63 - 1, out=wi[0])
    # zero, the two smallest subnormals, inf and NaN are written apart
    special = (mag < 3) | (mag >= 0x7FF0 << 48)
    np.copyto(mag, 0x3FF0 << 48, where=special)
    f, e = _shortest(w)

    n0 = np.add(f >= 10**16, 16, out=wi[0])  # digits of f, fewer only for a subnormal
    if (short := np.flatnonzero(f < 10**15)).size:
        n0[short] = np.searchsorted(pow10, f[short], side="right")
    e += n0  # decpt: value = 0.d1d2... * 10^decpt
    expo = (e < -3) | (e > 16)  # where repr switches layout
    below1 = ~expo & (e <= 0)  # written "0." and digits
    # whole: the digits before the point (exponent form: the first one);
    # rest: the digits after it, as many as scale has zeros
    scale = pow10.take(np.where(expo, n0 - 1, np.clip(n0 - e, 0, 18)), out=n0)
    whole, rest = np.divmod(f, scale, out=(wi[3], f))
    pre = np.add(5 * neg, np.where(below1, 1 - e, 0), out=wi[4])
    suf = np.add(np.where(expo, e + 325, ~below1 & (rest == 0)), _SUFFIX, out=e)
    # The point and the digits after it are those of scale + rest, its
    # leading "1" made the point and its trailing zeros blanked.
    frac = np.add(rest, scale, out=rest, where=~below1 & ~(expo & (rest == 0)))
    np.multiply(2 - below1, 20000, out=wi[0])  # the lead of frac's groups

    nw, nf = (-(-len(str(int(v.max()))) // 4) for v in (whole, frac))  # digit groups
    out = np.empty((4 + nw + nf, len(bits)), np.uint32)
    affix.take(pre, axis=1, out=out[:2])
    affix.take(suf, axis=1, out=out[-2:])
    _digits(digits, w[3], 20000, False, out[2 : 2 + nw], w[1], w[4])
    _digits(digits, w[2], w[0], True, out[2 + nw : -2], w[1], w[4])

    if special.any():
        rows = np.flatnonzero(special)
        m, nan = bits[rows] & 2**63 - 1, np.isnan(x[rows])
        kind = np.select([nan, m == 0, m == 1, m == 2], [4, 0, 6, 8], 2) + neg[rows]
        texts = ["0.0", "-0.0", "inf", "-inf", na_rep, na_rep]
        texts = text_words(texts + ["5e-324", "-5e-324", "1e-323", "-1e-323"])[:, kind]
        if len(texts) > len(out):  # a long na_rep
            out = np.concatenate([out, np.zeros((len(texts) - len(out), len(x)), np.uint32)])
        out[:, rows] = 0
        out[: len(texts), rows] = texts
    return out


def int_words(x: np.ndarray) -> np.ndarray:
    """``str`` of each int64."""
    affix, digits = _tables()[:2]
    x = np.asarray(x, np.int64)
    w = np.abs(x).view(np.uint64)  # |INT64_MIN| wraps to 2^63
    out = np.empty((1 - (-len(str(int(w.max()))) // 4), len(x)), np.uint32)  # sign, groups
    affix[0].take(5 * (x < 0), out=out[0])
    _digits(digits, w, 20000, False, out[1:], np.empty_like(w), np.empty_like(w))
    out[-1, x == 0] = digits[0] >> np.uint32(24)  # "0000" shifted to its last "0"
    return out


def text_words(cells) -> np.ndarray:
    """The UTF-8 bytes of ``str`` of each cell."""
    raw = [str(cell).encode() for cell in cells]
    width = -(-max(1, *map(len, raw)) // 4) * 4
    return np.ascontiguousarray(np.array(raw, f"S{width}").view(np.uint32).reshape(len(raw), -1).T)


def column_words(part, na_rep: str) -> np.ndarray:
    """The words of a column chunk, a float or signed integer array or any
    other sequence of cells written as ``str``, without all-NUL rows."""
    if not isinstance(part, np.ndarray):
        out = text_words(part)
    elif part.dtype.kind not in "fi":
        out = text_words(part.tolist())
    elif part.dtype.kind == "f":
        out = float_words(part, na_rep)
    else:
        out = int_words(part)
    return out[out.any(axis=1)]
