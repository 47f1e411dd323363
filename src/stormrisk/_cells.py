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
"""

from __future__ import annotations

import functools

import numpy as np

_M32 = 0xFFFFFFFF
_U1, _U32, _U63, _U64 = np.uint64(1), np.uint64(32), np.uint64(63), np.uint64(64)
_UM32, _UM63, _U1E4 = np.uint64(_M32), np.uint64(2**63 - 1), np.uint64(10**4)
_K_MIN, _K_MAX = -324, 292  # decimal exponents of Schubfach's power table
# x < _LEAD[j]: the four-digit groups of x before group j are all zero
_LEAD = np.array([2**64 - 1, 10**16, 10**12, 10**8, 10**4], np.uint64)

# Offsets into the word table of _tables: two words per sign and leading
# "0.000" entry and per exponent entry, then six variants of each
# four-digit group.
_PREFIX, _SUFFIX, _DIGITS = 0, 20, 1290


@functools.cache
def _tables():
    """The tables of the encoders, built on first use: ``words``,
    ``pow10`` and ``schubfach``.

    ``words``: little-endian text, NUL-padded.  At ``_PREFIX + 2 * (5 *
    neg + lead)``, two words: the sign, then none, ``0.``, ``0.0``,
    ``0.00`` or ``0.000``.  At ``_SUFFIX + 2 * i``, two words: none, the
    ``0`` after the point of an integral value, then ``e-324`` to
    ``e+308``.  At ``_DIGITS + 10000 * (2 * lead + trail) + v``, one word:
    the four digits of ``v``, with trailing zeros blanked where ``trail``;
    with leading zeros blanked where ``lead`` is 1, and also the first
    digit made the decimal point where it is 2.

    ``pow10``: 10^0 to 10^18 as int64.

    ``schubfach``: for every biased exponent, plus 2048 for a power of
    two, Schubfach's h + 2 and k, then g(k) = floor(10^-k 2^r) + 1 in
    [2^125, 2^126), with (g - 1) 2^-r <= 10^-k < g 2^-r, as two 64-bit
    limbs (from Python integers), then g times the half-widths of the
    rounding interval below and above a significand, each as its floor
    over 2^127, its bits 64..126 and its low 64 bits.
    """
    fields = [sign + lead for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")]
    fields += ["", "0"] + [f"e{x:+03d}" for x in range(-324, 309)]
    text = np.frombuffer(b"".join(f.encode().ljust(8, b"\0") for f in fields), np.uint32)

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
    digit_words = np.ascontiguousarray(variants.transpose(0, 2, 1)).view(np.uint32)
    words = np.concatenate([text, digit_words.ravel()])

    # Schubfach's k and h for every biased exponent, regular and irregular
    q = np.maximum(np.arange(2048), 1) - 1075
    k = np.concatenate([q * 661971961083, q * 661971961083 - 274743187321]) >> 41
    k = np.clip(k, _K_MIN, _K_MAX)
    h = np.tile(q, 2) + (-k * 913124641741 >> 38) + 2
    ten = [1]
    while len(ten) <= -_K_MIN:
        ten.append(ten[-1] * 10)
    g = []
    for kk in range(_K_MIN, _K_MAX + 1):
        r = 125 - (-kk * 913124641741 >> 38)
        num, den = (ten[-kk], 1) if kk <= 0 else (1, ten[kk])
        g.append((num << max(r, 0)) // (den << max(-r, 0)) + 1)
    g = np.array([[x & 2**64 - 1 for x in g], [x >> 64 for x in g]], np.uint64)
    g_lo, g_hi = g[:, k - _K_MIN]
    ends = []
    # g 4 2^h (c - cl) and g 4 2^h (cr - c): g 2^(h+1), or g 2^h below a
    # power of two, and g 2^(h+1)
    for w in (h + 1 - np.repeat([0, 1], 2048), h + 1):
        w = w.astype(np.uint64)
        mid = g_hi << w | g_lo >> _U64 - w
        ends += [mid >> _U63 | g_hi >> _U64 - w << _U1, mid & _UM63, g_lo << w]
    schubfach = np.stack([h + 2, k, *(x.view(np.int64) for x in (g_lo, g_hi, *ends))])
    pow10 = 10 ** np.arange(19, dtype=np.int64)
    return words, pow10, schubfach


def _mul_64(a: np.ndarray, b: np.ndarray):
    """The 128-bit products of uint64 ``a`` and ``b``, as their low and
    high words, from the 32 x 32-bit products of the halves."""
    a0, a1 = a & _UM32, a >> _U32
    b0, b1 = b & _UM32, b >> _U32
    p00, p10, p01 = a0 * b0, a1 * b0, a0 * b1
    mid = (p00 >> _U32) + (p10 & _UM32) + (p01 & _UM32)
    return p00 & _UM32 | mid << _U32, a1 * b1 + (p10 >> _U32) + (p01 >> _U32) + (mid >> _U32)


def _shortest(bits: np.ndarray):
    """Schubfach's shortest digits of positive doubles, given as int64
    bits of a finite value of at least three subnormal steps: ``(f, e)``
    with value ``f * 10**e``, f of 16 or 17 digits for a normal double."""
    bq = bits >> 52
    t = bits & (1 << 52) - 1
    irregular = (t == 0) & (bq > 1)  # a power of two: half the gap below
    row = _tables()[2].take(bq + 2048 * irregular, axis=1)
    h, k, _, _, lc, lh, ll, uc, uh, ul = row
    c = t | np.minimum(bq, 1) << 52
    out = c & 1  # an odd significand's rounding interval is open
    cp = (c << h).view(np.uint64)

    # P = g * cp exactly, from the two 128-bit products of cp and a limb of g
    lo, hi = _mul_64(row[2:4].view(np.uint64), cp)
    b1 = hi[0] + lo[1]  # bits 64..127 of P
    top = (hi[1] + (b1 < lo[1]) << _U1 | b1 >> _U63).view(np.int64)  # floor(P / 2^127)
    b1 &= _UM63
    # Round to odd, floor(x / 2^127) with bit 0 set where bits 64..126 of x
    # are not all zero, for x = P and x = P -/+ g 2^h (c - cl, cr - c)
    vb = top | (b1 != 0)
    below = b1.view(np.int64) - lh - (lo[0] < ll.view(np.uint64))
    lower = (top - lc + (below >> 63)) | (below & 2**63 - 1 != 0)
    above = b1 + uh.view(np.uint64) + (lo[0] > ~ul.view(np.uint64))
    upper = (top + uc + (above >> _U63).view(np.int64)) | (above & _UM63 != 0)
    lower += out
    upper -= out

    # s 10^k <= v < (s + 1) 10^k, with s >= 14, so one digit fewer is tried
    # from s >= 10 on (Java's s >= 100 keeps two digits for 5e-324).
    s = vb >> 2
    sp = s // 10 * 10
    upin = lower <= sp << 2
    drop = upin != (sp + 10 << 2 <= upper)  # one multiple of 10 in the interval
    uin = lower <= s << 2
    gap = vb - (4 * s + 2)  # v against the midpoint of s and s + 1
    down = np.where(uin != (s + 1 << 2 <= upper), uin, (gap < 0) | (gap == 0) & (s & 1 == 0))
    f = np.where(drop, sp + 10 * ~upin, s + ~down)
    return f, k


def _digit_index(x: np.ndarray, lead, trim) -> np.ndarray:
    """Word-table indices of the four-digit groups of each uint64 ``x``,
    most significant first, as many groups as the largest needs: leading
    zeros blanked in the ``lead`` variant (1, or 2 for a first digit "1"
    made the point), and trailing zeros too where ``trim``."""
    v = np.empty((-(-len(str(int(x.max()))) // 4), len(x)), np.uint64)
    rest = x
    for j in range(len(v) - 1, 0, -1):
        quot = rest // _U1E4
        np.subtract(rest, quot * _U1E4, out=v[j])
        rest = quot
    v[0] = rest
    idx = v.view(np.int64) + _DIGITS
    if trim is not False:
        after = np.empty(v.shape, bool)  # every later group is zero
        after[-1] = trim
        for j in range(len(v) - 2, -1, -1):
            np.logical_and(after[j + 1], v[j + 1] == 0, out=after[j])
        idx += after * 10000
    idx += (x < _LEAD[5 - len(v) :, None]) * (20000 * lead)  # every earlier group is zero
    return idx


def float_words(x: np.ndarray, na_rep: str) -> np.ndarray:
    """``repr`` of each double, and ``na_rep`` for NaN."""
    words, pow10, _ = _tables()
    bits = np.ascontiguousarray(x, np.float64).view(np.int64)
    neg = bits < 0
    mag = bits & (1 << 63) - 1
    # zero, the two smallest subnormals, inf and NaN are written apart
    special = (mag < 3) | (mag >= 0x7FF0 << 48)
    f, e = _shortest(np.where(special, 0x3FF0 << 48, mag))

    n0 = 16 + (f >= 10**16)  # digits of f, fewer only for a subnormal
    if (short := np.flatnonzero(f < 10**15)).size:
        n0[short] = np.searchsorted(pow10, f[short], side="right")
    decpt = n0 + e  # value = 0.d1d2... * 10^decpt
    expo = (decpt < -3) | (decpt > 16)  # where repr switches layout
    below1 = ~expo & (decpt <= 0)  # written "0." and digits
    # whole: the digits before the point (exponent form: the first one);
    # rest: the digits after it, as many as scale has zeros
    scale = pow10[np.where(expo, n0 - 1, np.minimum(np.maximum(n0 - decpt, 0), 18))]
    whole = f // scale
    rest = f - whole * scale
    integral = ~expo & ~below1 & (rest == 0)
    # The point and the digits after it are those of scale + rest, its
    # leading "1" made the point and its trailing zeros blanked.
    frac = np.where(below1, f, np.where(expo & (rest == 0), 0, scale + rest))

    pre = _PREFIX + 2 * (5 * neg + np.where(below1, 1 - decpt, 0))
    suf = _SUFFIX + 2 * np.where(expo, decpt + 325, integral)
    idx = [
        [pre, pre + 1],
        _digit_index(whole.view(np.uint64), 1, False),
        _digit_index(frac.view(np.uint64), 2 - below1, True),
        [suf, suf + 1],
    ]
    out = words.take(np.concatenate(idx))

    if special.any():
        rows = np.flatnonzero(special)
        m, nan = mag[rows], np.isnan(x[rows])
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
    words = _tables()[0]
    x = np.asarray(x, np.int64)
    digits = _digit_index(np.abs(x).view(np.uint64), 1, False)  # |INT64_MIN| wraps to 2^63
    zero = x == 0
    digits[-1, zero] = _DIGITS  # "0000" for 0 ...
    out = words.take(np.concatenate([[_PREFIX + 10 * (x < 0)], digits]))
    out[-1, zero] >>= np.uint32(24)  # ... shifted to its last "0"
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
