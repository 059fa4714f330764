"""The text of ``repr(float(x))`` for every element of a float64 array, at array speed.

:func:`reprs` returns one row of a NUL-padded ``uint8`` matrix per element;
deleting the NULs of a row leaves exactly the bytes of ``repr``.  Three steps:

* Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
  2020) finds, in ``uint64`` lanes, the shortest decimal that rounds back to
  each double and, of those, the closest; like Gay's dtoa behind ``repr``.
  Unlike Java's ``Double.toString``, a single digit is allowed, so the
  shorter candidate is tried from ``s >= 10`` and subnormals need no
  special path.
* Layout: Python's, positional for 1e-4 <= |x| < 1e16 and ``d.ddde±XX``
  otherwise, written as the sign, the integer digits, the point, the
  fraction digits and the exponent, each in a fixed column range, from
  4-digit texts packed as ``uint32``.
* Fallback: zeros and non-finite values, few in practice, take ``repr``.

The tables are built on first use, so importing this module costs nothing
beyond numpy.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the finite doubles
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_POW10 = np.array([10**i for i in range(19)], dtype=np.int64)
# _DIGITS_AT_BITS[b]: the digits of the smallest integer of bit length b.
# _KEEP_OFFSET[32 + r]: where the texts keeping r digits start, r clipped to 0..4.
_DIGITS_AT_BITS = np.array([len(str(1 << b >> 1)) for b in range(64)])
_KEEP_OFFSET = np.clip(np.arange(-32, 33), 0, 4) * 10_000


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 1233 (ints or int64 arrays)."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The Schubfach multipliers and the 4-digit texts.

    Column ``k - _K_MIN`` of the first holds g = floor(10**-k * 2**-r) + 1,
    with r chosen so that 2**125 <= g < 2**126, as five numbers: g1 = g >> 63,
    then g1 and g0 = g mod 2**63 in 32-bit halves.  Entry ``r * 10_000 + d``
    of the second is the last r digits of ``f"{d:04}"`` after 4 - r NULs, as
    the uint32 whose bytes those are.
    """
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k > 0:
            g = (1 << shift) // 10**k + 1
        else:
            g = (10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1
        g1, g0 = g >> 63, g & _M63
        rows.append((g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32))
    multipliers = np.array(rows, dtype=np.uint64).T.copy()
    place = np.array([1000, 100, 10, 1], dtype=np.int32)
    digits = (np.arange(10_000, dtype=np.int32)[:, None] // place % 10 + ord("0")).astype(np.uint8)
    kept = np.arange(4) >= 4 - np.arange(5)[:, None, None]  # (r, 1, column)
    texts = np.where(kept, digits, np.uint8(0)).view(np.uint32).ravel()
    return multipliers, texts


def _mulhi(ah, al, bh, bl):
    """High 64 bits of the 128-bit products of a = ah 2**32 + al and b = bh 2**32 + bl."""
    u = ah * bl + (al * bl >> 32)
    w = al * bh + (u & _M32)
    return ah * bh + (u >> 32) + (w >> 32)


def _rop(g, cp):
    """Round to odd of g * cp / 2**127, g = g1 2**63 + g0 (Schubfach, figure 8)."""
    g1, g1h, g1l, g0h, g0l = g
    cph, cpl = cp >> 32, cp & _M32
    z = (g1 * cp >> 1) + _mulhi(g0h, g0l, cph, cpl)
    return _mulhi(g1h, g1l, cph, cpl) + (z >> 63) | ((z & _M63) + _M63) >> 63


def _pick(mask, a, b):
    """``np.where(mask, a, b)`` for integer arrays, in half its time."""
    return b + mask * (a - b)


def _decimal(x):
    """(f, e): the shortest decimal f * 10**e, closest of those, that rounds to |x|.

    ``x`` holds finite nonzero doubles; f is an int64 without trailing zeros.
    """
    bits = x.view(np.uint64)
    t = bits & (1 << 52) - 1
    bq = (bits >> 52).astype(np.int64) & 0x7FF
    c = t + (bq > 0) * np.uint64(1 << 52)
    q = np.maximum(bq, 1) - 1075
    irregular = (t == 0) & (bq > 1)  # the lower neighbour is half as far
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) where irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    cb, g = c << 2, _tables()[0].take(k - _K_MIN, axis=1)
    vb, vbl, vbr = (_rop(g, cp << h) for cp in (cb, cb - 2 + irregular, cb + 2))
    s, odd = vb >> 2, c & 1  # the rounding interval is open for odd c
    sp = s // 10 * 10  # the one-digit-shorter candidates sp and sp + 10
    upin, wpin = vbl + odd <= sp << 2, (sp + 10 << 2) + odd <= vbr
    uin, win = vbl + odd <= s << 2, (s + 1 << 2) + odd <= vbr
    # u = s when only it is in the interval, or both are and it is closer (ties: even)
    closer = (vb < 4 * s + 2) | ((vb == 4 * s + 2) & ((s & 1) == 0))
    shorter = sp + ~upin * np.uint64(10)
    f = _pick((s >= 10) & (upin != wpin), shorter, s + ~(uin & (~win | closer)))
    f = f.astype(np.int64)
    zeros = np.flatnonzero(f // 10 * 10 == f)
    if zeros.size:  # strip the trailing zeros
        fz, kz = f[zeros], k[zeros]
        for p in (16, 8, 4, 2, 1):
            quotient = fz // _POW10[p]
            exact = quotient * _POW10[p] == fz
            fz = _pick(exact, quotient, fz)
            kz = kz + p * exact
        f[zeros], k[zeros] = fz, kz
    return f, k


def _write(out, value, keep, texts) -> None:
    """Write the last ``keep`` decimal digits of ``value`` right-aligned into ``out``.

    ``out`` is a (n, 4 * groups) uint8 view, at most 5 groups; the other
    columns get NULs.  ``value`` is below 10**(4 * groups).
    """
    groups = out.view(np.uint32)
    count = groups.shape[1]
    high = value // 100_000_000
    words = [(value - high * 100_000_000).astype(np.uint32), high.astype(np.uint32)]
    keep, rest = keep + 32, words[0]  # keep + 32 - 4 r indexes _KEEP_OFFSET
    for r in range(count):  # groups from the right
        if r == 2:
            rest = words[1]
        quotient = rest // 10_000
        groups[:, count - 1 - r] = texts[_KEEP_OFFSET[keep - 4 * r] + (rest - quotient * 10_000)]
        rest = quotient


def reprs(x) -> np.ndarray:
    """The bytes of ``repr(float(v))`` for each v in ``x``, one NUL-padded row each.

    The rows may be a view of a wider matrix.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    special = ~np.isfinite(x) | (x == 0.0)
    f, e = _decimal(np.where(special, 1.0, x))
    _, texts = _tables()
    # Digits of f: those of the smallest integer of its bit length, or one more.
    low = _DIGITS_AT_BITS[(f.astype(np.float64).view(np.int64) >> 52) - 1022]
    n = low + (f >= _POW10[low])
    point = n + e  # |x| = 0.(digits of f) * 10**point
    positional = (point > -4) & (point <= 16)
    point = _pick(positional, point, 1)  # the exponent form has one integer digit
    after = np.maximum(n - point, 0)  # digits of f after the decimal point
    scale = _POW10[np.minimum(after, 17)]
    integer = f // scale
    fraction = f - integer * scale
    integer *= _POW10[np.maximum(point - n, 0)]
    int_digits = np.maximum(point, 1)
    frac_digits = after + (positional & (after == 0))  # "1.0", but "1e+16"
    int_max = int(int_digits.max(initial=1))
    int_width = 4 * ((int_max + 3) // 4)
    frac_width = 4 * ((int(frac_digits.max(initial=1)) + 3) // 4)
    exponent = not positional.all()
    out = np.zeros((x.size, 2 + int_width + frac_width + 6 * exponent), dtype=np.uint8)
    negative = np.signbit(x)
    out[:, 0] = negative.view(np.uint8) * np.uint8(ord("-"))
    _write(out[:, 1 : 1 + int_width], integer, int_digits, texts)
    out[:, 1 + int_width] = (frac_digits > 0).view(np.uint8) * np.uint8(ord("."))
    _write(out[:, 2 + int_width : 2 + int_width + frac_width], fraction, frac_digits, texts)
    if exponent:
        power = n + e - 1
        shown = ~positional
        tail = out[:, -6:]
        tail[:, 0] = shown.view(np.uint8) * np.uint8(ord("e"))
        tail[:, 1] = shown * np.where(power < 0, ord("-"), ord("+"))
        _write(tail[:, 2:], np.abs(power), shown * (2 + (np.abs(power) >= 100)), texts)
    # Leave out the leading columns that are NUL in every row: at least 4 stay.
    out = out[:, 0 if negative.any() else 1 + int_width - int_max :]
    special = np.flatnonzero(special)
    if special.size:  # repr of each distinct bit pattern
        bits, inverse = np.unique(x.view(np.uint64)[special], return_inverse=True)
        fill = np.zeros((bits.size, out.shape[1]), dtype=np.uint8)
        for row, value in zip(fill, bits.view(np.float64).tolist()):
            text = repr(value).encode()
            row[: len(text)] = np.frombuffer(text, np.uint8)
        out[special] = fill[inverse]
    return out
