"""The text of ``repr(float(x))`` for every element of a float64 array, at array speed.

:func:`reprs` returns one NUL-padded row of ``uint8`` per element; deleting
the NULs of a row leaves exactly the bytes of ``repr``.  Three steps:

* Digits: Dragonbox (J. Jeon, "Dragonbox: A New Floating-Point
  Binary-to-Decimal Conversion Algorithm", 2020), its regular-interval path
  with kappa = 2, in ``uint64`` lanes: the shortest decimal that rounds back
  to each double, the closest of those (ties: even), as Gay's dtoa behind
  ``repr``.  One 64 x 128-bit product per value, parity products on the rare
  lanes that need them.
* Layout: Python's, positional for 1e-4 <= |x| < 1e16, else ``d.ddde±XX``:
  sign, integer digits, point and fraction digits in fixed column ranges,
  from 4-digit ``uint32`` texts; an exponent ends its lane's fraction columns.
* Fallback: ``repr``, once per distinct bit pattern, for zeros, non-finite
  values and the powers of two above the smallest normal (whose lower
  neighbour is half as far as the upper one).  The tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

_M32 = (1 << 32) - 1
_POW10 = np.array([10**i for i in range(19)], dtype=np.int64)
_SCALE = _POW10[np.minimum(np.arange(21), 17)]  # 10**after, or a power above every f
# _DIGITS_AT_BITS[b]: the digits of the smallest integer of bit length b.
# _KEEP_OFFSETS[r, keep]: the texts of group r (from the right) of the last keep digits.
_DIGITS_AT_BITS = np.array([len(str(1 << b >> 1)) for b in range(64)])
_KEEP_OFFSETS = np.clip(np.arange(21) - 4 * np.arange(5)[:, None], 0, 4).astype(np.uint32) * 10_000


@functools.cache
def _tables() -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The Dragonbox constants of each biased exponent, and the 4-digit texts.

    For a double c 2**q scaled by 10**-k, k = floor(log10(2**q)) - 2: the 32-bit
    limbs, highest first, of g = ceil(10**-k 2**(127 + q - beta)) < 2**128;
    beta = q + floor(log2(10**-k)), 6 to 9; the scaled width 100 <= delta <
    1000; the hidden bit of c; k + 2.  Entry ``r * 10_000 + d`` of the texts
    is the last r digits of ``f"{d:04}"`` after 4 - r NULs, as a uint32.
    """
    biased = np.arange(2048)
    q = np.maximum(biased, 1) - 1075
    k = ((q * 661_971_961_083) >> 41) - 2
    beta = (q + ((-k * 913_124_641_741) >> 38)).astype(np.uint64)  # floor(log2(10**-k))
    limbs = []
    for power in range(-k.max(), 1 - k.min()):
        shift = 127 - ((power * 913_124_641_741) >> 38)
        g = -(-(10 ** max(power, 0) << max(shift, 0)) // (10 ** max(-power, 0) << max(-shift, 0)))
        limbs.append((g >> 96, g >> 64 & _M32, g >> 32 & _M32, g & _M32))
    g3, g2, g1, g0 = np.array(limbs, dtype=np.uint64)[k.max() - k].T.copy()
    hidden = (biased > 0).astype(np.uint64) << 52
    place = np.array([1000, 100, 10, 1], dtype=np.int32)
    digits = (np.arange(10_000, dtype=np.int32)[:, None] // place % 10 + ord("0")).astype(np.uint8)
    kept = np.arange(4) >= 4 - np.arange(5)[:, None, None]  # (r, 1, column)
    texts = np.where(kept, digits, np.uint8(0)).view(np.uint32).ravel()
    return (g3, g2, g1, g0, beta, g3 >> 31 - beta, hidden, k + 2), texts


def _mulhi(ah, al, bh, bl):
    """High 64 bits of the 128-bit products of a = ah 2**32 + al and b = bh 2**32 + bl."""
    u = ah * bl + (al * bl >> 32)
    w = al * bh + (u & _M32)
    return ah * bh + (u >> 32) + (w >> 32)


def _parity(x, cache, beta):
    """Parity of floor(x g 2**beta / 2**128), g in limbs, and whether its next 64 bits are 0."""
    g3, g2, g1, g0 = cache
    high = x * (g3 << 32 | g2) + _mulhi(x >> 32, x & _M32, g1, g0)
    low = x * (g1 << 32 | g0)
    return (high >> 64 - beta & 1).astype(bool), (high << beta | low >> 64 - beta) == 0


def _decimal(t, bq):
    """(f, e): the shortest decimal f * 10**e, closest of those, that rounds to a double.

    ``t`` and ``bq`` are the fraction bits and biased exponents of finite
    nonzero doubles with a regular interval; f is an int64 without trailing zeros.
    """
    *cache, beta, delta, hidden, k = (table.take(bq) for table in _tables()[0])
    g3, g2, g1, g0 = cache
    c = t | hidden
    # z = floor((c + 1/2) 2**q 10**-k), the interval's upper end: the high 64 of
    # the 192 bits of u g; low, the next 64, is 0 where z is exact.
    u = (c << 1 | 1) << beta
    uh, ul = u >> 32, u & _M32
    part, below = ul * g2, _mulhi(uh, ul, g1, g0)
    mid = uh * g2 + (part >> 32)
    top = ul * g3 + (mid & _M32)
    low = (top << 32 | part & _M32) + below
    z = uh * g3 + (mid >> 32) + (top >> 32) + (low < below)
    s = z // 1000  # s 10**(k + 3) is in the interval where r < delta, but for the ends
    r = z - s * 1000
    big = r < delta
    # At the ends z is in for even c or inexact z, the lower end by the fraction there.
    ends = ((r == 0) | (r == delta)).nonzero()[0]
    c_ends, upper = c[ends], r[ends] == 0
    even = (c_ends & 1) == 0
    drop = upper & (low[ends] == 0) & ~even
    s[ends] -= drop
    r[ends] += drop * np.uint64(1000)
    # Else the closest multiple of 10**(k + 2), corrected by parity (ties: even).
    dist = r - (delta >> 1) + 50
    near = dist // 100
    f = s * 10 + near
    ties = (near * 100 == dist).nonzero()[0]
    lanes = np.concatenate((ends, ties))
    if lanes.size:  # one parity pass: the lower ends' fractions, then the ties'
        x = np.concatenate(((c_ends << 1) - 1, c[ties] << 1))
        odd, exact = _parity(x, [g[lanes] for g in cache], beta[lanes])
        big[ends] = np.where(upper, ~drop, odd[: ends.size] | (exact[: ends.size] & even))
        odd, exact, f_ties = odd[ends.size :], exact[ends.size :], f[ties]
        wrong = (odd != ((dist[ties] ^ 50) & 1).astype(bool)) | (exact & (f_ties & 1).astype(bool))
        f[ties] = f_ties - wrong
    f, k = np.where(big, s, f).view(np.int64), k + big
    zeros = (f // 10 * 10 == f).nonzero()[0]
    if zeros.size:  # strip the trailing zeros, at most 15 as s < 10**16
        fz, kz = f[zeros], k[zeros]
        for p in (8, 4, 2, 1):
            quotient = fz // _POW10[p]
            exact = quotient * _POW10[p] == fz
            fz = np.where(exact, quotient, fz)
            kz = kz + p * exact
        f[zeros], k[zeros] = fz, kz
    return f, k


def _write(out, value, keep, texts) -> None:
    """Write the last ``keep`` digits of each ``value`` right-aligned into ``out``, else NULs.

    ``out`` is a uint8 view of shape ``shape + (4 * groups,)``, 5 groups at most.
    """
    groups = out.view(np.uint32)
    count, shape = groups.shape[-1], groups.shape[:-1]
    high = value // 100_000_000
    rest, high = (value - high * 100_000_000).astype(np.uint32), high.astype(np.uint32)
    offsets = _KEEP_OFFSETS.take(keep, axis=1)
    for r in range(count):  # groups from the right
        if r == 2:
            rest = high
        quotient = rest // 10_000
        digits = rest - quotient * 10_000
        groups[..., count - 1 - r] = texts.take(offsets[r] + digits).reshape(shape)
        rest = quotient


def reprs(x) -> np.ndarray:
    """The bytes of ``repr(float(v))`` for each v in ``x``, NUL-padded to one width.

    They are returned as a new uint8 array of shape ``x.shape + (width,)``.
    """
    shape, bits = np.shape(x), np.ascontiguousarray(x, dtype=np.float64).ravel().view(np.uint64)
    bq = (bits >> 52).view(np.int64) & 0x7FF
    t = bits & (1 << 52) - 1
    special = ((bq == 0x7FF) | (t == 0) & (bq != 1)).nonzero()[0]
    if special.size:
        bq[special], t[special] = 1023, 1  # any regular value
    f, e = _decimal(t, bq)
    _, texts = _tables()
    # Digits of f: those of the smallest integer of its bit length, or one more.
    low = _DIGITS_AT_BITS.take((f.astype(np.float64).view(np.int64) >> 52) - 1022)
    n = low + (f >= _POW10.take(low))
    point = n + e  # |x| = 0.(digits of f) * 10**point
    positional = (point + 3).view(np.uint64) < 20  # -4 < point <= 16
    shown = (~positional).nonzero()[0]  # the lanes with an exponent
    if shown.size:
        power = point[shown] - 1
        point[shown] = 1  # the exponent form has one integer digit
    after = np.maximum(n - point, 0)  # digits of f after the decimal point
    scale = _SCALE.take(after)
    integer = f // scale
    fraction = f - integer * scale
    frac_digits = np.maximum(after, positional)  # "1.0", but "1e+16"
    negative = (bits >> 63).nonzero()[0]
    sign, int_max = int(negative.size > 0), int(point.max(initial=1))
    # Columns: sign, integer, point, fraction.  A 4-digit group may run into the
    # columns on its left, written after it: the fraction's into the point, the
    # integer and the sign, the integer's into the sign; else fields are widened.
    int_groups = -(-int_max // 4)
    dot = sign + (1 if int_max == 1 else max(int_max, 4 * int_groups - sign))
    frac_max = int(frac_digits.max(initial=1))
    frac_groups = -(-frac_max // 4)
    width = dot + 1 + max(frac_max, 4 * frac_groups - 1 - dot)
    if shown.size:  # their fraction's columns end with "e-05" or "e+300"
        shown_digits = frac_digits[shown]
        exp_max = int(shown_digits.max())
        tail, exp_groups = 4 + int(np.abs(power).max() >= 100), -(-exp_max // 4)
        width = max(width, dot + 1 + exp_max + tail, 4 * exp_groups + tail)
    if special.size:  # repr of each distinct bit pattern
        patterns, inverse = np.unique(bits[special], return_inverse=True)
        fallback = [repr(v).encode() for v in patterns.view(np.float64).tolist()]
        width = max(width, *map(len, fallback))
    out = np.zeros(shape + (width,), dtype=np.uint8)
    _write(out[..., width - 4 * frac_groups :], fraction, frac_digits, texts)
    if int_max == 1:  # the digit and the point as one uint16
        cell = integer.astype(np.uint16) + np.uint16(ord("0") + (ord(".") << 8))
        out[..., dot - 1 : dot + 1].view(np.uint16)[..., 0] = cell.reshape(shape)
    else:
        integer *= _POW10.take(np.maximum(point - n, 0))
        _write(out[..., dot - 4 * int_groups : dot], integer, np.maximum(point, 1), texts)
        out[..., dot] = ord(".")
    if shown.size:  # their rows written again
        index = np.unravel_index(shown, shape)
        rows = np.zeros((shown.size, width), dtype=np.uint8)
        # Their fraction's digits, alone in the last 4 * exp_groups columns, end before the tail.
        rows[:, width - tail - 4 * exp_groups : -tail] = out[index][:, width - 4 * exp_groups :]
        rows[:, dot - 1], rows[:, dot] = integer[shown] + ord("0"), (shown_digits > 0) * ord(".")
        rows[:, -tail], rows[:, 1 - tail] = ord("e"), ord("+") + 2 * (power < 0)  # "-" is "+" + 2
        exponent = texts.take(_KEEP_OFFSETS[0, 2 + (np.abs(power) >= 100)] + np.abs(power))
        rows[:, 2 - tail :] = exponent.view(np.uint8).reshape(-1, 4)[:, 6 - tail :]
        out[index] = rows
    if sign:
        out[np.unravel_index(negative, shape) + (0,)] = ord("-")
    if special.size:
        rows = np.array(fallback, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
        out[np.unravel_index(special, shape)] = rows[inverse]
    return out
