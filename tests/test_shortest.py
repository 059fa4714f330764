"""The array formatter writes the bytes of repr for every float64."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvteleport._shortest import reprs


def texts(values) -> list[str]:
    """The rows of reprs(values) without their NULs."""
    rows = reprs(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"").decode() for row in rows]


def mismatches(values) -> list[tuple[str, str]]:
    values = np.asarray(values, dtype=np.float64)
    expected = list(map(repr, values.tolist()))
    return [(e, t) for e, t in zip(expected, texts(values)) if e != t]


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def with_neighbours(values) -> list[float]:
    """Each value and the floats one ulp below and above it."""
    return [y for v in values for y in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]


def test_every_power_of_two():
    powers = [2.0**e for e in range(-1074, 1024)]
    assert mismatches(powers + [-p for p in powers]) == []


def test_powers_of_ten_and_their_neighbours():
    assert mismatches(with_neighbours([float(f"1e{e}") for e in range(-323, 309)])) == []


def test_subnormal_mantissas():
    assert mismatches(from_bits(np.arange(1, 2**16 + 1))) == []


def test_integer_and_layout_edges():
    edges = [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16, 1e-4, 1e-5, 9.999999999999999e15]
    values = with_neighbours(edges) + [2.0**53 + k for k in range(-8, 9)]
    values += [from_bits([(1 << 52) - 1])[0], 1.5, 1e22]  # the largest subnormal
    assert mismatches(values + [-v for v in values]) == []


def test_zeros_infinities_and_signed_nans():
    nans = from_bits([0x7FF8 << 48, 0xFFF8 << 48, (0x7FF << 52) + 1, 2**64 - 1])
    values = [0.0, -0.0, math.inf, -math.inf, *nans.tolist(), 1.0, -2.5]
    assert texts(values) == ["0.0", "-0.0", "inf", "-inf", *["nan"] * 4, "1.0", "-2.5"]


def test_random_bit_patterns():
    bits = np.random.default_rng(13).integers(0, 2**64, size=200_000, dtype=np.uint64)
    assert mismatches(from_bits(bits)) == []


def test_short_decimals_and_their_neighbours():
    """Decimals of 1 to 17 digits reach the interval ends and the parity checks."""
    rng = np.random.default_rng(14)
    mantissas = rng.integers(1, 10 ** rng.integers(1, 18, size=100_000), dtype=np.int64)
    exponents = rng.integers(-330, 311, size=100_000)
    values = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    assert mismatches(with_neighbours(values)) == []


def test_empty_input():
    assert reprs(np.empty(0)).shape[0] == 0


@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([5e-324, -1.7976931348623157e308, 0.1, 123456789012345.6])
@settings(max_examples=300, deadline=None)
def test_matches_repr(values):
    assert texts(values) == list(map(repr, values))
