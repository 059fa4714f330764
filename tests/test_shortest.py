"""The array formatter writes the bytes of repr for every float64."""

import math

import numpy as np
import pytest
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


# Bit patterns of default_rng(22) draws, frozen by the branch of the digit step
# that they take: an interval end (the upper kept, the upper dropped, the
# lower), a tie between two multiples, both at once, or neither.
END_LANES = [
    0x67B4C56DBC396CAA, 0x308F241060E1FD9E, 0xCD9197A8F34782D7, 0xA9AB25C04438B617,
    0xC3B5F3EF20E80E01, 0xC35002B9C3E36303, 0xC392638E82A8A8BB, 0xC38987E894071EFF,
    0xAFFAF2F37B9C937D, 0x03E8F7F820F94873, 0x8A567A2CA745D9C1, 0x546E99BAF6EB5303,
    0x216A111FB903B595, 0x4356989FBA2742FE, 0x4352424E83559E7A, 0xC3502F6487C765A0,
]
TIE_LANES = [
    0xBB7DD9C6919BAD8E, 0x8C1F1F0124A62F08, 0xEB3F679821DC61C1, 0xC1B1104FDA3509EE,
    0x1C07E6FE00CE35D3, 0xC31435CE96C50E91, 0x64D5BA009AD1F763, 0xC671D0B58DA22CAE,
    0xAB39CDB74D9EEC8D, 0x4C7D2D14D4402A19, 0x4B82D7FD3F0D9265, 0x9073D68562DF66A1,
    0x431011673779F05B, 0xCDD5CBD2F261430C, 0x7DD7FFD5BC3C9648, 0x875B0858AE9716A8,
]
END_AND_TIE_LANES = [0xCA9F48141BA87248, 0x7521ABD9347B8E29, 0x01D9FB4DAEEFE5F6, 0x9F10806F859732F0]
PLAIN_LANES = [
    0x5DC8E954C570497B, 0x330505A0A8EED3C0, 0x16ABC2F4F1B411AA, 0xA737920843D709F2,
    0x75971CD1043BFECC, 0xFCD84F3225A387A2, 0xDA005D7254155249, 0xD64318E751EAF2A7,
    0x0D2B17500D837D24, 0x8E2B19A045154987, 0x9B82CB922A32B60B, 0x0CD60F56849A28F9,
    0x7A322A2A581C5AED, 0x545E4B36E9134A6C, 0x376B9B0B53B1E2CF, 0xCC0949E177FA094E,
]
# Each mix leads with its own kinds, so that even one lane holds them.
PARITY_MIXES = {
    "ends and ties": END_AND_TIE_LANES + [*sum(zip(END_LANES, TIE_LANES), ())] + PLAIN_LANES,
    "ends": END_LANES + PLAIN_LANES,
    "ties": TIE_LANES + PLAIN_LANES,
    "neither": PLAIN_LANES,
}


@pytest.mark.parametrize("lanes", [1, 8, 1050, 10_240])
@pytest.mark.parametrize("mix", list(PARITY_MIXES))
def test_parity_lanes(mix, lanes):
    """One parity pass serves the interval ends and the ties, in any mix and number."""
    bits = np.resize(np.array(PARITY_MIXES[mix], dtype=np.uint64), lanes)
    assert mismatches(from_bits(bits)) == []


def test_empty_input():
    assert reprs(np.empty(0)).shape[0] == 0


@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([5e-324, -1.7976931348623157e308, 0.1, 123456789012345.6])
@settings(max_examples=300, deadline=None)
def test_matches_repr(values):
    assert texts(values) == list(map(repr, values))
