"""Wire-format tests: round trips, length laws, prefix decodability."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mdimlab.codec import (
    DyadicRational,
    RationalPoint,
    ceil_half_log2,
    decode_int,
    decode_point,
    distance_sq,
    encode_int,
    encode_point,
    json_fraction,
    try_decode_exact_point,
    zigzag,
)


def test_encode_int_zero_is_single_one_bit():
    assert encode_int(0) == "1"


def test_int_round_trip_sweep():
    for z in range(-(1 << 16), (1 << 16) + 1):
        z2, pos = decode_int(encode_int(z))
        assert z2 == z and pos == len(encode_int(z))


@given(st.integers(min_value=-(1 << 20), max_value=1 << 20))
def test_int_round_trip_wide(z):
    assert decode_int(encode_int(z))[0] == z


def test_int_boundaries_round_trip():
    for z in (-(1 << 20), (1 << 20), -(1 << 40), 1 << 40):
        assert decode_int(encode_int(z))[0] == z


def test_length_law():
    # len == 2*floor(log2(zigzag(z)+1)) + 1
    for z in list(range(-300, 301)) + [1 << 19, -(1 << 19), (1 << 20) - 7]:
        u = zigzag(z) + 1
        assert len(encode_int(z)) == 2 * (u.bit_length() - 1) + 1


def test_int_prefix_decodable_with_trailing_garbage():
    rng = random.Random(11)
    for _ in range(500):
        z = rng.randint(-(1 << 18), 1 << 18)
        s = encode_int(z)
        fuzz = s + "".join(rng.choice("01") for _ in range(rng.randint(1, 16)))
        z2, pos = decode_int(fuzz)
        assert z2 == z and pos == len(s)


def test_dyadic_canonical_form():
    d = DyadicRational(6, 3)  # 6/8 -> 3/4
    assert (d.num, d.exp) == (3, 2)
    assert (DyadicRational(8, 3).num, DyadicRational(8, 3).exp) == (1, 0)
    assert (DyadicRational(0, 5).num, DyadicRational(0, 5).exp) == (0, 0)
    # negative exponents normalize to integers
    assert (DyadicRational(3, -2).num, DyadicRational(3, -2).exp) == (12, 0)


def test_dyadic_floor_shift():
    assert DyadicRational(3, 2).floor_shift(1) == 1      # floor(0.75*2)
    assert DyadicRational(-3, 2).floor_shift(1) == -2    # floor(-1.5)
    assert DyadicRational(5, 0).floor_shift(-1) == 2     # floor(2.5)
    assert DyadicRational(-1, 3).floor_shift(0) == -1    # floor(-0.125)


def test_encode_point_origin_1d():
    p = RationalPoint.of(0)
    assert encode_point(p) == encode_int(1) + encode_int(0) + encode_int(0)


def test_point_round_trip_random():
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randint(1, 3)
        coords = tuple(
            DyadicRational(rng.randint(-(1 << 12), 1 << 12), rng.randint(0, 12))
            for _ in range(n)
        )
        p = RationalPoint(coords)
        q, pos = decode_point(encode_point(p))
        assert q == p and pos == len(encode_point(p))


@given(
    st.lists(
        st.tuples(st.integers(-4096, 4096), st.integers(0, 12)),
        min_size=1,
        max_size=4,
    )
)
def test_point_round_trip_property(raw):
    p = RationalPoint(tuple(DyadicRational(m, e) for m, e in raw))
    assert decode_point(encode_point(p))[0] == p


def test_point_encoding_injective_on_canonical_points():
    rng = random.Random(3)
    seen = {}
    for _ in range(5000):
        n = rng.randint(1, 3)
        p = RationalPoint(
            tuple(
                DyadicRational(rng.randint(-64, 64), rng.randint(0, 6))
                for _ in range(n)
            )
        )
        s = encode_point(p)
        if s in seen:
            assert seen[s] == p
        seen[s] = p


def test_point_prefix_decodable_with_trailing_garbage():
    rng = random.Random(13)
    for _ in range(300):
        p = RationalPoint.of(DyadicRational(rng.randint(-99, 99), rng.randint(0, 6)))
        s = encode_point(p)
        q, pos = decode_point(s + "10101")
        assert q == p and pos == len(s)


def test_try_decode_exact_point_rejects_junk():
    p = RationalPoint.of(DyadicRational(1, 1))
    s = encode_point(p)
    assert try_decode_exact_point(s) == p
    assert try_decode_exact_point(s + "0") is None
    assert try_decode_exact_point("") is None
    assert try_decode_exact_point("0") is None
    # dimension 0 is not a point
    assert try_decode_exact_point(encode_int(0)) is None
    # non-canonical common exponent: (n=1, R=1, m=2) encodes the integer 1
    bad = encode_int(1) + encode_int(1) + encode_int(2)
    assert try_decode_exact_point(bad) is None


def test_negative_common_exponent_rejected():
    bits = encode_int(1) + encode_int(-1) + encode_int(0)
    with pytest.raises(ValueError):
        decode_point(bits)


def test_distance_sq_exact():
    p = RationalPoint.of(DyadicRational(1, 1), DyadicRational(1, 2))
    q = RationalPoint.of(0, 0)
    assert distance_sq(p, q) == Fraction(1, 4) + Fraction(1, 16)


@given(st.integers(min_value=1, max_value=1 << 80))
def test_ceil_half_log2_is_least_power_of_four(n):
    l = 0
    while 4**l < n:
        l += 1
    assert ceil_half_log2(n) == l


@pytest.mark.parametrize("n", [0, -1, -5])
def test_ceil_half_log2_refuses_n_below_one(n):
    with pytest.raises(ValueError):
        ceil_half_log2(n)


def test_json_fraction_reads_integer_fraction_and_decimal_strings():
    assert json_fraction("c", "0.25") == Fraction(1, 4)
    assert json_fraction("c", "-3/8") == Fraction(-3, 8)
    assert json_fraction("c", "12") == 12
    assert json_fraction("c", -5) == -5


@pytest.mark.parametrize("value", ["1e-1", "2E3", "1e-10000000"])
def test_json_fraction_refuses_exponent_notation(value):
    with pytest.raises(ValueError, match="rho must not use exponent notation"):
        json_fraction("rho", value)
