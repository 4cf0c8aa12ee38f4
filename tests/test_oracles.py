"""Point-oracle tests: pinned streams, dilution layout, query consistency."""

import hashlib
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdimlab import oracles
from mdimlab.codec import DIMENSION_CAP, DyadicRational, RationalPoint
from mdimlab.oracles import (
    DILUTION_PERIOD,
    BitStream,
    ConstantOracle,
    ProductOracle,
    StreamOracle,
    diluted_stream,
    hash_stream,
    make_oracle,
    rational_stream,
)


def euclid2(p: RationalPoint, q: RationalPoint) -> Fraction:
    return sum(
        (a.to_fraction() - b.to_fraction()) ** 2
        for a, b in zip(p.coords, q.coords)
    )


def test_hash_stream_pinned_prefix():
    # frozen from a one-off SHA-256 computation over the stream label
    assert hash_stream(7, 0).prefix(16) == "0100110011001011"
    assert hash_stream(1000003, 0).prefix(16) == "0101010111000010"


def test_hash_stream_matches_direct_digest():
    tag = b"mdimlab:42:3|" + (0).to_bytes(8, "big")
    word = int.from_bytes(hashlib.sha256(tag).digest(), "big")
    expected = format(word, "0256b")
    assert hash_stream(42, 3).prefix(256) == expected


def test_hash_stream_lanes_differ():
    assert hash_stream(7, 0).prefix(64) != hash_stream(7, 1).prefix(64)


def test_bit_stream_rejects_bad_source():
    for source in (lambda i: 2, lambda i: "", lambda i: "012"):
        stream = BitStream(source)
        with pytest.raises(ValueError):
            stream.bit(0)


def test_threads_reading_one_stream_see_its_bits():
    # threads that extend one stream at once can fetch the same block; each
    # block lands at its own offset, so none is appended twice
    n = 1 << 13
    expected = hash_stream(11).prefix(n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            stream = hash_stream(11)
            start = threading.Barrier(8, timeout=30)
            read = []

            def reader(k):
                start.wait()
                read.append(stream.prefix(k) == expected[:k])

            threads = [threading.Thread(target=reader, args=(n - 97 * t,))
                       for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            assert read == [True] * 8
            assert stream.prefix(n) == expected
    finally:
        sys.setswitchinterval(interval)


def test_stream_asks_its_source_once_per_block(monkeypatch):
    calls = []

    class CountedStream(BitStream):
        def __init__(self, source):
            super().__init__(lambda i: calls.append(i) or source(i))

    monkeypatch.setattr(oracles, "BitStream", CountedStream)
    hash_stream(5).prefix(1 << 16)
    assert len(calls) <= 256


def test_rational_stream_expansions():
    assert rational_stream(Fraction(1, 4)).prefix(8) == "01000000"
    assert rational_stream(Fraction(1, 3)).prefix(8) == "01010101"
    assert rational_stream(Fraction(5, 8)).prefix(8) == "10100000"
    assert rational_stream(Fraction(0)).prefix(8) == "00000000"
    with pytest.raises(ValueError):
        rational_stream(Fraction(3, 2))


def test_diluted_stream_period_layout():
    p = DILUTION_PERIOD
    base = hash_stream(11, 0)
    dil = diluted_stream(11, Fraction(1, 2))
    fresh = p // 2
    for q in range(3):
        seg = dil.prefix((q + 1) * p)[q * p :]
        assert seg[:fresh] == base.prefix((q + 1) * fresh)[q * fresh :]
        assert seg[fresh:] == "0" * (p - fresh)


def test_diluted_stream_density_edges():
    assert diluted_stream(5, Fraction(0)).prefix(4096) == "0" * 4096
    assert (
        diluted_stream(5, Fraction(1)).prefix(4096)
        == hash_stream(5, 0).prefix(4096)
    )
    with pytest.raises(ValueError):
        diluted_stream(5, Fraction(5, 4))


def test_diluted_stream_non_dyadic_density():
    rho = Fraction(1, 3)
    p = DILUTION_PERIOD
    dil = diluted_stream(13, rho)
    base = hash_stream(13, 0)
    # telescoping per-period quota: k periods hold floor(k*rho*p) fresh bits
    for k in (1, 2, 3, 5):
        quota = (k * rho * p).__floor__()
        text = dil.prefix(k * p)
        # every fresh segment mirrors the base stream in order
        taken = 0
        for q in range(k):
            count = ((q + 1) * rho * p).__floor__() - (q * rho * p).__floor__()
            seg = text[q * p : q * p + count]
            assert seg == base.prefix(taken + count)[taken:]
            taken += count
        assert taken == quota


def test_stream_oracle_depth_covers_euclidean_error():
    oracle = StreamOracle([hash_stream(3, lane) for lane in range(2)])
    for r in (0, 1, 5, 10):
        p, deep = oracle.query(r), oracle.query(r + 24)
        bound = (Fraction(1, 2**r) + Fraction(1, 2 ** (r + 24))) ** 2
        assert euclid2(p, deep) <= bound


@settings(max_examples=30)
@given(
    st.sampled_from(
        [
            {"kind": "random", "seed": 9, "n": 1},
            {"kind": "random", "seed": 9, "n": 3},
            {"kind": "diluted", "seed": 4, "rho": "1/2", "n": 2},
            {"kind": "rational", "values": ["1/3", "1/4"]},
            {
                "kind": "product",
                "factors": [
                    {"kind": "random", "seed": 2, "n": 1},
                    {"kind": "rational", "values": ["2/7"]},
                ],
            },
        ]
    ),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=0, max_value=24),
)
def test_query_consistency_invariant(spec, r, s):
    oracle = make_oracle(spec)
    bound = (Fraction(1, 2**r) + Fraction(1, 2**s)) ** 2
    assert euclid2(oracle.query(r), oracle.query(s)) <= bound


def test_constant_oracle_exact_at_all_precisions():
    point = RationalPoint(
        (DyadicRational(3, 2), DyadicRational(-1, 0))
    )
    oracle = ConstantOracle(point)
    assert oracle.dimension == 2
    assert oracle.query(0) == point
    assert oracle.query(40) == point


def test_product_oracle_concatenates():
    prod = ProductOracle(make_oracle({"kind": "random", "seed": 1, "n": 2}),
                         make_oracle({"kind": "rational", "values": ["1/3"]}))
    assert prod.dimension == 3
    assert len(prod.query(4).coords) == 3


def test_make_oracle_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_oracle({"kind": "perlin"})


@pytest.mark.parametrize("spec_of", [
    lambda n: {"kind": "random", "seed": 1, "n": n},
    lambda n: {"kind": "diluted", "seed": 1, "rho": "1/2", "n": n},
    lambda n: {"kind": "rational", "values": ["1/3"] * n},
    lambda n: {"kind": "constant", "coords": ["1/2"] * n},
    lambda n: {"kind": "product", "factors": [
        {"kind": "random", "seed": 1, "n": 32},
        {"kind": "random", "seed": 2, "n": n - 32}]},
], ids=["random", "diluted", "rational", "constant", "product"])
def test_dimension_cap_is_the_largest_accepted(spec_of):
    assert make_oracle(spec_of(DIMENSION_CAP)).dimension == DIMENSION_CAP
    with pytest.raises(ValueError, match="over the dimension cap DIMENSION_CAP = 64"):
        make_oracle(spec_of(DIMENSION_CAP + 1))


def test_diluted_oracle_dimension():
    oracle = make_oracle({"kind": "diluted", "seed": 7, "rho": "3/4", "n": 2})
    assert oracle.dimension == 2


def test_rational_values_are_all_read_before_any_range_check():
    # 2 is a well-formed value out of [0, 1); the float after it is
    # refused first, since every value is read before a stream is built
    with pytest.raises(ValueError, match=r"values\[1\] must be an integer or a string"):
        make_oracle({"kind": "rational", "values": [2, 1.5]})
    with pytest.raises(ValueError, match=r"value must lie in \[0, 1\)"):
        make_oracle({"kind": "rational", "values": [2, "1/2"]})
