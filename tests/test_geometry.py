"""Exact geometry tests: containment, covers, lattices, enumeration order."""

import dataclasses
import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from mdimlab.codec import DyadicRational, RationalPoint, encode_point
from mdimlab.geometry import (
    Ball,
    DyadicCube,
    ceil_half_log2,
    cube_containing,
    cubes_intersecting_ball,
    dyadic_lds,
    lattice_point_in_ball,
    scale_ball,
    zn_enumeration,
    zn_prefix,
)
from mdimlab.harness import config_from_mapping, run_suite
from mdimlab.machine import MachineConfig, get_enumeration


def dy(num, exp=0):
    return DyadicRational(num, exp)


def test_ceil_half_log2():
    assert [ceil_half_log2(n) for n in (1, 2, 3, 4, 5, 16, 17)] == [
        0, 1, 1, 1, 2, 2, 3,
    ]


def test_cube_containing_examples():
    # 0.3125 in [0, 0.5): index 0 at precision 1
    assert cube_containing(RationalPoint.of(dy(5, 4)), 1).index == (0,)
    # -0.3125 in [-1, 0): index -1 at precision 0
    assert cube_containing(RationalPoint.of(dy(-5, 4)), 0).index == (-1,)
    # the corner point (0.5, 0.5) belongs to the upper cube at precision 1
    p = RationalPoint.of(dy(1, 1), dy(1, 1))
    assert cube_containing(p, 1).index == (1, 1)


def test_cube_membership_half_open():
    cube = DyadicCube(1, (0,))
    assert cube.contains(RationalPoint.of(dy(0)))
    assert cube.contains(RationalPoint.of(dy(7, 4)))
    assert not cube.contains(RationalPoint.of(dy(1, 1)))  # 0.5 excluded
    assert not cube.contains(RationalPoint.of(dy(-1, 4)))


@given(
    st.integers(min_value=0, max_value=10),
    st.lists(
        st.tuples(st.integers(-(1 << 12), 1 << 12), st.integers(0, 10)),
        min_size=1,
        max_size=3,
    ),
)
def test_cubes_partition_space(r, raw):
    q = RationalPoint(tuple(DyadicRational(m, e) for m, e in raw))
    home = cube_containing(q, r)
    assert home.contains(q)
    # no neighboring cube also contains it
    for offset in itertools.product((-1, 0, 1), repeat=q.dimension):
        if all(o == 0 for o in offset):
            continue
        other = DyadicCube(r, tuple(m + o for m, o in zip(home.index, offset)))
        assert not other.contains(q)


def _floor_index(q, r):
    """The reference cube index of q at precision r, through Fraction."""
    return tuple(math.floor(c.to_fraction() * 2**r) for c in q.coords)


@given(
    st.integers(0, 12),
    # odd numerators keep each drawn exponent, which lands below, at and
    # above r; zero exercises the canonical 0 / 2**0
    st.lists(
        st.tuples(st.integers(-(1 << 12), 1 << 12), st.integers(-12, 12)),
        min_size=1,
        max_size=4,
    ),
)
@example(3, [(-5, -2)]).via("negative, exponent below r")
@example(3, [(-5, 0)]).via("negative, exponent equal to r")
@example(3, [(-5, 2)]).via("negative, exponent above r")
@example(0, [(0, 0), (-1, 12)]).via("zero and a tiny negative")
def test_cube_containing_matches_fraction_floor(r, raw):
    q = RationalPoint(tuple(
        DyadicRational(2 * m + 1 if m else 0, max(0, r + d)) for m, d in raw
    ))
    home = _floor_index(q, r)
    assert cube_containing(q, r) == DyadicCube(r, home)
    assert DyadicCube(r, home).contains(q)
    for axis, step in itertools.product(range(len(home)), (-1, 1)):
        moved = tuple(m + step * (i == axis) for i, m in enumerate(home))
        assert not DyadicCube(r, moved).contains(q)


def test_closure_distance_refuses_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        DyadicCube(0, (0, 0)).closure_distance_sq(RationalPoint.of(5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        DyadicCube(0, (0,)).closure_distance_sq(RationalPoint.of(5, 1))
    assert DyadicCube(0, (0,)).closure_distance_sq(RationalPoint.of(5)) == 16


VALUE_TYPES = [
    (DyadicRational(3, 2), "num"),
    (RationalPoint.of(1, dy(1, 1)), "coords"),
    (Ball(RationalPoint.of(dy(1, 1)), 2), "precision"),
    (DyadicCube(1, (0, -1)), "index"),
]


@pytest.mark.parametrize("value,field", VALUE_TYPES)
def test_value_types_are_frozen_and_slotted(value, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    # slotted: no per-instance dict, so no attribute outside the fields
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", [value for value, _ in VALUE_TYPES])
def test_value_types_compare_and_hash_by_value(value):
    twin = dataclasses.replace(value)
    assert twin is not value and twin == value and hash(twin) == hash(value)


def test_equal_dyadics_compare_and_hash_equal():
    assert DyadicRational(4, 3) == DyadicRational(1, 1)
    assert hash(DyadicRational(4, 3)) == hash(DyadicRational(1, 1))
    assert RationalPoint.of(dy(4, 3)) == RationalPoint.of(dy(1, 1))
    assert Ball(RationalPoint.of(dy(2, 2)), 1) == Ball(RationalPoint.of(dy(1, 1)), 1)
    assert DyadicRational(4, 3) != DyadicRational(1, 2)


def test_cubes_work_as_set_members():
    # the coding-bound check counts distinct cubes in a set
    q = RationalPoint.of(dy(5, 4), dy(-3, 3))
    cubes = {cube_containing(q, 2), DyadicCube(2, (1, -2)), cube_containing(q, 3)}
    assert cubes == {DyadicCube(2, (1, -2)), DyadicCube(3, (2, -3))}
    assert DyadicCube(2, (1, -2)) in cubes and DyadicCube(2, (1, -1)) not in cubes


def test_geometry_suite_normalises_a_pinned_number_of_dyadics(monkeypatch):
    # a work pin: a refactor that normalises again per predicate shows here
    # as a count, not as timing noise
    calls = 0
    normalise = DyadicRational.__post_init__

    def counted(self):
        nonlocal calls
        calls += 1
        normalise(self)

    monkeypatch.setattr(DyadicRational, "__post_init__", counted)
    report = run_suite(config_from_mapping({"suite": "geometry", "seed": 1}))
    assert report.fail_count == 0
    assert calls == 70_076


def test_cover_examples():
    b = Ball.at_precision(RationalPoint.of(dy(1, 1)), 0)
    assert sorted(idx[0] for idx in cubes_intersecting_ball(b)) == [-1, 0, 1]
    b = Ball.at_precision(RationalPoint.of(dy(1, 2)), 2)
    assert sorted(idx[0] for idx in cubes_intersecting_ball(b)) == [0, 1]


def test_ball_precision_must_be_a_nonnegative_int():
    c = RationalPoint.of(dy(0))
    assert Ball(c, 3) == Ball.at_precision(c, 3)
    assert Ball(c, 3).radius == Fraction(1, 8) and Ball(c, 0).radius == 1
    for precision in (0.5, 2.0, True, "1", None, Fraction(2)):
        with pytest.raises(ValueError, match="int >= 0"):
            Ball(c, precision)


def test_negative_precision_is_refused():
    # a negative r fails when the ball is built, before any predicate runs
    for r in (-1, -5):
        with pytest.raises(ValueError, match=f"not {r}"):
            Ball.at_precision(RationalPoint.of(dy(0)), r)


@pytest.mark.parametrize("precision", [1.5, True, "2", -1])
def test_cube_precision_must_be_a_nonnegative_int(precision):
    # refused as the ball refuses it, naming the value, before any
    # predicate can fail on it
    message = re.escape(f"cube precision must be an int >= 0, not {precision!r}")
    with pytest.raises(ValueError, match=message):
        DyadicCube(precision, (0,))


def _random_dyadic_point(rng, n, span=6, depth=8):
    return RationalPoint(
        tuple(
            DyadicRational(rng.randint(-(1 << (span + depth)), 1 << (span + depth)), depth)
            for _ in range(n)
        )
    )


def test_cover_bound_and_completeness_against_wide_scan():
    # independent route: scan a 5-wide window and check nothing outside the
    # 3**n result actually intersects
    rng = random.Random(41)
    for n in (1, 2, 3):
        for _ in range(120):
            r = rng.randint(0, 8)
            center = _random_dyadic_point(rng, n)
            ball = Ball.at_precision(center, r)
            hits = set(cubes_intersecting_ball(ball))
            assert 1 <= len(hits) <= 3 ** n
            base = cube_containing(center, r)
            rad_sq = ball.radius * ball.radius
            for offset in itertools.product((-2, -1, 0, 1, 2), repeat=n):
                idx = tuple(m + o for m, o in zip(base.index, offset))
                cube = DyadicCube(r, idx)
                intersects = cube.closure_distance_sq(center) < rad_sq
                assert intersects == (idx in hits)


def test_cover_tightness_witness_per_dimension():
    # a ball centered at a cube's center pokes into all 3**n neighbors
    for n in (1, 2, 3):
        r = 3
        center = RationalPoint(tuple(DyadicRational(2 * 5 + 1, r + 1) for _ in range(n)))
        ball = Ball.at_precision(center, r)
        assert len(cubes_intersecting_ball(ball)) == 3 ** n


def test_lattice_point_examples():
    # center near 0.3, precision 2: the returned point is 1/4
    got = lattice_point_in_ball(Ball.at_precision(RationalPoint.of(dy(19, 6)), 2))
    assert got.coords[0].to_fraction() == Fraction(1, 4)
    # 2-d example: spacing halves, the nearest lattice point is (1/2, 1/2)
    center = RationalPoint.of(dy(19, 6), dy(45, 6))
    got = lattice_point_in_ball(Ball.at_precision(center, 0))
    assert [c.to_fraction() for c in got.coords] == [Fraction(1, 2), Fraction(1, 2)]


def test_lattice_point_always_found_and_inside():
    rng = random.Random(97)
    for n in (1, 2, 3, 4):
        for _ in range(250):
            r = rng.randint(0, 10)
            ball = Ball.at_precision(_random_dyadic_point(rng, n), r)
            q = lattice_point_in_ball(ball)
            assert ball.contains(q)
            # and q really lies on the promised lattice
            s = r + ceil_half_log2(n)
            for c in q.coords:
                assert c.exp <= s


def test_scale_ball():
    b = Ball.at_precision(RationalPoint.of(dy(0)), 6)
    big = scale_ball(b, Fraction(1 << 6))
    assert big.precision == 0 and big.radius == 1 and big.center == b.center
    assert scale_ball(b, 1 << 4).precision == 2
    assert scale_ball(b, Fraction(1, 8)).precision == 9
    assert scale_ball(b, 1) == b
    # a float factor would scale by its binary double, not by 1/10, and a
    # bool is not a number here; both are refused like a non-rational factor
    for alpha in (0.1, 2.0, True, "1/2"):
        with pytest.raises(ValueError, match="int or a Fraction"):
            scale_ball(b, alpha)
    # a ball of precision r has radius 2**-r, so only powers of two scale it
    for alpha in (0, -2, 3, Fraction(3, 2), Fraction(1, 3), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="power of two"):
            scale_ball(b, alpha)
    # and no precision below 0
    for alpha in (1 << 7, Fraction(1 << 9)):
        with pytest.raises(ValueError, match="int >= 0"):
            scale_ball(b, alpha)


def test_scaled_ball_radius_beats_half_sqrt_n():
    # the lattice construction scales by 2**(r+l); check 4**(l+1) > n exactly
    for n in range(1, 18):
        l = ceil_half_log2(n)
        assert 4 ** (l + 1) > n


def test_zn_enumeration_1d_prefix():
    assert [zn_enumeration(i, 1)[0] for i in range(7)] == [0, 1, -1, 2, -2, 3, -3]


def test_zn_enumeration_2d_order():
    pts = zn_prefix(9, 2)
    assert pts[0] == (0, 0)
    assert set(pts[1:5]) == {(0, 1), (0, -1), (1, 0), (-1, 0)}
    assert set(pts[5:9]) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    # positive-before-negative lexicographic tie-break inside a shell
    assert pts[1:5] == [(0, 1), (0, -1), (1, 0), (-1, 0)]


def test_zn_enumeration_norms_nondecreasing_and_complete():
    for n, count in ((1, 2000), (2, 2000), (3, 1500)):
        pts = zn_prefix(count, n)
        norms = [sum(v * v for v in p) for p in pts]
        assert norms == sorted(norms)
        assert len(set(pts)) == len(pts)
        # completeness: every point with norm <= that of the last element
        # minus one shell is present
        cutoff = norms[-1] - 1
        w = math.isqrt(cutoff) + 1
        expect = sum(
            1
            for p in itertools.product(range(-w, w + 1), repeat=n)
            if sum(v * v for v in p) <= cutoff
        )
        assert sum(1 for v in norms if v <= cutoff) == expect


def test_zn_enumeration_index_bound_sample():
    # i < (2*floor(sqrt(norm_sq)) + 1)**n, an integer-exact strengthening of
    # the norm bound; the acceptance suite sweeps this to 10**5
    for n in (1, 2, 3):
        for i, m in enumerate(zn_prefix(3000, n)):
            s = sum(v * v for v in m)
            assert i < (2 * math.isqrt(s) + 1) ** n or s == 0 and i == 0


def test_zn_order_matches_sorted_box():
    # slow reference: sort a box that holds every point of the prefix
    for n, w in ((1, 40), (2, 12), (3, 5)):
        box = sorted(
            itertools.product(range(-w, w + 1), repeat=n),
            key=lambda p: (sum(v * v for v in p),
                           tuple((abs(v), v < 0) for v in p)),
        )
        count = sum(1 for p in box if sum(v * v for v in p) <= w * w)
        for c in (count, 1, 7, count // 2):
            assert zn_prefix(c, n) == box[:c]
        assert [zn_enumeration(i, n) for i in range(count)] == box[:count]


def test_zn_rejects_dimension_zero():
    with pytest.raises(ValueError):
        zn_enumeration(0, 0)
    for count in (0, 1, 5):
        with pytest.raises(ValueError):
            zn_prefix(count, 0)
    with pytest.raises(ValueError):
        zn_prefix(-1, 1)


# sha256 of zn_prefix(20000, n), one point a line, coordinates joined by
# spaces: the last points have squared norm 10**8, 6370 and 283, bands that
# the sorted-box reference above does not reach
ZN_PREFIX_DIGESTS = {
    1: "ac3fbc163ca95c7126e662d1ec2a9ea89573827aaa7e5c6b4b026cd9dd41eb38",
    2: "75ed69c256b6147c9424f043e85c4062950b27837322bb84d5c38ecc1b6c1d4d",
    3: "afd67e97befac89f096694fe2f9fb1015200e824680eddd78c1fcfb92e25731c",
}


@pytest.mark.parametrize("n", sorted(ZN_PREFIX_DIGESTS))
def test_zn_prefix_digest_at_scale(n):
    text = "".join(" ".join(map(str, p)) + "\n" for p in zn_prefix(20000, n))
    assert hashlib.sha256(text.encode()).hexdigest() == ZN_PREFIX_DIGESTS[n]


def test_dyadic_lds_blocks():
    cfg = MachineConfig(24, 256)
    records = dyadic_lds(2, 9, get_enumeration(cfg).points, n=1)
    by_layer = {}
    for rec in records:
        by_layer.setdefault(rec.layer, []).append(rec)
    enc0 = encode_point(RationalPoint.of(0))
    enc_half = encode_point(RationalPoint.of(dy(1, 1)))
    enc1 = encode_point(RationalPoint.of(1))
    enc_neg1 = encode_point(RationalPoint.of(-1))
    # layer 1, block 0 is the cube [0, 1/2): only the origin encoding
    rec = next(r for r in by_layer[1] if r.block == 0)
    assert rec.members == {enc0}
    # blocks within a layer are disjoint and jointly cover all four points
    for layer, recs in by_layer.items():
        seen = [m for rec in recs for m in rec.members]
        assert len(seen) == len(set(seen))
        assert set(seen) == {enc0, enc_half, enc1, enc_neg1}
