"""Exact geometry tests: containment, covers, lattices, enumeration order."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
from mdimlab.machine import MachineConfig


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


def test_cover_examples():
    b = Ball.at_precision(RationalPoint.of(dy(1, 1)), 0)
    assert sorted(c.index[0] for c in cubes_intersecting_ball(b, 0)) == [-1, 0, 1]
    b = Ball.at_precision(RationalPoint.of(dy(1, 2)), 2)
    assert sorted(c.index[0] for c in cubes_intersecting_ball(b, 2)) == [0, 1]


def test_cover_requires_matching_precision():
    b = Ball.at_precision(RationalPoint.of(dy(0)), 3)
    with pytest.raises(ValueError):
        cubes_intersecting_ball(b, 2)


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
            hits = {c.index for c in cubes_intersecting_ball(ball, r)}
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
        assert len(cubes_intersecting_ball(ball, r)) == 3 ** n


def test_lattice_point_examples():
    # center near 0.3, precision 2: the returned point is 1/4
    got = lattice_point_in_ball(Ball.at_precision(RationalPoint.of(dy(19, 6)), 2), 2)
    assert got.coords[0].to_fraction() == Fraction(1, 4)
    # 2-d example: spacing halves, the nearest lattice point is (1/2, 1/2)
    center = RationalPoint.of(dy(19, 6), dy(45, 6))
    got = lattice_point_in_ball(Ball.at_precision(center, 0), 0)
    assert [c.to_fraction() for c in got.coords] == [Fraction(1, 2), Fraction(1, 2)]


def test_lattice_point_always_found_and_inside():
    rng = random.Random(97)
    for n in (1, 2, 3, 4):
        for _ in range(250):
            r = rng.randint(0, 10)
            ball = Ball.at_precision(_random_dyadic_point(rng, n), r)
            q = lattice_point_in_ball(ball, r)
            assert ball.contains(q)
            # and q really lies on the promised lattice
            s = r + ceil_half_log2(n)
            for c in q.coords:
                assert c.exp <= s


def test_scale_ball():
    b = Ball.at_precision(RationalPoint.of(dy(0)), 4)
    big = scale_ball(b, Fraction(1 << 6))
    assert big.radius == Fraction(4) and big.center == b.center
    with pytest.raises(ValueError):
        scale_ball(b, 0)


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
        for i in range(0, 3000, 7):
            m = zn_enumeration(i, n)
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


def test_dyadic_lds_blocks():
    cfg = MachineConfig(24, 256)
    records = dyadic_lds(2, 9, cfg, n=1)
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
