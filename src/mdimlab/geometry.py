"""Exact geometry over dyadic rationals: cubes, open balls, lattices.

Everything here is integer or Fraction arithmetic; floats never enter
membership or intersection decisions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .codec import DyadicRational, RationalPoint, distance_sq
from .machine import MachineConfig, get_enumeration


class InternalGeometryError(RuntimeError):
    """Raised when a guaranteed-nonempty search comes up empty."""


def ceil_half_log2(n: int) -> int:
    """Smallest l >= 0 with 4**l >= n."""
    if n < 1:
        raise ValueError("need n >= 1")
    l = 0
    while (1 << (2 * l)) < n:
        l += 1
    return l


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball with an exact rational radius."""

    center: RationalPoint
    radius: Fraction

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @classmethod
    def at_precision(cls, center: RationalPoint, r: int) -> "Ball":
        """The open ball of radius 2**-r used at precision r."""
        return cls(center, Fraction(1, 1 << r) if r >= 0 else Fraction(1 << -r))

    @property
    def dimension(self) -> int:
        return self.center.dimension

    def contains(self, q: RationalPoint) -> bool:
        return distance_sq(q, self.center) < self.radius * self.radius


def scale_ball(ball: Ball, alpha: Fraction | int) -> Ball:
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("scale factor must be positive")
    return Ball(ball.center, ball.radius * alpha)


@dataclass(frozen=True)
class DyadicCube:
    """Half-open cube prod_i [m_i * 2**-r, (m_i + 1) * 2**-r)."""

    precision: int
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.precision < 0:
            raise ValueError("cube precision must be >= 0")

    @property
    def dimension(self) -> int:
        return len(self.index)

    def contains(self, q: RationalPoint) -> bool:
        if q.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        r = self.precision
        return all(c.floor_shift(r) == m for c, m in zip(q.coords, self.index))

    def closure_distance_sq(self, p: RationalPoint) -> Fraction:
        """Exact squared distance from p to the cube's closure."""
        r = self.precision
        # integer numerators over 2**e, e the finest exponent in play
        e = max(r, max(c.exp for c in p.coords))
        unit = e - r
        total = 0
        for c, m in zip(p.coords, self.index):
            v = c.num << (e - c.exp)
            lo = m << unit
            if v < lo:
                total += (lo - v) ** 2
            else:
                hi = (m + 1) << unit
                if v > hi:
                    total += (v - hi) ** 2
        return Fraction(total, 1 << (2 * e))


def cube_containing(q: RationalPoint, r: int) -> DyadicCube:
    return DyadicCube(r, tuple(c.floor_shift(r) for c in q.coords))


def cubes_intersecting_ball(ball: Ball, r: int) -> list[DyadicCube]:
    """All precision-r cubes meeting an open ball of radius 2**-r.

    Requires the ball radius to equal the cube side; the result then has at
    most 3**n members, all within one index step of the center's cube.
    """
    if ball.radius != Fraction(1, 1 << r):
        raise ValueError("ball radius must equal the cube side 2**-r")
    base = cube_containing(ball.center, r)
    rad_sq = ball.radius * ball.radius
    hits = []
    for offset in itertools.product((-1, 0, 1), repeat=ball.dimension):
        idx = tuple(m + o for m, o in zip(base.index, offset))
        cube = DyadicCube(r, idx)
        # open ball meets the half-open cube iff it meets the closure
        if cube.closure_distance_sq(ball.center) < rad_sq:
            hits.append(cube)
    return hits


def lattice_point_in_ball(ball: Ball, r: int) -> RationalPoint:
    """A point of the lattice 2**-(r + ceil(log2(sqrt(n)))) Z^n inside the ball.

    Rounds the center to the lattice and scans the 3**n surrounding points.
    The spacing makes the scaled ball radius exceed sqrt(n)/2, so a lattice
    point always lies strictly inside; failure indicates a bug, not bad input.
    """
    if ball.radius != Fraction(1, 1 << r):
        raise ValueError("ball radius must equal 2**-r")
    n = ball.dimension
    s = r + ceil_half_log2(n)
    spacing = Fraction(1, 1 << s)
    # floor(c * 2**s + 1/2), in integers
    rounded = [
        ((c.num << (s + 1)) + (1 << c.exp)) >> (c.exp + 1)
        for c in ball.center.coords
    ]
    rad_sq = ball.radius * ball.radius
    best: tuple[Fraction, tuple[int, ...]] | None = None
    for offset in itertools.product((-1, 0, 1), repeat=n):
        idx = tuple(m + o for m, o in zip(rounded, offset))
        q = RationalPoint(tuple(DyadicRational(m, s) for m in idx))
        d = distance_sq(q, ball.center)
        if d < rad_sq and (best is None or (d, idx) < best):
            best = (d, idx)
    if best is None:
        raise InternalGeometryError(
            f"no lattice point at spacing {spacing} inside {ball}"
        )
    return RationalPoint(tuple(DyadicRational(m, s) for m in best[1]))


def _coord_key(v: int) -> tuple[int, int]:
    return (abs(v), 0 if v >= 0 else 1)


@functools.cache
def _zn_ball(n: int, m: int) -> list[tuple[int, ...]]:
    """The points of Z^n with norm <= m, by (norm, positive-first lex)."""
    ball = [
        p
        for p in itertools.product(range(-m, m + 1), repeat=n)
        if sum(v * v for v in p) <= m * m
    ]
    ball.sort(
        key=lambda p: (sum(v * v for v in p), tuple(_coord_key(v) for v in p))
    )
    return ball


def _zn_covering(count: int, n: int) -> list[tuple[int, ...]]:
    """A ball of Z^n with at least ``count`` points, in enumeration order.

    Every point outside a ball is farther out than every point inside it,
    so any such ball starts with the ``count`` first points of Z^n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m = 1
    while len(_zn_ball(n, m)) < count:
        m *= 2
    return _zn_ball(n, m)


def zn_enumeration(i: int, n: int) -> tuple[int, ...]:
    """The i-th point of Z^n by Euclidean norm, positive-before-negative lex."""
    if i < 0:
        raise ValueError("need i >= 0")
    return _zn_covering(i + 1, n)[i]


def zn_prefix(count: int, n: int) -> list[tuple[int, ...]]:
    if count < 0:
        raise ValueError("need count >= 0")
    return _zn_covering(count, n)[:count]


@dataclass(frozen=True)
class LdsRecord:
    """One block of a layered disjoint system: layer, block index, members."""

    layer: int
    block: int
    members: frozenset[str]


def dyadic_lds(
    r_max: int, t_max: int, cfg: MachineConfig, n: int = 1
) -> list[LdsRecord]:
    """Blocks of encoded n-dim machine outputs, bucketed by precision-r cubes.

    Layer r uses the precision-r cube grid; block t is the cube whose index
    is the t-th point of Z^n in enumeration order.  Blocks within a layer are
    disjoint because the cubes partition space.
    """
    decoded = [
        (s, p) for p, _, s in get_enumeration(cfg).points if p.dimension == n
    ]
    records = []
    for layer in range(r_max + 1):
        for t in range(t_max):
            idx = zn_enumeration(t, n)
            cube = DyadicCube(layer, idx)
            members = frozenset(s for s, p in decoded if cube.contains(p))
            records.append(LdsRecord(layer, t, members))
    return records
