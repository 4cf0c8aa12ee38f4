"""Exact geometry over dyadic rationals: cubes, open balls, lattices.

Everything here is integer or Fraction arithmetic; floats never enter
membership or intersection decisions.  The module builds on ``codec`` alone:
a layered disjoint system takes the machine's enumerated outputs from its
caller, so loading geometry never loads the machine.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .codec import DyadicRational, RationalPoint, ceil_half_log2, distance_sq_parts


class InternalGeometryError(RuntimeError):
    """Raised when a guaranteed-nonempty search comes up empty."""


def _exact(what: str, value: Fraction | int) -> Fraction:
    """An int or Fraction as a Fraction; floats and booleans are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int or a Fraction, not {value!r}")
    return Fraction(value)


@functools.cache
def _side(r: int) -> Fraction:
    """2**-r, the cube side and ball radius at precision r, built once per r."""
    return Fraction(1, 1 << r) if r >= 0 else Fraction(1 << -r)


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball with an exact rational radius.

    The radius may be given as an int or a Fraction and is stored as a
    Fraction; floats and booleans are refused.
    """

    center: RationalPoint
    radius: Fraction

    def __post_init__(self) -> None:
        radius = _exact("radius", self.radius)
        if radius is not self.radius:
            object.__setattr__(self, "radius", radius)
        if radius.numerator <= 0:
            raise ValueError("radius must be positive")

    @classmethod
    def at_precision(cls, center: RationalPoint, r: int) -> "Ball":
        """The open ball of radius 2**-r used at precision r."""
        return cls(center, _side(r))

    @property
    def dimension(self) -> int:
        return self.center.dimension

    def contains(self, q: RationalPoint) -> bool:
        # |q - c|**2 = t / 4**e < (a / b)**2, decided on integers
        t, e = distance_sq_parts(q, self.center)
        a, b = self.radius.numerator, self.radius.denominator
        return t * b * b < (a * a) << (2 * e)


def scale_ball(ball: Ball, alpha: Fraction | int) -> Ball:
    alpha = _exact("scale factor", alpha)
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
        for c, m in zip(q.coords, self.index):
            if c.floor_shift(r) != m:
                return False
        return True

    def closure_distance_sq(self, p: RationalPoint) -> Fraction:
        """Exact squared distance from p to the cube's closure."""
        r = self.precision
        # integer numerators over 2**e, e the finest exponent in play
        e = max(r, max(c.exp for c in p.coords))
        unit = e - r
        total = sum(
            _gap_sq(c.num << (e - c.exp), m << unit, (m + 1) << unit)
            for c, m in zip(p.coords, self.index)
        )
        return Fraction(total, 1 << (2 * e))


def _gap_sq(v: int, lo: int, hi: int) -> int:
    """Squared distance from v to the closed interval [lo, hi]."""
    if v < lo:
        return (lo - v) ** 2
    if v > hi:
        return (v - hi) ** 2
    return 0


def cube_containing(q: RationalPoint, r: int) -> DyadicCube:
    return DyadicCube(r, tuple(c.floor_shift(r) for c in q.coords))


def _check_precision(ball: Ball, r: int) -> None:
    """Refuse a negative r and a ball whose radius is not 2**-r."""
    if r < 0:
        raise ValueError(f"precision must be >= 0, got r = {r}")
    side = _side(r)
    if ball.radius is not side and ball.radius != side:
        raise ValueError(f"ball radius {ball.radius} is not 2**-{r}")


def cubes_intersecting_ball(ball: Ball, r: int) -> list[tuple[int, ...]]:
    """The indices of all precision-r cubes meeting an open ball of radius 2**-r.

    Requires the ball radius to equal the cube side; the result then has at
    most 3**n index tuples, each within one step of the center's cube index,
    in ``itertools.product`` order of the offsets (-1, 0, 1).  The cube of
    index m is ``DyadicCube(r, m)``.

    The open ball meets a half-open cube iff it meets the cube's closure,
    and that squared distance is a sum of one term per axis.  Each term
    depends only on that axis's offset, so the three terms of each axis are
    computed once, as integers over 2**(2e) with e the finest exponent in
    play: a center coordinate f above its own cube's lower face is f away
    from the cube below, 0 from its own and side - f from the cube above.
    The hits are built one axis at a time.  A partial sum that reaches the
    radius bound is dropped: the terms are non-negative, so it can never
    come back under it.
    """
    _check_precision(ball, r)
    e = max(r, max(c.exp for c in ball.center.coords))
    unit = e - r
    side = 1 << unit
    limit = side * side
    partial: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for c in ball.center.coords:
        v = c.num << (e - c.exp)
        base = v >> unit
        f = v - (base << unit)
        terms = ((base - 1, f * f), (base, 0), (base + 1, (side - f) ** 2))
        partial = [
            (idx + (m,), total + term)
            for idx, total in partial
            for m, term in terms
            if total + term < limit
        ]
    return [idx for idx, _ in partial]


def lattice_point_in_ball(ball: Ball, r: int) -> RationalPoint:
    """A point of the lattice 2**-(r + ceil(log2(sqrt(n)))) Z^n inside the ball.

    Rounds the center to the lattice and returns, among the 3**n points
    within one step of it, the one nearest the center that comes first in
    lex order of its indices.  The squared distance is a sum of one term
    per axis that depends only on that axis's index, so the minimum is
    taken axis by axis: each axis keeps its nearest index, the lower one on
    a tie, which is the lex-first point of least distance.  Only a center
    coordinate exactly halfway between two lattice values ties, so each
    axis rounds half down.  The spacing makes the scaled ball radius exceed
    sqrt(n)/2, so a lattice point always lies strictly inside; failure
    indicates a bug, not bad input.
    """
    _check_precision(ball, r)
    n = ball.dimension
    s = r + ceil_half_log2(n)
    # integer numerators over 2**e, e the finest exponent in play
    e = max(s, max(c.exp for c in ball.center.coords))
    k = e - s
    total = 0
    idx = []
    for c in ball.center.coords:
        v = c.num << (e - c.exp)
        # ceil(c * 2**s - 1/2): floor(c * 2**s + 1/2), one lower at a midpoint
        m = ((v << 1) + (1 << k) - 1) >> (k + 1)
        total += ((m << k) - v) ** 2
        idx.append(m)
    if total >= 1 << (2 * (e - r)):
        raise InternalGeometryError(
            f"no lattice point at spacing {Fraction(1, 1 << s)} inside {ball}"
        )
    return RationalPoint(tuple(DyadicRational(m, s) for m in idx))


# n -> (the points of Z^n with squared norm below the bound, in enumeration
# order; the bound)
_ZN_ORDER: dict[int, tuple[list[tuple[int, ...]], int]] = {}


def _zn_points(count: int, n: int) -> list[tuple[int, ...]]:
    """At least the ``count`` first points of Z^n, in enumeration order.

    The list grows by whole bands of squared norm [b, 4b), so each band is
    sorted once.  Its box is scanned in ``product`` order of the values
    0, 1, -1, 2, -2, ..., which is the positive-first lex order, so a
    stable sort by squared norm alone gives the enumeration order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    points, bound = _ZN_ORDER.get(n, ([], 0))
    while len(points) < count:
        low, bound = bound, max(1, 4 * bound)
        m = math.isqrt(bound - 1)
        values = [0] + [v for k in range(1, m + 1) for v in (k, -k)]
        band = [
            (s, p)
            for p in itertools.product(values, repeat=n)
            if low <= (s := sum(v * v for v in p)) < bound
        ]
        band.sort(key=operator.itemgetter(0))
        points.extend(p for _, p in band)
    _ZN_ORDER[n] = (points, bound)
    return points


def zn_enumeration(i: int, n: int) -> tuple[int, ...]:
    """The i-th point of Z^n by Euclidean norm, positive-before-negative lex."""
    if i < 0:
        raise ValueError("need i >= 0")
    return _zn_points(i + 1, n)[i]


def zn_prefix(count: int, n: int) -> list[tuple[int, ...]]:
    if count < 0:
        raise ValueError("need count >= 0")
    return _zn_points(count, n)[:count]


@dataclass(frozen=True)
class LdsRecord:
    """One block of a layered disjoint system: layer, block index, members."""

    layer: int
    block: int
    members: frozenset[str]


def dyadic_lds(
    r_max: int,
    t_max: int,
    points: Iterable[tuple[RationalPoint, int, str]],
    n: int = 1,
) -> list[LdsRecord]:
    """Blocks of encoded n-dim points, bucketed by precision-r cubes.

    ``points`` holds (point, K, encoding) triples, such as a machine's
    enumerated outputs; the triples of dimension n are bucketed and the
    rest are ignored.  Layer r uses the precision-r cube grid; block t is
    the cube whose index is the t-th point of Z^n in enumeration order, and
    its members are the encodings of the points inside it.  Blocks within a
    layer are disjoint because the cubes partition space.
    """
    decoded = [(s, p) for p, _, s in points if p.dimension == n]
    records = []
    for layer in range(r_max + 1):
        for t in range(t_max):
            idx = zn_enumeration(t, n)
            cube = DyadicCube(layer, idx)
            members = frozenset(s for s, p in decoded if cube.contains(p))
            records.append(LdsRecord(layer, t, members))
    return records
