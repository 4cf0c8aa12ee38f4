"""Exact geometry over dyadic rationals: cubes, open balls, lattices.

Membership, covers and lattice points are decided in integer arithmetic;
floats never enter them, and a ``Fraction`` appears only as the exact value
of ``Ball.radius`` and ``DyadicCube.closure_distance_sq``.  The module
builds on ``codec`` alone: a layered disjoint system takes the machine's
enumerated outputs from its caller, so loading geometry never loads the
machine.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .codec import DyadicRational, RationalPoint, ceil_half_log2, distance_sq_parts


class InternalGeometryError(RuntimeError):
    """Raised when a guaranteed-nonempty search comes up empty."""


def _check_precision(shape: str, r) -> None:
    """Refuse a precision that is not a plain int >= 0: a bool, or any other
    subclass of int, is refused too."""
    if type(r) is not int or r < 0:
        raise ValueError(f"{shape} precision must be an int >= 0, not {r!r}")


@dataclass(frozen=True, slots=True)
class Ball:
    """Open Euclidean ball of radius 2**-precision around ``center``.

    ``precision`` is an int >= 0; booleans and other types are refused.
    """

    center: RationalPoint
    precision: int

    def __post_init__(self) -> None:
        _check_precision("ball", self.precision)

    @classmethod
    def at_precision(cls, center: RationalPoint, r: int) -> "Ball":
        """The open ball of radius 2**-r used at precision r."""
        return cls(center, r)

    @property
    def dimension(self) -> int:
        return self.center.dimension

    @property
    def radius(self) -> Fraction:
        """2**-precision, exact."""
        return Fraction(1, 1 << self.precision)

    def contains(self, q: RationalPoint) -> bool:
        # |q - c|**2 = t / 4**e < 4**-precision, decided on integers
        t, e = distance_sq_parts(q, self.center)
        return t << (2 * self.precision) < 1 << (2 * e)


def scale_ball(ball: Ball, alpha: Fraction | int) -> Ball:
    """The ball of radius alpha * ball.radius; alpha is a power of two, given
    as an int or a Fraction, and the result's precision must stay >= 0."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, Fraction)):
        raise ValueError(f"scale factor must be an int or a Fraction, not {alpha!r}")
    a, b = alpha.numerator, alpha.denominator
    if a <= 0 or a & (a - 1) or b & (b - 1):
        raise ValueError(f"scale factor must be a power of two, not {alpha}")
    return Ball(ball.center, ball.precision - a.bit_length() + b.bit_length())


@dataclass(frozen=True, slots=True)
class DyadicCube:
    """Half-open cube prod_i [m_i * 2**-r, (m_i + 1) * 2**-r)."""

    precision: int
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_precision("cube", self.precision)

    @property
    def dimension(self) -> int:
        return len(self.index)

    def contains(self, q: RationalPoint) -> bool:
        if len(q.coords) != len(self.index):
            raise ValueError("dimension mismatch")
        r = self.precision
        for c, m in zip(q.coords, self.index):
            # floor(c * 2**r), as DyadicRational.floor_shift
            s = r - c.exp
            if (c.num << s if s >= 0 else c.num >> -s) != m:
                return False
        return True

    def closure_distance_sq(self, p: RationalPoint) -> Fraction:
        """Exact squared distance from p to the cube's closure."""
        if p.dimension != self.dimension:
            raise ValueError("dimension mismatch")
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
    # floor(c * 2**r) per coordinate, as DyadicRational.floor_shift
    return DyadicCube(r, tuple([
        c.num << (r - c.exp) if r >= c.exp else c.num >> (c.exp - r)
        for c in q.coords
    ]))


def cubes_intersecting_ball(ball: Ball) -> list[tuple[int, ...]]:
    """The indices of all cubes of the ball's precision r that meet the ball.

    The ball's radius 2**-r equals the cube side, so the result has at
    most 3**n index tuples, each within one step of the center's cube index,
    in ``itertools.product`` order of the offsets (-1, 0, 1).  The cube of
    index m is ``DyadicCube(r, m)``.

    The open ball meets a half-open cube iff it meets the cube's closure,
    and that squared distance is a sum of one term per axis.  Each term
    depends only on that axis's offset, so the three terms of each axis are
    computed once, as integers over 2**(2e) with e the finest exponent in
    play: a center coordinate f above its own cube's lower face is f away
    from the cube below, 0 from its own and side - f from the cube above.
    ``product`` walks the index tuples and the term tuples in the same
    order, so each hit is the index tuple whose terms sum below the radius
    bound.
    """
    r = ball.precision
    coords = ball.center.coords
    e = r
    for c in coords:
        if c.exp > e:
            e = c.exp
    unit = e - r
    side = 1 << unit
    axes = []
    terms = []
    for c in coords:
        v = c.num << (e - c.exp)
        base = v >> unit
        f = v - (base << unit)
        axes.append((base - 1, base, base + 1))
        terms.append((f * f, 0, (side - f) ** 2))
    limit = side * side
    hits = [t < limit for t in map(sum, itertools.product(*terms))]
    return list(itertools.compress(itertools.product(*axes), hits))


def lattice_point_in_ball(ball: Ball) -> RationalPoint:
    """A point of the lattice 2**-(r + ceil(log2(sqrt(n)))) Z^n inside the
    ball, r the ball's precision.

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
    r = ball.precision
    coords = ball.center.coords
    s = r + ceil_half_log2(len(coords))
    # integer numerators over 2**e, e the finest exponent in play
    e = s
    for c in coords:
        if c.exp > e:
            e = c.exp
    k = e - s
    total = 0
    idx = []
    for c in coords:
        v = c.num << (e - c.exp)
        # ceil(c * 2**s - 1/2): floor(c * 2**s + 1/2), one lower at a midpoint
        m = ((v << 1) + (1 << k) - 1) >> (k + 1)
        total += ((m << k) - v) ** 2
        idx.append(m)
    if total >= 1 << (2 * (e - r)):
        raise InternalGeometryError(
            f"no lattice point at spacing 2**-{s} inside {ball}"
        )
    return RationalPoint(tuple([DyadicRational(m, s) for m in idx]))


def zn_enumeration(i: int, n: int) -> tuple[int, ...]:
    """The i-th point of Z^n by Euclidean norm, positive-before-negative lex."""
    if i < 0:
        raise ValueError("need i >= 0")
    return zn_prefix(i + 1, n)[i]


def zn_prefix(count: int, n: int) -> list[tuple[int, ...]]:
    """The ``count`` first points of Z^n, in enumeration order.

    The order grows by whole bands of squared norm [b, 4b), so each band is
    sorted once.  Its box is scanned in ``product`` order of the values
    0, 1, -1, 2, -2, ..., which is the positive-first lex order, so a
    stable sort by squared norm alone gives the enumeration order.
    """
    if count < 0:
        raise ValueError("need count >= 0")
    if n < 1:
        raise ValueError("need n >= 1")
    points = []
    bound = 0
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
        points += [p for _, p in band]
    return points[:count]


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
    order = zn_prefix(t_max, n)
    for layer in range(r_max + 1):
        for t, idx in enumerate(order):
            cube = DyadicCube(layer, idx)
            members = frozenset(s for s, p in decoded if cube.contains(p))
            records.append(LdsRecord(layer, t, members))
    return records
