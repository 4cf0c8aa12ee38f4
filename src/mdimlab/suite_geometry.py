"""The geometry suite: lattice points, cube covers and the cube partition.

It runs only ``codec`` and ``geometry``, so a geometry run loads no
machine, estimator or function layer.

The draws fix every seeded ball.  ``_randrange`` takes them as CPython's
``random.Random.randrange(a, b)`` does, k = (b - a).bit_length() bits from
``getrandbits`` until the value is below b - a, so it draws the same values
at less cost per call.  The hit check ``_inside`` reads the exact
``Fraction`` of ``codec.distance_sq``, apart from ``Ball.contains``, and
compares its numerator and denominator with the radius 2**-r in integers
instead of building the radius squared.
"""

from __future__ import annotations

import math
import random

from .codec import DyadicRational, RationalPoint, distance_sq
from .geometry import (
    Ball,
    DyadicCube,
    cube_containing,
    cubes_intersecting_ball,
    lattice_point_in_ball,
)
from .report import SuiteReport, at_most, check_row, finish


def _randrange(rng: random.Random, a: int, b: int) -> int:
    """``rng.randrange(a, b)``: the same draws, by the same rejection loop."""
    n = b - a
    k = n.bit_length()
    v = rng.getrandbits(k)
    while v >= n:
        v = rng.getrandbits(k)
    return a + v


def _random_point(rng: random.Random, n: int, depth: int) -> RationalPoint:
    """n coordinates m / 2**depth, each m drawn from [-2**(depth+1), 2**(depth+1))."""
    span = 2 << depth
    return RationalPoint(tuple([
        DyadicRational(_randrange(rng, -span, span), depth) for _ in range(n)
    ]))


def _random_ball(rng: random.Random, n: int) -> Ball:
    r = _randrange(rng, 0, 13)
    return Ball(_random_point(rng, n, r + 2), r)


def _inside(point: RationalPoint, ball: Ball) -> bool:
    """|point - center|**2 < 2**-2r, on the exact ``distance_sq``: its
    numerator times 4**r against its denominator."""
    d = distance_sq(point, ball.center)
    return d.numerator << 2 * ball.precision < d.denominator


def _geometry_axis_task(seed: int, n: int) -> tuple[list[dict], int]:
    """The axis-n rows and the largest cube cover seen."""
    rng = random.Random(f"{seed}:axis={n}")
    trials = 2500
    hits = 0
    worst_cover = 0
    for _ in range(trials):
        ball = _random_ball(rng, n)
        if _inside(lattice_point_in_ball(ball), ball):
            hits += 1
        worst_cover = max(worst_cover, len(cubes_intersecting_ball(ball)))
    r = 4
    center = RationalPoint(tuple(DyadicRational(1, r + 1) for _ in range(n)))
    witness = len(cubes_intersecting_ball(Ball.at_precision(center, r)))
    # open balls cannot reach the diagonal corner cubes once n*(1/2)^2 >= 1,
    # so the sharp maximum drops below 3^n starting at n = 4
    sharp = sum(math.comb(n, k) * 2**k for k in range(min(n, 3) + 1))
    rows = [
        check_row("lattice_point_in_ball", f"n={n} trials={trials}",
                  hits, trials, hits == trials),
        at_most("cube_cover", f"n={n} max observed", worst_cover, 3**n),
        check_row("cube_cover_tight", f"n={n} witness", witness, sharp,
                  witness == sharp),
    ]
    return rows, worst_cover


def _geometry_partition_task(seed: int) -> list[dict]:
    rng = random.Random(f"{seed}:partition")
    fails = 0
    for _ in range(10000):
        n = _randrange(rng, 1, 4)
        r = _randrange(rng, 0, 13)
        q = _random_point(rng, n, r + 3)
        cube = cube_containing(q, r)
        if not cube.contains(q):
            fails += 1
            continue
        shifted = DyadicCube(cube.precision, tuple([i + 1 for i in cube.index]))
        if shifted.contains(q):
            fails += 1
    return [
        at_most("partition", "unique containing cube, 10^4 points", fails, 0)
    ]


def _geometry_suite(cfg) -> SuiteReport:
    rows = []
    constants = {}
    for n in (1, 2, 3, 4):
        axis_rows, constants[f"cover_max_n{n}"] = _geometry_axis_task(cfg.seed, n)
        rows += axis_rows
    rows += _geometry_partition_task(cfg.seed)
    return finish("geometry", rows, constants)


RUNNERS = {"geometry": _geometry_suite}
