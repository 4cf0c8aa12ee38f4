"""Precision-indexed complexity on the exact machine and the compressor.

Each function names the one way it counts "how many bits it takes to name
this object":

* the exact machine (functions taking a ``MachineConfig``): exhaustive
  shortest-program search over the bounded reference machine's
  enumeration.  Exact and machine-relative, but only objects the
  enumeration reaches exist, so it answers pointwise K_r (``exact_k_r``),
  minimizer sets and the bound checkers, not slope estimates.
* the compressor (``k_r``): the emitted code length of the built-in
  dictionary compressor over a fixed-width binary representation of the
  point.  Deterministic and cheap at long inputs; this is what the
  dimension estimators run on.  Each oracle's representation and its parse
  are memoized by precision (``k_r_entry``), so the pair coder reads them
  instead of querying and formatting the point again.

The complexity of a region (ball or cube) is the complexity of its cheapest
member, and the precision-r complexity of an ideal point is the complexity
of the open radius-2**-r ball around it.  ``ball_points`` holds the one rule
for that ball on the exact machine: a surrogate centered at a deep
approximant of the point.

Each function of the exact half imports what it runs of ``machine`` and
``geometry`` in its body, so the estimators, which import this module,
load neither.  A count bound check fetches the enumerated points once and
scans each of its regions in that list, so the imports run once per check,
not once per region.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .codec import RationalPoint, encode_int, encode_point
from .compressor import Lz78Parser
from .constants import (
    BALL_COUNT_CONSTANT,
    CUBE_COUNT_CONSTANT,
    GUARD_BITS,
    LDS_CODING_CONSTANT,
    PRECISION_IMPROVEMENT_CONSTANT,
)
from .oracles import PointOracle

if TYPE_CHECKING:
    from .geometry import Ball, DyadicCube, LdsRecord
    from .machine import MachineConfig

# depth margin when a ball center must stand in for an ideal point; the
# surrogate ball misclassifies only a boundary band of width 2**(1-r-margin)
BALL_CENTER_DEPTH_MARGIN = 16


@dataclass(frozen=True)
class MinimizerSet:
    """Points of a region within d bits of the region's complexity."""

    members: tuple[RationalPoint, ...]
    k_floor: int


@dataclass(frozen=True)
class BoundReport:
    """One measured inequality, lhs <= rhs, and the constant it measured."""

    name: str
    lhs: float
    rhs: float
    measured_constant: float


# ---- fixed-width point representation (compressor) -----------------------


def point_columns(p: RationalPoint, r: int) -> list[str]:
    """Per-coordinate binary columns of p at precision r.

    Each column is the two's-complement image of floor(coord * 2**r) in
    GUARD_BITS + r bits, most significant first; coordinates in [0, 1)
    yield GUARD_BITS zeros followed by the first r expansion bits.
    """
    if r < 0:
        raise ValueError("precision must be nonnegative")
    width = GUARD_BITS + r
    half = 1 << (width - 1)
    cols = []
    for c in p.coords:
        m = c.floor_shift(r)
        if not -half <= m < half:
            raise ValueError(
                f"coordinate with integer part {m >> r} outside the guard "
                f"range [-{1 << (GUARD_BITS - 1)}, {1 << (GUARD_BITS - 1)})"
            )
        cols.append(format(m & ((1 << width) - 1), f"0{width}b"))
    return cols


def point_representation(p: RationalPoint, r: int) -> str:
    return "".join(point_columns(p, r))


# ---- enumerated output universe ------------------------------------------


def enumerated_points(cfg: MachineConfig) -> list[tuple[RationalPoint, int, str]]:
    """All (point, K, encoding) triples the enumeration reaches, K-sorted."""
    from .machine import get_enumeration

    return get_enumeration(cfg).points


# ---- set and ball complexities --------------------------------------------


def k_of_set(points: Iterable[RationalPoint], cfg: MachineConfig) -> int | None:
    """Minimum exact K over the members' encodings; None if unreachable."""
    from .machine import exact_k

    values = (exact_k(encode_point(q), "", cfg) for q in points)
    return min((rep.value for rep in values if rep is not None), default=None)


def _points_in_region(
    region: Ball | DyadicCube, points: list[tuple[RationalPoint, int, str]]
) -> list[tuple[RationalPoint, int, str]]:
    return [
        (q, k, enc)
        for q, k, enc in points
        if q.dimension == region.dimension and region.contains(q)
    ]


def ball_points(
    x: PointOracle, r: int, cfg: MachineConfig
) -> list[tuple[RationalPoint, int, str]]:
    """Enumerated (point, K, encoding) triples within 2**-r of x, K-sorted.

    The open ball is centered at the approximant x.query(r + margin), which
    stands in for the ideal point.
    """
    from .geometry import Ball

    center = x.query(r + BALL_CENTER_DEPTH_MARGIN)
    return _points_in_region(Ball.at_precision(center, r), enumerated_points(cfg))


# ---- compressor K_r memo ----------------------------------------------------
# Estimators sweep the same oracles over many precisions, and the pair coder
# reads both arguments' representations and goes on from their parses, so
# each oracle's representations are kept in a dict by precision as entries
# (length, integer value, frozen parse); ``Lz78Parser.freeze`` freezes the
# parse.  Most oracles hash by identity, so the memo holds them weakly: an
# oracle's entries are freed with the oracle instead of pinning it for the
# life of the process.
#
# LZ78 parses online, so when a representation extends the one at the
# nearest lower precision held, a copy of that parse fed the tail costs the
# same as a parse of the whole string; the held integer value tests that
# exactly without querying the oracle again.  An oracle's dimension is
# fixed, so the lower representation is the shorter.  Threads share an
# oracle's dict without a lock: entries only gain keys, each is stored
# whole in one assignment, and two threads that miss one precision store
# equal entries.  The keys are copied before a scan, since another thread
# may store one meanwhile.  A one-coordinate point's columns nest across
# precisions; the columns of a point of several coordinates seldom do,
# since its first column grows into where the second one started.

_PARSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def k_r_entry(x: PointOracle, r: int) -> tuple[int, int, Lz78Parser]:
    """``point_representation`` at precision r as (length, integer value,
    frozen LZ78 parse).

    Memoized per oracle and precision; fork the parse with ``copy`` to go on.
    """
    entries = _PARSES.setdefault(x, {})
    entry = entries.get(r)
    if entry is not None:
        return entry
    text = point_representation(x.query(r), r)
    n, value = len(text), int(text, 2)
    below = max((p for p in list(entries) if p < r), default=None)
    m, low, parser = entries[below] if below is not None else (0, 0, None)
    if parser is not None and value >> (n - m) == low:
        parser = parser.copy().feed(text[m:])
    else:
        parser = Lz78Parser().feed(text)
    entry = entries[r] = (n, value, parser.freeze())
    return entry


def k_r(x: PointOracle, r: int) -> int:
    """Compressor K_r: code length of ``point_representation`` at precision r."""
    return k_r_entry(x, r)[2].cost


def exact_k_r(x: PointOracle, r: int, cfg: MachineConfig) -> int | None:
    """Bits to name some rational within 2**-r of the oracle's point.

    The minimum K over the enumerated outputs in ``ball_points``; None if
    there are none.
    """
    return min((k for _, k, _ in ball_points(x, r, cfg)), default=None)


def _minimizers(
    region: Ball | DyadicCube, d: int, points: list[tuple[RationalPoint, int, str]]
) -> MinimizerSet | None:
    if d < 0:
        raise ValueError("slack must be nonnegative")
    inside = _points_in_region(region, points)
    if not inside:
        return None
    k_floor = min(k for _, k, _ in inside)
    members = tuple(q for q, k, _ in inside if k <= k_floor + d)
    return MinimizerSet(members, k_floor)


def minimizers(
    region: Ball | DyadicCube, d: int, cfg: MachineConfig
) -> MinimizerSet | None:
    """All enumerated points of the region within d bits of its K floor."""
    return _minimizers(region, d, enumerated_points(cfg))


# ---- measured-constant checks of the counting and coding bounds -----------


def k_of_precision(r: int, cfg: MachineConfig) -> int:
    """K of the precision parameter itself, as an encoded integer."""
    from .machine import exact_k

    rep = exact_k(encode_int(r), "", cfg)
    if rep is None:
        raise ValueError(f"precision {r} is not reachable on this machine")
    return rep.value


def _count_bound(
    kind: str, r: int, d: int, cfg: MachineConfig,
    points: list[tuple[RationalPoint, int, str]],
    regions: Iterable[Ball | DyadicCube], factor: int,
    constant: float,
) -> BoundReport:
    """The worst log2(count of d-approximate minimizers among ``points``)
    over ``regions``, against d + factor * K(r) + ``constant``; the measured
    constant is the least one that works."""
    kr = factor * k_of_precision(r, cfg)
    worst = max((math.log2(len(_minimizers(region, d, points).members))
                 for region in regions), default=float("-inf"))
    return BoundReport(f"{kind}_count[r={r},d={d}]", worst, d + kr + constant,
                       worst - d - kr)


def check_cube_count_bound(r: int, d: int, cfg: MachineConfig) -> BoundReport:
    """Worst cube at layer r: log2(count of d-approximate minimizers).

    The count in any precision-r cube must stay within 2**(d + K(r) + c);
    the report carries the minimal c that works.
    """
    from .geometry import cube_containing

    points = enumerated_points(cfg)
    cubes = {cube_containing(q, r) for q, _, _ in points}
    return _count_bound("cube", r, d, cfg, points, cubes, 1, CUBE_COUNT_CONSTANT)


def check_ball_count_bound(r: int, d: int, cfg: MachineConfig) -> BoundReport:
    """Worst open 2**-r ball centered at an enumerated point.

    Ball version of the cube bound, with 2 K(r) in the exponent; centers
    are sampled at every enumerated point, the adversarial choice available
    at desk scale.
    """
    from .geometry import Ball

    points = enumerated_points(cfg)
    balls = (Ball.at_precision(q, r) for q, _, _ in points)
    return _count_bound("ball", r, d, cfg, points, balls, 2, BALL_COUNT_CONSTANT)


def check_lds_coding_bound(
    lds: Sequence[LdsRecord], cfg: MachineConfig
) -> list[BoundReport]:
    """Per-block check K(block) <= log2(1/mass(block)) + K(layer) + c.

    Mass is the truncated a-priori mass over the bounded enumeration, an
    under-approximation, so each measured constant upper-bounds the true
    one.  Zero-mass blocks are skipped: their right-hand side is infinite.
    """
    from .machine import apriori_mass, get_enumeration

    enum = get_enumeration(cfg)
    reports = []
    for rec in lds:
        if not rec.members:
            continue
        mass = apriori_mass(set(rec.members), cfg)
        if mass == 0:
            continue
        k_block = min(enum.outputs[s].k for s in rec.members)
        kr = k_of_precision(rec.layer, cfg)
        log_inv_mass = math.log2(mass.denominator) - math.log2(mass.numerator)
        measured = k_block - log_inv_mass - kr
        rhs = log_inv_mass + kr + LDS_CODING_CONSTANT
        reports.append(BoundReport(
            f"lds_coding[layer={rec.layer},block={rec.block}]",
            k_block, rhs, measured,
        ))
    return reports


def check_precision_improvement(
    x: PointOracle, r: int, s: int, cfg: MachineConfig
) -> BoundReport | None:
    """Check K_{r+s}(x) <= K_r(x) + n*s + b against the pinned b.

    Refining a point by s extra precision bits costs at most s bits per
    coordinate plus a constant.  None when either complexity is out of the
    enumeration's reach.
    """
    if s < 0:
        raise ValueError("extra precision must be nonnegative")
    base = exact_k_r(x, r, cfg)
    refined = exact_k_r(x, r + s, cfg)
    if base is None or refined is None:
        return None
    n = x.dimension
    measured = refined - base - n * s
    rhs = base + n * s + PRECISION_IMPROVEMENT_CONSTANT
    return BoundReport(f"precision_improvement[r={r},s={s}]", refined, rhs,
                       measured)
