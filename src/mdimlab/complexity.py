"""Precision-indexed complexity over pluggable estimation backends.

Two backends answer "how many bits does it take to name this object":

* ``exact_machine``: exhaustive shortest-program search over the bounded
  reference machine's enumeration.  Exact and machine-relative, but only
  objects the enumeration reaches exist.
* ``compressor``: the emitted code length of the built-in dictionary
  compressor over a fixed-width binary representation of the object.
  Deterministic and cheap at long inputs; this is what the dimension
  estimators run on.

The complexity of a region (ball or cube) is the complexity of its cheapest
member, and the precision-r complexity of an ideal point is the complexity
of the open radius-2**-r ball around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .codec import RationalPoint, encode_int, encode_point
from .compressor import lz78_cost
from .constants import GUARD_BITS
from .geometry import Ball, DyadicCube, LdsRecord, cube_containing
from .machine import MachineConfig, apriori_mass, exact_k, get_enumeration
from .oracles import PointOracle

# depth margin when a ball center must stand in for an ideal point; the
# surrogate ball misclassifies only a boundary band of width 2**(1-r-margin)
BALL_CENTER_DEPTH_MARGIN = 16


@dataclass(frozen=True)
class KBackend:
    """How K values are produced: exact enumeration or compression."""

    kind: str
    config: MachineConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact_machine", "compressor"):
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        if self.kind == "exact_machine" and self.config is None:
            raise ValueError("exact_machine backend needs a machine config")


def exact_machine(cfg: MachineConfig) -> KBackend:
    return KBackend("exact_machine", cfg)


def compressor_backend() -> KBackend:
    return KBackend("compressor")


@dataclass(frozen=True)
class MinimizerSet:
    """Points of a region within d bits of the region's complexity."""

    region: Ball | DyadicCube
    d: int
    members: tuple[RationalPoint, ...]
    k_floor: int


@dataclass(frozen=True)
class BoundReport:
    """One measured inequality: holds exactly when lhs <= rhs."""

    name: str
    lhs: float
    rhs: float
    measured_constant: float
    holds: bool


def _report(name: str, lhs: float, rhs: float, measured: float) -> BoundReport:
    return BoundReport(name, lhs, rhs, measured, lhs <= rhs)


# ---- fixed-width point representation (compressor backend) ---------------


def point_columns(
    p: RationalPoint, r: int, guard: int = GUARD_BITS
) -> list[str]:
    """Per-coordinate binary columns of p at precision r.

    Each column is the two's-complement image of floor(coord * 2**r) in
    guard + r bits, most significant first; coordinates in [0, 1) yield
    guard zeros followed by the first r expansion bits.
    """
    if r < 0:
        raise ValueError("precision must be nonnegative")
    width = guard + r
    half = 1 << (width - 1)
    cols = []
    for c in p.coords:
        m = c.floor_shift(r)
        if not -half <= m < half:
            raise ValueError(
                f"coordinate {c.to_fraction()} outside the guard range "
                f"[-{1 << (guard - 1)}, {1 << (guard - 1)})"
            )
        cols.append(format(m & ((1 << width) - 1), f"0{width}b"))
    return cols


def point_representation(p: RationalPoint, r: int) -> str:
    return "".join(point_columns(p, r))


# ---- enumerated output universe ------------------------------------------


def enumerated_points(cfg: MachineConfig) -> list[tuple[RationalPoint, int, str]]:
    """All (point, K, encoding) triples the enumeration reaches, K-sorted."""
    return get_enumeration(cfg).points


# ---- set and ball complexities --------------------------------------------


def k_of_set(points: Iterable[RationalPoint], backend: KBackend) -> int | None:
    """Minimum backend-K over the members' encodings; None if unreachable."""
    best: int | None = None
    for q in points:
        enc = encode_point(q)
        if backend.kind == "compressor":
            value: int | None = lz78_cost(enc)
        else:
            rep = exact_k(enc, "", backend.config)
            value = None if rep is None else rep.value
        if value is not None and (best is None or value < best):
            best = value
    return best


def _points_in_region(
    region: Ball | DyadicCube, cfg: MachineConfig
) -> list[tuple[RationalPoint, int, str]]:
    return [
        (q, k, enc)
        for q, k, enc in enumerated_points(cfg)
        if q.dimension == region.dimension and region.contains(q)
    ]


def k_r(x: PointOracle, r: int, backend: KBackend) -> int | None:
    """Bits to name some rational within 2**-r of the oracle's point.

    Exact backend: minimum K over enumerated outputs decoding into the open
    ball around a deep approximant of the point.  Compressor backend: code
    length of the truncated fixed-width representation at precision r.
    """
    if backend.kind == "compressor":
        return lz78_cost(point_representation(x.query(r), r))
    center = x.query(r + BALL_CENTER_DEPTH_MARGIN)
    ball = Ball.at_precision(center, r)
    inside = _points_in_region(ball, backend.config)
    if not inside:
        return None
    return min(k for _, k, _ in inside)


def minimizers(
    region: Ball | DyadicCube, d: int, backend: KBackend
) -> MinimizerSet | None:
    """All enumerated points of the region within d bits of its K floor."""
    if backend.kind != "exact_machine":
        raise ValueError("minimizer search needs the exact backend")
    if d < 0:
        raise ValueError("slack must be nonnegative")
    inside = _points_in_region(region, backend.config)
    if not inside:
        return None
    k_floor = min(k for _, k, _ in inside)
    members = tuple(q for q, k, _ in inside if k <= k_floor + d)
    return MinimizerSet(region, d, members, k_floor)


# ---- measured-constant checks of the counting and coding bounds -----------


def k_of_precision(r: int, cfg: MachineConfig) -> int:
    """K of the precision parameter itself, as an encoded integer."""
    rep = exact_k(encode_int(r), "", cfg)
    if rep is None:
        raise ValueError(f"precision {r} is not reachable on this machine")
    return rep.value


def check_cube_count_bound(r: int, d: int, cfg: MachineConfig) -> BoundReport:
    """Worst cube at layer r: log2(count of d-approximate minimizers).

    The count in any precision-r cube must stay within 2**(d + K(r) + c);
    the report carries the minimal c that works, and holds against the
    pinned per-version constant.
    """
    from .constants import CUBE_COUNT_CONSTANT

    kr = k_of_precision(r, cfg)
    by_cube: dict[tuple, list[int]] = {}
    for q, k, _ in enumerated_points(cfg):
        cube = cube_containing(q, r)
        by_cube.setdefault((cube.precision, cube.index), []).append(k)
    worst = float("-inf")
    for ks in by_cube.values():
        floor = min(ks)
        count = sum(1 for k in ks if k <= floor + d)
        worst = max(worst, math.log2(count))
    measured = worst - d - kr
    rhs = d + kr + CUBE_COUNT_CONSTANT[cfg.version_tag]
    return _report(f"cube_count[r={r},d={d}]", worst, rhs, measured)


def check_ball_count_bound(r: int, d: int, cfg: MachineConfig) -> BoundReport:
    """Worst open 2**-r ball centered at an enumerated point.

    Ball version of the cube bound, with 2 K(r) in the exponent; centers
    are sampled at every enumerated point, the adversarial choice available
    at desk scale.
    """
    from .constants import BALL_COUNT_CONSTANT

    kr = k_of_precision(r, cfg)
    pts = enumerated_points(cfg)
    worst = float("-inf")
    for center, _, _ in pts:
        ball = Ball.at_precision(center, r)
        ks = [
            k
            for q, k, _ in pts
            if q.dimension == center.dimension and ball.contains(q)
        ]
        floor = min(ks)
        count = sum(1 for k in ks if k <= floor + d)
        worst = max(worst, math.log2(count))
    measured = worst - d - 2 * kr
    rhs = d + 2 * kr + BALL_COUNT_CONSTANT[cfg.version_tag]
    return _report(f"ball_count[r={r},d={d}]", worst, rhs, measured)


def check_lds_coding_bound(
    lds: Sequence[LdsRecord], cfg: MachineConfig
) -> list[BoundReport]:
    """Per-block check K(block) <= log2(1/mass(block)) + K(layer) + c.

    Mass is the truncated a-priori mass over the bounded enumeration, an
    under-approximation, so each measured constant upper-bounds the true
    one.  Zero-mass blocks are skipped: their right-hand side is infinite.
    """
    from .constants import LDS_CODING_CONSTANT

    enum = get_enumeration(cfg)
    enum.ensure_complete()
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
        rhs = log_inv_mass + kr + LDS_CODING_CONSTANT[cfg.version_tag]
        reports.append(
            _report(
                f"lds_coding[layer={rec.layer},block={rec.block}]",
                k_block,
                rhs,
                measured,
            )
        )
    return reports


def check_precision_improvement(
    x: PointOracle, r: int, s: int, cfg: MachineConfig
) -> BoundReport | None:
    """Check K_{r+s}(x) <= K_r(x) + n*s + b against the pinned b.

    Refining a point by s extra precision bits costs at most s bits per
    coordinate plus a constant.  None when either complexity is out of the
    enumeration's reach.
    """
    from .constants import PRECISION_IMPROVEMENT_CONSTANT

    if s < 0:
        raise ValueError("extra precision must be nonnegative")
    backend = exact_machine(cfg)
    base = k_r(x, r, backend)
    refined = k_r(x, r + s, backend)
    if base is None or refined is None:
        return None
    n = x.dimension
    measured = refined - base - n * s
    rhs = base + n * s + PRECISION_IMPROVEMENT_CONSTANT[cfg.version_tag]
    return _report(f"precision_improvement[r={r},s={s}]", refined, rhs, measured)
