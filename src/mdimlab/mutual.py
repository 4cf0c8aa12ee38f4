"""Mutual information of strings and of points, and dimension estimators.

For binary strings, I(p:q) = K(q) - K(q|p).  For ideal points the engine
works at precision r over rational approximants: the exact backend
minimizes string mutual information over enumerated candidates in the two
radius-2**-r balls, while the compressor backend evaluates the three-term
identity K_r(x) + K_r(y) - K_r(x,y) on fixed-width truncated
representatives.

Dimension and mutual-dimension estimates are least-squares slopes of the
complexity profiles.  On the compressor backend the profile values are
first rescaled by the measured cost-per-bit of a pinned reference stream
at matching representation length; that cancels the coder's sublinear
dictionary overhead, so one incompressible expansion bit per precision bit
reads as slope 1.0.  Reported k and i values stay in raw emitted bits.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Sequence

from .compressor import conditional_cost, lz78_cost
from .complexity import (
    BALL_CENTER_DEPTH_MARGIN,
    KBackend,
    compressor_backend,
    k_r,
    minimizers,
    point_columns,
)
from .constants import (
    COMPRESSOR_GRID,
    EXACT_GRID,
    GUARD_BITS,
    JOINT_FLAG_BITS,
    REFERENCE_SEED,
    WINDOW_DIM,
    WINDOW_EXACT,
    WINDOW_MUTUAL,
)
from .codec import encode_point
from .geometry import Ball
from .machine import exact_k
from .oracles import PointOracle, ProductOracle, hash_stream


# ---- mutual information of binary strings ---------------------------------


def mutual_info(p: str, q: str, backend: KBackend) -> int | None:
    """I(p:q) = K(q) - K(q|p), in bits; may be slightly negative.

    Exact backend: conditional K runs the machine with p preloaded as the
    given string.  Compressor backend: K(q|p) is the extra code the coder
    emits for q after parsing p.  None when the exact search finds nothing.
    """
    if backend.kind == "compressor":
        return lz78_cost(q) - conditional_cost(q, p)
    unconditional = exact_k(q, "", backend.config)
    conditional = exact_k(q, p, backend.config)
    if unconditional is None or conditional is None:
        return None
    return unconditional.value - conditional.value


# ---- pair representation (compressor backend) ------------------------------


def _xor_bits(a: str, b: str) -> str:
    """Bitwise XOR of the common-length prefixes of two bit strings."""
    n = min(len(a), len(b))
    if n == 0:
        return ""
    return format(int(a[:n], 2) ^ int(b[:n], 2), f"0{n}b")


def pair_cost(cols_x: Sequence[str], cols_y: Sequence[str]) -> int:
    """Code length of the cheapest decodable joint layout, plus flag bits.

    Four layouts are tried: each argument order, with the second block
    either plain or column-wise XOR-differenced against the first.  The
    layout family is closed under argument swap, so the result is exactly
    symmetric.  Differencing makes a shared coordinate cost only its
    near-zero residue; the flag bits pay for naming the chosen layout.
    """

    def layouts(a: Sequence[str], b: Sequence[str]):
        yield "".join(a) + "".join(b)
        diffed = [
            _xor_bits(col, a[i]) if i < len(a) else col
            for i, col in enumerate(b)
        ]
        yield "".join(a) + "".join(diffed)

    best = min(
        lz78_cost(layout)
        for pair in ((cols_x, cols_y), (cols_y, cols_x))
        for layout in layouts(*pair)
    )
    return JOINT_FLAG_BITS + best


# ---- k_r memo --------------------------------------------------------------
# Estimators sweep the same oracles over many precisions, so K_r is memoized
# per oracle.  Most oracles hash by identity, so the memo holds them weakly:
# an oracle's entries are freed with the oracle instead of pinning it for the
# life of the process.  The key holds the whole backend, machine config
# included.

_KR_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _k_r_cached(x: PointOracle, r: int, backend: KBackend) -> int | None:
    memo = _KR_CACHE.setdefault(x, {})
    key = (r, backend)
    if key not in memo:
        memo[key] = k_r(x, r, backend)
    return memo[key]


def k_r_pair(
    x: PointOracle, y: PointOracle, r: int, backend: KBackend
) -> int | None:
    """Complexity of the concatenated pair point at precision r."""
    if backend.kind == "compressor":
        return pair_cost(
            point_columns(x.query(r), r), point_columns(y.query(r), r)
        )
    return k_r(ProductOracle(x, y), r, backend)


# ---- mutual information of points at precision r ---------------------------


def _ball_candidates(x: PointOracle, r: int, backend: KBackend):
    from .complexity import enumerated_points

    center = x.query(r + BALL_CENTER_DEPTH_MARGIN)
    ball = Ball.at_precision(center, r)
    return [
        (q, enc)
        for q, _, enc in enumerated_points(backend.config)
        if q.dimension == ball.dimension and ball.contains(q)
    ]


def i_r(x: PointOracle, y: PointOracle, r: int, backend: KBackend) -> int | None:
    """Least string mutual information forced by 2**-r proximity.

    Exact backend: minimum of mutual_info over all enumerated candidate
    pairs in the two balls (None if either ball is empty).  Compressor
    backend: the three-term identity on the truncated representatives.
    """
    if backend.kind == "compressor":
        kx = _k_r_cached(x, r, backend)
        ky = _k_r_cached(y, r, backend)
        return kx + ky - k_r_pair(x, y, r, backend)
    best: int | None = None
    for _, enc_x in _ball_candidates(x, r, backend):
        for _, enc_y in _ball_candidates(y, r, backend):
            value = mutual_info(enc_x, enc_y, backend)
            if value is not None and (best is None or value < best):
                best = value
    return best


def j_r(x: PointOracle, y: PointOracle, r: int, backend: KBackend) -> int | None:
    """Like i_r but restricted to exact K-minimizer pairs of the two balls."""
    if backend.kind != "exact_machine":
        raise ValueError("minimizer-pair mutual information needs exact backend")
    pairs = []
    for oracle in (x, y):
        center = oracle.query(r + BALL_CENTER_DEPTH_MARGIN)
        found = minimizers(Ball.at_precision(center, r), 0, backend)
        if found is None:
            return None
        pairs.append(found.members)
    best: int | None = None
    for qx in pairs[0]:
        for qy in pairs[1]:
            value = mutual_info(encode_point(qx), encode_point(qy), backend)
            if value is not None and (best is None or value < best):
                best = value
    return best


# ---- slope extraction -------------------------------------------------------

_REF_STREAM = hash_stream(REFERENCE_SEED, 0)


@functools.cache
def reference_ratio(length: int) -> float:
    """Measured code bits per input bit of the pinned reference stream."""
    if length <= 0:
        raise ValueError("length must be positive")
    return lz78_cost(_REF_STREAM.prefix(length)) / length


def _least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def _window_slopes(
    grid: Sequence[int], values: Sequence[float], width: int
) -> tuple[float, ...]:
    if len(grid) < 2:
        raise ValueError("need at least two grid points for a slope")
    width = min(width, len(grid))
    return tuple(
        _least_squares_slope(grid[i : i + width], values[i : i + width])
        for i in range(len(grid) - width + 1)
    )


def _resolve_grid(window, backend: KBackend) -> tuple[int, ...]:
    if window is not None:
        grid = tuple(window)
    elif backend.kind == "compressor":
        grid = COMPRESSOR_GRID
    else:
        grid = EXACT_GRID
    if not grid:
        raise ValueError("window must be nonempty")
    return grid


@dataclass(frozen=True)
class DimEstimate:
    """Window of local slopes of K_r against r: lo ~ dim, hi ~ Dim."""

    lo: float
    hi: float
    r_grid: tuple[int, ...]
    k_values: tuple[int, ...]
    slopes: tuple[float, ...]


@dataclass(frozen=True)
class MutualProfile:
    """Profile of i_r over a precision window with its slope envelope."""

    r_grid: tuple[int, ...]
    i_values: tuple[int, ...]
    slope_lo: float
    slope_hi: float
    k_x_values: tuple[int, ...]
    k_y_values: tuple[int, ...]
    k_xy_values: tuple[int, ...]

    def rows(self) -> list[dict]:
        """CSV-ready records, one per grid precision."""
        return [
            {
                "r": r,
                "i_r": i,
                "k_r_x": kx,
                "k_r_y": ky,
                "k_r_xy": kxy,
            }
            for r, i, kx, ky, kxy in zip(
                self.r_grid,
                self.i_values,
                self.k_x_values,
                self.k_y_values,
                self.k_xy_values,
            )
        ]


def dim_estimate(
    x: PointOracle,
    window: Sequence[int] | None = None,
    backend: KBackend | None = None,
) -> DimEstimate:
    """Estimated (dim, Dim) of the oracle's point over the given window."""
    backend = backend or compressor_backend()
    grid = _resolve_grid(window, backend)
    raw = []
    for r in grid:
        value = _k_r_cached(x, r, backend)
        if value is None:
            raise ValueError(f"complexity not reachable at precision {r}")
        raw.append(value)
    if backend.kind == "compressor":
        n = x.dimension
        series = [v / reference_ratio(n * (GUARD_BITS + r)) for v, r in zip(raw, grid)]
        width = WINDOW_DIM
    else:
        series = [float(v) for v in raw]
        width = WINDOW_EXACT
    slopes = _window_slopes(grid, series, width)
    return DimEstimate(min(slopes), max(slopes), grid, tuple(raw), slopes)


def mdim_estimate(
    x: PointOracle,
    y: PointOracle,
    window: Sequence[int] | None = None,
    backend: KBackend | None = None,
) -> MutualProfile:
    """Estimated mutual-dimension profile of two oracles over a window."""
    backend = backend or compressor_backend()
    grid = _resolve_grid(window, backend)
    k_x, k_y, k_xy, i_vals = [], [], [], []
    for r in grid:
        kx = _k_r_cached(x, r, backend)
        ky = _k_r_cached(y, r, backend)
        kxy = k_r_pair(x, y, r, backend)
        if kx is None or ky is None or kxy is None:
            raise ValueError(f"complexity not reachable at precision {r}")
        k_x.append(kx)
        k_y.append(ky)
        k_xy.append(kxy)
        if backend.kind == "compressor":
            i_vals.append(kx + ky - kxy)
        else:
            value = i_r(x, y, r, backend)
            if value is None:
                raise ValueError(f"no candidate pairs at precision {r}")
            i_vals.append(value)
    if backend.kind == "compressor":
        n_joint = x.dimension + y.dimension
        series = [
            v / reference_ratio(n_joint * (GUARD_BITS + r))
            for v, r in zip(i_vals, grid)
        ]
        width = WINDOW_MUTUAL
    else:
        series = [float(v) for v in i_vals]
        width = WINDOW_EXACT
    slopes = _window_slopes(grid, series, width)
    return MutualProfile(
        grid,
        tuple(i_vals),
        min(slopes),
        max(slopes),
        tuple(k_x),
        tuple(k_y),
        tuple(k_xy),
    )
