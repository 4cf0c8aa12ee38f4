"""Mutual information of strings and of points, and dimension estimators.

For binary strings, I(p:q) = K(q) - K(q|p), on the exact machine: the
conditional K runs the machine with p preloaded as the given string.  For
ideal points the engine works at precision r over rational approximants:
i_r minimizes string mutual information over the enumerated candidates in
the two radius-2**-r balls, and j_r over their K-minimizers.

Dimension and mutual-dimension estimates are least-squares slopes of the
compressor's complexity profiles; the exact machine reaches too few points
to give a profile a slope.  The mutual profile is the three-term identity
K_r(x) + K_r(y) - K_r(x,y) on fixed-width truncated representatives.  The
profile values are first rescaled by the measured cost-per-bit of a pinned
reference stream at matching representation length; that cancels the
coder's sublinear dictionary overhead, so one incompressible expansion bit
per precision bit reads as slope 1.0.  A ``Profile``'s values stay in raw
emitted bits.

``mutual_info`` imports ``exact_k`` in its body, and ``i_r`` and ``j_r``
reach the geometry only through ``complexity.ball_points``, so an
estimator run loads neither the machine nor the geometry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .compressor import Lz78Parser, lz78_cost
from .complexity import ball_points, k_r, k_r_entry
from .constants import (
    GUARD_BITS,
    JOINT_FLAG_BITS,
    REFERENCE_SEED,
    WINDOW_DIM,
    WINDOW_MUTUAL,
)
from .oracles import PointOracle, hash_stream

if TYPE_CHECKING:
    from .machine import MachineConfig


# ---- mutual information of binary strings ---------------------------------


def mutual_info(p: str, q: str, cfg: MachineConfig) -> int | None:
    """I(p:q) = K(q) - K(q|p), in bits; may be slightly negative.

    K(q|p) runs the machine with p preloaded as the given string.  None
    when the exact search finds nothing; an unreachable q returns before
    the conditional search runs.
    """
    from .machine import exact_k

    unconditional = exact_k(q, "", cfg)
    if unconditional is None:
        return None
    conditional = exact_k(q, p, cfg)
    return None if conditional is None else unconditional.value - conditional.value


# ---- pair representation (compressor) --------------------------------------


def pair_cost(
    entry_x: tuple[int, int, Lz78Parser], entry_y: tuple[int, int, Lz78Parser]
) -> int:
    """Code length of the cheapest decodable joint layout, plus flag bits.

    Each argument is a representation as ``complexity.k_r_entry`` holds it:
    (length, integer value, parse of the representation).  Four layouts are
    tried: each argument order, with the second block either plain or
    XOR-differenced against the first: XOR the first representation, cut
    or padded with zeros on the right to the second's length, which on the
    integer values is one shift.  Columns at one precision share one width,
    so that is each column XOR its partner.  The layout family is closed
    under argument swap, so the result is exactly symmetric.  Differencing
    makes a shared coordinate cost only its near-zero residue; the flag bits
    pay for naming the chosen layout.

    Each layout goes on from a copy of its first block's parse, so only
    second blocks are formatted and parsed and the two parses are left as
    they were.  Equal arguments make both orders the same two strings, so
    only one order is tried.

    Each layout is parsed with the cheapest cost so far as its ceiling
    (``Lz78Parser.feed``), so one that cannot win stops early.  The
    differenced layouts go first, since they are usually the cheaper, and
    each second block is built only when it is parsed.
    """
    orders = [(entry_x, entry_y)]
    if entry_x[:2] != entry_y[:2]:
        orders.append((entry_y, entry_x))
    best = math.inf
    for differenced in (True, False):
        for (m, a, first), (n, b, _) in orders:
            if differenced:
                b ^= a >> (m - n) if m >= n else a << (n - m)
            second = format(b, f"0{n}b") if n else ""
            best = min(best, first.copy().feed(second, best).cost)
    return JOINT_FLAG_BITS + best


def k_r_pair(x: PointOracle, y: PointOracle, r: int) -> int:
    """Compressor complexity of the pair point at precision r."""
    return pair_cost(k_r_entry(x, r), k_r_entry(y, r))


# ---- mutual information of points at precision r ---------------------------


def _least_mutual_info(encs_x, encs_y, cfg: MachineConfig) -> int | None:
    values = (mutual_info(a, b, cfg) for a in encs_x for b in encs_y)
    return min((v for v in values if v is not None), default=None)


def i_r(x: PointOracle, y: PointOracle, r: int, cfg: MachineConfig) -> int | None:
    """Least string mutual information forced by 2**-r proximity.

    The minimum of mutual_info over all enumerated candidate pairs in the
    two balls; None if either ball is empty.
    """
    xs = [enc for _, _, enc in ball_points(x, r, cfg)]
    ys = [enc for _, _, enc in ball_points(y, r, cfg)]
    return _least_mutual_info(xs, ys, cfg)


def j_r(x: PointOracle, y: PointOracle, r: int, cfg: MachineConfig) -> int | None:
    """Like i_r but restricted to exact K-minimizer pairs of the two balls."""
    minimal = []
    for oracle in (x, y):
        inside = ball_points(oracle, r, cfg)
        k_floor = min((k for _, k, _ in inside), default=None)
        minimal.append([enc for _, k, enc in inside if k == k_floor])
    return _least_mutual_info(*minimal, cfg)


# ---- slope extraction -------------------------------------------------------

# the pinned reference stream and its cost ratio by length.  The stream holds
# the longest prefix asked and the cache one float per length; a default
# ``mdim`` run asks 14 lengths, the longest 131,088 bits.  Both outlive a run:
# a run with copies of its own would redo about 20 ms of work (best of 20 on
# a 2-CPU host), 3 ms to draw the stream and 17 ms to parse the 14
# prefixes.  Threads may share them: the stream writes each block at its own
# offset, and a cached ratio is the same float from any thread
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


def _check_grid(grid: Sequence[int]) -> None:
    """Reject a grid no slope can be fit on, before any K_r is computed."""
    if len(grid) < 2:
        raise ValueError("need at least two grid points for a slope")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"precision grid must be strictly increasing, got {tuple(grid)}"
        )


@dataclass(frozen=True)
class Profile:
    """A complexity profile over a precision grid and the envelope of its
    local slopes.

    For K_r of one point, lo ~ dim and hi ~ Dim; for the mutual profile
    I_r = K_r(x) + K_r(y) - K_r(x,y), lo ~ mdim and hi ~ Mdim.  ``values``
    holds one value per grid precision.
    """

    r_grid: tuple[int, ...]
    values: tuple[int, ...]
    lo: float
    hi: float


def _profile(
    grid: tuple[int, ...], values: Sequence[int], n: int, width: int
) -> Profile:
    """The profile of ``values`` with lo and hi the min and max of the
    least-squares slopes over each ``width`` consecutive precisions, each
    value divided by the reference ratio at its input length of
    ``n * (GUARD_BITS + r)`` bits."""
    series = [v / reference_ratio(n * (GUARD_BITS + r))
              for v, r in zip(values, grid)]
    width = min(width, len(grid))
    slopes = [
        _least_squares_slope(grid[i : i + width], series[i : i + width])
        for i in range(len(grid) - width + 1)
    ]
    return Profile(grid, tuple(values), min(slopes), max(slopes))


def dim_estimate(x: PointOracle, grid: tuple[int, ...]) -> Profile:
    """K_r profile of the oracle's point over the grid: lo ~ dim, hi ~ Dim."""
    _check_grid(grid)
    return _profile(grid, [k_r(x, r) for r in grid], x.dimension, WINDOW_DIM)


def mdim_estimate(
    x: PointOracle, y: PointOracle, grid: tuple[int, ...]
) -> Profile:
    """I_r profile of two oracles over the grid: lo ~ mdim, hi ~ Mdim."""
    _check_grid(grid)
    values = [k_r(x, r) + k_r(y, r) - k_r_pair(x, y, r) for r in grid]
    return _profile(grid, values, x.dimension + y.dimension, WINDOW_MUTUAL)
