"""Computable functions on Euclidean space with continuity certificates.

A function here is an evaluator mapping (point oracle, precision r) to a
rational point within 2**-r of the true value, together with declared
moduli of continuity: a forward modulus (inputs within 2**-m(r) give
outputs within 2**-r) and optional inverse moduli over selected argument
positions (output proximity 2**-m'(r) forces input proximity 2**-r on the
selected coordinates).  Checks are falsification-based sampling, always
with explicit slack for evaluator error.  The library includes a
space-filling curve whose image has twice the information density of its
parameter, plus a constructive search that turns an inverse-modulus
certificate into a working left inverse.

The linear library maps (identity, scale, sum, projection and affine) are
one core, x -> Ax + c with dyadic A and c, and one evaluator builds every
output from integer numerators without a ``Fraction``.  Such a map carries
that core, and the left-inverse search, which inverts linear maps only,
runs on it in integers.  It starts at the bounding box of the ellipsoid of
grid indices the core can accept, from one fraction-free elimination, and
tests each box of grid indices it splits off: the core's exact interval
over the box bounds the squared distance from below, as an integer count
of one power of 4.  ``Fraction`` remains where a value need not be dyadic:
Holder exponents and the sampled checks.
"""

from __future__ import annotations

import functools
import heapq
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from operator import mul, sub
from typing import Callable, Iterable, Mapping, Sequence

from .codec import (
    DyadicRational,
    RationalPoint,
    distance_sq,
    distance_sq_parts,
    json_dimension,
    json_fraction,
    json_int,
    json_list,
    json_object,
)
from .oracles import ConstantOracle, PointOracle


class ArityMismatchError(ValueError):
    """Vector length does not match the selector's expectation."""


class UnknownFunctionError(ValueError):
    """No library function under that name."""


class SearchExhaustedError(RuntimeError):
    """Left-inverse search emptied its box without an acceptable candidate."""


# ---- moduli of continuity ---------------------------------------------------


@dataclass(frozen=True)
class ModulusSpec:
    """Precision transfer m(r) = ceil((r + s) / alpha), nondecreasing.

    alpha = 1 is a Lipschitz modulus, m(r) = r + s; alpha in (0, 1) is a
    Holder one, which costs a map a factor of 1 / alpha in mdim.
    """

    s: int = 0
    alpha: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("holder exponent must lie in (0, 1]")

    def value(self, r: int) -> int:
        if r < 0:
            raise ValueError("precision must be nonnegative")
        alpha = self.alpha
        return -(-(r + self.s) * alpha.denominator // alpha.numerator)


def linear_modulus(s: int) -> ModulusSpec:
    return ModulusSpec(s)


# ---- argument selection and interleaving ------------------------------------


@dataclass(frozen=True)
class SSelector:
    """A subset S of the argument positions {1..n}, kept sorted."""

    n: int
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient arity must be positive")
        if any(not 1 <= p <= self.n for p in self.positions):
            raise ValueError("positions must lie in 1..n")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")

    @functools.cached_property
    def complement(self) -> tuple[int, ...]:
        chosen = set(self.positions)
        return tuple(p for p in range(1, self.n + 1) if p not in chosen)


Coords = tuple[DyadicRational, ...]


def interleave(x: Sequence, sel: SSelector, y: Sequence) -> Coords:
    """Place x at the selected positions (in order) and y at the rest."""
    if len(x) != len(sel.positions) or len(y) != sel.n - len(sel.positions):
        raise ArityMismatchError(
            f"selector wants {len(sel.positions)}+{sel.n - len(sel.positions)}"
            f" coordinates, got {len(x)}+{len(y)}"
        )
    out: list = [None] * sel.n
    for value, pos in zip(x, sel.positions):
        out[pos - 1] = value
    for value, pos in zip(y, sel.complement):
        out[pos - 1] = value
    return tuple(out)


# ---- computable functions ----------------------------------------------------


@dataclass(frozen=True)
class LinearCore:
    """x -> Ax + c with A = rows / 2**exp and c = shift / 2**exp."""

    rows: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]
    exp: int


@dataclass(frozen=True)
class ComputableFunction:
    """Evaluator with declared continuity certificates.

    The evaluator must return a point within 2**-r of the true value
    whenever the argument oracle honors its own 2**-r contract.  A linear
    library map also carries its ``linear`` core, the exact map its
    evaluator computes, which the left-inverse search reads.
    """

    name: str
    n: int
    k: int
    evaluator: Callable[[PointOracle, int], RationalPoint]
    declared_modulus: ModulusSpec
    declared_inverse_moduli: tuple[tuple[SSelector, ModulusSpec], ...] = ()
    linear: LinearCore | None = None

    def evaluate(self, x: PointOracle, r: int) -> RationalPoint:
        if x.dimension != self.n:
            raise ArityMismatchError(
                f"{self.name} takes {self.n} coordinates, oracle has {x.dimension}"
            )
        if r < 0:
            raise ValueError("precision must be nonnegative")
        out = self.evaluator(x, r)
        if out.dimension != self.k:
            raise ArityMismatchError(
                f"{self.name} evaluator returned arity {out.dimension}, wants {self.k}"
            )
        return out


class ImageOracle(PointOracle):
    """Oracle for f(x) built from an oracle for x: query r evaluates f at r."""

    def __init__(self, f: ComputableFunction, x: PointOracle):
        if x.dimension != f.n:
            raise ArityMismatchError(
                f"{f.name} takes {f.n} coordinates, oracle has {x.dimension}"
            )
        self._f = f
        self._x = x

    @property
    def dimension(self) -> int:
        return self._f.k

    def query(self, r: int) -> RationalPoint:
        return self._f.evaluate(self._x, r)


def _as_point(coords: Sequence[DyadicRational]) -> RationalPoint:
    return RationalPoint(tuple(coords))


def _constant(coords: Sequence[DyadicRational]) -> ConstantOracle:
    return ConstantOracle(_as_point(coords))


# ---- sampled certificate checks ----------------------------------------------


@dataclass(frozen=True)
class ModulusCounterexample:
    """A sampled witness violating a declared modulus."""

    r: int
    x: RationalPoint
    y: RationalPoint
    distance_sq: Fraction
    allowed_sq: Fraction


def _dyadic_uniform(rng: random.Random, depth: int) -> DyadicRational:
    return DyadicRational(rng.getrandbits(depth), depth)


def _sample_point(rng: random.Random, n: int, depth: int) -> Coords:
    return tuple(_dyadic_uniform(rng, depth) for _ in range(n))


def _shift(coords: Coords, axis: int, delta: Fraction) -> Coords:
    moved = list(coords)
    moved[axis] = DyadicRational.from_fraction(moved[axis].to_fraction() + delta)
    return tuple(moved)


def modulus_check(
    f: ComputableFunction,
    m: ModulusSpec,
    samples: int = 1000,
    r_max: int = 8,
    seed: int = 0,
) -> ModulusCounterexample | None:
    """Falsification test of |x-y| <= 2**-m(r) => |f(x)-f(y)| <= 2**-r.

    Evaluates at precision p = r + 2 and allows 2 * 2**-p evaluator slack
    on top of 2**-r.  Returns the first violating witness, None on pass.
    """
    rng = random.Random(seed)
    for trial in range(samples):
        r = rng.randrange(r_max + 1)
        gap = m.value(r)
        depth = gap + 8
        base = _sample_point(rng, f.n, depth)
        axis = rng.randrange(f.n)
        step = Fraction(1, 1 << gap)
        if rng.getrandbits(1):
            step = -step
        if trial % 3 == 0:
            step /= 4
        other = _shift(base, axis, step)
        p = r + 2
        fa = f.evaluate(_constant(base), p)
        fb = f.evaluate(_constant(other), p)
        measured = distance_sq(fa, fb)
        allowed = (Fraction(1, 1 << r) + 2 * Fraction(1, 1 << p)) ** 2
        if measured > allowed:
            return ModulusCounterexample(
                r, _as_point(base), _as_point(other), measured, allowed
            )
    return None


def inverse_modulus_check(
    f: ComputableFunction,
    sel: SSelector,
    m_prime: ModulusSpec,
    samples: int = 500,
    r_max: int = 8,
    seed: int = 0,
) -> ModulusCounterexample | None:
    """Contrapositive test of the inverse modulus on selected coordinates.

    Samples (u, v, y) with |u - v| > 2**-r and requires the images of
    u *_S y and v *_S y to stay farther apart than 2**-m'(r) minus the
    evaluator slack.  Delta patterns cover single-axis, diagonal, and
    antidiagonal displacements.
    """
    if sel.n != f.n:
        raise ArityMismatchError("selector arity must match the function")
    rng = random.Random(seed)
    width = len(sel.positions)
    rest = f.n - width
    for trial in range(samples):
        r = rng.randrange(r_max + 1)
        depth = m_prime.value(r) + 8
        u = _sample_point(rng, width, depth)
        y = _sample_point(rng, rest, depth)
        pattern = trial % 3
        step = Fraction(9, 1 << (r + 3))
        v = u
        if pattern == 0 or width == 1:
            v = _shift(v, rng.randrange(width), step)
        else:
            for axis in range(width):
                sign = 1 if (pattern == 1 or axis % 2 == 0) else -1
                v = _shift(v, axis, sign * step)
        p = m_prime.value(r) + 2
        fa = f.evaluate(_constant(interleave(u, sel, y)), p)
        fb = f.evaluate(_constant(interleave(v, sel, y)), p)
        measured = distance_sq(fa, fb)
        floor = Fraction(1, 1 << m_prime.value(r)) - 2 * Fraction(1, 1 << p)
        if floor > 0 and measured <= floor**2:
            return ModulusCounterexample(
                r,
                _as_point(interleave(u, sel, y)),
                _as_point(interleave(v, sel, y)),
                measured,
                floor**2,
            )
    return None


def consistency_check(
    f: ComputableFunction,
    x: PointOracle,
    pairs: Sequence[tuple[int, int]],
) -> tuple[int, int] | None:
    """First precision pair violating the evaluator consistency bound."""
    for r, s in pairs:
        a = f.evaluate(x, r)
        b = f.evaluate(x, s)
        bound = Fraction(1, 1 << r) + Fraction(1, 1 << s)
        if distance_sq(a, b) > bound**2:
            return (r, s)
    return None


# ---- space-filling curve (quadrant subdivision with dihedral states) ---------

# _CURVE[state][digit] = (x bit, y bit, next state) of the classic U-shaped
# recursion anchored at parameter 0 -> (0,0).  The unrotated cell visits its
# quadrants in the order (0,0), (0,1), (1,1), (1,0) and enters the first one
# transposed and the last one anti-transposed; the four states are the
# orientations that reach: identity, transpose, anti-transpose, half turn.
_CURVE = (
    ((0, 0, 1), (0, 1, 0), (1, 1, 0), (1, 0, 2)),
    ((0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, 3)),
    ((1, 1, 3), (0, 1, 2), (0, 0, 2), (1, 0, 0)),
    ((1, 1, 2), (1, 0, 3), (0, 0, 3), (0, 1, 1)),
)


def curve_digits(quads: Iterable[int]) -> tuple[int, int]:
    """Map base-4 parameter digits to the cell corner (x, y) bit-ints in one
    pass, linear in the number of digits: ASCII bits, one ``int`` each."""
    state, xs, ys = 0, bytearray(b"0"), bytearray(b"0")
    for d in quads:
        bx, by, state = _CURVE[state][d]
        xs.append(48 + bx)
        ys.append(48 + by)
    return int(xs, 2), int(ys, 2)


# ---- function library ---------------------------------------------------------


def _ceil_log2(num: int, den: int) -> int:
    """Smallest s >= 0 with 2**s >= num / den, for num >= 0 and den > 0:
    the bit length of ceil(num / den) - 1."""
    return max(-(-num // den) - 1, 0).bit_length()


def _dyadic_coefficient(name: str, value) -> DyadicRational:
    """``value`` as a DyadicRational, refused unless dyadic: the linear
    evaluator returns dyadic points only for dyadic coefficients."""
    value = Fraction(value)
    try:
        return DyadicRational.from_fraction(value)
    except ValueError:
        raise ValueError(f"{name} = {value} is not dyadic") from None


def _linear_function(
    name: str,
    matrix: Sequence[Sequence],
    offset: Sequence,
    inverse: Sequence[tuple[SSelector, ModulusSpec]] = (),
    entry: str = "affine matrix[{i}][{j}]",
) -> ComputableFunction:
    """x -> Ax + c for dyadic A and c, the core of every linear library map.

    Each coefficient is checked dyadic once, a matrix entry under the label
    ``entry`` of its row i and column j, and A and c are held as integer
    numerators at one common exponent.  The forward modulus is Lipschitz,
    with 2**s the least power of two at or above the operator-norm bound
    sqrt(|A|_1 |A|_inf), and the evaluator queries x at r + s.
    """
    rows = [[_dyadic_coefficient(entry.format(i=i, j=j), v)
             for j, v in enumerate(row)] for i, row in enumerate(matrix)]
    shift = [_dyadic_coefficient(f"affine offset[{i}]", v) for i, v in enumerate(offset)]
    k = len(rows)
    if k == 0 or len(shift) != k:
        raise ValueError("matrix and offset shapes disagree")
    n = len(rows[0])
    if n == 0:
        raise ValueError("matrix has no columns")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix rows must share a length")
    ec = max(v.exp for v in (*shift, *(v for row in rows for v in row)))
    int_rows = tuple(tuple(v.num << (ec - v.exp) for v in row) for row in rows)
    int_shift = tuple(c.num << (ec - c.exp) for c in shift)
    col_norm = max(sum(abs(row[j]) for row in int_rows) for j in range(n))
    row_norm = max(sum(map(abs, row)) for row in int_rows)
    s = -(-_ceil_log2(col_norm * row_norm, 1 << (2 * ec)) // 2)

    def evaluate(x: PointOracle, r: int) -> RationalPoint:
        q = x.query(r + s)
        e = max(co.exp for co in q.coords)
        vals = [co.num << (e - co.exp) for co in q.coords]
        return _as_point([
            DyadicRational(sum(map(mul, row, vals)) + (c << e), e + ec)
            for row, c in zip(int_rows, int_shift)
        ])

    return ComputableFunction(name, n, k, evaluate, declared_modulus=linear_modulus(s),
                              declared_inverse_moduli=tuple(inverse),
                              linear=LinearCore(int_rows, int_shift, ec))


def identity_function(n: int = 1) -> ComputableFunction:
    everything = SSelector(n, tuple(range(1, n + 1)))
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    return _linear_function("identity", unit, [0] * n, [(everything, linear_modulus(0))])


def scale_function(c: Fraction) -> ComputableFunction:
    c = Fraction(c)
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    shrink = _ceil_log2(c.denominator, abs(c.numerator))
    return _linear_function(f"scale({c})", [[c]], [0],
                            [(SSelector(1, (1,)), linear_modulus(shrink))],
                            entry="scale factor c")


def sum_function(n: int) -> ComputableFunction:
    if n < 1:
        raise ValueError("sum needs at least one argument")
    return _linear_function(
        f"sum({n})", [[1] * n], [0],
        [(SSelector(n, (i,)), linear_modulus(1)) for i in range(1, n + 1)])


def affine_function(
    matrix: Sequence[Sequence[Fraction]],
    offset: Sequence[Fraction],
    inverse_modulus: tuple[SSelector, ModulusSpec] | None = None,
) -> ComputableFunction:
    columns = len(matrix[0]) if matrix else 0
    return _linear_function(f"affine({len(matrix)}x{columns})", matrix, offset,
                            [inverse_modulus] if inverse_modulus else [])


def projection_function(sel: SSelector) -> ComputableFunction:
    if not sel.positions:
        raise ValueError("projection needs at least one coordinate")
    rows = [[int(j == p) for j in range(1, sel.n + 1)] for p in sel.positions]
    return _linear_function(f"projection({list(sel.positions)})", rows, [0] * len(rows))


def hilbert2d_function() -> ComputableFunction:
    """Space-filling curve [0,1] -> [0,1]^2, anchored at f(0) = (0,0).

    The evaluator keeps L = r + 3 base-4 digits (2L bits) of a query at
    2r + 4 bits and returns the entry corner of the level-L cell; the corner
    is within sqrt(2) * 2**-L of the true value and parameter truncation
    moves the value at most sqrt(5) * 2**-(r+2), keeping the total under 2**-r.
    Parameters outside [0, 1] clamp to the nearest endpoint.
    """

    def evaluate(x: PointOracle, r: int) -> RationalPoint:
        level = r + 3
        q = x.query(2 * r + 4)
        cells = 1 << (2 * level)
        idx = min(max(q.coords[0].floor_shift(2 * level), 0), cells - 1)
        bits = format(idx, f"0{2 * level}b").encode()  # ASCII '0' is 48
        xb, yb = curve_digits(2 * a + b - 144 for a, b in zip(bits[::2], bits[1::2]))
        return _as_point([DyadicRational(xb, level), DyadicRational(yb, level)])

    return ComputableFunction(
        "hilbert2d",
        1,
        2,
        evaluate,
        declared_modulus=ModulusSpec(1, Fraction(1, 2)),
    )


def _selector(n: int, positions) -> SSelector:
    return SSelector(n, tuple(json_int("S position", p)
                              for p in json_list("S", positions)))


def library_function(name: str, params: Mapping | None = None) -> ComputableFunction:
    """Build a library function from a plain-data description; a key of
    ``params`` that its builder does not read is refused, and so is an
    arity ``n`` over ``DIMENSION_CAP``, before the map is built."""
    with json_object(f"{name} params", params or {}) as params:
        if name == "identity":
            return identity_function(json_dimension("n", params.get("n", 1)))
        if name == "scale":
            return scale_function(json_fraction("c", params["c"]))
        if name == "sum":
            return sum_function(json_dimension("n", params["n"]))
        if name == "affine":
            rows = json_list("matrix", params["matrix"])
            matrix = [[json_fraction(f"matrix[{i}][{j}]", v)
                       for j, v in enumerate(json_list(f"matrix[{i}]", row))]
                      for i, row in enumerate(rows)]
            offset = [json_fraction(f"offset[{i}]", v) for i, v in
                      enumerate(json_list("offset", params["offset"]))]
            f = affine_function(matrix, offset)
            if "inverse_modulus" not in params:
                return f
            with json_object("inverse_modulus", params["inverse_modulus"]) as spec:
                inverse = (_selector(f.n, spec["S"]),
                           linear_modulus(json_int("s", spec["s"])))
            return replace(f, declared_inverse_moduli=(inverse,))
        if name == "projection":
            return projection_function(
                _selector(json_dimension("n", params["n"]), params["S"]))
        if name == "hilbert2d":
            return hilbert2d_function()
        raise UnknownFunctionError(f"no library function named {name!r}")


# ---- constructive left-inverse synthesis --------------------------------------

DEFAULT_SEARCH_BOX = (-(1 << 10), 1 << 10)


def _box_gap_sq(steps, base, lo, hi) -> int:
    """Lower bound on the least sum_r d_r**2 over the index box
    lo <= i < hi, where d_r = steps[r] . i + base[r].

    Over the box each d_r lies in [low_r, high_r], the sum of each term's
    least and greatest value; a row whose interval holds 0 adds nothing,
    any other adds the square of its end nearer 0.  On a singleton box the
    bound is the exact sum.
    """
    total = 0
    for row, b in zip(steps, base):
        low = high = b
        for s, a, z in zip(row, lo, hi):
            if s < 0:
                low += s * (z - 1)
                high += s * a
            else:
                low += s * a
                high += s * (z - 1)
        if low > 0:
            total += low * low
        elif high < 0:
            total += high * high
    return total


def _start_box(steps, base, accept_sq, cells):
    """The grid [0, cells)**width clipped to the bounding box of the
    ellipsoid |steps . i + base|**2 <= accept_sq, which holds every
    acceptor, as (lo, hi); None when no acceptor can lie in the grid.

    With G = steps^T steps and h = steps^T base, one fraction-free
    Gauss-Jordan pass over [G | I | h] (Bareiss) leaves det G, adj G and
    adj(G) h, in integers.  The centre is -adj(G) h / det, rounded down,
    and the half-width on axis j is sqrt(N adj_jj) / det, rounded up past
    an integer, with N = det (accept_sq - |base|**2) + h^T adj(G) h; N < 0
    means the ellipsoid is empty.  Every pivot is a leading minor of the
    semidefinite G, so a zero pivot means det G = 0: the acceptors then
    fill an unbounded cylinder, and the whole grid is kept.
    """
    width = len(steps[0])
    cols = list(zip(*steps))
    h = [sum(map(mul, col, base)) for col in cols]
    # [G | I | h]: each update divides exactly by the previous pivot, and
    # after the last, m = [det I | adj G | adj(G) h]
    m = [[sum(map(mul, a, b)) for b in cols] + [int(i == j) for j in range(width)] + [h[i]]
         for i, a in enumerate(cols)]
    det = 1
    for k in range(width):
        pivot_row = m[k]
        pivot = pivot_row[k]
        if pivot == 0:
            return (0,) * width, (cells,) * width
        for i, row in enumerate(m):
            if i != k:
                m[i] = [(pivot * a - row[k] * b) // det for a, b in zip(row, pivot_row)]
        det = pivot
    n = det * (accept_sq - sum(map(mul, base, base))) + sum(c * row[-1] for c, row in zip(h, m))
    if n < 0:
        return None
    lo, hi = [], []
    for j, row in enumerate(m):
        centre = -row[-1] // det
        reach = isqrt(n * row[width + j]) // det + 1
        lo.append(max(centre - reach, 0))
        hi.append(min(centre + reach + 1, cells))
        if lo[j] >= hi[j]:
            return None
    return tuple(lo), tuple(hi)


def left_inverse_synthesize(
    f: ComputableFunction,
    sel: SSelector,
    m_prime: ModulusSpec,
    box: tuple[int, int] = DEFAULT_SEARCH_BOX,
) -> ComputableFunction:
    """Search-based S-left inverse of a linear f under an inverse-modulus
    certificate.

    The returned g maps an oracle for (f(x *_S y), y) to the selected
    coordinates x, accurate to 2**-r: it scans the dyadic grid of pitch
    2**-m(m'(r)+2) inside the box, in lexicographic index order, and
    returns the first candidate q whose image at working precision
    m'(r)+3 lands within 2**-(m'(r)+1) of the observed value.  The
    inverse modulus then forces |q - x| <= 2**-r.  The accepted grid
    indices are the integer points of an ellipsoid, and the search starts
    at the grid clipped to its bounding box, which a fraction-free
    Gauss-Jordan elimination gives in integers (``_start_box``); when the
    map's columns at S are dependent the ellipsoid is unbounded and the
    search starts at the whole grid.  It splits the start into index
    boxes, and a box is dropped when the interval of f's linear core over
    it proves it holds no such candidate (``_box_gap_sq``); on a single
    grid point that test is exact.  The evaluator confirms the candidate
    returned, and a disagreement raises.  An empty selector is refused.
    """
    if sel.n != f.n:
        raise ArityMismatchError("selector arity must match the function")
    core = f.linear
    if core is None:
        raise ValueError(
            f"{f.name} has no linear core; the left-inverse search inverts"
            " x -> Ax + c maps only"
        )
    modulus = f.declared_modulus
    width = len(sel.positions)
    rest = f.n - width
    if width == 0:
        raise ValueError(
            f"empty selector S = () over {sel.n} positions: the left-inverse"
            " search needs a coordinate to recover"
        )
    if box[0] >= box[1]:
        raise ValueError("search box is empty")
    # A's columns at the selected positions and at the rest
    a_sel = [[row[i - 1] for i in sel.positions] for row in core.rows]
    a_rest = [[row[i - 1] for i in sel.complement] for row in core.rows]

    def evaluate(w: PointOracle, r: int) -> RationalPoint:
        target_gap = m_prime.value(r)
        p = target_gap + 3
        pitch_gap = modulus.value(target_gap + 2)
        if pitch_gap > p:
            raise ValueError(
                "declared modulus too steep for the pinned working precision"
            )
        observed = w.query(p)
        z = observed.coords[: f.k]
        y = observed.coords[f.k :]
        cells = (box[1] - box[0]) << pitch_gap
        origin = box[0] << pitch_gap
        # one unit 2**-e, e >= p, holds every node's image A_S q + A_y y + c,
        # the observed z and every bound: a node at grid indices i has
        # image - z = steps . i + base exactly
        e = max(p, core.exp + pitch_gap, *(core.exp + v.exp for v in y),
                *(v.exp for v in z))
        lift = e - core.exp
        steps = [[a << (lift - pitch_gap) for a in row] for row in a_sel]
        base = [
            origin * sum(step_row)
            + sum((a * v.num) << (lift - v.exp) for a, v in zip(row, y))
            + (c << lift) - (v.num << (e - v.exp))
            for row, step_row, c, v in zip(a_rest, steps, core.shift, z)
        ]
        # the acceptance radius is an integer count of 2**-p, and its square
        # an integer count of 4**-p lifted to 4**-e
        accept = 1 << (p - target_gap - 1)
        accept_sq = (accept * accept) << (2 * (e - p))

        def confirmed(indices):
            q = tuple(DyadicRational(origin + i, pitch_gap) for i in indices)
            image = f.evaluate(_constant(interleave(q, sel, y)), p)
            t, te = distance_sq_parts(image, _as_point(z))
            if t << (2 * p) > (accept * accept) << (2 * te):
                raise RuntimeError(
                    f"{f.name}: the linear core accepts {q} and the evaluator does not"
                )
            return _as_point(q)

        # best-first over half-open index boxes lo <= i < hi, ordered by the
        # minimal corner lo, the box's lexicographically least candidate; the
        # start box holds every acceptor, and a box is dropped only when the
        # core's interval proves it empty, so the first singleton kept is
        # the lex-least acceptor
        start = _start_box(steps, base, accept_sq, cells)
        heap = [start] if start else []
        while heap:
            lo, hi = heapq.heappop(heap)
            if _box_gap_sq(steps, base, lo, hi) > accept_sq:
                continue
            sides = list(map(sub, hi, lo))
            side = max(sides)
            if side == 1:
                return confirmed(lo)
            axis = sides.index(side)
            mid = lo[axis] + side // 2
            # the lower half keeps the parent's minimal corner
            heapq.heappush(heap, (lo, hi[:axis] + (mid,) + hi[axis + 1 :]))
            heapq.heappush(heap, (lo[:axis] + (mid,) + lo[axis + 1 :], hi))
        raise SearchExhaustedError(
            f"no candidate in {box}^{width} satisfies the certificate at r={r}"
        )

    return ComputableFunction(
        f"left_inverse[{f.name}]",
        f.k + rest,
        width,
        evaluate,
        declared_modulus=m_prime,
    )
