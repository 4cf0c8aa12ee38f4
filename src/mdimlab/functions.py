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
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .codec import DyadicRational, RationalPoint, distance_sq
from .geometry import ceil_half_log2
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
    """Precision-transfer function r -> m(r), nondecreasing.

    Forms: linear m(r) = r + s; holder m(r) = ceil((r + s) / alpha);
    table with explicit values for r = 0 .. len-1.
    """

    form: str
    s: int = 0
    alpha: Fraction = Fraction(1)
    entries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.form not in ("linear", "holder", "table"):
            raise ValueError(f"unknown modulus form: {self.form!r}")
        if self.form == "holder" and not 0 < self.alpha <= 1:
            raise ValueError("holder exponent must lie in (0, 1]")
        if self.form == "table":
            if not self.entries:
                raise ValueError("table modulus needs entries")
            if any(b < a for a, b in zip(self.entries, self.entries[1:])):
                raise ValueError("modulus must be nondecreasing")

    def value(self, r: int) -> int:
        if r < 0:
            raise ValueError("precision must be nonnegative")
        if self.form == "linear":
            return r + self.s
        if self.form == "holder":
            num = (r + self.s) * self.alpha.denominator
            den = self.alpha.numerator
            return -(-num // den)
        if r >= len(self.entries):
            raise ValueError(f"table modulus undefined at precision {r}")
        return self.entries[r]


def linear_modulus(s: int) -> ModulusSpec:
    return ModulusSpec("linear", s=s)


def holder_modulus(alpha: Fraction, s: int) -> ModulusSpec:
    return ModulusSpec("holder", s=s, alpha=alpha)


def table_modulus(entries: Sequence[int]) -> ModulusSpec:
    return ModulusSpec("table", entries=tuple(entries))


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


def project(v: Sequence, sel: SSelector) -> tuple[Coords, Coords]:
    """Split a vector into its selected part and the rest."""
    if len(v) != sel.n:
        raise ArityMismatchError(f"selector expects arity {sel.n}, got {len(v)}")
    x = tuple(v[p - 1] for p in sel.positions)
    y = tuple(v[p - 1] for p in sel.complement)
    return x, y


# ---- computable functions ----------------------------------------------------


@dataclass(frozen=True)
class ComputableFunction:
    """Evaluator with declared continuity certificates.

    The evaluator must return a point within 2**-r of the true value
    whenever the argument oracle honors its own 2**-r contract.
    """

    name: str
    n: int
    k: int
    evaluator: Callable[[PointOracle, int], RationalPoint]
    declared_modulus: ModulusSpec | None = None
    declared_inverse_moduli: tuple[tuple[SSelector, ModulusSpec], ...] = ()

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

# a state is (swap, flip_x, flip_y): apply swaps coordinates first, then
# xors the flips; quadrant visit order and per-quadrant child states below
# give the classic U-shaped recursion anchored at parameter 0 -> (0,0)
_IDT = (0, 0, 0)
_TRANS = (1, 0, 0)
_ANTI = (1, 1, 1)
_BASEQ = ((0, 0), (0, 1), (1, 1), (1, 0))
_CHILD = (_TRANS, _IDT, _IDT, _ANTI)


def _apply(state, bits):
    swap, cx, cy = state
    u, v = bits
    if swap:
        u, v = v, u
    return (u ^ cx, v ^ cy)


def _compose(a, b):
    sa, ax, ay = a
    sb, bx, by = b
    if sa:
        cx, cy = ax ^ by, ay ^ bx
    else:
        cx, cy = ax ^ bx, ay ^ by
    return (sa ^ sb, cx, cy)


def curve_digits(quads: Sequence[int]) -> tuple[int, int]:
    """Map base-4 parameter digits to the cell corner (x, y) bit-ints."""
    state = _IDT
    xbits: list[str] = []
    ybits: list[str] = []
    for d in quads:
        bx, by = _apply(state, _BASEQ[d])
        xbits.append("1" if bx else "0")
        ybits.append("1" if by else "0")
        state = _compose(state, _CHILD[d])
    if not quads:
        return 0, 0
    return int("".join(xbits), 2), int("".join(ybits), 2)


def curve_cell_parameter(xb: int, yb: int, level: int) -> Fraction:
    """Entry parameter of the level-k cell with corner (xb, yb) * 2**-k."""
    if not 0 <= xb < (1 << level) or not 0 <= yb < (1 << level):
        raise ValueError("cell indices out of range for the level")
    state = _IDT
    t = 0
    for i in range(level - 1, -1, -1):
        want = ((xb >> i) & 1, (yb >> i) & 1)
        for d in range(4):
            if _apply(state, _BASEQ[d]) == want:
                break
        else:
            raise RuntimeError("quadrant walk lost its bijection")
        t = (t << 2) | d
        state = _compose(state, _CHILD[d])
    return Fraction(t, 1 << (2 * level))


# ---- function library ---------------------------------------------------------


def _ceil_log2_frac(value: Fraction) -> int:
    """Smallest s >= 0 with 2**s >= value."""
    s = 0
    while (1 << s) * value.denominator < value.numerator:
        s += 1
    return s


def _exact_dyadic(value: Fraction) -> DyadicRational:
    return DyadicRational.from_fraction(value)


def identity_function(n: int = 1) -> ComputableFunction:
    return ComputableFunction(
        "identity",
        n,
        n,
        lambda x, r: x.query(r),
        declared_modulus=linear_modulus(0),
        declared_inverse_moduli=(
            (SSelector(n, tuple(range(1, n + 1))), linear_modulus(0)),
        ),
    )


def scale_function(c: Fraction) -> ComputableFunction:
    c = Fraction(c)
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    stretch = _ceil_log2_frac(abs(c))
    shrink = _ceil_log2_frac(1 / abs(c))

    def evaluate(x: PointOracle, r: int) -> RationalPoint:
        q = x.query(r + stretch)
        return _as_point([
            _exact_dyadic(Fraction(co.num * c.numerator, c.denominator << co.exp))
            for co in q.coords
        ])

    return ComputableFunction(
        f"scale({c})",
        1,
        1,
        evaluate,
        declared_modulus=linear_modulus(stretch),
        declared_inverse_moduli=((SSelector(1, (1,)), linear_modulus(shrink)),),
    )


def sum_function(n: int) -> ComputableFunction:
    if n < 1:
        raise ValueError("sum needs at least one argument")
    margin = ceil_half_log2(n)

    def evaluate(x: PointOracle, r: int) -> RationalPoint:
        q = x.query(r + margin)
        e = max(co.exp for co in q.coords)
        total = sum(co.num << (e - co.exp) for co in q.coords)
        return _as_point([DyadicRational(total, e)])

    return ComputableFunction(
        f"sum({n})",
        n,
        1,
        evaluate,
        declared_modulus=linear_modulus(margin),
        declared_inverse_moduli=tuple(
            (SSelector(n, (i,)), linear_modulus(1)) for i in range(1, n + 1)
        ),
    )


def affine_function(
    matrix: Sequence[Sequence[Fraction]],
    offset: Sequence[Fraction],
    inverse_modulus: tuple[SSelector, ModulusSpec] | None = None,
) -> ComputableFunction:
    rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
    shift = tuple(Fraction(v) for v in offset)
    k = len(rows)
    if k == 0 or len(shift) != k:
        raise ValueError("matrix and offset shapes disagree")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("matrix rows must share a length")
    col_norm = max(sum(abs(rows[i][j]) for i in range(k)) for j in range(n))
    row_norm = max(sum(abs(v) for v in row) for row in rows)
    # operator norm bound: |A| <= sqrt(|A|_1 |A|_inf)
    s = -(-_ceil_log2_frac(col_norm * row_norm) // 2) if col_norm else 0
    # A and the offset as integer numerators over one common denominator
    den = math.lcm(*(v.denominator for row in rows for v in row),
                   *(c.denominator for c in shift))
    int_rows = tuple(tuple(v.numerator * (den // v.denominator) for v in row)
                     for row in rows)
    int_shift = tuple(c.numerator * (den // c.denominator) for c in shift)

    def evaluate(x: PointOracle, r: int) -> RationalPoint:
        q = x.query(r + s)
        e = max(co.exp for co in q.coords)
        vals = [co.num << (e - co.exp) for co in q.coords]
        return _as_point([
            _exact_dyadic(Fraction(
                sum(a * v for a, v in zip(row, vals)) + (c << e), den << e))
            for row, c in zip(int_rows, int_shift)
        ])

    inverse = (inverse_modulus,) if inverse_modulus else ()
    return ComputableFunction(
        f"affine({k}x{n})",
        n,
        k,
        evaluate,
        declared_modulus=linear_modulus(s),
        declared_inverse_moduli=inverse,
    )


def projection_function(sel: SSelector) -> ComputableFunction:
    def evaluate(x: PointOracle, r: int) -> RationalPoint:
        q = x.query(r)
        kept, _ = project(q.coords, sel)
        return _as_point(kept)

    return ComputableFunction(
        f"projection({list(sel.positions)})",
        sel.n,
        len(sel.positions),
        evaluate,
        declared_modulus=linear_modulus(0),
    )


def hilbert2d_function() -> ComputableFunction:
    """Space-filling curve [0,1] -> [0,1]^2, anchored at f(0) = (0,0).

    The evaluator truncates the parameter to 2L base-4 digits (L = r + 3)
    and returns the entry corner of the level-L cell; the corner is within
    sqrt(2) * 2**-L of the true value and parameter truncation moves the
    value at most sqrt(5) * 2**-(r+2), keeping the total under 2**-r.
    Parameters outside [0, 1] clamp to the nearest endpoint.
    """

    def evaluate(x: PointOracle, r: int) -> RationalPoint:
        level = r + 3
        q = x.query(2 * r + 4)
        t = q.coords[0].to_fraction()
        cells = 1 << (2 * level)
        idx = (t * cells).__floor__()
        idx = min(max(idx, 0), cells - 1)
        bits = format(idx, f"0{2 * level}b")
        quads = [int(bits[i : i + 2], 2) for i in range(0, 2 * level, 2)]
        xb, yb = curve_digits(quads)
        return _as_point([DyadicRational(xb, level), DyadicRational(yb, level)])

    return ComputableFunction(
        "hilbert2d",
        1,
        2,
        evaluate,
        declared_modulus=holder_modulus(Fraction(1, 2), 1),
    )


def library_function(name: str, params: Mapping | None = None) -> ComputableFunction:
    """Build a library function from a plain-data description."""
    params = dict(params or {})
    if name == "identity":
        return identity_function(int(params.get("n", 1)))
    if name == "scale":
        return scale_function(Fraction(params["c"]))
    if name == "sum":
        return sum_function(int(params["n"]))
    if name == "affine":
        inverse = None
        if "inverse_modulus" in params:
            spec = params["inverse_modulus"]
            sel = SSelector(len(params["matrix"][0]), tuple(spec["S"]))
            inverse = (sel, linear_modulus(int(spec["s"])))
        return affine_function(
            [[Fraction(v) for v in row] for row in params["matrix"]],
            [Fraction(v) for v in params["offset"]],
            inverse,
        )
    if name == "projection":
        sel = SSelector(int(params["n"]), tuple(params["S"]))
        return projection_function(sel)
    if name == "hilbert2d":
        return hilbert2d_function()
    raise UnknownFunctionError(f"no library function named {name!r}")


# ---- constructive left-inverse synthesis --------------------------------------

DEFAULT_SEARCH_BOX = (-(1 << 10), 1 << 10)


def _modulus_variation_bound(
    m: ModulusSpec, radius_sq: Fraction, cap: int
) -> Fraction:
    """Bound on |f(a)-f(b)| when |a-b|^2 <= radius_sq, via the modulus.

    For small radii this is 2**-j for the largest j <= cap with
    2**-m(j) >= sqrt(radius_sq).  Larger separations chop the segment
    into N pieces of length at most 2**-m(0), each moving the value at
    most 1, so N bounds the total variation.
    """
    best = None
    for j in range(cap + 1):
        gap = m.value(j)
        if Fraction(1, 1 << (2 * gap)) >= radius_sq:
            best = Fraction(1, 1 << j)
        else:
            break
    if best is not None:
        return best
    scaled = radius_sq * (1 << (2 * m.value(0)))
    need = scaled.numerator // scaled.denominator + 1
    pieces = math.isqrt(need)
    if pieces * pieces < need:
        pieces += 1
    return Fraction(pieces)


def left_inverse_synthesize(
    f: ComputableFunction,
    sel: SSelector,
    m_prime: ModulusSpec,
    box: tuple[int, int] = DEFAULT_SEARCH_BOX,
) -> ComputableFunction:
    """Search-based S-left inverse of f under an inverse-modulus certificate.

    The returned g maps an oracle for (f(x *_S y), y) to the selected
    coordinates x, accurate to 2**-r: it scans the dyadic grid of pitch
    2**-m(m'(r)+2) inside the box, in lexicographic index order, and
    returns the first candidate q whose image at working precision
    m'(r)+3 lands within 2**-(m'(r)+1) of the observed value.  The
    inverse modulus then forces |q - x| <= 2**-r.
    """
    if sel.n != f.n:
        raise ArityMismatchError("selector arity must match the function")
    if f.declared_modulus is None:
        raise ValueError("synthesis needs the function's forward modulus")
    modulus = f.declared_modulus
    width = len(sel.positions)
    rest = f.n - width
    lo, hi = box
    if lo >= hi:
        raise ValueError("search box is empty")

    def evaluate(w: PointOracle, r: int) -> RationalPoint:
        target_gap = m_prime.value(r)
        p = target_gap + 3
        if modulus.value(target_gap + 2) > p:
            raise ValueError(
                "declared modulus too steep for the pinned working precision"
            )
        observed = w.query(p)
        z = _as_point(observed.coords[: f.k])
        y = observed.coords[f.k :]
        pitch_gap = modulus.value(target_gap + 2)
        cells = (hi - lo) << pitch_gap
        accept = Fraction(1, 1 << (target_gap + 1))
        accept_sq = accept * accept
        slack = 2 * Fraction(1, 1 << p)
        # squared pruning threshold by the box's squared radius in pitch
        # units; every box of one shape shares it
        thresholds_sq: dict[int, Fraction] = {}
        origin = lo << pitch_gap

        def grid_point(indices):
            return tuple(DyadicRational(origin + i, pitch_gap) for i in indices)

        def image_distance_sq(q_coords):
            point = interleave(q_coords, sel, y)
            image = f.evaluate(_constant(point), p)
            return distance_sq(image, z)

        # best-first over half-open index boxes, ordered by minimal corner;
        # a box's minimal corner is its lexicographically least candidate,
        # so the first accepted singleton is the lex-least acceptor, and a
        # box is dropped only when the modulus proves it empty
        heap = [((0,) * width, ((0, cells),) * width)]
        while heap:
            corner, ranges = heapq.heappop(heap)
            sides = [b - a for a, b in ranges]
            if all(s == 1 for s in sides):
                q = grid_point(corner)
                if image_distance_sq(q) <= accept_sq:
                    return _as_point(q)
                continue
            centers = [(a + b) // 2 for a, b in ranges]
            q_mid = grid_point(centers)
            radius = sum(
                max(c - a, b - c) ** 2 for (a, b), c in zip(ranges, centers)
            )
            threshold_sq = thresholds_sq.get(radius)
            if threshold_sq is None:
                radius_sq = Fraction(radius, 1 << (2 * pitch_gap))
                variation = _modulus_variation_bound(modulus, radius_sq, p)
                threshold_sq = (accept + variation + slack) ** 2
                thresholds_sq[radius] = threshold_sq
            if image_distance_sq(q_mid) > threshold_sq:
                continue
            axis = max(range(width), key=lambda i: sides[i])
            a, b = ranges[axis]
            mid = (a + b) // 2
            # the lower half keeps the parent's minimal corner
            heapq.heappush(
                heap, (corner, ranges[:axis] + ((a, mid),) + ranges[axis + 1 :])
            )
            heapq.heappush(
                heap,
                (corner[:axis] + (mid,) + corner[axis + 1 :],
                 ranges[:axis] + ((mid, b),) + ranges[axis + 1 :]),
            )
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
