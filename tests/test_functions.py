"""Computable functions: moduli, the plane-filling curve, left inverses."""

import dataclasses
import heapq
import random
from fractions import Fraction

import pytest

from mdimlab import codec, functions
from mdimlab.codec import DYADIC_ZERO, DyadicRational, RationalPoint
from mdimlab.functions import (
    ArityMismatchError,
    ComputableFunction,
    ImageOracle,
    ModulusSpec,
    SSelector,
    SearchExhaustedError,
    UnknownFunctionError,
    consistency_check,
    curve_digits,
    interleave,
    inverse_modulus_check,
    left_inverse_synthesize,
    library_function,
    linear_modulus,
    modulus_check,
)
from mdimlab.oracles import ConstantOracle, ProductOracle


def _const(*fracs):
    return ConstantOracle(
        RationalPoint(tuple(DyadicRational(n, e) for n, e in fracs))
    )


def _as_fractions(point):
    return tuple(c.to_fraction() for c in point.coords)


@pytest.fixture
def bounds(monkeypatch):
    """One entry per box the left-inverse search bounds."""
    calls = []
    bound = functions._box_gap_sq

    def counting(*args):
        calls.append(None)
        return bound(*args)

    monkeypatch.setattr(functions, "_box_gap_sq", counting)
    return calls


def project(v, sel):
    """Split a vector into its selected part and the rest: the reference
    that ``interleave`` inverts."""
    if len(v) != sel.n:
        raise ArityMismatchError(f"selector expects arity {sel.n}, got {len(v)}")
    return (tuple(v[p - 1] for p in sel.positions),
            tuple(v[p - 1] for p in sel.complement))


class TestSelectors:
    def test_interleave_orders_by_position(self):
        sel = SSelector(3, (1, 3))
        assert interleave(("a", "b"), sel, ("c",)) == ("a", "c", "b")

    def test_project_splits(self):
        sel = SSelector(3, (1, 3))
        assert project(("a", "c", "b"), sel) == (("a", "b"), ("c",))

    def test_roundtrip(self):
        sel = SSelector(4, (2, 3))
        v = (10, 20, 30, 40)
        kept, rest = project(v, sel)
        assert interleave(kept, sel, rest) == v

    def test_complement(self):
        assert SSelector(4, (2, 3)).complement == (1, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SSelector(3, (3, 1))
        with pytest.raises(ValueError):
            SSelector(2, (0,))
        with pytest.raises(ArityMismatchError):
            interleave((1, 2), SSelector(3, (1, 3)), (3, 4))


class TestModulusSpecs:
    def test_linear(self):
        assert [linear_modulus(2).value(r) for r in range(4)] == [2, 3, 4, 5]

    def test_holder_half(self):
        m = ModulusSpec(1, Fraction(1, 2))
        assert [m.value(r) for r in range(4)] == [2, 4, 6, 8]

    def test_holder_two_thirds_rounds_up(self):
        m = ModulusSpec(0, Fraction(2, 3))
        assert [m.value(r) for r in range(5)] == [0, 2, 3, 5, 6]

    def test_exponent_must_lie_in_unit_interval(self):
        for alpha in (Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                ModulusSpec(0, alpha)
        with pytest.raises(ValueError):
            linear_modulus(0).value(-1)


class TestModulusCheck:
    def test_identity_passes(self):
        f = library_function("identity", {"n": 1})
        assert modulus_check(f, linear_modulus(0), samples=200) is None

    def test_doubling_fails_flat_modulus(self):
        f = library_function("scale", {"c": "2"})
        bad = modulus_check(f, linear_modulus(0), samples=400)
        assert bad is not None
        assert bad.distance_sq > bad.allowed_sq

    def test_doubling_passes_declared(self):
        f = library_function("scale", {"c": "2"})
        assert modulus_check(f, f.declared_modulus, samples=400) is None

    def test_halving_passes_flat(self):
        f = library_function("scale", {"c": "1/2"})
        assert modulus_check(f, linear_modulus(0), samples=400) is None


class TestInverseModulusCheck:
    def test_doubling_inverse(self):
        f = library_function("scale", {"c": "2"})
        sel, spec = f.declared_inverse_moduli[0]
        assert inverse_modulus_check(f, sel, spec, samples=200) is None

    def test_sum_single_coordinate(self):
        f = library_function("sum", {"n": 2})
        sel = SSelector(2, (1,))
        assert inverse_modulus_check(f, sel, linear_modulus(1),
                                     samples=200) is None

    def test_sum_full_selector_fails(self):
        f = library_function("sum", {"n": 2})
        sel = SSelector(2, (1, 2))
        bad = inverse_modulus_check(f, sel, linear_modulus(1), samples=300)
        assert bad is not None


class TestConsistency:
    def test_identity_consistent(self):
        f = library_function("identity", {"n": 1})
        x = _const((1, 2))
        pairs = [(0, 3), (2, 5), (1, 8)]
        assert consistency_check(f, x, pairs) is None

    def test_curve_consistent(self):
        f = library_function("hilbert2d")
        x = _const((3, 3))
        assert consistency_check(f, x, [(0, 2), (1, 4), (3, 6)]) is None


def _reference_cell(order_log2: int, d: int) -> tuple[int, int]:
    """Classic iterative walk from curve index to cell coordinates."""
    x = y = 0
    t = d
    s = 1
    while s < (1 << order_log2):
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


class TestCurveDigits:
    def test_matches_reference_walk(self):
        for level in range(1, 7):
            for d in range(4**level):
                quads = [(d >> (2 * (level - 1 - i))) & 3
                         for i in range(level)]
                assert curve_digits(quads) == _reference_cell(level, d), d
                assert curve_digits(iter(quads)) == _reference_cell(level, d), d

    def test_surjective_on_cells(self):
        for level in range(1, 6):
            seen = {
                curve_digits([(d >> (2 * (level - 1 - i))) & 3
                              for i in range(level)])
                for d in range(4**level)
            }
            assert len(seen) == 4**level


class TestCurveFunction:
    def test_zero_maps_to_origin(self):
        f = library_function("hilbert2d")
        x = _const((0, 0))
        for r in (0, 3, 8):
            out = f.evaluate(x, r)
            assert _as_fractions(out) == (0, 0)

    def test_corner_matches_reference(self):
        f = library_function("hilbert2d")
        for num, exp in ((1, 2), (3, 3), (11, 4)):
            t = Fraction(num, 1 << exp)
            for r in (2, 5, 8):
                level = r + 3
                idx = min((t * 4**level).__floor__(), 4**level - 1)
                quads = [(idx >> (2 * (level - 1 - i))) & 3
                         for i in range(level)]
                expected = curve_digits(quads)
                out = f.evaluate(_const((num, exp)), r)
                assert _as_fractions(out) == (
                    Fraction(expected[0], 1 << level),
                    Fraction(expected[1], 1 << level),
                )

    def test_declared_modulus_holds(self):
        f = library_function("hilbert2d")
        assert modulus_check(f, f.declared_modulus, samples=250,
                             r_max=6) is None

    def test_image_oracle_shape(self):
        f = library_function("hilbert2d")
        img = ImageOracle(f, _const((1, 2)))
        assert img.dimension == 2
        assert len(img.query(4).coords) == 2


class TestLibrary:
    def test_unknown_name(self):
        with pytest.raises(UnknownFunctionError):
            library_function("wavelet")

    def test_affine_evaluates_exactly(self):
        f = library_function("affine", {
            "matrix": [["1", "1/2"], ["0", "1"]],
            "offset": ["1/4", "0"],
        })
        x = _const((1, 1), (1, 2))
        out = f.evaluate(x, 6)
        exact = (Fraction(1, 2) + Fraction(1, 8) + Fraction(1, 4),
                 Fraction(1, 4))
        got = _as_fractions(out)
        for g, e in zip(got, exact):
            assert abs(g - e) <= Fraction(1, 1 << 6)

    def test_projection(self):
        sel_f = library_function("projection", {"n": 3, "S": [2]})
        out = sel_f.evaluate(_const((1, 1), (1, 2), (3, 2)), 4)
        assert _as_fractions(out) == (Fraction(1, 4),)

    def test_arity_enforced(self):
        f = library_function("sum", {"n": 2})
        with pytest.raises(ArityMismatchError):
            f.evaluate(_const((1, 1)), 3)

    @pytest.mark.parametrize("name, extra", [
        ("identity", {}), ("sum", {}), ("projection", {"S": [1]}),
    ])
    def test_arity_cap_is_the_largest_accepted(self, name, extra):
        cap = codec.DIMENSION_CAP
        assert library_function(name, {"n": cap, **extra}).n == cap
        with pytest.raises(ValueError, match="over the dimension cap"):
            library_function(name, {"n": cap + 1, **extra})

    def test_ceil_log2_matches_the_doubling_loop(self):
        # the closed form against the loop it replaced, num = 0 included
        for num in range(300):
            for den in range(1, 40):
                s = 0
                while (1 << s) * den < num:
                    s += 1
                assert functions._ceil_log2(num, den) == s, (num, den)


LIBRARY_SPECS = [
    ("identity", {"n": 2}),
    ("scale", {"c": "-3/4"}),
    ("scale", {"c": "2"}),
    ("sum", {"n": 3}),
    ("affine", {"matrix": [["1", "1/1024"], ["0", "-3"]],
                "offset": ["1/4", "-5/8"]}),
    ("projection", {"n": 3, "S": [1, 3]}),
    ("hilbert2d", {}),
]


@pytest.mark.parametrize("name, params", LIBRARY_SPECS,
                         ids=[name for name, _ in LIBRARY_SPECS])
def test_library_evaluators_build_no_fraction(monkeypatch, name, params):
    # the build step checks every coefficient once; after it, the
    # evaluators compute on dyadic numerators alone
    f = library_function(name, params)

    def refuse(*args, **kwargs):
        raise AssertionError("an evaluator went through Fraction")

    monkeypatch.setattr(functions, "Fraction", refuse)
    monkeypatch.setattr(DyadicRational, "from_fraction", refuse)
    monkeypatch.setattr(DyadicRational, "to_fraction", refuse)
    x = _const(*(((-1) ** i * (2 * i + 3), i + 3) for i in range(f.n)))
    for r in (0, 3, 9):
        assert f.evaluate(x, r).dimension == f.k


INVERSE_SPECS = [
    ("scale", {"c": "2"}, None, ((5, 3),)),
    ("sum", {"n": 2}, (SSelector(2, (1,)), linear_modulus(1)), ((5, 3), (-3, 2))),
    ("affine", {"matrix": [["1", "1/2"], ["0", "1"]], "offset": ["1/4", "0"],
                "inverse_modulus": {"S": [1, 2], "s": 1}}, None, ((5, 3), (-3, 2))),
]


@pytest.mark.parametrize("name, params, certificate, x", INVERSE_SPECS,
                         ids=[spec[0] for spec in INVERSE_SPECS])
def test_left_inverse_builds_no_fraction(monkeypatch, name, params,
                                         certificate, x):
    # the search compares integer numerators in units of 2**-p: no node
    # builds a Fraction, in its own bounds or in the distance it measures
    f = library_function(name, params)
    sel, spec = certificate or f.declared_inverse_moduli[0]
    g = left_inverse_synthesize(f, sel, spec)
    w = ImageOracle(f, _const(*x))
    if sel.complement:
        w = ProductOracle(w, _const(*(x[p - 1] for p in sel.complement)))

    def refuse(*args, **kwargs):
        raise AssertionError("the left-inverse search went through Fraction")

    monkeypatch.setattr(functions, "Fraction", refuse)
    monkeypatch.setattr(codec, "Fraction", refuse)
    monkeypatch.setattr(DyadicRational, "from_fraction", refuse)
    monkeypatch.setattr(DyadicRational, "to_fraction", refuse)
    for r in (0, 3, 6):
        assert g.evaluate(w, r).dimension == len(sel.positions)


class TestLeftInverse:
    def test_doubling_inverts(self):
        f = library_function("scale", {"c": "2"})
        sel, spec = f.declared_inverse_moduli[0]
        g = left_inverse_synthesize(f, sel, spec)
        x = _const((5, 3))
        w = ImageOracle(f, x)
        for r in (2, 6, 10):
            got = _as_fractions(g.evaluate(w, r))[0]
            assert abs(got - Fraction(5, 8)) <= Fraction(1, 1 << r)

    def test_sum_recovers_first_coordinate(self):
        f = library_function("sum", {"n": 2})
        sel = SSelector(2, (1,))
        g = left_inverse_synthesize(f, sel, linear_modulus(1))
        x = ProductOracle(_const((3, 2)), _const((1, 1)))
        w = ProductOracle(ImageOracle(f, x), _const((1, 1)))
        for r in (2, 5, 9):
            got = _as_fractions(g.evaluate(w, r))[0]
            assert abs(got - Fraction(3, 4)) <= Fraction(1, 1 << r)

    def test_affine_full_inverse(self):
        f = library_function("affine", {
            "matrix": [["1", "1/2"], ["0", "1"]],
            "offset": ["1/4", "0"],
            "inverse_modulus": {"S": [1, 2], "s": 1},
        })
        sel, spec = f.declared_inverse_moduli[0]
        g = left_inverse_synthesize(f, sel, spec)
        x = _const((1, 1), (-3, 2))
        w = ImageOracle(f, x)
        for r in (3, 7):
            got = _as_fractions(g.evaluate(w, r))
            for value, expect in zip(got, (Fraction(1, 2), Fraction(-3, 4))):
                assert abs(value - expect) <= Fraction(1, 1 << r)

    def test_synthesized_modulus_holds(self):
        f = library_function("scale", {"c": "2"})
        sel, spec = f.declared_inverse_moduli[0]
        g = left_inverse_synthesize(f, sel, spec)
        assert modulus_check(g, spec, samples=120, r_max=5) is None

    def test_search_exhausts_outside_box(self):
        f = library_function("scale", {"c": "2"})
        sel, spec = f.declared_inverse_moduli[0]
        g = left_inverse_synthesize(f, sel, spec, box=(-4, 4))
        distant = _const((4000, 0))
        with pytest.raises(SearchExhaustedError):
            g.evaluate(distant, 3)

    @pytest.mark.parametrize("name, params, certificate, w", [
        # the preimage 2000 lies outside the box: the ellipsoid misses the grid
        ("scale", {"c": "2"}, None, _const((4000, 0))),
        # x -> (x, x) comes nowhere near (0, 4): the ellipsoid is empty, N < 0
        ("affine", {"matrix": [["1"], ["1"]], "offset": ["0", "0"]},
         (SSelector(1, (1,)), linear_modulus(0)), _const((0, 0), (4, 0))),
    ], ids=["preimage-outside-box", "off-the-image"])
    def test_empty_start_box_exhausts_at_once(self, bounds, name, params,
                                              certificate, w):
        # a start box with a side of 0 would never split down to side 1, so
        # the heap starts empty and the search gives up before bounding a box
        f = library_function(name, params)
        sel, spec = certificate or f.declared_inverse_moduli[0]
        g = left_inverse_synthesize(f, sel, spec, box=(-4, 4))
        for r in (0, 3, 9):
            del bounds[:]
            with pytest.raises(SearchExhaustedError, match=r"no candidate in \(-4, 4\)"):
                g.evaluate(w, r)
            assert bounds == []

    def test_singular_map_searches_the_whole_grid(self):
        # every (x1, x2) with x1 + x2 near 1 is accepted: steps^T steps is
        # singular, the acceptors fill a strip across the grid, and the
        # lex-least of them sits where the strip leaves the top of the grid
        f = library_function("sum", {"n": 2})
        g = left_inverse_synthesize(f, SSelector(2, (1, 2)), linear_modulus(1),
                                    box=(-4, 4))
        got = g.evaluate(_const((1, 0)), 0)
        assert _as_fractions(got) == (Fraction(-51, 16), Fraction(63, 16))

    def test_function_without_linear_core_refused(self):
        with pytest.raises(ValueError, match="hilbert2d has no linear core"):
            left_inverse_synthesize(library_function("hilbert2d"),
                                    SSelector(1, (1,)), linear_modulus(0))

    def test_empty_selector_refused(self):
        # with no coordinate to recover there is no search box to split, so
        # the inverse is refused when it is built, not when first evaluated
        with pytest.raises(ValueError, match="empty selector"):
            left_inverse_synthesize(library_function("sum", {"n": 2}),
                                    SSelector(2, ()), linear_modulus(1))

    def test_affine_search_pops_few_boxes(self, monkeypatch):
        # criterion 10's 33 affine inputs at r = 20: from the bounding box of
        # the acceptor ellipsoid the search pops 561 boxes; from the whole
        # grid it popped 7,877, and the prune by the forward modulus 42,873
        f = library_function("affine", {
            "matrix": [["1", "1/2"], ["0", "1"]], "offset": ["1/4", "0"],
            "inverse_modulus": {"S": [1, 2], "s": 1},
        })
        sel, spec = f.declared_inverse_moduli[0]
        g = left_inverse_synthesize(f, sel, spec)
        rng = random.Random(42)
        points = []
        for trial in range(100):
            a = rng.randrange(-100 << 10, 100 << 10)
            b = rng.randrange(-100 << 10, 100 << 10)
            if trial % 3 == 2:
                points.append((a, b))
        pops = 0
        pop = heapq.heappop

        def counting(heap):
            nonlocal pops
            pops += 1
            return pop(heap)

        monkeypatch.setattr(functions.heapq, "heappop", counting)
        for a, b in points:
            got = g.evaluate(ImageOracle(f, _const((a, 10), (b, 10))), 20)
            want = (Fraction(a, 1 << 10), Fraction(b, 1 << 10))
            assert all(abs(v - x) <= Fraction(1, 1 << 20)
                       for v, x in zip(_as_fractions(got), want))
        assert len(points) == 33
        assert pops <= 10_000

    def test_criterion_10_trials_bound_pinned_boxes(self, bounds):
        # every box bounded over criterion 10's seeded trials at r = 0..20:
        # starting at the bounding box of the acceptor ellipsoid, the search
        # bounds this many; starting at the whole grid it bounded 158,524
        f2 = library_function("scale", {"c": "2"})
        fs = library_function("sum", {"n": 2})
        fa = library_function("affine", {
            "matrix": [["1", "1/2"], ["0", "1"]], "offset": ["1/4", "0"],
            "inverse_modulus": {"S": [1, 2], "s": 1},
        })
        g2 = left_inverse_synthesize(f2, *f2.declared_inverse_moduli[0])
        gs = left_inverse_synthesize(fs, SSelector(2, (1,)), linear_modulus(1))
        ga = left_inverse_synthesize(fa, *fa.declared_inverse_moduli[0])
        rng = random.Random(42)
        trials = []
        for trial in range(100):
            a = rng.randrange(-100 << 10, 100 << 10)
            b = rng.randrange(-100 << 10, 100 << 10)
            if trial % 3 == 0:
                trials.append((g2, ImageOracle(f2, _const((a, 10)))))
            elif trial % 3 == 1:
                trials.append((gs, ProductOracle(ImageOracle(fs, _const((a, 10), (b, 10))),
                                                 _const((b, 10)))))
            else:
                trials.append((ga, ImageOracle(fa, _const((a, 10), (b, 10)))))
        for g, w in trials:
            for r in range(21):
                g.evaluate(w, r)
        assert len(bounds) == 19_657

    def test_core_and_evaluator_disagreeing_raises(self):
        # the core says -2x while the evaluator computes 2x: the search finds
        # -5/8 for the image 5/4 of 5/8, and the evaluator refuses it
        f = library_function("scale", {"c": "2"})
        wrong = dataclasses.replace(f, linear=library_function("scale", {"c": "-2"}).linear)
        sel, spec = f.declared_inverse_moduli[0]
        g = left_inverse_synthesize(wrong, sel, spec)
        with pytest.raises(RuntimeError, match="evaluator does not"):
            g.evaluate(ImageOracle(f, _const((5, 3))), 4)

    def test_too_steep_forward_modulus_rejected(self):
        f = library_function("scale", {"c": "4"})
        sel, spec = f.declared_inverse_moduli[0]
        g = left_inverse_synthesize(f, sel, spec)
        w = ImageOracle(f, _const((1, 1)))
        with pytest.raises(ValueError):
            g.evaluate(w, 2)
