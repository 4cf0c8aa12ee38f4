"""Complexity profiles and the counting/coding bound checkers."""

import pytest

from mdimlab import constants as C
from mdimlab.codec import DYADIC_ZERO, DyadicRational, RationalPoint
from mdimlab.complexity import (
    check_ball_count_bound,
    check_cube_count_bound,
    check_lds_coding_bound,
    check_precision_improvement,
    enumerated_points,
    exact_k_r,
    k_of_precision,
    k_of_set,
    k_r,
    minimizers,
    point_columns,
    point_representation,
)
from mdimlab.geometry import Ball, LdsRecord, dyadic_lds
from mdimlab.machine import MachineConfig
from mdimlab.oracles import ConstantOracle

BOUNDS = MachineConfig(C.BOUNDS_MAX_PROGRAM_LEN, C.BOUNDS_STEP_BUDGET)


def _pt(*fracs):
    return RationalPoint(tuple(DyadicRational(n, e) for n, e in fracs))


class TestBackends:
    def test_precision_k_pins(self):
        for r, pinned in enumerate(C.K_INT):
            assert k_of_precision(r, BOUNDS) == pinned

    def test_point_k_pins(self):
        table = {
            "0": _pt((0, 0)),
            "1/2": _pt((1, 1)),
            "1": _pt((1, 0)),
            "-1": _pt((-1, 0)),
            "(0,0)": _pt((0, 0), (0, 0)),
        }
        for label, point in table.items():
            assert k_of_set([point], BOUNDS) == C.K_POINT[label], label

    def test_k_of_set_min_over_members(self):
        zero = _pt((0, 0))
        half = _pt((1, 1))
        both = k_of_set([zero, half], BOUNDS)
        assert both == min(k_of_set([zero], BOUNDS), k_of_set([half], BOUNDS))

    def test_unreachable_point_is_none(self):
        assert k_of_set([_pt((1, 20))], BOUNDS) is None


class TestProfiles:
    def test_exact_profile_frozen(self):
        half = ConstantOracle(_pt((1, 1)))
        assert ([exact_k_r(half, r, BOUNDS) for r in range(5)]
                == [20, 24, 24, 24, 24])
        zero = ConstantOracle(_pt((0, 0)))
        assert [exact_k_r(zero, r, BOUNDS) for r in range(5)] == [20] * 5

    def test_compressor_profile_nondecreasing_for_constant(self):
        zero = ConstantOracle(_pt((0, 0)))
        values = [k_r(zero, r) for r in (0, 4, 16, 64)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestPointColumns:
    def test_column_shape(self):
        cols = point_columns(_pt((1, 1), (3, 2)), 5)
        assert len(cols) == 2
        assert all(len(col) == C.GUARD_BITS + 5 for col in cols)

    def test_fractional_prefix(self):
        col = point_columns(_pt((1, 1)), 3)[0]
        assert col == "0" * C.GUARD_BITS + "100"

    def test_negative_two_complement(self):
        col = point_columns(_pt((-1, 0)), 2)[0]
        assert col == "1" * C.GUARD_BITS + "00"

    def test_guard_range_enforced(self):
        big = _pt((1 << (C.GUARD_BITS - 1), 0))
        with pytest.raises(ValueError):
            point_columns(big, 4)
        edge = _pt(((1 << (C.GUARD_BITS - 1)) - 1, 0))
        point_columns(edge, 4)

    def test_guard_error_names_the_integer_part(self):
        # a deep coordinate prints as its integer part, not its full fraction
        deep = _pt((-(1000 << 2048) - 1, 2048))
        with pytest.raises(ValueError) as info:
            point_columns(deep, 2048)
        assert "integer part -1001 " in str(info.value)
        assert len(str(info.value)) < 100

    def test_representation_concatenates(self):
        p = _pt((1, 1), (0, 0))
        assert point_representation(p, 4) == "".join(point_columns(p, 4))


class TestMinimizers:
    def test_members_and_floor(self):
        ball = Ball.at_precision(_pt((0, 0)), 1)
        found = minimizers(ball, 30, BOUNDS)
        assert found.k_floor == 20
        assert [q.coords[0].to_fraction() for q in found.members] == [0]

    def test_zero_slack_keeps_floor_only(self):
        ball = Ball.at_precision(_pt((0, 0)), 0)
        wide = minimizers(ball, 30, BOUNDS)
        tight = minimizers(ball, 0, BOUNDS)
        assert set(tight.members) <= set(wide.members)
        assert all(
            k_of_set([q], BOUNDS) == tight.k_floor for q in tight.members
        )


class TestCountingBounds:
    def test_cube_bound_sweep_reproduces_pin(self):
        worst = None
        for r in range(5):
            for d in range(5):
                rep = check_cube_count_bound(r, d, BOUNDS)
                assert rep.lhs <= rep.rhs, (r, d)
                if rep.measured_constant is not None:
                    worst = (rep.measured_constant if worst is None
                             else max(worst, rep.measured_constant))
        assert worst == C.CUBE_COUNT_CONSTANT

    def test_ball_bound_sweep_reproduces_pin(self):
        worst = None
        for r in range(5):
            for d in range(5):
                rep = check_ball_count_bound(r, d, BOUNDS)
                assert rep.lhs <= rep.rhs, (r, d)
                if rep.measured_constant is not None:
                    worst = (rep.measured_constant if worst is None
                             else max(worst, rep.measured_constant))
        assert worst == C.BALL_COUNT_CONSTANT


class TestCodingBound:
    def test_dyadic_lds_holds(self):
        worst = None
        for n in (1, 2):
            lds = dyadic_lds(3, 3, enumerated_points(BOUNDS), n)
            for rep in check_lds_coding_bound(lds, BOUNDS):
                assert rep.lhs <= rep.rhs, rep.name
                if worst is None or rep.measured_constant > worst:
                    worst = rep.measured_constant
        assert worst is not None
        assert worst <= C.LDS_CODING_CONSTANT

    def test_singleton_family_reproduces_pin(self):
        singles = [
            LdsRecord(0, i, frozenset({enc}))
            for i, (_, _, enc) in enumerate(enumerated_points(BOUNDS))
        ]
        worst = None
        for rep in check_lds_coding_bound(singles, BOUNDS):
            assert rep.lhs <= rep.rhs, rep.name
            if worst is None or rep.measured_constant > worst:
                worst = rep.measured_constant
        assert worst == C.LDS_CODING_CONSTANT


class TestPrecisionImprovement:
    def test_sweep_reproduces_pin(self):
        worst = None
        checked = 0
        for point, _, _ in enumerated_points(BOUNDS):
            oracle = ConstantOracle(point)
            for r in range(3):
                for s in range(1, 4):
                    rep = check_precision_improvement(oracle, r, s, BOUNDS)
                    if rep is None:
                        continue
                    checked += 1
                    assert rep.lhs <= rep.rhs, (point, r, s)
                    if worst is None or rep.measured_constant > worst:
                        worst = rep.measured_constant
        assert checked > 0
        assert worst == C.PRECISION_IMPROVEMENT_CONSTANT
