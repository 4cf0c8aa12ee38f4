"""Mutual information profiles and the slope-based dimension estimator."""

import gc
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mdimlab import constants as C
from mdimlab import mutual
from mdimlab.codec import DYADIC_ZERO, DyadicRational, RationalPoint
from mdimlab.complexity import k_r, point_columns
from mdimlab.compressor import Lz78Parser, lz78_cost
from mdimlab.machine import MachineConfig
from mdimlab.mutual import (
    dim_estimate,
    i_r,
    j_r,
    k_r_pair,
    mdim_estimate,
    mutual_info,
    pair_cost,
    reference_ratio,
)
from mdimlab.oracles import ConstantOracle, make_oracle

BOUNDS = MachineConfig(C.BOUNDS_MAX_PROGRAM_LEN, C.BOUNDS_STEP_BUDGET)
D12 = {"kind": "diluted", "seed": 7, "rho": "1/2", "n": 1}
SHORT = (1024, 2048, 4096, 8192)


def _const(num, exp):
    return ConstantOracle(RationalPoint((DyadicRational(num, exp),)))


class TestStringMutualInfo:
    def test_exact_backend_zero_output(self):
        assert mutual_info("0", "0", BOUNDS) == 0


def reference_pair_cost(cols_x, cols_y):
    """All four joint layouts, each costed by a parse of the whole string."""

    def layouts(a, b):
        yield "".join(a) + "".join(b)
        diffed = [
            "".join(str(int(p) ^ int(q)) for p, q in zip(col, a[i]))
            if i < len(a) else col
            for i, col in enumerate(b)
        ]
        yield "".join(a) + "".join(diffed)

    return C.JOINT_FLAG_BITS + min(
        lz78_cost(layout)
        for pair in ((cols_x, cols_y), (cols_y, cols_x))
        for layout in layouts(*pair)
    )


def _column(width):
    return st.one_of(
        st.text(alphabet="01", min_size=width, max_size=width),
        st.lists(st.sampled_from("0000000001"), min_size=width,
                 max_size=width).map("".join),
    )


@st.composite
def column_pairs(draw):
    # every column of a point has the same width, as in point_columns
    width = draw(st.sampled_from([0, 1]) | st.integers(min_value=2, max_value=96))
    cols_x = draw(st.lists(_column(width), min_size=1, max_size=3))
    if draw(st.booleans()):
        return cols_x, list(cols_x)
    return cols_x, draw(st.lists(_column(width), min_size=1, max_size=3))


class TestPairCost:
    def test_swap_symmetric(self):
        a = point_columns(make_oracle(D12).query(64), 64)
        b = point_columns(make_oracle({"kind": "random", "seed": 3, "n": 1})
                          .query(64), 64)
        assert pair_cost(a, b) == pair_cost(b, a)

    def test_flag_overhead_on_identical(self):
        cols = point_columns(make_oracle(D12).query(64), 64)
        single = pair_cost(cols, cols)
        assert single > 0

    # one column against two: the extra column has no partner to
    # difference with
    @example(pair=([""], ["", ""]))
    @example(pair=(["1"], ["1", "0"]))
    @example(pair=(["10110011001110001"], ["10110011001110001", "0" * 17]))
    @given(column_pairs())
    def test_matches_four_layout_reference(self, pair):
        cols_x, cols_y = pair
        assert pair_cost(cols_x, cols_y) == reference_pair_cost(cols_x, cols_y)
        assert pair_cost(cols_y, cols_x) == reference_pair_cost(cols_x, cols_y)

    @pytest.mark.parametrize("same", [False, True])
    def test_each_first_block_is_parsed_once(self, monkeypatch, same):
        fed = []
        feed = Lz78Parser.feed

        def counted_feed(parser, bits):
            fed.append(len(bits))
            return feed(parser, bits)

        monkeypatch.setattr(Lz78Parser, "feed", counted_feed)
        a = point_columns(make_oracle(D12).query(64), 64)
        b = point_columns(make_oracle({"kind": "random", "seed": 3, "n": 2})
                          .query(64), 64)
        if same:
            b = list(a)
        size_a, size_b = len("".join(a)), len("".join(b))
        pair_cost(a, b)
        # each order: its first block once, then the plain and the
        # differenced second block; equal arguments try one order only
        assert sum(fed) == (3 * size_a if same else 3 * (size_a + size_b))


class TestGridMutual:
    def test_compressor_identity_nonnegative(self):
        x = make_oracle(D12)
        assert mdim_estimate(x, x, (1024, 2048)).i_values[0] >= 0

    def test_compressor_symmetric(self):
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        window = (1024, 2048)
        assert (mdim_estimate(x, y, window).i_values
                == mdim_estimate(y, x, window).i_values)

    def test_pair_complexity_subadditive(self):
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        assert (k_r_pair(x, y, 1024)
                <= k_r(x, 1024) + k_r(y, 1024) + C.JOINT_FLAG_BITS)

    def test_exact_backend_frozen(self):
        zero = _const(0, 0)
        half = _const(1, 1)
        assert [i_r(zero, zero, r, BOUNDS) for r in range(3)] == [0, 12, 12]
        assert [i_r(zero, half, r, BOUNDS) for r in range(3)] == [0, 0, 0]
        assert [j_r(zero, zero, r, BOUNDS) for r in range(3)] == [12, 12, 12]
        assert [j_r(half, half, r, BOUNDS) for r in range(3)] == [12, 16, 16]


class TestReferenceRatio:
    def test_frozen_values(self):
        assert round(reference_ratio(1024), 6) == 1.297852
        assert round(reference_ratio(65536), 6) == 1.166153

    def test_positive_and_bounded(self):
        for length in (1024, 4096, 16384, 65536):
            assert 1.0 < reference_ratio(length) < 1.5


class TestDimEstimate:
    def test_window_overrides_grid(self):
        est = dim_estimate(make_oracle(D12), SHORT)
        assert est.r_grid == SHORT
        assert len(est.k_values) == len(SHORT)

    def test_envelope_ordering(self):
        est = dim_estimate(make_oracle(D12), SHORT)
        assert est.lo <= est.hi

    def test_diluted_half_frozen(self):
        est = dim_estimate(make_oracle(D12), C.COMPRESSOR_GRID)
        assert round(est.lo, 6) == 0.543880
        assert round(est.hi, 6) == 0.571645

    def test_rational_quarter_frozen(self):
        quarter = make_oracle({"kind": "rational", "values": ["1/4"]})
        est = dim_estimate(quarter, C.COMPRESSOR_GRID)
        assert round(est.lo, 6) == 0.032776
        assert round(est.hi, 6) == 0.075155


class TestMdimEstimate:
    def test_self_pair_frozen(self):
        x = make_oracle(D12)
        prof = mdim_estimate(x, x, C.COMPRESSOR_GRID)
        assert round(prof.slope_lo, 6) == 0.522884
        assert round(prof.slope_hi, 6) == 0.523540

    def test_three_term_identity(self):
        # i_r = K_r(x) + K_r(y) - K_r(x, y) at every grid precision
        x = make_oracle(D12)
        prof = mdim_estimate(x, x, SHORT)
        assert prof.r_grid == tuple(SHORT)
        for j in range(len(SHORT)):
            assert prof.i_values[j] == (prof.k_x_values[j] + prof.k_y_values[j]
                                        - prof.k_xy_values[j])


class TestGridCheck:
    @pytest.mark.parametrize("grid", [(1024, 1024), (2048, 1024),
                                      (1024, 2048, 2048), (1024,)])
    def test_bad_grid_raises_before_any_k_r(self, monkeypatch, grid):
        def unreachable(*args):
            raise AssertionError("K_r computed for an unusable grid")

        monkeypatch.setattr(mutual, "k_r", unreachable)
        monkeypatch.setattr(mutual, "k_r_pair", unreachable)
        x = make_oracle({"kind": "random", "seed": 11, "n": 1})
        with pytest.raises(ValueError, match="grid"):
            dim_estimate(x, grid)
        with pytest.raises(ValueError, match="grid"):
            mdim_estimate(x, x, grid)


class TestKrMemo:
    @pytest.mark.parametrize("window", [(1024, 2048, 4096), (1536, 4096)])
    def test_memo_matches_direct_k_r(self, window):
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        for _ in range(2):  # the second pass is answered from the memo
            for oracle in (x, y):
                est = dim_estimate(oracle, window)
                assert est.k_values == tuple(k_r(oracle, r) for r in window)
            prof = mdim_estimate(x, y, window)
            assert prof.k_x_values == tuple(k_r(x, r) for r in window)
            assert prof.k_y_values == tuple(k_r(y, r) for r in window)

    def test_memo_does_not_keep_oracles_alive(self):
        x = make_oracle(D12)
        ref = weakref.ref(x)
        dim_estimate(x, C.COMPRESSOR_GRID)
        mdim_estimate(x, x, C.COMPRESSOR_GRID)
        del x
        gc.collect()
        assert ref() is None
