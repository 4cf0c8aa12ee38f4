"""Mutual information profiles and the slope-based dimension estimator."""

import gc
import weakref

import pytest

from mdimlab import constants as C
from mdimlab.codec import DYADIC_ZERO, DyadicRational, RationalPoint
from mdimlab.complexity import compressor_backend, exact_machine, point_columns
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
    def test_empty_string_shares_nothing(self):
        be = compressor_backend()
        p = "0110100110010110" * 8
        assert mutual_info(p, "", be) == 0
        assert mutual_info("", p, be) == 0

    def test_self_information_positive_for_structured(self):
        be = compressor_backend()
        p = "01" * 256
        assert mutual_info(p, p, be) > 0

    def test_exact_backend_zero_output(self):
        be = exact_machine(BOUNDS)
        assert mutual_info("0", "0", be) == 0


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


class TestGridMutual:
    def test_compressor_identity_nonnegative(self):
        be = compressor_backend()
        x = make_oracle(D12)
        assert i_r(x, x, 1024, be) >= 0

    def test_compressor_symmetric(self):
        be = compressor_backend()
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        assert i_r(x, y, 2048, be) == i_r(y, x, 2048, be)

    def test_pair_complexity_subadditive(self):
        be = compressor_backend()
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        from mdimlab.complexity import k_r

        assert (k_r_pair(x, y, 1024)
                <= k_r(x, 1024, be) + k_r(y, 1024, be) + C.JOINT_FLAG_BITS)

    def test_exact_backend_frozen(self):
        be = exact_machine(BOUNDS)
        zero = _const(0, 0)
        half = _const(1, 1)
        assert [i_r(zero, zero, r, be) for r in range(3)] == [0, 12, 12]
        assert [i_r(zero, half, r, be) for r in range(3)] == [0, 0, 0]
        assert [j_r(zero, zero, r, be) for r in range(3)] == [12, 12, 12]
        assert [j_r(half, half, r, be) for r in range(3)] == [12, 16, 16]

    def test_j_r_needs_exact_backend(self):
        with pytest.raises(ValueError):
            j_r(_const(0, 0), _const(0, 0), 1, compressor_backend())


class TestReferenceRatio:
    def test_frozen_values(self):
        assert round(reference_ratio(1024), 6) == 1.297852
        assert round(reference_ratio(65536), 6) == 1.166153

    def test_positive_and_bounded(self):
        for length in (1024, 4096, 16384, 65536):
            assert 1.0 < reference_ratio(length) < 1.5


class TestDimEstimate:
    def test_window_overrides_grid(self):
        est = dim_estimate(make_oracle(D12), window=SHORT)
        assert est.r_grid == SHORT
        assert len(est.k_values) == len(SHORT)

    def test_envelope_ordering(self):
        est = dim_estimate(make_oracle(D12), window=SHORT)
        assert est.lo <= est.hi

    def test_diluted_half_frozen(self):
        est = dim_estimate(make_oracle(D12))
        assert round(est.lo, 6) == 0.543880
        assert round(est.hi, 6) == 0.571645

    def test_rational_quarter_frozen(self):
        est = dim_estimate(make_oracle({"kind": "rational",
                                        "values": ["1/4"]}))
        assert round(est.lo, 6) == 0.032776
        assert round(est.hi, 6) == 0.075155


class TestMdimEstimate:
    def test_self_pair_frozen(self):
        x = make_oracle(D12)
        prof = mdim_estimate(x, x)
        assert round(prof.slope_lo, 6) == 0.522884
        assert round(prof.slope_hi, 6) == 0.523540

    def test_rows_schema(self):
        x = make_oracle(D12)
        prof = mdim_estimate(x, x, window=SHORT)
        rows = prof.rows()
        assert len(rows) == len(SHORT)
        assert set(rows[0]) == {"r", "i_r", "k_r_x", "k_r_y", "k_r_xy"}
        for row, r in zip(rows, SHORT):
            assert row["r"] == r
            assert row["i_r"] == (row["k_r_x"] + row["k_r_y"]
                                  - row["k_r_xy"])


class TestKrMemo:
    def test_memo_does_not_keep_oracles_alive(self):
        x = make_oracle(D12)
        ref = weakref.ref(x)
        dim_estimate(x)
        mdim_estimate(x, x)
        del x
        gc.collect()
        assert ref() is None
