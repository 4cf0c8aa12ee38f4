"""Mutual information profiles and the slope-based dimension estimator."""

import dataclasses
import gc
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdimlab import constants as C
from mdimlab import mutual
from mdimlab.codec import DYADIC_ZERO, DyadicRational, RationalPoint
from mdimlab.complexity import k_r, k_r_entry, point_columns, point_representation
from mdimlab.compressor import Lz78Parser, lz78_cost
from mdimlab.functions import ImageOracle, library_function
from mdimlab.harness import config_from_mapping, run_suite
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


def _first(rep):
    """A representation as ``k_r_entry`` holds it: (length, integer value,
    frozen parse); the empty one is (0, 0, parse)."""
    return len(rep), int(rep or "0", 2), Lz78Parser().feed(rep).freeze()


def _pair_cost(cols_x, cols_y):
    return pair_cost(_first("".join(cols_x)), _first("".join(cols_y)))


def _state(parser):
    return parser.cost, parser.length, parser.phrase_count


@pytest.fixture
def feeds(monkeypatch):
    """Bits offered to and consumed by any ``Lz78Parser.feed`` from now on,
    one entry per call in each of two lists."""
    offered, consumed = [], []
    feed = Lz78Parser.feed

    def counted_feed(parser, bits, *ceiling):
        before = parser.length
        feed(parser, bits, *ceiling)
        offered.append(len(bits))
        consumed.append(parser.length - before)
        return parser

    monkeypatch.setattr(Lz78Parser, "feed", counted_feed)
    return offered, consumed


@pytest.fixture
def fed_bits(feeds):
    """Lengths of the strings offered to any ``Lz78Parser`` from now on."""
    return feeds[0]


@pytest.fixture
def parsed_bits(feeds):
    """How many bits of each string offered from now on were parsed."""
    return feeds[1]


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
        assert _pair_cost(a, b) == _pair_cost(b, a)

    def test_flag_overhead_on_identical(self):
        cols = point_columns(make_oracle(D12).query(64), 64)
        single = _pair_cost(cols, cols)
        assert single > 0

    # one column against two: the extra column has no partner to
    # difference with
    @example(pair=([""], ["", ""]))
    @example(pair=(["1"], ["1", "0"]))
    @example(pair=(["10110011001110001"], ["10110011001110001", "0" * 17]))
    # two columns against three: the shorter first representation is
    # padded on the right, so its columns meet their partners
    @example(pair=(["11", "01"], ["11", "01", "00"]))
    @given(column_pairs())
    def test_matches_four_layout_reference(self, pair):
        cols_x, cols_y = pair
        assert _pair_cost(cols_x, cols_y) == reference_pair_cost(cols_x, cols_y)
        assert _pair_cost(cols_y, cols_x) == reference_pair_cost(cols_x, cols_y)

    @pytest.mark.parametrize("same", [False, True])
    def test_feeds_only_second_blocks(self, fed_bits, parsed_bits, same):
        a = point_representation(make_oracle(D12).query(64), 64)
        b = point_representation(make_oracle({"kind": "random", "seed": 3, "n": 2})
                                 .query(64), 64)
        if same:
            b = a
        entry_a, entry_b = _first(a), _first(b)
        size_a, size_b = len(a), len(b)
        del fed_bits[:], parsed_bits[:]
        pair_cost(entry_a, entry_b)
        # each order feeds its plain and its differenced second block to
        # copies of the first block's parse; equal arguments try one order
        assert sum(fed_bits) == (2 * size_a if same else 2 * (size_a + size_b))
        if same:
            # the differenced block, all zeros, is parsed whole; the plain
            # one stops once it costs as much
            assert sum(parsed_bits) == 112  # of 144 offered

    def test_passed_parses_are_left_as_they_were(self):
        a = point_representation(make_oracle(D12).query(64), 64)
        b = point_representation(make_oracle({"kind": "random", "seed": 3, "n": 1})
                                 .query(64), 64)
        entry_a, entry_b = _first(a), _first(b)
        first_a, first_b = entry_a[2], entry_b[2]
        before = _state(first_a), _state(first_b)
        pair_cost(entry_a, entry_b)
        pair_cost(entry_a, entry_a)
        assert (_state(first_a), _state(first_b)) == before
        # and the memo's parses, after a whole estimate goes on from them
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        held = [k_r_entry(o, r)[2] for o in (x, y) for r in SHORT]
        states = [_state(parser) for parser in held]
        mdim_estimate(x, y, SHORT)
        mdim_estimate(x, x, SHORT)
        assert [k_r_entry(o, r)[2] for o in (x, y) for r in SHORT] == held
        assert [_state(parser) for parser in held] == states

    def test_warm_k_r_pair_feeds_no_first_block(self, fed_bits, parsed_bits):
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 2})
        r = 1024
        k_r(x, r), k_r(y, r)
        del fed_bits[:]
        k_r_pair(x, y, r)
        size_x = len(point_representation(x.query(r), r))
        size_y = len(point_representation(y.query(r), r))
        assert sum(fed_bits) == 2 * (size_x + size_y)
        # equal arguments: the plain layout stops once it cannot win
        del fed_bits[:], parsed_bits[:]
        k_r_pair(x, x, r)
        assert sum(fed_bits) == 2 * size_x == 2064
        assert sum(parsed_bits) == 1325


def test_default_mdim_run_offers_and_parses_pinned_bits(feeds):
    # every feed of one default ``mdim`` run, reference parses included;
    # the consumed count holds only if runs of one bit, parsed a phrase at
    # a time, add to ``length`` exactly what the bit loop would
    reference_ratio.cache_clear()
    run_suite(config_from_mapping({"suite": "mdim"}))
    offered, consumed = feeds
    assert (sum(offered), sum(consumed)) == (3_967_488, 3_398_351)


class TestGridMutual:
    def test_compressor_identity_nonnegative(self):
        x = make_oracle(D12)
        assert mdim_estimate(x, x, (1024, 2048)).values[0] >= 0

    def test_compressor_symmetric(self):
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        window = (1024, 2048)
        assert (mdim_estimate(x, y, window).values
                == mdim_estimate(y, x, window).values)

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
        assert len(est.values) == len(SHORT)

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
        assert round(prof.lo, 6) == 0.522884
        assert round(prof.hi, 6) == 0.523540

    def test_three_term_identity(self):
        # i_r = K_r(x) + K_r(y) - K_r(x, y) at every grid precision, on an
        # unequal pair so that a value which drops or repeats a term fails
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        prof = mdim_estimate(x, y, SHORT)
        assert prof.r_grid == tuple(SHORT)
        for j, r in enumerate(SHORT):
            assert prof.values[j] == k_r(x, r) + k_r(y, r) - k_r_pair(x, y, r)


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


def reference_k_r(x, r):
    """Unmemoized K_r: a fresh parse of the whole representation."""
    return lz78_cost(point_representation(x.query(r), r))


def reference_i_r(x, y, r):
    """Unmemoized K_r(x) + K_r(y) - K_r(x, y), each a fresh parse."""
    pair = reference_pair_cost(point_columns(x.query(r), r),
                               point_columns(y.query(r), r))
    return reference_k_r(x, r) + reference_k_r(y, r) - pair


# oracles whose representations nest across the grid, and oracles whose do
# not: two coordinates do not nest, a negated random stream re-rounds at
# every precision, and a negated diluted one nests only at the grid's bottom
MEMO_ORACLES = {
    "random-1d": lambda: make_oracle({"kind": "random", "seed": 7, "n": 1}),
    "diluted": lambda: make_oracle(D12),
    "rational": lambda: make_oracle({"kind": "rational", "values": ["1/3"]}),
    "constant": lambda: make_oracle({"kind": "constant", "coords": ["-3/8"]}),
    "random-2d": lambda: make_oracle({"kind": "random", "seed": 3, "n": 2}),
    "scale-1": lambda: ImageOracle(
        library_function("scale", {"c": "-1"}),
        make_oracle({"kind": "random", "seed": 7, "n": 1})),
    "scale-1-diluted": lambda: ImageOracle(
        library_function("scale", {"c": "-1"}), make_oracle(D12)),
}
_REFERENCE = {}


def _reference(name, r):
    if (name, r) not in _REFERENCE:
        _REFERENCE[name, r] = reference_k_r(MEMO_ORACLES[name](), r)
    return _REFERENCE[name, r]


def _counting_queries(oracle):
    """The precisions an oracle is asked for from now on."""
    asked = []
    query = oracle.query

    def counted(r):
        asked.append(r)
        return query(r)

    oracle.query = counted
    return asked


grid_requests = st.permutations(C.COMPRESSOR_GRID).flatmap(
    lambda order: st.integers(1, len(order)).map(lambda k: order[:k]))


class TestKrMemo:
    @pytest.mark.parametrize("window", [(1024, 2048, 4096), (1536, 4096)])
    def test_memo_matches_direct_k_r(self, window):
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        for _ in range(2):  # the second pass is answered from the memo
            for oracle in (x, y):
                est = dim_estimate(oracle, window)
                assert est.values == tuple(reference_k_r(oracle, r)
                                           for r in window)
            prof = mdim_estimate(x, y, window)
            assert prof.values == tuple(reference_i_r(x, y, r) for r in window)
            for r in window:
                assert k_r(x, r) == reference_k_r(x, r)
                assert k_r(y, r) == reference_k_r(y, r)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(MEMO_ORACLES)), grid_requests)
    def test_any_request_order_matches_the_reference(self, name, requests):
        x = MEMO_ORACLES[name]()
        for _ in range(2):  # the second pass is answered from the memo
            assert [k_r(x, r) for r in requests] == [
                _reference(name, r) for r in requests]

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(["scale-1", "scale-1-diluted"]), grid_requests)
    def test_an_image_is_queried_once_per_new_precision(self, name, requests):
        # an image query evaluates f again, so a continued parse must not
        # ask for the precision it goes on from
        x = MEMO_ORACLES[name]()
        asked = _counting_queries(x)
        for _ in range(2):
            for r in requests:
                k_r(x, r)
        assert asked == list(requests)

    @pytest.mark.parametrize("spec", [("scale", {"c": "-1"}),
                                      ("hilbert2d", {})])
    def test_an_image_is_evaluated_once_per_precision(self, spec):
        # k_r and the pair coder both read each precision's image point,
        # the pair coder from the memo, so ``ImageOracle`` keeps no answer
        f = library_function(*spec)
        evaluated = []

        def counted(x, r):
            evaluated.append(r)
            return f.evaluator(x, r)

        counted_f = dataclasses.replace(f, evaluator=counted)
        y = make_oracle({"kind": "random", "seed": 7, "n": 1})
        prof = mdim_estimate(ImageOracle(counted_f, make_oracle(D12)), y, SHORT)
        assert evaluated == list(SHORT)
        assert prof == mdim_estimate(ImageOracle(f, make_oracle(D12)), y, SHORT)

    def test_mdim_estimate_queries_each_oracle_once_per_precision(self):
        # the pair coder reads each representation from the memo instead
        # of asking the oracle for its point again
        x = make_oracle(D12)
        y = make_oracle({"kind": "random", "seed": 7, "n": 2})
        image = ImageOracle(library_function("scale", {"c": "-1"}),
                            make_oracle(D12))
        asked = [_counting_queries(o) for o in (x, y, image)]
        mdim_estimate(x, y, SHORT)
        mdim_estimate(image, y, SHORT)
        assert asked == [list(SHORT)] * 3

    @pytest.mark.parametrize("name", sorted(MEMO_ORACLES))
    @pytest.mark.parametrize("start", [1, 3, 5])
    def test_windows_above_the_bottom_match_the_reference(self, name, start):
        window = C.COMPRESSOR_GRID[start:]
        x = MEMO_ORACLES[name]()
        est = dim_estimate(x, window)
        assert est.values == tuple(_reference(name, r) for r in window)

    @pytest.mark.parametrize("name, nests", [("diluted", True),
                                             ("random-2d", False)])
    def test_nested_representations_are_parsed_once(self, fed_bits, name,
                                                    nests):
        x = MEMO_ORACLES[name]()
        sizes = [len(point_representation(x.query(r), r))
                 for r in C.COMPRESSOR_GRID]
        del fed_bits[:]
        for r in C.COMPRESSOR_GRID:
            k_r(x, r)
        assert sum(fed_bits) == (sizes[-1] if nests else sum(sizes))

    def test_a_parse_goes_on_from_the_nearest_lower_precision(self, fed_bits):
        # asked below the highest precision held, a parse goes on from the
        # nearest lower entry: none at 1024, then 1024 and 2048
        x = make_oracle(D12)
        for r in (65536, 1024, 2048, 4096):
            k_r(x, r)
        assert fed_bits == [65_544, 1_032, 1_024, 2_048]
        assert [k_r(x, r) for r in (1024, 2048, 4096, 65536)] == [
            _reference("diluted", r) for r in (1024, 2048, 4096, 65536)]

    def test_threads_share_one_oracle_memo(self):
        # four threads ask one oracle, and two equal constant oracles built
        # apart, which share one memo, for the grid in shuffled orders,
        # switching often; every entry held is what a fresh parse gives
        oracles = (make_oracle(D12), _const(-3, 3), _const(-3, 3))
        orders = [random.Random(seed).sample(C.COMPRESSOR_GRID,
                                             len(C.COMPRESSOR_GRID))
                  for seed in range(4)]
        start = threading.Barrier(len(orders), timeout=60)

        def ask(order):
            start.wait()
            for r in order:
                for oracle in oracles:
                    k_r_entry(oracle, r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                list(pool.map(ask, orders))
        finally:
            sys.setswitchinterval(interval)
        for oracle in oracles:
            for r in C.COMPRESSOR_GRID:
                n, value, parser = k_r_entry(oracle, r)
                text = point_representation(oracle.query(r), r)
                assert (n, value, parser.cost) == (
                    len(text), int(text, 2), lz78_cost(text)), r

    def test_memo_does_not_keep_oracles_alive(self):
        x = make_oracle(D12)
        ref = weakref.ref(x)
        dim_estimate(x, C.COMPRESSOR_GRID)
        mdim_estimate(x, x, C.COMPRESSOR_GRID)
        del x
        gc.collect()
        assert ref() is None
