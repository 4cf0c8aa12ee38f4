"""Dictionary-compressor cost model tests.

The reference values were parsed by hand: each phrase is charged
ceil-log of the dictionary size plus one bit, and a dangling partial
phrase at the end of input is charged like a finished one.
"""

import math
import re
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdimlab.compressor import (
    Lz78Parser,
    _cost_of,
    _stop,
    conditional_cost,
    lz78_cost,
)

HAND_PARSED = [
    ("", 0, []),
    ("0", 1, ["0"]),
    ("1", 1, ["1"]),
    ("01", 3, ["0", "1"]),
    ("0101", 6, ["0", "1", "01"]),
    ("010101", 9, ["0", "1", "01", "01"]),
    ("0000", 6, ["0", "00", "0"]),
    ("1111", 6, ["1", "11", "1"]),
    ("0110", 6, ["0", "1", "10"]),
]

bits_strategy = st.text(alphabet="01", max_size=400)


@pytest.mark.parametrize("bits,cost,phrases", HAND_PARSED)
def test_hand_parsed_costs(bits, cost, phrases):
    assert lz78_cost(bits) == cost
    assert "".join(phrases) == bits
    assert Lz78Parser().feed(bits).phrase_count == len(phrases)


def test_parser_incremental_matches_batch():
    bits = "011010011001011010010110011010"
    parser = Lz78Parser()
    for b in bits:
        parser.feed(b)
    assert parser.cost == lz78_cost(bits)
    assert parser.length == len(bits)


@given(bits_strategy)
def test_cost_nonnegative_and_zero_only_for_empty(bits):
    cost = lz78_cost(bits)
    assert cost >= 0
    assert (cost == 0) == (bits == "")


@given(bits_strategy, st.sampled_from("01"))
def test_cost_monotone_under_extension(bits, extra):
    assert lz78_cost(bits + extra) >= lz78_cost(bits)


@settings(max_examples=50)
@given(bits_strategy, bits_strategy)
def test_conditional_cost_is_chain_difference(context, target):
    expected = lz78_cost(context + target) - lz78_cost(context)
    assert conditional_cost(target, context) == expected
    assert conditional_cost(target, context) >= 0


def test_cost_scales_sublinearly_on_constant_input():
    # m phrases of a unary string cover ~m^2/2 bits
    zeros = "0" * 4096
    assert lz78_cost(zeros) < len(zeros) // 4


def test_feed_rejects_bad_character_before_any_state_change():
    parser = Lz78Parser().feed("0110")
    state = (parser.length, parser.cost, parser.phrase_count)
    # the bytes 0 and 1 are the parse's own bit values, not input bits
    for bad in ("x", chr(0), chr(1), "2", "\u00e9", "\ud800"):
        for bits in ("01" + bad + "1", "1" * 200 + bad + "0" * 100):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                parser.feed(bits)
            assert (parser.length, parser.cost, parser.phrase_count) == state
    # the parse goes on as if the bad string had never been offered
    assert parser.feed("0111").cost == lz78_cost("01100111")


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        lz78_cost("012")


# the cost of the first T phrases, summed one phrase at a time
RUNNING_COST = [0, *accumulate(i.bit_length() + 1 for i in range(1 << 13))]


def _band_sum(count):
    """The cost of ``count`` phrases summed by width: phrase 0 has width 0,
    and the phrases 2^(w-1) .. 2^w - 1 have width w."""
    total = min(count, 1)
    width = 1
    while 1 << (width - 1) < count:
        total += (width + 1) * (min(count, 1 << width) - (1 << (width - 1)))
        width += 1
    return total


def test_closed_cost_matches_the_running_sum():
    assert [_cost_of(t) for t in range(len(RUNNING_COST))] == RUNNING_COST
    assert [_band_sum(t) for t in range(len(RUNNING_COST))] == RUNNING_COST
    for count in (1 << 40) - 1, 1 << 40, (1 << 40) + 1:
        assert _cost_of(count) == _band_sum(count)
    # the phrase opened after 2^40 phrases costs 41 + 1 bits
    assert _cost_of((1 << 40) + 1) - _cost_of(1 << 40) == 42


def _linear_stop(phrases, ceiling):
    for count in range(phrases + 1, len(RUNNING_COST)):
        if RUNNING_COST[count] >= ceiling:
            return count
    return -1


@pytest.mark.parametrize("phrases", [0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 511, 512,
                                     513, 1000, 2047, 2048])
def test_stop_matches_a_linear_search(phrases):
    edges = [RUNNING_COST[1 << w] + d for w in range(12) for d in (-1, 0, 1)]
    ceilings = [0, -1, RUNNING_COST[phrases], RUNNING_COST[phrases] + 1,
                RUNNING_COST[phrases + 1], RUNNING_COST[phrases + 1] + 0.5,
                *edges, 20000, 20000.25, math.inf]
    for ceiling in ceilings:
        assert _stop(phrases, ceiling) == _linear_stop(phrases, ceiling), ceiling
    assert _stop(phrases, -math.inf) == phrases + 1
    assert _stop(phrases, math.nan) == -1
