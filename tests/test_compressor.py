"""Dictionary-compressor cost model tests.

The reference values were parsed by hand: each phrase is charged
ceil-log of the dictionary size plus one bit, and a dangling partial
phrase at the end of input is charged like a finished one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdimlab.compressor import (
    Lz78Parser,
    conditional_cost,
    lz78_cost,
    lz78_phrases,
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
    assert lz78_phrases(bits) == phrases


def test_phrases_reassemble_input():
    bits = "0011010111001010110100"
    assert "".join(lz78_phrases(bits)) == bits


def test_parser_incremental_matches_batch():
    bits = "011010011001011010010110011010"
    parser = Lz78Parser()
    for b in bits:
        parser.push(b)
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


@given(bits_strategy)
def test_phrases_cover_input(bits):
    assert "".join(lz78_phrases(bits)) == bits


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
    with pytest.raises(ValueError, match="'x'"):
        parser.feed("01x1")
    assert (parser.length, parser.cost, parser.phrase_count) == state
    # the parse goes on as if the bad string had never been offered
    assert parser.feed("0111").cost == lz78_cost("01100111")


@pytest.mark.parametrize("bad", ["01", "2", "", "x"])
def test_push_rejects_anything_but_one_bit(bad):
    parser = Lz78Parser()
    with pytest.raises(ValueError):
        parser.push(bad)
    assert (parser.length, parser.cost) == (0, 0)


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        lz78_cost("012")
    with pytest.raises(ValueError):
        Lz78Parser().push("2")
