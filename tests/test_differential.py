"""Fast paths checked against the slow implementations they replaced.

Each reference below is the straightforward version of a hot path: the
dict-trie LZ78 parser, bit-at-a-time dyadic canonicalization, the
``Fraction`` formulas behind the diluted and rational bit streams, and the
sorted-list prefix check with ``Fraction`` masses over the per-program
enumeration (``machine.enumerate_halting``).  They are kept here, outside
the package, as oracles for differential tests.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdimlab.codec import DyadicRational
from mdimlab.compressor import Lz78Parser
from mdimlab.machine import (
    Enumeration,
    MachineConfig,
    PrefixCheck,
    enumerate_halting,
)
from mdimlab.oracles import diluted_stream, hash_stream, rational_stream


# ---- slow references ---------------------------------------------------------


class DictTrieLz78:
    """LZ78 parse over a list of per-node dicts, one bit per call."""

    def __init__(self):
        self.children = [{}]
        self.node = 0
        self.closed_cost = 0
        self.tokens = 0
        self.length = 0

    def push(self, bit):
        self.length += 1
        child = self.children[self.node].get(bit)
        if child is None:
            self.children[self.node][bit] = len(self.children)
            self.children.append({})
            self.closed_cost += self.tokens.bit_length() + 1
            self.tokens += 1
            self.node = 0
        else:
            self.node = child

    @property
    def cost(self):
        if self.node != 0:
            return self.closed_cost + self.tokens.bit_length() + 1
        return self.closed_cost

    @property
    def phrase_count(self):
        return self.tokens + (1 if self.node != 0 else 0)


def canonical_dyadic(num, exp):
    """(num, exp) of num / 2**exp with trailing zeros stripped one at a time."""
    if exp < 0:
        num, exp = num << -exp, 0
    while exp > 0 and num % 2 == 0:
        num //= 2
        exp -= 1
    return num, exp


def diluted_reference(seed, rho, period, n, lane=0):
    base = hash_stream(seed, lane)
    scaled = rho * period
    out = []
    for j in range(n):
        q, phase = divmod(j, period)
        start = math.floor(q * scaled)
        if phase >= math.floor((q + 1) * scaled) - start:
            out.append("0")
        else:
            out.append(str(base.bit(start + phase)))
    return "".join(out)


def rational_bit_reference(value, i):
    return int(value * (1 << (i + 1))) & 1


def sorted_prefix_violations(programs):
    """Adjacent pairs of the sorted programs where one properly prefixes the next."""
    progs = sorted(programs)
    return sum(b.startswith(a) and a != b for a, b in zip(progs, progs[1:]))


# ---- LZ78 --------------------------------------------------------------------

biased_bits = st.one_of(
    st.text(alphabet="01", max_size=600),
    st.lists(st.sampled_from("0000000001"), max_size=600).map("".join),
)


def _state(parser):
    return parser.cost, parser.length, parser.phrase_count


@settings(max_examples=200)
@given(biased_bits)
def test_lz78_matches_dict_trie_after_every_bit(bits):
    fast, slow = Lz78Parser(), DictTrieLz78()
    assert _state(fast) == _state(slow)
    for bit in bits:
        fast.push(bit)
        slow.push(bit)
        assert _state(fast) == _state(slow)


@settings(max_examples=200)
@given(biased_bits, st.lists(st.integers(min_value=0, max_value=80), max_size=12))
def test_lz78_chunked_feed_matches_dict_trie(bits, cuts):
    fast, slow = Lz78Parser(), DictTrieLz78()
    at = 0
    for cut in cuts + [len(bits)]:
        chunk = bits[at : at + cut]
        at += len(chunk)
        fast.feed(chunk)
        for bit in chunk:
            slow.push(bit)
        assert _state(fast) == _state(slow)
    fast.feed(bits[at:])
    for bit in bits[at:]:
        slow.push(bit)
    assert _state(fast) == _state(slow)


@pytest.mark.parametrize("stream", [
    hash_stream(5),
    diluted_stream(5, Fraction(1, 3), period=256),
    rational_stream(Fraction(5, 7)),
])
def test_lz78_matches_dict_trie_on_long_streams(stream):
    # thousands of phrases, past anything the sampled strings reach
    bits = stream.prefix(1 << 15)
    fast, slow = Lz78Parser(), DictTrieLz78()
    for at in range(0, len(bits), 97):
        chunk = bits[at : at + 97]
        fast.feed(chunk)
        for bit in chunk:
            slow.push(bit)
        assert _state(fast) == _state(slow)


# ---- dyadic canonicalization -----------------------------------------------------


@pytest.mark.parametrize(
    "num,exp",
    [(0, 0), (0, 1), (0, 70), (0, -3), (1, 0), (-1, 5), (-12, 3), (-64, 3),
     (48, 2), (48, 4), (48, 9), (5, -4), (-5, -4), (1 << 200, 150),
     (-(1 << 200), 250), (3 << 90, 91)],
)
def test_canonical_form_edges(num, exp):
    d = DyadicRational(num, exp)
    assert (d.num, d.exp) == canonical_dyadic(num, exp)


@given(
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.integers(min_value=0, max_value=90),
    st.integers(min_value=-40, max_value=200),
)
def test_canonical_form_matches_bitwise_strip(odd_part, zeros, exp):
    num = odd_part << zeros
    d = DyadicRational(num, exp)
    assert (d.num, d.exp) == canonical_dyadic(num, exp)
    assert d.to_fraction() == Fraction(num) / Fraction(2) ** exp


# ---- bit sources ---------------------------------------------------------------


@pytest.mark.parametrize("rho", ["0", "1/3", "1/2", "2/3", "1"])
@pytest.mark.parametrize("period", [1, 3, 7, 64, 2048])
def test_diluted_stream_matches_fraction_formula(rho, period):
    rho = Fraction(rho)
    n = max(4 * period, 600)
    for lane in (0, 1):
        fast = diluted_stream(17, rho, lane=lane, period=period).prefix(n)
        assert fast == diluted_reference(17, rho, period, n, lane)


@pytest.mark.parametrize("value", ["0", "1/3", "5/7", "1/4", "3/8", "22/23",
                                   "1000/1001", "12345/65536"])
def test_rational_stream_matches_fraction_formula(value):
    value = Fraction(value)
    stream = rational_stream(value)
    expected = "".join(str(rational_bit_reference(value, i)) for i in range(300))
    assert stream.prefix(300) == expected
    assert [stream.bit(i) for i in (299, 7, 0, 150)] == [
        rational_bit_reference(value, i) for i in (299, 7, 0, 150)
    ]


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=10_000).flatmap(
        lambda q: st.tuples(st.integers(min_value=0, max_value=q - 1), st.just(q))
    ),
    st.lists(st.integers(min_value=0, max_value=400), max_size=40),
)
def test_rational_source_out_of_order(pq, indices):
    # the source carries a remainder for in-order calls; any other index
    # must still get the right bit, and the in-order walk must recover
    value = Fraction(*pq)
    stream = rational_stream(value)
    source = stream._bit_at
    for i in indices:
        assert source(i) == rational_bit_reference(value, i)
    expected = "".join(str(rational_bit_reference(value, i)) for i in range(64))
    assert stream.prefix(64) == expected


# ---- exhaustive enumeration ----------------------------------------------------


@pytest.mark.parametrize("max_len,budget,given_bits", [
    (16, 1000, ""), (16, 1000, "0110"), (20, 10000, ""), (24, 256, ""),
])
def test_enumeration_matches_per_program_reference(max_len, budget, given_bits):
    cfg = MachineConfig(max_len, budget)
    reference = enumerate_halting(cfg, given_bits)
    expected = {}
    for program, output in reference:
        weight = Fraction(1, 2 ** len(program))
        if output in expected:
            expected[output][2] += weight
        else:
            expected[output] = [len(program), program, weight]
    enum = Enumeration(cfg, given_bits)
    enum.ensure_complete()
    assert enum.halting_count == len(reference)
    assert enum.kraft == sum(Fraction(1, 2 ** len(p)) for p, _ in reference)
    assert {
        output: [info.k, info.witness, Fraction(info.mass_units, 2**max_len)]
        for output, info in enum.outputs.items()
    } == expected
    assert enum.prefix_check.count() == sorted_prefix_violations(
        p for p, _ in reference
    ) == 0


def _prefix_check_count(levels):
    check = PrefixCheck()
    for level in levels:
        check.add_level(level)
    return check.count()


@pytest.mark.parametrize("levels", [
    [["00", "01"], ["010", "011"]],   # "01" prefixes the next run's first
    [["0", "1"], ["01"]],             # overlapping runs
    [["01", "00"]],                   # out of order within a level
    [["0", "01"]],                    # a prefix pair within a level
])
def test_prefix_check_flags_planted_violations(levels):
    assert _prefix_check_count(levels) >= 1


def test_prefix_check_passes_prefix_free_levels():
    assert _prefix_check_count([["1"], ["010", "011"], ["00100", "00111"]]) == 0


@given(st.sets(st.text(alphabet="01", min_size=1, max_size=6), max_size=40))
def test_prefix_check_is_sound(programs):
    # levels by length, as the enumeration feeds them: every prefix pair
    # is flagged, and one sorted level gives exactly the sorted-list count
    by_length = {}
    for program in sorted(programs):
        by_length.setdefault(len(program), []).append(program)
    reference = sorted_prefix_violations(programs)
    if reference:
        assert _prefix_check_count(by_length.values()) >= 1
    assert _prefix_check_count([sorted(programs)]) == reference
