"""Fast paths checked against the slow implementations they replaced.

Each reference below is the straightforward version of a hot path: the
dict-trie LZ78 parser, bit-at-a-time dyadic canonicalization, the
``Fraction`` formulas behind the diluted and rational bit streams, the
brute-force minimum over every index of a left-inverse search box, the
sorted-list prefix check with ``Fraction`` masses over the per-program
enumeration (``machine.enumerate_halting``), every payload of a
straight-line class run through ``machine._execute``, and the full 3**n
candidate scans behind the lattice point and the cube cover of a ball.  They are
kept here, outside the package, as oracles for differential tests.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdimlab import functions, suite_geometry
from mdimlab.codec import DyadicRational, RationalPoint, distance_sq, distance_sq_parts
from mdimlab.compressor import Lz78Parser
from mdimlab.functions import (
    ModulusSpec,
    SSelector,
    _box_gap_sq,
    affine_function,
    curve_digits,
    hilbert2d_function,
    identity_function,
    interleave,
    left_inverse_synthesize,
    library_function,
    linear_modulus,
    projection_function,
    scale_function,
    sum_function,
)
from mdimlab.geometry import (
    Ball,
    DyadicCube,
    ceil_half_log2,
    cube_containing,
    cubes_intersecting_ball,
    lattice_point_in_ball,
)
from mdimlab.machine import (
    Enumeration,
    MachineConfig,
    PrefixCheck,
    _execute,
    _straight_walk,
    enumerate_halting,
)
from mdimlab.oracles import (
    ConstantOracle,
    diluted_stream,
    hash_stream,
    rational_stream,
)


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


def distance_sq_reference(p, q):
    return sum((a.to_fraction() - b.to_fraction()) ** 2
               for a, b in zip(p.coords, q.coords))


def closure_distance_sq_reference(cube, p):
    side = 1 << cube.precision
    total = Fraction(0)
    for c, m in zip(p.coords, cube.index):
        v = c.to_fraction()
        lo = Fraction(m, side)
        hi = Fraction(m + 1, side)
        if v < lo:
            total += (lo - v) ** 2
        elif v > hi:
            total += (v - hi) ** 2
    return total


def lattice_point_reference(ball):
    """Round the center to the lattice with ``Fraction``; keep the nearest of 3**n."""
    n = ball.dimension
    s = ball.precision + ceil_half_log2(n)
    center = [c.to_fraction() for c in ball.center.coords]
    rounded = [math.floor(c * (1 << s) + Fraction(1, 2)) for c in center]
    step = Fraction(1, 1 << s)
    rad_sq = ball.radius**2
    best = None
    for offset in itertools.product((-1, 0, 1), repeat=n):
        idx = tuple(m + o for m, o in zip(rounded, offset))
        d = sum((m * step - c) ** 2 for m, c in zip(idx, center))
        if d < rad_sq and (best is None or (d, idx) < best):
            best = (d, idx)
    return RationalPoint(tuple(DyadicRational(m, s) for m in best[1]))


def cover_reference(ball):
    """Scan the 3**n neighbours of the center's cube; keep the indices of the
    hits in product order."""
    r = ball.precision
    base = cube_containing(ball.center, r)
    rad_sq = ball.radius**2
    hits = []
    for offset in itertools.product((-1, 0, 1), repeat=ball.dimension):
        cube = DyadicCube(r, tuple(m + o for m, o in zip(base.index, offset)))
        if closure_distance_sq_reference(cube, ball.center) < rad_sq:
            hits.append(cube.index)
    return hits


def lex_first_acceptor(f, sel, m_prime, box, w, r):
    """The left inverse's answer by scanning every grid point in index order."""
    target_gap = m_prime.value(r)
    p = target_gap + 3
    pitch_gap = f.declared_modulus.value(target_gap + 2)
    observed = w.query(p)
    z = RationalPoint(observed.coords[: f.k])
    y = observed.coords[f.k :]
    lo, hi = box
    accept_sq = Fraction(1, 1 << (2 * (target_gap + 1)))
    cells = (hi - lo) << pitch_gap
    for indices in itertools.product(range(cells), repeat=len(sel.positions)):
        q = tuple(DyadicRational((lo << pitch_gap) + i, pitch_gap) for i in indices)
        image = f.evaluate(ConstantOracle(RationalPoint(interleave(q, sel, y))), p)
        if distance_sq_reference(image, z) <= accept_sq:
            return RationalPoint(q)
    return None


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


def _dict_trie_of(bits):
    slow = DictTrieLz78()
    for bit in bits:
        slow.push(bit)
    return slow


@settings(max_examples=200)
@given(biased_bits, biased_bits, biased_bits)
def test_lz78_copy_forks_an_independent_parse(a, b, c):
    original = Lz78Parser().feed(a)
    fork = original.copy()
    assert _state(fork) == _state(original)
    assert _state(fork.feed(b)) == _state(_dict_trie_of(a + b))
    # the fork's growth leaves the original at a, and the original goes on
    # as if it had never been copied
    assert _state(original) == _state(_dict_trie_of(a))
    assert _state(original.feed(c)) == _state(_dict_trie_of(a + c))
    assert _state(fork) == _state(_dict_trie_of(a + b))


@given(biased_bits)
def test_lz78_copy_of_an_empty_parser(bits):
    empty = Lz78Parser()
    assert _state(empty.copy()) == _state(DictTrieLz78()) == (0, 0, 0)
    assert _state(empty.copy().feed(bits)) == _state(_dict_trie_of(bits))
    assert _state(empty) == (0, 0, 0)


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
    # any index, in any order, gets the digits from it to the end of its block
    value = Fraction(*pq)
    source = rational_stream(value)._block
    for i in indices:
        block = source(i)
        assert (i + len(block)) % 256 == 0
        assert block == "".join(str(rational_bit_reference(value, j))
                                for j in range(i, i + len(block)))


_BLOCK_STREAMS = {
    "hash": lambda lane: hash_stream(9, lane),
    "diluted": lambda rp: diluted_stream(9, Fraction(rp[0]), period=rp[1]),
    "rational": lambda value: rational_stream(Fraction(value)),
}


@pytest.mark.parametrize("kind, arg, size", [
    ("hash", 0, 256),
    ("hash", 1, 256),
    *(("diluted", (rho, period), period)
      for rho in ("0", "1/3", "1") for period in (1, 3, 2048)),
    ("rational", "22/23", 256),
    ("rational", "999999/1000003", 256),
])
def test_source_block_is_a_slice_of_the_prefix(kind, arg, size):
    # a fresh source asked out of order, mid-block and mid-period included,
    # returns the stream's bits up to the next block boundary
    n = 3 * 2048 + 256
    expected = _BLOCK_STREAMS[kind](arg).prefix(n)
    source = _BLOCK_STREAMS[kind](arg)._block
    rng = random.Random(7)
    indices = [n - size - 1, size // 2, size - 1, size, 0]
    indices += rng.sample(range(n - size), 40)
    for i in indices:
        block = source(i)
        assert 0 < len(block) <= size
        assert (i + len(block)) % size == 0
        assert block == expected[i:i + len(block)]


# ---- exhaustive enumeration ----------------------------------------------------


@pytest.mark.parametrize("max_len,budget,given_bits", [
    (16, 1000, ""), (16, 1000, "0110"), (20, 10000, ""), (24, 256, ""),
    (16, 3, ""), (16, 50, ""), (20, 50, ""),
    (16, 1000, "1"), (16, 1000, "01111"), (16, 1000, "011011011"),
    # no level, a single level, and levels shorter than an opcode
    (0, 1, ""), (1, 1, ""), (4, 1, ""), (5, 2, ""),
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
    # outputs keep the order in which the reference first produces them
    assert list(enum.outputs) == list(expected)


@pytest.mark.parametrize("budget", [3, 50, 256, 1000])
def test_straight_classes_expand_to_per_program_runs(budget):
    # one walk over every length up to 14; a leading 1 keeps a payload's
    # length in its integer, the empty one too
    top = 14
    expanded = [[] for _ in range(top + 1)]

    def record(p, first, last, count, output):
        assert len(first) == len(last) == p
        start = int("1" + first, 2)
        assert int("1" + last, 2) - start + 1 == count
        for i in range(start, start + count):
            payload = format(i, "b")[1:]
            assert _execute(payload, "", budget) == output
            expanded[p].append(payload)

    _straight_walk(top, budget, record)
    for p in range(top + 1):
        payloads = (format(i, "b")[1:] for i in range(1 << p, 2 << p))
        assert expanded[p] == [
            payload for payload in payloads
            if _execute(payload, "", budget) is not None
        ]


def test_straight_walk_visits_each_prefix_once():
    # the unconditional (24, 256) enumeration walks its 9,217 instruction
    # prefixes once for all 16 payload lengths; a walk per length made
    # 18,482 visits
    walk_code = next(
        c for c in _straight_walk.__code__.co_consts
        if getattr(c, "co_name", None) == "walk"
    )
    visits = 0

    def profile(frame, event, arg):
        nonlocal visits
        if event == "call" and frame.f_code is walk_code:
            visits += 1

    sys.setprofile(profile)
    try:  # an unconditional enumeration walks when it is built
        enum = Enumeration(MachineConfig(24, 256), "")
    finally:
        sys.setprofile(None)
    assert enum.halting_count == 31672
    assert visits <= 10_000


def _prefix_check_count(levels):
    check = PrefixCheck()
    for level in levels:
        check.add_level((program, program) for program in level)
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


@pytest.mark.parametrize("runs,count", [
    ([("000", "011"), ("100", "101")], 0),
    ([("000", "011"), ("010", "101")], 1),   # overlapping runs
])
def test_prefix_check_compares_runs_at_their_ends(runs, count):
    check = PrefixCheck()
    check.add_level(runs)
    assert check.count() == count


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


# ---- exact geometry and evaluators --------------------------------------------

dyadics = st.builds(DyadicRational, st.integers(-(1 << 40), 1 << 40),
                    st.integers(0, 30))


def _point(coords):
    return RationalPoint(tuple(coords))


@settings(max_examples=300)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.lists(dyadics, min_size=n, max_size=n),
                        st.lists(dyadics, min_size=n, max_size=n))))
def test_distance_sq_matches_fraction_sum(pair):
    p, q = (_point(c) for c in pair)
    assert distance_sq(p, q) == distance_sq_reference(p, q)
    t, e = distance_sq_parts(p, q)
    assert (Fraction(t, 4**e), e) == (distance_sq_reference(p, q),
                                     max(c.exp for c in (*p.coords, *q.coords)))


@settings(max_examples=300)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.integers(0, 20),
                        st.lists(st.integers(-40, 40), min_size=n, max_size=n),
                        st.lists(dyadics, min_size=n, max_size=n))))
def test_closure_distance_matches_fraction_formula(case):
    r, index, coords = case
    cube = DyadicCube(r, tuple(index))
    p = _point(coords)
    assert cube.closure_distance_sq(p) == closure_distance_sq_reference(cube, p)


@settings(max_examples=300)
@given(st.integers(0, 12), st.lists(dyadics, min_size=1, max_size=4))
def test_lattice_point_matches_fraction_reference(r, coords):
    ball = Ball.at_precision(_point(coords), r)
    assert lattice_point_in_ball(ball) == lattice_point_reference(ball)


@settings(max_examples=300)
@given(st.integers(0, 12), st.lists(dyadics, min_size=1, max_size=4))
def test_cube_cover_matches_fraction_scan(r, coords):
    ball = Ball.at_precision(_point(coords), r)
    assert cubes_intersecting_ball(ball) == cover_reference(ball)


# every precision the suites use; a ball's radius is 2**-precision
BALL_PRECISIONS = range(13)
offsets = st.builds(DyadicRational, st.integers(-64, 64), st.integers(0, 8))


def _shifted(c, off):
    return DyadicRational.from_fraction(c.to_fraction() + off.to_fraction())


@settings(max_examples=300)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.lists(dyadics, min_size=n, max_size=n),
                        st.lists(offsets, min_size=n, max_size=n))))
def test_ball_contains_matches_fraction_distance(case):
    # each offset is scaled by the radius, so q lands inside, on and outside
    # the sphere at every precision
    coords, offs = case
    center = _point(coords)
    for r in BALL_PRECISIONS:
        ball = Ball(center, r)
        q = _point(_shifted(c, DyadicRational(o.num, o.exp + r))
                   for c, o in zip(coords, offs))
        assert ball.contains(q) == (distance_sq(q, center) < ball.radius**2)


@given(st.lists(dyadics, min_size=1, max_size=4), st.data())
def test_ball_contains_excludes_the_sphere(coords, data):
    # a point exactly one radius away along an axis is outside the open ball
    axis = data.draw(st.integers(0, len(coords) - 1))
    sign = data.draw(st.sampled_from((1, -1)))
    for r in BALL_PRECISIONS:
        q = list(coords)
        q[axis] = _shifted(q[axis], DyadicRational(sign, r))
        ball = Ball(_point(coords), r)
        assert distance_sq(_point(q), ball.center) == Fraction(1, 1 << (2 * r))
        assert not ball.contains(_point(q))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_geometry_suite_balls_match_references(n):
    # the suite's report reads the same at every seed, so replay its own
    # balls: a lattice point inside the ball but not the lex-first nearest,
    # or a cover of the right size with the wrong cubes, fails here
    rng = random.Random(f"5:axis={n}")
    for _ in range(500):
        ball = suite_geometry._random_ball(rng, n)
        assert lattice_point_in_ball(ball) == lattice_point_reference(ball)
        assert cubes_intersecting_ball(ball) == cover_reference(ball)


def _tie_center(rng, kind, n, r):
    """A center whose every coordinate sits where a comparison can tie.

    A lattice midpoint (2k+1)/2**(s+1) is equally near two lattice points,
    and a cube boundary k/2**r is at distance 0 from one neighbour cube and
    exactly 2**-r from the next, the open ball's radius.
    """
    s = r + ceil_half_log2(n)
    coords = []
    for _ in range(n):
        axis = rng.choice(("midpoint", "boundary")) if kind == "mixed" else kind
        if axis == "midpoint":
            coords.append(DyadicRational(2 * rng.randrange(-64, 64) + 1, s + 1))
        else:
            coords.append(DyadicRational(rng.randrange(-64, 64), r))
    return _point(coords)


@pytest.mark.parametrize("kind", ["midpoint", "boundary", "mixed"])
def test_geometry_tie_cases_match_references(kind):
    rng = random.Random(f"ties:{kind}")
    for _ in range(600):
        n = rng.randrange(1, 5)
        r = rng.randrange(0, 13)
        ball = Ball.at_precision(_tie_center(rng, kind, n, r), r)
        assert lattice_point_in_ball(ball) == lattice_point_reference(ball)
        assert cubes_intersecting_ball(ball) == cover_reference(ball)


@pytest.mark.parametrize("matrix,offset,x", [
    ((["1", "1/2"], ["0", "1"]), ["1/4", "0"], ("3/8", "-5/16")),
    ((["3/4", "-1/4"],), ["1/2"], ("1", "1/8")),
    ((["-3", "1/1024"], ["0", "7/2"]), ["-1", "3/4"], ("0", "-1/8")),
])
def test_affine_evaluator_matches_fraction_formula(matrix, offset, x):
    rows = [[Fraction(v) for v in row] for row in matrix]
    shift = [Fraction(v) for v in offset]
    f = affine_function(rows, shift)
    point = _point(DyadicRational.from_fraction(Fraction(v)) for v in x)
    values = [Fraction(v) for v in x]
    want = tuple(
        DyadicRational.from_fraction(sum(a * v for a, v in zip(row, values)) + c)
        for row, c in zip(rows, shift)
    )
    assert f.evaluate(ConstantOracle(point), 5).coords == want


@pytest.mark.parametrize("build", [
    lambda: affine_function([["2/3", "1/3"]], ["1/2"]),
    lambda: affine_function([["1", "0"]], ["1/5"]),
    lambda: scale_function(Fraction(1, 3)),
], ids=["affine-matrix", "affine-offset", "scale"])
def test_non_dyadic_coefficient_is_rejected(build):
    # the evaluators are exact on the dyadic grid only
    with pytest.raises(ValueError, match="is not dyadic"):
        build()


def test_sum_and_scale_evaluators_match_fraction_formulas():
    coords = (DyadicRational(-7, 3), DyadicRational(5), DyadicRational(9, 11))
    got = sum_function(3).evaluate(ConstantOracle(_point(coords)), 4)
    total = sum(c.to_fraction() for c in coords)
    assert got.coords == (DyadicRational.from_fraction(total),)
    for c in ("2", "-3/4", "-2", "1/1024"):
        got = scale_function(Fraction(c)).evaluate(
            ConstantOracle(_point(coords[:1])), 4)
        want = DyadicRational.from_fraction(coords[0].to_fraction() * Fraction(c))
        assert got.coords == (want,)
    x = ConstantOracle(_point(coords))
    assert identity_function(3).evaluate(x, 4).coords == coords
    for positions in ((1,), (3,), (1, 3), (2, 3), (1, 2, 3)):
        got = projection_function(SSelector(3, positions)).evaluate(x, 4)
        assert got.coords == tuple(coords[p - 1] for p in positions)


# ---- the linear core against the per-builder certificates it replaced ---------


def _stretch_reference(c: Fraction) -> int:
    """scale's own forward s before the shared core: the least s >= 0 with
    2**s >= |c|; 1 / c gives its inverse s."""
    s = 0
    while (1 << s) * c.denominator < abs(c.numerator):
        s += 1
    return s


def _linear_references(kind):
    """(function, name, forward s, inverse certificates) per library map,
    each expectation from the formula its builder used before the core."""
    if kind == "identity":
        for n in range(1, 17):
            yield (identity_function(n), "identity", 0,
                   ((SSelector(n, tuple(range(1, n + 1))), ModulusSpec(0)),))
    elif kind == "scale":
        # every nonzero k / 2**e with |k| <= 1024 and e <= 10, once
        for e in range(11):
            for k in range(-1024, 1025):
                c = Fraction(k, 1 << e)
                if c and c.denominator == 1 << e:
                    inverse = ModulusSpec(_stretch_reference(1 / c))
                    yield (scale_function(c), f"scale({c})", _stretch_reference(c),
                           ((SSelector(1, (1,)), inverse),))
    elif kind == "sum":
        for n in [*range(1, 300), *(2**j + d for j in (9, 10) for d in (-1, 0, 1))]:
            yield (sum_function(n), f"sum({n})", ceil_half_log2(n),
                   tuple((SSelector(n, (i,)), ModulusSpec(1))
                         for i in range(1, n + 1)))
    elif kind == "projection":
        for n in range(1, 6):
            for size in range(1, n + 1):
                for positions in itertools.combinations(range(1, n + 1), size):
                    yield (projection_function(SSelector(n, positions)),
                           f"projection({list(positions)})", 0, ())
    else:
        cert = (SSelector(2, (1, 2)), ModulusSpec(1))
        yield (affine_function([["1", "1/2"], ["0", "1"]], ["1/4", "0"], cert),
               "affine(2x2)", 1, (cert,))
        yield affine_function([["3/4"]], ["1/8"]), "affine(1x1)", 0, ()


@pytest.mark.parametrize("kind", ["identity", "scale", "sum", "projection", "affine"])
def test_linear_core_keeps_each_builders_certificates(kind):
    evaluator = identity_function().evaluator.__code__
    for f, name, s, inverse in _linear_references(kind):
        assert f.evaluator.__code__ is evaluator  # the one linear evaluator
        assert f.name == name
        assert f.declared_modulus == ModulusSpec(s), name
        assert f.declared_inverse_moduli == inverse, name


# every builder of the library, with parameters that declare its inverse
# certificates where it has any
LIBRARY_BUILDERS = {
    "identity": {"n": 3},
    "scale": {"c": "-3/4"},
    "sum": {"n": 3},
    "affine": {"matrix": [["1", "1/2"], ["0", "1"]], "offset": ["1/4", "0"],
               "inverse_modulus": {"S": [1, 2], "s": 1}},
    "projection": {"n": 3, "S": [1, 3]},
    "hilbert2d": {},
}


def test_every_inverse_certificate_can_be_searched():
    # the left-inverse search runs on the linear core alone, so a builder
    # that declares an inverse certificate must carry the core
    builders = {name[: -len("_function")] for name in dir(functions)
                if name.endswith("_function") and not name.startswith("_")}
    assert builders - {"library"} == set(LIBRARY_BUILDERS)
    for name, params in LIBRARY_BUILDERS.items():
        f = library_function(name, params)
        assert (f.linear is not None) == (name != "hilbert2d"), name
        for sel, spec in f.declared_inverse_moduli:
            left_inverse_synthesize(f, sel, spec)


def hilbert2d_reference(t: Fraction, r: int) -> tuple[DyadicRational, ...]:
    """Entry corner of the level r + 3 cell holding floor(t * 4**level),
    the index clamped to the curve's cells."""
    level = r + 3
    cells = 4**level
    idx = min(max(math.floor(t * cells), 0), cells - 1)
    quads = [(idx >> (2 * (level - 1 - i))) & 3 for i in range(level)]
    xb, yb = curve_digits(quads)
    return DyadicRational(xb, level), DyadicRational(yb, level)


# below 0, at 0 and 1, above 1, on cell boundaries of every level, and
# just inside either end
@pytest.mark.parametrize("t", ["-3", "-1/64", "-1/1099511627776", "0", "1",
                               "5/4", "7", "1/4", "1/64", "63/64",
                               "12345/65536", "1099511627775/1099511627776",
                               "3/1099511627776"])
@pytest.mark.parametrize("r", [0, 1, 5])
def test_hilbert2d_matches_fraction_reference(t, r):
    t = Fraction(t)
    point = _point((DyadicRational.from_fraction(t),))
    got = hilbert2d_function().evaluate(ConstantOracle(point), r)
    assert got.coords == hilbert2d_reference(t, r)


_SHEAR = [["1", "1/2"], ["0", "1"]]
_SHEAR_CERT = (SSelector(2, (1, 2)), linear_modulus(1))
_SHEAR_F = affine_function(_SHEAR, ["1/4", "0"], _SHEAR_CERT)
_SCALE_F = scale_function(Fraction(2))
# (function, certificate, selected coordinates x, the rest y): the shear at
# three points, scale 2, sum with a y finer than any pitch the search uses
# (so the node images need y's own exponent), a shear with negative offsets,
# and maps with negative coefficients, whose box intervals take the least
# value of a term at the box's upper end
_NEGATIVE = [["-1", "1/2"], ["0", "-1"]]
_NEGATIVE_CERT = (SSelector(2, (1, 2)), linear_modulus(1))
_SCALE_MINUS_F = scale_function(Fraction(-2))
GRID_SCAN_CASES = {
    "x0": (_SHEAR_F, _SHEAR_CERT, ("5/8", "-3/4"), ()),
    "x1": (_SHEAR_F, _SHEAR_CERT, ("-2", "0"), ()),
    "x2": (_SHEAR_F, _SHEAR_CERT, ("1/16", "17/16"), ()),
    "scale-2": (_SCALE_F, _SCALE_F.declared_inverse_moduli[0], ("-13/16",), ()),
    "sum-fine-y": (sum_function(2), (SSelector(2, (1,)), linear_modulus(1)),
                   ("3/8",), ("5/8192",)),
    "affine-negative-offset": (affine_function(_SHEAR, ["-3/8", "-5/4"], _SHEAR_CERT),
                               _SHEAR_CERT, ("-5/16", "3/4"), ()),
    "affine-negative-matrix": (affine_function(_NEGATIVE, ["1/8", "0"], _NEGATIVE_CERT),
                               _NEGATIVE_CERT, ("7/16", "-9/8"), ()),
    "scale-minus-2": (_SCALE_MINUS_F, _SCALE_MINUS_F.declared_inverse_moduli[0],
                      ("13/16",), ()),
}


@pytest.mark.parametrize("case", list(GRID_SCAN_CASES.values()), ids=list(GRID_SCAN_CASES))
@pytest.mark.parametrize("r", [0, 1, 2])
def test_left_inverse_matches_full_grid_scan(case, r):
    f, (sel, spec), x, y = case
    box = (-2, 2)
    g = left_inverse_synthesize(f, sel, spec, box=box)
    x, y = ([DyadicRational.from_fraction(Fraction(v)) for v in vs] for vs in (x, y))
    image = f.evaluate(ConstantOracle(_point(interleave(x, sel, y))), 30)
    w = ConstantOracle(_point((*image.coords, *y)))
    assert g.evaluate(w, r) == lex_first_acceptor(f, sel, spec, box, w, r)


def box_gap_sq_reference(steps, base, lo, hi):
    """The least sum of squared image offsets over every index of the box."""
    return min(
        sum((sum(s * i for s, i in zip(row, indices)) + b) ** 2
            for row, b in zip(steps, base))
        for indices in itertools.product(*map(range, lo, hi))
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_box_gap_sq_is_a_sound_lower_bound(data):
    # random small integer maps, zero and negative entries included, over
    # boxes up to 4x4: the bound never exceeds the least sum over the box,
    # and equals it on a single index
    width = data.draw(st.integers(1, 2), label="width")
    rows = data.draw(st.integers(1, 3), label="rows")
    small = st.integers(-6, 6)
    steps = data.draw(st.lists(st.lists(small, min_size=width, max_size=width),
                               min_size=rows, max_size=rows), label="steps")
    base = data.draw(st.lists(st.integers(-40, 40), min_size=rows, max_size=rows),
                     label="base")
    lo = data.draw(st.lists(st.integers(-5, 5), min_size=width, max_size=width),
                   label="lo")
    hi = [a + data.draw(st.integers(1, 4), label="side") for a in lo]
    bound = _box_gap_sq(steps, base, lo, hi)
    assert bound <= box_gap_sq_reference(steps, base, lo, hi)
    for indices in itertools.product(*map(range, lo, hi)):
        upper = [i + 1 for i in indices]
        assert (_box_gap_sq(steps, base, indices, upper)
                == box_gap_sq_reference(steps, base, indices, upper))
