"""Bounded machine tests: statuses, exhaustiveness, Kraft, pinned constants."""

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from mdimlab import constants, machine
from mdimlab.codec import encode_int, encode_point, RationalPoint
from mdimlab.machine import (
    HALTED,
    INVALID,
    ITEM_CAP,
    OUT_OF_BUDGET,
    MachineConfig,
    ResourceExceededError,
    apriori_mass,
    capped_levels,
    enumerate_halting,
    exact_k,
    iter_valid_programs,
    kraft_mass,
    output_universe,
    run,
    valid_payload_lengths,
)
from mdimlab.mutual import mutual_info

CFG = MachineConfig(16, 1000)


def test_empty_program_is_invalid():
    assert run("", "", CFG).status == INVALID


def test_malformed_headers_are_invalid():
    assert run("0", "", CFG).status == INVALID          # truncated gamma
    assert run("00", "", CFG).status == INVALID
    assert run("10", "", CFG).status == INVALID         # declares 0 payload bits, has 1
    assert run("01000", "", CFG).status == INVALID      # declares 1, has 2


def test_partial_opcode_fetch_jams():
    # header declares a 1-bit payload; no opcode fits, so the machine never
    # halts and the bounded verdict is out_of_budget at every budget
    for budget in (1, 10, 10_000):
        res = run("0100", "", MachineConfig(16, budget))
        assert res.status == OUT_OF_BUDGET


# sha256 of "given budget program status output" over every valid program
# of at most 18 bits, under each given and budget below; pinned on the
# machine as it stood before its executor was rewritten
GOLDEN_VERDICT_DIGEST = (
    "7b3186f85ac43f3c1dff655ae78ea6c0746fbd8a5bfb43c919113333da34dca7"
)


def test_golden_verdicts():
    # the enumerations are checked against run's executor, so only a pinned
    # digest of run's own verdicts can catch a change in what a program does
    digest = hashlib.sha256()
    for given in ("", "1", "0110", "01111", "011011011"):
        for budget in (3, 50, 256, 1000):
            cfg = MachineConfig(18, budget)
            for program in iter_valid_programs(18):
                res = run(program, given, cfg)
                digest.update(f"{given} {budget} {program} {res.status} "
                              f"{res.output}\n".encode())
    assert digest.hexdigest() == GOLDEN_VERDICT_DIGEST


def test_first_halting_program():
    first = next(iter(enumerate_halting(CFG)))
    assert first == (
        constants.FIRST_HALTING_PROGRAM,
        constants.FIRST_HALTING_OUTPUT,
    )


def test_run_is_pure():
    prog = "00100010"
    a = run(prog, "1101", CFG)
    b = run(prog, "1101", CFG)
    assert a == b and a.status == HALTED and a.output == "1101"


def test_enumeration_matches_brute_force_over_all_bitstrings():
    # independent route: run *every* bit string up to length 12, not just the
    # structurally valid ones, and compare the halting sets
    cfg = MachineConfig(12, 1000)
    brute = []
    for length in range(1, 13):
        for i in range(1 << length):
            bits = format(i, f"0{length}b")
            res = run(bits, "", cfg)
            if res.status == HALTED:
                brute.append((bits, res.output))
    brute.sort(key=lambda t: (len(t[0]), t[0]))
    assert brute == enumerate_halting(cfg)


def test_enumeration_is_length_lex_sorted():
    progs = [p for p, _ in enumerate_halting(CFG)]
    assert progs == sorted(progs, key=lambda s: (len(s), s))


def test_prefix_freeness_exhaustive():
    progs = sorted(p for p, _ in enumerate_halting(CFG))
    violations = [
        (a, b) for a, b in zip(progs, progs[1:]) if b.startswith(a)
    ]
    assert violations == []


def test_pinned_halting_counts():
    for (max_len, budget), count in constants.HALTING_COUNT.items():
        assert len(enumerate_halting(MachineConfig(max_len, budget))) == count


def test_kraft_mass_pinned_and_bounded():
    for (max_len, budget), mass in constants.KRAFT_MASS.items():
        got = kraft_mass(MachineConfig(max_len, budget))
        assert got == mass
        assert got <= 1


def test_kraft_mass_monotone_in_budget_and_length():
    a = kraft_mass(MachineConfig(14, 8))
    b = kraft_mass(MachineConfig(14, 1000))
    c = kraft_mass(MachineConfig(16, 1000))
    assert a <= b <= c


# (halting programs, distinct outputs, Kraft mass, sha256 of "output k
# witness mass_units" per output in order) of the two largest enumerations
# under ITEM_CAP: (28, 256) is the default machine of the exact suites
LARGEST_ENUMERATIONS = {
    28: (554_384, 1_863, Fraction(1_216_235, 1 << 21),
         "702dc55fccde0a9f1a23afe1075ac611d499f754528ccde0717a324e9d30c3b9"),
    30: (2_328_716, 6_325, Fraction(156_265_907, 1 << 28),
         "6ab5187aa0d4754bfc1d5f925c1a28a5e0ab01cfb607de0e5d8c9a71f7690fc3"),
}


@pytest.mark.parametrize("max_len", sorted(LARGEST_ENUMERATIONS))
def test_largest_enumerations_pinned(max_len):
    # no other test builds a machine above (24, 256); too large to check
    # against a per-program run, so only pinned values guard them
    enum = machine.Enumeration(MachineConfig(max_len, 256))
    digest = hashlib.sha256()
    for output, info in enum.outputs.items():
        digest.update(f"{output} {info.k} {info.witness} "
                      f"{info.mass_units}\n".encode())
    assert (enum.halting_count, len(enum.outputs), enum.kraft,
            digest.hexdigest()) == LARGEST_ENUMERATIONS[max_len]
    assert enum.prefix_violations == 0


def test_budget_monotonicity():
    small, big = MachineConfig(16, 1), MachineConfig(16, 1000)
    halted_small = dict(enumerate_halting(small))
    halted_big = dict(enumerate_halting(big))
    assert halted_small.items() <= halted_big.items()
    # and enlarging the budget does strictly extend the halting set here
    assert len(halted_small) < len(halted_big)


def test_length_monotonicity():
    short = dict(enumerate_halting(MachineConfig(14, 1000)))
    long_ = dict(enumerate_halting(CFG))
    assert short.items() <= long_.items()


def test_out_of_budget_then_halted():
    # emit loop: with a tiny budget the same program runs out, then halts
    prog = next(
        p for p, out in enumerate_halting(CFG) if len(out) >= 4
    )
    starved = run(prog, "", MachineConfig(16, 3))
    assert starved.status == OUT_OF_BUDGET
    assert run(prog, "", CFG).status == HALTED


def test_exact_k_of_empty_string():
    rep = exact_k("", "", CFG)
    assert rep.value == 1 and rep.witness == "1"


def test_exact_k_single_bits():
    assert exact_k("0", "", CFG).value == 8
    assert exact_k("1", "", CFG).value == 8


def test_echo_constant():
    for x in ["0110", "10101", "111000111"]:
        rep = exact_k(x, x, CFG)
        assert rep.value == constants.ECHO_COST
        assert rep.witness == constants.ECHO_WITNESS


UNREACHABLE = "".join(random.Random(23).choice("01") for _ in range(64))


def test_exact_k_not_found_is_none():
    assert exact_k(UNREACHABLE, "", CFG) is None


def test_mutual_info_skips_the_search_for_an_unreachable_target(monkeypatch):
    # K(q) is None, so I(p:q) is None without a conditional search, which
    # would run every program
    executed = 0
    execute = machine._execute

    def counted_execute(*args):
        nonlocal executed
        executed += 1
        return execute(*args)

    monkeypatch.setattr(machine, "_execute", counted_execute)
    assert mutual_info("0110", UNREACHABLE, CFG) is None
    assert executed == 0


def test_conditional_k_leaves_one_cache_entry(monkeypatch):
    # the enumeration cache is keyed by config alone; a conditional search
    # caches nothing
    monkeypatch.setattr(machine, "_ENUM_CACHE", {})
    for x in ("1", "0110", "11010010111010110010"):
        assert exact_k(x, x, CFG) is not None
    assert set(machine._ENUM_CACHE) <= {CFG}


def test_enumeration_adds_no_cache(monkeypatch):
    # the state walk's memo lives for one build: the module keeps its two
    # dicts and the enumeration holds no table besides its outputs
    monkeypatch.setattr(machine, "_ENUM_CACHE", {})
    enum = machine.Enumeration(MachineConfig(24, 256))
    assert {name for name, value in vars(machine).items()
            if isinstance(value, dict) and not name.startswith("__")
            } == {"_OPCODES", "_ENUM_CACHE"}
    assert machine._ENUM_CACHE == {}
    assert set(vars(enum)) == {"cfg", "levels", "outputs", "halting_count",
                               "prefix_violations"}


def test_conditioning_can_only_help_via_echo():
    # a target that is unreachable unconditionally costs only the echo
    # program once it is supplied as the conditional input
    target = "11010010111010110010"
    assert exact_k(target, "", CFG) is None
    assert exact_k(target, target, CFG).value == constants.ECHO_COST


def test_apriori_mass_monotone_and_bounded():
    outputs = {out for _, out in enumerate_halting(CFG)}
    some = {"", "0"}
    assert apriori_mass(some, CFG) <= apriori_mass(some | {"1"}, CFG)
    assert apriori_mass(outputs, CFG) == kraft_mass(CFG)
    assert apriori_mass({"0" * 99}, CFG) == Fraction(0)


def test_apriori_mass_known_singleton():
    # the empty output is produced by many programs; its mass dominates 2**-1
    mass = apriori_mass({""}, CFG)
    assert mass >= Fraction(1, 2)


def test_resource_cap():
    with pytest.raises(ResourceExceededError):
        enumerate_halting(MachineConfig(40, 256))
    with pytest.raises(ResourceExceededError):
        exact_k("1", "0110", MachineConfig(40, 256))


def test_item_cap_boundary():
    # the one comparison in capped_levels against the whole count: refused
    # exactly when the valid lengths hold more than ITEM_CAP programs
    for max_len in range(41):
        levels = valid_payload_lengths(max_len)
        if sum(1 << p for p in levels) > ITEM_CAP:
            with pytest.raises(ResourceExceededError, match="item cap"):
                capped_levels(MachineConfig(max_len, 1))
        else:
            assert capped_levels(MachineConfig(max_len, 1)) == levels
    # the longest bound under the cap: levels 0..21, 4,194,303 programs
    assert capped_levels(MachineConfig(30, 1)) == list(range(22))
    assert sum(1 << p for p in range(22)) == 4_194_303


def test_valid_program_count_at_16():
    assert sum(1 for _ in iter_valid_programs(16)) == 1023


@dataclass(frozen=True)
class SymmetryRow:
    x: str
    y: str
    k_xy: int
    k_x: int
    k_y_given: int
    delta: int


# symmetry-of-information deltas |K(x,y) - K(x) - K(y|<x,K(x)>)| over the
# 4-output sample at (24, 256); alarm fires above the threshold
SYMMETRY_MAX_DELTA = 12
SYMMETRY_ALARM = 16


def pair(a: str, b: str) -> str:
    """The self-delimiting pair <a, b>: ``encode_int(len(a))``, a, then b."""
    return encode_int(len(a)) + a + b


def symmetry_of_information_report(
    cfg: MachineConfig, sample_size: int = 4
) -> list[SymmetryRow]:
    """Measure |K(x,y) - K(x) - K(y | <x, K(x)>)| over cheap output pairs.

    Pairs whose joint encoding is out of enumeration range are skipped; the
    caller compares the surviving deltas against a pinned alarm threshold.
    """
    universe = output_universe(cfg)
    sample = sorted(universe, key=lambda s: (universe[s].k, s))[:sample_size]
    rows = []
    for x in sample:
        for y in sample:
            k_xy = exact_k(pair(x, y), "", cfg)
            if k_xy is None:
                continue
            k_x = universe[x].k
            hint = pair(x, encode_int(k_x))
            k_y_given = exact_k(y, hint, cfg)
            if k_y_given is None:
                continue
            delta = abs(k_xy.value - k_x - k_y_given.value)
            rows.append(SymmetryRow(x, y, k_xy.value, k_x, k_y_given.value, delta))
    return rows


def test_symmetry_of_information_report():
    rows = symmetry_of_information_report(MachineConfig(24, 256), sample_size=4)
    assert rows, "sample must produce at least one measurable pair"
    max_delta = max(r.delta for r in rows)
    assert max_delta == SYMMETRY_MAX_DELTA
    assert max_delta <= SYMMETRY_ALARM


def test_k_of_point_encodings_pinned():
    cfg = MachineConfig(24, 256)
    from mdimlab.codec import DyadicRational

    table = {
        "0": RationalPoint.of(0),
        "1/2": RationalPoint.of(DyadicRational(1, 1)),
        "1": RationalPoint.of(1),
        "-1": RationalPoint.of(-1),
    }
    for name, pt in table.items():
        rep = exact_k(encode_point(pt), "", cfg)
        assert rep is not None and rep.value == constants.K_POINT[name]
    rep = exact_k(encode_point(RationalPoint.of(0, 0)), "", MachineConfig(27, 256))
    assert rep.value == constants.K_POINT["(0,0)"]
