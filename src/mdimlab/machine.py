"""A tiny self-delimiting bytecode machine with exhaustive bounded search.

Program format (frozen; bumping it requires a new ``version_tag``):

    [Elias gamma code of P+1][P payload bits]

Validity is purely structural: the header must decode and the payload must
contain exactly P bits, so the set of valid programs is prefix-free by
construction.  Summing ``2**-len`` over *all* valid programs gives exactly 1;
the halting subset therefore always satisfies the Kraft inequality.

The payload is a stream of 3-bit opcodes with inline gamma-coded arguments:

    000 emit-0                append a 0 bit
    001 emit-1                append a 1 bit
    010 echo                  append the whole conditional input
    011 repeat k              append k copies of the current output
    100 lit len, bits         append ``len`` literal payload bits
    101 jump-if-counter t     if counter != 0, jump to payload offset t-1
    110 dec                   decrement the counter (floors at 0)
    111 halt                  stop, reporting the output

The counter starts at the length of the conditional input, which is the only
way input length can influence control flow.  Falling off the payload end
exactly is a clean halt; any fetch past the end jams the machine, which is
reported as ``out_of_budget`` since a jammed machine never halts under any
budget.  Each instruction costs 1 step plus the number of bits it appends, so
``step_budget`` bounds both time and output size and halting is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator

from .codec import (
    RationalPoint,
    encode_int,
    gamma_decode,
    gamma_encode,
    pair,
    try_decode_exact_point,
)

HALTED = "halted"
OUT_OF_BUDGET = "out_of_budget"
INVALID = "invalid"

OP_EMIT0, OP_EMIT1, OP_ECHO, OP_REPEAT, OP_LIT, OP_JNZ, OP_DEC, OP_HALT = range(8)


class ResourceExceededError(RuntimeError):
    """An enumeration would exceed the configured item cap."""


@dataclass(frozen=True)
class MachineConfig:
    max_program_len: int
    step_budget: int
    version_tag: str = "v0"
    item_cap: int = 1 << 22

    def __post_init__(self) -> None:
        if self.max_program_len < 0 or self.step_budget < 1:
            raise ValueError("need max_program_len >= 0 and step_budget >= 1")


@dataclass(frozen=True)
class RunResult:
    status: str  # one of HALTED, OUT_OF_BUDGET, INVALID
    output: str | None
    steps_used: int


@dataclass(frozen=True)
class KReport:
    value: int
    witness: str
    exhaustive: bool


def run(program: str, given: str, cfg: MachineConfig) -> RunResult:
    """Execute one program.  A pure function of (program, given, cfg)."""
    if not program:
        return RunResult(INVALID, None, 0)
    try:
        header_val, pos = gamma_decode(program)
    except ValueError:
        return RunResult(INVALID, None, 0)
    payload_len = header_val - 1
    if len(program) - pos != payload_len:
        return RunResult(INVALID, None, 0)
    return _execute(program[pos:], given, cfg.step_budget)


def _execute(payload: str, given: str, budget: int) -> RunResult:
    plen = len(payload)
    out: list[str] = []
    out_len = 0
    pc = 0
    counter = len(given)
    steps = 0
    while True:
        if pc == plen:
            return RunResult(HALTED, "".join(out), steps)
        if pc + 3 > plen:  # partial fetch: the machine jams and never halts
            return RunResult(OUT_OF_BUDGET, None, steps)
        op = int(payload[pc : pc + 3], 2)
        pc += 3
        if op == OP_EMIT0 or op == OP_EMIT1:
            if steps + 2 > budget:
                return RunResult(OUT_OF_BUDGET, None, steps)
            steps += 2
            out.append("1" if op == OP_EMIT1 else "0")
            out_len += 1
        elif op == OP_ECHO:
            cost = 1 + len(given)
            if steps + cost > budget:
                return RunResult(OUT_OF_BUDGET, None, steps)
            steps += cost
            out.append(given)
            out_len += len(given)
        elif op == OP_REPEAT:
            try:
                k, pc = gamma_decode(payload, pc)
            except ValueError:
                return RunResult(OUT_OF_BUDGET, None, steps)
            cost = 1 + k * out_len
            if steps + cost > budget:
                return RunResult(OUT_OF_BUDGET, None, steps)
            steps += cost
            if out_len:
                s = "".join(out)
                out = [s * (k + 1)]
                out_len *= k + 1
        elif op == OP_LIT:
            try:
                lit_len, pc = gamma_decode(payload, pc)
            except ValueError:
                return RunResult(OUT_OF_BUDGET, None, steps)
            if pc + lit_len > plen:
                return RunResult(OUT_OF_BUDGET, None, steps)
            if steps + 1 + lit_len > budget:
                return RunResult(OUT_OF_BUDGET, None, steps)
            steps += 1 + lit_len
            out.append(payload[pc : pc + lit_len])
            out_len += lit_len
            pc += lit_len
        elif op == OP_JNZ:
            try:
                t, pc = gamma_decode(payload, pc)
            except ValueError:
                return RunResult(OUT_OF_BUDGET, None, steps)
            if steps + 1 > budget:
                return RunResult(OUT_OF_BUDGET, None, steps)
            steps += 1
            if counter != 0:
                pc = t - 1
        elif op == OP_DEC:
            if steps + 1 > budget:
                return RunResult(OUT_OF_BUDGET, None, steps)
            steps += 1
            if counter > 0:
                counter -= 1
        else:  # OP_HALT
            if steps + 1 > budget:
                return RunResult(OUT_OF_BUDGET, None, steps)
            steps += 1
            return RunResult(HALTED, "".join(out), steps)


def header_len(payload_len: int) -> int:
    return 2 * ((payload_len + 1).bit_length() - 1) + 1

def valid_payload_lengths(max_program_len: int) -> list[int]:
    return [
        p for p in range(max_program_len + 1) if header_len(p) + p <= max_program_len
    ]

def iter_valid_programs(max_program_len: int) -> Iterator[str]:
    """All well-formed programs up to the length bound, in length-lex order."""
    for p in valid_payload_lengths(max_program_len):
        header = gamma_encode(p + 1)
        if p == 0:
            yield header
            continue
        for i in range(1 << p):
            yield header + format(i, f"0{p}b")


def iter_halting(cfg: MachineConfig, given: str = "") -> Iterator[tuple[str, str]]:
    """Stream (program, output) for every halting program, length-lex order."""
    for bits in iter_valid_programs(cfg.max_program_len):
        res = run(bits, given, cfg)
        if res.status == HALTED:
            yield bits, res.output


def enumerate_halting(cfg: MachineConfig, given: str = "") -> list[tuple[str, str]]:
    total = sum(1 << p for p in valid_payload_lengths(cfg.max_program_len))
    if total > cfg.item_cap:
        raise ResourceExceededError(
            f"{total} programs exceed the configured cap {cfg.item_cap}"
        )
    return list(iter_halting(cfg, given))


@dataclass
class OutputInfo:
    k: int            # length of the first (shortest, lex-least) producer
    witness: str
    mass_units: int   # mass of its halting producers, in 2**-max_program_len


class PrefixCheck:
    """Counts proper-prefix pairs in a set of programs without keeping it.

    Levels arrive in ascending lex order; a program is compared only with the
    previous one of its level.  Each level's first and last program form a
    run, and sorted runs must neither overlap nor have one run's last program
    prefix the next run's first.  That is sound for any levels: every program
    between ``a`` and a proper extension of ``a`` starts with ``a``.
    """

    def __init__(self) -> None:
        self._in_level = 0
        self._runs: list[tuple[str, str]] = []

    def add_level(self, programs: Iterable[str]) -> None:
        first = prev = None
        for program in programs:
            if prev is None:
                first = program
            elif program <= prev or program.startswith(prev):
                self._in_level += 1
            prev = program
        if prev is not None:
            self._runs.append((first, prev))

    def count(self) -> int:
        runs = sorted(self._runs)
        return self._in_level + sum(
            first <= last or first.startswith(last)
            for (_, last), (first, _) in zip(runs, runs[1:])
        )


class Enumeration:
    """Cached, level-by-level exhaustive run of every valid program.

    Levels (payload lengths) are materialized in ascending order, so a lookup
    can stop as soon as its target appears: every later program is longer.
    Each program runs once, and every halting one feeds ``prefix_check``.
    Masses are integers in units of ``2**-max_program_len``; ``kraft`` turns
    their total into a ``Fraction``.  The package starts no threads, and an
    enumeration is not safe to advance from two threads at once.
    """

    def __init__(self, cfg: MachineConfig, given: str):
        self.cfg = cfg
        self.given = given
        self.levels = valid_payload_lengths(cfg.max_program_len)
        total = sum(1 << p for p in self.levels)
        if total > cfg.item_cap:
            raise ResourceExceededError(
                f"{total} programs exceed the configured cap {cfg.item_cap}"
            )
        self.outputs: dict[str, OutputInfo] = {}
        self.halting_count = 0
        self.prefix_check = PrefixCheck()
        self._next_level = 0

    @property
    def kraft(self) -> Fraction:
        units = sum(info.mass_units for info in self.outputs.values())
        return Fraction(units, 1 << self.cfg.max_program_len)

    @cached_property
    def points(self) -> list[tuple[RationalPoint, int, str]]:
        """Every output that decodes to a point, as (point, K, encoding)
        triples sorted by K, then encoding."""
        self.ensure_complete()
        points = []
        for output, info in self.outputs.items():
            point = try_decode_exact_point(output)
            if point is not None:
                points.append((point, info.k, output))
        points.sort(key=lambda t: (t[1], t[2]))
        return points

    def _advance_one_level(self) -> None:
        p = self.levels[self._next_level]
        self._next_level += 1
        self.prefix_check.add_level(self._run_level(p))

    def _run_level(self, p: int) -> Iterator[str]:
        """Run and record every program of payload length ``p``; yield the
        halting ones in lex order."""
        header = gamma_encode(p + 1)
        units = 1 << (self.cfg.max_program_len - len(header) - p)
        budget = self.cfg.step_budget
        given = self.given
        outputs = self.outputs
        payloads = map(format, range(1 << p), repeat(f"0{p}b")) if p else ("",)
        for payload in payloads:
            res = _execute(payload, given, budget)
            if res.status != HALTED:
                continue
            self.halting_count += 1
            bits = header + payload
            info = outputs.get(res.output)
            if info is None:
                outputs[res.output] = OutputInfo(len(bits), bits, units)
            else:
                info.mass_units += units
            yield bits

    def ensure_complete(self) -> None:
        while self._next_level < len(self.levels):
            self._advance_one_level()

    def lookup(self, target: str) -> OutputInfo | None:
        """First producer of ``target``, advancing only as deep as needed."""
        while target not in self.outputs and self._next_level < len(self.levels):
            self._advance_one_level()
        return self.outputs.get(target)


_ENUM_CACHE: dict[tuple[MachineConfig, str], Enumeration] = {}


def get_enumeration(cfg: MachineConfig, given: str = "") -> Enumeration:
    key = (cfg, given)
    enum = _ENUM_CACHE.get(key)
    if enum is None:
        enum = Enumeration(cfg, given)
        _ENUM_CACHE[key] = enum
    return enum


def exact_k(target: str, given: str, cfg: MachineConfig) -> KReport | None:
    """Length of the shortest (then lex-least) program producing ``target``.

    Returns None when no program within the configured bounds produces it;
    that outcome is data, not an error.
    """
    info = get_enumeration(cfg, given).lookup(target)
    if info is None:
        return None
    return KReport(info.k, info.witness, True)


def kraft_mass(cfg: MachineConfig, given: str = "") -> Fraction:
    enum = get_enumeration(cfg, given)
    enum.ensure_complete()
    return enum.kraft


def apriori_mass(targets: set[str], cfg: MachineConfig, given: str = "") -> Fraction:
    """Sum of 2**-len over halting programs whose output lies in ``targets``."""
    enum = get_enumeration(cfg, given)
    enum.ensure_complete()
    units = 0
    for t in targets:
        info = enum.outputs.get(t)
        if info is not None:
            units += info.mass_units
    return Fraction(units, 1 << cfg.max_program_len)


def output_universe(cfg: MachineConfig, given: str = "") -> dict[str, OutputInfo]:
    enum = get_enumeration(cfg, given)
    enum.ensure_complete()
    return enum.outputs


@dataclass(frozen=True)
class SymmetryRow:
    x: str
    y: str
    k_xy: int
    k_x: int
    k_y_given: int
    delta: int


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
