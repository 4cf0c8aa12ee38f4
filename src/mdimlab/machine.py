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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .codec import encode_int, gamma_decode, gamma_encode, pair

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
    mass: Fraction    # sum of 2**-len over all halting producers seen so far


class Enumeration:
    """Cached, level-by-level exhaustive run of every valid program.

    Levels (payload lengths) are materialized in ascending order, so a lookup
    can stop as soon as its target appears: every later program is longer.
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
        self.kraft: Fraction = Fraction(0)
        self.halting_count = 0
        self._next_level = 0

    def _advance_one_level(self) -> None:
        p = self.levels[self._next_level]
        self._next_level += 1
        header = gamma_encode(p + 1)
        total_len = len(header) + p
        weight = Fraction(1, 1 << total_len)
        budget = self.cfg.step_budget
        given = self.given
        outputs = self.outputs
        if p == 0:
            res = _execute("", given, budget)
            if res.status == HALTED:
                self._record(header, res.output, weight)
            return
        for i in range(1 << p):
            payload = format(i, f"0{p}b")
            res = _execute(payload, given, budget)
            if res.status == HALTED:
                self._record(header + payload, res.output, weight)

    def _record(self, bits: str, output: str, weight: Fraction) -> None:
        self.halting_count += 1
        self.kraft += weight
        info = self.outputs.get(output)
        if info is None:
            self.outputs[output] = OutputInfo(len(bits), bits, weight)
        else:
            info.mass += weight

    def ensure_complete(self) -> None:
        while self._next_level < len(self.levels):
            self._advance_one_level()

    def lookup(self, target: str) -> OutputInfo | None:
        """First producer of ``target``, advancing only as deep as needed."""
        while target not in self.outputs and self._next_level < len(self.levels):
            self._advance_one_level()
        return self.outputs.get(target)


_ENUM_CACHE: dict[tuple[int, int, str, str], Enumeration] = {}


def get_enumeration(cfg: MachineConfig, given: str = "") -> Enumeration:
    key = (cfg.max_program_len, cfg.step_budget, cfg.version_tag, given)
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
    total = Fraction(0)
    for t in targets:
        info = enum.outputs.get(t)
        if info is not None:
            total += info.mass
    return total


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
