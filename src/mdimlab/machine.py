"""A tiny self-delimiting bytecode machine with exhaustive bounded search.

Program format (frozen; every pinned constant in ``constants`` depends on it):

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
budget.  One cost rule: each instruction is charged 1 step plus the number of
bits it appends, once, before it takes effect, so ``step_budget`` bounds both
time and output size and halting is decidable.  A taken jump that repeats an
(instruction start, counter) pair starts a cycle, which never halts.  A run
returns its output, or None when it never halts; ``run`` turns that into a
``RunResult``.

The exhaustive enumeration runs under the empty given alone.  There the
counter is 0, no jump is taken and each run reads its payload once, in
order, so one depth-first walk over instruction prefixes (``_straight_walk``)
runs each prefix once for every payload length and decides whole classes of
payloads at a time.  That walk runs once, when the enumeration is built.
Conditional K under a non-empty given is a first-hit search in ``exact_k``:
it runs payloads one by one through ``_execute`` and caches nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .codec import (
    RationalPoint,
    gamma_decode,
    gamma_encode,
    try_decode_exact_point,
)

HALTED = "halted"
OUT_OF_BUDGET = "out_of_budget"
INVALID = "invalid"

OP_EMIT0, OP_EMIT1, OP_ECHO, OP_REPEAT, OP_LIT, OP_JNZ, OP_DEC, OP_HALT = range(8)
_OPCODES = {format(op, "03b"): op for op in range(8)}  # a partial fetch misses


# most programs one enumeration may run; about 4.2 million, which admits
# every max_program_len up to 30
ITEM_CAP = 1 << 22


class ResourceExceededError(RuntimeError):
    """An enumeration would run more programs than ``ITEM_CAP``."""


@dataclass(frozen=True)
class MachineConfig:
    max_program_len: int
    step_budget: int

    def __post_init__(self) -> None:
        if self.max_program_len < 0 or self.step_budget < 1:
            raise ValueError("need max_program_len >= 0 and step_budget >= 1")


@dataclass(frozen=True)
class RunResult:
    status: str  # one of HALTED, OUT_OF_BUDGET, INVALID
    output: str | None


@dataclass(frozen=True)
class KReport:
    value: int
    witness: str


def run(program: str, given: str, cfg: MachineConfig) -> RunResult:
    """Execute one program.  A pure function of (program, given, cfg)."""
    if not program:
        return RunResult(INVALID, None)
    try:
        header_val, pos = gamma_decode(program)
    except ValueError:
        return RunResult(INVALID, None)
    payload_len = header_val - 1
    if len(program) - pos != payload_len:
        return RunResult(INVALID, None)
    output = _execute(program[pos:], given, cfg.step_budget)
    if output is None:
        return RunResult(OUT_OF_BUDGET, None)
    return RunResult(HALTED, output)


def _execute(payload: str, given: str, budget: int) -> str | None:
    """Run a payload; return its output, or None for a run that never halts.

    Each instruction is fetched, its operand (if any) decoded, then charged
    1 step plus the bits it appends, once, before it takes effect.  A
    partial fetch or truncated operand, a literal past the payload end, or
    a charge over ``budget`` returns None.  So does a taken jump that
    repeats an (instruction start, counter) pair: control flow depends on
    nothing else, so the run would loop forever, and each pass charges at
    least 1 step.
    """
    plen = len(payload)
    out = ""
    pc = 0
    counter = len(given)
    steps = 0
    seen = None  # (instruction start, counter) of each taken jump
    while pc != plen:
        start = pc
        try:
            op = _OPCODES[payload[pc : pc + 3]]
            pc += 3
            if OP_REPEAT <= op <= OP_JNZ:
                arg, pc = gamma_decode(payload, pc)
        except (KeyError, ValueError):
            return None
        if op <= OP_EMIT1:
            appended = 1
        elif op == OP_ECHO:
            appended = len(given)
        elif op == OP_REPEAT:
            appended = arg * len(out)
        elif op == OP_LIT:
            if pc + arg > plen:
                return None
            appended = arg
        else:
            appended = 0
        steps += 1 + appended
        if steps > budget:
            return None
        if op == OP_EMIT0:
            out += "0"
        elif op == OP_EMIT1:
            out += "1"
        elif op == OP_ECHO:
            out += given
        elif op == OP_REPEAT:
            out *= arg + 1
        elif op == OP_LIT:
            out += payload[pc : pc + arg]
            pc += arg
        elif op == OP_JNZ:
            if counter:
                key = (start, counter)
                if seen is None:
                    seen = {key}
                elif key in seen:
                    return None
                else:
                    seen.add(key)
                pc = arg - 1
        elif op == OP_DEC:
            if counter:
                counter -= 1
        else:  # OP_HALT
            return out
    return out


def _operands(room: int, cap: int) -> Iterator[tuple[str, int]]:
    """(codeword, value) of each gamma code of at most ``room`` bits whose
    value is at most ``cap``, in codeword lex order: more leading zeros
    first, then ascending value."""
    for zeros in range((room - 1) // 2, -1, -1):
        pad = "0" * zeros
        for arg in range(1 << zeros, min(2 << zeros, cap + 1)):
            yield pad + bin(arg)[2:], arg


def _straight_walk(
    top: int, budget: int, record: Callable[[int, str, str, int, str], None]
) -> None:
    """Pass every halting payload of length at most ``top`` under the empty
    given to ``record(p, first, last, count, output)``, as classes of
    ``count`` consecutive length-``p`` payloads from ``first`` to ``last``.

    With no given the counter is 0: ``JNZ`` never jumps, and ``ECHO`` and
    ``DEC`` append nothing, so a run reads its payload once, front to back,
    exactly as ``_execute`` would.  One depth-first walk over instruction
    prefixes runs each prefix once for every length, carrying (output,
    steps) to the next instruction start.  A prefix of length p is itself a
    payload that halts at its end, a class of level p.  A ``HALT`` at pc
    decides, for each level p >= pc + 3, its 2**(p - pc - 3) suffixes in one
    class.  A charge over ``budget``, a partial fetch, a truncated operand
    or a literal past ``top`` decides a whole subtree, which has no longer
    halting program.  Opcodes and literals are visited in bit order and
    operands in codeword lex order, so each level's classes come in payload
    lex order; the levels interleave.
    """

    def walk(prefix: str, out: str, steps: int) -> None:
        pc = len(prefix)
        record(pc, prefix, prefix, 1, out)
        room = top - pc - 3  # most bits after the opcode
        steps += 1  # every instruction's base charge
        if room < 0 or steps > budget:
            return
        if steps < budget:  # emit-0 and emit-1 charge 2
            walk(prefix + "000", out + "0", steps + 1)
            walk(prefix + "001", out + "1", steps + 1)
        walk(prefix + "010", out, steps)  # echo of ""
        any_arg = 1 << room  # above every value a room-bit code can hold
        cap = (budget - steps) // len(out) if out else any_arg
        for code, arg in _operands(room, cap):  # repeat
            walk(prefix + "011" + code, out * (arg + 1), steps + arg * len(out))
        for code, arg in _operands(room, min(room - 1, budget - steps)):
            if len(code) + arg <= room:  # lit, inside the payload
                head = prefix + "100" + code
                for lit in range(1 << arg):
                    bits = format(lit, f"0{arg}b")
                    walk(head + bits, out + bits, steps + arg)
        for code, _ in _operands(room, any_arg):  # jump, never taken
            walk(prefix + "101" + code, out, steps)
        walk(prefix + "110", out, steps)  # dec of 0
        halt = prefix + "111"  # every suffix halts here
        for fill in range(room + 1):
            record(pc + 3 + fill, halt + "0" * fill, halt + "1" * fill,
                   1 << fill, out)

    walk("", "", 0)


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


def capped_levels(cfg: MachineConfig) -> list[int]:
    """The payload lengths of ``cfg``'s programs; raises before any program
    runs when there are more programs than ``ITEM_CAP``.

    The lengths are 0..top, as header_len(p) + p grows with p, so there are
    2**(top + 1) - 1 programs: more than the cap exactly when the length
    t = (ITEM_CAP + 1).bit_length() - 1 is valid.
    """
    t = (ITEM_CAP + 1).bit_length() - 1
    if header_len(t) + t <= cfg.max_program_len:
        raise ResourceExceededError(
            f"machine max_program_len={cfg.max_program_len} has more "
            f"programs than the item cap ITEM_CAP = {ITEM_CAP}"
        )
    return valid_payload_lengths(cfg.max_program_len)


def enumerate_halting(cfg: MachineConfig, given: str = "") -> list[tuple[str, str]]:
    """(program, output) for every halting program, in length-lex order."""
    capped_levels(cfg)
    halted = []
    for bits in iter_valid_programs(cfg.max_program_len):
        res = run(bits, given, cfg)
        if res.status == HALTED:
            halted.append((bits, res.output))
    return halted


@dataclass
class OutputInfo:
    k: int            # length of the first (shortest, lex-least) producer
    witness: str
    mass_units: int   # mass of its halting producers, in 2**-max_program_len


class PrefixCheck:
    """Counts proper-prefix pairs in a set of programs without keeping it.

    A level arrives as runs of consecutive same-length programs, each a
    (first, last) pair, in ascending lex order; a run's first program is
    compared only with the previous run's last of its level.  Programs
    inside a run share a length, so none prefixes another.  Runs of
    different levels may interleave.  Each level keeps only its first and
    last program, and ``count`` sorts those level ends: sorted, they must
    neither overlap nor have one level's last program prefix the next
    level's first.  That is sound for any levels: every program between
    ``a`` and a proper extension of ``a`` starts with ``a``.
    """

    def __init__(self) -> None:
        self._in_level = 0
        self._ends: dict[object, list[str]] = {}  # level -> [first, last]

    def add_run(self, level: object, first: str, last: str) -> None:
        ends = self._ends.get(level)
        if ends is None:
            self._ends[level] = [first, last]
            return
        prev = ends[1]
        if first <= prev or first.startswith(prev):
            self._in_level += 1
        ends[1] = last

    def add_level(self, runs: Iterable[tuple[str, str]]) -> None:
        """File ``runs`` as one level of their own."""
        level = object()
        for first, last in runs:
            self.add_run(level, first, last)

    def count(self) -> int:
        ends = sorted(self._ends.values())
        return self._in_level + sum(
            first <= last or first.startswith(last)
            for (_, last), (first, _) in zip(ends, ends[1:])
        )


class Enumeration:
    """Exhaustive run of every valid program under the empty given.

    ``_straight_walk`` runs each instruction prefix once for every payload
    length when the enumeration is built.  Each class of halting programs
    it finds feeds the counts, the masses and ``prefix_check`` as one run.
    ``outputs`` keeps its first producers in (k, witness) order.  Masses
    are integers in units of ``2**-max_program_len``; ``kraft`` turns
    their total into a ``Fraction``.
    """

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.levels = capped_levels(cfg)  # 0..top, as header_len(p) + p grows
        self.outputs: dict[str, OutputInfo] = {}
        self.halting_count = 0
        self.prefix_check = PrefixCheck()
        self._complete = False
        self._headers = [gamma_encode(p + 1) for p in self.levels]
        self._units = [1 << (cfg.max_program_len - len(header) - p)
                       for p, header in enumerate(self._headers)]
        self.ensure_complete()

    @property
    def kraft(self) -> Fraction:
        units = sum(info.mass_units for info in self.outputs.values())
        return Fraction(units, 1 << self.cfg.max_program_len)

    @cached_property
    def points(self) -> list[tuple[RationalPoint, int, str]]:
        """Every output that decodes to a point, as (point, K, encoding)
        triples sorted by K, then encoding."""
        points = []
        for output, info in self.outputs.items():
            point = try_decode_exact_point(output)
            if point is not None:
                points.append((point, info.k, output))
        points.sort(key=lambda t: (t[1], t[2]))
        return points

    def _record(self, p: int, first: str, last: str, count: int,
                output: str) -> None:
        """Count a class of halting payloads of length ``p``; a level's
        classes come in lex order, levels in any order."""
        self.halting_count += count
        header = self._headers[p]
        program = header + first
        mass = self._units[p] * count
        info = self.outputs.get(output)
        if info is None:
            self.outputs[output] = OutputInfo(len(program), program, mass)
        else:
            info.mass_units += mass
            if len(program) < info.k:  # a shorter level met later
                info.k, info.witness = len(program), program
        self.prefix_check.add_run(
            p, program, program if count == 1 else header + last
        )

    def ensure_complete(self) -> None:
        """Record every level in one walk, then put ``outputs`` in
        (k, witness) order; the constructor calls it, later calls do
        nothing."""
        if self._complete:
            return
        if self.levels:
            _straight_walk(self.levels[-1], self.cfg.step_budget, self._record)
        self.outputs = dict(sorted(
            self.outputs.items(), key=lambda item: (item[1].k, item[1].witness)
        ))
        self._complete = True

    def lookup(self, target: str) -> OutputInfo | None:
        """First producer of ``target``."""
        return self.outputs.get(target)


_ENUM_CACHE: dict[MachineConfig, Enumeration] = {}


def get_enumeration(cfg: MachineConfig) -> Enumeration:
    enum = _ENUM_CACHE.get(cfg)
    if enum is None:
        enum = _ENUM_CACHE[cfg] = Enumeration(cfg)
    return enum


def exact_k(target: str, given: str, cfg: MachineConfig) -> KReport | None:
    """Length and witness of the first producer of ``target`` under
    ``given``: the shortest program, then the lex-least.

    The empty given reads the cached enumeration.  Any other given runs a
    first-hit search that caches nothing: each level's payloads run in lex
    order through ``_execute``, levels in ascending program length, so the
    first payload that outputs ``target`` is its first producer.  Returns
    None when no program within the configured bounds produces it; that
    outcome is data, not an error.
    """
    if not given:
        info = get_enumeration(cfg).lookup(target)
        return None if info is None else KReport(info.k, info.witness)
    for p in capped_levels(cfg):
        for i in range(1 << p, 2 << p):
            payload = bin(i)[3:]  # the p bits after i's leading 1
            if _execute(payload, given, cfg.step_budget) == target:
                program = gamma_encode(p + 1) + payload
                return KReport(len(program), program)
    return None


def kraft_mass(cfg: MachineConfig) -> Fraction:
    return get_enumeration(cfg).kraft


def apriori_mass(targets: set[str], cfg: MachineConfig) -> Fraction:
    """Sum of 2**-len over halting programs whose output lies in ``targets``."""
    enum = get_enumeration(cfg)
    units = 0
    for t in targets:
        info = enum.outputs.get(t)
        if info is not None:
            units += info.mass_units
    return Fraction(units, 1 << cfg.max_program_len)


def output_universe(cfg: MachineConfig) -> dict[str, OutputInfo]:
    return get_enumeration(cfg).outputs

