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
order, so the halting payloads that extend a prefix depend on the prefix
only through the machine state it leaves: (pc, output, steps).  One pass
per distinct state (``_root_summary``) composes a summary of every payload
length at once, deciding whole classes of payloads at a time, and the
prefixes that reach one state share its summary.  That pass runs once,
when the enumeration is built, and its memo goes with it.  The summary
counts the prefix pairs inside each level, and ``count_prefix_pairs`` the
ones between levels.  ``_halting`` is the one loop that runs programs,
one by one through ``_execute`` in length-lex order: ``enumerate_halting``
lists its halting programs, and conditional K under a non-empty given is a
first-hit search over them in ``exact_k`` that caches nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Iterator

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


# most valid programs a machine config may have; about 4.2 million, which
# admits every max_program_len up to 30.  The enumeration summarizes
# machine states and runs no program on its own, so the cap bounds the
# config; ``_halting`` still runs up to that many programs one by one
ITEM_CAP = 1 << 22


class ResourceExceededError(RuntimeError):
    """A machine config has more programs than ``ITEM_CAP``."""


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
        steps += 1 + (0 if op > OP_LIT else 1 if op <= OP_EMIT1 else
                      len(given) if op == OP_ECHO else
                      arg * len(out) if op == OP_REPEAT else arg)
        if steps > budget:
            return None
        if op <= OP_EMIT1:
            out += "01"[op]
        elif op == OP_ECHO:
            out += given
        elif op == OP_REPEAT:
            out *= arg + 1
        elif op == OP_LIT:
            if pc + arg > plen:
                return None
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


def _next_states(
    out: str, steps: int, room: int, budget: int
) -> Iterator[tuple[str, str, int]]:
    """(edge, output, steps) of each instruction but ``HALT`` that can run
    next under the empty given, from a state with ``room`` bits after the
    opcode and ``steps`` charged, base charge included; ``edge`` is the
    instruction's bits.

    With no given the counter is 0: ``JNZ`` never jumps, and ``ECHO`` and
    ``DEC`` append nothing, so a run reads its payload once, front to back,
    exactly as ``_execute`` would.  A charge over ``budget``, a truncated
    operand or a literal past the payload end has no halting suffix and is
    left out.  Opcodes and literals come in bit order and operands in
    codeword lex order, so the edges come in lex order.
    """
    if steps < budget:  # emit-0 and emit-1 charge 2
        yield "000", out + "0", steps + 1
        yield "001", out + "1", steps + 1
    yield "010", out, steps  # echo of ""
    any_arg = 1 << room  # above every value a room-bit code can hold
    cap = (budget - steps) // len(out) if out else any_arg
    for code, arg in _operands(room, cap):  # repeat
        yield "011" + code, out * (arg + 1), steps + arg * len(out)
    for code, arg in _operands(room, min(room - 1, budget - steps)):
        if len(code) + arg <= room:  # lit, inside the payload
            head = "100" + code
            for lit in range(1 << arg):
                bits = format(lit, f"0{arg}b")
                yield head + bits, out + bits, steps + arg
    for code, _ in _operands(room, any_arg):  # jump, never taken
        yield "101" + code, out, steps
    yield "110", out, steps  # dec of 0


def _root_summary(top: int, budget: int, units: list[int]) -> tuple:
    """Summary of every halting payload of length at most ``top`` under
    the empty given, as (halting, violations, outputs, ends, weights).

    The halting payloads that start with a prefix depend on the prefix
    only through the machine state it leaves, (pc, output, steps), so one
    summary per state serves every prefix that reaches it.  A state's
    summary holds its halting count; its in-level prefix-check violations
    (a level's payloads must come in strict lex order); in ``ends``, the
    first and last of the level-p payloads at 2(p - pc) and 2(p - pc) + 1,
    or -1 twice; and in ``weights``, the i-th output's mass in ``units``
    at 2i and its best key, ``p << top | payload`` of its shortest, then
    lex-least producer, at 2i + 1.  Payloads are ints left-aligned to
    ``top`` bits with the prefix's bits clear, so a parent adds an edge to
    a child's entries with one OR, and payloads of one level compare as
    ints.

    A state's own payload, which halts at its end, is a class of one at
    level pc; then come its successors in lex order, then its ``HALT``,
    which decides for each level p >= pc + 3 its 2**(p - pc - 3) suffixes
    in one class.  A successor with no room for an opcode or no budget
    left is a class of one.  Every other state's summary is cached, and
    the cache lives for one call.
    """
    # a cached summary is shared by every parent that reaches its state:
    # parents read its lists and never write them
    @cache
    def summarize(pc: int, out: str, steps: int) -> tuple:
        ends = [-1] * (2 * (top - pc + 1))
        ends[0] = ends[1] = 0
        outs, weights = [out], [units[pc], pc << top]
        index = {out: 0}  # output -> its mass's place in weights
        halting, violations = 1, 0

        def add_class(p, first, last, count, output):
            nonlocal halting
            halting += count
            add_run(p, first, last)
            add_output(output, units[p] * count, p << top | first)

        def add_run(p, first, last):
            nonlocal violations
            j = 2 * (p - pc)
            if ends[j] < 0:
                ends[j] = first
            elif first <= ends[j + 1]:
                violations += 1
            ends[j + 1] = last

        def add_output(output, mass, key):
            i = index.get(output)
            if i is None:
                index[output] = len(weights)
                outs.append(output)
                weights.extend((mass, key))
            else:
                weights[i] += mass
                if key < weights[i + 1]:
                    weights[i + 1] = key

        steps += 1  # every instruction's base charge
        room = top - pc - 3  # most bits after the opcode
        if room >= 0 and steps <= budget:
            for edge, child_out, child_steps in _next_states(
                out, steps, room, budget
            ):
                child_pc = pc + len(edge)
                shift = int(edge, 2) << (top - child_pc)
                if child_pc + 3 > top or child_steps >= budget:
                    add_class(child_pc, shift, shift, 1, child_out)
                    continue
                (child_halting, child_violations, child_outs, child_ends,
                 child_weights) = summarize(child_pc, child_out, child_steps)
                halting += child_halting
                violations += child_violations
                pairs = iter(child_ends)
                for p, first, last in zip(range(child_pc, top + 1), pairs,
                                          pairs):
                    if first >= 0:
                        add_run(p, first | shift, last | shift)
                pairs = iter(child_weights)
                for output, mass, key in zip(child_outs, pairs, pairs):
                    add_output(output, mass, key | shift)
            halt = 0b111 << room  # every suffix halts here
            for fill in range(room + 1):
                ones = ((1 << fill) - 1) << (room - fill)
                add_class(pc + 3 + fill, halt, halt | ones, 1 << fill, out)
        return halting, violations, outs, ends, weights

    try:
        return summarize(0, "", 0)
    finally:  # summarize holds itself: free its cache now, not at a gc pass
        del summarize


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
        for i in range(1 << p, 2 << p):
            yield header + bin(i)[3:]  # the p bits after i's leading 1


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


def _halting(cfg: MachineConfig, given: str) -> Iterator[tuple[str, str]]:
    """(program, output) of each halting program under ``given``, in
    length-lex order; raises before any program runs when ``cfg`` is over
    the item cap."""
    for p in capped_levels(cfg):
        header = gamma_encode(p + 1)
        for i in range(1 << p, 2 << p):
            payload = bin(i)[3:]  # the p bits after i's leading 1
            output = _execute(payload, given, cfg.step_budget)
            if output is not None:
                yield header + payload, output


def enumerate_halting(cfg: MachineConfig) -> list[tuple[str, str]]:
    """(program, output) for every halting program, in length-lex order."""
    return list(_halting(cfg, ""))


@dataclass(slots=True)
class OutputInfo:
    k: int            # length of the first (shortest, lex-least) producer
    witness: str
    mass_units: int   # mass of its halting producers, in 2**-max_program_len


def count_prefix_pairs(ranges: Iterable[tuple[str, str]]) -> int:
    """Violations of prefix-freeness among (first, last) program ranges.

    Each range stands for programs of one length from ``first`` to
    ``last`` in lex order, so none prefixes another.  Sorted, neighbouring
    ranges must neither overlap nor have one range's last program prefix
    the next one's first; this counts the neighbours that do.  That is
    sound: every program between ``a`` and a proper extension of ``a``
    starts with ``a``.
    """
    ends = sorted(ranges)
    return sum(
        first <= last or first.startswith(last)
        for (_, last), (first, _) in zip(ends, ends[1:])
    )


class Enumeration:
    """Exhaustive run of every valid program under the empty given.

    ``_root_summary`` composes the halting payloads of every length in one
    pass per distinct machine state when the enumeration is built.  Its
    summary gives the counts, the masses, each output's first producer
    and ``prefix_violations``, the out-of-order and prefix pairs among
    the halting programs, which must be 0: those inside a level from the
    summary, those between levels from ``count_prefix_pairs``.
    ``outputs`` keeps its first producers in (k, witness) order.  Masses
    are integers in units of ``2**-max_program_len``; ``kraft`` turns
    their total into a ``Fraction``.
    """

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.levels = capped_levels(cfg)  # 0..top, as header_len(p) + p grows
        self.outputs: dict[str, OutputInfo] = {}
        self.halting_count = 0
        self.prefix_violations = 0
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

    def ensure_complete(self) -> None:
        """Build the enumeration; the constructor calls it.

        Summarizes every level in one pass per distinct machine state,
        fills ``outputs`` in (k, witness) order and checks the level ends
        against each other.  It only assigns, so a second call computes
        the same values again.
        """
        if not self.levels:
            return
        top = self.levels[-1]
        headers = [gamma_encode(p + 1) for p in self.levels]
        units = [1 << (self.cfg.max_program_len - len(header) - p)
                 for p, header in enumerate(headers)]
        halting, violations, outs, ends, weights = _root_summary(
            top, self.cfg.step_budget, units
        )

        def program(p: int, payload: int) -> str:
            return headers[p] + bin(1 << p | payload >> (top - p))[3:]

        for key, output, mass in sorted(zip(weights[1::2], outs, weights[::2])):
            witness = program(key >> top, key & ((1 << top) - 1))
            self.outputs[output] = OutputInfo(len(witness), witness, mass)
        self.halting_count = halting
        # one range per level: the in-level pairs are in ``violations``
        self.prefix_violations = violations + count_prefix_pairs(
            (program(p, first), program(p, last))
            for p, (first, last) in enumerate(zip(ends[::2], ends[1::2]))
            if first >= 0
        )

    def lookup(self, target: str) -> OutputInfo | None:
        """First producer of ``target``."""
        return self.outputs.get(target)


# one enumeration per machine config a process runs, each bounded by
# ``ITEM_CAP``.  It outlives a run because the exact suites share it: run
# after ``machine`` in one process, ``coding-bounds`` reads the (28, 256)
# enumeration instead of building it again, about 0.09 s of the 0.12 s the
# two take together
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
    first-hit search that caches nothing: ``_halting`` runs the programs
    in length-lex order, so the first that outputs ``target`` is its first
    producer.  Returns None when no program within the configured bounds
    produces it; that outcome is data, not an error.
    """
    if not given:
        info = get_enumeration(cfg).lookup(target)
        return None if info is None else KReport(info.k, info.witness)
    for program, output in _halting(cfg, given):
        if output == target:
            return KReport(len(program), program)
    return None


def kraft_mass(cfg: MachineConfig) -> Fraction:
    return get_enumeration(cfg).kraft


def apriori_mass(targets: set[str], cfg: MachineConfig) -> Fraction:
    """Sum of 2**-len over halting programs whose output lies in ``targets``."""
    outputs = get_enumeration(cfg).outputs
    units = sum(outputs[t].mass_units for t in targets if t in outputs)
    return Fraction(units, 1 << cfg.max_program_len)


def output_universe(cfg: MachineConfig) -> dict[str, OutputInfo]:
    return get_enumeration(cfg).outputs

