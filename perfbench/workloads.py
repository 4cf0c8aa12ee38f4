"""Workload definitions shared by run.py and its worker processes.

Every workload is plain data here: the suite configs a worker hands to
``harness.config_from_mapping``, or the inputs of the left-inverse
evaluations.  Inputs depend only on the seed, so run.py can rebuild
the expected answers without asking the worker.  ``tiny`` shrinks each
workload for the benchmark's own tests; tiny numbers are not comparable
with full ones.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("estimate", "exact", "geometry", "synthesis")

TINY_MACHINE = {"max_program_len": 24, "step_budget": 256}


def suite_specs(workload: str, seed: int, tiny: bool) -> list[dict]:
    """Configs run in order by one suite operation; empty for synthesis.

    estimate and exact ignore the seed: estimate's gates are pinned to the
    calibration set, and exact enumerates every program.
    """
    if workload == "estimate":
        if tiny:
            return [{"suite": "reverse-dpi", "window": [1024, 2048]}]
        return [{"suite": "mdim"}]
    if workload == "exact":
        machine = {"machine": TINY_MACHINE} if tiny else {}
        return [{"suite": "machine", **machine}, {"suite": "coding-bounds", **machine}]
    if workload == "geometry":
        return [{"suite": "geometry", "seed": seed}]
    if workload == "synthesis":
        return []
    raise ValueError(f"unknown workload: {workload!r}")


# ---- synthesis ------------------------------------------------------------------

# the three inverses of the criterion-10 acceptance test, as library specs
SCALE = {"name": "scale", "params": {"c": "2"}}
SUM = {"name": "sum", "params": {"n": 2}}
AFFINE = {"name": "affine", "params": {
    "matrix": [["1", "1/2"], ["0", "1"]], "offset": ["1/4", "0"],
    "inverse_modulus": {"S": [1, 2], "s": 1},
}}
KINDS = ("scale", "sum", "affine")

GRID_EXP = 10          # inputs lie on the 2**-10 grid
INPUT_RANGE = 100      # ... inside [-100, 100)
R_MAX = 20
TINY_R_MAX = 6
CYCLES = 4             # per worker; a cycle is every (kind, r) pair once
TINY_CYCLES = 1


def synthesis_inputs(seed: int, batch: int, tiny: bool) -> list[tuple[int, int, int, int]]:
    """(kind index, r, a, b) per evaluation; a and b are numerators over 2**10.

    A cycle walks r = 0..R_MAX and, at each r, the three kinds in turn, so
    its mix of (kind, r) evaluations is that of one criterion-10 trial per
    kind.  Each evaluation draws its own input, and each operation
    (``batch``) of a run its own inputs, which averages the input dependence
    of the search over many points.
    """
    rng = random.Random(f"perfbench:synthesis:{seed}:{batch}")
    r_max = TINY_R_MAX if tiny else R_MAX
    cycles = TINY_CYCLES if tiny else CYCLES
    span = INPUT_RANGE << GRID_EXP
    out = []
    for _ in range(cycles):
        for r in range(r_max + 1):
            for kind in range(len(KINDS)):
                out.append((kind, r, rng.randrange(-span, span), rng.randrange(-span, span)))
    return out


def expected_preimage(kind: int, a: int, b: int) -> tuple[Fraction, ...]:
    """The coordinates the inverse must recover: x for scale and sum, (a, b) for affine."""
    x = Fraction(a, 1 << GRID_EXP)
    if KINDS[kind] == "affine":
        return (x, Fraction(b, 1 << GRID_EXP))
    return (x,)
