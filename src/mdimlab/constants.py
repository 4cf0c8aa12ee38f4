"""Pinned regression constants of the bounded machine and the estimators.

Every value below was measured once and then frozen.  A mismatch means
the machine semantics, the wire format, or an estimator changed; such a
change re-pins each value it moves and says why.
"""

from __future__ import annotations

from fractions import Fraction

# ---- bounded machine, version v0 ----------------------------------------

# first halting program in length-lex order and its output
FIRST_HALTING_PROGRAM = "1"
FIRST_HALTING_OUTPUT = ""

# exact_k(x, given=x) for any x the echo program beats; the witness is the
# echo program itself (header for a 3-bit payload, then the echo opcode)
ECHO_COST = 8
ECHO_WITNESS = "00100010"

# exhaustive enumeration at (max_program_len, step_budget)
HALTING_COUNT = {
    (16, 1000): 416,
    (20, 10000): 7320,
}
KRAFT_MASS = {
    (16, 1000): Fraction(9137, 16384),
    (20, 10000): Fraction(149747, 262144),
}

# shortest-program lengths for the canonical point encodings reachable at
# (max_len 24, budget 256); the 2-d points need (27, 256)
K_POINT = {
    "0": 20,
    "1/2": 24,
    "1": 24,
    "-1": 24,
    "(0,0)": 27,
}

# ---- counting and coding bound constants, version v0 ---------------------

# machine config the bound sweeps run on: 12 decodable points, K(r) known
# for r <= 6
BOUNDS_MAX_PROGRAM_LEN = 28
BOUNDS_STEP_BUDGET = 256

# K of encode_int(r) on the bounds machine, r = 0..6
K_INT = (8, 16, 20, 20, 24, 24, 24)

# minimal constants making each bound hold across the regression sweep
# (cube/ball: r <= 4, d <= 4; lds: layers <= 3, n <= 2, plus the
# singleton-block family over every enumerated point; precision: the
# reachable constant points, r <= 2, s <= 3)
CUBE_COUNT_CONSTANT = -8.0
BALL_COUNT_CONSTANT = -15.0
LDS_CODING_CONSTANT = -5.24511249783653
PRECISION_IMPROVEMENT_CONSTANT = 7

# ---- compressor-backed estimator, version v0 -----------------------------

# guard bits prepended to each coordinate column of a point representation
GUARD_BITS = 8

# reference stream used to normalize compressed lengths into slope units:
# the measured cost-per-bit of this pinned stream at the relevant length
REFERENCE_SEED = 1000003

# default precision grid for compressor-backed profiles: one point per
# octave across the declared window [2**10, 2**16]
COMPRESSOR_GRID = tuple(1024 * (1 << k) for k in range(7))

# sliding regression windows over the grid, in grid points; mutual profiles
# difference three cost curves and need the wider window to damp the noise
WINDOW_DIM = 4
WINDOW_MUTUAL = 5

# layout flag bits spent by the joint code choosing among the four pair
# layouts (two argument orders, plain or differenced second block)
JOINT_FLAG_BITS = 2

# ---- pinned suite configuration, version v0 -------------------------------

# calibration generators with their target dimensions (process entropy
# rates); the mutual self-pair identity check runs over this same set
CALIBRATION_SET = (
    ("random-7", {"kind": "random", "seed": 7, "n": 1}, 1.0),
    ("diluted-1/4", {"kind": "diluted", "seed": 7, "rho": "1/4", "n": 1}, 0.25),
    ("diluted-1/2", {"kind": "diluted", "seed": 7, "rho": "1/2", "n": 1}, 0.5),
    ("diluted-3/4", {"kind": "diluted", "seed": 7, "rho": "3/4", "n": 1}, 0.75),
    ("rational-1/4", {"kind": "rational", "values": ["1/4"]}, 0.0),
    ("rational-1/3", {"kind": "rational", "values": ["1/3"]}, 0.0),
)

# estimator acceptance gates over the calibration set
DILUTED_DIM_TOL = 0.1
RATIONAL_DIM_MAX = 0.05
RANDOM_DIM_MIN = 0.9
MDIM_IDENTITY_TOL = 0.1
MDIM_INDEPENDENT_MAX = 0.1

# the joint pair code is closed under argument swap, so the profile is
# exactly symmetric
MDIM_SYMMETRY_TOL = 0
MDIM_RANGE_SLACK = 0.1

# slope-comparison slacks for the function suites
DPI_SLACK = 0.1
TWO_SIDED_SLACK = 0.15

# counterexample demo gates: image dimension must exceed this floor while
# the parameter-image mutual slope stays under the ceiling
COUNTEREXAMPLE_DIM_FLOOR = 1.8
COUNTEREXAMPLE_MUTUAL_CEIL = 1.1
