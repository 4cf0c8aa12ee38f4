"""The estimator suites: K_r profiles of configured generators, and the
calibration of the dimension and mutual dimension estimators.

Neither maps a point through a function, so neither loads the function
library, and neither runs the exact machine, so neither loads ``machine``
or ``geometry``.
"""

from __future__ import annotations

from typing import Mapping

from . import constants as C
from .complexity import point_columns
from .mutual import dim_estimate, k_r_pair, mdim_estimate
from .oracles import PointOracle, make_oracle
from .report import SuiteReport, at_most, check_row, finish, info_row


def profiled_generator(spec: Mapping) -> PointOracle:
    """The oracle of a kprofile ``spec``, once its point fits the K_r guard
    range.

    A point fits at every precision when it fits at precision 0.
    """
    oracle = make_oracle(spec)
    point_columns(oracle.query(0), 0)
    return oracle


def _kprofile_suite(cfg) -> SuiteReport:
    generators = cfg.generators or tuple(
        (spec, make_oracle(spec)) for _, spec, _ in C.CALIBRATION_SET
    )
    rows = []
    for idx, (spec, oracle) in enumerate(generators):
        est = dim_estimate(oracle, cfg.grid)
        name = spec.get("kind", "?") + f"#{idx}"
        rows += [
            info_row("kprofile", f"{name} r={r}", k)
            for r, k in zip(est.r_grid, est.values)
        ]
        rows.append(info_row("dim_envelope", name,
                             round(est.lo, 6), round(est.hi, 6)))
    return finish("kprofile", rows, {})


def _mdim_suite(cfg) -> SuiteReport:
    rows = []
    oracles = {}
    estimates = {}
    for name, spec, target in C.CALIBRATION_SET:
        oracle = make_oracle(spec)
        oracles[name] = (oracle, target)
        est = dim_estimate(oracle, cfg.grid)
        estimates[name] = est
        if name.startswith("random"):
            ok = est.lo >= C.RANDOM_DIM_MIN
            rows.append(check_row("dim_random", name, round(est.lo, 6),
                                  C.RANDOM_DIM_MIN, ok))
        elif name.startswith("diluted"):
            err = max(abs(est.lo - target), abs(est.hi - target))
            rows.append(at_most("dim_diluted", f"{name} target={target}",
                                err, C.DILUTED_DIM_TOL))
        else:
            rows.append(at_most("dim_rational", name, est.lo,
                                C.RATIONAL_DIM_MAX))
    worst_identity = 0.0
    for name, (oracle, _) in oracles.items():
        est = estimates[name]
        prof = mdim_estimate(oracle, oracle, cfg.grid)
        delta = max(abs(prof.lo - est.lo), abs(prof.hi - est.hi))
        worst_identity = max(worst_identity, delta)
        rows.append(at_most("mdim_identity", name, delta,
                            C.MDIM_IDENTITY_TOL))
        cap = oracle.dimension + C.MDIM_RANGE_SLACK
        ok_range = prof.lo >= 0 and prof.hi <= cap
        rows.append(check_row("mdim_range", name,
                              round(prof.lo, 6), round(cap, 6), ok_range))
    other = make_oracle({"kind": "random", "seed": 8, "n": 1})
    indep = mdim_estimate(oracles["random-7"][0], other, cfg.grid)
    rows.append(at_most("mdim_independent", "random-7 : random-8",
                        indep.hi, C.MDIM_INDEPENDENT_MAX))
    sym_worst = 0
    a = oracles["random-7"][0]
    b = oracles["diluted-1/2"][0]
    for r in cfg.grid:
        sym_worst = max(sym_worst, abs(k_r_pair(a, b, r) - k_r_pair(b, a, r)))
    rows.append(at_most("mdim_symmetry", "random-7 : diluted-1/2 sweep",
                        sym_worst, C.MDIM_SYMMETRY_TOL))
    constants = {
        "worst_identity_delta": round(worst_identity, 6),
        "independent_slope_hi": round(indep.hi, 6),
        "symmetry_max_delta": sym_worst,
    }
    return finish("mdim", rows, constants)


RUNNERS = {"kprofile": _kprofile_suite, "mdim": _mdim_suite}
