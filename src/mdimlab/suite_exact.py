"""The exact suites: machine enumeration sanity, and the counting and
coding bounds with their pinned constants.

Both read the config's ``machine`` and run on its exhaustive enumeration;
neither loads the estimators or the function library.
"""

from __future__ import annotations

from . import constants as C
from .complexity import (
    check_ball_count_bound,
    check_cube_count_bound,
    check_lds_coding_bound,
    check_precision_improvement,
    enumerated_points,
    k_of_precision,
)
from .geometry import LdsRecord, dyadic_lds
from .machine import PrefixCheck, get_enumeration
from .oracles import ConstantOracle
from .report import (
    InvalidConfigError,
    SuiteReport,
    at_most,
    check_row,
    finish,
    info_row,
)


def _machine_suite(cfg) -> SuiteReport:
    enum = get_enumeration(cfg.machine)
    witnesses = PrefixCheck()
    witnesses.add_level(
        (w, w) for w in sorted(info.witness for info in enum.outputs.values())
    )
    halting = enum.halting_count
    mass = enum.kraft
    rows = [
        at_most("prefix_free", "witness set", witnesses.count(), 0),
        at_most("prefix_free", "halting set", enum.prefix_check.count(), 0),
        check_row("kraft", "mass <= 1", str(mass), "1", mass <= 1),
    ]
    key = (cfg.machine.max_program_len, cfg.machine.step_budget)
    pinned = C.HALTING_COUNT.get(key)
    if pinned is not None:
        rows.append(
            check_row("halting_count", f"max_len={key[0]} budget={key[1]}",
                      halting, pinned, halting == pinned)
        )
    else:
        rows.append(info_row("halting_count",
                             f"max_len={key[0]} budget={key[1]}", halting))
    constants = {
        "kraft_mass": mass,
        "halting_count": halting,
        "distinct_outputs": len(enum.outputs),
    }
    return finish("machine", rows, constants)


def _coding_suite(cfg) -> SuiteReport:
    mc = cfg.machine
    # every check below needs K(r) of its precision r, and r stays <= 4
    for r in range(5):
        try:
            k_of_precision(r, mc)
        except ValueError as exc:
            raise InvalidConfigError(
                f"{exc}; coding-bounds needs K(r) for r = 0..4"
            ) from exc
    points = enumerated_points(mc)
    rows = []
    measured = {"cube": [], "ball": [], "lds": [], "precision": []}

    def add(kind, check, detail, rep):
        rows.append(at_most(check, detail, rep.lhs, rep.rhs))
        measured[kind].append(rep.measured_constant)

    for r in range(5):
        for d in range(5):
            add("cube", "cube_count", f"r={r} d={d}",
                check_cube_count_bound(r, d, mc))
            add("ball", "ball_count", f"r={r} d={d}",
                check_ball_count_bound(r, d, mc))
    for n in (1, 2):
        lds = dyadic_lds(3, 3, points, n)
        for rep in check_lds_coding_bound(lds, mc):
            add("lds", "lds_coding", f"n={n} {rep.name}", rep)
    # Levin special case: singleton blocks, one per enumerated point
    singles = [LdsRecord(0, i, frozenset({encoding}))
               for i, (_, _, encoding) in enumerate(points)]
    for rep in check_lds_coding_bound(singles, mc):
        add("lds", "lds_singleton", rep.name, rep)
    for point, _, _ in points:
        oracle = ConstantOracle(point)
        for r in range(3):
            for s in range(1, 4):
                rep = check_precision_improvement(oracle, r, s, mc)
                if rep is not None:
                    add("precision", "precision_improvement",
                        f"{point.coords[0].to_fraction()} r={r} s={s}", rep)
    constants = {
        f"{kind}_constant": max(values, default=None)
        for kind, values in measured.items()
    }
    constants.update({
        "pinned_cube_constant": C.CUBE_COUNT_CONSTANT,
        "pinned_ball_constant": C.BALL_COUNT_CONSTANT,
        "pinned_lds_constant": C.LDS_CODING_CONSTANT,
        "pinned_precision_constant": C.PRECISION_IMPROVEMENT_CONSTANT,
    })
    return finish("coding-bounds", rows, constants)


RUNNERS = {"machine": _machine_suite, "coding-bounds": _coding_suite}
