"""Named verification suites with deterministic CSV and JSON reports.

Each suite re-runs one slice of the package's guarantees end to end:
machine enumeration sanity, geometry exactness, counting and coding
bounds with their pinned constants, estimator calibration, the data
processing inequalities in both directions, conservation of the mutual
slope under certified maps, and the space-filling counterexample.  A
report is a list of typed rows plus the constants the run measured;
rendering is byte-stable so identical configs produce identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import constants as C
from .codec import DyadicRational, RationalPoint, distance_sq, json_int, json_object
from .complexity import (
    check_ball_count_bound,
    check_cube_count_bound,
    check_lds_coding_bound,
    check_precision_improvement,
    enumerated_points,
    k_of_precision,
    point_columns,
)
from .functions import ComputableFunction, ImageOracle, library_function
from .geometry import (
    Ball,
    DyadicCube,
    LdsRecord,
    cube_containing,
    cubes_intersecting_ball,
    dyadic_lds,
    lattice_point_in_ball,
)
from .machine import (
    MachineConfig,
    PrefixCheck,
    ResourceExceededError,
    capped_levels,
    get_enumeration,
)
from .mutual import dim_estimate, k_r_pair, mdim_estimate
from .oracles import ConstantOracle, PointOracle, ProductOracle, make_oracle


class InvalidConfigError(ValueError):
    """The experiment description cannot be run as given."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; equal configs give identical reports.

    ``generators`` and ``functions`` pair each config spec with the oracle
    or library function built from it when the config was read; ``grid``
    holds the estimator precisions the config's window keeps.
    """

    suite: str
    machine: MachineConfig
    generators: tuple[tuple[Mapping, PointOracle], ...] = ()
    functions: tuple[tuple[Mapping, ComputableFunction], ...] = ()
    grid: tuple[int, ...] = C.COMPRESSOR_GRID
    seed: int = 0
    out_format: str = "json"
    out_path: str | None = None


@dataclass
class SuiteReport:
    suite: str
    pass_count: int
    fail_count: int
    measured_constants: dict
    rows: list[dict]

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "pass_count": self.pass_count,
            "fail_count": self.fail_count,
            "measured_constants": {
                k: _plain(v) for k, v in self.measured_constants.items()
            },
            "rows": [
                {k: _plain(v) for k, v in row.items()} for row in self.rows
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("check", "detail", "value", "bound", "status"))
        writer.writerow(
            ("summary", self.suite, self.pass_count, self.fail_count,
             "pass" if self.fail_count == 0 else "fail")
        )
        for name in sorted(self.measured_constants):
            writer.writerow(
                ("measured_constant", name,
                 _plain(self.measured_constants[name]), "", "info")
            )
        for row in self.rows:
            writer.writerow(
                (row["check"], row["detail"], _plain(row["value"]),
                 _plain(row["bound"]), row["status"])
            )
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _check(check: str, detail: str, value, bound, ok: bool) -> dict:
    return {
        "check": check,
        "detail": detail,
        "value": value,
        "bound": bound,
        "status": "pass" if ok else "fail",
    }


def _at_most(check: str, detail: str, value, bound) -> dict:
    """Gated row: value <= bound, both reported rounded to 6 places."""
    return _check(check, detail, round(value, 6), round(bound, 6),
                  value <= bound)


def _info(check: str, detail: str, value, bound="") -> dict:
    return {
        "check": check,
        "detail": detail,
        "value": value,
        "bound": bound,
        "status": "info",
    }


def _finish(suite: str, rows: list[dict], constants: dict) -> SuiteReport:
    passes = sum(1 for row in rows if row["status"] == "pass")
    fails = sum(1 for row in rows if row["status"] == "fail")
    return SuiteReport(suite, passes, fails, constants, rows)


# ---- config loading ---------------------------------------------------------


@contextmanager
def _field(name: str):
    """Report a malformed config value as an InvalidConfigError naming it."""
    try:
        yield
    except (ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError) as exc:
        raise InvalidConfigError(f"invalid {name}: {exc!r}") from exc


def _built(data: Mapping, name: str, build) -> tuple:
    """(spec, build(spec)) for each spec of the config list ``name``."""
    specs = data.get(name, [])
    if not isinstance(specs, (list, tuple)):
        raise InvalidConfigError(f"{name} must be a list")
    built = []
    for i, spec in enumerate(specs):
        with _field(f"{name}[{i}]"):
            built.append((spec, build(spec)))
    return tuple(built)


def _profiled_generator(spec: Mapping) -> PointOracle:
    """The oracle of ``spec``, once its point fits the K_r guard range.

    A point fits at every precision when it fits at precision 0.
    """
    oracle = make_oracle(spec)
    point_columns(oracle.query(0), 0)
    return oracle


def _dpi_function(spec: Mapping, grid: tuple[int, ...]) -> ComputableFunction:
    """The function of ``spec``, once it has dpi base pairs and its image of
    each base point fits the K_r guard range at every precision of grid."""
    with json_object("function", spec) as spec:
        f = library_function(spec["name"], spec.get("params"))
    base_pairs = _dpi_base_pairs()
    if f.n not in base_pairs:
        raise ValueError(f"no pinned generator pair of arity {f.n} for {f.name}")
    for _, x, _ in base_pairs[f.n]:
        for r in grid:
            point_columns(ImageOracle(f, x).query(r), r)
    return f


def config_from_mapping(data: Mapping) -> ExperimentConfig:
    """Validate a plain-data config and build everything it names.

    This is the only place outside input becomes an ``ExperimentConfig``:
    every malformed value, unknown key or key the suite does not read is
    rejected here, before any suite work.  The one check left to a suite is
    coding-bounds' reachability of K(r), which needs the enumeration.
    """
    suite = data.get("suite")
    if not isinstance(suite, str) or suite not in _SUITES:
        raise InvalidConfigError(f"unknown suite: {suite!r}")
    accepted = ("suite", "format", "out", *_SUITES[suite][1])
    for key in data:
        readers = [name for name, (_, keys) in _SUITES.items() if key in keys]
        if key not in accepted and readers:
            raise InvalidConfigError(
                f"{key} is read only by {' and '.join(readers)}, not {suite}"
            )
    for key in data:
        if key not in accepted:
            raise InvalidConfigError(
                f"unknown config key {key!r}; accepted: {', '.join(accepted)}")
    with _field("machine"), json_object("machine", data.get("machine", {})) as m:
        machine = MachineConfig(
            max_program_len=json_int(
                "max_program_len",
                m.get("max_program_len", C.BOUNDS_MAX_PROGRAM_LEN),
            ),
            step_budget=json_int(
                "step_budget", m.get("step_budget", C.BOUNDS_STEP_BUDGET)
            ),
        )
    try:
        capped_levels(machine)
    except ResourceExceededError as exc:
        raise InvalidConfigError(str(exc)) from exc
    grid = C.COMPRESSOR_GRID
    window = data.get("window")
    if window is not None:
        with _field("window"):
            window = tuple(json_int("window bound", v) for v in window)
        if len(window) != 2 or window[0] > window[1]:
            raise InvalidConfigError("window must be [lo, hi] with lo <= hi")
        grid = tuple(r for r in grid if window[0] <= r <= window[1])
        if len(grid) < 2:
            raise InvalidConfigError(
                f"window keeps {len(grid)} grid precision(s); a slope needs two"
            )
    with _field("seed"):
        seed = json_int("seed", data.get("seed", 0))
    fmt = data.get("format", "json")
    if fmt not in ("json", "csv"):
        raise InvalidConfigError(f"unknown output format: {fmt!r}")
    out = data.get("out")
    if out is not None:
        if not isinstance(out, str):
            raise InvalidConfigError(f"out must be a file path, not {out!r}")
        directory = os.path.dirname(out) or "."
        if (os.path.isdir(out) or not os.path.isdir(directory)
                or not os.access(directory, os.W_OK)):
            raise InvalidConfigError(
                f"out {out!r} is not a file in a writable directory"
            )
    generators = _built(data, "generators", _profiled_generator
                        if suite == "kprofile" else make_oracle)
    if suite == "counterexample" and (
            len(generators) > 1 or any(x.dimension != 1 for _, x in generators)):
        raise InvalidConfigError(
            "counterexample takes at most one generator, of one coordinate")
    return ExperimentConfig(
        suite=suite,
        machine=machine,
        generators=generators,
        functions=_built(data, "functions", lambda s: _dpi_function(s, grid)),
        grid=grid,
        seed=seed,
        out_format=fmt,
        out_path=out,
    )


def load_config(path: str, flags: Mapping | None = None) -> ExperimentConfig:
    """Parse the JSON config at ``path``; each of ``flags`` replaces the
    file's value for its key before the check."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, an over-long integer
        raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfigError("config must be a JSON object")
    return config_from_mapping({**data, **(flags or {})})


# ---- machine suite ----------------------------------------------------------


def _machine_suite(cfg: ExperimentConfig) -> SuiteReport:
    enum = get_enumeration(cfg.machine)
    witnesses = PrefixCheck()
    witnesses.add_level(
        (w, w) for w in sorted(info.witness for info in enum.outputs.values())
    )
    halting = enum.halting_count
    mass = enum.kraft
    rows = [
        _at_most("prefix_free", "witness set", witnesses.count(), 0),
        _at_most("prefix_free", "halting set", enum.prefix_check.count(), 0),
        _check("kraft", "mass <= 1", str(mass), "1", mass <= 1),
    ]
    key = (cfg.machine.max_program_len, cfg.machine.step_budget)
    pinned = C.HALTING_COUNT.get(key)
    if pinned is not None:
        rows.append(
            _check("halting_count", f"max_len={key[0]} budget={key[1]}",
                   halting, pinned, halting == pinned)
        )
    else:
        rows.append(_info("halting_count",
                          f"max_len={key[0]} budget={key[1]}", halting))
    constants = {
        "kraft_mass": mass,
        "halting_count": halting,
        "distinct_outputs": len(enum.outputs),
    }
    return _finish("machine", rows, constants)


# ---- geometry suite ---------------------------------------------------------


def _random_point(rng: random.Random, n: int, depth: int) -> RationalPoint:
    """n coordinates m / 2**depth, each m drawn from [-2**(depth+1), 2**(depth+1))."""
    return RationalPoint(
        tuple(
            DyadicRational(rng.randrange(-(2 << depth), 2 << depth), depth)
            for _ in range(n)
        )
    )


def _random_ball(rng: random.Random, n: int) -> Ball:
    r = rng.randrange(0, 13)
    return Ball.at_precision(_random_point(rng, n, r + 2), r)


def _geometry_axis_task(seed: int, n: int) -> tuple[list[dict], int]:
    """The axis-n rows and the largest cube cover seen."""
    rng = random.Random(f"{seed}:axis={n}")
    trials = 2500
    hits = 0
    worst_cover = 0
    for _ in range(trials):
        ball = _random_ball(rng, n)
        point = lattice_point_in_ball(ball)
        if distance_sq(point, ball.center) < ball.radius**2:
            hits += 1
        worst_cover = max(worst_cover, len(cubes_intersecting_ball(ball)))
    r = 4
    center = RationalPoint(tuple(DyadicRational(1, r + 1) for _ in range(n)))
    witness = len(cubes_intersecting_ball(Ball.at_precision(center, r)))
    # open balls cannot reach the diagonal corner cubes once n*(1/2)^2 >= 1,
    # so the sharp maximum drops below 3^n starting at n = 4
    sharp = sum(math.comb(n, k) * 2**k for k in range(min(n, 3) + 1))
    rows = [
        _check("lattice_point_in_ball", f"n={n} trials={trials}",
               hits, trials, hits == trials),
        _at_most("cube_cover", f"n={n} max observed", worst_cover, 3**n),
        _check("cube_cover_tight", f"n={n} witness", witness, sharp,
               witness == sharp),
    ]
    return rows, worst_cover


def _geometry_partition_task(seed: int) -> list[dict]:
    rng = random.Random(f"{seed}:partition")
    fails = 0
    for _ in range(10000):
        n = rng.randrange(1, 4)
        r = rng.randrange(0, 13)
        q = _random_point(rng, n, r + 3)
        cube = cube_containing(q, r)
        if not cube.contains(q):
            fails += 1
            continue
        shifted = DyadicCube(cube.precision, tuple(i + 1 for i in cube.index))
        if shifted.contains(q):
            fails += 1
    return [
        _at_most("partition", "unique containing cube, 10^4 points", fails, 0)
    ]


def _geometry_suite(cfg: ExperimentConfig) -> SuiteReport:
    rows = []
    constants = {}
    for n in (1, 2, 3, 4):
        axis_rows, constants[f"cover_max_n{n}"] = _geometry_axis_task(cfg.seed, n)
        rows += axis_rows
    rows += _geometry_partition_task(cfg.seed)
    return _finish("geometry", rows, constants)


# ---- coding bounds suite ----------------------------------------------------


def _coding_suite(cfg: ExperimentConfig) -> SuiteReport:
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
        rows.append(_at_most(check, detail, rep.lhs, rep.rhs))
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
    return _finish("coding-bounds", rows, constants)


# ---- profile and estimator suites -------------------------------------------


def _kprofile_suite(cfg: ExperimentConfig) -> SuiteReport:
    generators = cfg.generators or tuple(
        (spec, make_oracle(spec)) for _, spec, _ in C.CALIBRATION_SET
    )
    rows = []
    for idx, (spec, oracle) in enumerate(generators):
        est = dim_estimate(oracle, cfg.grid)
        name = spec.get("kind", "?") + f"#{idx}"
        rows += [
            _info("kprofile", f"{name} r={r}", k)
            for r, k in zip(est.r_grid, est.k_values)
        ]
        rows.append(_info("dim_envelope", name,
                          round(est.lo, 6), round(est.hi, 6)))
    return _finish("kprofile", rows, {})


def _mdim_suite(cfg: ExperimentConfig) -> SuiteReport:
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
            rows.append(_check("dim_random", name, round(est.lo, 6),
                               C.RANDOM_DIM_MIN, ok))
        elif name.startswith("diluted"):
            err = max(abs(est.lo - target), abs(est.hi - target))
            rows.append(_at_most("dim_diluted", f"{name} target={target}",
                                 err, C.DILUTED_DIM_TOL))
        else:
            rows.append(_at_most("dim_rational", name, est.lo,
                                 C.RATIONAL_DIM_MAX))
    worst_identity = 0.0
    for name, (oracle, _) in oracles.items():
        est = estimates[name]
        prof = mdim_estimate(oracle, oracle, cfg.grid)
        delta = max(abs(prof.slope_lo - est.lo), abs(prof.slope_hi - est.hi))
        worst_identity = max(worst_identity, delta)
        rows.append(_at_most("mdim_identity", name, delta,
                             C.MDIM_IDENTITY_TOL))
        cap = oracle.dimension + C.MDIM_RANGE_SLACK
        ok_range = prof.slope_lo >= 0 and prof.slope_hi <= cap
        rows.append(_check("mdim_range", name,
                           round(prof.slope_lo, 6), round(cap, 6), ok_range))
    other = make_oracle({"kind": "random", "seed": 8, "n": 1})
    indep = mdim_estimate(oracles["random-7"][0], other, cfg.grid)
    rows.append(_at_most("mdim_independent", "random-7 : random-8",
                         indep.slope_hi, C.MDIM_INDEPENDENT_MAX))
    sym_worst = 0
    a = oracles["random-7"][0]
    b = oracles["diluted-1/2"][0]
    for r in cfg.grid:
        sym_worst = max(sym_worst, abs(k_r_pair(a, b, r) - k_r_pair(b, a, r)))
    rows.append(_at_most("mdim_symmetry", "random-7 : diluted-1/2 sweep",
                         sym_worst, C.MDIM_SYMMETRY_TOL))
    constants = {
        "worst_identity_delta": round(worst_identity, 6),
        "independent_slope_hi": round(indep.slope_hi, 6),
        "symmetry_max_delta": sym_worst,
    }
    return _finish("mdim", rows, constants)


# ---- function suites --------------------------------------------------------


def _shared_oracles():
    d12 = make_oracle({"kind": "diluted", "seed": 7, "rho": "1/2", "n": 1})
    r7 = make_oracle({"kind": "random", "seed": 7, "n": 1})
    r8 = make_oracle({"kind": "random", "seed": 8, "n": 1})
    r9 = make_oracle({"kind": "random", "seed": 9, "n": 1})
    return d12, r7, r8, r9, ProductOracle(d12, r9)


def _dpi_base_pairs() -> dict[int, list]:
    """The (label, x, y) pairs dpi maps each function over, by its arity."""
    d12, r7, r8, _, x2 = _shared_oracles()
    return {1: [("diluted-1/2:self", d12, d12), ("random-7:random-8", r7, r8)],
            2: [("(diluted-1/2,random-9):diluted-1/2", x2, d12)]}


DEFAULT_DPI_FUNCTIONS = (
    {"name": "identity", "params": {"n": 1}},
    {"name": "scale", "params": {"c": "1/2"}},
    {"name": "scale", "params": {"c": "2"}},
    {"name": "sum", "params": {"n": 2}},
    {"name": "affine", "params": {"matrix": [["1", "1/2"], ["0", "1"]],
                                  "offset": ["1/4", "0"]}},
    {"name": "projection", "params": {"n": 2, "S": [1]}},
    {"name": "hilbert2d", "params": {}},
)


def _holder_factor(f) -> int:
    """ceil(1 / alpha) of the declared modulus: a Holder map scales mdim
    by at most that factor; a Lipschitz one (alpha = 1) does not."""
    alpha = f.declared_modulus.alpha
    return -(-alpha.denominator // alpha.numerator)


def _function_label(spec: Mapping) -> str:
    params = spec.get("params", {})
    if params:
        inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
        return f"{spec['name']}({inner})"
    return spec["name"]


def _dpi_suite(cfg: ExperimentConfig) -> SuiteReport:
    base_pairs = _dpi_base_pairs()
    functions = cfg.functions or tuple(
        (spec, library_function(spec["name"], spec.get("params")))
        for spec in DEFAULT_DPI_FUNCTIONS
    )
    base_profiles = {}
    rows = []
    margins = []
    for spec, f in functions:
        factor = _holder_factor(f)
        for pair_name, x, y in base_pairs[f.n]:
            if pair_name not in base_profiles:
                base_profiles[pair_name] = mdim_estimate(x, y, cfg.grid)
            base = base_profiles[pair_name]
            image = mdim_estimate(ImageOracle(f, x), y, cfg.grid)
            bound = factor * base.slope_hi + C.DPI_SLACK
            label = f"{_function_label(spec)} on {pair_name}"
            rows.append(_at_most("dpi_slope", label, image.slope_hi, bound))
            margins.append(bound - image.slope_hi)
            for j, r in enumerate(image.r_grid):
                target = f.declared_modulus.value(r + 1)
                later = [jj for jj, rr in enumerate(base.r_grid)
                         if rr >= target]
                if not later:
                    continue
                slack = base.i_values[later[0]] - image.i_values[j]
                rows.append(_info("dpi_finite_scale",
                                  f"{label} r={r}", slack))
    return _finish("dpi", rows, {"worst_margin": round(min(margins), 6)})


def _reverse_rows(check: str, label: str, base, prof) -> list[dict]:
    """Gated rows: each slope of ``base`` is at most ``prof``'s plus DPI_SLACK."""
    return [
        _at_most(f"{check}_lo", label, base.slope_lo,
                 prof.slope_lo + C.DPI_SLACK),
        _at_most(f"{check}_hi", label, base.slope_hi,
                 prof.slope_hi + C.DPI_SLACK),
    ]


def _reverse_dpi_suite(cfg: ExperimentConfig) -> SuiteReport:
    d12, _, _, _, _ = _shared_oracles()
    base = mdim_estimate(d12, d12, cfg.grid)
    ident = library_function("identity", {"n": 1})
    translate = library_function("affine", {
        "matrix": [["1"]], "offset": ["5/8"],
        "inverse_modulus": {"S": [1], "s": 0},
    })
    s2 = library_function("sum", {"n": 2})
    z58 = make_oracle({"kind": "rational", "values": ["5/8"]})
    sum_pair = ProductOracle(ImageOracle(s2, ProductOracle(d12, z58)), z58)
    configs = [
        ("identity S=[1]", ImageOracle(ident, d12)),
        ("translate(5/8) S=[1]", ImageOracle(translate, d12)),
        ("sum S={1} z=5/8", sum_pair),
    ]
    rows = []
    margins = []
    for label, pair_oracle in configs:
        prof = mdim_estimate(pair_oracle, d12, cfg.grid)
        rows += _reverse_rows("reverse_dpi", label, base, prof)
        margins += [prof.slope_lo + C.DPI_SLACK - base.slope_lo,
                    prof.slope_hi + C.DPI_SLACK - base.slope_hi]
    return _finish("reverse-dpi", rows, {"worst_margin": round(min(margins), 6)})


def _conservation_suite(cfg: ExperimentConfig) -> SuiteReport:
    d12, _, _, r9, x2 = _shared_oracles()
    base1 = mdim_estimate(d12, d12, cfg.grid)
    base2 = mdim_estimate(x2, x2, cfg.grid)
    rows = []

    ident = library_function("identity", {"n": 1})
    prof = mdim_estimate(ImageOracle(ident, d12), ImageOracle(ident, d12),
                         cfg.grid)
    rows.append(_at_most("conservation_identity", "id:id on diluted-1/2",
                         prof.slope_hi, base1.slope_hi + C.DPI_SLACK))

    half = library_function("scale", {"c": "1/2"})
    prof = mdim_estimate(ImageOracle(half, d12), ImageOracle(half, d12),
                         cfg.grid)
    rows.append(_at_most("conservation_contraction",
                         "scale(1/2) pair on diluted-1/2",
                         prof.slope_hi, base1.slope_hi + C.DPI_SLACK))

    swap_a = library_function("affine", {
        "matrix": [["0", "1"], ["1", "0"]], "offset": ["1/4", "5/8"],
        "inverse_modulus": {"S": [1, 2], "s": 0},
    })
    swap_b = library_function("affine", {
        "matrix": [["0", "1"], ["1", "0"]], "offset": ["3/16", "1/2"],
        "inverse_modulus": {"S": [1, 2], "s": 0},
    })
    prof = mdim_estimate(ImageOracle(swap_a, x2), ImageOracle(swap_b, x2),
                         cfg.grid)
    delta = max(abs(prof.slope_lo - base2.slope_lo),
                abs(prof.slope_hi - base2.slope_hi))
    rows.append(_at_most("conservation_bilipschitz",
                         "swap affine pair on (diluted-1/2,random-9)",
                         delta, C.TWO_SIDED_SLACK))

    hilb = library_function("hilbert2d")
    prof = mdim_estimate(ImageOracle(hilb, d12), ImageOracle(ident, d12),
                         cfg.grid)
    rows.append(_at_most("conservation_holder",
                         "hilbert2d:identity factor 2 on diluted-1/2",
                         prof.slope_hi,
                         _holder_factor(hilb) * base1.slope_hi + C.DPI_SLACK))

    s2 = library_function("sum", {"n": 2})
    w = make_oracle({"kind": "rational", "values": ["5/8"]})
    z = make_oracle({"kind": "rational", "values": ["3/16"]})
    pw = ProductOracle(ImageOracle(s2, ProductOracle(d12, w)), w)
    pz = ProductOracle(ImageOracle(s2, ProductOracle(d12, z)), z)
    prof = mdim_estimate(pw, pz, cfg.grid)
    rows += _reverse_rows("conservation_reverse",
                          "sum pairs w=5/8 z=3/16 on diluted-1/2", base1, prof)
    return _finish("conservation", rows, {
        "bilipschitz_delta": round(delta, 6),
    })


def _is_exact_point(spec: Mapping) -> bool:
    """Whether a generator spec names a point it can write down exactly."""
    if spec.get("kind") == "product":
        return all(_is_exact_point(f) for f in spec["factors"])
    return spec.get("kind") in ("rational", "constant")


def _ordering(image_hi: float, param_hi: float, mutual_hi: float) -> str:
    """``image_hi ? 1 ? param_hi ? mutual_hi`` to 4 places, each ``?`` the
    relation that holds between its printed neighbours."""
    a, b, c = (f"{v:.4f}" for v in (image_hi, param_hi, mutual_hi))
    first = ">" if float(a) > 1 else "<="
    second = ">=" if 1 >= float(b) else "<"
    third = ">=" if float(b) >= float(c) else "<"
    return f"{a} {first} 1 {second} {b} {third} {c}"


def _counterexample_suite(cfg: ExperimentConfig) -> SuiteReport:
    if cfg.generators:
        spec, x = cfg.generators[0]
    else:
        spec = {"kind": "random", "seed": 1, "n": 1}
        x = make_oracle(spec)
    hilb = library_function("hilbert2d")
    fx = ImageOracle(hilb, x)
    dim_image = dim_estimate(fx, cfg.grid)
    rows = []
    constants = {
        "dim_image_lo": round(dim_image.lo, 6),
        "dim_image_hi": round(dim_image.hi, 6),
    }
    # an exact point has dimension 0, so it cannot witness the gap
    if _is_exact_point(spec):
        rows.append(_info("counterexample", "not a counterexample witness",
                          round(dim_image.hi, 6)))
        return _finish("counterexample", rows, constants)
    mutual = mdim_estimate(x, fx, cfg.grid)
    dim_x = dim_estimate(x, cfg.grid)
    rows.append(_check("image_dimension", "dim(hilbert2d(x)).hi",
                       round(dim_image.hi, 6), C.COUNTEREXAMPLE_DIM_FLOOR,
                       dim_image.hi >= C.COUNTEREXAMPLE_DIM_FLOOR))
    rows.append(_at_most("parameter_image_mutual", "slope_hi(x : hilbert2d(x))",
                         mutual.slope_hi, C.COUNTEREXAMPLE_MUTUAL_CEIL))
    rows.append(_info("ordering",
                      "image dim vs 1 vs parameter Dim vs mutual",
                      _ordering(dim_image.hi, dim_x.hi, mutual.slope_hi)))
    constants.update({
        "mutual_slope_hi": round(mutual.slope_hi, 6),
        "dim_parameter_hi": round(dim_x.hi, 6),
    })
    return _finish("counterexample", rows, constants)


# ---- dispatch ---------------------------------------------------------------


# each suite's runner and the config keys it reads besides suite, format, out
_SUITES = {
    "machine": (_machine_suite, ("machine",)),
    "geometry": (_geometry_suite, ("seed",)),
    "coding-bounds": (_coding_suite, ("machine",)),
    "kprofile": (_kprofile_suite, ("window", "generators")),
    "mdim": (_mdim_suite, ("window",)),
    "dpi": (_dpi_suite, ("window", "functions")),
    "reverse-dpi": (_reverse_dpi_suite, ("window",)),
    "conservation": (_conservation_suite, ("window",)),
    "counterexample": (_counterexample_suite, ("window", "generators")),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    return _SUITES[cfg.suite][0](cfg)


def write_report(report: SuiteReport, cfg: ExperimentConfig) -> str:
    text = report.render(cfg.out_format)
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text
