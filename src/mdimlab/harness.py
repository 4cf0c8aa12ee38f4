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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import constants as C
from .codec import DyadicRational, RationalPoint, distance_sq
from .complexity import (
    KBackend,
    check_ball_count_bound,
    check_cube_count_bound,
    check_lds_coding_bound,
    check_precision_improvement,
    compressor_backend,
    enumerated_points,
    exact_machine,
)
from .complexity import point_columns
from .functions import ImageOracle, library_function
from .geometry import (
    Ball,
    DyadicCube,
    LdsRecord,
    cube_containing,
    cubes_intersecting_ball,
    dyadic_lds,
    lattice_point_in_ball,
)
from .machine import MachineConfig, enumerate_halting, get_enumeration
from .mutual import dim_estimate, mdim_estimate, pair_cost
from .oracles import ConstantOracle, ProductOracle, make_oracle


class InvalidConfigError(ValueError):
    """The experiment description cannot be run as given."""


SUITE_NAMES = (
    "machine",
    "kraft",
    "geometry",
    "coding-bounds",
    "kprofile",
    "mdim",
    "dpi",
    "reverse-dpi",
    "conservation",
    "counterexample",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; equal configs give identical reports."""

    suite: str
    machine: MachineConfig
    backend: KBackend
    generators: tuple[Mapping, ...] = ()
    functions: tuple[Mapping, ...] = ()
    window: tuple[int, int] | None = None
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
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise InvalidConfigError(f"unknown output format: {fmt!r}")


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


def _run_tasks(tasks: Sequence[Callable[[], list[dict]]]) -> list[dict]:
    """Run independent row producers, honoring the thread cap; results keep
    the submission order so reports stay deterministic."""
    workers = int(os.environ.get("MDIMLAB_THREADS", "1") or "1")
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda task: task(), tasks))
    else:
        chunks = [task() for task in tasks]
    return [row for chunk in chunks for row in chunk]


# ---- config loading ---------------------------------------------------------


def config_from_mapping(data: Mapping) -> ExperimentConfig:
    suite = data.get("suite")
    if suite not in SUITE_NAMES:
        raise InvalidConfigError(f"unknown suite: {suite!r}")
    m = data.get("machine", {})
    version_tag = str(m.get("version_tag", C.MACHINE_VERSION))
    if version_tag not in C.PINNED_VERSIONS:
        raise InvalidConfigError(
            f"no pinned constants for version_tag {version_tag!r}; "
            f"pinned: {', '.join(sorted(C.PINNED_VERSIONS))}"
        )
    machine = MachineConfig(
        max_program_len=int(m.get("max_program_len", C.BOUNDS_MAX_PROGRAM_LEN)),
        step_budget=int(m.get("step_budget", C.BOUNDS_STEP_BUDGET)),
        version_tag=version_tag,
    )
    backend_kind = data.get("backend", "compressor")
    if backend_kind == "compressor":
        backend = compressor_backend()
    elif backend_kind == "exact_machine":
        backend = exact_machine(machine)
    else:
        raise InvalidConfigError(f"unknown backend: {backend_kind!r}")
    window = data.get("window")
    if window is not None:
        if len(window) != 2 or window[0] > window[1]:
            raise InvalidConfigError("window must be [lo, hi] with lo <= hi")
        window = (int(window[0]), int(window[1]))
    fmt = data.get("format", "json")
    if fmt not in ("json", "csv"):
        raise InvalidConfigError(f"unknown output format: {fmt!r}")
    return ExperimentConfig(
        suite=suite,
        machine=machine,
        backend=backend,
        generators=tuple(data.get("generators", ())),
        functions=tuple(data.get("functions", ())),
        window=window,
        seed=int(data.get("seed", 0)),
        out_format=fmt,
        out_path=data.get("out"),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfigError("config must be a JSON object")
    return config_from_mapping(data)


def _grid(cfg: ExperimentConfig) -> tuple[int, ...] | None:
    """Estimator grid filtered to the config window, None for the default."""
    if cfg.window is None:
        return None
    lo, hi = cfg.window
    base = C.COMPRESSOR_GRID if cfg.backend.kind == "compressor" else C.EXACT_GRID
    grid = tuple(r for r in base if lo <= r <= hi)
    if not grid:
        raise InvalidConfigError("window excludes every grid precision")
    return grid


# ---- machine suite ----------------------------------------------------------


def _machine_suite(cfg: ExperimentConfig) -> SuiteReport:
    enum = get_enumeration(cfg.machine)
    enum.ensure_complete()
    witnesses = sorted(info.witness for info in enum.outputs.values())
    witness_violations = sum(
        1
        for a, b in zip(witnesses, witnesses[1:])
        if b.startswith(a) and a != b
    )
    halting = sorted(p for p, _ in enumerate_halting(cfg.machine))
    halting_violations = sum(
        1
        for a, b in zip(halting, halting[1:])
        if b.startswith(a) and a != b
    )
    mass = enum.kraft
    rows = [
        _check("prefix_free", "witness set", witness_violations, 0,
               witness_violations == 0),
        _check("prefix_free", "halting set", halting_violations, 0,
               halting_violations == 0),
        _check("kraft", "mass <= 1", str(mass), "1", mass <= 1),
    ]
    key = (cfg.machine.max_program_len, cfg.machine.step_budget)
    pinned = C.HALTING_COUNT.get(key)
    if pinned is not None:
        rows.append(
            _check("halting_count", f"max_len={key[0]} budget={key[1]}",
                   len(halting), pinned, len(halting) == pinned)
        )
    else:
        rows.append(_info("halting_count",
                          f"max_len={key[0]} budget={key[1]}", len(halting)))
    constants = {
        "kraft_mass": mass,
        "halting_count": len(halting),
        "distinct_outputs": len(enum.outputs),
    }
    return _finish("machine", rows, constants)


# ---- geometry suite ---------------------------------------------------------


def _random_ball(rng: random.Random, n: int) -> tuple[Ball, int]:
    r = rng.randrange(0, 13)
    depth = r + 2
    coords = tuple(
        DyadicRational(rng.randrange(-(2 << depth), 2 << depth), depth)
        for _ in range(n)
    )
    return Ball.at_precision(RationalPoint(coords), r), r


def _geometry_axis_task(seed: int, n: int) -> list[dict]:
    rng = random.Random(f"{seed}:axis={n}")
    trials = 2500
    hits = 0
    worst_cover = 0
    for _ in range(trials):
        ball, r = _random_ball(rng, n)
        point = lattice_point_in_ball(ball, r)
        if distance_sq(point, ball.center) < ball.radius**2:
            hits += 1
        worst_cover = max(worst_cover, len(cubes_intersecting_ball(ball, r)))
    r = 4
    center = RationalPoint(tuple(DyadicRational(1, r + 1) for _ in range(n)))
    witness = len(cubes_intersecting_ball(Ball.at_precision(center, r), r))
    # open balls cannot reach the diagonal corner cubes once n*(1/2)^2 >= 1,
    # so the sharp maximum drops below 3^n starting at n = 4
    sharp = sum(math.comb(n, k) * 2**k for k in range(min(n, 3) + 1))
    return [
        _check("lattice_point_in_ball", f"n={n} trials={trials}",
               hits, trials, hits == trials),
        _check("cube_cover", f"n={n} max observed", worst_cover, 3**n,
               worst_cover <= 3**n),
        _check("cube_cover_tight", f"n={n} witness", witness, sharp,
               witness == sharp),
        _info("cover_max", f"n={n}", worst_cover),
    ]


def _geometry_partition_task(seed: int) -> list[dict]:
    rng = random.Random(f"{seed}:partition")
    fails = 0
    for _ in range(10000):
        n = rng.randrange(1, 4)
        r = rng.randrange(0, 13)
        depth = r + 3
        q = RationalPoint(
            tuple(
                DyadicRational(rng.randrange(-(2 << depth), 2 << depth), depth)
                for _ in range(n)
            )
        )
        cube = cube_containing(q, r)
        if not cube.contains(q):
            fails += 1
            continue
        shifted = DyadicCube(cube.precision, tuple(i + 1 for i in cube.index))
        if shifted.contains(q):
            fails += 1
    return [
        _check("partition", "unique containing cube, 10^4 points",
               fails, 0, fails == 0)
    ]


def _geometry_suite(cfg: ExperimentConfig) -> SuiteReport:
    tasks = [
        (lambda n=n: _geometry_axis_task(cfg.seed, n)) for n in (1, 2, 3, 4)
    ]
    tasks.append(lambda: _geometry_partition_task(cfg.seed))
    rows = _run_tasks(tasks)
    constants = {
        f"cover_max_n{row['detail'][2:]}": row["value"]
        for row in rows
        if row["check"] == "cover_max"
    }
    rows = [row for row in rows if row["check"] != "cover_max"]
    return _finish("geometry", rows, constants)


# ---- coding bounds suite ----------------------------------------------------


def _coding_suite(cfg: ExperimentConfig) -> SuiteReport:
    mc = cfg.machine
    rows = []
    worst = {"cube": None, "ball": None, "lds": None, "precision": None}

    def track(kind, measured):
        if measured is not None:
            if worst[kind] is None or measured > worst[kind]:
                worst[kind] = measured

    for r in range(5):
        for d in range(5):
            rep = check_cube_count_bound(r, d, mc)
            rows.append(_check("cube_count", f"r={r} d={d}",
                               round(rep.lhs, 6), round(rep.rhs, 6), rep.holds))
            track("cube", rep.measured_constant)
            rep = check_ball_count_bound(r, d, mc)
            rows.append(_check("ball_count", f"r={r} d={d}",
                               round(rep.lhs, 6), round(rep.rhs, 6), rep.holds))
            track("ball", rep.measured_constant)
    for n in (1, 2):
        lds = dyadic_lds(3, 3, mc, n)
        for rep in check_lds_coding_bound(lds, mc):
            rows.append(_check("lds_coding", f"n={n} {rep.name}",
                               round(rep.lhs, 6), round(rep.rhs, 6), rep.holds))
            track("lds", rep.measured_constant)
    # Levin special case: singleton blocks, one per enumerated point
    singles = []
    for point, k, encoding in enumerated_points(mc):
        singles.append(LdsRecord(0, len(singles), frozenset({encoding})))
    for rep in check_lds_coding_bound(singles, mc):
        rows.append(_check("lds_singleton", rep.name,
                           round(rep.lhs, 6), round(rep.rhs, 6), rep.holds))
        track("lds", rep.measured_constant)
    for point, _, _ in enumerated_points(mc):
        oracle = ConstantOracle(point)
        for r in range(3):
            for s in range(1, 4):
                rep = check_precision_improvement(oracle, r, s, mc)
                if rep is None:
                    continue
                rows.append(
                    _check("precision_improvement",
                           f"{point.coords[0].to_fraction()} r={r} s={s}",
                           round(rep.lhs, 6), round(rep.rhs, 6), rep.holds)
                )
                track("precision", rep.measured_constant)
    constants = {
        "cube_constant": worst["cube"],
        "ball_constant": worst["ball"],
        "lds_constant": worst["lds"],
        "precision_constant": worst["precision"],
        "pinned_cube_constant": C.CUBE_COUNT_CONSTANT[mc.version_tag],
        "pinned_ball_constant": C.BALL_COUNT_CONSTANT[mc.version_tag],
        "pinned_lds_constant": C.LDS_CODING_CONSTANT[mc.version_tag],
        "pinned_precision_constant":
            C.PRECISION_IMPROVEMENT_CONSTANT[mc.version_tag],
    }
    return _finish("coding-bounds", rows, constants)


# ---- profile and estimator suites -------------------------------------------


DEFAULT_PROFILE_GENERATORS = tuple(spec for _, spec, _ in C.CALIBRATION_SET)


def _kprofile_suite(cfg: ExperimentConfig) -> SuiteReport:
    specs = cfg.generators or DEFAULT_PROFILE_GENERATORS
    grid = _grid(cfg)

    def profile_task(idx: int, spec: Mapping) -> list[dict]:
        oracle = make_oracle(spec)
        est = dim_estimate(oracle, window=grid, backend=cfg.backend)
        name = spec.get("kind", "?") + f"#{idx}"
        rows = [
            _info("kprofile", f"{name} r={r}", k)
            for r, k in zip(est.r_grid, est.k_values)
        ]
        rows.append(_info("dim_envelope", name,
                          round(est.lo, 6), round(est.hi, 6)))
        return rows

    tasks = [
        (lambda idx=idx, spec=spec: profile_task(idx, spec))
        for idx, spec in enumerate(specs)
    ]
    return _finish("kprofile", _run_tasks(tasks), {})


def _mdim_suite(cfg: ExperimentConfig) -> SuiteReport:
    grid = _grid(cfg)
    backend = cfg.backend
    rows = []
    oracles = {}
    estimates = {}
    for name, spec, target in C.CALIBRATION_SET:
        oracle = make_oracle(spec)
        oracles[name] = (oracle, target)
        est = dim_estimate(oracle, window=grid, backend=backend)
        estimates[name] = est
        if name.startswith("random"):
            ok = est.lo >= C.RANDOM_DIM_MIN
            rows.append(_check("dim_random", name, round(est.lo, 6),
                               C.RANDOM_DIM_MIN, ok))
        elif name.startswith("diluted"):
            err = max(abs(est.lo - target), abs(est.hi - target))
            rows.append(_check("dim_diluted", f"{name} target={target}",
                               round(err, 6), C.DILUTED_DIM_TOL,
                               err <= C.DILUTED_DIM_TOL))
        else:
            rows.append(_check("dim_rational", name, round(est.lo, 6),
                               C.RATIONAL_DIM_MAX,
                               est.lo <= C.RATIONAL_DIM_MAX))
    worst_identity = 0.0
    for name, (oracle, _) in oracles.items():
        est = estimates[name]
        prof = mdim_estimate(oracle, oracle, window=grid, backend=backend)
        delta = max(abs(prof.slope_lo - est.lo), abs(prof.slope_hi - est.hi))
        worst_identity = max(worst_identity, delta)
        rows.append(_check("mdim_identity", name, round(delta, 6),
                           C.MDIM_IDENTITY_TOL, delta <= C.MDIM_IDENTITY_TOL))
        cap = oracle.dimension + C.MDIM_RANGE_SLACK
        ok_range = prof.slope_lo >= 0 and prof.slope_hi <= cap
        rows.append(_check("mdim_range", name,
                           round(prof.slope_lo, 6), round(cap, 6), ok_range))
    other = make_oracle({"kind": "random", "seed": 8, "n": 1})
    indep = mdim_estimate(oracles["random-7"][0], other,
                          window=grid, backend=backend)
    rows.append(_check("mdim_independent", "random-7 : random-8",
                       round(indep.slope_hi, 6), C.MDIM_INDEPENDENT_MAX,
                       indep.slope_hi <= C.MDIM_INDEPENDENT_MAX))
    sweep = grid or (C.COMPRESSOR_GRID if backend.kind == "compressor"
                     else C.EXACT_GRID)
    sym_worst = 0
    if backend.kind == "compressor":
        a = oracles["random-7"][0]
        b = oracles["diluted-1/2"][0]
        for r in sweep:
            cols_a = point_columns(a.query(r), r)
            cols_b = point_columns(b.query(r), r)
            sym_worst = max(
                sym_worst, abs(pair_cost(cols_a, cols_b)
                               - pair_cost(cols_b, cols_a))
            )
    rows.append(_check("mdim_symmetry", "random-7 : diluted-1/2 sweep",
                       sym_worst, C.MDIM_SYMMETRY_TOL,
                       sym_worst <= C.MDIM_SYMMETRY_TOL))
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
    spec = f.declared_modulus
    if spec is not None and spec.form == "holder":
        alpha = spec.alpha
        return -(-alpha.denominator // alpha.numerator)
    return 1


def _function_label(spec: Mapping) -> str:
    params = spec.get("params", {})
    if params:
        inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
        return f"{spec['name']}({inner})"
    return spec["name"]


def _dpi_suite(cfg: ExperimentConfig) -> SuiteReport:
    grid = _grid(cfg)
    backend = cfg.backend
    d12, r7, r8, r9, x2 = _shared_oracles()
    base_pairs = {
        1: [("diluted-1/2:self", d12, d12), ("random-7:random-8", r7, r8)],
        2: [("(diluted-1/2,random-9):diluted-1/2", x2, d12)],
    }
    base_profiles = {}
    rows = []
    worst_margin = None
    specs = cfg.functions or DEFAULT_DPI_FUNCTIONS
    for spec in specs:
        f = library_function(spec["name"], spec.get("params"))
        if f.n not in base_pairs:
            raise InvalidConfigError(
                f"no pinned generator pair of arity {f.n} for {f.name}"
            )
        factor = _holder_factor(f)
        for pair_name, x, y in base_pairs[f.n]:
            if pair_name not in base_profiles:
                base_profiles[pair_name] = mdim_estimate(
                    x, y, window=grid, backend=backend
                )
            base = base_profiles[pair_name]
            image = mdim_estimate(ImageOracle(f, x), y,
                                  window=grid, backend=backend)
            bound = factor * base.slope_hi + C.DPI_SLACK
            label = f"{_function_label(spec)} on {pair_name}"
            ok = image.slope_hi <= bound
            rows.append(_check("dpi_slope", label,
                               round(image.slope_hi, 6), round(bound, 6), ok))
            margin = bound - image.slope_hi
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
            if f.declared_modulus is not None:
                for j, r in enumerate(image.r_grid):
                    target = f.declared_modulus.value(r + 1)
                    later = [jj for jj, rr in enumerate(base.r_grid)
                             if rr >= target]
                    if not later:
                        continue
                    slack = base.i_values[later[0]] - image.i_values[j]
                    rows.append(_info("dpi_finite_scale",
                                      f"{label} r={r}", slack))
    constants = {"worst_margin": round(worst_margin, 6)}
    return _finish("dpi", rows, constants)


def _reverse_dpi_suite(cfg: ExperimentConfig) -> SuiteReport:
    grid = _grid(cfg)
    backend = cfg.backend
    d12, _, _, _, _ = _shared_oracles()
    base = mdim_estimate(d12, d12, window=grid, backend=backend)
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
    worst = None
    for label, pair_oracle in configs:
        prof = mdim_estimate(pair_oracle, d12, window=grid, backend=backend)
        ok_lo = base.slope_lo <= prof.slope_lo + C.DPI_SLACK
        ok_hi = base.slope_hi <= prof.slope_hi + C.DPI_SLACK
        rows.append(_check("reverse_dpi_lo", label, round(base.slope_lo, 6),
                           round(prof.slope_lo + C.DPI_SLACK, 6), ok_lo))
        rows.append(_check("reverse_dpi_hi", label, round(base.slope_hi, 6),
                           round(prof.slope_hi + C.DPI_SLACK, 6), ok_hi))
        margin = min(prof.slope_lo + C.DPI_SLACK - base.slope_lo,
                     prof.slope_hi + C.DPI_SLACK - base.slope_hi)
        if worst is None or margin < worst:
            worst = margin
    return _finish("reverse-dpi", rows, {"worst_margin": round(worst, 6)})


def _conservation_suite(cfg: ExperimentConfig) -> SuiteReport:
    grid = _grid(cfg)
    backend = cfg.backend
    d12, _, _, r9, x2 = _shared_oracles()
    base1 = mdim_estimate(d12, d12, window=grid, backend=backend)
    base2 = mdim_estimate(x2, x2, window=grid, backend=backend)
    rows = []

    ident = library_function("identity", {"n": 1})
    prof = mdim_estimate(ImageOracle(ident, d12), ImageOracle(ident, d12),
                         window=grid, backend=backend)
    rows.append(_check("conservation_identity", "id:id on diluted-1/2",
                       round(prof.slope_hi, 6),
                       round(base1.slope_hi + C.DPI_SLACK, 6),
                       prof.slope_hi <= base1.slope_hi + C.DPI_SLACK))

    half = library_function("scale", {"c": "1/2"})
    prof = mdim_estimate(ImageOracle(half, d12), ImageOracle(half, d12),
                         window=grid, backend=backend)
    rows.append(_check("conservation_contraction",
                       "scale(1/2) pair on diluted-1/2",
                       round(prof.slope_hi, 6),
                       round(base1.slope_hi + C.DPI_SLACK, 6),
                       prof.slope_hi <= base1.slope_hi + C.DPI_SLACK))

    swap_a = library_function("affine", {
        "matrix": [["0", "1"], ["1", "0"]], "offset": ["1/4", "5/8"],
        "inverse_modulus": {"S": [1, 2], "s": 0},
    })
    swap_b = library_function("affine", {
        "matrix": [["0", "1"], ["1", "0"]], "offset": ["3/16", "1/2"],
        "inverse_modulus": {"S": [1, 2], "s": 0},
    })
    prof = mdim_estimate(ImageOracle(swap_a, x2), ImageOracle(swap_b, x2),
                         window=grid, backend=backend)
    delta = max(abs(prof.slope_lo - base2.slope_lo),
                abs(prof.slope_hi - base2.slope_hi))
    rows.append(_check("conservation_bilipschitz",
                       "swap affine pair on (diluted-1/2,random-9)",
                       round(delta, 6), C.TWO_SIDED_SLACK,
                       delta <= C.TWO_SIDED_SLACK))

    hilb = library_function("hilbert2d")
    prof = mdim_estimate(ImageOracle(hilb, d12), ImageOracle(ident, d12),
                         window=grid, backend=backend)
    bound = C.HILBERT_HOLDER_FACTOR * base1.slope_hi + C.DPI_SLACK
    rows.append(_check("conservation_holder",
                       "hilbert2d:identity factor 2 on diluted-1/2",
                       round(prof.slope_hi, 6), round(bound, 6),
                       prof.slope_hi <= bound))

    s2 = library_function("sum", {"n": 2})
    w = make_oracle({"kind": "rational", "values": ["5/8"]})
    z = make_oracle({"kind": "rational", "values": ["3/16"]})
    pw = ProductOracle(ImageOracle(s2, ProductOracle(d12, w)), w)
    pz = ProductOracle(ImageOracle(s2, ProductOracle(d12, z)), z)
    prof = mdim_estimate(pw, pz, window=grid, backend=backend)
    ok_lo = base1.slope_lo <= prof.slope_lo + C.DPI_SLACK
    ok_hi = base1.slope_hi <= prof.slope_hi + C.DPI_SLACK
    rows.append(_check("conservation_reverse_lo",
                       "sum pairs w=5/8 z=3/16 on diluted-1/2",
                       round(base1.slope_lo, 6),
                       round(prof.slope_lo + C.DPI_SLACK, 6), ok_lo))
    rows.append(_check("conservation_reverse_hi",
                       "sum pairs w=5/8 z=3/16 on diluted-1/2",
                       round(base1.slope_hi, 6),
                       round(prof.slope_hi + C.DPI_SLACK, 6), ok_hi))
    return _finish("conservation", rows, {
        "bilipschitz_delta": round(delta, 6),
    })


def _counterexample_suite(cfg: ExperimentConfig) -> SuiteReport:
    grid = _grid(cfg)
    backend = cfg.backend
    spec = (cfg.generators[0] if cfg.generators
            else {"kind": "random", "seed": 1, "n": 1})
    x = make_oracle(spec)
    if x.dimension != 1:
        raise InvalidConfigError("counterexample needs a 1-coordinate point")
    hilb = library_function("hilbert2d")
    fx = ImageOracle(hilb, x)
    dim_image = dim_estimate(fx, window=grid, backend=backend)
    rows = []
    constants = {
        "dim_image_lo": round(dim_image.lo, 6),
        "dim_image_hi": round(dim_image.hi, 6),
    }
    if spec.get("kind") == "rational":
        rows.append(_info("counterexample", "not a counterexample witness",
                          round(dim_image.hi, 6)))
        return _finish("counterexample", rows, constants)
    mutual = mdim_estimate(x, fx, window=grid, backend=backend)
    dim_x = dim_estimate(x, window=grid, backend=backend)
    rows.append(_check("image_dimension", "dim(hilbert2d(x)).hi",
                       round(dim_image.hi, 6), C.COUNTEREXAMPLE_DIM_FLOOR,
                       dim_image.hi >= C.COUNTEREXAMPLE_DIM_FLOOR))
    rows.append(_check("parameter_image_mutual", "slope_hi(x : hilbert2d(x))",
                       round(mutual.slope_hi, 6), C.COUNTEREXAMPLE_MUTUAL_CEIL,
                       mutual.slope_hi <= C.COUNTEREXAMPLE_MUTUAL_CEIL))
    rows.append(_info("ordering",
                      "image dim vs 1 vs parameter Dim vs mutual",
                      f"{dim_image.hi:.4f} > 1 >= {dim_x.hi:.4f} "
                      f">= {mutual.slope_hi:.4f}"))
    constants.update({
        "mutual_slope_hi": round(mutual.slope_hi, 6),
        "dim_parameter_hi": round(dim_x.hi, 6),
    })
    return _finish("counterexample", rows, constants)


# ---- dispatch ---------------------------------------------------------------


_SUITES = {
    "machine": _machine_suite,
    "kraft": _machine_suite,
    "geometry": _geometry_suite,
    "coding-bounds": _coding_suite,
    "kprofile": _kprofile_suite,
    "mdim": _mdim_suite,
    "dpi": _dpi_suite,
    "reverse-dpi": _reverse_dpi_suite,
    "conservation": _conservation_suite,
    "counterexample": _counterexample_suite,
}


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    runner = _SUITES.get(cfg.suite)
    if runner is None:
        raise InvalidConfigError(f"unknown suite: {cfg.suite!r}")
    report = runner(cfg)
    if cfg.suite == "kraft":
        report.suite = "kraft"
    return report


def write_report(report: SuiteReport, cfg: ExperimentConfig) -> str:
    text = report.render(cfg.out_format)
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text
