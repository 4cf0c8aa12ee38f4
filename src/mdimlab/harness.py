"""Entry points of the verification suites: read a config, run its suite,
write its report.

Each suite re-runs one slice of the package's guarantees end to end:
machine enumeration sanity, geometry exactness, counting and coding
bounds with their pinned constants, estimator calibration, the data
processing inequalities in both directions, conservation of the mutual
slope under certified maps, and the space-filling counterexample.  A
report is a list of typed rows plus the constants the run measured;
rendering is byte-stable so identical configs produce identical files.

The runners live one group to a module (``suite_exact``, ``suite_geometry``,
``suite_estimate``, ``suite_maps``), and this module loads only ``codec``,
``constants`` and ``report`` itself.  Reading a config imports its suite's
runner module and builds what the config names, so a run loads only the
layers its suite uses and ``run_suite`` imports nothing.
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from . import constants as C
from .codec import json_int, json_object
from .report import InvalidConfigError, SuiteReport

if TYPE_CHECKING:
    from .functions import ComputableFunction
    from .machine import MachineConfig
    from .oracles import PointOracle


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; equal configs give identical reports.

    ``machine`` is the config's machine for the suites that read one
    (``machine`` and ``coding-bounds``) and ``None`` for every other suite.
    ``generators`` and ``functions`` pair each config spec with the oracle
    or library function built from it when the config was read; ``grid``
    holds the estimator precisions the config's window keeps.
    """

    suite: str
    machine: MachineConfig | None
    generators: tuple[tuple[Mapping, PointOracle], ...] = ()
    functions: tuple[tuple[Mapping, ComputableFunction], ...] = ()
    grid: tuple[int, ...] = C.COMPRESSOR_GRID
    seed: int = 0
    out_format: str = "json"
    out_path: str | None = None


# ---- config loading ---------------------------------------------------------


@contextmanager
def _field(name: str):
    """Report a malformed config value as an InvalidConfigError naming it."""
    try:
        yield
    except (ArithmeticError, AttributeError, LookupError, RecursionError,
            TypeError, ValueError) as exc:
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


def _machine(data: Mapping) -> MachineConfig:
    """The config's machine, refused here when it is over the item cap."""
    from .machine import MachineConfig, ResourceExceededError, capped_levels

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
    return machine


def _runner_module(suite: str):
    """The module holding the runner of ``suite``, imported on first use."""
    return importlib.import_module(f".{_SUITES[suite][0]}", __package__)


def config_from_mapping(data: Mapping) -> ExperimentConfig:
    """Validate a plain-data config and build everything it names.

    This is the only place outside input becomes an ``ExperimentConfig``:
    every malformed value, unknown key or key the suite does not read is
    rejected here, before any suite work.  The one check left to a suite is
    coding-bounds' reachability of K(r), which needs the enumeration.  It
    also imports the suite's runner module, so that ``run_suite`` does not.
    """
    suite = data.get("suite")
    if not isinstance(suite, str) or suite not in _SUITES:
        raise InvalidConfigError(f"unknown suite: {suite!r}")
    keys = _SUITES[suite][1]
    accepted = ("suite", "format", "out", *keys)
    for key in data:
        readers = [name for name, (_, read) in _SUITES.items() if key in read]
        if key not in accepted and readers:
            raise InvalidConfigError(
                f"{key} is read only by {' and '.join(readers)}, not {suite}"
            )
    for key in data:
        if key not in accepted:
            raise InvalidConfigError(
                f"unknown config key {key!r}; accepted: {', '.join(accepted)}")
    runner = _runner_module(suite)
    machine = _machine(data) if "machine" in keys else None
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
    generators = functions = ()
    if "generators" in keys:
        from .oracles import make_oracle

        generators = _built(data, "generators", runner.profiled_generator
                            if suite == "kprofile" else make_oracle)
    if suite == "counterexample" and (
            len(generators) > 1 or any(x.dimension != 1 for _, x in generators)):
        raise InvalidConfigError(
            "counterexample takes at most one generator, of one coordinate")
    if "functions" in keys:
        functions = _built(data, "functions",
                           lambda s: runner.dpi_function(s, grid))
    return ExperimentConfig(
        suite=suite,
        machine=machine,
        generators=generators,
        functions=functions,
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
    except RecursionError as exc:
        raise InvalidConfigError(f"config nests too deeply: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, an over-long integer
        raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfigError("config must be a JSON object")
    return config_from_mapping({**data, **(flags or {})})


# ---- dispatch ---------------------------------------------------------------


# each suite's runner module (whose RUNNERS maps the suite to its runner)
# and the config keys the runner reads besides suite, format, out
_SUITES = {
    "machine": ("suite_exact", ("machine",)),
    "geometry": ("suite_geometry", ("seed",)),
    "coding-bounds": ("suite_exact", ("machine",)),
    "kprofile": ("suite_estimate", ("window", "generators")),
    "mdim": ("suite_estimate", ("window",)),
    "dpi": ("suite_maps", ("window", "functions")),
    "reverse-dpi": ("suite_maps", ("window",)),
    "conservation": ("suite_maps", ("window",)),
    "counterexample": ("suite_maps", ("window", "generators")),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    return _runner_module(cfg.suite).RUNNERS[cfg.suite](cfg)


def write_report(report: SuiteReport, cfg: ExperimentConfig) -> str:
    text = report.render(cfg.out_format)
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text
