"""Per-layer tracing of mdimlab from outside the package.

``install(run_id)`` wraps the public functions and methods of every layer
(module of ``mdimlab``) and returns a ``Tracer``.  Each wrapped call is timed
with ``time.perf_counter``; a layer's self time is the time its wrapped calls
spent minus the time spent in wrapped calls they made.  Coarse calls (suite
runs, estimators, enumeration builds, inverse evaluations) are also kept as
spans ``(name, start, end, parent span, run id)`` in memory and written out
with ``Tracer.write_spans`` when the worker ends; fine calls (predicates,
dyadic construction, LZ78 parses) are only counted and timed in aggregate so
the span list stays small.

A module-level function is rebound in every ``mdimlab`` module that holds it
by name (``from .mutual import pair_cost`` makes its own binding), otherwise
calls through the copy would read zero.  Methods are rebound on their class.
``oracles.BitStream`` has to be patched before ``mdimlab.mutual`` is
imported, because that module builds its reference stream at import time;
``install`` imports the package in that order itself.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "harness", "mutual", "complexity", "functions", "machine",
    "compressor", "oracles", "geometry", "codec",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.spans: list = []
        # frames: [child seconds, nearest recorded span index, counter name]
        self._stack: list[list] = []
        self._inverses: set[int] = set()
        self._seen_enums: set[int] = set()
        self._built_enums: set[int] = set()

    # ---- wrapping ---------------------------------------------------------

    def wrap(self, layer, name, fn, span=False, note=None):
        """Timed stand-in for ``fn`` counted under ``name``.

        ``name`` may be a callable of (tracer, args, parent frame) that picks
        the counter per call; ``span`` may be a callable of that name.
        ``note`` is called with (tracer, args, result) after a successful call.
        """
        stack = self._stack
        counts = self.counts
        seconds = self.seconds
        self_s = self.self_s
        spans = self.spans
        run_id = self.run_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            key = name(self, args, parent) if callable(name) else name
            parent_span = parent[1] if parent is not None else -1
            if span is True or (span and span(key)):
                index = len(spans)
                spans.append(None)
                frame = [0.0, index, key]
            else:
                index = -1
                frame = [0.0, parent_span, key]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                counts[key] += 1
                seconds[key] += duration
                if index >= 0:
                    spans[index] = (key, start, end, parent_span, run_id)
            if note is not None:
                note(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Forget what set-up did, so the numbers cover the timed operation."""
        self.counts.clear()
        self.seconds.clear()
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        self.spans.clear()

    # ---- results ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
            "self_s": dict(self.self_s),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                if record is not None:
                    handle.write(json.dumps(record) + "\n")


# ---- layer tables -------------------------------------------------------------


def _rebind(original, replacement) -> int:
    """Point every ``mdimlab`` module's binding of ``original`` at the stand-in."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "mdimlab" or mod_name.startswith("mdimlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def _wrap_function(tracer, layer, module, attr, name=None, **kw):
    original = getattr(module, attr)
    wrapped = tracer.wrap(layer, name or f"{layer}.{attr}", original, **kw)
    if _rebind(original, wrapped) == 0:
        raise RuntimeError(f"no binding of {layer}.{attr} found to trace")


def _wrap_method(tracer, layer, cls, attr, name=None, **kw):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped = tracer.wrap(layer, name or f"{layer}.{attr}", raw.__func__, **kw)
        setattr(cls, attr, classmethod(wrapped))
    else:
        setattr(cls, attr, tracer.wrap(layer, name or f"{layer}.{attr}", raw, **kw))


def _patch_bit_sources(tracer, oracles) -> None:
    """Count every call to every stream's bit source from construction on."""
    counts = tracer.counts
    original_init = oracles.BitStream.__init__

    def init(self, bit_at):
        def counted(i):
            counts["oracles.bits"] += 1
            return bit_at(i)

        original_init(self, counted)

    oracles.BitStream.__init__ = init


# notes: counters that need a call's arguments or result


def _note_enumerate_halting(tracer, args, result):
    from mdimlab.machine import valid_payload_lengths

    cfg = args[0]
    tracer.counts["machine.programs"] += sum(
        1 << p for p in valid_payload_lengths(cfg.max_program_len)
    )
    tracer.counts["machine.halting"] += len(result)


def _note_ensure_complete(tracer, args, result):
    enum = args[0]
    if id(enum) in tracer._built_enums:
        return
    tracer._built_enums.add(id(enum))
    tracer.counts["machine.enumerations_built"] += 1
    tracer.counts["machine.programs"] += sum(1 << p for p in enum.levels)
    tracer.counts["machine.halting"] += enum.halting_count


def _note_get_enumeration(tracer, args, result):
    if id(result) in tracer._seen_enums:
        tracer.counts["machine.enumeration_hits"] += 1
    else:
        tracer._seen_enums.add(id(result))


def _note_compressor(tracer, args, result):
    tracer.counts["compressor.bits"] += sum(len(a) for a in args[:2])


def _note_lz78(tracer, args, result):
    tracer.counts["compressor.bits"] += len(args[0])


def _note_inverse(tracer, args, result):
    tracer._inverses.add(id(result))


def _evaluate_name(tracer, args, parent):
    """Inverse evaluation, search node (forward call made by a search), or plain."""
    if id(args[0]) in tracer._inverses:
        return "functions.inverse"
    if parent is not None and parent[2] == "functions.inverse":
        return "functions.nodes"
    return "functions.evaluate"


def _suite_name(tracer, args, parent):
    return f"harness.run_suite.{args[0].suite}"


def install(run_id: str) -> Tracer:
    """Import mdimlab with every layer wrapped; call before any other import."""
    if "mdimlab.mutual" in sys.modules:
        raise RuntimeError("layertrace.install must run before mdimlab.mutual is imported")
    tracer = Tracer(run_id)
    oracles = importlib.import_module("mdimlab.oracles")
    _patch_bit_sources(tracer, oracles)
    harness = importlib.import_module("mdimlab.harness")
    codec = importlib.import_module("mdimlab.codec")
    compressor = importlib.import_module("mdimlab.compressor")
    complexity = importlib.import_module("mdimlab.complexity")
    functions = importlib.import_module("mdimlab.functions")
    geometry = importlib.import_module("mdimlab.geometry")
    machine = importlib.import_module("mdimlab.machine")
    mutual = importlib.import_module("mdimlab.mutual")
    importlib.import_module("mdimlab.cli")
    t = tracer

    # harness (with cli, which imports run_suite by name)
    _wrap_function(t, "harness", harness, "run_suite", name=_suite_name, span=True)
    _wrap_method(t, "harness", harness.SuiteReport, "render", name="harness.render", span=True)

    # mutual
    for attr in ("dim_estimate", "mdim_estimate"):
        _wrap_function(t, "mutual", mutual, attr, span=True)
    for attr in ("pair_cost", "k_r_pair", "i_r", "j_r", "mutual_info", "reference_ratio"):
        _wrap_function(t, "mutual", mutual, attr)

    # complexity
    for attr in ("check_cube_count_bound", "check_ball_count_bound",
                 "check_lds_coding_bound", "check_precision_improvement"):
        _wrap_function(t, "complexity", complexity, attr,
                       name="complexity.bound_checks", span=True)
    _wrap_function(t, "complexity", complexity, "enumerated_points", span=True)
    for attr in ("k_r", "point_columns", "point_representation", "k_of_set",
                 "k_of_precision", "minimizers"):
        _wrap_function(t, "complexity", complexity, attr)

    # functions
    _wrap_function(t, "functions", functions, "left_inverse_synthesize",
                   span=True, note=_note_inverse)
    _wrap_function(t, "functions", functions, "library_function")
    _wrap_method(t, "functions", functions.ComputableFunction, "evaluate",
                 name=_evaluate_name, span=lambda key: key == "functions.inverse")
    _wrap_method(t, "functions", functions.ImageOracle, "query",
                 name="functions.image_query")

    # machine
    _wrap_function(t, "machine", machine, "get_enumeration",
                   note=_note_get_enumeration)
    _wrap_function(t, "machine", machine, "enumerate_halting", span=True,
                   note=_note_enumerate_halting)
    for attr in ("exact_k", "kraft_mass", "apriori_mass", "output_universe"):
        _wrap_function(t, "machine", machine, attr)
    _wrap_method(t, "machine", machine.Enumeration, "ensure_complete",
                 name="machine.ensure_complete", span=True, note=_note_ensure_complete)
    _wrap_method(t, "machine", machine.Enumeration, "lookup", name="machine.lookup")

    # compressor
    _wrap_function(t, "compressor", compressor, "lz78_cost",
                   name="compressor.calls", note=_note_lz78)
    _wrap_function(t, "compressor", compressor, "conditional_cost",
                   name="compressor.calls", note=_note_compressor)

    # oracles
    for cls in (oracles.StreamOracle, oracles.ConstantOracle, oracles.ProductOracle):
        _wrap_method(t, "oracles", cls, "query", name="oracles.query")
    _wrap_method(t, "oracles", oracles.BitStream, "prefix", name="oracles.prefix")
    _wrap_method(t, "oracles", oracles.BitStream, "bit", name="oracles.bit")
    _wrap_function(t, "oracles", oracles, "make_oracle")

    # geometry
    _wrap_method(t, "geometry", geometry.Ball, "contains", name="geometry.predicates")
    for attr in ("contains", "closure_distance_sq"):
        _wrap_method(t, "geometry", geometry.DyadicCube, attr, name="geometry.predicates")
    _wrap_method(t, "geometry", geometry.Ball, "at_precision", name="geometry.ball")
    for attr in ("lattice_point_in_ball", "cubes_intersecting_ball"):
        _wrap_function(t, "geometry", geometry, attr, span=True)
    for attr in ("cube_containing", "scale_ball", "dyadic_lds", "zn_enumeration", "zn_prefix"):
        _wrap_function(t, "geometry", geometry, attr)

    # codec
    _wrap_method(t, "codec", codec.DyadicRational, "__post_init__", name="codec.dyadic_new")
    _wrap_function(t, "codec", codec, "distance_sq")
    _wrap_function(t, "codec", codec, "try_decode_exact_point", name="codec.decode")
    for attr in ("encode_point", "decode_point"):
        _wrap_function(t, "codec", codec, attr)
    return tracer


# ---- per-layer metrics ----------------------------------------------------------


# suites whose run time is reported on its own, one per suite workload
SUITES_MEASURED = ("mdim", "machine", "coding-bounds", "geometry")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics (value, unit) from one traced worker's summary."""
    c = summary["counts"]
    s = summary["seconds"]
    self_s = summary["self_s"]
    programs = c.get("machine.programs", 0)
    get_calls = c.get("machine.get_enumeration", 0)
    inverses = c.get("functions.inverse", 0)
    out: dict[str, tuple[float, str]] = {
        "oracles.bits": (c.get("oracles.bits", 0), "count"),
        "oracles.query.calls": (c.get("oracles.query", 0), "count"),
        "oracles.bits_per_s": (_rate(c.get("oracles.bits", 0), self_s["oracles"]), "1/s"),
        "compressor.calls": (c.get("compressor.calls", 0), "count"),
        "compressor.bits": (c.get("compressor.bits", 0), "count"),
        "compressor.bits_per_s": (
            _rate(c.get("compressor.bits", 0), self_s["compressor"]), "1/s"),
        "mutual.dim_estimate.calls": (c.get("mutual.dim_estimate", 0), "count"),
        "mutual.mdim_estimate.calls": (c.get("mutual.mdim_estimate", 0), "count"),
        "mutual.pair_cost.calls": (c.get("mutual.pair_cost", 0), "count"),
        "mutual.pair_cost.s": (s.get("mutual.pair_cost", 0.0), "s"),
        "codec.dyadic_new.calls": (c.get("codec.dyadic_new", 0), "count"),
        "codec.dyadic_new.s": (s.get("codec.dyadic_new", 0.0), "s"),
        "codec.distance_sq.calls": (c.get("codec.distance_sq", 0), "count"),
        "codec.decode.calls": (c.get("codec.decode", 0), "count"),
        "machine.programs": (programs, "count"),
        "machine.halting_frac": (
            c.get("machine.halting", 0) / programs if programs else 0.0, "ratio"),
        "machine.enumerations_built": (c.get("machine.enumerations_built", 0), "count"),
        "machine.enumeration_reuse": (
            c.get("machine.enumeration_hits", 0) / get_calls if get_calls else 0.0,
            "ratio"),
        "machine.exact_k.calls": (c.get("machine.exact_k", 0), "count"),
        "machine.programs_per_s": (_rate(programs, self_s["machine"]), "1/s"),
        "complexity.bound_checks.calls": (c.get("complexity.bound_checks", 0), "count"),
        "complexity.bound_checks.s": (s.get("complexity.bound_checks", 0.0), "s"),
        "complexity.enumerated_points.calls": (
            c.get("complexity.enumerated_points", 0), "count"),
        "complexity.k_r.calls": (c.get("complexity.k_r", 0), "count"),
        "geometry.predicates": (c.get("geometry.predicates", 0), "count"),
        "geometry.lattice_point_in_ball.calls": (
            c.get("geometry.lattice_point_in_ball", 0), "count"),
        "geometry.cubes_intersecting_ball.calls": (
            c.get("geometry.cubes_intersecting_ball", 0), "count"),
        "geometry.predicates_per_s": (
            _rate(c.get("geometry.predicates", 0), self_s["geometry"]), "1/s"),
        "functions.inverse.calls": (inverses, "count"),
        "functions.nodes": (c.get("functions.nodes", 0), "count"),
        "functions.nodes_per_inverse": (
            c.get("functions.nodes", 0) / inverses if inverses else 0.0, "ratio"),
        "functions.nodes_per_s": (
            _rate(c.get("functions.nodes", 0), self_s["functions"]), "1/s"),
        "harness.run_suite.s": (
            sum(v for k, v in s.items() if k.startswith("harness.run_suite.")), "s"),
        "harness.render.s": (s.get("harness.render", 0.0), "s"),
    }
    for suite in SUITES_MEASURED:
        out[f"harness.run_suite.{suite}.s"] = (s.get(f"harness.run_suite.{suite}", 0.0), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    return out

