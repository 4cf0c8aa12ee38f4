"""The suites of mutual dimension under maps: the data processing
inequalities in both directions, conservation of the mutual slope under
certified maps, and the space-filling counterexample.

These are the only suites that load the function library.  They run the
estimators alone, so they load neither ``machine`` nor ``geometry``.
"""

from __future__ import annotations

from typing import Mapping

from . import constants as C
from .codec import json_object
from .complexity import point_columns
from .functions import ComputableFunction, ImageOracle, library_function
from .mutual import dim_estimate, mdim_estimate
from .oracles import ProductOracle, make_oracle
from .report import SuiteReport, at_most, check_row, finish, info_row


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


def dpi_function(spec: Mapping, grid: tuple[int, ...]) -> ComputableFunction:
    """The function of a dpi ``spec``, once it has dpi base pairs and its
    image of each base point fits the K_r guard range at every precision of
    grid."""
    with json_object("function", spec) as spec:
        f = library_function(spec["name"], spec.get("params"))
    base_pairs = _dpi_base_pairs()
    if f.n not in base_pairs:
        raise ValueError(f"no pinned generator pair of arity {f.n} for {f.name}")
    for _, x, _ in base_pairs[f.n]:
        for r in grid:
            point_columns(ImageOracle(f, x).query(r), r)
    return f


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


def _dpi_suite(cfg) -> SuiteReport:
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
            bound = factor * base.hi + C.DPI_SLACK
            label = f"{_function_label(spec)} on {pair_name}"
            rows.append(at_most("dpi_slope", label, image.hi, bound))
            margins.append(bound - image.hi)
            for j, r in enumerate(image.r_grid):
                target = f.declared_modulus.value(r + 1)
                later = [jj for jj, rr in enumerate(base.r_grid)
                         if rr >= target]
                if not later:
                    continue
                slack = base.values[later[0]] - image.values[j]
                rows.append(info_row("dpi_finite_scale",
                                     f"{label} r={r}", slack))
    return finish("dpi", rows, {"worst_margin": round(min(margins), 6)})


def _reverse_rows(check: str, label: str, base, prof) -> list[dict]:
    """Gated rows: each slope of ``base`` is at most ``prof``'s plus DPI_SLACK."""
    return [
        at_most(f"{check}_lo", label, base.lo, prof.lo + C.DPI_SLACK),
        at_most(f"{check}_hi", label, base.hi, prof.hi + C.DPI_SLACK),
    ]


def _reverse_dpi_suite(cfg) -> SuiteReport:
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
        margins += [prof.lo + C.DPI_SLACK - base.lo,
                    prof.hi + C.DPI_SLACK - base.hi]
    return finish("reverse-dpi", rows, {"worst_margin": round(min(margins), 6)})


def _conservation_suite(cfg) -> SuiteReport:
    d12, _, _, _, x2 = _shared_oracles()
    base1 = mdim_estimate(d12, d12, cfg.grid)
    base2 = mdim_estimate(x2, x2, cfg.grid)
    rows = []

    ident_img = ImageOracle(library_function("identity", {"n": 1}), d12)
    prof = mdim_estimate(ident_img, ident_img, cfg.grid)
    rows.append(at_most("conservation_identity", "id:id on diluted-1/2",
                        prof.hi, base1.hi + C.DPI_SLACK))

    half_img = ImageOracle(library_function("scale", {"c": "1/2"}), d12)
    prof = mdim_estimate(half_img, half_img, cfg.grid)
    rows.append(at_most("conservation_contraction",
                        "scale(1/2) pair on diluted-1/2",
                        prof.hi, base1.hi + C.DPI_SLACK))

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
    delta = max(abs(prof.lo - base2.lo), abs(prof.hi - base2.hi))
    rows.append(at_most("conservation_bilipschitz",
                        "swap affine pair on (diluted-1/2,random-9)",
                        delta, C.TWO_SIDED_SLACK))

    hilb = library_function("hilbert2d")
    prof = mdim_estimate(ImageOracle(hilb, d12), ident_img, cfg.grid)
    rows.append(at_most("conservation_holder",
                        "hilbert2d:identity factor 2 on diluted-1/2",
                        prof.hi,
                        _holder_factor(hilb) * base1.hi + C.DPI_SLACK))

    s2 = library_function("sum", {"n": 2})
    w = make_oracle({"kind": "rational", "values": ["5/8"]})
    z = make_oracle({"kind": "rational", "values": ["3/16"]})
    pw = ProductOracle(ImageOracle(s2, ProductOracle(d12, w)), w)
    pz = ProductOracle(ImageOracle(s2, ProductOracle(d12, z)), z)
    prof = mdim_estimate(pw, pz, cfg.grid)
    rows += _reverse_rows("conservation_reverse",
                          "sum pairs w=5/8 z=3/16 on diluted-1/2", base1, prof)
    return finish("conservation", rows, {
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


def _counterexample_suite(cfg) -> SuiteReport:
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
        rows.append(info_row("counterexample", "not a counterexample witness",
                             round(dim_image.hi, 6)))
        return finish("counterexample", rows, constants)
    mutual = mdim_estimate(x, fx, cfg.grid)
    dim_x = dim_estimate(x, cfg.grid)
    rows.append(check_row("image_dimension", "dim(hilbert2d(x)).hi",
                          round(dim_image.hi, 6), C.COUNTEREXAMPLE_DIM_FLOOR,
                          dim_image.hi >= C.COUNTEREXAMPLE_DIM_FLOOR))
    rows.append(at_most("parameter_image_mutual", "slope_hi(x : hilbert2d(x))",
                        mutual.hi, C.COUNTEREXAMPLE_MUTUAL_CEIL))
    rows.append(info_row("ordering",
                         "image dim vs 1 vs parameter Dim vs mutual",
                         _ordering(dim_image.hi, dim_x.hi, mutual.hi)))
    constants.update({
        "mutual_slope_hi": round(mutual.hi, 6),
        "dim_parameter_hi": round(dim_x.hi, 6),
    })
    return finish("counterexample", rows, constants)


RUNNERS = {
    "dpi": _dpi_suite,
    "reverse-dpi": _reverse_dpi_suite,
    "conservation": _conservation_suite,
    "counterexample": _counterexample_suite,
}
