"""End-to-end acceptance gates, one test per criterion.

Each test records exactly one PASS/FAIL line and then asserts, so a red
criterion is both visible in the log and fatal to the run.  The recorded
lines are replayed in the terminal summary after capture ends.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from mdimlab import constants as C
from mdimlab.codec import DyadicRational, RationalPoint
from mdimlab.functions import (
    ImageOracle,
    SSelector,
    left_inverse_synthesize,
    library_function,
    linear_modulus,
)
from mdimlab.geometry import zn_prefix
from mdimlab.harness import config_from_mapping, run_suite
from mdimlab.mutual import dim_estimate
from mdimlab.oracles import ConstantOracle, ProductOracle, make_oracle


def _verdict(log: list, num: int, ok: bool, detail: str) -> bool:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    log.append(line)
    print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def coding_report():
    return run_suite(config_from_mapping({"suite": "coding-bounds"}))


@pytest.fixture(scope="module")
def mdim_report():
    return run_suite(config_from_mapping({"suite": "mdim"}))


def test_criterion_01_prefix_kraft(acceptance_verdicts):
    t0 = time.monotonic()
    fails = 0
    details = []
    for max_len, budget in ((16, 1000), (20, 10000)):
        rep = run_suite(config_from_mapping({
            "suite": "machine",
            "machine": {"max_program_len": max_len, "step_budget": budget},
        }))
        fails += rep.fail_count
        details.append(
            f"({max_len},{budget}) kraft={rep.measured_constants['kraft_mass']}"
        )
    elapsed = time.monotonic() - t0
    ok = fails == 0 and elapsed <= 60
    assert _verdict(acceptance_verdicts, 1, ok,
                    f"prefix-free + kraft: {'; '.join(details)} "
                    f"[{elapsed:.1f}s <= 60s]")


def test_criterion_02_geometry_exactness(acceptance_verdicts):
    t0 = time.monotonic()
    rep = run_suite(config_from_mapping({"suite": "geometry"}))
    elapsed = time.monotonic() - t0
    ok = rep.fail_count == 0 and elapsed <= 30
    assert _verdict(acceptance_verdicts, 2, ok,
                    f"lattice hits, covers, partition: {rep.pass_count} "
                    f"checks green [{elapsed:.1f}s <= 30s]")


def test_criterion_03_enumeration_bound(acceptance_verdicts):
    failures = 0
    for n in (1, 2, 3):
        for i, m in enumerate(zn_prefix(100001, n)):
            k = math.isqrt(sum(c * c for c in m))
            if not i < (2 * k + 1) ** n:
                failures += 1
    ok = failures == 0
    assert _verdict(acceptance_verdicts, 3, ok,
                    f"index < (2|m|+1)^n for i <= 1e5, n <= 3: "
                    f"{failures} violations")


def test_criterion_04_counting_bounds(coding_report, acceptance_verdicts):
    rows = [r for r in coding_report.rows
            if r["check"] in ("cube_count", "ball_count")]
    bad = [r for r in rows if r["status"] == "fail"]
    mc = coding_report.measured_constants
    pins_ok = (mc["cube_constant"] == mc["pinned_cube_constant"]
               and mc["ball_constant"] == mc["pinned_ball_constant"])
    ok = not bad and pins_ok and len(rows) == 50
    assert _verdict(acceptance_verdicts, 4, ok,
                    f"cube/ball bounds r<=4 d<=4: {len(rows)} checks, "
                    f"constants {mc['cube_constant']}/{mc['ball_constant']} "
                    f"reproduce pins")


def test_criterion_05_coding_bound(coding_report, acceptance_verdicts):
    rows = [r for r in coding_report.rows
            if r["check"] in ("lds_coding", "lds_singleton")]
    bad = [r for r in rows if r["status"] == "fail"]
    singles = [r for r in rows if r["check"] == "lds_singleton"]
    mc = coding_report.measured_constants
    ok = (not bad and singles
          and mc["lds_constant"] == mc["pinned_lds_constant"])
    assert _verdict(acceptance_verdicts, 5, ok,
                    f"lds coding bound + {len(singles)} singleton blocks, "
                    f"constant {mc['lds_constant']} reproduces pin")


def test_criterion_06_estimator_calibration(acceptance_verdicts):
    t0 = time.monotonic()
    failures = []
    for name, spec, target in C.CALIBRATION_SET:
        est = dim_estimate(make_oracle(spec), C.COMPRESSOR_GRID)
        if name.startswith("random"):
            if est.lo < C.RANDOM_DIM_MIN:
                failures.append(name)
        elif name.startswith("diluted"):
            if max(abs(est.lo - target), abs(est.hi - target)) > 0.1:
                failures.append(name)
        else:
            if est.lo > C.RATIONAL_DIM_MAX:
                failures.append(name)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= 120
    assert _verdict(acceptance_verdicts, 6, ok,
                    f"dim calibration on {len(C.CALIBRATION_SET)} "
                    f"generators: failures={failures} "
                    f"[{elapsed:.1f}s <= 120s]")


def test_criterion_07_mutual_dimension_properties(mdim_report,
                                                  acceptance_verdicts):
    wanted = ("mdim_identity", "mdim_independent", "mdim_symmetry",
              "mdim_range")
    rows = [r for r in mdim_report.rows if r["check"] in wanted]
    bad = [r for r in rows if r["status"] == "fail"]
    mc = mdim_report.measured_constants
    ok = not bad and len(rows) >= 14
    assert _verdict(acceptance_verdicts, 7, ok,
                    f"identity delta {mc['worst_identity_delta']} <= 0.1, "
                    f"independent {mc['independent_slope_hi']} <= 0.1, "
                    f"symmetry delta {mc['symmetry_max_delta']}, "
                    f"range: {len(rows)} checks, {len(bad)} failures")


def test_criterion_08_data_processing(acceptance_verdicts):
    rep = run_suite(config_from_mapping({"suite": "dpi"}))
    ok = rep.fail_count == 0
    assert _verdict(acceptance_verdicts, 8, ok,
                    f"slope_hi(f(x):y) <= factor*slope_hi(x:y)+0.1 on "
                    f"{rep.pass_count} configs, worst margin "
                    f"{rep.measured_constants['worst_margin']}")


def test_criterion_09_counterexample(acceptance_verdicts):
    rep = run_suite(config_from_mapping({"suite": "counterexample"}))
    mc = rep.measured_constants
    ok = (rep.fail_count == 0
          and mc["dim_image_hi"] >= C.COUNTEREXAMPLE_DIM_FLOOR
          and mc["mutual_slope_hi"] <= C.COUNTEREXAMPLE_MUTUAL_CEIL)
    assert _verdict(acceptance_verdicts, 9, ok,
                    f"dim(curve(x)).hi={mc['dim_image_hi']} >= 1.8, "
                    f"slope_hi(x:f(x))={mc['mutual_slope_hi']} <= 1.1, "
                    f"ordering {mc['dim_image_hi']} > 1 >= "
                    f"{mc['dim_parameter_hi']}")


def test_criterion_10_left_inverse_synthesis(acceptance_verdicts):
    t0 = time.monotonic()

    def dyadic(fr):
        return DyadicRational(fr.numerator * (1 << 10) // fr.denominator, 10)

    f2 = library_function("scale", {"c": "2"})
    sel2, spec2 = f2.declared_inverse_moduli[0]
    g2 = left_inverse_synthesize(f2, sel2, spec2)
    fs = library_function("sum", {"n": 2})
    gs = left_inverse_synthesize(fs, SSelector(2, (1,)), linear_modulus(1))
    fa = library_function("affine", {
        "matrix": [["1", "1/2"], ["0", "1"]], "offset": ["1/4", "0"],
        "inverse_modulus": {"S": [1, 2], "s": 1},
    })
    sela, speca = fa.declared_inverse_moduli[0]
    ga = left_inverse_synthesize(fa, sela, speca)

    rng = random.Random(42)
    failures = 0
    worst = 0.0
    for trial in range(100):
        a = Fraction(rng.randrange(-100 << 10, 100 << 10), 1 << 10)
        b = Fraction(rng.randrange(-100 << 10, 100 << 10), 1 << 10)
        if trial % 3 == 0:
            w = ImageOracle(f2, ConstantOracle(RationalPoint((dyadic(a),))))
            g, expect = g2, (a,)
        elif trial % 3 == 1:
            x = ProductOracle(ConstantOracle(RationalPoint((dyadic(a),))),
                              ConstantOracle(RationalPoint((dyadic(b),))))
            w = ProductOracle(ImageOracle(fs, x),
                              ConstantOracle(RationalPoint((dyadic(b),))))
            g, expect = gs, (a,)
        else:
            x = ProductOracle(ConstantOracle(RationalPoint((dyadic(a),))),
                              ConstantOracle(RationalPoint((dyadic(b),))))
            w = ImageOracle(fa, x)
            g, expect = ga, (a, b)
        for r in range(21):
            out = g.evaluate(w, r)
            for got, want in zip(out.coords, expect):
                err = abs(got.to_fraction() - want) * (1 << r)
                worst = max(worst, float(err))
                if err > 1:
                    failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed <= 60
    assert _verdict(acceptance_verdicts, 10, ok,
                    f"synthesized inverses on 100 inputs, r <= 20: "
                    f"{failures} misses, worst {worst:.3f}*2^-r "
                    f"[{elapsed:.1f}s <= 60s]")


def test_criterion_11_reverse_dpi_and_conservation(acceptance_verdicts):
    rev = run_suite(config_from_mapping({"suite": "reverse-dpi"}))
    con = run_suite(config_from_mapping({"suite": "conservation"}))
    ok = rev.fail_count == 0 and con.fail_count == 0
    assert _verdict(acceptance_verdicts, 11, ok,
                    f"reverse dpi {rev.pass_count} checks (margin "
                    f"{rev.measured_constants['worst_margin']}), "
                    f"conservation {con.pass_count} checks (bi-Lipschitz "
                    f"delta {con.measured_constants['bilipschitz_delta']})")
