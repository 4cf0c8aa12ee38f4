"""Planted faults kept as data, and a runner that shows the tests still
catch them (mutation testing: DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 1978).

Each mutant names a module of ``src/mdimlab``, one exact source snippet,
its replacement, and the tests that must fail once it is applied.  A
mutant listed as equivalent changes nothing any test can see; its reason
says why, and it must survive.

Run from the root of a checkout::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

The runner copies the tree to a temporary directory, applies one mutant at
a time there and runs only that mutant's tests.  It prints each mutant as
``killed`` (every named test failed), ``survived`` (some named test
passed), ``equivalent`` (an equivalent mutant survived) or ``stale`` (its
snippet does not occur exactly once).  It exits 1 on a survivor, a stale
snippet, or an equivalent mutant that a test kills.  The tier-1 test
``tests/test_mutants.py`` checks only that every snippet still occurs
exactly once, so a later edit to a listed module shows up there.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "mdimlab"

WORK_PIN = "tests/test_differential.py::test_walk_summarizes_states_not_prefixes"
GOLDEN = "tests/test_harness.py::test_report_golden_digest"
# bits offered to and consumed by ``Lz78Parser.feed`` in a default mdim run
LZ78_WORK_PIN = "tests/test_mutual.py::test_default_mdim_run_offers_and_parses_pinned_bits"
LONG_STREAM = "tests/test_differential.py::test_lz78_matches_dict_trie_on_long_streams"
CEILING_STOP = ("tests/test_differential.py::"
                "test_lz78_feed_stops_at_the_first_close_reaching_the_ceiling")
PAIR_COST = "tests/test_mutual.py::TestPairCost"
LOADS = "tests/test_imports.py::test_each_suite_loads_only_the_layers_it_runs"
KR_MEMO = "tests/test_mutual.py::TestKrMemo"
SELF_PAIR = "tests/test_mutual.py::TestMdimEstimate::test_self_pair_frozen"
# source calls, per stream kind, of a default mdim run
SOURCE_CALLS = "tests/test_oracles.py::test_default_mdim_run_asks_each_source_pinned_times"
DILUTION_FORMULA = "tests/test_differential.py::test_diluted_stream_matches_fraction_formula"
START_BOX = "tests/test_differential.py::test_start_box_holds_every_acceptor"
# boxes the left-inverse search bounds over criterion 10's trials
BOXES_PIN = "tests/test_functions.py::TestLeftInverse::test_criterion_10_trials_bound_pinned_boxes"
GRID_CHECK = "tests/test_mutual.py::TestGridCheck::test_bad_grid_raises_before_any_k_r"
# the geometry suite's draws and hit check, on its own inputs
DRAWS = "tests/test_geometry.py::test_suite_draws_are_randrange_draws"
HIT_CHECK = "tests/test_geometry.py::test_suite_hit_check_agrees_with_fractions"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/mdimlab
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids that must fail
    equivalent: str = ""  # why no test can see it; such a mutant must survive


MUTANTS = (
    Mutant(
        "machine-cache-gated-on-room",
        "machine.py",
        "child_weights) = summarize(child_pc, child_out, child_steps)",
        "child_weights) = (summarize if child_pc + 6 <= top else "
        "summarize.__wrapped__)(child_pc, child_out, child_steps)",
        (WORK_PIN,),
    ),
    Mutant(
        "machine-leaf-shortcut-dropped",
        "machine.py",
        "if child_pc + 3 > top or child_steps >= budget:",
        "if False:",
        (WORK_PIN,),
    ),
    Mutant(
        "machine-prefix-term-dropped",
        "machine.py",
        "first <= last or first.startswith(last)",
        "first <= last",
        (
            "tests/test_differential.py::test_prefix_check_flags_planted_violations[levels0]",
            "tests/test_differential.py::test_prefix_check_flags_planted_violations[levels1]",
            "tests/test_differential.py::test_prefix_check_flags_planted_violations[levels3]",
            "tests/test_differential.py::test_prefix_check_is_sound",
        ),
    ),
    Mutant(
        "machine-prefix-sort-skipped",
        "machine.py",
        "ends = sorted(ranges)",
        "ends = list(ranges)",
        (
            "tests/test_acceptance.py::test_criterion_01_prefix_kraft",
            "tests/test_differential.py::test_enumeration_matches_per_program_reference[24-256-]",
            "tests/test_differential.py::test_halting_set_check_flags_planted_walk_faults[last-two-swapped-24-256]",
            "tests/test_differential.py::test_prefix_check_passes_prefix_free_levels",
            "tests/test_differential.py::test_prefix_check_is_sound",
            "tests/test_harness.py::test_report_golden_digest[machine]",
        ),
    ),
    Mutant(
        "machine-leaf-past-budget",
        "machine.py",
        "or child_steps >= budget:",
        "or child_steps > budget:",
        (WORK_PIN,),
        equivalent=(
            "a child with no budget left yields only its own class either "
            "way, so every report is the same; the mutant summarizes such a "
            "child too, but at (24, 256) and (28, 256), the configs the work "
            "pin counts, no child with room for an opcode has exactly the "
            "budget charged"
        ),
    ),
    Mutant(
        "geometry-cube-contains-ceil",
        "geometry.py",
        "c.num >> -s",
        "-(-c.num >> -s)",
        (
            "tests/test_geometry.py::test_cube_membership_half_open",
            "tests/test_complexity.py::TestCodingBound::test_dyadic_lds_holds",
            "tests/test_acceptance.py::test_criterion_05_coding_bound",
            f"{GOLDEN}[geometry]",
            f"{GOLDEN}[coding-bounds]",
        ),
    ),
    Mutant(
        "geometry-cube-containing-ceil",
        "geometry.py",
        "c.num >> (c.exp - r)",
        "-(-c.num >> (c.exp - r))",
        (
            "tests/test_geometry.py::test_cube_containing_examples",
            "tests/test_differential.py::test_geometry_suite_balls_match_references[1]",
            f"{GOLDEN}[geometry]",
        ),
    ),
    Mutant(
        "codec-distance-exponent-of-p-only",
        "codec.py",
        "for a in pc + qc:",
        "for a in pc:",
        (
            "tests/test_acceptance.py::test_criterion_04_counting_bounds",
            "tests/test_acceptance.py::test_criterion_10_left_inverse_synthesis",
            f"{GOLDEN}[geometry]",
            f"{GOLDEN}[coding-bounds]",
        ),
    ),
    Mutant(
        "codec-distance-exponent-above-max",
        "codec.py",
        "e = 0",
        "e = 1",
        ("tests/test_differential.py::test_distance_sq_matches_fraction_sum",),
    ),
    Mutant(
        "geometry-cover-term-off-by-one",
        "geometry.py",
        "(side - f) ** 2",
        "(side - f - 1) ** 2",
        (
            "tests/test_geometry.py::test_cover_examples",
            "tests/test_differential.py::test_geometry_tie_cases_match_references[boundary]",
            f"{GOLDEN}[geometry]",
        ),
    ),
    Mutant(
        "geometry-lattice-exponent-skips-first",
        "geometry.py",
        "e = s\n    for c in coords:",
        "e = s\n    for c in coords[1:]:",
        (
            "tests/test_geometry.py::test_lattice_point_examples",
            "tests/test_differential.py::test_geometry_tie_cases_match_references[midpoint]",
            f"{GOLDEN}[geometry]",
        ),
    ),
    Mutant(
        "geometry-zn-negative-first",
        "geometry.py",
        "(k, -k)",
        "(-k, k)",
        (
            "tests/test_geometry.py::test_zn_enumeration_1d_prefix",
            "tests/test_geometry.py::test_zn_order_matches_sorted_box",
            "tests/test_geometry.py::test_zn_prefix_digest_at_scale[3]",
            f"{GOLDEN}[coding-bounds]",
        ),
    ),
    # the run skip of ``Lz78Parser.feed``
    Mutant(
        "lz78-run-tail-short",
        "compressor.py",
        "if run_end - pos <= depth:",
        "if run_end - pos < depth:",
        (
            f"{LONG_STREAM}[stream1]",
            CEILING_STOP,
            LZ78_WORK_PIN,
            f"{GOLDEN}[mdim]",
        ),
    ),
    Mutant(
        "lz78-run-no-ceiling-check",
        "compressor.py",
        "chain.append(tokens)\n                    node = 0\n"
        "                    if tokens == stop:\n                        break\n",
        "chain.append(tokens)\n                    node = 0\n",
        (
            f"{LONG_STREAM}[stream1]",
            f"{LONG_STREAM}[stream3]",
            CEILING_STOP,
            LZ78_WORK_PIN,
        ),
    ),
    Mutant(
        "lz78-run-tail-dropped",
        "compressor.py",
        "node = chain[run_end - pos]",
        "node = 0",
        (
            f"{LONG_STREAM}[stream1]",
            f"{LONG_STREAM}[stream3]",
            f"{PAIR_COST}::test_matches_four_layout_reference",
            LZ78_WORK_PIN,
            f"{GOLDEN}[mdim]",
        ),
    ),
    Mutant(
        "lz78-run-jump-too-far",
        "compressor.py",
        "pos += depth\n",
        "pos += depth + 1\n",
        (
            f"{LONG_STREAM}[stream1]",
            f"{LONG_STREAM}[stream3]",
            f"{PAIR_COST}::test_matches_four_layout_reference",
            LZ78_WORK_PIN,
            f"{GOLDEN}[mdim]",
        ),
    ),
    Mutant(
        "lz78-length-counts-offered-bits",
        "compressor.py",
        "self._length += pos",
        "self._length += end",
        (
            f"{LONG_STREAM}[stream0]",
            CEILING_STOP,
            f"{PAIR_COST}::test_feeds_only_second_blocks[True]",
            f"{PAIR_COST}::test_warm_k_r_pair_feeds_no_first_block",
            LZ78_WORK_PIN,
        ),
    ),
    # the ceiling as a phrase count
    Mutant(
        "lz78-stop-passed",
        "compressor.py",
        "if tokens == stop:\n                        break\n            else:",
        "if tokens > stop:\n                        break\n            else:",
        (
            "tests/test_compressor.py::test_hand_parsed_costs[0101-6-phrases4]",
            f"{LONG_STREAM}[stream0]",
            LZ78_WORK_PIN,
            f"{GOLDEN}[mdim]",
        ),
    ),
    Mutant(
        "lz78-stop-cost-one-short",
        "compressor.py",
        "(1 - (1 << width) - need)",
        "(-(1 << width) - need)",
        (
            "tests/test_compressor.py::test_stop_matches_a_linear_search[0]",
            "tests/test_compressor.py::test_stop_matches_a_linear_search[512]",
            f"{LONG_STREAM}[stream0]",
            f"{PAIR_COST}::test_feeds_only_second_blocks[True]",
            LZ78_WORK_PIN,
        ),
    ),
    # the estimator half of complexity and mutual, which loads neither the
    # machine nor the geometry
    Mutant(
        "complexity-machine-imported-at-module-level",
        "complexity.py",
        "from .oracles import PointOracle\n",
        "from .machine import get_enumeration\nfrom .oracles import PointOracle\n",
        (
            f"{LOADS}[mdim]",
            f"{LOADS}[kprofile]",
            f"{LOADS}[dpi]",
            "tests/test_imports.py::test_estimators_load_neither_machine_nor_geometry",
            "tests/test_imports.py::"
            "test_exact_run_after_an_estimator_run_loads_the_exact_half",
        ),
    ),
    Mutant(
        "complexity-continuation-without-value-check",
        "complexity.py",
        "if parser is not None and value >> (n - m) == low:",
        "if parser is not None:",
        (
            "tests/test_acceptance.py::test_criterion_11_reverse_dpi_and_conservation",
            f"{KR_MEMO}::test_any_request_order_matches_the_reference",
            f"{KR_MEMO}::test_nested_representations_are_parsed_once[random-2d-False]",
            f"{KR_MEMO}::test_windows_above_the_bottom_match_the_reference[1-random-2d]",
            f"{GOLDEN}[dpi]",
        ),
    ),
    Mutant(
        "mutual-pair-shift-wrong-way",
        "mutual.py",
        "else a << (n - m)",
        "else a >> (n - m)",
        (
            f"{PAIR_COST}::test_matches_four_layout_reference",
            f"{GOLDEN}[dpi]",
            f"{GOLDEN}[reverse-dpi]",
        ),
    ),
    Mutant(
        "mutual-mdim-window-dim",
        "mutual.py",
        "y.dimension, WINDOW_MUTUAL)",
        "y.dimension, WINDOW_DIM)",
        (
            "tests/test_acceptance.py::test_criterion_07_mutual_dimension_properties",
            "tests/test_imports.py::test_module_has_no_unused_imports[mutual.py]",
            SELF_PAIR,
            f"{GOLDEN}[mdim]",
        ),
    ),
    Mutant(
        "mutual-profile-min-max-swapped",
        "mutual.py",
        "tuple(values), min(slopes), max(slopes))",
        "tuple(values), max(slopes), min(slopes))",
        (
            "tests/test_acceptance.py::test_criterion_06_estimator_calibration",
            "tests/test_mutual.py::TestDimEstimate::test_diluted_half_frozen",
            "tests/test_mutual.py::TestDimEstimate::test_rational_quarter_frozen",
            SELF_PAIR,
            f"{GOLDEN}[kprofile]",
        ),
    ),
    Mutant(
        "mutual-k-r-of-x-twice",
        "mutual.py",
        "k_r(x, r) + k_r(y, r)",
        "k_r(x, r) + k_r(x, r)",
        (
            "tests/test_acceptance.py::test_criterion_08_data_processing",
            "tests/test_mutual.py::TestMdimEstimate::test_three_term_identity",
            "tests/test_mutual.py::TestGridMutual::test_compressor_symmetric",
            f"{KR_MEMO}::test_memo_matches_direct_k_r[window0]",
            f"{GOLDEN}[mdim]",
        ),
    ),
    Mutant(
        "mutual-reference-length-of-x",
        "mutual.py",
        "x.dimension + y.dimension, WINDOW_MUTUAL)",
        "x.dimension, WINDOW_MUTUAL)",
        (LZ78_WORK_PIN, SELF_PAIR, f"{GOLDEN}[mdim]"),
    ),
    Mutant(
        "mutual-grid-check-after-k-r",
        "mutual.py",
        "    _check_grid(grid)\n"
        "    values = [k_r(x, r) + k_r(y, r) - k_r_pair(x, y, r) for r in grid]\n",
        "    values = [k_r(x, r) + k_r(y, r) - k_r_pair(x, y, r) for r in grid]\n"
        "    _check_grid(grid)\n",
        tuple(f"{GRID_CHECK}[grid{i}]" for i in range(4)),
    ),
    # the bit streams
    Mutant(
        "oracles-hash-counter-one-block-off",
        "oracles.py",
        "first = b * HASH_DIGESTS",
        "first = (b + 1) * HASH_DIGESTS",
        (
            "tests/test_oracles.py::test_hash_stream_pinned_prefix",
            "tests/test_oracles.py::test_hash_stream_matches_direct_digest",
            "tests/test_oracles.py::test_hash_stream_joins_per_counter_digests",
            "tests/test_mutual.py::TestReferenceRatio::test_frozen_values",
            LZ78_WORK_PIN,
            f"{GOLDEN}[mdim]",
        ),
    ),
    Mutant(
        "oracles-one-digest-per-call",
        "oracles.py",
        "HASH_DIGESTS = 32",
        "HASH_DIGESTS = 1",
        (SOURCE_CALLS,),
    ),
    Mutant(
        "oracles-block-check-dropped",
        "oracles.py",
        'if not data or data.translate(None, b"01"):',
        "if not data:",
        ("tests/test_oracles.py::test_bit_stream_rejects_bad_source",),
    ),
    Mutant(
        "oracles-dilution-period-one-bit-late",
        "oracles.py",
        "base.read(start, stop)",
        "base.read(start + 1, stop + 1)",
        (
            f"{DILUTION_FORMULA}[3-1/3]",
            f"{DILUTION_FORMULA}[2048-1/2]",
            "tests/test_oracles.py::test_diluted_stream_period_layout",
            "tests/test_oracles.py::test_diluted_stream_non_dyadic_density",
            SOURCE_CALLS,
            "tests/test_mutual.py::TestDimEstimate::test_diluted_half_frozen",
            f"{GOLDEN}[kprofile]",
        ),
    ),
    # the start box of the left-inverse search
    Mutant(
        "functions-start-box-reach-one-short",
        "functions.py",
        "reach = isqrt(n * row[width + j]) // det + 1",
        "reach = isqrt(n * row[width + j]) // det",
        (START_BOX, BOXES_PIN),
    ),
    Mutant(
        "functions-start-box-not-clipped-at-0",
        "functions.py",
        "lo.append(max(centre - reach, 0))",
        "lo.append(centre - reach)",
        (
            START_BOX,
            "tests/test_differential.py::test_left_inverse_matches_full_grid_scan[0-x1]",
            "tests/test_differential.py::"
            "test_left_inverse_matches_full_grid_scan[0-identity-3-lower-edge]",
        ),
    ),
    Mutant(
        "functions-start-box-singular-as-empty",
        "functions.py",
        "            return (0,) * width, (cells,) * width",
        "            return None",
        (START_BOX, "tests/test_functions.py::TestLeftInverse::"
         "test_singular_map_searches_the_whole_grid"),
    ),
    # sound: with the +1 in the reach either rounding of the centre keeps
    # every acceptor, so the box is only looser and the work pin sees it
    Mutant(
        "functions-start-box-centre-rounded-up",
        "functions.py",
        "centre = -row[-1] // det",
        "centre = -(row[-1] // det)",
        (BOXES_PIN,),
    ),
    Mutant(
        "functions-start-box-empty-check-dropped",
        "functions.py",
        "        if lo[j] >= hi[j]:\n            return None\n",
        "",
        (START_BOX, "tests/test_functions.py::TestLeftInverse::"
         "test_empty_start_box_exhausts_at_once[preimage-outside-box]"),
    ),
    Mutant(
        "suite-geometry-draw-keeps-the-width",
        "suite_geometry.py",
        "    while v >= n:",
        "    while v > n:",
        # the report reads the same at every seed: only the draw test and
        # the normalisation pin see the wrong draws
        (DRAWS + "[3]", DRAWS + "[11]", "tests/test_geometry.py::"
         "test_geometry_suite_normalises_a_pinned_number_of_dyadics"),
    ),
    Mutant(
        "suite-geometry-hit-shift-one-too-large",
        "suite_geometry.py",
        "d.numerator << 2 * ball.precision < d.denominator",
        "d.numerator << 2 * ball.precision + 1 < d.denominator",
        (HIT_CHECK,),
    ),
    Mutant(
        "suite-geometry-hit-at-the-radius",
        "suite_geometry.py",
        "d.numerator << 2 * ball.precision < d.denominator",
        "d.numerator << 2 * ball.precision <= d.denominator",
        (HIT_CHECK,),
    ),
    Mutant(
        "geometry-precision-takes-minus-one",
        "geometry.py",
        "if type(r) is not int or r < 0:",
        "if type(r) is not int or r < -1:",
        ("tests/test_geometry.py::test_negative_precision_is_refused",
         "tests/test_geometry.py::test_cube_precision_must_be_a_nonnegative_int[-1]",
         "tests/test_geometry.py::test_scale_ball"),
    ),
    Mutant(
        "geometry-precision-refuses-zero",
        "geometry.py",
        "if type(r) is not int or r < 0:",
        "if type(r) is not int or r <= 0:",
        ("tests/test_acceptance.py::test_criterion_02_geometry_exactness",
         "tests/test_geometry.py::test_ball_precision_must_be_a_nonnegative_int",
         "tests/test_geometry.py::test_scale_ball", GOLDEN + "[geometry]"),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    source = (root / PACKAGE / mutant.module).read_text(encoding="utf-8")
    return source.count(mutant.snippet)


def failed_tests(tree: Path, tests: tuple[str, ...]) -> set[str]:
    """Node ids among ``tests`` that fail or error in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode not in (0, 1):  # 1: some test failed
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}"
                           f"{proc.stderr}")
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M))


def verdict(mutant: Mutant, tree: Path) -> str:
    if occurrences(mutant, tree) != 1:
        return "stale"
    path = tree / PACKAGE / mutant.module
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(mutant.snippet, mutant.replacement),
                    encoding="utf-8")
    try:
        failed = failed_tests(tree, mutant.tests)
    finally:
        path.write_text(original, encoding="utf-8")
    if mutant.equivalent:
        return "killed, listed as equivalent" if failed else "equivalent"
    missed = [test for test in mutant.tests if test not in failed]
    return "survived: " + " ".join(missed) if missed else "killed"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants:", " ".join(sorted(unknown)), file=sys.stderr)
        return 2
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        for mutant in chosen:
            result = verdict(mutant, tree)
            bad += result not in ("killed", "equivalent")
            print(f"{mutant.name}: {result}", flush=True)
    print(f"{len(chosen)} mutants, {bad} not as listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
