"""Tests of the benchmark itself, on shrunken workloads.

Run from the root of a checkout (about two minutes, most of it the
geometry suite, which has no smaller size)::

    python3 perfbench/selftest.py

They check that every metric BENCHMARK.json names is printed with its unit,
that the traced run passes its bypass check, that ``wall_ref_s`` scales
out the host's speed and leaves the speed samples out of every time, and
that the correctness gate turns a corrupted report digest, failing report
rows, disagreeing geometry reports and an inverse result moved by more
than 2**-r into failed operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def metric_lines(stdout: str) -> dict[str, list[str]]:
    """Printed metric lines by name: first token is the name, then value, unit."""
    out: dict[str, list[str]] = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            out.setdefault(parts[0], []).append(line)
    return out


class TinyRuns(unittest.TestCase):
    """One tiny run of every workload, plain and traced."""

    @classmethod
    def setUpClass(cls):
        base = ["--workload", "all", "--seed", "3", "--seconds", "0", "--tiny"]
        cls.plain = bench(*base, "--trace", "0")
        cls.traced = bench(*base, "--trace", "1")

    def _result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_plain_run_is_correct(self):
        result = self._result(self.plain)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], self.plain.stdout)
        self.assertEqual(result["failed"], 0)

    def test_every_end_to_end_metric_printed_with_unit(self):
        result = self._result(self.plain)
        lines = metric_lines(self.plain.stdout)
        for entry in SPEC["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            self.assertEqual(len(lines[name]), len(W.WORKLOADS), name)
            for line in lines[name]:
                self.assertEqual(line.split()[2], unit, line)
            for workload in W.WORKLOADS:
                self.assertEqual(result["metrics"][f"{workload}.{name}"]["unit"], unit)
        self.assertEqual(len(lines["failed_frac"]), len(W.WORKLOADS))
        for name in ("inverse_p50_ms", "inverse_p99_ms"):
            self.assertEqual(lines[name][0].split()[2], "ms", lines[name])

    def test_every_per_layer_metric_printed_with_unit(self):
        result = self._result(self.traced)
        self.assertTrue(result["correct"], self.traced.stdout)
        self.assertNotIn("BYPASS CHECK FAILED", self.traced.stdout)
        lines = metric_lines(self.traced.stdout)
        for entry in SPEC["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            self.assertEqual(len(lines[name]), len(W.WORKLOADS), name)
            for line in lines[name]:
                self.assertEqual(line.split()[2], unit, line)
            for workload in W.WORKLOADS:
                self.assertEqual(result["metrics"][f"{workload}.{name}"]["unit"], unit)


class SingleWorkload(unittest.TestCase):
    def test_last_line_carries_exactly_the_benchmark_metrics(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", "synthesis", "--seed", "5", "--seconds", "0",
                         "--tiny", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[key]})
            self.assertGreaterEqual(result["attempted"], 1)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        bare = BENCH / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "estimate", "--seed", "1", "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def _worker(result, seed=1, batch=0) -> run.Worker:
    job = {"seed": seed, "batch": batch, "tiny": True, "trace": False}
    return run.Worker(job, 0.1, 20.0, 0, result, "", 0.065)


class SpeedScaling(unittest.TestCase):
    REF = 0.008

    def summary(self, end, first, inner, last):
        return worker.speed_summary(0.0, end, self.REF, first, inner, last)

    def test_reference_speed_leaves_wall_time_unchanged(self):
        ref = self.REF
        got = self.summary(1.0, ref, [(0.4, ref), (0.7, ref)], ref)
        self.assertAlmostEqual(got["wall_s"], 1.0 - 2 * ref)
        self.assertAlmostEqual(got["wall_ref_s"], got["wall_s"])

    def test_same_work_on_a_slower_host_reads_the_same(self):
        ref = self.REF
        fast = self.summary(1.0, ref, [(0.5, ref)], ref)
        slow = self.summary(2.0, 2 * ref, [(1.0, 2 * ref)], 2 * ref)
        self.assertAlmostEqual(slow["wall_s"], 2 * fast["wall_s"])
        self.assertAlmostEqual(slow["wall_ref_s"], fast["wall_ref_s"])

    def test_each_stretch_uses_the_samples_around_it(self):
        ref = self.REF
        got = self.summary(1.0, ref, [(0.5, 2 * ref)], 2 * ref)
        self.assertAlmostEqual(got["wall_ref_s"], 0.5 / 1.5 + (1.0 - 0.5 - 2 * ref) / 2)

    def test_probe_time_is_left_out_of_latencies(self):
        w = run.spawn({"workload": "synthesis", "seed": 4, "batch": 0, "tiny": True,
                       "root": str(ROOT), "setup_only": False, "trace": False,
                       "run_id": "selftest", "spans_path": ""}, time.perf_counter() + 600)
        self.assertTrue(w.ok, w.tail)
        self.assertGreaterEqual(len(w.result["probe_ms"]), 2)
        self.assertLessEqual(sum(ms for ms, _, _ in w.result["evaluations"]) / 1000,
                             w.result["wall_s"])


class Gate(unittest.TestCase):
    def test_corrupted_reference_digest_fails_every_operation(self):
        reference = json.loads(run.REFERENCE.read_text())
        good = reference["tiny"]["exact"]
        result = {"reports": [{"suite": s, "fail_count": 0, "sha256": d}
                              for s, d in zip(("machine", "coding-bounds"), good)]}
        failed, _ = run.grade_suites("exact", 1, True, [_worker(result)], reference, {})
        self.assertEqual(failed, 0)
        reference["tiny"]["exact"] = [good[0], "0" * 64]
        failed, reasons = run.grade_suites("exact", 1, True, [_worker(result)] * 2, reference, {})
        self.assertEqual(failed, 2)
        self.assertIn("digest", reasons[0])

    def test_corrupted_reference_digest_fails_a_real_run(self):
        original = run.load_reference
        corrupted = json.loads(run.REFERENCE.read_text())
        corrupted["tiny"]["estimate"] = ["f" * 64]
        run.load_reference = lambda: corrupted
        try:
            record = run.run_workload("estimate", 1, 0, False, True)
        finally:
            run.load_reference = original
        self.assertEqual(record["failed"], record["attempted"])
        self.assertFalse(record["correct"])

    def test_failing_rows_and_errors_fail(self):
        rows = {"reports": [{"suite": "mdim", "fail_count": 1, "sha256": "x"}]}
        self.assertIn("failing rows", run.suite_op_failed(rows, None))
        self.assertIn("raised", run.suite_op_failed({"error": "Traceback\nValueError: x"}, None))
        self.assertEqual(run.suite_op_failed(None, None), "no result")

    def test_geometry_reports_must_agree_within_and_across_runs(self):
        def op(digest):
            return _worker({"reports": [{"suite": "geometry", "fail_count": 0, "sha256": digest}]})

        store: dict = {}
        failed, _ = run.grade_suites("geometry", 7, False, [op("a"), op("a")], {}, store)
        self.assertEqual((failed, store), (0, {"full:7": ["a"]}))
        failed, _ = run.grade_suites("geometry", 7, False, [op("b")], {}, store)
        self.assertEqual(failed, 1)
        fresh: dict = {}
        failed, _ = run.grade_suites("geometry", 8, False, [op("a"), op("a"), op("c")], {}, fresh)
        self.assertEqual((failed, fresh), (1, {}))

    def test_inverse_moved_beyond_two_to_minus_r_fails(self):
        inputs = W.synthesis_inputs(11, 0, True)
        exact = []
        for kind, r, a, b in inputs:
            exact.append([1.0, [str(v) for v in W.expected_preimage(kind, a, b)], None])

        def grade(evaluations):
            return run.grade_synthesis([_worker({"evaluations": evaluations}, seed=11)])

        attempted, failed, _, lat = grade(exact)
        self.assertEqual((attempted, failed, len(lat)), (len(inputs), 0, len(inputs)))
        for step, should_fail in ((Fraction(1), False), (Fraction(9, 8), True)):
            moved = [list(e) for e in exact]
            kind, r, a, b = inputs[-1]
            want = W.expected_preimage(kind, a, b)
            moved[-1][1] = [str(want[0] + step / (1 << r))] + moved[-1][1][1:]
            _, failed, reasons, _ = grade(moved)
            self.assertEqual(failed, int(should_fail), reasons)
        raised = [list(e) for e in exact]
        raised[0] = [1.0, None, "SearchExhaustedError()"]
        _, failed, _, _ = grade(raised)
        self.assertEqual(failed, 1)

    def test_inverse_gate_on_a_real_worker(self):
        worker = run.spawn({"workload": "synthesis", "seed": 2, "batch": 1, "tiny": True,
                            "root": str(ROOT), "setup_only": False, "trace": False,
                            "run_id": "selftest", "spans_path": ""}, time.perf_counter() + 600)
        self.assertTrue(worker.ok, worker.tail)
        _, failed, _, _ = run.grade_synthesis([worker])
        self.assertEqual(failed, 0)
        evaluations = worker.result["evaluations"]
        r = W.synthesis_inputs(2, 1, True)[5][1]
        got = [Fraction(v) for v in evaluations[5][1]]
        evaluations[5][1] = [str(got[0] + Fraction(3) / (1 << r))] + evaluations[5][1][1:]
        _, failed, _, _ = run.grade_synthesis([worker])
        self.assertEqual(failed, 1)


if __name__ == "__main__":
    unittest.main()
