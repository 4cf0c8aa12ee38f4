"""mdimlab benchmark: the entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: estimate, exact, geometry, synthesis (see perfbench/README.md), or
``all`` to run each in turn.  Every operation runs in a fresh worker process
(perfbench/worker.py) on the checkout's ``src``; this process times the
worker's set-up from spawn, reads the worker's wall time (as measured, and
scaled to a reference host speed: ``wall_ref_s``, see ``worker.SpeedProbe``)
and peak memory, and checks every result before it counts.  Operations
start one after the other until ``--seconds`` have passed, at least one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation twice, plain and with every layer wrapped (perfbench/layertrace.py),
reports the per-layer metrics, the tracing overhead, and fails the run when
a layer works on a workload that should bypass it, or idles on its own.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and sample count, and the environment.  Raw samples go
to perfbench/out/.  ``--tiny`` shrinks each workload for the self-tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import layertrace
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

SETUP_PROBES = 5       # set-up-only worker starts before each operation and at the end
# Seconds a bare interpreter takes from spawn to its first line at the reference
# start-up speed, about its median on the 2-vCPU host the benchmark was defined on.
BARE_START_REF_S = 0.065
RUN_LIMIT_S = 170.0    # no worker outlives this many seconds of one run

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}

# per-layer counters that must read zero on a workload (a wrapper bound to
# the wrong name, or a workload drifting onto a layer it should bypass) ...
ZERO_ON = {
    "estimate": ("machine.programs", "geometry.predicates", "functions.nodes"),
    "exact": ("oracles.bits", "compressor.bits", "mutual.pair_cost.calls", "functions.nodes"),
    "geometry": ("machine.programs", "compressor.bits", "oracles.bits",
                 "mutual.pair_cost.calls", "complexity.k_r.calls", "functions.nodes"),
    "synthesis": ("machine.programs", "compressor.bits", "oracles.bits",
                  "mutual.pair_cost.calls", "complexity.k_r.calls", "geometry.predicates"),
}
# ... and the layers that must do work on their own workload: a count and
# the layer's self time both above zero
HEAVY_ON = {
    "estimate": {"oracles": "oracles.bits", "compressor": "compressor.bits",
                 "mutual": "mutual.pair_cost.calls", "complexity": "complexity.k_r.calls",
                 "codec": "codec.dyadic_new.calls", "harness": "harness.run_suite.s"},
    "exact": {"machine": "machine.programs", "complexity": "complexity.bound_checks.calls",
              "codec": "codec.decode.calls", "harness": "harness.run_suite.s"},
    "geometry": {"geometry": "geometry.predicates", "codec": "codec.distance_sq.calls",
                 "harness": "harness.run_suite.s"},
    "synthesis": {"functions": "functions.nodes", "codec": "codec.dyadic_new.calls"},
}


# ---- environment ------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD read from the checkout's own .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mdimlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    threads = os.environ.get("MDIMLAB_THREADS")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "MDIMLAB_THREADS": "unset" if threads is None
        else f"unset for workers (caller had {threads!r})",
    }


# ---- workers ----------------------------------------------------------------------


class Worker:
    """Outcome of one worker process."""

    def __init__(self, job, setup_s, rss_mb, returncode, result, tail, bare_start_s):
        self.job = job
        self.setup_s = setup_s      # None when set-up never finished
        self.bare_start_s = bare_start_s   # a bare interpreter's start, just before
        self.rss_mb = rss_mb
        self.returncode = returncode
        self.result = result        # parsed JSON line, None when missing
        self.tail = tail

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.result is not None and "error" not in self.result


def bare_start_s(env: dict) -> float:
    """Seconds from spawning a bare interpreter (no mdimlab) to its first line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "print('ready', flush=True)"], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    with proc:
        proc.stdout.readline()
        took = time.perf_counter() - start
        proc.stdout.read()
    return took


def spawn(job: dict, deadline: float) -> Worker:
    """Time a bare interpreter's start, then start one worker, time its set-up,
    wait for it, and collect its rusage."""
    env = {k: v for k, v in os.environ.items() if k not in ("MDIMLAB_THREADS", "PYTHONPATH")}
    bare_s = bare_start_s(env)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(job)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    setup_s = ready - start if first.strip() == "ready" else None
    result = None
    lines = [line for line in rest.splitlines() if line.strip()]
    if setup_s is not None and lines and not job["setup_only"]:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    tail = "\n".join(([first.rstrip()] + lines)[-12:])
    return Worker(job, setup_s, usage.ru_maxrss / 1024.0, proc.returncode, result, tail,
                  bare_s)


# ---- correctness gate ---------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def suite_op_failed(result: dict | None, expected: list[str] | None) -> str | None:
    """Why one suite operation failed, or None when it passed.

    It fails when it raised or produced nothing, when any report has failing
    rows, or when the report digests differ from ``expected``.
    """
    if result is None:
        return "no result"
    if "error" in result:
        return "raised: " + result["error"].strip().splitlines()[-1]
    reports = result["reports"]
    bad = [r["suite"] for r in reports if r["fail_count"] > 0]
    if bad:
        return "failing rows in " + ", ".join(bad)
    digests = [r["sha256"] for r in reports]
    if expected is not None and digests != expected:
        return "report digest differs from the reference"
    return None


def inverse_failed(got: list[str] | None, want: tuple[Fraction, ...], r: int) -> bool:
    """Criterion-10 rule: every coordinate within 2**-r of the preimage."""
    if got is None or len(got) != len(want):
        return True
    return any(abs(Fraction(g) - w) * (1 << r) > 1 for g, w in zip(got, want))


def _geometry_store_key(seed: int, tiny: bool) -> str:
    return f"{'tiny' if tiny else 'full'}:{seed}"


def grade_suites(workload, seed, tiny, workers, reference, store) -> tuple[int, list[str]]:
    """(failed count, reasons) over the suite operations of one run.

    estimate and exact compare with the digests recorded at commit 5fa8ebe;
    geometry compares every operation of a seed with the others, across runs
    too through ``store`` (seed key -> digest list), which it updates.
    """
    results = [w.result for w in workers]
    if workload == "geometry":
        key = _geometry_store_key(seed, tiny)
        seen = [tuple(r["sha256"] for r in res["reports"])
                for res in results if res is not None and "reports" in res]
        expected = store.get(key)
        if expected is None and seen:
            expected = max(set(seen), key=seen.count)
            if all(s == expected for s in seen):
                store[key] = list(expected)
        expected = list(expected) if expected is not None else None
    else:
        expected = reference["tiny" if tiny else "full"][workload]
    reasons = []
    for res in results:
        why = suite_op_failed(res, expected)
        if why is not None:
            reasons.append(why)
    return len(reasons), reasons


def grade_synthesis(workers) -> tuple[int, int, list[str], list[float]]:
    """(attempted, failed, reasons, untraced latencies in ms) over every evaluation.

    The inputs and expected preimages are rebuilt here from each worker's
    seed and batch, not taken from the worker.
    """
    attempted = failed = 0
    reasons: list[str] = []
    latencies: list[float] = []
    for w in workers:
        inputs = W.synthesis_inputs(w.job["seed"], w.job["batch"], w.job["tiny"])
        evaluations = w.result.get("evaluations", []) if w.result else []
        attempted += len(inputs)
        if len(evaluations) != len(inputs):
            failed += len(inputs)
            reasons.append(f"worker returned {len(evaluations)} of {len(inputs)} evaluations")
            continue
        for (kind, r, a, b), (ms, got, err) in zip(inputs, evaluations):
            if not w.job["trace"]:
                latencies.append(ms)
            if inverse_failed(got, W.expected_preimage(kind, a, b), r):
                failed += 1
                if len(reasons) < 5:
                    reasons.append(err or f"{W.KINDS[kind]} r={r} a={a} b={b}: got {got}")
    return attempted, failed, reasons, latencies


def bypass_violations(workload: str, layer: dict[str, float]) -> list[str]:
    out = [f"{name} = {layer[name]} on {workload}, expected 0"
           for name in ZERO_ON[workload] if layer[name] != 0]
    for lay, name in HEAVY_ON[workload].items():
        if not layer[name] > 0 or not layer[f"{lay}.self_s"] > 0:
            out.append(f"{lay} idle on {workload}: {name} = {layer[name]}, "
                       f"{lay}.self_s = {layer[f'{lay}.self_s']}")
    return out


# ---- statistics ---------------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def highest_reportable(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n))) if n else 0


# ---- one workload -------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"

    def job(batch, setup_only=False, traced=False):
        """Operation ``batch`` of the run; a traced twin shares its batch."""
        run_id = f"{tag}-{batch}{'-traced' if traced else ''}"
        return {"workload": workload, "seed": seed, "batch": batch, "tiny": tiny,
                "root": str(ROOT), "setup_only": setup_only, "trace": traced,
                "run_id": run_id, "spans_path": str(OUT / f"spans-{run_id}.jsonl")}

    def probe(batch):
        if time.perf_counter() + 10 > deadline:
            return []
        return [spawn(job(batch, setup_only=True), deadline) for _ in range(SETUP_PROBES)]

    probes: list[Worker] = []
    plain: list[Worker] = []
    traced: list[Worker] = []
    batch = 0
    while True:
        if not trace:
            probes += probe(batch)
        plain.append(spawn(job(batch), deadline))
        if trace:
            traced.append(spawn(job(batch, traced=True), deadline))
        batch += 1
        if time.perf_counter() - run_start >= seconds or time.perf_counter() >= deadline:
            break
    if not trace:
        probes += probe(batch)

    ops = plain + traced
    reasons: list[str] = []
    latencies: list[float] = []
    record_digests: list = []
    if workload == "synthesis":
        attempted, failed, reasons, latencies = grade_synthesis(ops)
        unit = "inverse evaluations"
    else:
        store_path = OUT / "geometry-digests.json"
        store = json.loads(store_path.read_text()) if store_path.is_file() else {}
        attempted = len(ops)
        failed, reasons = grade_suites(workload, seed, tiny, ops, load_reference(), store)
        if workload == "geometry":
            tmp = store_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
            os.replace(tmp, store_path)
        unit = "suite runs"
        record_digests = [[r["sha256"] for r in w.result["reports"]] for w in ops if w.ok]
    for w in ops + probes:
        if w.setup_s is None or (w in ops and w.result is None):
            reasons.append(f"worker exit {w.returncode}:\n{w.tail}")

    walls = [w.result["wall_s"] for w in plain if w.ok]
    ref_walls = [w.result["wall_ref_s"] for w in plain if w.ok]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "env": environment(seed),
        "attempted": attempted, "failed": failed, "unit": unit, "reasons": reasons,
        "digests": record_digests,
        "samples": {
            "setup_s": [w.setup_s * BARE_START_REF_S / w.bare_start_s
                        for w in probes + plain if w.setup_s is not None],
            "setup_raw_s": [w.setup_s for w in probes + plain if w.setup_s is not None],
            "bare_start_s": [w.bare_start_s for w in probes + plain if w.setup_s is not None],
            "wall_s": walls,
            "wall_ref_s": ref_walls,
            "probe_ms": [statistics.median(w.result["probe_ms"]) for w in plain if w.ok],
            "peak_rss_mb": [w.rss_mb for w in plain if w.ok],
            "inverse_ms": latencies,
        },
    }
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        for name, unit_name in END_TO_END.items():
            values = record["samples"][name]
            if values:
                metrics[name] = (statistics.median(values), unit_name)
    else:
        per_worker = [layertrace.layer_metrics(w.result["trace"]) for w in traced if w.ok]
        traced_walls = [w.result["wall_s"] for w in traced if w.ok]
        record["samples"]["traced_wall_s"] = traced_walls
        record["per_worker_layers"] = [{k: v for k, (v, _) in m.items()} for m in per_worker]
        if per_worker:
            for name, (_, unit_name) in per_worker[0].items():
                metrics[name] = (statistics.median(m[name][0] for m in per_worker), unit_name)
        if walls and traced_walls:
            over = statistics.median(traced_walls) - statistics.median(walls)
            metrics["trace.overhead_s"] = (over, "s")
            metrics["trace.overhead_frac"] = (over / statistics.median(walls), "ratio")
        record["bypass_violations"] = (
            bypass_violations(workload, {k: v for k, (v, _) in metrics.items()})
            if per_worker else ["no traced worker finished"])
        record["spans_files"] = [str(Path(w.job["spans_path"]).relative_to(ROOT)) for w in traced]
    record["reference_ms"] = next((w.result["reference_ms"] for w in plain if w.ok), None)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["correct"] = (failed == 0 and not reasons and attempted > 0
                         and not record.get("bypass_violations"))
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    return record


# ---- printing -----------------------------------------------------------------------


def describe(record: dict) -> list[str]:
    env = record["env"]
    s = record["samples"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={int(record['trace'])}{' tiny' if record['tiny'] else ''}",
        f"  env: python {env['python']} ({env['implementation']}), nproc {env['nproc']} "
        f"(usable {env['cpus_usable']}), commit {env['commit']}, "
        f"src sha256 {env['src_sha256'][:16]}, MDIMLAB_THREADS {env['MDIMLAB_THREADS']}",
    ]
    m = record["metrics"]
    if not record["trace"]:
        counts = {"setup_s": f"median of {len(s['setup_s'])} process starts, at the "
                             "reference start-up speed",
                  "wall_ref_s": f"median of {len(s['wall_ref_s'])} operations, at the "
                                "reference speed",
                  "peak_rss_mb": f"median of {len(s['peak_rss_mb'])} workers"}
        for name in END_TO_END:
            if name in m:
                lines.append(f"  {name:<16} {m[name]['value']:>12.4f} {m[name]['unit']:<6} "
                             f"{counts[name]}")
        if s["setup_raw_s"]:
            raw = statistics.median(s["setup_raw_s"])
            lines.append(f"  {'setup_raw_s':<16} {raw:>12.4f} s      median of "
                         f"{len(s['setup_raw_s'])} process starts, as measured; a bare "
                         f"interpreter started in {statistics.median(s['bare_start_s']):.4f} s "
                         f"(reference {BARE_START_REF_S} s)")
        if s["wall_s"]:
            lines.append(f"  {'wall_s':<16} {statistics.median(s['wall_s']):>12.4f} s      "
                         f"median of {len(s['wall_s'])} operations, as measured; speed "
                         f"samples took {statistics.median(s['probe_ms']):.2f} ms "
                         f"(reference {record['reference_ms']:.1f} ms)")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    lines.append(f"  {'failed_frac':<16} {frac:>12.4f} ratio  "
                 f"{record['failed']} failed of {record['attempted']} {record['unit']}")
    lat = sorted(s["inverse_ms"])
    if record["workload"] == "synthesis" and lat:
        n = len(lat)
        lines.append(f"  {'inverse_p50_ms':<16} {percentile(lat, 50):>12.4f} ms     n={n}")
        if highest_reportable(n) >= 99:
            lines.append(f"  {'inverse_p99_ms':<16} {percentile(lat, 99):>12.4f} ms     n={n}")
        else:
            q = highest_reportable(n)
            lines.append(f"  {'inverse_p99_ms':<16} {'n/a':>12} ms     n={n}, fewer than ten "
                         f"samples beyond p99; p{q} = {percentile(lat, q):.4f} ms")
    if record["trace"]:
        for name, entry in m.items():
            lines.append(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
        lines.append(f"  tracing overhead: traced wall_s minus plain wall_s, "
                     f"{len(s['traced_wall_s'])} traced and {len(s['wall_s'])} plain operations")
        for v in record["bypass_violations"]:
            lines.append(f"  BYPASS CHECK FAILED: {v}")
        if record["spans_files"]:
            lines.append(f"  spans: {', '.join(record['spans_files'])}")
    for why in record["reasons"][:5]:
        lines.append("  FAILED: " + why.replace("\n", "\n    "))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mdimlab" / "__init__.py").is_file():
        print(f"perfbench: no mdimlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
               for name in names]
    for record in records:
        print("\n".join(describe(record)))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
