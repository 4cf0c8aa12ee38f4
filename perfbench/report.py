"""Run sets of benchmark runs and summarise them per workload.

Usage, from the root of a checkout::

    python3 perfbench/report.py --workloads all --seeds 1-10 --seconds 10

Runs ``perfbench/run.py`` once per (workload, seed), one after the other,
and prints for every end-to-end metric of every workload the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.  It
also prints the failed fraction over the set, and for synthesis the inverse
latency percentiles pooled over every run of the set.  ``--trace 1`` prints
the medians of the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(workload: str, seeds: list[int], seconds: int, trace: int) -> list[dict]:
    records = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True,
        )
        tag = f"{workload}-seed{seed}-trace{trace}"
        record = json.loads((run.OUT / f"run-{tag}.json").read_text())
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"  {tag}: exit {proc.returncode}, correct {result['correct']}, "
              + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                          if not trace or k in ("trace.overhead_s", "trace.overhead_frac")),
              flush=True)
        records.append(record)
    return records


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def summarise(workload: str, records: list[dict], trace: int) -> list[str]:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    lines = [f"{workload}: {len(records)} runs, seeds "
             f"{','.join(str(r['seed']) for r in records)}; env "
             f"python {records[0]['env']['python']}, nproc {records[0]['env']['nproc']}, "
             f"commit {records[0]['env']['commit'][:12]}",
             "  median speed sample (ms) of each run: "
             + " ".join(f"{statistics.median(r['samples']['probe_ms']):.2f}"
                        for r in records if r["samples"]["probe_ms"]),
             f"  {'failed_frac':<40} {failed / attempted if attempted else 1:>12.4g} ratio  "
             f"{failed} of {attempted} {records[0]['unit']}"]
    if trace:
        for entry in SPEC["per_layer"]:
            values = [r["metrics"][entry["name"]]["value"] for r in records
                      if entry["name"] in r["metrics"]]
            if values:
                median, _, _, share = spread(values)
                lines.append(f"  {entry['name']:<40} {median:>12.6g} {entry['unit']:<6} "
                             f"spread {share:.3f} (n={len(values)} runs)")
        return lines
    for entry in SPEC["end_to_end"]:
        values = [r["metrics"][entry["name"]]["value"] for r in records
                  if entry["name"] in r["metrics"]]
        if not values:
            continue
        median, q1, q3, share = spread(values)
        samples = sum(len(r["samples"][entry["name"]]) for r in records)
        lines.append(f"  {entry['name']:<16} {median:>12.4f} {entry['unit']:<3} q1 {q1:.4f} "
                     f"q3 {q3:.4f} spread {share:.3f} bound {entry['bound']} "
                     f"(n={len(values)} runs, {samples} samples)")
    latencies = sorted(ms for r in records for ms in r["samples"]["inverse_ms"])
    if latencies:
        n = len(latencies)
        lines.append(f"  {'inverse_p50_ms':<16} {run.percentile(latencies, 50):>12.4f} ms  "
                     f"pooled n={n}")
        if run.highest_reportable(n) >= 99:
            lines.append(f"  {'inverse_p99_ms':<16} {run.percentile(latencies, 99):>12.4f} ms  "
                         f"pooled n={n}")
        else:
            lines.append(f"  {'inverse_p99_ms':<16} {'n/a':>12} ms  pooled n={n} < 1000")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = W.WORKLOADS if args.workloads == "all" else tuple(args.workloads.split(","))
    seeds = parse_seeds(args.seeds)
    summaries = []
    for name in names:
        print(f"{name}: {len(seeds)} runs", flush=True)
        summaries.append(summarise(name, run_set(name, seeds, args.seconds, args.trace),
                                   args.trace))
    for lines in summaries:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
