"""One cold benchmark process: set up, signal, run one operation, report.

Usage (started by run.py, with ``PYTHONPATH`` pointing at the checkout's
``src``)::

    python3 perfbench/worker.py '<job json>'

The job names the workload, seed, size, whether to trace, and whether to
stop after set-up.  The worker prints ``ready`` once mdimlab is imported and
the workload's configs or functions are built, which is where run.py's
set-up clock stops.  It then runs the workload through public entry points
only and prints one JSON line with its wall time and what run.py needs
to check the results.

An untraced operation also samples the host's speed while it runs
(``SpeedProbe``), which gives ``wall_ref_s``, its wall time at a fixed
reference speed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import sys
import time
import traceback
from fractions import Fraction

import workloads as W


PROBE_EVERY_S = 0.25   # real time between two speed samples


def _fraction_work() -> None:
    """Interpreter-bound work: stdlib ``Fraction`` arithmetic on small big ints."""
    x = Fraction(1, 3)
    for i in range(1, 200):
        x = (x * Fraction(i, i + 7) + Fraction(1, 1 << (i % 40))).limit_denominator(1 << 60)


@functools.cache
def _chars() -> list[str]:
    return ["01"[i % 3 % 2] for i in range(1 << 16)]


def _join_work() -> None:
    """Bulk C loops: slicing and joining a 2**16-entry list of one-character strings."""
    chars = _chars()
    for _ in range(8):
        "".join(chars[: 1 << 16])


# Milliseconds each piece of reference work takes at the reference speed,
# about its median on the 2-vCPU host the benchmark was defined on.
REFERENCE_MS = {_fraction_work: 8.0, _join_work: 8.0}

# The reference work of each workload mirrors the kind of work it does, so
# that a phase of the host slows both alike.  On such a host, interpreter-bound
# code slows about twice as much as bulk C loops.  exact, geometry and
# synthesis are interpreter-bound.  estimate spends about half its time in
# BitStream.prefix, which slices and joins a list of one-character strings.
REFERENCE_WORK = {
    "estimate": (_fraction_work, _join_work),
    "exact": (_fraction_work,),
    "geometry": (_fraction_work,),
    "synthesis": (_fraction_work,),
}


class SpeedProbe:
    """Times one operation and, given reference work, samples the host's speed during it.

    On a shared host the speed of the interpreter drifts by a factor of two
    over seconds to minutes, so the wall times of identical work spread past
    any useful bound.  Every ``PROBE_EVERY_S`` of real time, SIGALRM runs the
    reference work here and times it; one more sample is taken right before
    and right after the operation.  Each stretch of the operation between two
    samples is scaled by the reference time over the mean of those two
    samples: ``wall_ref_s`` is then the seconds the operation would take on a
    host where the reference work takes its ``REFERENCE_MS``.  It grows with
    the work the operation does, not with the host's phase.  Sample time is
    left out of ``wall_s`` and, through ``total``, of every latency.  It
    assumes the operation runs on this process's main thread only, which
    holds while ``MDIMLAB_THREADS`` is unset.
    """

    def __init__(self, work: tuple | None) -> None:
        self.work = work
        self.total = 0.0     # seconds spent in samples during the operation
        self._inner: list[tuple[float, float]] = []   # (start, seconds) of those samples
        self._busy = False

    def _sample(self) -> tuple[float, float]:
        start = time.perf_counter()
        for piece in self.work:
            piece()
        return start, time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            start, took = self._sample()
            self._inner.append((start, took))
            self.total += took
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        if self.work:
            self._sample()  # warm-up, untimed
            signal.signal(signal.SIGALRM, self._on_alarm)
            _, self._first = self._sample()
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.begin = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self.work:
            # the handler stays: a signal already on its way lands in it, and
            # a sample taken after the operation is ignored
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            _, self._last = self._sample()

    def summary(self) -> dict:
        if not self.work:
            return {"wall_s": self.end - self.begin}
        inner = [(s, t) for s, t in self._inner if s < self.end]
        ref_s = sum(REFERENCE_MS[piece] for piece in self.work) / 1000
        samples = [self._first, *(t for _, t in inner), self._last]
        return dict(speed_summary(self.begin, self.end, ref_s, self._first, inner, self._last),
                    probe_ms=[t * 1000 for t in samples], reference_ms=ref_s * 1000)


def speed_summary(begin: float, end: float, ref_s: float, first: float,
                  inner: list[tuple[float, float]], last: float) -> dict:
    """``wall_s`` and ``wall_ref_s`` of an operation from ``begin`` to ``end``.

    ``inner`` holds the (start, seconds) of the samples taken during it;
    ``first`` and ``last`` are the seconds of those taken right before and
    after it, and ``ref_s`` what a sample takes at the reference speed.
    """
    wall = ref = 0.0
    edge, before = begin, first
    for start, took in [*inner, (end, last)]:
        wall += start - edge
        ref += (start - edge) * ref_s / ((before + took) / 2)
        edge, before = start + took, took
    return {"wall_s": wall, "wall_ref_s": ref}


def _load_mdimlab(root: str) -> None:
    import mdimlab

    src = os.path.join(root, "src", "mdimlab")
    if os.path.dirname(os.path.abspath(mdimlab.__file__)) != os.path.abspath(src):
        raise ImportError(f"mdimlab imported from {mdimlab.__file__}, not {src}")


def _setup_suites(job: dict):
    from mdimlab import harness

    specs = W.suite_specs(job["workload"], job["seed"], job["tiny"])
    return harness, [harness.config_from_mapping(spec) for spec in specs]


def _run_suites(probe, harness, cfgs) -> dict:
    reports = []
    for cfg in cfgs:
        report = harness.run_suite(cfg)
        text = report.render(cfg.out_format)
        reports.append({
            "suite": cfg.suite,
            "pass_count": report.pass_count,
            "fail_count": report.fail_count,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        })
    return {"reports": reports}


def _setup_synthesis(job: dict):
    from mdimlab import functions
    from mdimlab.codec import DyadicRational, RationalPoint
    from mdimlab.oracles import ConstantOracle, ProductOracle

    forward = [functions.library_function(spec["name"], spec["params"])
               for spec in (W.SCALE, W.SUM, W.AFFINE)]
    certificates = [
        forward[0].declared_inverse_moduli[0],
        (functions.SSelector(2, (1,)), functions.linear_modulus(1)),
        forward[2].declared_inverse_moduli[0],
    ]

    def const(v):
        return ConstantOracle(RationalPoint((DyadicRational(v, W.GRID_EXP),)))

    def observed(kind, a, b):
        """Oracle for what the inverse sees: f(x), with y appended for sum."""
        f = forward[kind]
        if W.KINDS[kind] == "scale":
            return functions.ImageOracle(f, const(a))
        pair = ProductOracle(const(a), const(b))
        if W.KINDS[kind] == "sum":
            return ProductOracle(functions.ImageOracle(f, pair), const(b))
        return functions.ImageOracle(f, pair)

    inputs = W.synthesis_inputs(job["seed"], job["batch"], job["tiny"])
    return functions, forward, certificates, observed, inputs


def _run_synthesis(probe, functions, forward, certificates, observed, inputs) -> dict:
    clock = time.perf_counter
    evaluations = []
    inverses = [functions.left_inverse_synthesize(f, sel, spec)
                for f, (sel, spec) in zip(forward, certificates)]
    for kind, r, a, b in inputs:
        w = observed(kind, a, b)
        t0, probed = clock(), probe.total
        try:
            out = inverses[kind].evaluate(w, r)
        except Exception as exc:  # a raising evaluation is a failed operation
            ms = (clock() - t0 - (probe.total - probed)) * 1000
            evaluations.append([ms, None, repr(exc)])
            continue
        ms = (clock() - t0 - (probe.total - probed)) * 1000
        evaluations.append([ms, [str(c.to_fraction()) for c in out.coords], None])
    return {"evaluations": evaluations}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    tracer = None
    if job["trace"]:
        import layertrace

        tracer = layertrace.install(job["run_id"])
    _load_mdimlab(job["root"])
    if job["workload"] == "synthesis":
        state = _setup_synthesis(job)
        run = _run_synthesis
    else:
        state = _setup_suites(job)
        run = _run_suites
    print("ready", flush=True)
    if job["setup_only"]:
        return 0
    if tracer is not None:
        tracer.reset()
    probe = SpeedProbe(REFERENCE_WORK[job["workload"]] if tracer is None else None)
    try:
        with probe:
            result = run(probe, *state)
        result.update(probe.summary())
    except Exception:
        result = {"error": traceback.format_exc()}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(job["spans_path"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
