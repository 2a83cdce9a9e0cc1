#!/usr/bin/env python3
"""The weyldisc benchmark: classify, check and native sweeps, end to end and
per module.

    python3 perfbench/run.py --workload classify-800 --seed 1 --seconds 30 --trace 0

Run from the repository root (the package is imported from ``src``).  One
process, one thread; the set-up probes are short child interpreters run
one after another.  Workloads (see workloads.py):

  classify-800  in-process `weyldisc classify` on the five built-ins at
                n_max 800, 256 bits, fresh model per call, report and disc
                CSV written and checked against reference values.
  check-40      in-process `weyldisc check` on the five built-ins (top 40).
  native-sweep  native-float `classify` at n_max 200 over seeded nonreal lam
                and alpha in [0, pi), one reused model per built-in, plus
                two fixed inputs that fail at the baseline.

``--trace 0`` prints the end-to-end metrics, measured untraced, over whole
passes (each built-in once) until ``--seconds`` have elapsed:

  setup_s      median over probe interpreters of `import weyldisc.cli` plus
               building the workload's scenarios and models
  ops_per_s    operations per second over the timed passes
  op_p50_s     median of all operation latencies
  op_p90_s     90th percentile of all operation latencies
  peak_rss_mb  peak resident memory of this process
  pass_ratio   outcomes that passed over outcomes checked: invariant lines
               for check-40 (one known failure, so 74/75), operations
               otherwise (two known failures a pass on native-sweep, so
               5/7).  The fail ratio is printed beside it.

``--trace 1`` runs an untraced, a traced and a counted pass over the same
inputs, in cycles, and prints the per-layer metrics, each per pass:
``<module>.<function>.calls`` and ``.self_s`` (span time minus child spans)
for every traced public function, propagation steps, report bytes,
coefficient lookups and evaluations (from the counted passes), the set-up
split, a complex multiply-add on every importable kernel, and the tracing
overhead (traced over untraced wall time, minus 1).  The self times of all
spans, the harness spans ``bench.op`` and ``bench.check`` included, add up
to the traced wall time; ``trace.attributed_share`` shows it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
operations whose answer differed from the expected one.  A record of the
run (environment, metrics, latencies, and for traced runs the spans) is
written to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 5
MULADD_BITS = 256
MULADD_REPEATS = 5

PROBE = """
import sys, time, json
from pathlib import Path
t0 = time.perf_counter()
import weyldisc.cli
t1 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[1]](Path(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def probe_setup(workload: str, workdir: Path) -> tuple[list, list]:
    """(import times, model-building times) of fresh interpreters; the first
    probe only warms the bytecode cache and is not counted."""
    path = [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    imports, models = [], []
    for i in range(PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, workload, str(workdir)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            import_s, models_s = json.loads(proc.stdout.splitlines()[-1])
            imports.append(import_s)
            models.append(models_s)
    return imports, models


def muladd_us(kernel, n: int) -> float:
    """Median over repeats of one complex z = z*w + u, in microseconds."""
    times = []
    with kernel.workprec(MULADD_BITS):
        w = kernel.complex(math.cos(1.0), math.sin(1.0))
        u = kernel.complex(0.001, 0.002)
        for _ in range(MULADD_REPEATS):
            z = kernel.complex(0.5, 0.25)
            start = time.perf_counter()
            for _ in range(n):
                z = z * w + u
            times.append((time.perf_counter() - start) / n * 1e6)
    return statistics.median(times)


def kernel_muladds() -> tuple[dict, dict]:
    """Micro-benchmark on every importable kernel: (results, skipped)."""
    from weyldisc import backends

    results = {"mpmath": muladd_us(backends.MpmathKernel(), 4000),
               "native": muladd_us(backends.native_kernel(), 200000)}
    skipped = {}
    if backends.gmpy2 is None:
        skipped["gmpy2"] = "gmpy2 is not importable"
    else:
        results["gmpy2"] = muladd_us(backends.Gmpy2Kernel(), 20000)
    return results, skipped


def run_pass(workload, inputs, tracer=None):
    """One operation per input: latencies and answer checks."""
    latencies, checked = [], []
    for inp in inputs:
        if tracer is not None:
            tracer.op_id += 1
        with tracer.span("bench.op") if tracer else nullcontext():
            start = time.perf_counter()
            try:
                result = workload.run(inp)
            except Exception as exc:  # a wrong answer, counted by check()
                traceback.print_exc(file=sys.stderr)
                result = exc
            latencies.append((inp[0], time.perf_counter() - start))
        with tracer.span("bench.check") if tracer else nullcontext():
            checked.append(workload.check(inp, result))
    return latencies, checked


def end_to_end(workload, rng, seconds: float, setup: list):
    latencies, checked = [], []
    start = time.perf_counter()
    while True:
        lat, chk = run_pass(workload, workload.pass_inputs(rng))
        latencies += lat
        checked += chk
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    outcomes = sum(c.outcomes for c in checked)
    passed = outcomes - sum(len(c.failures) for c in checked)
    all_ops = [seconds_taken for _, seconds_taken in latencies]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / elapsed, "1/s"),
        "op_p50_s": (statistics.median(all_ops), "s"),
        "op_p90_s": (statistics.quantiles(all_ops, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": (passed / outcomes, "ratio"),
    }
    return metrics, latencies, checked


def per_layer(workload, rng, seconds: float, imports: list, models: list):
    """Cycles of an untraced, a traced and a counted pass over the same
    inputs; the order of the first two alternates between cycles."""
    from tracer import HARNESS_SPANS, Tracer, span_names

    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    checked, passes = [], 0
    start = time.perf_counter()
    while True:
        inputs = workload.pass_inputs(rng)
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            with tracer.spans_installed() if traced else nullcontext():
                t0 = time.perf_counter()
                checked += run_pass(workload, inputs, tracer if traced else None)[1]
                walls[traced] += time.perf_counter() - t0
        with tracer.counting():
            checked += run_pass(workload, inputs)[1]
        passes += 1
        if time.perf_counter() - start >= seconds:
            break

    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = (calls[name] / passes, "calls/pass")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s/pass")
    for name in HARNESS_SPANS:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s/pass")
    steps = 0
    step_self = 0.0
    for name in ("recurrence.propagate", "recurrence.propagate_backward"):
        metrics[f"{name}.steps"] = (counts[f"{name}.steps"] / passes, "steps/pass")
        steps += counts[f"{name}.steps"]
        step_self += self_s.get(name, 0.0)
    metrics["recurrence.step_us"] = (step_self / steps * 1e6 if steps else 0.0, "us/step")
    lookups, evals = counts["model.coeff.calls"], counts["model.coeff.evals"]
    metrics["model.coeff.calls"] = (lookups / passes, "calls/pass")
    metrics["model.coeff.evals"] = (evals / passes, "calls/pass")
    # a reused model's memo can leave no evaluations at all: floor them at 1 a pass
    metrics["model.coeff.lookups_per_eval"] = (lookups / max(evals, passes), "ratio")
    metrics["reporting.bytes"] = (counts["reporting.bytes"] / passes, "bytes/pass")
    metrics["trace.wall_s"] = (walls[True] / passes, "s/pass")
    metrics["trace.attributed_share"] = (sum(self_s.values()) / walls[True], "ratio")
    metrics["trace.overhead"] = (walls[True] / walls[False] - 1, "ratio")
    metrics["setup.import_s"] = (statistics.median(imports), "s")
    metrics["setup.models_s"] = (statistics.median(models), "s")
    return metrics, tracer, checked


def environment() -> dict:
    import mpmath
    from weyldisc import big_backend_name

    return {
        "kernel": big_backend_name(),
        "libmp": mpmath.libmp.BACKEND,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                        help="directory for the run record")
    args = parser.parse_args(argv)

    if not (SRC / "weyldisc" / "__init__.py").is_file():
        print(f"weyldisc sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    env = environment()
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=args.out))
    try:
        imports, models = probe_setup(args.workload, workdir)
        muladds, skipped = kernel_muladds() if args.trace else ({}, {})
        workload = workloads.WORKLOADS[args.workload](workdir)
        rng = random.Random(args.seed)
        warm = workload.pass_inputs(random.Random(args.seed))[:1]
        run_pass(workload, warm)  # fills lazy caches; not timed or counted
        if args.trace:
            metrics, tracer, checked = per_layer(workload, rng, args.seconds,
                                                 imports, models)
            latencies = None
            for kernel, us in muladds.items():
                metrics[f"backends.muladd_us.{kernel}"] = (us, "us")
        else:
            setup = [i + m for i, m in zip(imports, models)]
            metrics, latencies, checked = end_to_end(workload, rng, args.seconds, setup)
            tracer = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = [w for c in checked for w in c.wrong]
    failed_ops = sum(1 for c in checked if c.wrong)
    outcomes = sum(c.outcomes for c in checked)
    failures = [f for c in checked for f in c.failures]
    result = {
        "correct": not wrong,
        "attempted": len(checked),
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, **result,
        "fail_ratio": [len(failures), outcomes], "failures": sorted(set(failures)),
        "wrong": wrong[:50],
        "latencies": latencies, "muladd_us": muladds, "skipped_kernels": skipped,
    }
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (args.out / f"{stem}.spans.json").write_text(json.dumps(tracer.spans) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for kernel, reason in skipped.items():
        print(f"kernel {kernel} skipped: {reason}")
    print(f"fail_ratio {len(failures)}/{outcomes} outcomes"
          + (f" ({', '.join(sorted(set(failures)))})" if failures else "")
          + f"; {failed_ops}/{len(checked)} operations answered wrongly")
    for line in wrong[:10]:
        print(f"wrong: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
