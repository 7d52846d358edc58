"""The enriques benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pullback-grid --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed.  With ``--trace 0`` the last
line of stdout carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run.

The untraced measurement is REPEATS fresh worker processes (see
worker.py) run one after another on the same seed and rounds, so each
operation runs REPEATS times on the same inputs and the same program
state; its latency is the least of those times.  Every time reported is
at the nominal host speed of calib.py: the host's speed dips for seconds
at a time and drifts over minutes, and the reference kernel run next to
each timing takes that out.  The traced run repeats the same rounds once
more, so ``trace_overhead`` compares the same inputs.  Each worker starts
with an empty curves cache and times no import.  README.md lists the
metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from calib import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("pullback-grid", "tower-germs", "cli-families")
SETUP_RUNS = 7
SETUP_SAMPLES = 40       # kernel runs before and after each import
REPEATS = 2
DEADLINE_S = 170        # the whole run, traced or not, ends before this
START = time.monotonic()


def time_left():
    left = DEADLINE_S - (time.monotonic() - START)
    if left <= 0:
        raise SystemExit("out of time")
    return left


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_seconds():
    """Median wall time, at nominal speed, of a fresh interpreter
    importing enriques.cli, after one untimed import that leaves the
    bytecode cache written.

    The timed imports wait without a timeout: with one, the wait polls
    and rounds every time up to a 50 ms step.  The untimed import, run
    with the timeout, has shown that the import finishes.  This process
    and the imports share one CPU, so the reference kernel runs on the
    CPU the import runs on (the speeds of a host's CPUs differ)."""
    cmd = [sys.executable, "-c", "import enriques.cli"]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                   timeout=time_left())
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        speed = Speed()
        spans = []
        for _ in range(SETUP_RUNS):
            for _ in range(SETUP_SAMPLES):
                speed.sample()
            t = time.perf_counter()
            code = subprocess.Popen(cmd, env=child_env(), cwd=ROOT).wait()
            spans.append((t, time.perf_counter()))
            if code != 0:
                raise SystemExit(
                    f"import enriques.cli exited with code {code}")
        for _ in range(SETUP_SAMPLES):
            speed.sample()
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(speed.normalise(*s) for s in spans)


def worker(args, workdir, trace, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / REPEATS), "--trace", str(trace),
           "--workdir", workdir]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=time_left(),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(xs, p):
    """The Harrell-Davis estimate of the p-quantile: a Beta-weighted mean
    of all order statistics rather than the one or two next to rank p*n.
    Per-case costs come in clusters with gaps between them, and a plain
    percentile jumps across a gap when one case near it moves."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n)
            + (b - 1) * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "enriques", "__init__.py")):
        print(f"no enriques sources under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runs = [worker(args, workdir, 0) for _ in range(REPEATS)]
        first = runs[0]
        if len({r["ops"] for r in runs}) != 1:
            raise SystemExit("repeats of one seed ran different operations")
        lat = [min(times) for times in zip(*(r["norm"] for r in runs))]
        if args.trace:
            trace_out = os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json")
            traced = worker(args, workdir, 1, trace_out=trace_out)
            runs.append(traced)
        else:
            setup = setup_seconds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(r["ops"] for r in runs)
    for f in failures:
        print(f"FAILED {f['op']}: {f['error']}", file=sys.stderr)
    correct = not failures
    if args.trace:
        layers = traced["layers"]
        layers["trace_overhead"] = sum(first["norm"]) / sum(traced["norm"])
        self_sum = sum(v for k, v in layers.items()
                       if k.startswith("layer.") and k.endswith(".self_s"))
        if abs(self_sum - layers["trace.op_s"]) > 1e-6 * layers["trace.op_s"]:
            print(f"layer self times sum to {self_sum}, traced operations "
                  f"took {layers['trace.op_s']}", file=sys.stderr)
            correct = False
        if (args.workload == "cli-families"
                and layers["localeng.curves_through.cross_op_hits"]):
            print("a curves-cache hit crossed CLI invocations",
                  file=sys.stderr)
            correct = False
        metrics = {k: metric(v, unit_of(k)) for k, v in layers.items()}
    else:
        metrics = {
            "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
            "op_p50_ms": metric(quantile(lat, 0.5) * 1e3, "ms"),
            "op_p90_ms": metric(quantile(lat, 0.9) * 1e3, "ms"),
            "ok_frac": metric(1 - len(failures) / attempted, "ratio"),
            "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in runs), "MB"),
            "setup_s": metric(setup, "s"),
        }
    print(f"{args.workload} seed {args.seed}: {len(lat)} operations in "
          f"{first['rounds']} rounds, each the least of {REPEATS} repeats; "
          f"p50 and p90 (Harrell-Davis) over {len(lat)} samples",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def unit_of(name):
    if "_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
