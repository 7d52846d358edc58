"""One measured run of one workload, in a fresh interpreter.

Started by run.py; prints one JSON object as its last line of stdout.
The package is imported, and the workload's inputs are generated, before
any timing starts; the curves cache is empty when the first operation
runs.  The loop is closed with one client: each operation starts after
the previous one and its oracle have returned.  A run is a fixed number
of rounds, set by ``--seconds`` and the workload's nominal round time
alone (see :func:`round_count`), so every run of a workload does the same
amount of work whatever the host's speed, and repeats of one seed run
the same operations.  The reference kernel of calib.py runs before every
operation and after the last; each latency is also reported at the
nominal host speed.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_OPS = 100
ROOT_FRAME = {"cli-families": "cli.invoke"}


def import_enriques():
    sys.path.insert(0, SRC)
    import enriques
    if not os.path.abspath(enriques.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"enriques imported from {enriques.__file__}, "
                         f"not from {SRC}")
    return enriques


def round_count(wl, seconds):
    """Whole periods of rounds filling ``seconds`` at nominal speed, and
    at least MIN_OPS operations."""
    periods = max(1, round(seconds / (wl.round_s * wl.period)))
    while periods * wl.period * wl.ops_per_round < MIN_OPS:
        periods += 1
    return periods * wl.period


def run_loop(wl, rounds, tracer, root, speed):
    lat, spans, failures, outputs = [], [], [], []
    for r in range(rounds):
        for op in wl.round(r):
            speed.sample()
            if tracer is not None:
                tracer.begin_op(len(lat), root)
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as e:      # a failed operation is reported
                out, err = None, f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            dt = t1 - t0
            if tracer is not None:
                dt = tracer.end_op()
            lat.append(dt)
            spans.append((t0, t1))
            outputs.append(getattr(out, "exit_code", None))
            if err is None:
                try:
                    err = op.check(out)
                except Exception as e:  # an oracle that raises rejects
                    err = f"oracle raised {type(e).__name__}: {e}"
            if err is not None:
                failures.append({"op": op.label, "error": err})
    speed.sample()
    norm = [speed.normalise(t0, t1) for t0, t1 in spans]
    return lat, norm, failures, outputs


def microbench(originals, field):
    """Per-call time of tower mul and inv on fixed seeded elements."""
    from fractions import Fraction
    rng = random.Random(0)

    def q():
        return Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 20))

    t0 = field.QQ
    t1 = t0.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))
    t2 = t1.extend("t", ((Fraction(-3),), (), ((Fraction(1),))))
    elems = {0: lambda: q(), 1: lambda: (q(), q()),
             2: lambda: ((q(), q()), (q(), q()))}
    towers = {0: t0, 1: t1, 2: t2}
    cases = [("mul", 0, 4000), ("mul", 1, 400), ("mul", 2, 40),
             ("inv", 1, 200), ("inv", 2, 20)]
    out = {}
    for op, depth, n in cases:
        fn = originals[f"field.{op}"]
        tw = towers[depth]
        pairs = [(elems[depth](), elems[depth]()) for _ in range(n)]
        samples = []
        for _ in range(7):
            t = time.perf_counter()
            if op == "mul":
                for a, b in pairs:
                    fn(tw, a, b)
            else:
                for a, _ in pairs:
                    fn(tw, a)
            samples.append((time.perf_counter() - t) / n * 1e6)
        out[f"field.{op}_us.d{depth}"] = statistics.median(samples)
    return out


def layer_metrics(tr, lat):
    """The per-layer metrics of a traced run (see README.md)."""
    calls, self_s, total_s, counts = tr.calls, tr.self_s, tr.total_s, tr.counts
    m = {}
    for op in ("mul", "inv"):
        for d in ("d0", "d1", "d2p"):
            m[f"field.{op}.calls.{d}"] = calls[f"field.{op}.{d}"]
    muls = sum(calls[f"field.mul.{d}"] for d in ("d0", "d1", "d2p"))
    m["field.mul.depth1p_share"] = (
        (calls["field.mul.d1"] + calls["field.mul.d2p"]) / muls if muls else 0)
    m["field.modulus_splits"] = counts["field.modulus_splits"]
    for fn in ("poly_gcd", "resultant_y"):
        m[f"field.{fn}.calls"] = (calls[f"field.{fn}.qq"]
                                  + calls[f"field.{fn}.tower"])
        m[f"field.{fn}.qq_s"] = total_s[f"field.{fn}.qq"]
        m[f"field.{fn}.tower_s"] = total_s[f"field.{fn}.tower"]
    m["field.split_directions.calls"] = calls["field.split_directions"]
    m["field.split_directions.s"] = total_s["field.split_directions"]

    m["localeng.base_points.calls"] = calls["localeng.base_points"]
    m["localeng.base_points.self_s"] = self_s["localeng.base_points"]
    m["localeng.base_points.nodes"] = counts["localeng.base_points.nodes"]
    ct = calls["localeng.curves_through"]
    hits = counts["localeng.curves_through.hits"]
    m["localeng.curves_through.calls"] = ct
    m["localeng.curves_through.hits"] = hits
    m["localeng.curves_through.hit_ratio"] = hits / ct if ct else 0
    m["localeng.curves_through.cross_op_hits"] = \
        counts["localeng.curves_through.cross_op_hits"]
    m["localeng.curves_through.self_s"] = self_s["localeng.curves_through"]
    m["localeng.intersection_multiplicity.calls"] = \
        calls["localeng.intersection_multiplicity"]
    for fn in ("intersection_multiplicity", "mult_cluster", "shared_cluster",
               "local_degree", "pullback_cluster"):
        m[f"localeng.{fn}.self_s"] = self_s[f"localeng.{fn}"]

    m["clusters.EnriquesForest.calls"] = calls["clusters.EnriquesForest"]
    m["clusters.EnriquesForest.nodes"] = counts["clusters.EnriquesForest.nodes"]
    m["clusters.EnriquesForest.s"] = total_s["clusters.EnriquesForest"]
    for fn in ("self_intersection", "is_consistent", "cluster_to_json"):
        m[f"clusters.{fn}.s"] = total_s[f"clusters.{fn}"]
    m["configs.kummer_pullback.self_s"] = self_s["configs.kummer_pullback"]
    m["configs.klein_report.self_s"] = self_s["configs.klein_report"]
    m["configs.h_index.s"] = total_s["configs.h_index"]
    layers = {}
    for key, v in self_s.items():
        layer = key.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + v
    for layer in ("field", "localeng", "clusters", "configs", "cli", "bench"):
        m[f"layer.{layer}.self_s"] = layers.get(layer, 0.0)
    # click dispatch, JSON parsing and emit: the invocation and the
    # wrapped cli helpers, without the library calls below them
    m["cli.self_s"] = layers.get("cli", 0.0)
    m["trace.op_s"] = sum(lat)
    gcd = sum(1 for i, dt in enumerate(lat)
              if tr.op_total.get(i, {}).get("field.poly_gcd.tower", 0.0)
              > 0.5 * dt)
    m["trace.gcd_dominated_share"] = gcd / len(lat)
    return m


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    E = import_enriques()
    import enriques.cli  # noqa: F401  (the CLI layer is traced too)
    from calib import Speed
    from spans import Tracer
    from workloads import WORKLOADS

    if E.localeng._CURVES_CACHE:
        raise SystemExit("curves cache is not empty at start")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    root = ROOT_FRAME.get(args.workload, "bench.op")
    rounds = round_count(wl, args.seconds)
    lat, norm, failures, exits = run_loop(wl, rounds, tracer, root, Speed())
    result = {
        "ops": len(lat), "rounds": rounds, "failures": failures, "lat": lat,
        "norm": norm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        m = layer_metrics(tracer, lat)
        m["cli.invocations"] = sum(1 for e in exits if e is not None)
        m["cli.nonzero_exits"] = sum(1 for e in exits if e not in (None, 0))
        m.update(microbench(tracer.originals, E.field))
        result["layers"] = m
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
