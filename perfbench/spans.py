"""Spans and counts recorded around enriques' public functions.

The benchmark installs this in a traced run only; nothing in ``src/`` is
edited.  Each wrapped function is replaced in every ``enriques`` module
namespace that binds it (``localeng`` imports ``mul`` by name, for
example), so calls made inside the package go through the wrapper too.

Every wrapped call pushes a frame.  On return its duration is charged to
the function, and to the calling frame as child time, so a function's
self time is its duration minus the part its wrapped callees cover.  Each
operation of the workload is the root frame, so the self times of all
frames of an operation sum to the operation's traced time.

``field.mul`` and ``field.inv`` run hundreds of thousands of times per
round; they are aggregated per tower depth rather than stored one span
each.  Every other call is kept as a span (name, start, end, parent span,
operation id) in memory and written out by :meth:`Tracer.dump`.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

WRAPPED = {
    "enriques.field": ("mul", "inv", "split_tower", "pgcd", "poly_gcd",
                       "exact_div", "resultant_y", "split_directions"),
    "enriques.localeng": ("mult_cluster", "fixed_part", "base_points",
                          "local_degree", "intersection_multiplicity",
                          "shared_cluster", "curves_through",
                          "pullback_cluster"),
    "enriques.clusters": ("self_intersection", "is_consistent", "excesses",
                          "virtual_codimension", "harbourne_constant",
                          "validate_forest", "noether_intersection",
                          "cluster_to_json", "cluster_from_json"),
    "enriques.configs": ("h_index", "fermat", "wiman", "klein_lines",
                         "klein_polars", "triangle", "kummer_pullback",
                         "theorem_b_family", "pullback_theorem_check",
                         "h_bound_gap", "klein_report", "config_from_json",
                         "config_to_json"),
    "enriques.cli": ("load_json", "parse_poly", "parse_cluster", "parse_map",
                     "parse_config", "emit", "emit_cluster",
                     "emit_config_row"),
}
AGGREGATED = ("field.mul", "field.inv")
# inclusive time is split by the tower of the first argument
BY_TOWER = ("field.poly_gcd", "field.resultant_y")


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.stack = []              # [name, start, child_time, span_index]
        self.spans = []              # (name, start, end, parent, op)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.open = Counter()        # frames of a name on the stack
        self.op_self = {}            # op id -> {name: self time}
        self.op_total = {}           # op id -> {name: inclusive time}
        self._op_mark = ({}, {})
        self.originals = {}
        self._cache_owner = {}

    # -- installation ---------------------------------------------------
    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "enriques" or n.startswith("enriques.")]
        for modname, names in WRAPPED.items():
            layer = modname.split(".")[1]
            mod = sys.modules[modname]
            for name in names:
                orig = getattr(mod, name)
                self.originals[f"{layer}.{name}"] = orig
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
        forest = sys.modules["enriques.clusters"].EnriquesForest
        forest.__init__ = self._wrap("clusters.EnriquesForest",
                                     forest.__init__)

    def _wrap(self, name, fn):
        tracer = self
        perf = time.perf_counter
        pre_fn = _PRE.get(name)
        post = _POST.get(name)
        agg = name in AGGREGATED
        by_tower = name in BY_TOWER

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            key = name
            if agg:
                depth = len(args[0].levels)
                key = f"{name}.d{depth if depth < 2 else '2p'}"
            elif by_tower:
                key = f"{name}.{'tower' if args[0].tower.levels else 'qq'}"
            pre = pre_fn() if pre_fn is not None else None
            frame = [key, 0.0, 0.0, -1]
            if not agg:
                frame[3] = len(tracer.spans)
                tracer.spans.append(None)
            tracer.stack.append(frame)
            tracer.open[key] += 1
            frame[1] = t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer._close(frame, t0, t1)
            if post is not None:
                post(tracer, args, result, pre)
            return result
        return wrapper

    def _close(self, frame, t0, t1):
        key, _, child, span = frame
        self.stack.pop()
        self.open[key] -= 1
        dur = t1 - t0
        self.calls[key] += 1
        self.self_s[key] += dur - child
        if not self.open[key]:
            self.total_s[key] += dur
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if span >= 0:
            self.spans[span] = (key, t0, t1,
                                parent[3] if parent is not None else -1,
                                self.op)

    # -- operations -----------------------------------------------------
    def begin_op(self, op_id, root):
        """Open the root frame of one operation; ``root`` names the layer
        that owns time not covered by any wrapped call."""
        self.op = op_id
        self._op_mark = (dict(self.self_s), dict(self.total_s))
        frame = [root, 0.0, 0.0, len(self.spans)]
        self.spans.append(None)
        self.stack.append(frame)
        self.open[root] += 1
        self.active = True
        frame[1] = time.perf_counter()

    def end_op(self):
        t1 = time.perf_counter()
        self.active = False
        frame = self.stack[-1]
        self._close(frame, frame[1], t1)
        self.op_self[self.op] = _diff(self.self_s, self._op_mark[0])
        self.op_total[self.op] = _diff(self.total_s, self._op_mark[1])
        return t1 - frame[1]

    def dump(self, path):
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start", "end", "parent", "op"],
                       "spans": [[index[s[0]], round(s[1], 9),
                                  round(s[2], 9), s[3], s[4]]
                                 for s in self.spans if s is not None]}, fh)


def _diff(now, mark):
    return {k: v - mark.get(k, 0.0) for k, v in now.items()
            if v != mark.get(k, 0.0)}


def _cache_size():
    return len(sys.modules["enriques.localeng"]._CURVES_CACHE)


def _post_curves(tracer, args, result, before):
    """A call that leaves the curves cache as large as it found it was
    served from the cache.  Cached results are kept alive by the cache, so
    their identity names the entry and the operation that filled it."""
    if _cache_size() == before:
        tracer.counts["localeng.curves_through.hits"] += 1
        if tracer._cache_owner.get(id(result), tracer.op) != tracer.op:
            tracer.counts["localeng.curves_through.cross_op_hits"] += 1
    else:
        tracer._cache_owner[id(result)] = tracer.op


def _post_nodes(metric):
    def post(tracer, args, result, pre):
        tracer.counts[metric] += len(result.forest.nodes)
    return post


def _post_forest(tracer, args, result, pre):
    tracer.counts["clusters.EnriquesForest.nodes"] += len(args[0].nodes)


def _post_split(tracer, args, result, pre):
    tracer.counts["field.modulus_splits"] += 1


_PRE = {"localeng.curves_through": _cache_size}
_POST = {
    "localeng.curves_through": _post_curves,
    "localeng.base_points": _post_nodes("localeng.base_points.nodes"),
    "clusters.EnriquesForest": _post_forest,
    "field.split_tower": _post_split,
}
