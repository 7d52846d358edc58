"""Seeded inputs, operations and oracles of the three benchmark workloads.

A workload is built from the workload seed alone and hands out rounds: a
round is a list of operations that the closed loop runs one after another.
Every operation carries an oracle, run untimed and untraced after the
operation returns, that checks the output against a route independent of
the code under test (a closed form, a structural law, or a second
algorithm of the library).  An oracle returns None when the output is
right and a one-line reason otherwise.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import enriques as E
from enriques import field as F


@dataclass
class Op:
    label: str          # the inputs, as reported when the operation fails
    call: object        # () -> output
    check: object       # output -> None | reason


def shuffled_cycle(rng, values):
    """Every value once per pass, in a seeded order.  Parameters that set
    an operation's cost are drawn this way, so a run of many rounds sees
    each of them about equally often whatever the seed; a run ends on a
    multiple of the workload's ``period``, a pass of its costliest cycles.
    ``round_s`` is a round's time at nominal speed (calib.py); it sets how
    many rounds a run of a given length makes."""
    values = list(values)
    rng.shuffle(values)
    return itertools.cycle(values)


def cluster_square(k):
    return sum(n.orbit * k.weights[n.id] ** 2 for n in k.forest.nodes)


def cluster_size(k):
    return sum(n.orbit for n in k.forest.nodes)


def excess_ok(nodes, weights):
    """Proximity inequalities from the node list alone (orbit-relative)."""
    for n in nodes:
        rho = Fraction(weights[n["id"]])
        for c in nodes:
            if n["id"] in (c["parent"], c["second_proximity"]):
                rho -= Fraction(c["orbit"], n["orbit"]) * weights[c["id"]]
        if rho < 0:
            return False
    return True


def _cluster_nodes(k):
    nodes = [{"id": n.id, "parent": n.parent,
              "second_proximity": n.second_proximity, "orbit": n.orbit}
             for n in k.forest.nodes]
    return nodes, dict(k.weights)


# ---------------------------------------------------------------------------
# pullback-grid: f*(K) on the 18 x 6 grid of acceptance criterion 7
# ---------------------------------------------------------------------------

GRID_CLUSTERS = [
    ([1], None), ([2], None), ([3], None),
    ([1, 1], None), ([2, 1], None), ([2, 2], None),
    ([3, 1], None), ([3, 2], None), ([3, 3], None),
    ([1, 1, 1], None), ([2, 1, 1], None), ([2, 2, 2], None),
    ([3, 2, 1], None), ([3, 3, 3], None), ([3, 2, 2], None),
    ([2, 1, 1], {2: 0}), ([3, 2, 1], {2: 0}), ([3, 1, 1], {2: 0}),
]
GRID_MAPS = [(a, b) for a in range(1, 4) for b in range(a, 4)]


class PullbackGrid:
    """Each round is the full grid with one fresh seed per cluster, so the
    first map of a cluster certifies a new curve pair (a curves-cache
    miss) and the other five reuse it: 90 hits in 108 calls per round."""

    period = 1
    ops_per_round = 108
    round_s = 4.1       # nominal seconds per round (calib.py)

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.clusters = []
        for weights, sats in GRID_CLUSTERS:
            if len(weights) == 1:
                self.clusters.append(E.single_point(weights[0]))
            else:
                self.clusters.append(E.chain_cluster(weights, satellites=sats))
        self.used = [set() for _ in self.clusters]

    def _fresh_seed(self, ci):
        while True:
            s = self.rng.randrange(1 << 30)
            if s not in self.used[ci]:
                self.used[ci].add(s)
                return s

    def round(self, r):
        ops = []
        for ci, k in enumerate(self.clusters):
            s = self._fresh_seed(ci)
            for a, b in GRID_MAPS:
                label = (f"pullback_cluster(monomial_map({a}, {b}), "
                         f"{GRID_CLUSTERS[ci]}, seed={s})")
                ops.append(Op(label, _pullback_call(a, b, k, s),
                              _pullback_check(a, b, k)))
        return ops


def _pullback_call(a, b, k, s):
    return lambda: E.pullback_cluster(E.monomial_map(a, b), k, s)


def _pullback_check(a, b, k):
    return lambda pb: pullback_laws(a, b, k, cluster_square(pb),
                                    cluster_size(pb))


def pullback_laws(a, b, k, pb_square, pb_size):
    """(f*K)^2 = deg K^2 and |f*K| <= deg |K|, strict when mult(f) > 1,
    for the monomial map (x^a, y^b) of degree a*b."""
    deg = a * b
    if pb_square != deg * cluster_square(k):
        return f"(f*K)^2 = {pb_square} != deg*K^2 = {deg * cluster_square(k)}"
    bound = deg * cluster_size(k)
    if min(a, b) > 1 and not pb_size < bound:
        return f"|f*K| = {pb_size} not < deg*|K| = {bound}"
    if pb_size > bound:
        return f"|f*K| = {pb_size} > deg*|K| = {bound}"
    return None


# ---------------------------------------------------------------------------
# tower-germs: germs and map germs over Q(s), s^2 = d
# ---------------------------------------------------------------------------

# Fixed up front and never re-drawn: the moduli, the coefficient range and
# the templates (total degree <= 7).  Germs of degree 9 and 10 reach a cost
# cliff in the tower poly_gcd (up to minutes for one germ), so the degree
# cap is what keeps every run inside its time limit.
TOWER_D = (2, 3, 5, 7)
TOWER_E = (2, 3, 5, 6, 7, 10, 11)
COEF_A = range(-3, 4)
COEF_B = range(-2, 3)
CUSP_GAMMA = (-3, -2, -1, 1, 2, 3)


class TowerGerms:
    """Tangent cones are products of y^2 - e x^2 with e = d (the adjoined
    depth-2 modulus then factors, so dynamic evaluation may split it) or
    e != d (a genuine depth-2 extension)."""

    period = 2 * len(TOWER_D)   # one pass of the (d, e = d) cycle
    ops_per_round = 7
    round_s = 0.33

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.towers = shuffled_cycle(
            self.rng, itertools.product(TOWER_D, (True, False)))
        pairs = [(a, b) for a in COEF_A for b in COEF_B if a or b]
        self.coefs = {role: shuffled_cycle(self.rng, pairs)
                      for role in ("alpha", "beta", "c1", "c2")}
        self.gammas = shuffled_cycle(self.rng, CUSP_GAMMA)

    def _coef(self, role):
        a, b = next(self.coefs[role])
        return F.ptrim(E.QQ, (Fraction(a), Fraction(b)))

    def round(self, r):
        rng = self.rng
        d, splits = next(self.towers)
        tw = E.QQ.extend("s", (Fraction(-d), Fraction(0), Fraction(1)))
        x = E.BiPoly.variable("x", tw)
        y = E.BiPoly.variable("y", tw)

        def K(elem):
            return E.BiPoly(tw, {(0, 0): elem})

        def q(n):
            return K(F.from_rational(tw, n))

        S = K(F.generator(tw))
        e = d if splits else rng.choice([e for e in TOWER_E if e != d])
        al, be = self._coef("alpha"), self._coef("beta")
        while be == al:
            be = self._coef("beta")
        gam = next(self.gammas)
        c1, c2 = self._coef("c1"), self._coef("c2")
        quad_a = y ** 2 - q(e) * x ** 2 - K(al) * x ** 3
        quad_b = y ** 2 - q(e) * x ** 2 - K(be) * x ** 3
        line = y - K(c1) * x - K(c2) * x ** 2
        tag = (f"d={d} e={e} alpha={_el(al)} beta={_el(be)} gamma={gam} "
               f"c1={_el(c1)} c2={_el(c2)}")
        germs = [
            ("mult_cluster(Q_alpha*Q_beta)", quad_a * quad_b),
            ("mult_cluster((y^2-e x^2)^2 + x^5(y-gamma s x) + y^7)",
             (y ** 2 - q(e) * x ** 2) ** 2
             + x ** 5 * (y - q(gam) * S * x) + y ** 7),
            ("mult_cluster(L*Q_alpha)", line * quad_a),
        ]
        pairs = [("Q_alpha, Q_beta", quad_a, quad_b),
                 ("L, Q_beta", line, quad_b)]
        ops = [Op(f"{name} {tag}", _mc_call(p), _mc_check)
               for name, p in germs]
        for name, a, b in pairs:
            ops.append(Op(f"intersection_multiplicity({name}) {tag}",
                          _im_call(a, b), _im_check))
        for name, a, b in pairs:
            ops.append(Op(f"local_degree+base_points({name}) {tag}",
                          _map_call(a, b), _map_check(a, b)))
        return ops


def _el(c):
    """a + b s as text."""
    a, b = (tuple(c) + (0, 0))[:2]
    return f"{a}{'+' if b >= 0 else '-'}{abs(b)}s"


def _mc_call(p):
    return lambda: E.mult_cluster(E.Germ(p))


def _mc_check(k):
    if not E.is_consistent(k):
        return f"mult_cluster is not consistent: {k!r}"
    return None


def _im_call(a, b):
    def call():
        ga, gb = E.Germ(a), E.Germ(b)
        im = E.intersection_multiplicity(ga, gb)
        ka, kb = E.shared_cluster(ga, gb)
        return im, E.noether_intersection(ka, kb)
    return call


def _im_check(out):
    im, noether = out
    if im != noether:
        return f"resultant order {im} != Noether sum {noether}"
    return None


def _map_call(a, b):
    def call():
        f = E.LocalMap.from_polys(a, b)
        return E.local_degree(f), E.base_points(f)
    return call


def _map_check(a, b):
    def check(out):
        deg, bp = out
        im = E.intersection_multiplicity(E.Germ(a), E.Germ(b))
        if deg != im:
            return f"local_degree {deg} != intersection_multiplicity {im}"
        if cluster_square(bp) != deg:
            return f"sum of nu^2 over base points {cluster_square(bp)} != {deg}"
        return None
    return check


# ---------------------------------------------------------------------------
# cli-families: in-process invocations of the README commands
# ---------------------------------------------------------------------------

# consistent clusters only: curves_through needs them
CLI_CHAINS = (([2, 1], None), ([2, 2], None), ([3, 1], None),
              ([3, 2, 1], None), ([3, 3, 1], None), ([3, 2, 1], {2: 0}),
              ([2, 1, 1], {2: 0}))


def theorem_b(k):
    return Fraction(-225, 67) * Fraction(201 * k * k, 198 * k * k + 3)


def fermat_h(k):
    return Fraction(-3 * k * k, k * k + 3)


def klein_h_bound(k):
    return Fraction(-(1283 * 9 ** k - 81), 410 * 9 ** k)


def config_h(cfg):
    """h(C) of a configuration JSON, from the JSON alone."""
    sq = n = 0
    for s in cfg["sing"]:
        ws = [nd["mult"] for nd in s["cluster"]["nodes"]]
        orb = [nd.get("orbit", 1) for nd in s["cluster"]["nodes"]]
        sq += s["count"] * sum(o * w * w for o, w in zip(orb, ws))
        n += s["count"] * sum(orb)
    return Fraction(cfg["degree"] ** 2 - sq, n)


def _point_config(degree, lines, points):
    sing = [{"cluster": {"nodes": [{"id": "p", "parent": None,
                                    "second_proximity": None, "orbit": 1,
                                    "mult": m}]},
             "count": c, "placement": pl} for m, c, pl in points]
    return {"degree": degree, "components": [{"deg": 1, "count": lines}],
            "sing": sing, "smooth_vertex_marks": 0}


class CliFamilies:
    """One round invokes every README command once, in-process, on input
    files written before the round.  Every pullback-bearing command gets
    a seed never used before in the process, so its curves-cache key is
    new, as it would be in a separate CLI process."""

    period = 12     # one pass of the --k and --kmax cycles (3, 4 and 3)
    ops_per_round = 18
    round_s = 0.285

    def __init__(self, seed, workdir):
        from click.testing import CliRunner
        from enriques.cli import main
        self.rng = random.Random(seed)
        self.main = main
        self.runner = CliRunner()
        self.dir = workdir
        self.fresh = itertools.count(self.rng.randrange(1 << 20) * 1000 + 1)
        rng = self.rng
        self.chains = shuffled_cycle(rng, CLI_CHAINS)
        self.maps = shuffled_cycle(rng, itertools.product((1, 2, 3), repeat=2))
        self.kummer_k = shuffled_cycle(rng, (2, 3, 4))
        self.theorem_b_kmax = shuffled_cycle(rng, (3, 4, 5, 6))
        self.klein_kmax = shuffled_cycle(rng, (8, 9, 10))

    def _write(self, name, data):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def _invoke(self, args):
        return lambda: self.runner.invoke(self.main, args)

    def round(self, r):
        rng = self.rng
        w, sats = next(self.chains)
        k = E.chain_cluster(w, satellites=sats)
        nodes, weights = _cluster_nodes(k)
        kfile = self._write(f"k{r}.json", E.cluster_to_json(k))
        a, b = next(self.maps)
        c1, c2 = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        x, y = E.BiPoly.variable("x"), E.BiPoly.variable("y")
        # distinct tangent cones x^a and y^b: the local degree is a*b
        mapfile = self._write(f"m{r}.json", {
            "f1": F.poly_to_json(x ** a + c1 * y ** (a + 1)),
            "f2": F.poly_to_json(y ** b + c2 * x ** (b + 1))})
        mono = self._write(f"mono{r}.json", {
            "f1": F.poly_to_json(x ** a), "f2": F.poly_to_json(y ** b)})
        germ_p = (y ** 2 - x ** (2 * c1 + 1)) * (y - c2 * x) * (x - y ** 2)
        germfile = self._write(f"g{r}.json", F.poly_to_json(germ_p))
        kf = rng.randint(2, 12)
        kk = next(self.kummer_k)
        k0 = rng.randint(2, 5)
        triangle = self._write(f"tri{r}.json", _point_config(
            3, 3, [(3, 1, "generic")]) | {"smooth_vertex_marks": 3})
        fermat = self._write(f"fermat{r}.json", _point_config(
            3 * k0, 3 * k0, [(3, k0 * k0, "generic"), (k0, 3, "vertex")]))
        wiman3 = self._write(f"wiman{r}.json", _point_config(
            45, 45, [(3, 117, "generic"), (3, 3, "vertex"),
                     (4, 45, "generic"), (5, 36, "generic")]))
        c2self = rng.randint(10, 400)
        kmax_b = next(self.theorem_b_kmax)
        kmax_k = next(self.klein_kmax)
        kmax_h = rng.randint(5, 40)
        gen_h = rng.choice(("wiman", "klein", "klein-polars"))
        J = ["--format", "json"]
        cmds = [
            (["gen", "fermat", "--k", str(kf)] + J, _rows_h(fermat_h(kf))),
            (["gen", "wiman"] + J, _rows_h(Fraction(-225, 67), points=201)),
            (["gen", "klein"] + J, _rows_h(Fraction(-3))),
            (["gen", "klein-polars"] + J, _rows_h(Fraction(-71, 23))),
            (["gen", "triangle"] + J, _rows_h(Fraction(0))),
            (["sweep", "theorem-b", "--kmax", str(kmax_b),
              "--seed", str(next(self.fresh))] + J, _theorem_b_rows(kmax_b)),
            (["sweep", "klein-bound", "--kmax", str(kmax_k)] + J,
             _klein_rows(kmax_k)),
            (["sweep", "h-bound", "--gen", gen_h, "--kmax", str(kmax_h)] + J,
             _h_bound_rows(gen_h, kmax_h)),
            (["cluster", "check", kfile] + J, _check_rows(nodes, weights)),
            (["cluster", "hc", kfile, "--c2", str(c2self)] + J,
             _one_value("H", Fraction(c2self - cluster_square(k),
                                      cluster_size(k)))),
            (["cluster", "codim", kfile] + J, _one_value(
                "codim", sum(Fraction(v * (v + 1), 2) for v in w))),
            (["germ", "mult-cluster", germfile] + J, _consistent_cluster),
            (["map", "bp", mapfile] + J, _cluster_square_is(a * b)),
            (["map", "degree", mapfile] + J, _one_value("degree", a * b)),
            (["map", "pullback", mono, kfile, "--seed",
              str(next(self.fresh))] + J, _pullback_json(a, b, k)),
            (["config", "h-index", fermat] + J,
             _one_value("h", fermat_h(k0))),
            (["config", "kummer", triangle, "--k", str(kk), "--seed",
              str(next(self.fresh))], _kummer_json(fermat_h(kk))),
            (["config", "verify-pullback", wiman3, "--k", str(kk),
              "--seed", str(next(self.fresh))] + J,
             _verify_rows(theorem_b(kk))),
        ]
        return [Op("enriques " + " ".join(args), self._invoke(args),
                   _cli_check(check)) for args, check in cmds]


def _cli_check(check):
    def wrapped(res):
        if res.exit_code != 0:
            return (f"exit code {res.exit_code}: "
                    f"{(res.output or '').strip()[-200:]!r} {res.exception!r}")
        try:
            data = json.loads(res.output)
        except ValueError:
            return f"output is not JSON: {res.output[:200]!r}"
        return check(data)
    return wrapped


def _rows_h(h, points=None):
    def check(rows):
        if Fraction(rows[0]["h"]) != h:
            return f"h = {rows[0]['h']} != {h}"
        if points is not None and rows[0]["points"] != points:
            return f"points = {rows[0]['points']} != {points}"
        return None
    return check


def _one_value(col, value):
    def check(rows):
        if Fraction(rows[0][col]) != value:
            return f"{col} = {rows[0][col]} != {value}"
        return None
    return check


def _theorem_b_rows(kmax):
    def check(rows):
        got = [(r["k"], Fraction(r["h"])) for r in rows]
        want = [(k, theorem_b(k)) for k in range(2, kmax + 1)]
        return None if got == want else f"theorem-b rows {got} != {want}"
    return check


def _klein_rows(kmax):
    def check(rows):
        if [r["k"] for r in rows] != list(range(2, kmax + 1)):
            return "klein-bound rows do not run k = 2..kmax"
        for r in rows:
            if Fraction(r["h_bound"]) != klein_h_bound(r["k"]):
                return f"h_bound at k={r['k']} is {r['h_bound']}"
            if r["discrepancy"] is not True:
                return f"discrepancy not flagged at k={r['k']}"
        return None
    return check


def _h_bound_rows(gen, kmax):
    h, n = {"wiman": (Fraction(-225, 67), 201), "klein": (Fraction(-3), 49),
            "klein-polars": (Fraction(-71, 23), 483)}[gen]

    def check(rows):
        for r in rows:
            k2n = r["k"] ** 2 * n
            value = (h * k2n - 3 * r["k"] ** 2) / Fraction(k2n + 3)
            if Fraction(r["value"]) != value:
                return f"h-bound value at k={r['k']} is {r['value']}"
            if Fraction(r["limit"]) != h - Fraction(3, n):
                return f"h-bound limit is {r['limit']}"
        return None if len(rows) == kmax - 1 else "h-bound row count"
    return check


def _check_rows(nodes, weights):
    k2 = sum(n["orbit"] * weights[n["id"]] ** 2 for n in nodes)
    consistent = excess_ok(nodes, weights)

    def check(rows):
        r = rows[0]
        if r["K2"] != k2 or r["consistent"] != consistent:
            return f"cluster check {r} != K2 {k2}, consistent {consistent}"
        return None
    return check


def _json_cluster(data):
    nodes = [{"id": n["id"], "parent": n["parent"],
              "second_proximity": n["second_proximity"],
              "orbit": n["orbit"]} for n in data["nodes"]]
    return nodes, {n["id"]: n["mult"] for n in data["nodes"]}


def _consistent_cluster(data):
    nodes, weights = _json_cluster(data)
    if not nodes or not excess_ok(nodes, weights):
        return f"mult-cluster output is empty or not consistent: {data}"
    return None


def _cluster_square_is(value):
    def check(data):
        nodes, weights = _json_cluster(data)
        sq = sum(n["orbit"] * weights[n["id"]] ** 2 for n in nodes)
        return None if sq == value else f"sum of nu^2 {sq} != {value}"
    return check


def _pullback_json(a, b, k):
    def check(data):
        nodes, weights = _json_cluster(data)
        return pullback_laws(
            a, b, k, sum(n["orbit"] * weights[n["id"]] ** 2 for n in nodes),
            sum(n["orbit"] for n in nodes))
    return check


def _kummer_json(h):
    def check(cfg):
        got = config_h(cfg)
        return None if got == h else f"kummer output has h = {got} != {h}"
    return check


def _verify_rows(lhs):
    def check(rows):
        r = rows[0]
        if not (r["holds"] is True and r["strict_expected"] is True
                and Fraction(r["lhs"]) == lhs
                and Fraction(r["rhs"]) == Fraction(-225, 67)):
            return f"verify-pullback row {r}"
        return None
    return check


WORKLOADS = {"pullback-grid": PullbackGrid, "tower-germs": TowerGerms,
             "cli-families": CliFamilies}
