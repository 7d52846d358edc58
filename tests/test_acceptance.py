"""Acceptance gate: the ten headline criteria, one reported line each.

Run with ``pytest -v`` (or ``-s`` to see the PASS lines inline).  Every
comparison is exact rational arithmetic; the stated runtime budgets are
asserted with ``time.monotonic``.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from enriques import (QQ, BiPoly, Germ, base_points,
                      chain_cluster, fermat, h_index,
                      intersection_multiplicity, is_consistent, klein_lines,
                      klein_report, local_degree, map_multiplicity,
                      monomial_map, mult_cluster, noether_intersection,
                      pullback_cluster, pullback_theorem_check,
                      self_intersection, shared_cluster, single_point,
                      strict_gap_demo, triangle, wiman)
from enriques.cli import main
from enriques.clusters import cluster_to_json
from enriques.configs import mult_size, sigma_m2
from enriques.errors import EnriquesError

X = BiPoly.variable("x")
Y = BiPoly.variable("y")
GOLDEN = Path(__file__).parent / "data" / "golden"


def report(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def cli_json(args):
    res = CliRunner().invoke(main, args + ["--format", "json"],
                             catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


def test_criterion_1_fermat_indices():
    t0 = time.monotonic()
    ok = True
    for k in range(2, 11):
        expected = Fraction(-3 * k * k, k * k + 3)
        ok = ok and h_index(fermat(k)) == expected
    rows = cli_json(["gen", "fermat", "--k", "2"])
    ok = ok and rows[0]["h"] == "-12/7"
    spot = {2: Fraction(-12, 7), 3: Fraction(-9, 4), 5: Fraction(-75, 28)}
    ok = ok and all(h_index(fermat(k)) == v for k, v in spot.items())
    elapsed = time.monotonic() - t0
    report(1, f"fermat h = -3k^2/(k^2+3) for k=2..10 ({elapsed:.2f}s)",
           ok and elapsed < 1.0)


def test_criterion_2_wiman_baseline():
    w = wiman()
    ok = h_index(w) == Fraction(-225, 67)
    ok = ok and mult_size(w) == 201
    pair_budget = 120 * 3 + 45 * 6 + 36 * 10
    ok = ok and pair_budget == 990 == 45 * 44 // 2
    report(2, "wiman h = -225/67, |Sing| = 201, pair budget 990", ok)


def test_criterion_3_theorem_b_sweep():
    rows = cli_json(["sweep", "theorem-b", "--kmax", "50"])
    vals = [Fraction(r["h"]) for r in rows]
    ok = len(vals) == 49
    for k, v in zip(range(2, 51), vals):
        expected = Fraction(-225, 67) * Fraction(201 * k * k, 198 * k * k + 3)
        ok = ok and v == expected
    ok = ok and all(b < a for a, b in zip(vals, vals[1:]))
    ok = ok and all(v > Fraction(-25, 7) for v in vals)
    report(3, "theorem-b sweep exact, decreasing, bounded by -25/7", ok)


@pytest.mark.xfail(strict=True, reason=(
    "unattainable sub-condition: the family -(225/67)*(201k^2)/(198k^2+3) "
    "has exact limit -(225*201)/(67*198) = -75/22 ~ -3.409, not -25/7 ~ "
    "-3.571 as claimed; the printed reduction of that product to 25/7 is an "
    "arithmetic slip, so no member of the family is below -3.570"))
def test_criterion_3_k50_below_3_570():
    from enriques import theorem_b_family
    v50 = theorem_b_family(50)
    assert v50 == Fraction(-225, 67) * Fraction(201 * 2500, 198 * 2500 + 3)
    report(3, "k = 50 value below -3.570", v50 < Fraction(-3570, 1000))


def test_criterion_4_klein_bound_sweep():
    rows = cli_json(["sweep", "klein-bound", "--kmax", "8"])
    ok = len(rows) == 7
    for k, r in zip(range(2, 9), rows):
        expected = Fraction(-(1283 * 9 ** k - 81), 410 * 9 ** k)
        ok = ok and Fraction(r["h_bound"]) == expected
        # the printed closed forms disagree with the recursion; the flag
        # must be raised, and raising it is itself part of the criterion
        ok = ok and r["discrepancy"] is True
    rep = klein_report(2)
    ok = ok and rep["K2_recursion"] == 49182 and rep["K2_closed_form"] == 39816
    report(4, "klein-bound sweep matches corollary; discrepancy flagged", ok)


def test_criterion_5_klein_local_structure():
    from enriques import klein_S_cluster
    ok = True
    for k in range(2, 11):
        c = klein_S_cluster(k)
        ok = ok and c.size() == 2 * 3 ** (k - 2)
        ok = ok and 42 * self_intersection(c) == 588 * 3 ** (k - 2) - 42
    report(5, "S_{p,k} sizes and sum of squares closed forms, k=2..10", ok)


def test_criterion_6_local_engine_oracles():
    t0 = time.monotonic()
    ok = True
    for a in range(1, 5):
        for b in range(a, 5):
            f = monomial_map(a, b)
            k = base_points(f)
            ok = ok and local_degree(f) == a * b
            # with F empty the degree identity collapses to sum of nu^2
            ok = ok and self_intersection(k) == a * b
    k12 = base_points(monomial_map(1, 2))
    ok = ok and [k12.weights[n.id] for n in k12.forest.nodes] == [1, 1]
    ok = ok and all(n.second_proximity is None for n in k12.forest.nodes)
    k23 = base_points(monomial_map(2, 3))
    ok = ok and [k23.weights[n.id] for n in k23.forest.nodes] == [2, 1, 1]
    nodes = k23.forest.nodes
    ok = ok and nodes[2].second_proximity == nodes[0].id
    elapsed = time.monotonic() - t0
    report(6, f"monomial base points and degrees ({elapsed:.2f}s)",
           ok and elapsed < 5.0)


def test_criterion_7_pullback_laws():
    t0 = time.monotonic()
    clusters = [
        single_point(1), single_point(2), single_point(3),
        chain_cluster([1, 1]), chain_cluster([2, 1]), chain_cluster([2, 2]),
        chain_cluster([3, 1]), chain_cluster([3, 2]), chain_cluster([3, 3]),
        chain_cluster([1, 1, 1]), chain_cluster([2, 1, 1]),
        chain_cluster([2, 2, 2]), chain_cluster([3, 2, 1]),
        chain_cluster([3, 3, 3]), chain_cluster([3, 2, 2]),
        chain_cluster([2, 1, 1], satellites={2: 0}),
        chain_cluster([3, 2, 1], satellites={2: 0}),
        chain_cluster([3, 1, 1], satellites={2: 0}),
    ]
    maps = [(a, b) for a in range(1, 4) for b in range(a, 4)]
    # f*(K) of every case: it must not depend on how curves_through
    # certifies its pair of curves
    golden = (GOLDEN / "pullback-grid-seed0.jsonl").read_text().splitlines()
    cases = 0
    ok = True
    for k in clusters:
        for a, b in maps:
            f = monomial_map(a, b)
            pb = pullback_cluster(f, k, 0)
            ok = ok and (json.dumps(cluster_to_json(pb), sort_keys=True)
                         == golden[cases])
            deg = local_degree(f)
            ok = ok and self_intersection(pb) == deg * self_intersection(k)
            if map_multiplicity(f) > 1:
                ok = ok and pb.size() < deg * k.size()
            else:
                ok = ok and pb.size() <= deg * k.size()
            cases += 1
    elapsed = time.monotonic() - t0
    report(7, f"(f*K)^2 = deg*K^2, |f*K| <= deg|K| and golden f*K on "
              f"{cases} cases ({elapsed:.1f}s)",
           ok and cases == len(golden) and elapsed < 60.0)


def test_criterion_8_pullback_h_instances():
    ok = True
    # triangle -> Fermat: generic placement, no ramified cluster point
    for k in (2, 3):
        lhs, rhs, strict = pullback_theorem_check(triangle(), k)
        ok = ok and lhs <= rhs and not strict
    # Wiman -> Theorem B: three triple points at the vertices, strict drop
    lhs, rhs, strict = pullback_theorem_check(wiman(vertex_triples=3), 2)
    ok = ok and strict and lhs < rhs == Fraction(-225, 67)
    # strict-gap demonstrations: new_h < old_h exactly
    for cfg, k, variant in ((fermat(2), 3, "smooth"), (wiman(), 2, "vertex"),
                            (klein_lines(), 4, "smooth")):
        _, old_h, new_h = strict_gap_demo(cfg, k, variant)
        ok = ok and new_h < old_h
    report(8, "H(f*C, f*K) <= H(C, K), strict over vertex placements", ok)


def _random_poly(rng, deg, min_ord):
    while True:
        terms = {}
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                if i + j < min_ord:
                    continue
                if rng.random() < 0.45:
                    c = rng.randint(-4, 4)
                    if c:
                        terms[(i, j)] = Fraction(c)
        if terms:
            p = BiPoly(QQ, terms)
            if p.order() >= min_ord:
                return p


def test_criterion_9_noether_cross_check():
    t0 = time.monotonic()
    rng = random.Random(9)
    done = 0
    tries = 0
    singular = 0
    ok = True
    while done < 60 and tries < 4000:
        tries += 1
        mo = rng.choice([1, 2, 2])
        a = _random_poly(rng, rng.randint(max(2, mo), 4), mo)
        b = _random_poly(rng, rng.randint(max(2, mo), 4), rng.choice([1, 2]))
        try:
            ga, gb = Germ(a), Germ(b)
            im = intersection_multiplicity(ga, gb)
            if im == float("inf"):
                continue
            ka, kb = shared_cluster(ga, gb)
        except EnriquesError:
            continue
        ok = ok and im == noether_intersection(ka, kb)
        if im > 1:
            singular += 1
        done += 1
    elapsed = time.monotonic() - t0
    report(9, f"resultant order = sum(nu*mu) on {done} pairs "
              f"({singular} singular, {elapsed:.1f}s)",
           ok and done >= 50 and elapsed < 60.0)


def test_criterion_10_consistency_property():
    t0 = time.monotonic()
    rng = random.Random(10)
    done = 0
    tries = 0
    ok = True
    while done < 110 and tries < 4000:
        tries += 1
        mo = rng.choice([1, 2, 2, 3])
        p = _random_poly(rng, rng.randint(max(2, mo), 5), mo)
        try:
            k = mult_cluster(Germ(p))
        except EnriquesError:
            continue
        ok = ok and is_consistent(k)
        done += 1
    elapsed = time.monotonic() - t0
    report(10, f"mult_cluster consistent on {done} germs "
               f"({elapsed:.1f}s)", ok and done >= 100 and elapsed < 120.0)
