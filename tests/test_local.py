"""Blowups, multiplicity clusters, base points and pullbacks."""

import contextlib
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriques import (QQ, BiPoly, BudgetExceeded, ContractedCurvePresent,
                      EnriquesError, Germ, HypothesisViolated, LocalMap,
                      ModulusSplit, Node, NonReducedGerm, RetryBudgetExceeded,
                      WeightedMultiCluster, base_points, chain_cluster,
                      curves_through, fixed_part,
                      intersection_multiplicity, is_consistent, local_degree,
                      map_multiplicity, monomial_map, mult_cluster,
                      noether_intersection, pullback_cluster,
                      self_intersection, shared_cluster, single_point,
                      virtual_codimension)
from enriques import field, localeng
from enriques.clusters import cluster_from_json, cluster_to_json
from enriques.field import (from_rational, generator, poly_to_json, ptrim,
                            qscale)

X = BiPoly.variable("x")
Y = BiPoly.variable("y")
GOLDEN = Path(__file__).parent / "data" / "golden"


def weight_list(k):
    """Weights in canonical (depth-first, ancestor-first) order."""
    return [k.weights[n.id] for n in k.forest.nodes]


def satellite_count(k):
    return sum(1 for n in k.forest.nodes if n.second_proximity is not None)


# the 18 clusters of the pullback grid: weights and satellites
GRID = [([1], None), ([2], None), ([3], None),
        ([1, 1], None), ([2, 1], None), ([2, 2], None),
        ([3, 1], None), ([3, 2], None), ([3, 3], None),
        ([1, 1, 1], None), ([2, 1, 1], None), ([2, 2, 2], None),
        ([3, 2, 1], None), ([3, 3, 3], None), ([3, 2, 2], None),
        ([2, 1, 1], {2: 0}), ([3, 2, 1], {2: 0}), ([3, 1, 1], {2: 0})]

# the clusters whose drawn pairs are pinned: the grid and two deeper chains
PINNED = GRID + [([5, 4, 3, 2, 1], None), ([3, 3, 1], None)]

# chains whose last point is satellite at direction 0 of its chart (the
# grid's satellites all sit at direction infinity), with the directions
# of _cluster_conditions, the least and top degrees of the ladder and K^2
DIRECTION_ZERO = [
    (([3, 2, 1, 1], {2: 0, 3: 1}), {"q2": 1, "q3": "inf", "q4": 0},
     5, 8, 15),
    (([3, 3, 2, 1, 1], {3: 1, 4: 2}),
     {"q2": 1, "q3": 1, "q4": "inf", "q5": 0}, 6, 11, 24),
]


def grid_cluster(weights, sats):
    return (single_point(weights[0]) if len(weights) == 1
            else chain_cluster(weights, satellites=sats))


class TestGermMult:
    def test_cusp(self):
        assert Germ(X ** 2 + Y ** 3).order() == 2

    def test_three_lines(self):
        assert Germ((X - Y) * Y * X).order() == 3

    def test_smooth(self):
        assert Germ(Y + X ** 2).order() == 1

    def test_nonvanishing_rejected(self):
        with pytest.raises(ValueError):
            Germ(X + 1)


def strict_transform(p, c=Fraction(0)):
    """The chart (x, x(y + c)) of the germ p over Q, divided by x^ord p."""
    return localeng._chart_int(field.int_poly(QQ, p.terms)[0], p.order(), c)


class TestStrictTransform:
    def test_cusp_resolves_in_one_step(self):
        assert strict_transform(Y ** 2 - X ** 3) == Y ** 2 - X

    def test_node_separates(self):
        assert strict_transform(X * Y).order() == 1

    def test_smooth_stays_smooth(self):
        assert strict_transform(Y + X ** 2) == Y + X

    def test_vertical_chart(self):
        p = field.int_poly(QQ, (X ** 2 - Y ** 3).terms)[0]
        assert localeng._relabel(p, 2, "y") == X ** 2 - Y

    def test_direction_shift(self):
        # branch along y = x: after moving the direction to the origin the
        # transform picks up the shifted tangent
        assert strict_transform(Y - X, Fraction(1)) == Y


class TestMultCluster:
    def test_node(self):
        k = mult_cluster(Germ(X * Y))
        assert weight_list(k) == [2]

    def test_tacnode(self):
        k = mult_cluster(Germ((Y - X ** 2) * (Y + X ** 2)))
        assert weight_list(k) == [2, 2]
        assert satellite_count(k) == 0

    def test_ordinary_triple(self):
        k = mult_cluster(Germ(X * Y * (X + Y)))
        assert weight_list(k) == [3]

    def test_cusp(self):
        k = mult_cluster(Germ(Y ** 2 - X ** 3))
        assert weight_list(k) == [2]

    def test_ramphoid_like(self):
        # (y - x^2)(y + x^2)(y - 2x^2): three branches with pairwise contact 2
        k = mult_cluster(Germ((Y - X ** 2) * (Y + X ** 2) * (Y - 2 * X ** 2)))
        assert weight_list(k) == [3, 3]

    def test_smooth_is_empty(self):
        k = mult_cluster(Germ(Y - X ** 5))
        assert weight_list(k) == []

    def test_non_reduced_rejected(self):
        with pytest.raises(NonReducedGerm):
            mult_cluster(Germ(X ** 2))

    def test_repeated_unit_factor_is_ignored(self):
        # (1 + x)^2 and (1 + x + y)^2 are units at the origin
        assert weight_list(mult_cluster(Germ(Y * (1 + X) ** 2))) == []
        k = mult_cluster(Germ((Y ** 2 - X ** 3) * (1 + X + Y) ** 2))
        assert k.weights == {"q001": 2}

    def test_repeated_factor_through_the_origin_rejected(self):
        with pytest.raises(NonReducedGerm):
            mult_cluster(Germ(X ** 2 * (Y - X ** 3) * (1 + Y) ** 2))

    def test_irrational_tangents_share_an_orbit(self):
        k = mult_cluster(Germ((Y ** 2 - 2 * X ** 2) * X))
        assert weight_list(k) == [3]

    def test_tower_germ_with_repeated_x_factor(self):
        # this germ spent most of a minute in a primitive PRS of poly_gcd
        tw = QQ.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))
        s = BiPoly(tw, {(0, 0): generator(tw)})
        x = BiPoly.variable("x", tw)
        y = BiPoly.variable("y", tw)
        p = (-2 * x ** 4 * y ** 5 - 3 * x ** 9 + s * x ** 7 * y
             - 3 * x ** 6 * y + 4 * x ** 5 * y ** 7 + 6 * x ** 10 * y ** 2
             - 2 * s * x ** 8 * y ** 3 + 6 * x ** 7 * y ** 3
             - 2 * s * x ** 6 * y ** 5 - 3 * s * x ** 11 + 2 * x ** 9 * y
             - 3 * s * x ** 8 * y)
        assert localeng._repeated_part(p).total_degree() > 0

    def test_tower_germ_with_squared_factor_in_y(self):
        # x h^2 a: a primitive PRS in (K[x])[y] took over 90 s on it
        tw = QQ.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))
        s = BiPoly(tw, {(0, 0): generator(tw)})
        x = BiPoly.variable("x", tw)
        y = BiPoly.variable("y", tw)
        h = s * x * y ** 2 + 2 * s * x ** 2 * y - (1 + s) * (x ** 3 + x * y) + 3
        a = ((1 - s) * y ** 4 - (1 + 2 * s) * x * y ** 3 + (s - 1) * x ** 4
             + (1 - 2 * s) * x ** 2 * y + 2 * s * x ** 3 + (3 + 2 * s) * x ** 2
             + (s - 3) * x)
        start = time.perf_counter()
        assert localeng._repeated_part(x * h * h * a).total_degree() > 0
        assert time.perf_counter() - start < 20

    def test_tower_germ_with_squared_unit_factor(self):
        # h of the test above has constant term 3, so x h^2 a is reduced at
        # the origin and has the cluster of x a; x^2 a is not reduced there
        tw = QQ.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))
        s = BiPoly(tw, {(0, 0): generator(tw)})
        x = BiPoly.variable("x", tw)
        y = BiPoly.variable("y", tw)
        h = s * x * y ** 2 + 2 * s * x ** 2 * y - (1 + s) * (x ** 3 + x * y) + 3
        a = ((1 - s) * y ** 4 - (1 + 2 * s) * x * y ** 3 + (s - 1) * x ** 4
             + (1 - 2 * s) * x ** 2 * y + 2 * s * x ** 3 + (3 + 2 * s) * x ** 2
             + (s - 3) * x)
        k = mult_cluster(Germ(x * a))
        assert sorted(k.weights.values()) == [2, 2, 2, 2]
        assert cluster_to_json(mult_cluster(Germ(x * h * h * a))) == (
            cluster_to_json(k))
        with pytest.raises(NonReducedGerm):
            mult_cluster(Germ(x * x * a))

    def test_always_consistent(self):
        for p in (X * Y, Y ** 2 - X ** 3, Y ** 2 - X ** 5,
                  (Y - X ** 2) * (Y + X ** 3), X ** 3 - Y ** 4,
                  (Y ** 2 - X ** 3) * (Y + X)):
            assert is_consistent(mult_cluster(Germ(p)))


class TestMapBasics:
    def test_map_multiplicity(self):
        assert map_multiplicity(monomial_map(2, 3)) == 2
        assert map_multiplicity(monomial_map(1, 2)) == 1

    def test_multiplicity_splits_over_fixed_part(self):
        d = X + Y
        f = LocalMap.from_polys(X * d, Y * d)
        assert map_multiplicity(f) == 2
        fp, reduced = fixed_part(f.f1.poly, f.f2.poly)
        assert fp.poly.order() == 1
        assert map_multiplicity(f) == 1 + fp.poly.order()

    def test_fixed_part_monomials(self):
        fp, reduced = fixed_part(X ** 2, X * Y)
        assert fp.poly == X
        assert reduced == (X, Y)

    def test_fixed_part_empty(self):
        f = monomial_map(2, 2)
        fp, reduced = fixed_part(f.f1.poly, f.f2.poly)
        assert fp is None
        assert reduced == (f.f1.poly, f.f2.poly)

    def test_fixed_part_xy(self):
        fp, reduced = fixed_part(X ** 2 * Y, X * Y ** 2)
        assert fp.poly == X * Y
        assert reduced == (X, Y)


class TestBasePoints:
    def test_smooth_pencil(self):
        k = base_points(monomial_map(1, 1))
        assert weight_list(k) == [1]

    def test_tangent_pencil(self):
        k = base_points(monomial_map(1, 2))
        assert weight_list(k) == [1, 1]
        assert satellite_count(k) == 0

    def test_cusp_pencil(self):
        k = base_points(monomial_map(2, 3))
        assert weight_list(k) == [2, 1, 1]
        assert satellite_count(k) == 1
        # the satellite is the last point, proximate to the root
        nodes = k.forest.nodes
        assert nodes[2].second_proximity == nodes[0].id
        assert self_intersection(k) == 6

    def test_unit_quotient(self):
        # the fixed part x leaves y and 1 + y: no base point, degree 0
        f = LocalMap.from_polys(X * Y, X * (1 + Y))
        assert base_points(f).forest.nodes == ()
        assert local_degree(f) == 0

    def test_consistency(self):
        for a, b in ((1, 1), (1, 4), (2, 2), (2, 3), (3, 4), (4, 4)):
            assert is_consistent(base_points(monomial_map(a, b)))


class TestLocalDegree:
    def test_monomial_grid(self):
        for a in range(1, 5):
            for b in range(a, 5):
                assert local_degree(monomial_map(a, b)) == a * b

    def test_kummer_line_germ(self):
        for k in range(2, 5):
            assert local_degree(monomial_map(k, 1)) == k

    def test_composition_multiplicative(self):
        for (a, b), (c, d) in (((2, 3), (2, 2)), ((1, 2), (3, 3)),
                               ((2, 2), (2, 3))):
            lhs = local_degree(monomial_map(a * c, b * d))
            assert lhs == (local_degree(monomial_map(a, b))
                           * local_degree(monomial_map(c, d)))


class TestIntersectionMultiplicity:
    def test_two_parabolas(self):
        assert intersection_multiplicity(Germ(Y - X ** 2), Germ(Y + X ** 2)) == 2

    def test_transverse_lines(self):
        assert intersection_multiplicity(Germ(X), Germ(Y)) == 1

    def test_common_component(self):
        assert intersection_multiplicity(Germ(X), Germ(X)) == float("inf")
        p, q = Y - X ** 2, Y ** 2 - X ** 3
        assert intersection_multiplicity(Germ(p * q), Germ(p)) == float("inf")

    def test_cusp_against_lines(self):
        cusp = Germ(Y ** 2 - X ** 3)
        assert intersection_multiplicity(cusp, Germ(X)) == 2
        assert intersection_multiplicity(cusp, Germ(Y)) == 3

    def test_shear_budget(self, monkeypatch):
        # (d_a + 1)(d_b + 1) shears, then a typed error
        shears = []
        monkeypatch.setattr(localeng, "_try_resultant_order",
                            lambda tw, qa, qb: shears.append(qa))
        with pytest.raises(RetryBudgetExceeded, match="first 12$"):
            intersection_multiplicity(Germ(Y ** 2 - X ** 3), Germ(Y - X ** 2))
        assert len(shears) == 12

    def test_common_factor_off_the_origin(self):
        # 1 + x is divided out before the resultant
        a, b = Germ(Y * (1 + X)), Germ((Y - X ** 2) * (1 + X))
        assert intersection_multiplicity(a, b) == 2
        assert noether_intersection(*shared_cluster(a, b)) == 2

    def test_symmetry(self):
        pairs = [(Y - X ** 2, Y ** 3 - X ** 2), (X * Y, Y ** 2 - X ** 3),
                 (Y ** 2 - 2 * X ** 2, Y ** 2 - 2 * X ** 2 + X ** 3)]
        for p, q in pairs:
            assert (intersection_multiplicity(Germ(p), Germ(q))
                    == intersection_multiplicity(Germ(q), Germ(p)))

    @pytest.mark.parametrize("tower, pair, want, shears", [
        ("QQ", "sheared", 2, 3), ("QQ", "rational", 5, 1),
        ("Q(s)", "sheared", 4, 2), ("Q(s)", "rational", 5, 1)])
    def test_rational_scales(self, monkeypatch, tower, pair, want, shears):
        # the pair is scaled to primitive integer leaves before the shears,
        # so a rational multiple of either germ gives the same order and
        # takes the same shears; the sheared pairs have lc_y = x, which
        # vanishes at x = 0, so u >= 1
        tw = QQ if tower == "QQ" else Q_S
        x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
        s = (BiPoly(tw, {(0, 0): generator(tw)}) if tw.levels
             else BiPoly.const(1, tw))
        a, b = {"sheared": (y ** 2 - 2 * x ** 2 if tw.levels else y - x ** 2,
                            x * y ** 2 + y - s * x ** (1 if tw.levels else 3)),
                "rational": (x * y + y ** 3 - x ** 4,
                             x * y ** 2 - Fraction(1, 2) * x ** 2
                             + s * y ** 3)}[pair]
        tried = []
        orig = localeng._try_resultant_order

        def spy(t, qa, qb):
            tried.append(qa)
            return orig(t, qa, qb)

        monkeypatch.setattr(localeng, "_try_resultant_order", spy)
        for la, lb in [(1, 1), (Fraction(3, 2), 1), (1, -5),
                       (Fraction(3, 2), -5), (-5, Fraction(3, 2))]:
            tried.clear()
            assert intersection_multiplicity(Germ(la * a), Germ(lb * b)) == want
            # the same shears u = 0, ..., shears - 1 are tried
            assert len(tried) == shears
        assert noether_intersection(*shared_cluster(Germ(a), Germ(b))) == want


class TestSharedCluster:
    def test_tangent_conics(self):
        a, b = Germ(Y - X ** 2), Germ(Y + X ** 2)
        ka, kb = shared_cluster(a, b)
        assert noether_intersection(ka, kb) == 2

    def test_irrational_shared_tangents(self):
        a = Germ(Y ** 2 - 2 * X ** 2)
        b = Germ(Y ** 2 - 2 * X ** 2 + X ** 3)
        ka, kb = shared_cluster(a, b)
        got = noether_intersection(ka, kb)
        assert got == intersection_multiplicity(a, b)

    def test_matches_resultant_on_samples(self):
        pairs = [(Y ** 2 - X ** 3, Y ** 2 - X ** 5),
                 (Y ** 3 - 2 * X ** 3, Y ** 3 - 2 * X ** 3 + X ** 4),
                 ((Y - X ** 2) * (Y + X ** 2), Y ** 2 - X ** 5),
                 (X * Y, X + Y ** 2)]
        for p, q in pairs:
            a, b = Germ(p), Germ(q)
            im = intersection_multiplicity(a, b)
            ka, kb = shared_cluster(a, b)
            assert im == noether_intersection(ka, kb)

    def test_shared_component_is_typed(self):
        # x is a component of both germs: not a ValueError but a typed
        # refusal, the rule ``fixed_part`` decides for map germs
        with pytest.raises(HypothesisViolated, match="share a component"):
            shared_cluster(Germ(X * Y), Germ(X * (X + Y)))


def nullspace_oracle(rows, ncols):
    """Gauss-Jordan over Q on ``Fraction``s: the reference basis that
    ``localeng._nullspace``, which eliminates over ZZ, must match."""
    mat = [[r.get(c, 0) for c in range(ncols)] for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                fac = mat[r][col]
                mat[r] = [a - fac * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis


@st.composite
def int_row_sets(draw):
    """Sparse non-negative int rows as ``_cluster_conditions`` builds
    them, with empty and all-zero rows, and some row repeated or scaled,
    so that sets of full rank and rank-deficient sets both occur."""
    ncols = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(0, 12),
                          max_size=ncols)
    rows = draw(st.lists(row, max_size=9))
    if rows and draw(st.booleans()):
        again = draw(st.sampled_from(rows))
        scale = draw(st.integers(1, 4))
        rows.insert(draw(st.integers(0, len(rows))),
                    {c: scale * v for c, v in again.items()})
    return rows, ncols


@st.composite
def consistent_chains(draw):
    """Consistent single-root orbit-1 chains of 1 to 5 points with
    weights 1 to 4.  Point i may be satellite to point i - 2, or to the
    point its parent is satellite to: the two exceptional curves through
    its parent, so every proximity drawn is realizable."""
    n = draw(st.integers(1, 5))
    satellites = {}
    for i in range(2, n):
        choices = [i - 2]
        if i - 1 in satellites:
            choices.append(satellites[i - 1])
        if draw(st.booleans()):
            satellites[i] = draw(st.sampled_from(choices))
    k = chain_cluster(draw(st.lists(st.integers(1, 4), min_size=n,
                                    max_size=n)), satellites)
    assume(is_consistent(k))
    return k


class TestCurvesThrough:
    def test_simple_point(self):
        w, z = curves_through(single_point(1), 0)
        assert intersection_multiplicity(w, z) == 1

    def test_double_point(self):
        k = single_point(2)
        w, z = curves_through(k, 0)
        assert w.order() == 2 and z.order() == 2
        assert intersection_multiplicity(w, z) == 4

    def test_free_chain(self):
        k = chain_cluster([2, 1])
        w, z = curves_through(k, 0)
        assert intersection_multiplicity(w, z) == 5

    def test_satellite_cluster(self):
        k = base_points(monomial_map(2, 3))
        w, z = curves_through(k, 0)
        assert intersection_multiplicity(w, z) == 6

    def test_orbit_rejected(self):
        with pytest.raises(HypothesisViolated):
            curves_through(single_point(2, orbit=2), 0)

    @pytest.mark.parametrize("k, match", [
        (chain_cluster([2, 0]), "weights >= 1"),
        (WeightedMultiCluster([Node("a"), Node("b")], {"a": 1, "b": 1}),
         "single proper point"),
        # c(K) = 30 puts the least degree, 7, above D_top = 4
        (single_point(3, orbit=5), "orbit-1")],
        ids=["zero-weight", "two-points", "orbit-above-ladder"])
    def test_hypotheses_rejected(self, k, match):
        with pytest.raises(HypothesisViolated, match=match):
            curves_through(k, 0)

    def test_deterministic(self):
        a = curves_through(chain_cluster([2, 2]), 3)
        b = curves_through(chain_cluster([2, 2]), 3)
        assert a[0].poly == b[0].poly and a[1].poly == b[1].poly

    def test_cache_evicts_the_oldest_entry(self, monkeypatch):
        cache = {("old", i): None for i in range(1024)}
        monkeypatch.setattr(localeng, "_CURVES_CACHE", cache)
        pair = curves_through(single_point(2), 0)
        assert len(cache) == 1024
        assert ("old", 0) not in cache and ("old", 1) in cache
        assert list(cache.values())[-1] == pair

    @pytest.mark.parametrize("a, b, shared", [
        (([2, 1], None), ([2, 1], None), True),
        (([2, 1], None), ([2, 2], None), False),
        (([2, 1, 1], None), ([2, 1, 1], {2: 0}), False),
    ], ids=["equal", "weights", "satellite"])
    def test_cache_key(self, monkeypatch, a, b, shared):
        # the key is the forest, the weights in node order and the seed:
        # equal clusters built apart share one entry and one draw, and a
        # change of weight or of proximity gets an entry of its own
        runs = []
        draw = localeng._curves_through

        def counted(k, seed):
            runs.append(k)
            return draw(k, seed)

        cache = {}
        monkeypatch.setattr(localeng, "_CURVES_CACHE", cache)
        monkeypatch.setattr(localeng, "_curves_through", counted)
        pa = curves_through(chain_cluster(*a), 0)
        pb = curves_through(chain_cluster(*b), 0)
        assert len(cache) == len(runs) == (1 if shared else 2)
        assert (pa is pb) == shared

    def test_drawn_pairs_are_pinned(self, monkeypatch):
        # the pairs drawn for the 18 clusters of the pullback grid and two
        # deeper chains at seeds 0-7, hashed in that order; the resultant
        # confirms the Noether certificate I_0 = K^2 at seed 0
        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        digest = hashlib.sha256()
        for weights, sats in PINNED:
            k = grid_cluster(weights, sats)
            for seed in range(8):
                w, z = curves_through(k, seed)
                digest.update(json.dumps([poly_to_json(w.poly),
                                          poly_to_json(z.poly)]).encode())
                if seed == 0:
                    assert (intersection_multiplicity(w, z)
                            == self_intersection(k))
        assert digest.hexdigest() == ("84fe7d09803a98d01c3848c643885b65"
                                      "28a35a73815e94102711701e2036c69f")

    def test_top_degree_draws_are_unchanged(self):
        # the pairs drawn at D_top = 1 + sum of the weights are the ones
        # curves_through returned when it drew at D_top only
        digest = hashlib.sha256()
        for weights, sats in PINNED:
            k = grid_cluster(weights, sats)
            for seed in range(8):
                w, z = localeng._curves_at_degree(k, seed,
                                                  localeng._top_degree(k))
                digest.update(json.dumps([poly_to_json(w.poly),
                                          poly_to_json(z.poly)]).encode())
        assert digest.hexdigest() == ("2785073a25af740c418ed7acbc5e340f"
                                      "25ae86365bfee14bc9c23a20c3c11e1e")

    def test_nullspace_is_exact_on_int_rows(self):
        # the condition rows are ints; -1 / 3 is the int -1 over den 3,
        # never a float
        den, basis = localeng._nullspace([{0: 3, 1: 1}], 2)
        assert (den, basis) == (3, [[(0, -1), (1, 3)]])
        assert all(type(v) is int for _, v in basis[0])

    @given(int_row_sets())
    @settings(max_examples=200, deadline=None)
    def test_nullspace_matches_fraction_oracle(self, case):
        # Gauss-Jordan over ZZ and over Q reach the one reduced row echelon
        # form, so the bases are equal entry for entry: sparse nonzero ints
        # in column order over one positive denominator
        rows, ncols = case
        den, basis = localeng._nullspace(rows, ncols)
        assert type(den) is int and den > 0
        for b in basis:
            assert [c for c, _ in b] == sorted({c for c, _ in b})
            assert all(type(v) is int and v != 0 for _, v in b)
        dense = []
        for b in basis:
            v = [Fraction(0)] * ncols
            for c, a in b:
                v[c] = Fraction(a, den)
            dense.append(v)
        assert dense == nullspace_oracle(rows, ncols)

    def test_shared_component_is_rejected(self, monkeypatch):
        # a shared component is never separated: the recursion hits its
        # cap, and the certificate reads that as an infinite I_0
        c = Y - X - 3 * X ** 2
        with pytest.raises(BudgetExceeded):
            localeng._shared_points(c * (Y - 2 * X), c * (Y + X))

        def capped(p, q, cap):
            raise BudgetExceeded("blowup recursion exceeded 64 blowups")

        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        monkeypatch.setattr(localeng, "_shared_points", capped)
        with pytest.raises(RetryBudgetExceeded, match=(
                r"through the cluster: intersection inf != K\^2 = 4")):
            curves_through(single_point(2), 0)

    def test_shared_component_stops_at_k2(self, monkeypatch):
        # every curve of the system contains the line x = 0; the Noether
        # run of each pair stops once its depth exceeds K^2 = 4, so it
        # records K^2 + 1 points on that line, where both multiplicities
        # are >= 1
        conditions = localeng._cluster_conditions

        def through_line(k, D):
            monos, rows, directions = conditions(k, D)
            rows = rows + [{c: 1} for c, (i, _) in enumerate(monos) if i == 0]
            return monos, rows, directions

        blowups = localeng._blowups
        levels = []

        def counted(tw, polys, step, cap=localeng.MAX_DEPTH):
            levels.append(0)

            def wrapped(ps):
                node = step(ps)
                if node is not None and min(node) >= 1:
                    levels[-1] += 1
                return node

            return blowups(tw, polys, wrapped, cap)

        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        monkeypatch.setattr(localeng, "_cluster_conditions", through_line)
        monkeypatch.setattr(localeng, "_blowups", counted)
        with pytest.raises(RetryBudgetExceeded, match=(
                r"through the cluster: intersection inf != K\^2 = 4")):
            curves_through(single_point(2), 0)
        assert levels and max(levels) == 5

    def test_least_degree_pair(self):
        # every grid cluster certifies at its least degree, below D_top
        for weights, sats in GRID:
            k = grid_cluster(weights, sats)
            w, z = localeng._curves_through(k, 0)
            degree = max(w.poly.total_degree(), z.poly.total_degree())
            assert degree == localeng._least_degree(k)
            assert degree < localeng._top_degree(k)

    def test_root_line_bound(self):
        # one degree below nu_O + nu_q, every curve through K contains the
        # line through O in q's direction
        seen = 0
        for weights, sats in GRID:
            k = grid_cluster(weights, sats)
            root = k.forest.roots()[0]
            for q in k.forest.children[root]:
                D = k.weights[root] + k.weights[q] - 1
                monos, rows, directions = localeng._cluster_conditions(k, D)
                den, basis = localeng._nullspace(rows, len(monos))
                for v in basis:
                    p = BiPoly(QQ, {monos[c]: Fraction(a, den)
                                    for c, a in v})
                    assert p.compose(X, directions[q] * X).is_zero()
                    seen += 1
        assert seen > 0

    @given(consistent_chains())
    @settings(max_examples=100, deadline=None)
    def test_conditions_rank_is_virtual_codimension(self, k):
        # the complete ideal of a consistent cluster has colength
        # c(K) = sum nu (nu + 1) / 2, so the curves of degree D_top
        # through K meet exactly c(K) independent conditions
        D = localeng._top_degree(k)
        monos, rows, _ = localeng._cluster_conditions(k, D)
        rank = len(monos) - len(localeng._nullspace(rows, len(monos))[1])
        assert rank == virtual_codimension(k)


class TestConsistencyFirst:
    """A cluster that is not consistent has no curve with its weights, so
    ``curves_through`` refuses it before any curve is drawn."""

    @pytest.mark.parametrize("weights, nid", [
        ([1, 2], "q1"), ([2, 3], "q1"), ([3, 4], "q1"), ([2, 2, 3], "q2")])
    def test_refused_before_any_draw(self, monkeypatch, weights, nid):
        k = chain_cluster(weights)
        assert not is_consistent(k)
        draws = []
        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        monkeypatch.setattr(localeng, "_curves_at_degree",
                            lambda *a: draws.append(a))
        with pytest.raises(HypothesisViolated,
                           match=f"^cluster is not consistent: "
                                 f"excess -1 at {nid}$"):
            curves_through(k, 0)
        with pytest.raises(HypothesisViolated, match="not consistent"):
            pullback_cluster(monomial_map(2, 3), k, 0)
        assert draws == [] and localeng._CURVES_CACHE == {}


class TestIntegerPath:
    """Integral values stay ints from the drawn pair to the pencil, with
    the values the Fraction route gives."""

    def test_drawn_leaves_are_ints_over_den_1(self, monkeypatch):
        # the pair comes from the last system solved: its leaves are the
        # int sums when the basis denominator is 1, else Fractions
        dens = []
        nullspace = localeng._nullspace

        def spied(rows, ncols):
            out = nullspace(rows, ncols)
            dens.append(out[0])
            return out

        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        monkeypatch.setattr(localeng, "_nullspace", spied)
        kinds = set()
        for weights, sats in PINNED:
            k = grid_cluster(weights, sats)
            for seed in range(8):
                w, z = curves_through(k, seed)
                vals = [*w.poly.terms.values(), *z.poly.terms.values()]
                want = int if dens[-1] == 1 else Fraction
                assert all(type(v) is want for v in vals)
                kinds.add(want)
        assert kinds == {int}

    def test_drawn_values_do_not_depend_on_den(self, monkeypatch):
        # the basis over den 2, with every entry doubled, reads the same
        # vectors: the draw is the same pair, on Fractions
        k = chain_cluster([3, 2, 1])
        want = localeng._curves_at_degree(k, 0, 5)
        nullspace = localeng._nullspace

        def doubled(rows, ncols):
            den, basis = nullspace(rows, ncols)
            return 2 * den, [[(c, 2 * v) for c, v in b] for b in basis]

        monkeypatch.setattr(localeng, "_nullspace", doubled)
        got = localeng._curves_at_degree(k, 0, 5)
        for g, h in zip(got, want):
            assert g.poly == h.poly
            assert list(g.poly.terms) == list(h.poly.terms)
            assert all(type(v) is Fraction for v in g.poly.terms.values())

    def test_compose_int_reads_ints_and_fractions_alike(self):
        f1, f2 = X ** 3 * Y, Fraction(1, 2) * Y ** 3 + X
        forms = [field.int_poly(QQ, g.terms) for g in (f1, f2)]
        ws = [g.poly for g in curves_through(chain_cluster([2, 1]), 0)]
        ws.append(3 * X ** 2 - 6 * Y + 9 * X * Y)
        for w in ws:
            ints = BiPoly(QQ, {m: int(v) for m, v in w.terms.items()})
            fracs = BiPoly(QQ, {m: Fraction(v) for m, v in w.terms.items()})
            got = localeng._compose_int(ints, *forms)
            assert (list(got.terms.items())
                    == list(localeng._compose_int(fracs, *forms)
                            .terms.items()))
            assert all(type(v) is int for v in got.terms.values())

    @pytest.mark.parametrize("c, js, want", [
        (2, {0, 1, 2}, {0: [1], 1: [2, 1], 2: [4, 4, 1]}),
        (Fraction(-3, 2), {0, 1, 2},
         {0: [4], 1: [-6, 4], 2: [9, -12, 4]}),
        (Fraction(4), {1, 3}, {1: [4, 1], 3: [64, 48, 12, 1]})],
        ids=["int", "negative-fraction", "integral-fraction"])
    def test_chart_rows_over_q(self, c, js, want):
        # the table of the int_scale route: c scaled to the primitive a,
        # then times q's denominator, over q's numerator
        (a,), q = field.int_scale(QQ, [c])
        a, b, top = a * q.denominator, q.numerator, max(js)
        assert want == {j: [math.comb(j, k) * a ** (j - k)
                            * b ** (top - j + k) for k in range(j + 1)]
                        for j in js}
        got = localeng._chart_rows(QQ, c, js)
        assert got == want
        assert all(type(v) is int for row in got.values() for v in row)

    def test_verify_directions_chart_as_before(self):
        # _verify_through charts at the int directions 1, 2, ... of
        # _cluster_conditions; the chart is that of the Fraction root
        p, _ = field.int_poly(QQ, {(2, 0): 1, (1, 1): -3, (0, 3): 2,
                                   (4, 1): 5})
        for c in (1, 2, 3):
            assert (list(localeng._chart_int(p, 2, c).terms.items())
                    == list(localeng._chart_int(p, 2, Fraction(c))
                            .terms.items()))


def pullback_at_top(monkeypatch, f, k):
    """f*(K) from the pair drawn at D_top = 1 + sum of the weights."""
    monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
    with monkeypatch.context() as m:
        m.setattr(localeng, "_curves_through", lambda k, seed:
                  localeng._curves_at_degree(k, seed,
                                             localeng._top_degree(k)))
        return pullback_cluster(f, k, 0)


def _spy_sympy_factors(monkeypatch):
    """The list of inputs that ``field._sympy_factors`` is called on."""
    seen = []
    factor = field._sympy_factors
    monkeypatch.setattr(field, "_sympy_factors",
                        lambda f: seen.append(f) or factor(f))
    return seen


class TestPullback:
    def test_identity(self):
        k = chain_cluster([2, 1])
        pb = pullback_cluster(monomial_map(1, 1), k, 0)
        assert weight_list(pb) == [2, 1]
        assert self_intersection(pb) == self_intersection(k)

    def test_map_over_a_tower(self):
        # the rational curves through K are read over the tower of f
        tw = QQ.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))
        k = chain_cluster([2, 1])
        assert (pullback_cluster(monomial_map(2, 3, tw), k, 0)
                == pullback_cluster(monomial_map(2, 3), k, 0))

    def test_double_cover_of_a_point(self):
        pb = pullback_cluster(monomial_map(2, 2), single_point(1), 0)
        assert weight_list(pb) == [2]

    def test_square_scales_by_degree(self):
        for m in (1, 2, 3):
            pb = pullback_cluster(monomial_map(2, 2), single_point(m), 0)
            assert weight_list(pb) == [2 * m]
            assert self_intersection(pb) == 4 * m * m

    def test_empty_cluster(self):
        empty = WeightedMultiCluster([], {})
        assert pullback_cluster(monomial_map(2, 3), empty, 0) == empty

    def test_contracted_curve_rejected(self):
        f = LocalMap.from_polys(X ** 2, X * Y)
        with pytest.raises(ContractedCurvePresent):
            pullback_cluster(f, single_point(1), 0)

    def test_slow_fuzz_draw(self, monkeypatch):
        # a map pullback draw of the CLI fuzz test; f*K has 30 points, and
        # it took 10-15 s (2-vCPU Xeon, Python 3.11.7) when the blowup
        # recursion ran on Fraction coefficients, 0.21-0.24 s with
        # untruncated transforms and 0.011 s with the colength budget
        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        f = LocalMap.from_polys(X ** 3 * Y, Fraction(1, 2) * Y ** 3 + X)
        start = time.perf_counter()
        pb = pullback_cluster(f, chain_cluster([2, 2, 1]), 0)
        elapsed = time.perf_counter() - start
        golden = json.loads((GOLDEN / "pullback-x3y-chain221-seed0.json")
                            .read_text())
        assert cluster_to_json(pb) == golden
        assert elapsed < 5.0

    def test_slow_chain_222(self, monkeypatch):
        # f*K has 30 points; it took 49-54 s (2-vCPU Xeon, Python 3.11.7)
        # with w and z drawn at degree 7, the top of the degree ladder,
        # 3.4-4.0 s at the least degree with untruncated transforms and
        # 0.20-0.23 s with the colength budget
        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        factored = _spy_sympy_factors(monkeypatch)
        f = LocalMap.from_polys(3 * X ** 3 * Y,
                                Y ** 3 + 3 * X + Fraction(1, 2) * X * Y)
        start = time.perf_counter()
        pb = pullback_cluster(f, chain_cluster([2, 2, 2]), 1)
        elapsed = time.perf_counter() - start
        golden = json.loads((GOLDEN / "pullback-3x3y-chain222-seed1.json")
                            .read_text())
        assert cluster_to_json(pb) == golden
        assert elapsed < 15.0
        # its tangent forms with |lc| > 2^16 are squares of linear forms,
        # which Yun splits without sympy
        assert factored == []

    def test_slow_fuzz_draw_222(self, monkeypatch):
        # a map pullback draw of the CLI fuzz test over chains; it took
        # 3.3-4.3 s (2-vCPU Xeon, Python 3.11.7) with untruncated
        # transforms and 0.33-0.37 s with the colength budget, and its f*K
        # is that of the 3x^3 y map at seed 1
        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        factored = _spy_sympy_factors(monkeypatch)
        degrees = []
        chart = localeng._chart_int

        def spied(*args):
            q = chart(*args)
            degrees.append(q.total_degree())
            return q

        monkeypatch.setattr(localeng, "_chart_int", spied)
        f = LocalMap.from_polys(Fraction(1, 2) * Y ** 3 - 2 * X * Y + X,
                                -2 * X ** 3 * Y ** 2 + X ** 3 * Y)
        start = time.perf_counter()
        pb = pullback_cluster(f, chain_cluster([2, 2, 2]), -1)
        elapsed = time.perf_counter() - start
        golden = json.loads((GOLDEN / "pullback-3x3y-chain222-seed1.json")
                            .read_text())
        assert cluster_to_json(pb) == golden
        assert elapsed < 15.0
        assert factored == []
        # the budget min(tdeg f1 tdeg f2, deg_x f1 deg_y f2 + deg_y f1
        # deg_x f2) K^2 = min(3 * 5, 1 * 2 + 3 * 3) * 12 = 132 bounds
        # every chart output (180 with tdeg f1 tdeg f2 alone); untruncated,
        # they reach total degree 742
        assert degrees and max(degrees) <= 132

    def test_pullback_does_not_depend_on_the_pair(self, monkeypatch):
        # the pair drawn at the least degree and the one drawn at D_top
        # give the same f*(K), on the six monomial maps and the x^3 y map
        x3y = LocalMap.from_polys(X ** 3 * Y, Fraction(1, 2) * Y ** 3 + X)
        maps = [monomial_map(a, b) for a in range(1, 4) for b in range(a, 4)]
        cases = 0
        for weights, sats in GRID:
            k = grid_cluster(weights, sats)
            for f in maps + [x3y]:
                monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
                least = cluster_to_json(pullback_cluster(f, k, 0))
                top = pullback_at_top(monkeypatch, f, k)
                assert cluster_to_json(top) == least
                cases += 1
        assert cases == 18 * 7

    def test_one_gcd_on_the_map(self, monkeypatch):
        # fixed_part(f1, f2) is the only gcd; the composed pair has none
        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        calls = []
        gcd = field.poly_gcd

        def counted(p, q):
            calls.append((p, q))
            return gcd(p, q)

        monkeypatch.setattr(field, "poly_gcd", counted)
        f = LocalMap.from_polys(X ** 3 * Y, Fraction(1, 2) * Y ** 3 + X)
        pullback_cluster(f, chain_cluster([2, 1]), 0)
        assert calls == [(f.f1.poly, f.f2.poly)]

    @pytest.mark.parametrize("tower", ["QQ", "sqrt2"])
    def test_pencil_ignores_unit_factor(self, tower):
        # fixed_part would divide out u; the pencil step does not need it
        tw = QQ if tower == "QQ" else Q_S
        x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
        if tower == "QQ":
            # the tangent cone y^2 - 2x^2 is one conjugate pair, orbit 2
            p1 = y ** 2 - 2 * x ** 2 + x ** 3
            p2 = y ** 2 - 2 * x ** 2 + y ** 3 + x ** 4
            want = (["q001", "q002"], [2, 1], [1, 2])
        else:
            # the pair of TestModulusSplitInsideRecursion: a D5 split
            s = BiPoly(tw, {(0, 0): generator(tw)})
            b = y ** 2 - 2 * x ** 2
            p1, p2 = b + (y - s * x) ** 3, b + x ** 4
            want = (["q001", "q003", "q005", "q004"], [2, 1, 1, 1],
                    [1, 1, 1, 1])
        u = 1 + x - 2 * y
        assert field.poly_gcd(u * p1, u * p2) == field.monic_lex(u)
        plain = localeng._entries_to_cluster(
            localeng._pencil_points(p1, p2, None))
        scaled = localeng._entries_to_cluster(
            localeng._pencil_points(u * p1, u * p2, None))
        assert ids_weights_orbits(plain) == want
        assert cluster_to_json(scaled) == cluster_to_json(plain)

    def test_submultiplicative_strict(self):
        k = chain_cluster([2, 1])
        f = monomial_map(2, 3)
        pb = pullback_cluster(f, k, 0)
        deg = local_degree(f)
        assert self_intersection(pb) == deg * self_intersection(k)
        assert pb.size() < deg * k.size()


def euclid_chain(a, b):
    """Enriques' multiplicities of the branch x^a = y^b, a and b coprime:
    the divisors of Euclid's algorithm on (a, b), each repeated as often
    as its quotient."""
    chain = []
    while a and b:
        a, b = max(a, b), min(a, b)
        q, r = divmod(a, b)
        chain += [b] * q
        a, b = b, r
    return chain


class TestSeedFreeOracles:
    """Pullbacks and multiplicity clusters checked against answers that
    no drawn curve enters."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pullback_of_a_point_is_the_scaled_base_points(self, m, seed):
        # f*(m O) = m times the base points of (x^a, y^b), node for node
        for a, b in itertools.product(range(1, 8), repeat=2):
            f = monomial_map(a, b)
            bp = base_points(f)
            want = WeightedMultiCluster(
                list(bp.forest.nodes),
                {n.id: m * bp.weights[n.id] for n in bp.forest.nodes})
            assert (cluster_to_json(pullback_cluster(f, single_point(m), seed))
                    == cluster_to_json(want)), (a, b)

    def test_base_points_are_the_euclid_chain(self):
        for a, b in itertools.product(range(1, 8), repeat=2):
            if math.gcd(a, b) == 1:
                assert weight_list(base_points(monomial_map(a, b))) == (
                    euclid_chain(a, b)), (a, b)

    def test_mult_cluster_is_the_euclid_chain(self):
        pairs = [(a, b) for a, b in itertools.product(range(2, 12), repeat=2)
                 if math.gcd(a, b) == 1]
        for a, b in pairs:
            assert weight_list(mult_cluster(Germ(Y ** b - X ** a))) == [
                e for e in euclid_chain(a, b) if e >= 2], (a, b)
        assert len(pairs) == 62

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("placement", ["vertex", "line"])
    def test_kummer_germs_are_the_pulled_back_point(self, placement, seed):
        # the Kummer cover (x^k, y^k) at a vertex, or (x^k, y) on a
        # coordinate line, pulls the m lines y = a x, a = 1..m, back to
        # the germ below; its points of multiplicity >= 2 are those of
        # weight >= 2 of the pulled-back point of weight m
        def points(k, least):
            depth, out = {}, []
            for n in k.forest.nodes:
                depth[n.id] = 0 if n.parent is None else depth[n.parent] + 1
                if k.weights[n.id] >= least:
                    out.append((n.orbit, k.weights[n.id],
                                n.second_proximity is not None, depth[n.id]))
            return sorted(out)

        for m, k in itertools.product(range(1, 6), range(2, 6)):
            germ = math.prod(((Y ** k - a * X ** k) if placement == "vertex"
                              else (Y - a * X ** k)) for a in range(1, m + 1))
            f = monomial_map(k, k if placement == "vertex" else 1)
            assert points(mult_cluster(Germ(germ)), 2) == points(
                pullback_cluster(f, single_point(m), seed), 2), (m, k)


@pytest.mark.parametrize("chain, directions, least, top, k2", DIRECTION_ZERO,
                         ids=["3211", "33211"])
class TestDirectionZero:
    def test_curves_through(self, monkeypatch, chain, directions, least,
                            top, k2):
        monkeypatch.setattr(localeng, "_CURVES_CACHE", {})
        k = chain_cluster(*chain)
        assert localeng._cluster_conditions(k, least)[2] == directions
        assert (localeng._least_degree(k), localeng._top_degree(k)) == (
            least, top)
        w, z = curves_through(k, 0)
        assert max(w.poly.total_degree(), z.poly.total_degree()) == least
        assert self_intersection(k) == k2
        assert intersection_multiplicity(w, z) == k2
        assert noether_intersection(*shared_cluster(w, z)) == k2

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_pullback_laws(self, chain, directions, least, top, k2, a, b):
        k, f = chain_cluster(*chain), monomial_map(a, b)
        pb = pullback_cluster(f, k, 0)
        deg = local_degree(f)
        assert self_intersection(pb) == deg * k2
        assert pb.size() <= deg * k.size()


def fraction_compose(w, f1, f2):
    """w(f1, f2) term by term on Fractions: sums of products of powers."""
    tw = f1.tower
    acc = BiPoly.zero(tw)
    for (i, j), c in w.terms.items():
        c = BiPoly(tw, {(0, 0): from_rational(tw, c)})
        acc = acc + c * f1 ** i * f2 ** j
    return acc


class TestComposeInt:
    """The pullback's integer composition is the Fraction composition up
    to a positive rational scale."""

    @pytest.mark.parametrize("tower", ["QQ", "sqrt2"])
    def test_matches_fraction_compose(self, tower):
        tw = QQ if tower == "QQ" else Q_S
        x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
        if tower == "QQ":
            f1, f2 = x ** 3 * y, Fraction(1, 2) * y ** 3 + x
        else:
            s = BiPoly(tw, {(0, 0): generator(tw)})
            f1 = (Fraction(1, 2) * y ** 3 + (Fraction(1, 2) - 2 * s) * x
                  - 2 * x ** 2 * y ** 3)
            f2 = (s - 2) * x ** 3 * y ** 2
        ws = list(g.poly for g in curves_through(chain_cluster([2, 1]), 0))
        ws.append(Fraction(1, 3) * X ** 2 - Fraction(5, 2) * Y
                  + Fraction(7, 4) * X * Y + Fraction(1, 6) * Y ** 3)
        forms = [field.int_poly(tw, g.terms) for g in (f1, f2)]
        for w in ws:
            got = localeng._compose_int(w, *forms)
            want = fraction_compose(w, f1, f2)
            ints = field.leaves(tw, list(got.terms.values()))
            assert all(type(v) is int for v in ints)
            key = next(iter(want.terms))
            lam = (field.leaves(tw, [want.terms[key]])[0]
                   / field.leaves(tw, [got.terms[key]])[0])
            assert lam > 0
            assert want == BiPoly(tw, {k: qscale(tw, v, lam)
                                       for k, v in got.terms.items()})


@st.composite
def random_germs(draw, max_deg=4):
    deg = draw(st.integers(2, max_deg))
    terms = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            if i + j < 1:
                continue
            c = draw(st.integers(-3, 3))
            if c:
                terms[(i, j)] = Fraction(c)
    p = BiPoly(QQ, terms)
    if p.is_zero() or p.order() < 1:
        return None
    return p


class TestRandomized:
    @given(random_germs())
    @settings(max_examples=40, deadline=None)
    def test_mult_cluster_consistent(self, p):
        if p is None:
            return
        try:
            k = mult_cluster(Germ(p))
        except NonReducedGerm:
            return
        assert is_consistent(k)


Q_S = QQ.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))


# moduli with rational coefficients, as split_directions adjoins them:
# r^2 + r/3 - 1/2 over Q, and u^2 + (r/2) u - 1/3 over Q(r)
Q_R = QQ.extend("r", (Fraction(-1, 2), Fraction(1, 3), Fraction(1)))
Q_RU = Q_R.extend("u", ((Fraction(-1, 3),), (Fraction(0), Fraction(1, 2)),
                        (Fraction(1),)))


def tower_elements(tw):
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if not tw.levels:
        return small
    sub = tw.sub()
    return st.lists(tower_elements(sub), max_size=len(tw.top_modulus) - 1
                    ).map(lambda cs: ptrim(sub, cs))


class TestChartInt:
    """The integer chart core: the primitive integer polynomial that is a
    positive rational multiple of the substitution, checked against the
    independent route through BiPoly.compose."""

    @pytest.mark.parametrize("kind", ["zero", "rational", "generator"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_compose(self, kind, data):
        tw = QQ if kind == "rational" else Q_S
        small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        coef = (small if not tw.levels else
                st.tuples(small, small).map(lambda ab: ptrim(QQ, ab)))
        terms = data.draw(st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), coef,
            min_size=1, max_size=8))
        p = BiPoly(tw, terms)
        if p.is_zero():
            return
        m = data.draw(st.integers(0, p.order()))
        if kind == "zero":
            c = ()
        elif kind == "rational":
            c = data.draw(small.filter(lambda v: v != 0))
        else:
            c = qscale(tw, generator(tw), data.draw(st.integers(1, 3)))
        self.check(p, m, c)

    @pytest.mark.parametrize("tw", [QQ, Q_R, Q_RU], ids=["d0", "d1", "d2"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_primitive_and_exact_up_to_scale(self, tw, data):
        terms = data.draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            tower_elements(tw), min_size=1, max_size=6))
        p = BiPoly(tw, terms)
        if p.is_zero():
            return
        m = data.draw(st.integers(0, p.order()))
        top = data.draw(st.integers(0, 8))
        # direction 0, the relabeling (x, xy), on every run
        for c in (data.draw(tower_elements(tw)), field.zero(tw)):
            self.check(p, m, c)
            self.check_truncated(p, m, c, top)
        for axis in ("x", "y"):
            whole = localeng._relabel(p, m, axis)
            assert localeng._relabel(p, m, axis, top) == truncated(whole, top)

    @staticmethod
    def check(p, m, c):
        """Both the chart and ``int_poly`` scale by a positive rational to
        primitive integer leaves, so they agree exactly."""
        tw = p.tower
        ip, _ = field.int_poly(tw, p.terms)
        q = localeng._chart_int(ip, m, c)
        ints = field.leaves(tw, list(q.terms.values()))
        assert all(type(v) is int for v in ints)
        assert math.gcd(*ints) == 1
        x = BiPoly.variable("x", tw)
        y = BiPoly.variable("y", tw)
        composed = p.compose(x, x * (y + BiPoly(tw, {(0, 0): c})))
        lowered = BiPoly(tw, {(i - m, j): v
                              for (i, j), v in composed.terms.items()})
        assert q == field.int_poly(tw, lowered.terms)[0]

    @staticmethod
    def check_truncated(p, m, c, top):
        """The chart kept to total degree ``top`` is the whole chart with
        the terms above ``top`` dropped, up to a rational scale."""
        tw = p.tower
        ip, _ = field.int_poly(tw, p.terms)
        q = localeng._chart_int(ip, m, c, top)
        whole = localeng._chart_int(ip, m, c)
        assert all(type(v) is int
                   for v in field.leaves(tw, list(q.terms.values())))
        want = truncated(whole, top)
        if want.is_zero():
            assert q.is_zero()
            return
        key = next(iter(want.terms))
        lam = next(a / b for a, b in zip(field.leaves(tw, [want.terms[key]]),
                                         field.leaves(tw, [q.terms[key]]))
                   if b)
        assert want == BiPoly(tw, {k: qscale(tw, v, lam)
                                   for k, v in q.terms.items()})

    @pytest.mark.parametrize("tw", [QQ, Q_S, Q_RU], ids=["d0", "d1", "d2"])
    @pytest.mark.parametrize("root", ["0", "1", "-1", "1/2", "generator",
                                      "other"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_table_of_a_larger_sibling(self, tw, root, data):
        """A chart made with the weight table of a blowup step, built for
        a sibling of larger y-degree too, is the chart made alone, term
        for term and in the same order."""
        if root == "generator" and not tw.levels:
            return
        c = {"generator": lambda: generator(tw),
             "other": lambda: other_root(tw)}.get(
                 root, lambda: from_rational(tw, Fraction(root)))()
        p, sibling = (BiPoly(tw, data.draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            tower_elements(tw), min_size=1, max_size=6))) for _ in range(2))
        if p.is_zero():
            return
        # a new term lifts the sibling's y-degree past p's
        J = max(p.deg_y(), sibling.deg_y()) + data.draw(st.integers(1, 3))
        sibling = sibling + BiPoly(tw, {(0, J): field.one(tw)})
        polys = [field.int_poly(tw, q.terms)[0] for q in (p, sibling)]
        p = polys[0]
        m = data.draw(st.integers(0, p.order()))
        top = data.draw(st.one_of(st.just(math.inf), st.integers(0, 8)))
        rows = localeng._chart_rows(tw, c, {j for q in polys for _, j in q.terms})
        alone = localeng._chart_int(p, m, c, top)
        shared = localeng._chart_int(p, m, c, top, rows)
        assert list(shared.terms.items()) == list(alone.terms.items())
        assert all(type(v) is int
                   for v in field.leaves(tw, list(shared.terms.values())))

    @pytest.mark.parametrize("tw", [QQ, Q_R, Q_RU], ids=["d0", "d1", "d2"])
    def test_zero_direction_past_the_order(self, tw):
        # x^2 y + 3 x^3 has order 3; at c = 0 the term x^2 y would go to
        # x^(2 + 1 - 4) y
        p, _ = field.int_poly(tw, {(2, 1): from_rational(tw, 1),
                                   (3, 0): from_rational(tw, 3)})
        localeng._chart_int(p, 3, field.zero(tw))
        with pytest.raises(ValueError):
            localeng._chart_int(p, 4, field.zero(tw))


def other_root(tw):
    """A root that is not the generator: -2/3 over Q, 1 - 2/3 s over a
    quadratic level and 1/2 + r u over Q(r)(u)."""
    if not tw.levels:
        return Fraction(-2, 3)
    if tw.depth == 1:
        return field.add(tw, field.one(tw),
                         qscale(tw, generator(tw), Fraction(-2, 3)))
    r = (generator(tw.sub()),)
    return field.add(tw, from_rational(tw, Fraction(1, 2)),
                     field.mul(tw, r, generator(tw)))


def truncated(p, top):
    return BiPoly(p.tower, {k: v for k, v in p.terms.items()
                            if k[0] + k[1] <= top})


def ids_weights_orbits(k):
    return ([n.id for n in k.forest.nodes], weight_list(k),
            [n.orbit for n in k.forest.nodes])


class TestBlowupBudget:
    """The depth cap of the blowup recursion, at the same boundary for
    every entry point: MAX_DEPTH = 64 blowups below the root."""

    def test_mult_cluster_boundary(self):
        k = mult_cluster(Germ(Y ** 2 - X ** 129))
        assert len(k.forest.nodes) == 64
        with pytest.raises(BudgetExceeded):
            mult_cluster(Germ(Y ** 2 - X ** 131))

    @pytest.mark.parametrize("entry", ["shared_cluster", "base_points",
                                       "local_degree"])
    def test_pair_boundary(self, entry):
        def size(n):
            a, b = Y, Y - X ** n
            if entry == "shared_cluster":
                ka, kb = shared_cluster(Germ(a), Germ(b))
                assert ka.forest == kb.forest
                return len(ka.forest.nodes)
            if entry == "base_points":
                return len(base_points(LocalMap.from_polys(a, b)).forest.nodes)
            # every base point is simple, so the degree counts them
            return local_degree(LocalMap.from_polys(a, b))

        assert size(65) == 65
        with pytest.raises(BudgetExceeded):
            size(66)


@pytest.fixture
def mult_spy(monkeypatch):
    """Counts of the step calls of ``mult_cluster``'s recursion, of the
    points it records, of its reducedness gcds and of D5 tower splits."""
    seen = {"steps": 0, "points": 0, "gcds": 0, "splits": 0}
    blowups, repeated = localeng._blowups, localeng._repeated_part
    split = field.split_tower

    def counted_blowups(tw, polys, step, *args, **kwargs):
        def counted(ps):
            seen["steps"] += 1
            node = step(ps)
            seen["points"] += node is not None
            return node
        return blowups(tw, polys, counted, *args, **kwargs)

    def counted_repeated(p):
        seen["gcds"] += 1
        return repeated(p)

    def counted_split(*args):
        seen["splits"] += 1
        return split(*args)

    monkeypatch.setattr(localeng, "_blowups", counted_blowups)
    monkeypatch.setattr(localeng, "_repeated_part", counted_repeated)
    monkeypatch.setattr(field, "split_tower", counted_split)
    return seen


def _s_germ():
    """(y^2 - 2x^2)^2 + x^5 (y - s x) + y^7 over Q(s), s^2 = 2: the
    direction u, u^2 = 2, is adjoined over Q(s), where u^2 - 2 splits."""
    s = BiPoly(Q_S, {(0, 0): generator(Q_S)})
    x, y = BiPoly.variable("x", Q_S), BiPoly.variable("y", Q_S)
    return (y ** 2 - 2 * x ** 2) ** 2 + x ** 5 * (y - s * x) + y ** 7


class TestReducedCertificate:
    """``mult_cluster`` certifies a germ reduced by its own recursion
    ending, within the delta budget d(d - 1)/2 of total degree d; the gcd
    runs once, only when the budget runs out, a transform passes degree
    2d or the depth cap is hit.  Every multiplicity it reads has a unit
    coefficient in its form, so a level that factors is split on."""

    @pytest.mark.parametrize("p, weights", [
        (Y ** 2 - X ** 3, [2]),
        ((Y ** 2 - X ** 3) * (Y - X), [3]),
        # d lines through the origin spend the whole budget at the root
        (X * Y * (X + Y) * (X - Y), [4]),
        (Y ** 2 - X ** 129, [2] * 64),
    ], ids=["cusp", "cusp-line", "four-lines", "depth-64"])
    def test_reduced_germ_runs_no_gcd(self, mult_spy, p, weights):
        assert weight_list(mult_cluster(Germ(p))) == weights
        assert mult_spy["gcds"] == 0

    def test_reduced_germ_through_a_split_runs_no_gcd(self, mult_spy):
        k = mult_cluster(Germ(_s_germ()))
        assert ids_weights_orbits(k) == (["q001", "q003", "q004"], [4, 2, 2],
                                         [1, 1, 1])
        assert mult_spy["splits"] == 1
        assert mult_spy["gcds"] == 0

    def test_level_that_factors_is_split(self, mult_spy):
        # the tangent cone (t - s)^2 (t + s)^2 adjoins u, u^2 = 2, over
        # Q(s), where it factors; at u the node of the first two branches
        # (u = s) and the smooth cusp transform y^2 + x (u = -s) make the
        # linear form a zero divisor, not a multiplicity 1
        s = BiPoly(Q_S, {(0, 0): generator(Q_S)})
        x, y = BiPoly.variable("x", Q_S), BiPoly.variable("y", Q_S)
        cusp = (y + s * x) ** 2 + x ** 3
        k = mult_cluster(Germ((y - s * x + x ** 2) * (y - s * x - x ** 2)
                              * cusp))
        # the same germ with s set to 1: over Q the tangent cone splits
        rational = ((Y - X + X ** 2) * (Y - X - X ** 2)
                    * ((Y + X) ** 2 + X ** 3))
        assert cluster_to_json(k) == cluster_to_json(mult_cluster(
            Germ(rational)))
        assert weight_list(k) == [4, 2]
        assert mult_spy["gcds"] == 0
        assert mult_spy["splits"] >= 1
        with pytest.raises(NonReducedGerm):
            mult_cluster(Germ((y - s * x + x ** 2) ** 2 * cusp))

    def test_grown_transform_runs_the_gcd_once(self, mult_spy):
        # reduced, but a transform passes degree 2d = 10 at a recorded
        # point: the gcd runs once and the recursion goes on
        k = mult_cluster(Germ(X * (X - X ** 2 + X ** 4 - Y ** 4)))
        assert weight_list(k) == [2, 2, 2, 2]
        assert mult_spy["gcds"] == 1

    @pytest.mark.parametrize("case", ["cube", "square-and-cusp",
                                      "square-through-a-split"])
    def test_non_reduced_path_is_bounded(self, mult_spy, case):
        p = {"cube": (Y ** 2 - X ** 7) ** 3,
             "square-and-cusp": (Y - X ** 11) ** 2 * (Y ** 3 - X ** 2),
             "square-through-a-split": _s_germ() ** 2}[case]
        d = p.total_degree()
        with pytest.raises(NonReducedGerm):
            mult_cluster(Germ(p))
        assert mult_spy["gcds"] == 1
        # every recorded point spends >= 1 of the budget, so the gcd runs
        # by the (d(d - 1)/2 + 1)-th point at the latest
        assert mult_spy["points"] < d * (d - 1) // 2 + 1
        # the cube's transforms shrink, so it spends its budget of 210:
        # weights 6, 6, 6 and then 3 cost 45 + 3 * 56 > 210 at the 59th
        # point; the others' transforms pass degree 2d early
        assert mult_spy["steps"] == {"cube": 59, "square-and-cusp": 17,
                                     "square-through-a-split": 4}[case]
        if case == "square-through-a-split":
            assert mult_spy["splits"] == 1

    def test_depth_cap_runs_the_gcd_and_still_raises(self, mult_spy):
        # d = 131: the budget of 8515 outlasts the 64-blowup cap, and a
        # reduced germ past the cap keeps its BudgetExceeded
        with pytest.raises(BudgetExceeded):
            mult_cluster(Germ(Y ** 2 - X ** 131))
        assert mult_spy["steps"] == 65
        assert mult_spy["gcds"] == 1

    def test_depth_cap_on_a_repeated_factor_is_non_reduced(self, mult_spy):
        # d = 24 >= 12: the budget of 276 outlasts the cap, and the
        # transforms of (y - x^12)^2 never grow, so only the cap stops it
        with pytest.raises(NonReducedGerm):
            mult_cluster(Germ((Y - X ** 12) ** 2))
        assert mult_spy["steps"] == 65
        assert mult_spy["gcds"] == 1


def random_germ(rng, tw, kind):
    """A seeded germ over ``tw``: ``a``, ``h^2 a`` with h(0) = 0, or
    ``u^2 a`` with u(0) != 0, for small random a, h and u."""
    gens = [BiPoly(tw, {(0, 0): generator(tw)})] if tw.levels else []

    def coeff():
        c = BiPoly.const(rng.choice([-2, -1, 1, 2, 3]), tw)
        for g in gens:
            c = c + rng.choice([-1, 0, 1, 2]) * g
        return c if not c.is_zero() else BiPoly.const(1, tw)

    def poly(n, deg, const):
        x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
        p = coeff() if const else BiPoly.zero(tw)
        for _ in range(n):
            i = rng.randint(0, deg)
            j = rng.randint(0 if i else 1, deg - i)
            p = p + coeff() * x ** i * y ** j
        return p

    a = poly(rng.randint(2, 4), rng.randint(2, 4), False)
    while a.is_zero():
        a = poly(2, 3, False)
    if kind == "reduced":
        return a
    h = poly(rng.randint(1, 2), rng.randint(1, 2), kind == "unit")
    while h.total_degree() < 1:
        h = poly(1, 2, kind == "unit")
    return h * h * a


class TestReducedCrossCheck:
    """The reducedness gcd stays an independent check of the recursion's
    certificate, over Q and Q(s), s^2 = 2."""

    @pytest.mark.parametrize("tw", [QQ, Q_S], ids=["QQ", "Q(s)"])
    def test_non_reduced_iff_repeated_part_vanishes(self, tw):
        rng = random.Random(26)
        for kind in ("reduced", "origin", "unit") * 12:
            p = random_germ(rng, tw, kind)
            try:
                k = mult_cluster(Germ(p))
            except NonReducedGerm:
                assert localeng._repeated_part(p).order() >= 1, p
                continue
            assert localeng._repeated_part(p).order() == 0, p
            assert is_consistent(k)


Q_T1 = QQ.extend("t", (Fraction(-1), Fraction(0), Fraction(1)))


def at_t(p, v):
    """p over Q(t), t^2 = 1, with t set to v = 1 or -1."""
    return BiPoly(QQ, {key: sum((c * v ** k for k, c in enumerate(a)),
                                Fraction(0))
                       for key, a in p.terms.items()})


class TestReducibleTower:
    """Q(t), t^2 = 1, is Q x Q, not a field.  ``mult_cluster`` either
    reports the split or returns the cluster of both factors: the germ's
    cluster over Q at t = 1 and at t = -1."""

    def test_cluster_matches_both_specializations(self):
        rng = random.Random(26)
        clusters = 0
        for kind in ("reduced", "origin", "unit") * 30:
            p = random_germ(rng, Q_T1, kind)
            try:
                got = cluster_to_json(mult_cluster(Germ(p)))
            except (ModulusSplit, NonReducedGerm):
                continue
            clusters += 1
            for v in (1, -1):
                want = cluster_to_json(mult_cluster(Germ(at_t(p, v))))
                assert got == want, (p, v)
        assert clusters >= 10

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "split_directions adjoins each squarefree factor from Yun as one "
        "level, also where it factors over the tower (the split_directions "
        "FOUND in CHANGES.md): the double directions, the roots of "
        "(T - 1)(T^2 - 2), ride one orbit-3 point"))
    def test_level_with_a_rational_root(self):
        # defined over Q, whose cluster is [6, 2, 2 (orbit 2)]; over Q(t)
        # mult_cluster returns [6, 2 (orbit 3)]
        x, y = BiPoly.variable("x", Q_T1), BiPoly.variable("y", Q_T1)
        p = (y - x) ** 2 * (y ** 2 - 2 * x ** 2) ** 2 + x ** 8
        got = cluster_to_json(mult_cluster(Germ(p)))
        for v in (1, -1):
            assert got == cluster_to_json(mult_cluster(Germ(at_t(p, v))))

    @pytest.mark.parametrize("entry", ["local_degree", "base_points",
                                       "shared_cluster"])
    def test_pair_matches_both_specializations(self, entry):
        # seeded pairs of reduced germs; a germ pair sharing a component
        # through the origin is a HypothesisViolated of ``shared_cluster``
        rejected = ((ModulusSplit, HypothesisViolated)
                    if entry == "shared_cluster" else ModulusSplit)
        answered = 0
        for seed in (1, 2):
            rng = random.Random(seed)
            for _ in range(75):
                a, b = (random_germ(rng, Q_T1, "reduced") for _ in range(2))
                try:
                    got = pair_answer(entry, a, b)
                except rejected:
                    continue
                answered += 1
                for v in (1, -1):
                    assert got == pair_answer(entry, at_t(a, v),
                                              at_t(b, v)), (a, b, v)
        assert answered >= 10

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "only mult_cluster checks that the forms it reads have a unit "
        "coefficient: elsewhere a zero divisor of Q(t) reads as nonzero, "
        "and a level that splits at one t is kept as one orbit"))
    @pytest.mark.parametrize("entry, a, b, v", [
        # the x^2 coefficient t - 1 vanishes at t = 1, where a has order 3
        ("shared_cluster", {(0, 3): (-2,), (2, 0): (-1, 1), (3, 0): (3, 1)},
         {(2, 0): (3, 2), (2, 1): (5, 1), (2, 2): (2, -1)}, 1),
        # the tangent form (2 + t) T^2 - 1 of a has two rational roots at
        # t = -1 and is adjoined as one level of orbit 2
        ("base_points", {(0, 2): (2, 1), (2, 0): (-1,)},
         {(3, 1): (1, 2), (4, 0): (3,)}, -1),
    ], ids=["zero-divisor-order", "level-that-splits"])
    def test_pair_found_to_differ(self, entry, a, b, v):
        a, b = BiPoly(Q_T1, a), BiPoly(Q_T1, b)
        assert pair_answer(entry, a, b) == pair_answer(entry, at_t(a, v),
                                                       at_t(b, v))


def pair_answer(entry, a, b):
    """The answer of ``entry`` on the pair of germs (a, b), as JSON."""
    if entry == "shared_cluster":
        return [cluster_to_json(k) for k in shared_cluster(Germ(a), Germ(b))]
    f = LocalMap.from_polys(a, b)
    return (local_degree(f) if entry == "local_degree"
            else cluster_to_json(base_points(f)))


def germ_answer(entry, a, b):
    """The answer of ``entry`` on (a, b) as JSON, or the class and message
    of what it raised."""
    try:
        if entry == "intersection_multiplicity":
            return intersection_multiplicity(Germ(a), Germ(b))
        return pair_answer(entry, a, b)
    except EnriquesError as e:
        return type(e).__name__, str(e)


FIELD_ENTRIES = ["base_points", "local_degree", "shared_cluster",
                 "intersection_multiplicity"]


def built_pairs(tw):
    """Germ pairs over ``tw`` on which the field route can reach
    ``fixed_part``: a shared component through the origin, common factors
    off it with and without y, a common curve off the origin that every
    shear line x = uy meets, and a coprime pair with 66 shared points,
    whose cap error the constant gcd leaves as it is, and that pair times
    a factor off the origin, whose cap error the quotients raise again."""
    x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
    c = BiPoly(tw, {(0, 0): generator(tw)}) if tw.levels else 2
    p, q = y ** 2 - x ** 3, y - c * x ** 2
    return {
        "shared-component": ((y - x ** 2) * p, (y - x ** 2) * q),
        "shared-line": (x * p, x * (x + y)),
        "off-origin-with-y": ((1 + x * y) * p, (1 + x * y) * q),
        "off-origin-without-y": ((1 + c * x) * p, (1 + c * x) * q),
        "off-origin-met-by-every-shear": ((y - 1) * p, (y - 1) * q),
        "66-shared-points": (y, y - x ** 66),
        "66-shared-points-off-origin": ((1 + x) * y, (1 + x) * (y - x ** 66)),
    }


class TestFieldRoute:
    """Over a field tower the four germ-pair entry points run on the
    germs as given and call ``fixed_part`` only when that run cannot
    conclude.  Each answer, or each exception's class and message, is
    that of the route every other tower takes, with ``fixed_part``
    first, which ``Tower.is_field`` patched to False forces."""

    @staticmethod
    def gcd_first(entry, a, b):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field.Tower, "is_field", property(lambda tw: False))
            return germ_answer(entry, a, b)

    @pytest.mark.parametrize("tw", [QQ, Q_S], ids=["QQ", "Q(s)"])
    @pytest.mark.parametrize("entry", FIELD_ENTRIES)
    def test_random_pairs(self, entry, tw):
        rng = random.Random(43)
        for _ in range(25):
            a, b = (random_germ(rng, tw, "reduced") for _ in range(2))
            assert germ_answer(entry, a, b) == self.gcd_first(entry, a, b), (
                a, b)

    @pytest.mark.parametrize("tw", [QQ, Q_S], ids=["QQ", "Q(s)"])
    @pytest.mark.parametrize("case", list(built_pairs(QQ)))
    @pytest.mark.parametrize("entry", FIELD_ENTRIES)
    def test_built_pairs(self, entry, case, tw):
        a, b = built_pairs(tw)[case]
        got = germ_answer(entry, a, b)
        assert got == self.gcd_first(entry, a, b)
        shared = {"intersection_multiplicity": math.inf,
                  "shared_cluster": ("HypothesisViolated", "germs share a "
                                     "component through the origin")}
        if case.startswith("shared") and entry in shared:
            assert got == shared[entry]
        if case == "66-shared-points":
            assert got == (66 if entry == "intersection_multiplicity" else
                           ("BudgetExceeded",
                            "blowup recursion exceeded 64 blowups"))

    @pytest.mark.parametrize("tw", [QQ, Q_S], ids=["QQ", "Q(s)"])
    @pytest.mark.parametrize("entry", FIELD_ENTRIES)
    def test_coprime_pairs_run_no_fixed_part(self, monkeypatch, entry, tw):
        rng = random.Random(7)
        germs = [random_germ(rng, tw, "reduced") for _ in range(24)]
        x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
        pairs = [(y ** 2 - x ** 3, y - 2 * x ** 2)] + [
            (a, b) for a, b in zip(germs[::2], germs[1::2])
            if fixed_part(a, b)[1] == (a, b)]
        calls = []
        monkeypatch.setattr(localeng, "fixed_part",
                            lambda *args: calls.append(args))
        for a, b in pairs:
            assert not isinstance(germ_answer(entry, a, b), tuple)
        assert len(pairs) >= 8 and calls == []


class TestGermPairRoute:
    """``localeng._coprime``, the one route of the four germ-pair entry
    points: a tower check first, then the pair or its quotients."""

    @pytest.mark.parametrize("pair", ["same-name", "QQ-and-Q(s)",
                                      "Q(s)-and-QQ"])
    @pytest.mark.parametrize("entry", FIELD_ENTRIES)
    def test_tower_mismatch(self, entry, pair):
        # Q(s), s^2 = 3, names its generator as Q(s), s^2 = 2 does
        q_s3 = QQ.extend("s", (Fraction(-3), Fraction(0), Fraction(1)))
        x2, y2 = BiPoly.variable("x", Q_S), BiPoly.variable("y", Q_S)
        a, b = {
            "same-name": (y2 ** 2 - 3 * x2 ** 2,
                          BiPoly(q_s3, {(0, 1): (1,), (1, 0): (0, -1)})),
            "QQ-and-Q(s)": (Y ** 2 - X ** 3, y2 - x2 ** 2),
            "Q(s)-and-QQ": (y2 - x2 ** 2, Y ** 2 - X ** 3),
        }[pair]
        with pytest.raises(ValueError, match="^tower mismatch$"):
            germ_answer(entry, a, b)

    @pytest.mark.parametrize("tw", [QQ, Q_S], ids=["QQ", "Q(s)"])
    @pytest.mark.parametrize("entry", FIELD_ENTRIES)
    def test_rerun_on_the_quotients(self, monkeypatch, entry, tw):
        # the recursion on the pair hits its cap, fixed_part finds 1 + x
        # and the run on the quotients raises the same error; the
        # resultant needs no gcd
        a, b = built_pairs(tw)["66-shared-points-off-origin"]
        calls, runs = [], []
        fixed, blowups = localeng.fixed_part, localeng._blowups
        monkeypatch.setattr(localeng, "fixed_part",
                            lambda *args: calls.append(args) or fixed(*args))

        def spy(tw, polys, *args, **kw):
            runs.append(polys)
            return blowups(tw, polys, *args, **kw)

        monkeypatch.setattr(localeng, "_blowups", spy)
        start = time.process_time()
        got = germ_answer(entry, a, b)
        assert time.process_time() - start < 0.5
        if entry == "intersection_multiplicity":
            assert got == 66 and calls == []
        else:
            assert got == ("BudgetExceeded",
                           "blowup recursion exceeded 64 blowups")
            assert calls == [(a, b)]
            assert runs == [(a, b), fixed(a, b)[1]]

    def test_factor_through_the_origin_in_one_component(self):
        # over Q(t), t^2 = 1, the common factor u = t - 1 + x is the line
        # x at t = 1, a contracted curve that adds to deg_p, and a unit at
        # t = -1: each entry point raises the split of t
        t = BiPoly(Q_T1, {(0, 0): (0, 1)})
        x, y = BiPoly.variable("x", Q_T1), BiPoly.variable("y", Q_T1)
        u = t - 1 + x
        a, b = u * y, u * (y - x ** 2)
        assert [germ_answer(entry, at_t(a, v), at_t(b, v))
                for entry in ("local_degree", "intersection_multiplicity")
                for v in (1, -1)] == [3, 2, math.inf, 2]
        for entry in FIELD_ENTRIES:
            assert germ_answer(entry, a, b) == (
                "ModulusSplit", "modulus for 't' splits"), entry


COEFFS = st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 2),
                          Fraction(3)])


@st.composite
def fuzz_maps(draw):
    """A finite map drawn as the CLI fuzz test draws one, over Q or Q(s),
    s^2 = 2: each component has one to three terms of degree <= 3 in x and
    in y, none of them constant."""
    tw = draw(st.sampled_from([QQ, Q_S]))
    elem = (COEFFS if not tw.levels else
            st.tuples(COEFFS, COEFFS | st.just(Fraction(0)))
            .map(lambda ab: ptrim(QQ, ab)))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
    f = LocalMap.from_polys(*(BiPoly(tw, draw(st.dictionaries(
        exps, elem, min_size=1, max_size=3))) for _ in range(2)))
    assume(fixed_part(f.f1.poly, f.f2.poly)[0] is None)
    return f


class TestColengthBudget:
    """The pullback's pencil step truncates its transforms to the colength
    left at each point, and its output is that of the untruncated run."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_pullback_matches_untruncated(self, data):
        f = data.draw(fuzz_maps())
        # the grid clusters with K^2 <= 6, where no untruncated run of a
        # drawn map took much above 1 s
        weights, sats = data.draw(st.sampled_from(
            [(w, sats) for w, sats in GRID if sum(v * v for v in w) <= 6]))
        k, seed = grid_cluster(weights, sats), data.draw(st.integers(-1, 3))
        f1, f2 = (field.int_poly(g.tower, g.poly.terms) for g in (f.f1, f.f2))
        w, z = (localeng._compose_int(g.poly, f1, f2)
                for g in curves_through(k, seed))
        assert (cluster_to_json(pullback_cluster(f, k, seed))
                == cluster_to_json(localeng._entries_to_cluster(
                    localeng._pencil_points(w, z, None))))

    @pytest.mark.parametrize("case, want", [
        ("fuzz-222", 11 * 12), ("sqrt2-golden", 13 * 6),
        ("monomial", 6 * 5), ("total-degree", 2 * 1)])
    def test_bidegree_budget(self, monkeypatch, case, want):
        # B = min(tdeg f1 tdeg f2, deg_x f1 deg_y f2 + deg_y f1 deg_x f2)
        # K^2: the bidegree bound is the lesser on the two heavy goldens,
        # equal on monomial maps, and the greater for (x + y, x^2 + y^2)
        s = BiPoly(Q_S, {(0, 0): generator(Q_S)})
        xs, ys = BiPoly.variable("x", Q_S), BiPoly.variable("y", Q_S)
        f, k = {
            "fuzz-222": (LocalMap.from_polys(
                Fraction(1, 2) * Y ** 3 - 2 * X * Y + X,
                -2 * X ** 3 * Y ** 2 + X ** 3 * Y), chain_cluster([2, 2, 2])),
            "sqrt2-golden": (LocalMap.from_polys(
                Fraction(1, 2) * ys ** 3 + (Fraction(1, 2) - 2 * s) * xs
                - 2 * xs ** 2 * ys ** 3, (s - 2) * xs ** 3 * ys ** 2),
                cluster_from_json(json.loads(
                    (GOLDEN.parent / "cluster_two_on_root.json")
                    .read_text()))),
            "monomial": (monomial_map(2, 3), chain_cluster([2, 1])),
            "total-degree": (LocalMap.from_polys(
                X + Y, X ** 2 + Y ** 2), single_point(1)),
        }[case]
        budgets = []
        pencil = localeng._pencil_points

        def spied(p1, p2, contracted, budget=math.inf):
            budgets.append(budget)
            return pencil(p1, p2, contracted, budget)

        monkeypatch.setattr(localeng, "_pencil_points", spied)
        got = pullback_cluster(f, k, 0)
        assert budgets == [want]
        assert self_intersection(got) <= want

    def test_siblings_spend_the_budget(self, monkeypatch):
        # (x^3, y^3)*[3, 3, 3] has budget 9 * 27 = 243 and a root of
        # weight 9, then an orbit-1 chain of six points of weight 3 and an
        # orbit-2 chain over an adjoined level; the orbit-2 branch gets
        # (243 - 81 - 6 * 9) // 2 = 54, not 243 - 81 = 162
        f, k = monomial_map(3, 3), chain_cluster([3, 3, 3])
        f1, f2 = (field.int_poly(g.tower, g.poly.terms) for g in (f.f1, f.f2))
        w, z = (localeng._compose_int(g.poly, f1, f2)
                for g in curves_through(k, 0))
        want = cluster_to_json(localeng._entries_to_cluster(
            localeng._pencil_points(w, z, None)))
        tops = []
        chart = localeng._chart_int

        def spy(p, m, c, top=math.inf, rows=None):
            if p.tower.depth:
                tops.append(top)
            return chart(p, m, c, top, rows)

        monkeypatch.setattr(localeng, "_chart_int", spy)
        got = pullback_cluster(f, k, 0)
        assert cluster_to_json(got) == want
        assert sorted(n.orbit for n in got.forest.nodes) == [1] * 7 + [2] * 6
        assert 0 < len(tops) and max(tops) <= 54

    def test_budget_below_the_root_weight(self):
        # the cusp pencil (y^2 - x^3, x^2) has one base point, nu = 2 and
        # I_0 = 4
        p1, p2 = Y ** 2 - X ** 3, X ** 2
        k = localeng._entries_to_cluster(
            localeng._pencil_points(p1, p2, None, 4))
        assert weight_list(k) == [2]
        with pytest.raises(BudgetExceeded, match="colength"):
            localeng._pencil_points(p1, p2, None, 3)

    def test_transform_truncated_to_zero(self):
        # (y, y - x^5) has five simple base points and I_0 = 5; with a
        # budget of 1 the child keeps no term of degree <= 0
        k = localeng._entries_to_cluster(
            localeng._pencil_points(Y, Y - X ** 5, None, 5))
        assert weight_list(k) == [1] * 5
        for budget in (1, 4):
            with pytest.raises(BudgetExceeded, match="zero"):
                localeng._pencil_points(Y, Y - X ** 5, None, budget)


class TestModulusSplitInsideRecursion:
    """A D5 split in the middle of each blowup recursion.

    Over Q(s), s^2 = 2, the tangent cone of B = y^2 - 2x^2 is adjoined as
    t^2 = 2, which factors as (t - s)(t + s); the branch is redone in each
    factor.  The aborted branch consumes the id q002."""

    def setup_method(self):
        x = BiPoly.variable("x", Q_S)
        y = BiPoly.variable("y", Q_S)
        s = BiPoly(Q_S, {(0, 0): generator(Q_S)})
        self.x, self.y, self.s = x, y, s
        self.B = y ** 2 - 2 * x ** 2

    def test_mult_cluster(self):
        x, y, s, B = self.x, self.y, self.s, self.B
        g = B ** 2 + (y - s * x) * x ** 5 + (y - s * x) * x ** 6
        assert ids_weights_orbits(mult_cluster(Germ(g))) == (
            ["q001", "q003", "q005", "q004"], [4, 2, 2, 2], [1, 1, 1, 1])

    def pair(self):
        x, y, s, B = self.x, self.y, self.s, self.B
        return B + (y - s * x) ** 3, B + x ** 4

    def test_shared_cluster(self):
        a, b = self.pair()
        want = (["q001", "q003", "q005", "q004"], [2, 1, 1, 1], [1, 1, 1, 1])
        ka, kb = shared_cluster(Germ(a), Germ(b))
        assert ids_weights_orbits(ka) == want
        assert ids_weights_orbits(kb) == want

    def test_base_points_and_degree(self):
        f = LocalMap.from_polys(*self.pair())
        assert ids_weights_orbits(base_points(f)) == (
            ["q001", "q003", "q005", "q004"], [2, 1, 1, 1], [1, 1, 1, 1])
        assert local_degree(f) == 7


@contextlib.contextmanager
def charting_every_direction():
    """A patch under which ``mult_cluster`` charts every tangent
    direction, as the pencil and shared-point steps do, with the
    multiplicity floor of its recursion forced to 1."""
    blowups = localeng._blowups
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localeng, "_blowups",
                   lambda *args, **kw: blowups(*args, **{**kw, "least": 1}))
        yield


def counted_mult_cluster(p):
    """(the cluster JSON of p, or the exception's type and text; the
    number of D5 tower splits on the way)."""
    seen = []
    split = field.split_tower

    def counted(*args):
        seen.append(args)
        return split(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "split_tower", counted)
        try:
            out = cluster_to_json(mult_cluster(Germ(p)))
        except (BudgetExceeded, ModulusSplit, NonReducedGerm) as e:
            out = (type(e).__name__, str(e))
    return out, len(seen)


@st.composite
def tangent_products(draw, tw):
    """One to three factors over ``tw``, each the power l^e (e = 1, 2) of a
    linear form from a small set, or (y^2 - d x^2)^r (r = 1, 2, e = 2r;
    irrational over Q for d = 2, 3, -1, and over Q(s), s^2 = 2, split for
    d = 2), plus one term of degree e + 1 or e + 2: tangent cones whose
    directions are simple, repeated, shared between factors, vertical or
    conjugate."""
    x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
    consts = [BiPoly.const(v, tw) for v in (0, 1, -1, 2)]
    if tw.levels:
        consts.append(BiPoly(tw, {(0, 0): generator(tw)}))
    p = BiPoly.const(1, tw)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            a, b = draw(st.tuples(st.sampled_from(consts),
                                  st.sampled_from(consts)).filter(
                lambda ab: not (ab[0].is_zero() and ab[1].is_zero())))
            e = draw(st.integers(1, 2))
            lead = (a * x + b * y) ** e
        else:
            r = draw(st.integers(1, 2))
            e = 2 * r
            lead = (y ** 2 - draw(st.sampled_from([2, 3, -1])) * x ** 2) ** r
        k = draw(st.integers(e + 1, e + 2))
        i = draw(st.integers(0, k))
        c = draw(st.sampled_from(consts[1:]))
        p = p * (lead + c * x ** i * y ** (k - i))
    return p


def assert_matches_charting_every_direction(tw, p):
    """Both routes give the same output and D5 splits, except where one
    of them raises the split of t over Q(t), t^2 = 1: that tower is
    Q x Q, where inverting a unit can meet a zero divisor of t.  Each
    route then either raises that split or returns the cluster JSON that
    both specializations t = 1 and t = -1 give, as ``TestReducibleTower``
    states."""
    got = counted_mult_cluster(p)
    with charting_every_direction():
        want = counted_mult_cluster(p)
    split = ("ModulusSplit", "modulus for 't' splits")
    if tw != Q_T1 or split not in (got[0], want[0]):
        assert got == want, p
        return
    at_1, at_minus_1 = (counted_mult_cluster(at_t(p, v))[0] for v in (1, -1))
    for out, _ in (got, want):
        assert out == split or out == at_1 == at_minus_1, (p, out)


class TestSimpleDirections:
    """``mult_cluster`` skips every tangent direction of multiplicity 1, as
    no point of multiplicity >= 2 lies there; over a field tower its
    output, exceptions and D5 splits are those of the recursion that
    charts every direction."""

    @pytest.mark.parametrize("tw", [QQ, Q_S, Q_T1],
                             ids=["QQ", "Q(s)", "Q(t)"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_charting_every_direction(self, tw, data):
        p = data.draw(tangent_products(tw))
        assume(p.order() >= 1)
        assert_matches_charting_every_direction(tw, p)

    def test_split_below_an_orbit_over_q_t(self):
        # a rare draw of the test above: the charting route inverts the
        # unit T'(c) at a simple direction below the orbit-2 point, over
        # a level that factors, and meets a zero divisor of t on the way
        x, y = BiPoly.variable("x", Q_T1), BiPoly.variable("y", Q_T1)
        t = BiPoly(Q_T1, {(0, 0): generator(Q_T1)})
        p = ((x + y + y ** 2) * ((x ** 2 + y ** 2) ** 2 + t * y ** 6)
             * ((x ** 2 + y ** 2) ** 2 + x ** 5 * y))
        assert_matches_charting_every_direction(Q_T1, p)
        assert ids_weights_orbits(mult_cluster(Germ(p))) == (
            ["q001", "q002"], [9, 4], [1, 2])
        with charting_every_direction(), pytest.raises(
                ModulusSplit, match="'t'"):
            mult_cluster(Germ(p))

    def test_depth_cap_counts_skipped_children(self):
        # y^2 - x^129 has 64 points of multiplicity 2, at depths 0 to 63
        # ("depth-64" above); y^2 - x^130 has a 65th at depth 64, the cap,
        # whose directions 1 and -1 are simple: they are skipped, but the
        # recursion that visits them passes the cap, so both raise
        with pytest.raises(BudgetExceeded, match="64 blowups"):
            mult_cluster(Germ(Y ** 2 - X ** 130))
        with charting_every_direction(), pytest.raises(BudgetExceeded):
            mult_cluster(Germ(Y ** 2 - X ** 130))

    @pytest.mark.parametrize("every, finite, vertical", [
        (False, [0], 0), (True, [1, 0], 1)], ids=["skipped", "charted"])
    def test_charts_no_simple_direction(self, monkeypatch, every, finite,
                                        vertical):
        # the tangent cone y^2 (y - x) x has direction 0 of multiplicity 2,
        # direction 1 and the vertical one of multiplicity 1
        roots, axes = [], []
        chart, relabel = localeng._chart_int, localeng._relabel

        def chart_spy(p, m, c, *args):
            roots.append(c)
            return chart(p, m, c, *args)

        def relabel_spy(p, m, axis, *args):
            axes.append(axis)
            return relabel(p, m, axis, *args)

        monkeypatch.setattr(localeng, "_chart_int", chart_spy)
        monkeypatch.setattr(localeng, "_relabel", relabel_spy)
        p = (Y ** 2 - X ** 3) * (Y - X) * (X - Y ** 2)
        with charting_every_direction() if every else contextlib.nullcontext():
            k = mult_cluster(Germ(p))
        assert weight_list(k) == [4]
        assert roots == finite
        assert axes.count("y") == vertical
