"""Plane configurations, Kummer transport and the Klein recursion."""

import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from enriques import configs, field
from enriques import (QQ, BiPoly, Germ, HypothesisViolated, PlaneConfig,
                      PlacementConflict, SingularSpec, chain_cluster,
                      config_from_json, config_to_json, fermat, h_bound_gap,
                      h_index, klein_closed_forms, klein_lines, klein_polars,
                      klein_recursion, klein_report, klein_S_cluster,
                      klein_state, kummer_pullback, mult_cluster,
                      pullback_theorem_check, self_intersection,
                      single_point, strict_gap_demo, theorem_b_family,
                      triangle, wiman)
from enriques.configs import (GENERIC, LINE, VERTEX, _s_sums,
                              mult_size, sigma_m2)


class TestGenerators:
    def test_triangle(self):
        c = triangle()
        assert c.degree == 3
        assert h_index(c) == 0

    def test_fermat_values(self):
        assert h_index(fermat(2)) == Fraction(-12, 7)
        assert h_index(fermat(3)) == Fraction(-9, 4)
        assert h_index(fermat(5)) == Fraction(-75, 28)

    def test_fermat_structure(self):
        c = fermat(4)
        assert c.degree == 12
        assert mult_size(c) == 16 + 3

    def test_wiman(self):
        c = wiman()
        assert c.degree == 45
        assert mult_size(c) == 201
        assert sigma_m2(c) == 2700
        assert h_index(c) == Fraction(-225, 67)
        # line-pair budget of the t-vector
        assert 120 * 3 + 45 * 6 + 36 * 10 == 990 == 45 * 44 // 2

    def test_wiman_vertex_variant(self):
        c = wiman(vertex_triples=3)
        assert h_index(c) == Fraction(-225, 67)
        assert sum(1 for sp in c.sing if sp.placement == VERTEX) == 1
        assert sum(sp.count for sp in c.sing if sp.placement == VERTEX) == 3

    def test_klein_lines(self):
        c = klein_lines()
        assert c.degree == 21
        assert h_index(c) == -3

    def test_klein_polars(self):
        c = klein_polars()
        assert c.degree == 63
        assert mult_size(c) == 483
        assert sigma_m2(c) == 5460
        assert h_index(c) == Fraction(-71, 23)


# Phi_k, low -> high: the modulus of Q(zeta_k) as one depth-1 level
CYCLOTOMIC = {3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1)}


def cluster_shape(k):
    """The cluster as (orbit, weight, parent, second proximity) per node,
    with each id replaced by its node's index."""
    index = {n.id: i for i, n in enumerate(k.forest.nodes)}
    return tuple((n.orbit, k.weights[n.id], index.get(n.parent),
                  index.get(n.second_proximity)) for n in k.forest.nodes)


def fermat_points(k):
    """(cluster shape, placement) of each singular point of the 3k lines
    x = zeta^j y, y = zeta^j z, z = zeta^j x over Q(zeta_k): the lines
    intersected pairwise and grouped by point, and ``mult_cluster`` run
    on the product of the lines through each point, in the affine chart
    of its first nonzero coordinate."""
    tw = QQ.extend("z", CYCLOTOMIC[k])
    zero, one = field.zero(tw), field.one(tw)
    powers = [one]
    for _ in range(k - 1):
        powers.append(field.mul(tw, powers[-1], field.generator(tw)))
    lines = [line for w in powers for line in (
        (one, field.neg(tw, w), zero), (zero, one, field.neg(tw, w)),
        (field.neg(tw, w), zero, one))]

    def meet(a, b):
        p = [field.sub(tw, field.mul(tw, a[i], b[j]),
                       field.mul(tw, a[j], b[i]))
             for i, j in ((1, 2), (2, 0), (0, 1))]
        lead = field.inv(tw, next(c for c in p if c))
        return tuple(field.mul(tw, c, lead) for c in p)

    through = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(lines), 2):
        through.setdefault(meet(a, b), set()).update((i, j))
    out = []
    for point, ids in through.items():
        first = next(i for i, c in enumerate(point) if c)
        u, v = (i for i in range(3) if i != first)
        # a line through the point is a_u (X_u - p_u) + a_v (X_v - p_v)
        germ = math.prod((BiPoly(tw, {(1, 0): lines[i][u],
                                      (0, 1): lines[i][v]}) for i in ids),
                         start=BiPoly.const(1, tw))
        vertex = sum(1 for c in point if c) == 1
        out.append((cluster_shape(mult_cluster(Germ(germ))),
                    VERTEX if vertex else GENERIC))
    return sorted(out)


class TestFromEquations:
    """Declared configuration data checked against the curve's equations."""

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_fermat_from_its_lines(self, k):
        want = sorted((cluster_shape(s.cluster), s.placement)
                      for s in fermat(k).sing for _ in range(s.count))
        assert fermat_points(k) == want


class TestPlaneConfigInvariants:
    def test_line_pair_budget_enforced(self):
        # 3 lines cannot carry two triple points
        with pytest.raises(PlacementConflict):
            PlaneConfig(degree=3, components=((1, 3),),
                        sing=(SingularSpec(single_point(3), 2),))

    def test_genus_budget_counts_infinitely_near_points(self):
        # five tacnode-like points [2, 1] have delta 5 > C(3, 2) = 3; the
        # line-pair budget read ordinary points only and let them pass
        with pytest.raises(PlacementConflict,
                           match=r"^delta 5 of .* exceeds C\(3, 2\) = 3$"):
            PlaneConfig(degree=3, components=((1, 3),),
                        sing=(SingularSpec(chain_cluster([2, 1]), 5),))

    @pytest.mark.parametrize("degree, components, sing, message", [
        (4, ((2, 1), (1, 2)), ((2, 10),),
         r"delta 10 of the singular points exceeds C\(4, 2\) = 6"),
        (7, ((1, 3),), ((3, 1),),
         "component degrees sum to 3, not the degree 7"),
        (4, ((1, 4),), ((2, 5),),
         "components meet in 6 points, more than the delta 5 of the "
         "singular points"),
    ], ids=["ten-nodes", "degree", "pairs"])
    def test_genus_formula(self, degree, components, sing, message):
        with pytest.raises(PlacementConflict, match=f"^{message}$"):
            PlaneConfig(degree=degree, components=components,
                        sing=tuple(SingularSpec(single_point(m), n)
                                   for m, n in sing))

    @pytest.mark.parametrize("make", [
        triangle, klein_lines, klein_polars, wiman, lambda: wiman(3),
        lambda: fermat(2), lambda: fermat(5)],
        ids=["triangle", "klein", "klein-polars", "wiman", "wiman-3",
             "fermat-2", "fermat-5"])
    def test_generators_and_kummer_pullbacks_pass(self, make):
        # built through PlaneConfig, each passed the genus formula
        c = make()
        for k in range(2, 9):
            assert kummer_pullback(c, k).degree == k * c.degree

    def test_too_many_vertices(self):
        with pytest.raises(PlacementConflict):
            PlaneConfig(degree=4, components=((1, 4),),
                        sing=(SingularSpec(single_point(2), 4, VERTEX),))

    @pytest.mark.parametrize("spec, text", [
        (SingularSpec(single_point(2), 1, "nowhere"),
         "unknown placement 'nowhere'"),
        (SingularSpec(single_point(2), 0), "count must be >= 1, not 0"),
    ], ids=["placement", "count"])
    def test_malformed_spec_is_value_error(self, spec, text):
        # the one home of these rules, read by config_from_json as well
        with pytest.raises(ValueError, match=f"^{text}$"):
            PlaneConfig(degree=2, components=((2, 1),), sing=(spec,))

    def test_kummer_spec_floor(self):
        with pytest.raises(ValueError):
            kummer_pullback(triangle(), 1)


class TestKummerTransport:
    def test_triangle_becomes_fermat(self):
        for k in (2, 3, 4):
            new = kummer_pullback(triangle(), k)
            ref = fermat(k)
            assert new.degree == ref.degree
            assert h_index(new) == h_index(ref)
            assert sigma_m2(new) == sigma_m2(ref)
            assert mult_size(new) == mult_size(ref)

    def test_degree_scales_by_k(self):
        for k in (2, 3):
            new = kummer_pullback(wiman(vertex_triples=3), k)
            assert new.degree == k * 45

    def test_generic_points_multiply(self):
        new = kummer_pullback(wiman(), 2)
        assert mult_size(new) == 4 * 201
        assert sigma_m2(new) == 4 * 2700

    @pytest.mark.parametrize("k", [2, 3])
    def test_line_placements(self, k):
        # clusters on a coordinate line are pulled back under (x^k, y);
        # each pulled-back cluster is listed as (parent, second proximity,
        # weight) per node, in canonical order
        c = PlaneConfig(
            degree=4, components=((4, 1),),
            sing=(SingularSpec(chain_cluster([2, 1]), 1, LINE),
                  SingularSpec(chain_cluster([2, 1, 1], satellites={2: 0}),
                               2, LINE),
                  SingularSpec(single_point(3), 1, LINE)))
        new = kummer_pullback(c, k)
        got = [(sp.count, sp.placement,
                [(n.parent, n.second_proximity, sp.cluster.weights[n.id])
                 for n in sp.cluster.forest.nodes])
               for sp in new.sing]
        chain = [(None, None, 2)] + [(f"q{i:03d}", None, 2)
                                     for i in range(1, k)]
        if k == 2:
            want = [(2, GENERIC, chain + [("q002", None, 1),
                                          ("q003", None, 1)]),
                    (4, GENERIC, chain + [("q002", None, 2)]),
                    (2, GENERIC, [(None, None, 3), ("q001", None, 3)])]
        else:
            want = [(3, GENERIC, chain + [("q003", None, 1),
                                          ("q004", None, 1),
                                          ("q005", None, 1)]),
                    (6, GENERIC, chain + [("q003", None, 2),
                                          ("q004", None, 1),
                                          ("q005", "q004", 1)]),
                    (3, GENERIC, [(None, None, 3), ("q001", None, 3),
                                  ("q002", None, 3)])]
        assert got == want
        assert new.degree == 4 * k
        assert h_index(new) == {2: Fraction(-5, 3), 3: Fraction(-10, 7)}[k]

    @pytest.mark.parametrize("placement, deg_f", [(VERTEX, 4), (LINE, 2),
                                                  ("smooth vertex", 4)])
    def test_square_must_scale_by_deg_f(self, monkeypatch, placement,
                                        deg_f):
        # a pulled-back cluster with (f*K)^2 != deg f K^2 is refused, for
        # f = (x^2, y^2) at a vertex or a smooth vertex and (x^2, y) on a
        # line
        monkeypatch.setattr(configs, "pullback_cluster",
                            lambda f, k, seed=0: single_point(1))
        if placement == "smooth vertex":
            c = PlaneConfig(degree=4, components=((4, 1),), sing=(),
                            smooth_vertex_marks=1)
        else:
            c = PlaneConfig(degree=4, components=((4, 1),),
                            sing=(SingularSpec(single_point(2), 1,
                                               placement),))
        with pytest.raises(PlacementConflict, match=f"deg f = {deg_f}$"):
            kummer_pullback(c, 2)


class TestTheoremB:
    def test_formula(self):
        for k in (2, 3, 5, 10, 50):
            expected = Fraction(-225, 67) * Fraction(201 * k * k,
                                                     198 * k * k + 3)
            assert theorem_b_family(k) == expected

    def test_k2_value(self):
        assert theorem_b_family(2) == Fraction(-12060, 3551)

    def test_monotone_and_bounded(self):
        vals = [theorem_b_family(k) for k in range(2, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > Fraction(-25, 7) for v in vals)


class TestPullbackTheorem:
    def test_triangle_generic(self):
        lhs, rhs, strict = pullback_theorem_check(triangle(), 2)
        assert (lhs, rhs, strict) == (0, 0, False)
        assert lhs <= rhs

    def test_wiman_vertex_strict(self):
        lhs, rhs, strict = pullback_theorem_check(wiman(vertex_triples=3), 2)
        assert strict
        assert lhs < rhs == Fraction(-225, 67)

    def test_fermat_vertex_strict(self):
        lhs, rhs, strict = pullback_theorem_check(fermat(2), 2)
        assert strict and lhs < rhs

    def test_positive_h_rejected(self):
        c = PlaneConfig(degree=5, components=((5, 1),),
                        sing=(SingularSpec(single_point(2), 1),))
        assert h_index(c) > 0
        with pytest.raises(HypothesisViolated):
            pullback_theorem_check(c, 2)


class TestStrictGap:
    def test_fermat_smooth_variant(self):
        new, old_h, new_h = strict_gap_demo(fermat(2), 3, "smooth")
        assert old_h == Fraction(-12, 7)
        assert new_h < old_h
        assert new_h == h_index(new)

    def test_wiman_vertex_variant(self):
        new, old_h, new_h = strict_gap_demo(wiman(), 2, "vertex")
        assert old_h == Fraction(-225, 67)
        assert new_h < old_h

    def test_vertex_variant_tags_a_single_point_in_place(self):
        # one of Wiman's triple points as a spec of its own, listed first
        c = wiman()
        triple = SingularSpec(single_point(3), 1)
        split = replace(c, sing=(triple, replace(c.sing[0], count=119))
                        + c.sing[1:])
        assert (strict_gap_demo(split, 2, "vertex")[1:]
                == strict_gap_demo(wiman(), 2, "vertex")[1:])

    def test_nonnegative_h_rejected(self):
        with pytest.raises(HypothesisViolated):
            strict_gap_demo(triangle(), 2, "smooth")

    def test_k_too_small_for_smooth_variant(self):
        c = klein_lines()  # h = -3
        with pytest.raises(HypothesisViolated):
            strict_gap_demo(c, 1, "smooth")


class TestHBoundGap:
    def test_triangle_limit(self):
        _, limit = h_bound_gap(triangle(), 5)
        assert limit == -3

    def test_wiman_limit(self):
        value, limit = h_bound_gap(wiman(), 7)
        assert limit == Fraction(-226, 67)
        assert value > limit

    def test_fermat3_exact(self):
        value, _ = h_bound_gap(fermat(3), 10)
        h = Fraction(-9, 4)
        n = 12
        assert value == (h * 100 * n - 300) / Fraction(100 * n + 3)


class TestKlein:
    def test_s_cluster_small(self):
        k2 = klein_S_cluster(2)
        assert [k2.weights[n.id] for n in k2.forest.nodes] == [3, 2]
        k3 = klein_S_cluster(3)
        assert [k3.weights[n.id] for n in k3.forest.nodes] == [4, 3, 2, 2, 2, 2]

    def test_s_cluster_closed_forms(self):
        from enriques import is_consistent
        for k in range(2, 11):
            c = klein_S_cluster(k)
            assert c.size() == 2 * 3 ** (k - 2)
            assert 42 * self_intersection(c) == 588 * 3 ** (k - 2) - 42
            assert is_consistent(c)

    def test_s_runs_match_built_cluster(self):
        assert _s_sums(1) == (4, 1)
        for level in range(2, 9):
            c = klein_S_cluster(level)
            assert _s_sums(level) == (self_intersection(c), c.size())

    def test_report_far_out_is_fast(self):
        start = time.perf_counter()
        rep = klein_report(40)
        assert time.perf_counter() - start < 2.0
        assert rep["discrepancy"]

    def test_recursion_k2(self):
        k2, size, h = klein_recursion(2)
        assert (k2, size) == (49182, 4305)
        assert h == Fraction(-(1283 * 81 - 81), 410 * 81)

    def test_recursion_matches_corollary(self):
        for k in range(2, 9):
            _, _, h = klein_recursion(k)
            assert h == Fraction(-(1283 * 9 ** k - 81), 410 * 9 ** k)

    def test_s1x_square(self):
        fam = dict((label, sq) for label, sq, _ in klein_state(2))
        assert fam["f^0* S_1^X"] == 6 * 42 * 4  # 1008

    def test_closed_forms_disagree(self):
        k2_paper, size_paper = klein_closed_forms(2)
        assert (k2_paper, size_paper) == (39816, 6048)
        assert klein_closed_forms(3)[0] == 389844
        rep = klein_report(2)
        assert rep["discrepancy"]
        assert rep["K2_recursion"] == 49182


class TestJson:
    def test_roundtrip(self):
        for c in (triangle(), fermat(3), wiman(vertex_triples=3),
                  klein_polars()):
            assert config_from_json(config_to_json(c)) == c

    def test_string_sing_rejected(self):
        # "sing": "" is not a configuration with no singular points
        data = dict(config_to_json(triangle()), sing="")
        with pytest.raises(TypeError, match="'sing' is not a list"):
            config_from_json(data)
