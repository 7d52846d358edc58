"""Enriques forests, proximity, consistency and Harbourne constants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriques import (EmptyCluster, EnriquesForest, ForestViolation,
                      InconsistentCluster, Node, WeightedMultiCluster,
                      chain_cluster, cluster_from_json, cluster_to_json,
                      disjoint_union, excesses, h_passing_bound,
                      harbourne_constant, hilbert_samuel_check, is_consistent,
                      noether_intersection, proximity_matrix,
                      remark_h4_monotone, self_intersection, single_point,
                      validate_forest, virtual_codimension)


@st.composite
def small_clusters(draw, max_nodes=12, max_weight=5):
    """Random consistent-or-not weighted clusters on random chains with
    optional satellite edges, all orbits 1."""
    n = draw(st.integers(1, max_nodes))
    nodes = [Node("n0")]
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        sp = None
        # a satellite must be proximate to a strict ancestor of its parent
        anc = []
        cur = nodes[parent].parent
        while cur is not None:
            anc.append(cur)
            cur = next(m for m in nodes if m.id == cur).parent
        if anc and draw(st.booleans()):
            sp = draw(st.sampled_from(anc))
        nodes.append(Node(f"n{i}", f"n{parent}", sp))
    weights = {nd.id: draw(st.integers(0, max_weight)) for nd in nodes}
    return WeightedMultiCluster(nodes, weights)


class TestValidate:
    def test_single_root_ok(self):
        assert validate_forest([Node("p")]) == []

    def test_second_proximity_equals_parent(self):
        nodes = [Node("p"), Node("q", "p"), Node("r", "q", "q")]
        assert any(v.startswith("DuplicateProximity") for v in validate_forest(nodes))

    def test_legal_satellite_chain(self):
        nodes = [Node("p"), Node("q", "p"), Node("r", "q", "p")]
        assert validate_forest(nodes) == []

    def test_illegal_satellite(self):
        # second proximity must be a strict ancestor of the parent
        nodes = [Node("p"), Node("q", "p"), Node("s", "p"), Node("r", "q", "s")]
        assert any(v.startswith("IllegalSatellite") for v in validate_forest(nodes))

    def test_missing_parent(self):
        assert any(v.startswith("MissingParent")
                   for v in validate_forest([Node("q", "ghost")]))

    def test_parent_cycle(self):
        nodes = [Node("a", "b"), Node("b", "a")]
        assert any(v.startswith("ParentCycle") for v in validate_forest(nodes))

    @pytest.mark.parametrize("nodes, want", [
        ([Node("p"), Node("p")], ["DuplicateId: p"]),
        ([Node("p", "p")], ["SelfParent: p", "ParentCycle: p"]),
        ([Node("p", None, "p")], ["SatelliteRoot: p"]),
        ([Node("p", orbit=2), Node("q", "p", orbit=3)],
         ["OrbitNotMultipleOfParent: q"])],
        ids=["duplicate", "self-parent", "satellite-root", "orbit"])
    def test_violations(self, nodes, want):
        assert validate_forest(nodes) == want

    def test_zero_orbit_parent(self):
        # reported once, not a ZeroDivisionError in the divisibility check
        nodes = [Node("p", orbit=0), Node("q", "p")]
        assert validate_forest(nodes) == ["BadOrbit: p"]


class TestExcesses:
    def test_single_point(self):
        assert excesses(single_point(3)) == {"p": 3}

    def test_free_chain(self):
        assert excesses(chain_cluster([2, 1])) == {"q1": 1, "q2": 1}

    def test_satellite_chain(self):
        k = chain_cluster([1, 1, 1], satellites={2: 0})
        assert excesses(k) == {"q1": -1, "q2": 0, "q3": 1}

    @pytest.mark.parametrize("root, want", [(9, 1), (7, -1)])
    def test_mixed_orbits(self, root, want):
        # s (orbit 4) lies over q (orbit 2) over p (orbit 1) and is also
        # proximate to p: factors 4/2 at q and 2/1, 4/1 at p
        nodes = [Node("p"), Node("q", "p", orbit=2),
                 Node("s", "q", "p", orbit=4)]
        k = WeightedMultiCluster(nodes, {"p": root, "q": 2, "s": 1})
        got = excesses(k)
        assert got == {"p": want, "q": 0, "s": 1}
        assert all(type(v) is int for v in got.values())
        assert is_consistent(k) == (want >= 0)
        assert virtual_codimension(k) == root * (root + 1) // 2 + 6 + 4


class TestConsistency:
    def test_single_point(self):
        assert is_consistent(single_point(0))
        assert is_consistent(single_point(7))

    def test_satellite_violation(self):
        assert not is_consistent(chain_cluster([1, 1, 1], satellites={2: 0}))

    def test_branching_ok(self):
        nodes = [Node("p"), Node("q1", "p"), Node("q2", "p")]
        k = WeightedMultiCluster(nodes, {"p": 3, "q1": 2, "q2": 1})
        assert is_consistent(k)


class TestSelfIntersection:
    def test_single(self):
        assert self_intersection(single_point(5)) == 25

    def test_klein_t_family(self):
        t = disjoint_union(single_point(3, orbit=252), single_point(4, orbit=189))
        assert self_intersection(t) == 5292

    def test_orbit(self):
        assert self_intersection(single_point(3, orbit=2)) == 18


class TestCodimension:
    def test_single(self):
        assert virtual_codimension(single_point(3)) == 6

    def test_chain(self):
        assert virtual_codimension(chain_cluster([2, 1, 1])) == 5

    def test_empty(self):
        k = WeightedMultiCluster(EnriquesForest(()), {})
        assert virtual_codimension(k) == 0


class TestHilbertSamuel:
    def test_single_weight_two(self):
        assert hilbert_samuel_check(single_point(2), 5)

    def test_chain(self):
        assert hilbert_samuel_check(chain_cluster([3, 1]), 5)

    def test_inconsistent(self):
        k = chain_cluster([1, 1, 1], satellites={2: 0})
        with pytest.raises(InconsistentCluster):
            hilbert_samuel_check(k, 5)

    def test_scale_keeps_weights_non_negative(self):
        # hilbert_samuel_check scales by m >= 1 only; a negative multiple
        # is no cluster
        assert chain_cluster([3, 1]).scale(2) == chain_cluster([6, 2])
        with pytest.raises(ForestViolation, match="negative weight"):
            chain_cluster([3, 1]).scale(-1)


class TestNoether:
    def test_diagonal(self):
        k = single_point(4)
        assert noether_intersection(k, k) == 16

    def test_partial_overlap(self):
        a = chain_cluster([2, 1])
        b = chain_cluster([1, 0])
        assert noether_intersection(a, b) == 2

    def test_disjoint(self):
        a = single_point(2, nid="a")
        b = single_point(3, nid="b")
        assert noether_intersection(a, b) == 0


class TestHarbourne:
    def test_triple_point(self):
        assert harbourne_constant(9, single_point(3)) == 0

    def test_wiman_numbers(self):
        k = disjoint_union(single_point(3, orbit=120),
                           single_point(4, orbit=45),
                           single_point(5, orbit=36))
        assert k.size() == 201
        assert harbourne_constant(2025, k) == Fraction(-225, 67)

    def test_weight_zero_counts(self):
        assert harbourne_constant(4, single_point(0)) == 4

    def test_empty_rejected(self):
        k = WeightedMultiCluster(EnriquesForest(()), {})
        with pytest.raises(EmptyCluster):
            harbourne_constant(1, k)


class TestHPassing:
    def test_triple(self):
        assert h_passing_bound(9, single_point(3)) == 0

    def test_unit(self):
        assert h_passing_bound(0, single_point(1)) == -1

    def test_inconsistent(self):
        with pytest.raises(InconsistentCluster):
            h_passing_bound(1, chain_cluster([1, 1, 1], satellites={2: 0}))


class TestRemarkH4:
    def test_equal_clusters_vacuous(self):
        k = single_point(3)
        assert remark_h4_monotone(9, k, k)

    def test_one_extension(self):
        k = single_point(3, nid="a")
        full = disjoint_union(single_point(3), single_point(2))
        base = full.restrict({"c0_p"})
        assert remark_h4_monotone(9, base, full)

    def test_below_minus_four_vacuous(self):
        full = disjoint_union(single_point(3), single_point(2))
        base = full.restrict({"c0_p"})
        assert remark_h4_monotone(4, base, full)  # H = -5 at the base


class TestProximityMatrix:
    def test_satellite_rows(self):
        k = chain_cluster([2, 1, 1], satellites={2: 0})
        order, mat = proximity_matrix(k.forest)
        assert order == ["q1", "q2", "q3"]
        assert mat == [[1, 0, 0], [-1, 1, 0], [-1, -1, 1]]

    @given(small_clusters())
    @settings(max_examples=80, deadline=None)
    def test_shape_properties(self, k):
        order, mat = proximity_matrix(k.forest)
        idx = {nid: i for i, nid in enumerate(order)}
        for i, row in enumerate(mat):
            assert row[i] == 1
            assert all(row[j] == 0 for j in range(i + 1, len(row)))
            assert sum(1 for v in row if v == -1) <= 2
        # ancestor-first: parents precede children
        for n in k.forest.nodes:
            if n.parent is not None:
                assert idx[n.parent] < idx[n.id]

    @given(small_clusters())
    @settings(max_examples=60, deadline=None)
    def test_gram_bookkeeping(self, k):
        # solving P^T u = v and contracting with P P^T recovers sum(v^2)
        order, mat = proximity_matrix(k.forest)
        n = len(order)
        v = [Fraction(k.weights[nid]) for nid in order]
        # back-substitute the upper-triangular system P^T u = v
        u = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            u[i] = v[i] - sum(mat[j][i] * u[j] for j in range(i + 1, n))
        total = sum(
            u[i] * sum(mat[i][t] * mat[j][t] for t in range(n)) * u[j]
            for i in range(n) for j in range(n))
        assert total == self_intersection(k)


class TestProperties:
    @given(small_clusters())
    @settings(max_examples=80, deadline=None)
    def test_noether_diagonal(self, k):
        assert noether_intersection(k, k) == self_intersection(k)

    @given(small_clusters(max_nodes=6), st.integers(-20, 40))
    @settings(max_examples=60, deadline=None)
    def test_remark_h4_always_holds(self, full, c2):
        roots = {n.id for n in full.forest.nodes if n.parent is None}
        if any(full.weights[nid] < 2 for nid in set(full.forest.by_id) - roots):
            return
        base = full.restrict(roots)
        assert remark_h4_monotone(c2, base, full)


class TestJson:
    def test_roundtrip(self):
        k = chain_cluster([3, 2, 1], satellites={2: 0}, orbit=2)
        assert cluster_from_json(cluster_to_json(k)) == k

    @pytest.mark.parametrize("nodes, weights, match", [
        ([Node("p"), Node("q", "p")], {"p": 1}, "missing weight for q"),
        ([Node("p")], {"p": 1, "r": 2}, r"unknown nodes \['r'\]"),
        ([Node("p"), Node("p")], {"p": 1}, "DuplicateId: p")],
        ids=["missing", "unknown", "invalid-forest"])
    def test_bad_cluster_rejected(self, nodes, weights, match):
        with pytest.raises(ForestViolation, match=match):
            WeightedMultiCluster(nodes, weights)

    def test_negative_weight_rejected(self):
        with pytest.raises(ForestViolation):
            WeightedMultiCluster([Node("p")], {"p": -1})

    def test_repr(self):
        k = chain_cluster([2, 1], orbit=2)
        assert repr(k) == "WeightedMultiCluster(q1:2x2, q2:1x2)"
