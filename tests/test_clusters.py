"""Enriques forests, proximity, consistency and Harbourne constants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriques import (EmptyCluster, EnriquesForest, ForestViolation, Node,
                      WeightedMultiCluster, chain_cluster, cluster_from_json,
                      cluster_to_json, excesses, harbourne_constant,
                      is_consistent, noether_intersection, self_intersection,
                      single_point, validate_forest, virtual_codimension)


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
        t = WeightedMultiCluster([Node("a", orbit=252), Node("b", orbit=189)],
                                 {"a": 3, "b": 4})
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
        k = WeightedMultiCluster(
            [Node("a", orbit=120), Node("b", orbit=45), Node("c", orbit=36)],
            {"a": 3, "b": 4, "c": 5})
        assert k.size() == 201
        assert harbourne_constant(2025, k) == Fraction(-225, 67)

    def test_weight_zero_counts(self):
        assert harbourne_constant(4, single_point(0)) == 4

    def test_empty_rejected(self):
        k = WeightedMultiCluster(EnriquesForest(()), {})
        with pytest.raises(EmptyCluster):
            harbourne_constant(1, k)


class TestProperties:
    @given(small_clusters())
    @settings(max_examples=80, deadline=None)
    def test_noether_diagonal(self, k):
        assert noether_intersection(k, k) == self_intersection(k)

class TestJson:
    def test_roundtrip(self):
        k = chain_cluster([3, 2, 1], satellites={2: 0}, orbit=2)
        assert cluster_from_json(cluster_to_json(k)) == k

    def test_string_nodes_rejected(self):
        # a string is iterable, but "" is not the empty cluster
        with pytest.raises(TypeError, match="'nodes' is not a list"):
            cluster_from_json({"nodes": ""})

    @pytest.mark.parametrize("nodes, weights, match", [
        ([Node("p"), Node("q", "p")], {"p": 1}, "missing weight for q"),
        ([Node("p")], {"p": 1, "r": 2}, r"unknown nodes \['r'\]"),
        ([Node("p"), Node("p")], {"p": 1}, "DuplicateId: p"),
        # a negative multiple of a cluster is no cluster
        ([Node("p"), Node("q", "p")], {"p": -3, "q": -1},
         "negative weight at p")],
        ids=["missing", "unknown", "invalid-forest", "negative-multiple"])
    def test_bad_cluster_rejected(self, nodes, weights, match):
        with pytest.raises(ForestViolation, match=match):
            WeightedMultiCluster(nodes, weights)

    def test_negative_weight_rejected(self):
        with pytest.raises(ForestViolation):
            WeightedMultiCluster([Node("p")], {"p": -1})

    def test_repr(self):
        k = chain_cluster([2, 1], orbit=2)
        assert repr(k) == "WeightedMultiCluster(q1:2x2, q2:1x2)"
