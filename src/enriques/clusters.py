"""Enriques forests of infinitely near points and weighted multi-clusters.

A forest node records its immediate predecessor (parent) and, when the
point is satellite, the strict ancestor it is additionally proximate to
(second_proximity).  Galois-conjugate points are stored once with an
orbit size.  Weighted clusters attach an integer multiplicity to every
node; consistency means all proximity excesses are non-negative.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyCluster, ForestViolation
from .field import json_value


@dataclass(frozen=True)
class Node:
    id: str
    parent: str | None = None
    second_proximity: str | None = None
    orbit: int = 1


class EnriquesForest:
    """An immutable forest of infinitely near points, ancestor-first."""

    def __init__(self, nodes):
        nodes = tuple(nodes)
        violations, depth = _walk(nodes)
        if violations:
            raise ForestViolation("; ".join(violations))
        self.nodes = tuple(sorted(nodes, key=lambda n: (depth[n.id], n.id)))
        self.by_id = {n.id: n for n in self.nodes}
        self.children = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent is not None:
                self.children[n.parent].append(n.id)

    def __eq__(self, other):
        return isinstance(other, EnriquesForest) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def roots(self):
        return [n.id for n in self.nodes if n.parent is None]


def validate_forest(nodes):
    """All EnriquesForest invariant violations of a node sequence, as
    strings (empty iff valid)."""
    return _walk(nodes)[0]


def _walk(nodes):
    """(``validate_forest``'s list, each node's depth from the same walk)."""
    out = []
    seen = {}
    for n in nodes:
        if n.id in seen:
            out.append(f"DuplicateId: {n.id}")
        seen[n.id] = n
    for n in nodes:
        if n.orbit < 1:
            out.append(f"BadOrbit: {n.id}")
        if n.parent is not None and n.parent not in seen:
            out.append(f"MissingParent: {n.id}")
        if n.parent == n.id:
            out.append(f"SelfParent: {n.id}")
    # acyclicity of parent edges (memoized so long chains stay linear)
    depth = {}
    for n in nodes:
        path = []
        on_path = set()
        cur = n.id
        while cur is not None and cur not in depth:
            if cur in on_path:
                out.append(f"ParentCycle: {n.id}")
                return out, depth
            path.append(cur)
            on_path.add(cur)
            nxt = seen[cur].parent if cur in seen else None
            cur = nxt if nxt in seen else None
        d = depth[cur] if cur is not None else -1
        for nid in reversed(path):
            d += 1
            depth[nid] = d
    for n in nodes:
        if n.second_proximity is None:
            continue
        if n.parent is None:
            out.append(f"SatelliteRoot: {n.id}")
            continue
        if n.second_proximity == n.parent:
            out.append(f"DuplicateProximity: {n.id}")
            continue
        # must be a strict ancestor of the parent
        anc = []
        cur = seen[n.parent].parent if n.parent in seen else None
        while cur is not None:
            anc.append(cur)
            cur = seen[cur].parent if cur in seen else None
        if n.second_proximity not in anc:
            out.append(f"IllegalSatellite: {n.id}")
    for n in nodes:
        # a parent orbit below 1 is already a BadOrbit
        if n.parent in seen and seen[n.parent].orbit >= 1:
            if n.orbit % seen[n.parent].orbit != 0:
                out.append(f"OrbitNotMultipleOfParent: {n.id}")
    return out, depth


class WeightedMultiCluster:
    """A forest with an integer weight per node."""

    def __init__(self, forest, weights):
        if not isinstance(forest, EnriquesForest):
            forest = EnriquesForest(forest)
        self.forest = forest
        self.weights = dict(weights)
        for n in forest.nodes:
            if n.id not in self.weights:
                raise ForestViolation(f"missing weight for {n.id}")
            if self.weights[n.id] < 0:
                raise ForestViolation(f"negative weight at {n.id}")
        extra = set(self.weights) - set(forest.by_id)
        if extra:
            raise ForestViolation(f"weights for unknown nodes {sorted(extra)}")

    def __eq__(self, other):
        return (isinstance(other, WeightedMultiCluster)
                and self.forest == other.forest
                and self.weights == other.weights)

    def __repr__(self):
        bits = ", ".join(f"{n.id}:{self.weights[n.id]}"
                         + (f"x{n.orbit}" if n.orbit > 1 else "")
                         for n in self.forest.nodes)
        return f"WeightedMultiCluster({bits})"

    # -- counts ---------------------------------------------------------
    def size(self):
        """|K|: number of points counted with orbit size (weight-0 included)."""
        return sum(n.orbit for n in self.forest.nodes)


def excesses(k):
    """Proximity excess per node, orbit-relative: the weight of q minus
    the weights of the points proximate to q.

    A point q' is proximate to q when q is its parent or its second
    proximity, and to no other point.  In an orbit of size o' it
    contributes its weight once per conjugate lying over each conjugate
    of q, i.e. with factor o'/o_q, an integer: ``EnriquesForest`` makes
    each orbit a multiple of its parent's, and q is an ancestor.
    """
    f = k.forest
    rho = {n.id: k.weights[n.id] for n in f.nodes}
    for c in f.nodes:
        for nid in (c.parent, c.second_proximity):
            if nid is not None:
                rho[nid] -= c.orbit // f.by_id[nid].orbit * k.weights[c.id]
    return rho


def is_consistent(k):
    return all(v >= 0 for v in excesses(k).values())


def self_intersection(k):
    return sum(n.orbit * k.weights[n.id] ** 2 for n in k.forest.nodes)


def virtual_codimension(k):
    w = k.weights
    return sum(n.orbit * w[n.id] * (w[n.id] + 1) // 2 for n in k.forest.nodes)


def noether_intersection(a, b):
    """Sum of orbit * nu * mu over shared nodes (missing weights are 0)."""
    total = 0
    for n in a.forest.nodes:
        if n.id in b.weights:
            total += n.orbit * a.weights[n.id] * b.weights[n.id]
    return total


def harbourne_constant(c_self_int, mults):
    n = mults.size()
    if n < 1:
        raise EmptyCluster("Harbourne constant needs at least one point")
    return Fraction(c_self_int - self_intersection(mults), n)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def single_point(weight, orbit=1, nid="p"):
    return WeightedMultiCluster([Node(nid, orbit=orbit)], {nid: weight})


def chain_cluster(weights, satellites=None, orbit=1):
    """A totally ordered cluster q1 <- q2 <- ... with optional satellites.

    ``satellites`` maps node index (0-based) to the index of the strict
    ancestor (of its parent) it is additionally proximate to.
    """
    satellites = satellites or {}
    nodes = []
    for i, _ in enumerate(weights):
        nid = f"q{i + 1}"
        parent = f"q{i}" if i > 0 else None
        sp = f"q{satellites[i] + 1}" if i in satellites else None
        nodes.append(Node(nid, parent, sp, orbit))
    return WeightedMultiCluster(
        nodes, {f"q{i + 1}": w for i, w in enumerate(weights)})


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def cluster_to_json(k):
    return {"nodes": [{"id": n.id, "parent": n.parent,
                       "second_proximity": n.second_proximity,
                       "orbit": n.orbit, "mult": k.weights[n.id]}
                      for n in k.forest.nodes]}


def cluster_from_json(data):
    """A cluster from JSON: string ids, None where a node has no parent or
    second proximity, and integer orbits and weights, else TypeError.  The
    forest is built before any weight is read, so a forest violation is
    reported ahead of a malformed weight."""
    entries = [json_value(nd, dict, "node") for nd in json_value(
        json_value(data, dict, "cluster")["nodes"], list, "nodes")]

    def ref(nd, key):
        v = nd.get(key)
        return None if v is None else json_value(v, str, key)

    nodes = [Node(json_value(nd["id"], str, "id"), ref(nd, "parent"),
                  ref(nd, "second_proximity"),
                  json_value(nd.get("orbit", 1), int, "orbit"))
             for nd in entries]
    forest = EnriquesForest(nodes)
    weights = {n.id: json_value(nd["mult"], int, "mult")
               for n, nd in zip(nodes, entries)}
    return WeightedMultiCluster(forest, weights)
