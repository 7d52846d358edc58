"""Plane curve configurations and Kummer-cover transport.

Configurations are combinatorial: a degree, component summaries, and a
list of singular clusters with placement tags saying where they sit
relative to the coordinate triangle (generic, at a coordinate vertex, or
at a generic point of a coordinate line).  The Kummer endomorphism
[x:y:z] -> [x^k:y^k:z^k] transports this data; the local clusters at
tagged points are pulled back exactly by the local engine using the
monomial germs (x^k, y^k) and (x^k, y).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .clusters import (WeightedMultiCluster, cluster_from_json,
                       cluster_to_json, self_intersection, single_point,
                       chain_cluster)
from .errors import EmptyCluster, HypothesisViolated, PlacementConflict
from .field import json_value
from .localeng import monomial_map, pullback_cluster

GENERIC = "generic"
VERTEX = "vertex"
LINE = "line"
PLACEMENTS = (GENERIC, VERTEX, LINE)


@dataclass(frozen=True)
class SingularSpec:
    cluster: WeightedMultiCluster
    count: int
    placement: str = GENERIC


@dataclass(frozen=True)
class PlaneConfig:
    """degree, components [(deg, count)], singular clusters, and the number
    of coordinate vertices sitting at smooth points of the curve.

    A configuration carries counts, not incidences, so only global counts
    are checked, by the genus formula (``_check_genus``).  Known limit: n
    lines with two points that share two lines pass it, as 4 lines with 2
    triple points do (2 C(3, 2) = 6 = C(4, 2)), though two lines meet
    only once."""

    degree: int
    components: tuple
    sing: tuple
    smooth_vertex_marks: int = 0

    def __post_init__(self):
        for s in self.sing:
            if s.count < 1:
                raise ValueError(f"count must be >= 1, not {s.count}")
            if s.placement not in PLACEMENTS:
                raise ValueError(f"unknown placement {s.placement!r}")
        vertices = (sum(s.count for s in self.sing if s.placement == VERTEX)
                    + self.smooth_vertex_marks)
        if vertices > 3:
            raise PlacementConflict("more than three coordinate vertices used")
        _check_genus(self)


def _delta(k):
    """delta(K), the sum of orbit * e(e - 1)/2 over the points of K of
    weight e: the delta invariant of a curve whose multiplicity cluster
    is K."""
    return sum(n.orbit * k.weights[n.id] * (k.weights[n.id] - 1) // 2
               for n in k.forest.nodes)


def _check_genus(c):
    """The genus formula's bounds on the curve of degree d whose
    components and singular points ``c`` lists.  Its delta invariant is
    the sum of count * ``_delta`` over the singular points, smooth points
    adding 0 (Noether's formula; Casas-Alvero, *Singularities of Plane
    Curves*, ch. 3), and:

    * the component degrees, each times its count, sum to d;
    * delta >= the sum of d_i d_j over the pairs of components: by
      Bezout two components meet in d_i d_j points counted with their
      intersection numbers, and at each point delta is at least the sum
      of the intersection numbers of its components there;
    * delta <= C(d, 2): a reduced curve with r <= d components has
      delta <= (d - 1)(d - 2)/2 + r - 1, as its genus is at least 1 - r.

    For n lines with ordinary points the two bounds give delta = C(n, 2),
    every pair of lines meeting at one of the points."""
    d = c.degree
    total = sum(deg * cnt for deg, cnt in c.components)
    if total != d:
        raise PlacementConflict(
            f"component degrees sum to {total}, not the degree {d}")
    delta = sum(s.count * _delta(s.cluster) for s in c.sing)
    pairs = (d * d - sum(cnt * deg * deg for deg, cnt in c.components)) // 2
    if pairs > delta:
        raise PlacementConflict(f"components meet in {pairs} points, more "
                                f"than the delta {delta} of the singular "
                                "points")
    if delta > d * (d - 1) // 2:
        raise PlacementConflict(f"delta {delta} of the singular points "
                                f"exceeds C({d}, 2) = {d * (d - 1) // 2}")


def sigma_m2(c):
    return sum(s.count * self_intersection(s.cluster) for s in c.sing)


def mult_size(c):
    return sum(s.count * s.cluster.size() for s in c.sing)


def h_index(c):
    """Harbourne index h(C) = H(C, Mult(C))."""
    n = mult_size(c)
    if n < 1:
        raise EmptyCluster("configuration has no singular points")
    return Fraction(c.degree ** 2 - sigma_m2(c), n)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def triangle():
    """Three concurrent lines in general position w.r.t. the coordinate
    triangle; each coordinate vertex lies on one line (smoothly)."""
    return PlaneConfig(
        degree=3,
        components=((1, 3),),
        sing=(SingularSpec(single_point(3), 1, GENERIC),),
        smooth_vertex_marks=3)


def fermat(k):
    """The k-th Fermat arrangement of 3k lines."""
    if k < 2:
        raise ValueError("Fermat arrangement needs k >= 2")
    return PlaneConfig(
        degree=3 * k,
        components=((1, 3 * k),),
        sing=(SingularSpec(single_point(3), k * k, GENERIC),
              SingularSpec(single_point(k), 3, VERTEX)))


def wiman(vertex_triples=0):
    """Wiman's arrangement of 45 lines: 120 triple, 45 quadruple and 36
    quintuple ordinary points.  Optionally tag up to three of the triple
    points as coordinate vertices."""
    if not 0 <= vertex_triples <= 3:
        raise PlacementConflict("at most three triple points can be vertices")
    sing = [SingularSpec(single_point(3), 120 - vertex_triples, GENERIC)]
    if vertex_triples:
        sing.append(SingularSpec(single_point(3), vertex_triples, VERTEX))
    sing.append(SingularSpec(single_point(4), 45, GENERIC))
    sing.append(SingularSpec(single_point(5), 36, GENERIC))
    return PlaneConfig(degree=45, components=((1, 45),), sing=tuple(sing))


def klein_lines():
    """Klein's arrangement of 21 lines (21 quadruple + 28 triple points)."""
    return PlaneConfig(
        degree=21,
        components=((1, 21),),
        sing=(SingularSpec(single_point(4), 21, GENERIC),
              SingularSpec(single_point(3), 28, GENERIC)))


def klein_polars():
    """The union of the 21 polars of the Klein quartic's bitangent-like
    configuration: degree 63 with 42 nodes, 252 triple and 189 quadruple
    ordinary points."""
    return PlaneConfig(
        degree=63,
        components=((3, 21),),
        sing=(SingularSpec(single_point(2), 42, GENERIC),
              SingularSpec(single_point(3), 252, GENERIC),
              SingularSpec(single_point(4), 189, GENERIC)))


# ---------------------------------------------------------------------------
# Kummer transport
# ---------------------------------------------------------------------------

def kummer_pullback(c, k, seed=0):
    """Transport a configuration through the degree-k^2 Kummer cover.

    Generic singular points get k^2 isomorphic copies; a point at a
    coordinate vertex has one preimage with the cluster pulled back under
    (x^k, y^k); a point on a coordinate line has k preimages pulled back
    under (x^k, y); a coordinate vertex at a smooth point contributes one
    ordinary point of multiplicity k.  A pullback under (x^k, y^b) with
    (f*K)^2 != deg f K^2, deg f = k b, raises ``PlacementConflict``.
    """
    if k < 2:
        raise ValueError("Kummer exponent must be >= 2")

    def pulled(cluster, b):
        pb = pullback_cluster(monomial_map(k, b), cluster, seed)
        if self_intersection(pb) != k * b * self_intersection(cluster):
            raise PlacementConflict(
                f"pullback square does not scale by deg f = {k * b}")
        return pb

    new_sing = []
    for sp in c.sing:
        if sp.placement == GENERIC:
            new_sing.append(SingularSpec(sp.cluster, sp.count * k * k))
        elif sp.placement == VERTEX:
            new_sing.append(SingularSpec(pulled(sp.cluster, k), sp.count))
        else:
            new_sing.append(SingularSpec(pulled(sp.cluster, 1), sp.count * k))
    if c.smooth_vertex_marks:
        new_sing.append(SingularSpec(pulled(single_point(1), k),
                                     c.smooth_vertex_marks))
    return PlaneConfig(
        degree=k * c.degree,
        components=tuple((deg * k, cnt) for deg, cnt in c.components),
        sing=tuple(new_sing))


def theorem_b_family(k, seed=0):
    """h of the Kummer pullback of Wiman's arrangement with three of the
    triple points placed at the coordinate vertices."""
    return h_index(kummer_pullback(wiman(vertex_triples=3), k, seed))


def pullback_theorem_check(c, k, seed=0):
    """(H(f*C, f*K), H(C, K), strict_expected) for K = Mult(C).

    Smooth vertex marks are not part of K, so their preimages are left
    out of the pulled-back cluster.  With N = d^2 - sum count K^2 and
    S = sum count |K|, h = N / S.  The cover scales N by k^2 exactly, as
    every placement's squares add up to k^2 K^2, while S' <= k^2 S, with
    S' < k^2 S when a cluster sits at a vertex: there the local germ
    (x^k, y^k) has multiplicity k > 1.  The germ (x^k, y) at a generic
    point of a coordinate line has multiplicity 1, so line placements do
    not, by themselves, lower S'.  So h' = k^2 N / S' < N / S exactly
    when N < 0 and a vertex placement exists; at N = 0 both are 0.
    """
    rhs = h_index(c)
    if rhs > 0:
        raise HypothesisViolated("the theorem needs H(C, K) <= 0")
    stripped = replace(c, smooth_vertex_marks=0)
    new = kummer_pullback(stripped, k, seed)
    lhs = h_index(new)
    strict_expected = rhs < 0 and VERTEX in {sp.placement for sp in c.sing}
    return lhs, rhs, strict_expected


def strict_gap_demo(c, k, variant="smooth", seed=0):
    """A Kummer cover that strictly lowers the Harbourne index.

    variant 'smooth': pick a fresh coordinate triangle with its three
    vertices at smooth points of C (needs -k^2 < h(C) < 0); the old
    placements become generic under the new coordinates.  variant
    'vertex': move one ordinary singular point to a coordinate vertex.
    """
    old_h = h_index(c)
    if old_h >= 0:
        raise HypothesisViolated("needs a configuration with h < 0")
    if variant == "smooth":
        if Fraction(-k * k) >= old_h:
            raise HypothesisViolated("needs -k^2 < h(C)")
        sing = tuple(replace(sp, placement=GENERIC) for sp in c.sing)
        tagged = replace(c, sing=sing, smooth_vertex_marks=3)
    elif variant == "vertex":
        sing = list(c.sing)
        idx = next((i for i, sp in enumerate(sing)
                    if sp.placement == GENERIC
                    and len(sp.cluster.forest.nodes) == 1), None)
        if idx is None:
            raise PlacementConflict("no ordinary generic point to tag")
        sp = sing[idx]
        if sp.count > 1:
            sing[idx] = replace(sp, count=sp.count - 1)
            sing.insert(idx + 1, SingularSpec(sp.cluster, 1, VERTEX))
        else:
            sing[idx] = replace(sp, placement=VERTEX)
        tagged = replace(c, sing=tuple(sing))
    else:
        raise ValueError("variant must be 'smooth' or 'vertex'")
    new = kummer_pullback(tagged, k, seed)
    new_h = h_index(new)
    return new, old_h, new_h


def h_bound_gap(c, k):
    """Exact value of h(C) k^2 |K| / (k^2 |K| + 3) - 3 k^2 / (k^2 |K| + 3)
    together with its k -> infinity limit h(C) - 3/|K|.

    The value is h' of ``strict_gap_demo``'s smooth variant: the cover
    takes N = h |K| to k^2 N - 3 k^2 and |K| to k^2 |K| + 3, as every old
    point becomes k^2 generic ones and each of the three smooth vertex
    marks one point of square k^2."""
    h = h_index(c)
    n = mult_size(c)
    k2n = k * k * n
    value = (h * k2n - 3 * k * k) / Fraction(k2n + 3)
    limit = h - Fraction(3, n)
    return value, limit


# ---------------------------------------------------------------------------
# Klein configurations and the recursion of section 3.3
# ---------------------------------------------------------------------------

def _s_runs(level):
    """The runs (weight, count) of S_{p,level} at one of the 42 base points:
    weights level+1, level, then 4 * 3^(level-m-1) points of weight m for
    m = level-1..2.  S_1 is a single point of weight 2."""
    if level == 1:
        return [(2, 1)]
    return ([(level + 1, 1), (level, 1)]
            + [(m, 4 * 3 ** (level - m - 1)) for m in range(level - 1, 1, -1)])


def klein_S_cluster(k):
    """The totally ordered cluster S_{p,k}, expanded from its runs."""
    if k < 2:
        raise ValueError("S clusters start at k = 2")
    return chain_cluster([w for w, n in _s_runs(k) for _ in range(n)])


def _s_sums(level):
    """(sum of squared weights, point count) of S_{p,level} at one point."""
    runs = _s_runs(level)
    return sum(n * w * w for w, n in runs), sum(n for _, n in runs)


def klein_state(k):
    """The families of the cluster K_k as (label, square, size bound)
    triples; the size bound bounds the point count by submultiplicativity."""
    if k < 2:
        raise ValueError("the recursion starts at k = 2")
    square, size = _s_sums(k)
    families = [("S_k", 42 * square, 42 * size)]
    for level in range(k - 1, 0, -1):
        j = k - 1 - level
        square, size = _s_sums(level)
        families.append((f"f^{j}* S_{level}^X", 9 ** j * 6 * 42 * square,
                         9 ** j * 6 * 42 * size))
    # T = 252 triple + 189 quadruple points of the polar configuration
    families.append((f"f^{k - 1}* T", 9 ** (k - 1) * (252 * 9 + 189 * 16),
                     9 ** (k - 1) * 441))
    return tuple(families)


def klein_recursion(k):
    """(K2, size bound, h bound) for the cluster K_k from the component
    recursion: squares and size bounds scale by 9 per pullback, and the
    split at the 42 base points multiplies the S-families by 6."""
    families = klein_state(k)
    k2 = sum(sq for _, sq, _ in families)
    size = sum(sz for _, _, sz in families)
    degree = 21 * 3 ** k
    return k2, size, Fraction(degree * degree - k2, size)


def klein_closed_forms(k):
    """The closed forms printed in the source for K_k^2 and |K_k|,
    evaluated verbatim (they disagree with the component sums)."""
    k2_paper = Fraction(21, 2) * (53 * 9 ** k + 3) - 196 * 3 ** (k + 1)
    size_paper = Fraction(84 * 9 ** k - 28 * 3 ** (k + 1))
    return k2_paper, size_paper


def klein_report(k):
    """Recursion values next to the printed closed forms, with an explicit
    discrepancy flag whenever they differ."""
    k2, size, h = klein_recursion(k)
    k2_paper, size_paper = klein_closed_forms(k)
    return {
        "k": k,
        "K2_recursion": k2,
        "size_recursion": size,
        "h_bound": h,
        "K2_closed_form": k2_paper,
        "size_closed_form": size_paper,
        "discrepancy": (k2 != k2_paper) or (size != size_paper),
    }


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def config_to_json(c):
    return {
        "degree": c.degree,
        "components": [{"deg": d, "count": n} for d, n in c.components],
        "sing": [{"cluster": cluster_to_json(s.cluster), "count": s.count,
                  "placement": s.placement} for s in c.sing],
        "smooth_vertex_marks": c.smooth_vertex_marks,
    }


def config_from_json(data):
    data = json_value(data, dict, "config")

    def objects(key, what):
        return [json_value(v, dict, what)
                for v in json_value(data[key], list, key)]

    sing = tuple(SingularSpec(cluster_from_json(s["cluster"]),
                              json_value(s["count"], int, "count"),
                              s.get("placement", GENERIC))
                 for s in objects("sing", "singular point"))
    comps = tuple((json_value(cp["deg"], int, "deg", 1),
                   json_value(cp["count"], int, "count", 1))
                  for cp in objects("components", "component"))
    marks = json_value(data.get("smooth_vertex_marks", 0), int,
                       "smooth_vertex_marks", 0)
    return PlaneConfig(degree=json_value(data["degree"], int, "degree", 1),
                       components=comps, sing=sing, smooth_vertex_marks=marks)
