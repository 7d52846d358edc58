"""Resolution of plane curve germs and local map germs by blowups.

Everything happens at the origin of a smooth chart.  Blowups use the two
standard charts: for the direction y = c x substitute (x, x(y + c)) and
divide by the exceptional power; for the vertical direction substitute
(xy, y).  Satellite proximities are detected by carrying, through every
substitution, the ids of the cluster points owning the two coordinate
axes of the current chart.

Conjugate directions (roots of an irreducible tangent factor) are kept
as one branch with an orbit size; if later arithmetic discovers that an
optimistically adjoined modulus factors, the branch is redone in each
factor tower (dynamic evaluation).

One recursion, ``_blowups``, runs this process for every entry point:
the multiplicity cluster of a germ, the base points (and so the local
degree) of a map germ, and the shared points of two germs (the shared
cluster, and the certificate of the curves through a cluster).  Each entry
point passes a ``step(polys)`` that reads the current strict transforms
and returns either None (no point recorded, stop) or ``exps``, the
exceptional exponent divided out of each polynomial at the next blowup
(None: the polynomial misses the point and is carried unchanged); the
entry point reads the point's weights from ``exps`` by index, and the
first two polynomials span the tangent cone.  ``_chart_int`` works on
integer leaves: ``F.int_poly`` makes them on entry, and charts keep them.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import field as F
from .clusters import (Node, WeightedMultiCluster, excesses,
                       self_intersection, virtual_codimension)
from .errors import (BudgetExceeded, ContractedCurvePresent,
                     HypothesisViolated, ModulusSplit, NonReducedGerm,
                     RetryBudgetExceeded, UnrealizableForest)
from .field import (QQ, BiPoly, branched, from_rational, generator, pdeg,
                    pgcd, qscale, split_directions, zero)

MAX_DEPTH = 64
INF_DIR = "inf"


# ---------------------------------------------------------------------------
# Germs and local maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Germ:
    """A plane curve germ at the origin: a nonzero BiPoly vanishing there."""

    poly: BiPoly

    def __post_init__(self):
        if self.poly.is_zero():
            raise ValueError("zero polynomial is not a germ")
        if self.poly.order() < 1:
            raise ValueError("germ must vanish at the origin")

    @property
    def tower(self):
        return self.poly.tower

    def order(self):
        return self.poly.order()


@dataclass(frozen=True)
class LocalMap:
    """A map germ (f1, f2), both components non-invertible; dominance is
    checked where maps enter (``cli.parse_map``)."""

    f1: Germ
    f2: Germ

    @classmethod
    def from_polys(cls, p1, p2):
        return cls(Germ(p1), Germ(p2))


def monomial_map(a, b, tower=QQ):
    """The map germ (x^a, y^b), each component one term with coefficient
    ``one(tower)``: the value ``x ** a`` has, with no product."""
    return LocalMap.from_polys(BiPoly(tower, {(a, 0): F.one(tower)}),
                               BiPoly(tower, {(0, b): F.one(tower)}))


# ---------------------------------------------------------------------------
# Chart substitutions
# ---------------------------------------------------------------------------

def _chart_rows(tw, c, js):
    """The weight rows of the chart at a nonzero root c, for the y-degrees
    ``js``: row j holds the integer weights C(j, k) a^(j-k) b^(J-j+k),
    k = 0..j, with c = a/b, J = max js and the powers a^e scaled by one
    positive rational to integer leaves.  b is the lcm of the leaf
    denominators of c, and a = b c, with integer leaves, at every depth;
    over Q that is c's numerator over its denominator."""
    b = math.lcm(*(v.denominator for v in F.leaves(tw, [c])))
    (a,) = F._scale_leaves(tw, [c], b, 1)
    J = max(js, default=0)
    apow = [F.one(tw)]
    for _ in range(J):
        apow.append(F.mul(tw, apow[-1], a))
    apow = F.int_scale(tw, apow)[0]
    return {j: [qscale(tw, apow[j - k], comb(j, k) * b ** (J - j + k))
                for k in range(j + 1)] for j in js}


def _chart_int(p, m, c, top=math.inf, rows=None):
    """A positive rational multiple q of p(x, x(y+c)) / x^m, for p with
    integer leaves and a direction root c in p's tower, keeping only the
    terms of total degree at most ``top``.  q has integer leaves, with gcd
    1 unless c = 0: there q is p relabelled.

    Otherwise the term N x^i y^j gives N C(j, k) c^(j-k) to x^(i+j-m)
    y^k.  The weights ``_chart_rows`` at c are integers, and the sum of
    the products N times weight is a positive multiple of the
    substitution.  Within a term the output degree i + j - m + k rises
    with k, so the loop stops at the first k past ``top``.  The blowup
    recursion reads only orders, tangent directions and whether leading
    coefficients are units, none of which a nonzero rational scale
    changes.

    ``rows`` is a table at c built for any set of y-degrees that holds
    p's, such as the union over the polynomials one blowup step charts;
    without it the table is built for p's own.  The chart is the same
    either way.  A table for a larger J scales every weight by the same
    positive rational: b^(J - J_p), times the change of the common scale
    of the powers a^e, which are the same positive multiples of a^e.  So
    the sum is scaled by that factor too, and ``F.int_poly``, whose
    primitive positive integer form is unique, divides it out.  The loop
    runs over p's terms and k in the same order, so the output terms are
    inserted in the same order.

    A Taylor shift of each total-degree row is slower here: composed
    pullback polynomials have sparse rows.
    """
    tw = p.tower
    if not c:
        return _relabel(p, m, "x", top)
    if rows is None:
        rows = _chart_rows(tw, c, {j for _, j in p.terms})
    out = {}
    for (i, j), n in p.terms.items():
        base = i + j - m
        if base < 0:
            raise ValueError("division exponent exceeds vanishing order")
        for k, w in enumerate(rows[j]):
            if base + k > top:
                break
            key = (base, k)
            v = F.mul(tw, n, w)
            out[key] = F.add(tw, out[key], v) if key in out else v
    return F.int_poly(tw, out)[0]


def _relabel(p, m, axis, top=math.inf):
    """p(x, xy) / x^m (axis "x", direction 0) or p(xy, y) / y^m (axis "y"),
    keeping only the terms of total degree at most ``top``: (i, j) goes
    one-to-one to (i + j - m, j) or (i, i + j - m), so each coefficient
    moves unchanged."""
    if any(i + j < m for i, j in p.terms):
        raise ValueError("division exponent exceeds vanishing order")
    vertical = axis == "y"
    keys = (((i, i + j - m) if vertical else (i + j - m, j), n)
            for (i, j), n in p.terms.items())
    return BiPoly(p.tower, {key: n for key, n in keys
                            if key[0] + key[1] <= top})


def _form_t(p, n):
    """The degree-n form of p as a dense poly in t = y/x, plus its x-power.

    Returns (coeffs, x_mult) or (None, None) when the form is zero.
    """
    tw = p.tower
    cs = F.ptrim(tw, [p.terms.get((n - j, j), zero(tw))
                      for j in range(n + 1)])
    if not cs:
        return None, None
    return cs, n - pdeg(cs)


def _blowups(tw, polys, step, cap=MAX_DEPTH, budget=math.inf, least=1):
    """A record ``(clusters.Node, exps from step)`` of every point that
    ``step`` records, ancestor-first along each branch.

    Invariants the entry points rely on:

    * a point at depth ``cap`` with any child direction, charted or
      skipped, raises before its children are visited, so a germ needing
      more than ``cap`` blowups raises even when its last point would
      stop, whatever ``least`` skips;
    * a child direction whose multiplicity is below ``least`` is skipped:
      no chart, no ``step``, no id.  A finite direction's multiplicity is
      its factor's in the tangent cone, and ``split_directions`` never
      adjoins a factor it skips; the vertical direction's is the least
      x-multiplicity xm of the spanning forms.  The pencil and
      shared-point steps record every child they visit and keep 1;
      ``mult_cluster`` passes 2 and proves that it changes no output;
    * ids are drawn after ``step`` accepts a point and before its tangent
      cone is split, so a branch aborted by a modulus split consumes ids
      and the redone branches draw fresh ones;
    * the tangent cone is the first nonzero form of the first two
      polynomials as it is, gcd'd with the other (one is never made monic);
    * the vertical direction is taken iff every spanning form is zero or
      divisible by x^least;
    * each branch returns its own record list, so a branch that is redone
      leaves nothing behind.

    A finite ``budget`` is for the pencil step of ``pullback_cluster``:
    it bounds I_O(P1, P2) for the pair at the root O.  A recorded point of
    weight nu = ``exps[0]`` keeps ``left``, its budget minus nu^2, and
    takes its children in turn.  A child of orbit ofac times the point's
    gets the budget left // ofac.  After each direction, all the D5
    branches of its level together, ``left`` drops by the sum of orbit_e
    nu_e^2 // orbit over the records e it returned; the vertical child
    gets what is left.  Each chart into a child drops the terms of total degree
    above the child's budget.  The records are still those of the
    untruncated run, byte for byte.  Write I_p for the intersection number
    at p of the untruncated transforms and b_p for p's budget.  Every held
    transform is a rational multiple of the untruncated one with the terms
    of degree above b_p dropped, and I_p <= b_p:

    * every point visited is a base point, as both transforms pass
      through it, so I_p >= ord P1 ord P2 >= nu^2 >= 1;
    * Noether's formula for the nu-fold transforms (one of them is the
      strict one) gives I_p = nu^2 + the sum of I_q over the points q on
      the exceptional curve.  Over the closure a child q stands for r_q =
      ofac conjugate points, which have equal I, so I_p = nu^2 + the sum
      of r_q I_q over the children.  Below an earlier child q' the same
      formula gives r_q' I_q' >= the sum of orbit_e nu_e^2 / orbit over
      the records e it returned, and r_q' I_q' is an integer, so it is at
      least the floor taken here.  So r_q I_q <= left, and I_q <= left //
      r_q = b_q <= b_p - nu^2; a budget below nu^2 contradicts this and
      raises ``BudgetExceeded``, never truncates on;
    * neither transform has order above b_p, as ord P1 <= ord P1 ord P2
      <= I_p.  (So by Nakayama no term of order above b_p changes the
      ideal (P1, P2), whose colength I_p puts m^(b_p) inside it.)  Hence
      the held transforms have the untruncated orders and, up to the
      rational multiple, every form of degree <= b_p, tangent forms
      included; an empty one contradicts this and raises too;
    * a chart divides by x^nu or y^nu and lowers total degrees by at most
      nu, so a term of degree > b_p lands at degree >= b_p + 1 - nu > b_q,
      since nu^2 - nu + 1 > 0: dropping the terms above b_q after the
      chart gives the invariant at q;
    * ``F.int_poly`` rescales by a rational only, which moves no order,
      direction or unit, and ``ModulusSplit`` can come only from the
      tangent forms; so the directions, ids and D5 splits are the same.
    """
    ids = itertools.count(1)

    def rec(tw, polys, parent, second, markers, orbit, depth, budget):
        if any(p.is_zero() for p in polys):
            raise BudgetExceeded("a truncated transform is zero")
        exps = step(polys)
        if exps is None:
            return []
        left = budget - exps[0] ** 2
        if left < 0:
            raise BudgetExceeded("a point exceeds the colength budget")
        nid = f"q{next(ids):03d}"
        records = [(Node(nid, parent, second, orbit), exps)]
        forms = [_form_t(p, e) for p, e in zip(polys[:2], exps)]
        tco = functools.reduce(lambda a, b: pgcd(tw, a, b),
                               [f for f, _ in forms if f is not None])
        # a constant tangent form has no finite direction
        dirs = split_directions(tw, tco, least) if pdeg(tco) > 0 else []

        def vertical(floor):
            return all(f is None or xm >= floor for f, xm in forms)

        if depth >= cap and (pdeg(tco) > 0 or vertical(1)):
            # every child, charted or skipped, lies one blowup deeper
            raise BudgetExceeded(f"blowup recursion exceeded {cap} blowups")

        def go(t, root, ofac):
            lifted = polys if t == tw else [p.lift_to(t) for p in polys]
            top = left // ofac if left < math.inf else left
            # one weight table at the root serves every chart of the step
            rows = None if not root else _chart_rows(t, root, {
                j for p, e in zip(lifted, exps) if e is not None
                for _, j in p.terms})
            hs = [p if e is None else _chart_int(p, e, root, top, rows)
                  for p, e in zip(lifted, exps)]
            child_second = None if root else markers[1]
            return rec(t, hs, nid, child_second, (nid, child_second),
                       orbit * ofac, depth + 1, top)

        for ext, root in dirs:
            if ext == tw:
                res = go(tw, root, 1)
            else:
                # a new level runs on each D5 branch of its modulus; the
                # modulus a branch ends with gives the orbit size
                res = [e for _, r in branched(ext, ext.top_var, lambda t: go(
                    t, generator(t), len(t.top_modulus) - 1)) for e in r]
            records.extend(res)
            left -= sum(n.orbit * e[0] ** 2 for n, e in res) // orbit
        if vertical(least):
            hs = [p if e is None else _relabel(p, e, "y", left)
                  for p, e in zip(polys, exps)]
            records.extend(rec(tw, hs, nid, markers[0], (markers[0], nid),
                               orbit, depth + 1, left))
        return records

    polys = [F.int_poly(tw, p.terms)[0] for p in polys]
    return rec(tw, polys, None, None, (None, None), 1, 0, budget)


def _entries_to_cluster(records, i=0):
    """The cluster of ``_blowups`` records, node n weighted by exps[i]."""
    return WeightedMultiCluster([n for n, _ in records],
                                {n.id: e[i] for n, e in records})


# ---------------------------------------------------------------------------
# Multiplicity cluster of a reduced germ
# ---------------------------------------------------------------------------

def _repeated_part(p):
    """gcd(p, p_x, p_y): each repeated factor of p, one power lower."""
    d = p
    for g in (p.deriv("x"), p.deriv("y")):
        if not g.is_zero():
            d = F.poly_gcd(d, g)
    return d


def _rational(tw, a):
    """Whether the nonzero tower element ``a`` lies in Q."""
    while tw.levels:
        if len(a) > 1:
            return False
        a, tw = a[0], tw.sub()
    return True


def _has_unit(tw, form):
    """Check that a coefficient of the nonzero ``form`` is a unit of
    ``tw``, which need not be a field: a rational one, else the first
    that inverts.  When none inverts, the first ``ModulusSplit`` is
    raised."""
    if any(_rational(tw, c) for c in form):
        return
    split = None
    for c in form:
        try:
            F.inv(tw, c)
            return
        except ModulusSplit as e:
            split = split or e
    raise split


def mult_cluster(g):
    """The cluster of all infinitely near points of multiplicity >= 2.
    A repeated factor that is a unit at the origin is ignored.

    The recursion itself certifies that the germ is reduced, with the
    budget d(d - 1)/2 for p of total degree d; each recorded point of
    multiplicity m spends m(m - 1)/2 of it (Fulton, *Algebraic Curves*,
    ch. 7; Casas-Alvero, *Singularities of Plane Curves*):

    * reduced at the origin: let q be the product of the irreducible
      factors of p (over an algebraic closure) through the origin, each
      once.  p/q is a unit there and at every point over it, so p and q
      have the same multiplicities there.  q is a reduced curve of degree
      e <= d with r <= e components, and its genus formula bounds the sum
      of m(m - 1)/2 over the infinitely near points of the origin by
      delta_0(q) <= (e - 1)(e - 2)/2 + r - 1 <= e(e - 1)/2 <= d(d - 1)/2.
      The recursion records each conjugate orbit once, which only
      undercounts, so it ends within the budget;
    * a repeated factor h^2 with h(0) = 0 leaves multiplicity >= 2 at
      every point of a branch of h, so the recursion never ends: it
      spends the budget or hits the depth cap, each point costing >= 1.

    So a recursion that ends proves p reduced at the origin, and then no
    gcd runs.  ``_repeated_part`` runs once, at the first recorded point
    past the budget or with a transform of total degree above 2d, or at
    the depth cap: a repeated factor through the origin raises
    ``NonReducedGerm``; otherwise the recursion goes on without the
    budget, and a depth cap still raises.  The degree test only bounds
    the cost: a chart can raise the degree at every blowup, so the
    transforms along a repeated factor can grow until the budget runs
    out, while a reduced germ's recursion mostly ends before they pass
    2d.  Points of a branch that a modulus split aborts and redoes count
    twice, which can only run the gcd.

    Each step checks that the form of least degree m has a unit
    coefficient (``_has_unit``, at once over Q, where every coefficient
    is rational): the input tower need not be a field, and the levels
    adjoined for conjugate directions are adjoined optimistically.
    Every lower form is zero, so m is then the multiplicity in every
    factor of the tower; otherwise the split is raised, and dynamic
    evaluation redoes the branch in each factor.  A level that factors
    could else read multiplicity 1 where a factor has 2, and end the
    recursion on a repeated factor.

    The recursion skips every tangent direction of multiplicity 1
    (``_blowups`` with ``least`` 2): a point of multiplicity >= 2 never
    lies there, since the multiplicity of a strict transform at a point
    of the exceptional curve is at most their intersection there, the
    multiplicity of the direction as a root of the tangent cone
    (Casas-Alvero, ch. 3).  Where the tower of the point is a field, the
    output, ids, exceptions and D5 splits are those of the recursion
    that charts it, as its child would do nothing:

    * ``_chart_rows``, ``_chart_int`` and ``_relabel`` invert nothing;
    * at a simple root c of the tangent form T, the child's linear form
      has y-coefficient a positive rational times T'(c) = l g'(c) prod
      g_i(c)^i, for the lead l of T, the factor g of c and Yun's other
      factors g_i.  Over a field g is squarefree and prime to each g_i,
      so T'(c) is a unit, also when g is the modulus of a new level that
      factors;
    * at the vertical direction with xm = 1 the child's x-coefficient is
      l, which ``_yun``'s ``pmonic`` inverted (on the c t^k route it is 1,
      over Q a nonzero rational);
    * ``inv``'s Euclid over a field inverts a unit with no split, so
      ``_has_unit`` reaches that unit, catching every split before it,
      the child's order is 1 and ``step`` returns None: no record, no id
      drawn, no ``ModulusSplit``.

    Over a tower that is not a field, a product of fields, the skip still
    drops no point: Yun's Euclid inverted only units, so it ran alike in
    every component, and c is a simple root there, with T'(c) a unit.
    But inverting a unit can itself meet a zero divisor of a level below
    (``pgcd``), so the recursion that charts c can raise a split, or redo
    a branch in each factor, that this one never meets.  Over Q(t), t^2
    = 1, (x + y + y^2)((x^2 + y^2)^2 + t y^6)((x^2 + y^2)^2 + x^5 y)
    gives [9, 4 (orbit 2)] here, the cluster at t = 1 and at t = -1,
    where that recursion raises the split of t.

    A skipped child still counts for the depth cap (``_blowups``): the
    germ y^2 - x^130, whose 65th point has only simple directions, raises
    as before.
    """
    p = g.poly
    d = p.total_degree()
    left = [d * (d - 1) // 2]

    def certify():
        if _repeated_part(p).order() >= 1:
            raise NonReducedGerm("germ has a repeated factor") from None
        left[0] = math.inf

    def step(polys):
        q = polys[0]
        m = q.order()
        _has_unit(q.tower, [c for (i, j), c in q.terms.items() if i + j == m])
        if m < 2:
            return None
        left[0] -= m * (m - 1) // 2
        if left[0] < math.inf and (left[0] < 0 or q.total_degree() > 2 * d):
            certify()
        return (m,)

    try:
        return _entries_to_cluster(_blowups(g.tower, (p,), step, least=2))
    except BudgetExceeded:
        if left[0] < math.inf:
            certify()
        raise


# ---------------------------------------------------------------------------
# Local maps: fixed part, base points, local degree
# ---------------------------------------------------------------------------

def map_multiplicity(f):
    return min(f.f1.order(), f.f2.order())


def fixed_part(p1, p2):
    """(common curve F through the origin or None, (r1, r2)): p1 and p2
    with their gcd removed; r1 or r2 may be a unit.  The germ-pair entry
    points reach it through ``_coprime``; ``pullback_cluster`` calls it
    first, as its finiteness check.

    The gcd misses the origin when its constant term is a unit
    (``_has_unit``): on a tower that is not a field a nonzero constant
    can be a zero divisor, and then the gcd passes through the origin in
    some component and misses it in another, which raises that split."""
    d = F.poly_gcd(p1, p2)
    if d.total_degree() == 0:
        return None, (p1, p2)
    contracted = Germ(d) if d.order() >= 1 else None
    if contracted is None:
        _has_unit(d.tower, [d.terms[0, 0]])
    return contracted, (F.exact_div(p1, d), F.exact_div(p2, d))


def _coprime(p1, p2, run, failed):
    """``run(r1, r2, F)`` for (F, (r1, r2)) = ``fixed_part(p1, p2)``: the
    one route of the germ-pair entry points.  Germs over two towers raise
    ``ValueError`` before anything runs.

    On a tower that is not a field (``Tower.is_field``) ``fixed_part``
    runs first, as its gcd is what raises the split of a level that
    factors.  Over a field ``run(p1, p2, None)`` runs on the pair as
    given, and ``fixed_part`` runs only on its error ``failed``: a
    constant gcd raises that error again, as the quotients are the pair
    and ``run`` reads nothing else, and any other gcd gives ``run`` on the
    quotients.  So the answer is the gcd-first one if every ``run`` that
    returns on the pair returns its answer on the quotients and F.  Let h
    be the gcd of the pair:

    * ``_pencil_points`` and ``_shared_points`` (``BudgetExceeded``) never
      separate a component C through the origin that both polynomials
      share.  Both transforms at a point of C contain the strict transform
      of C, so the point is recorded, and C's tangent there is a root of
      every nonzero spanning form, so of their gcd over the field
      (``split_directions`` adjoins it, and D5 redoes a level that factors
      in each factor), or it is the vertical direction, where every
      spanning form is divisible by x.  So ``_blowups`` follows C to its
      cap and raises: a run that returns proves F empty.  A factor of h
      missing the origin is a unit at every point over it: its value there
      scales each tangent form and moves no order, direction or unit, so
      the records, ids and D5 splits are those of the quotients;
    * ``_shear_order`` (``RetryBudgetExceeded``) raises when no shear is
      admissible or a ``Res_y`` vanishes at an admissible one.  A factor
      of h of positive y-degree divides both sheared germs, so their
      ``Res_y`` vanishes; a y-free factor through the origin makes both
      restrictions to x = 0 vanish at u = 0, and at u >= 1 it is sheared
      to a factor of positive y-degree.  So an order returned needs u = 0
      and h free of y with h(0) != 0.  Then h scales the leading
      y-coefficients and the restrictions by the unit h(0) at x = 0, so
      u = 0 is admissible for the quotients r1, r2 as for the pair, and
      Res_y(h r1, h r2) = h^(deg_y r1 + deg_y r2) Res_y(r1, r2): h to a
      power is a unit at the origin, so the order is the quotients'.

    The quotients never give a vanishing ``Res_y``, so that error marks a
    pair with a nonconstant gcd.  At an admissible shear both leading
    y-coefficients are nonzero.  Over a field the sheared quotients are
    coprime, so their ``Res_y`` is nonzero.  On any other tower they are
    coprime in each component field, as ``poly_gcd``'s steps hold in
    each component or raise the split; in a component where the leading
    y-coefficient of one of them is nonzero, Res_y is a power of it times
    the resultant of two coprime polynomials, which is nonzero."""
    if p1.tower != p2.tower:
        raise ValueError("tower mismatch")
    if p1.tower.is_field:
        try:
            return run(p1, p2, None)
        except failed:
            contracted, quotients = fixed_part(p1, p2)
            if quotients == (p1, p2):
                raise
    else:
        contracted, quotients = fixed_part(p1, p2)
    return run(*quotients, contracted)


def base_points(f):
    """The weighted cluster of base points of the pencil of f."""
    return _entries_to_cluster(_map_points(f))


def _map_points(f):
    """``_pencil_points`` records of the base points of f, through
    ``_coprime``: the pencil of the quotients by the gcd of f1 and f2, the
    contracted curve F riding along."""
    return _coprime(f.f1.poly, f.f2.poly, _pencil_points, BudgetExceeded)


def _pencil_points(p1, p2, contracted, budget=math.inf):
    """``_blowups`` records of the base points of the pencil (p1, p2),
    with exps (nu, nu, fm or None): the weight, and the multiplicity of
    the contracted curve.  A finite ``budget`` bounds I_0(p1, p2) and
    truncates the transforms (``_blowups``).

    p1 and p2 are not made coprime here: ``_map_points`` passes them
    through ``_coprime``, and ``pullback_cluster`` passes a pair that
    shares no component through the origin by construction."""
    if p1.order() < 1 or p2.order() < 1:
        return []
    polys = (p1, p2) if contracted is None else (p1, p2, contracted.poly)

    def step(polys):
        # the contracted curve F, when present, rides along as a third
        # polynomial; it does not span the tangent cone
        nu = min(polys[0].order(), polys[1].order())
        fm = polys[2].order() if len(polys) > 2 else 0
        return nu, nu, fm or None

    return _blowups(p1.tower, polys, step, budget=budget)


def local_degree(f):
    """deg_p(f) = sum over base points of orbit * (nu^2 + nu * mult(F)),
    over the records of ``_map_points``."""
    return sum(n.orbit * nu * (nu + (fm or 0))
               for n, (nu, _, fm) in _map_points(f))


# ---------------------------------------------------------------------------
# Intersection multiplicity via resultants
# ---------------------------------------------------------------------------

def intersection_multiplicity(a, b):
    """Order at the origin of the intersection of two germs.

    Computed as ord_x Res_y after a shear x -> x + u y, u = 0, 1, ...,
    accepted once the leading y-coefficients survive at x = 0 and the
    restrictions to x = 0 share no zero besides the origin.  For coprime
    pa, pb of degrees d_a, d_b, u fails only if a top form vanishes at
    (u, 1) (at most d_a + d_b values) or the line x = u y meets a common
    zero off the origin (at most d_a d_b, Bezout); so past (d_a + 1)
    (d_b + 1) shears ``RetryBudgetExceeded`` is raised.  The shears run
    through ``_coprime``: on the quotients by the gcd, and infinity means
    a common component through the origin (``fixed_part``'s contracted
    curve).

    Each pair the shears run on is scaled once to primitive integer
    leaves (``F.int_poly``), and the shears keep them so.  Nothing read
    here moves: Res_y(l p, m q) = l^(deg_y q) m^(deg_y p) Res_y(p, q) for
    nonzero rationals l and m, so ord_x is the same; ``pgcd`` returns the
    monic gcd; and a nonzero rational is a unit at every depth, so no
    zero test, inversion or ``ModulusSplit`` changes.
    """
    tw = a.tower
    return _coprime(a.poly, b.poly, lambda r1, r2, contracted: (
        math.inf if contracted is not None else _shear_order(tw, r1, r2)),
        RetryBudgetExceeded)


def _shear_order(tw, pa, pb):
    """ord_x Res_y at the first admissible shear of (pa, pb), else
    ``RetryBudgetExceeded``."""
    pa, pb = (F.int_poly(tw, p.terms)[0] for p in (pa, pb))
    y = BiPoly.variable("y", tw)
    shears = (pa.total_degree() + 1) * (pb.total_degree() + 1)
    for u in range(shears):
        qa, qb = pa, pb
        if u:
            # x + u y, with the int u as its leaf
            sx = BiPoly(tw, {(1, 0): F.one(tw),
                             (0, 1): qscale(tw, F.one(tw), u)})
            qa, qb = pa.compose(sx, y), pb.compose(sx, y)
        res = _try_resultant_order(tw, qa, qb)
        if res is not None:
            return res
    raise RetryBudgetExceeded(
        f"no admissible shear x -> x + u y among the first {shears}")


def _restrict_x0(tw, p):
    dy = p.deg_y()
    cs = [p.terms.get((0, j), zero(tw)) for j in range(dy + 1)]
    return F.ptrim(tw, cs)


def _try_resultant_order(tw, qa, qb):
    """ord_x Res_y(qa, qb) when the shear is admissible, else None.  A
    ``Res_y`` that vanishes raises ``RetryBudgetExceeded``: over a field
    K, K[x][y] has Res_y(qa, qb) = 0, with both leading y-coefficients
    nonzero, exactly when qa and qb share a factor of positive y-degree."""
    ra = _restrict_x0(tw, qa)
    rb = _restrict_x0(tw, qb)
    if pdeg(ra) != qa.deg_y() or pdeg(rb) != qb.deg_y():
        return None
    g = pgcd(tw, ra, rb)
    # the only allowed common zero on the axis is the origin: gcd = y^k
    if any(g[:-1]):
        return None
    for i, c in enumerate(F.resultant_y(qa, qb)):
        if c:
            return i
    raise RetryBudgetExceeded("Res_y vanishes at an admissible shear")


# ---------------------------------------------------------------------------
# Shared cluster of two germs (Noether's formula)
# ---------------------------------------------------------------------------

def shared_cluster(a, b):
    """Clusters of the common infinitely near points of two coprime germs,
    weighted by each germ's multiplicities, over one shared forest.  A
    component through the origin that both germs share is refused
    (``_coprime``)."""

    def run(p, q, contracted):
        if contracted is not None:
            raise HypothesisViolated(
                "germs share a component through the origin")
        return _shared_points(p, q)

    records = _coprime(a.poly, b.poly, run, BudgetExceeded)
    return _entries_to_cluster(records, 0), _entries_to_cluster(records, 1)


def _shared_points(p, q, cap=MAX_DEPTH):
    """``_blowups`` records of the points p and q share, with exps their
    multiplicities (m_p, m_q).  A component through the origin that p and
    q share is never separated, so then ``BudgetExceeded`` is raised past
    ``cap`` blowups.

    A point with a multiplicity 0 has no children, so the d ancestors of
    a point at depth d all have both multiplicities >= 1, and the Noether
    sum over the records is already >= d: a caller that rejects any sum
    above n loses no verdict with ``cap = n``."""

    def step(polys):
        return polys[0].order(), polys[1].order()

    return _blowups(p.tower, (p, q), step, cap)


# ---------------------------------------------------------------------------
# Curves through a cluster
# ---------------------------------------------------------------------------

def _cluster_conditions(k, D):
    """Linear conditions on a general degree-D polynomial for passing
    through the cluster, plus the direction assigned to each node."""
    forest = k.forest
    monos = [(i, j) for i in range(D + 1) for j in range(D + 1 - i)]
    index = {m: c for c, m in enumerate(monos)}
    spoly = {m: {index[m]: 1} for m in monos}
    conditions = []
    directions = {}

    # unit seeds and scales C(j, kk) c^(j-kk) >= 1 (c >= 0, 0^0 = 1) keep
    # every entry a positive integer, so no sum cancels
    def vec_add(target, key, vec, scale):
        dst = target.setdefault(key, {})
        for col, val in vec.items():
            dst[col] = dst.get(col, 0) + val * scale

    def walk(sp, nid, markers):
        nu = k.weights[nid]
        for (i, j), vec in sp.items():
            if i + j < nu:
                conditions.append(dict(vec))
        children = forest.children[nid]
        taken = set()
        free_c = 1
        for cid in children:
            spx = forest.by_id[cid].second_proximity
            if spx is not None:
                if spx == markers[1]:
                    dirc = 0
                elif spx == markers[0]:
                    dirc = INF_DIR
                else:
                    raise UnrealizableForest(
                        f"{cid} is satellite to a point not on its chart")
                if dirc in taken:
                    raise UnrealizableForest(
                        f"two satellites at the same direction under {nid}")
            else:
                dirc = free_c
                free_c += 1
            taken.add(dirc)
            directions[cid] = dirc
            out = {}
            if dirc == INF_DIR:
                for (i, j), vec in sp.items():
                    if i + j < nu:
                        continue
                    vec_add(out, (i, i + j - nu), vec, 1)
                walk(out, cid, (markers[0], nid))
            else:
                c = dirc
                for (i, j), vec in sp.items():
                    if i + j < nu:
                        continue
                    # at c = 0 only kk = j is nonzero: C(j, j) 0^0 = 1
                    for kk in range(0 if c else j, j + 1):
                        vec_add(out, (i + j - nu, kk), vec,
                                comb(j, kk) * c ** (j - kk))
                walk(out, cid, (nid, markers[1] if c == 0 else None))

    walk(spoly, forest.roots()[0], (None, None))
    return monos, conditions, directions


def _nullspace(rows, ncols):
    """A basis of the rational solutions of the int rows, as ``(den,
    basis)``: one vector per free column, a sparse list of ``(column,
    int)`` pairs in column order that reads, over the common denominator
    ``den``, 1 at that free column, 0 at the other free columns and minus
    the reduced row echelon entries at the pivots.

    Gauss-Jordan runs over ZZ: each pivot row is made primitive, each
    elimination is p row_r - c row_pivot, and each changed row is made
    primitive again, so no ``Fraction`` is built.  A pivot row then reads
    p at its pivot column, 0 at the others and a at a free column, so the
    echelon entry is a / p, and ``den``, the lcm of the |p|, clears every
    one.  The reduced row echelon form is unique, so the basis does not
    depend on the pivot rows chosen."""
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
        prow = mat[rank] = F._primitive(mat[rank])
        p = prow[col]
        for r, row in enumerate(mat):
            fac = row[col]
            if r != rank and fac != 0:
                mat[r] = F._primitive([p * a - fac * b
                                       for a, b in zip(row, prow)])
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    den = math.lcm(*(row[pc] for row, pc in zip(mat, pivots)))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [(pc, -row[fc] * (den // row[pc]))
             for row, pc in zip(mat, pivots) if row[fc] != 0]
        basis.append(sorted(v + [(fc, den)]))
    return den, basis


def _verify_through(poly, k, directions):
    forest = k.forest

    def walk(h, nid):
        nu = k.weights[nid]
        if h.is_zero() or h.order() != nu:
            return False
        for cid in forest.children[nid]:
            dirc = directions[cid]
            hh = (_relabel(h, nu, "y") if dirc == INF_DIR
                  else _chart_int(h, nu, dirc))
            if not walk(hh, cid):
                return False
        return True

    return walk(F.int_poly(QQ, poly.terms)[0], forest.roots()[0])


_CURVES_CACHE = {}


def curves_through(k, seed):
    """Two seeded germs with multiplicity exactly nu_q at every cluster
    point and no further common point, certified by the intersection
    number I_0(w, z) equalling K^2.  Results are memoized per (cluster,
    seed), for the latest 1024 pairs.  K must sit over one proper point,
    with orbit 1 and weights >= 1, checked here before the cache or any rung.

    K must also be consistent, checked on a cache miss before any rung:
    the multiplicities of a curve satisfy the proximity inequalities, e_p
    >= the sum of e_q over the points q proximate to p (Casas-Alvero,
    *Singularities of Plane Curves*, ch. 4), so no curve has exactly the
    weights of a cluster with a negative excess, and no seed can draw
    one.  ``HypothesisViolated`` names the first such node.  The cache
    holds only certified pairs, so a hit needs no check.

    On Q the pair keeps the integral values of ``_curves_at_degree`` as
    ints: a leaf is the int sum itself when the basis denominator is 1,
    and ``Fraction(s, den)`` otherwise.  An int equals and hashes like
    the integral ``Fraction`` and ``rat_str`` prints both as ``n/1``, so
    the pairs, their JSON and everything drawn from them are unchanged.

    Once both germs pass ``_verify_through``, I_0(w, z) is Noether's sum
    of orbit * e_w * e_z over the points w and z share
    (``_shared_points``); the points of K alone give K^2, so the sum is
    K^2 exactly when w and z share no further point.  A shared component
    through the origin makes I_0 infinite: the recursion never separates
    it and stops at its cap of min(MAX_DEPTH, K^2) blowups, and that is
    a rejection.  The cap loses no verdict: a point at depth d has d
    shared ancestors, so reaching depth K^2 + 1 already means I_0 > K^2.

    The curves are drawn at the least degree that can certify and then
    one degree higher at a time, up to D_top = 1 + sum nu
    (``_curves_at_degree``, each degree seeded afresh).  The least degree
    is the larger of two bounds: the least D with (D+1)(D+2)/2 >= c(K) + 2,
    where the c(K) conditions (``virtual_codimension``) leave a pencil if
    they are independent; and nu_O + nu_q for every point q on the root
    O.  Below the latter, the line through O in q's direction meets every
    curve of the system in nu_O + nu_q > D points, so by Bezout it is a
    component of all of them and I_0 is infinite.  The draw at D_top is
    the one of a fixed D_top, so every cluster that certifies there
    still does, with the same errors when none does.
    """
    if len(k.forest.roots()) != 1:
        raise HypothesisViolated("cluster must sit over a single proper point")
    for n in k.forest.nodes:
        if n.orbit != 1:
            raise HypothesisViolated("curves_through needs orbit-1 clusters")
        if k.weights[n.id] < 1:
            raise HypothesisViolated("curves_through needs weights >= 1")
    key = (k.forest, tuple(k.weights[n.id] for n in k.forest.nodes), seed)
    if key in _CURVES_CACHE:
        return _CURVES_CACHE[key]
    bad = next(((nid, e) for nid, e in excesses(k).items() if e < 0), None)
    if bad is not None:
        raise HypothesisViolated(
            f"cluster is not consistent: excess {bad[1]} at {bad[0]}")
    result = _curves_through(k, seed)
    _CURVES_CACHE[key] = result
    if len(_CURVES_CACHE) > 1024:
        del _CURVES_CACHE[next(iter(_CURVES_CACHE))]
    return result


def _top_degree(k):
    return 1 + sum(k.weights[n.id] for n in k.forest.nodes)


def _least_degree(k):
    """The foot of the degree ladder of ``curves_through``."""
    c = virtual_codimension(k)
    D = 0
    while (D + 1) * (D + 2) < 2 * (c + 2):
        D += 1
    for r in k.forest.roots():
        for q in k.forest.children[r]:
            D = max(D, k.weights[r] + k.weights[q])
    return D


def _curves_through(k, seed):
    top = _top_degree(k)
    for D in range(_least_degree(k), top):
        try:
            return _curves_at_degree(k, seed, D)
        except RetryBudgetExceeded:
            pass
    return _curves_at_degree(k, seed, top)


def _curves_at_degree(k, seed, D):
    """A certified pair drawn from the degree-D curves through K with a
    fresh ``random.Random(seed)``, else ``RetryBudgetExceeded``.  Below
    ``_top_degree(k)`` the first sample whose Noether run hits its cap
    ends the degree: the system most likely has a fixed component, and
    every further sample would pay for the cap again."""
    monos, conditions, directions = _cluster_conditions(k, D)
    # rank <= c(K) and (D+1)(D+2)/2 >= c(K) + 2 on every rung: nullity >= 2
    # a member sums the int rows and divides once per term by den
    den, basis = _nullspace(conditions, len(monos))
    rng = random.Random(seed)
    k2 = self_intersection(k)
    cap = min(MAX_DEPTH, k2)

    def sample():
        coeffs = [rng.randint(-10, 10) for _ in basis]
        sums = {}
        for cvec, row in zip(coeffs, basis):
            if cvec == 0:
                continue
            for col, val in row:
                sums[col] = sums.get(col, 0) + cvec * val
        # an int leaf equals and hashes like the integral Fraction
        return BiPoly(QQ, {monos[col]: s if den == 1 else Fraction(s, den)
                           for col, s in sums.items()})

    last = None
    for _ in range(32):
        w = sample()
        z = sample()
        if w.is_zero() or z.is_zero():
            last = "sampled the zero polynomial"
            continue
        if not (_verify_through(w, k, directions)
                and _verify_through(z, k, directions)):
            last = "sampled member has excess multiplicity at a cluster point"
            continue
        try:
            inter = sum(n.orbit * e[0] * e[1]
                        for n, e in _shared_points(w, z, cap))
        except BudgetExceeded:
            inter = math.inf
        if inter == k2:
            return Germ(w), Germ(z)
        last = (f"intersection {inter} != K^2 = {k2}; "
                "members share an extra point")
        if inter == math.inf and D < _top_degree(k):
            break
    raise RetryBudgetExceeded(
        f"no certified pair of curves through the cluster: {last}")


# ---------------------------------------------------------------------------
# Pullback of a cluster under a finite map germ
# ---------------------------------------------------------------------------

def pullback_cluster(f, k, seed=0):
    """f*(K): base points of the pencil (w o f, z o f) for certified
    curves w, z through K.  Requires a finite germ (empty contracted
    curve).

    K is read without positions, so it is placed as
    ``_cluster_conditions`` places it: at each point the i-th free child
    sits at chart direction i (i = 1, 2, ...), and each satellite at
    direction 0 or infinity, on the chart line y = 0 or x = 0 that is the
    exceptional curve of the other point it is proximate to.  f*(K) is
    the pullback of K in that position.

    ``fixed_part(f1, f2)`` is the finiteness check; the composed pair
    goes to the pencil step without a gcd of its own.  A component C
    through the origin of both w o f and z o f would map under f either
    onto a curve germ lying on w = 0 and on z = 0, against I_0(w, z) =
    K^2 < infinity, or onto the origin, which puts C inside f1 = f2 = 0
    against finiteness.  A common factor missing the origin is a unit u
    at every point over the origin: u(0) scales each tangent form and
    moves no order, direction or unit, as a rational scale does in the
    recursion, so the records, ids and D5 splits are those of the reduced
    pair.  Were a shared component left, the recursion would never
    separate it and would raise ``BudgetExceeded`` at its cap, not return
    a wrong cluster.

    The pencil step runs with the budget B = b K^2, for b the least of
    tdeg f1 tdeg f2 and deg_x f1 deg_y f2 + deg_y f1 deg_x f2.  B bounds
    I_0(w o f, z o f) = deg f I_0(w, z) = deg f K^2, the law (f*K)^2 =
    deg f K^2, since deg f = I_0(r1, r2) <= b for the quotients r1, r2 of
    ``fixed_part``, which share no component:

    * in P^2, Bezout bounds the sum of all their intersection numbers by
      tdeg r1 tdeg r2 (Fulton, *Algebraic Curves*, ch. 5);
    * in P^1 x P^1, the closure of r_i = 0 has bidegree (deg_x r_i,
      deg_y r_i), and curves of bidegrees (a1, b1) and (a2, b2) with no
      common component meet in a1 b2 + b1 a2 points counted with
      multiplicity, I_0 among them;
    * r_i divides f_i, so each degree of r_i is at most f_i's: the
      common factor that ``fixed_part`` removes misses the origin of a
      finite germ, so it is a unit there, and removing it lowers both
      bidegrees and leaves I_0 as it is.

    On monomial maps both bounds are a b, and B is deg f K^2 exactly.
    ``_blowups`` proves that the budget changes no output.

    Over Q ``_compose_int`` reads the int and Fraction leaves of the
    drawn pair as they are.
    """
    contracted, _ = fixed_part(f.f1.poly, f.f2.poly)
    if contracted is not None:
        raise ContractedCurvePresent(
            "pullback is only defined for finite map germs")
    if not k.forest.nodes:
        return WeightedMultiCluster([], {})
    f1, f2 = (F.int_poly(g.tower, g.poly.terms) for g in (f.f1, f.f2))
    w, z = (_compose_int(g.poly, f1, f2) for g in curves_through(k, seed))
    (p1, _), (p2, _) = f1, f2
    b = min(p1.total_degree() * p2.total_degree(),
            p1.deg_x() * p2.deg_y() + p1.deg_y() * p2.deg_x())
    return _entries_to_cluster(_pencil_points(w, z, None,
                                              b * self_intersection(k)))


def _compose_int(w, f1, f2):
    """w(f1, f2) times a positive rational, with int leaves, for rational
    w and the map components as ``F.int_poly`` pairs (F_i, n_i / d_i).
    Over Q the leaves of w, ints or Fractions, are read as they are, and
    ``F.int_poly`` passes primitive ints through; over a tower
    ``from_rational`` lifts each one.  Both give the same values.

    With w scaled to int coefficients c_ij, A = deg_x w and B = deg_y w,
    n1^A n2^B w(f1, f2) is the sum of c_ij d1^i n1^(A-i) d2^j n2^(B-j)
    F1^i F2^j, whose coefficients are integers; the blowup recursion
    ignores the positive scale."""
    (p1, s1), (p2, s2) = f1, f2
    tw = p1.tower
    c, _ = F.int_poly(tw, w.terms if not tw.levels else {
        m: from_rational(tw, v) for m, v in w.terms.items()})
    a, b = c.deg_x(), c.deg_y()
    n1, d1, n2, d2 = (s1.numerator, s1.denominator,
                      s2.numerator, s2.denominator)
    c = BiPoly(tw, {(i, j): qscale(tw, v, d1 ** i * n1 ** (a - i)
                                   * d2 ** j * n2 ** (b - j))
                    for (i, j), v in c.terms.items()})
    return c.compose(p1, p2)
