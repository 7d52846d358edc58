"""Exact coefficient arithmetic.

Scalars live in towers of simple algebraic extensions of the rationals.
An element of a tower with n levels is represented recursively: a
rational (an int or a ``Fraction``) at depth 0, and at depth n a trimmed
tuple of depth-(n-1) elements (the coefficients in the top variable,
reduced modulo the top modulus; the empty tuple is zero).  So an element
is zero exactly when it is falsy, at every depth.

Elements are reduced where they enter (``from_rational``, ``generator``,
``elem_from_json``) and every operation keeps them so.  Moduli are
adjoined optimistically (dynamic evaluation): whenever the extended Euclid
of ``inv`` against a top modulus ends on a remainder of positive degree, a
:class:`~enriques.errors.ModulusSplit` carrying that proper factor is
raised, and callers branch the tower.  Irreducibility over the rationals
itself is certified (rational roots, then Yun's squarefree factors, and
sympy's factorization for those the root search cannot certify), so
splits can only involve moduli adjoined over a non-trivial tower.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, ModulusSplit, RetryBudgetExceeded


# ---------------------------------------------------------------------------
# Towers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tower:
    """A stack of simple extensions of QQ.

    ``levels`` is a tuple of ``(var, modulus)`` pairs; each modulus is a
    monic squarefree dense coefficient tuple over the tower below it, with
    its integral leaves stored as ints.  The empty tower is QQ itself.

    :meth:`extend` rejects a modulus that is untrimmed, of degree below 2
    or not monic, or that has a coefficient that is not a trimmed, reduced
    element of the tower below: ``mul`` by a constant scales the other
    operand without reducing it, so ``reduce_mod``'s products by modulus
    coefficients need those reduced.  The one other builder of levels is
    ``split_tower``, which replaces the top modulus by a monic proper
    factor and by its cofactor, so those levels can have degree 1.
    ``reduce_mod``, the reduction behind every tower product, relies on
    every modulus being monic: it never inverts the leading coefficient
    of a modulus.
    """

    levels: tuple = ()

    @property
    def depth(self):
        return len(self.levels)

    def sub(self):
        """The tower below the top level; requires at least one level."""
        return self._reduction[0]

    @functools.cached_property
    def _reduction(self):
        """``(sub, n, low)`` for ``reduce_mod``: the tower below, the degree
        n of the top modulus and the pairs ``(i, -m_i)`` over its nonzero
        coefficients below the top."""
        s = Tower(self.levels[:-1])
        m = self.top_modulus
        low = tuple((i, neg(s, c)) for i, c in enumerate(m[:-1]) if c)
        return s, len(m) - 1, low

    @functools.cached_property
    def _one(self):
        """The unit of a non-trivial tower, built once for ``one``."""
        return (one(self.sub()),)

    @functools.cached_property
    def _quadratic(self):
        """Whether this is one level over QQ, of degree 2: where ``inv``
        and ``pmonic`` take ``_adjugate``'s closed form."""
        return len(self.levels) == 1 and len(self.top_modulus) == 3

    @functools.cached_property
    def is_field(self):
        """Whether the tower is known to be a field: QQ, or one level
        whose modulus ``_factors_over_qq`` finds irreducible.  Deeper
        levels are adjoined optimistically and may split.
        ``localeng._coprime`` reads it to run the germ-pair gcd last."""
        if len(self.levels) != 1:
            return not self.levels
        factors = _factors_over_qq(self.top_modulus)
        return len(factors) == 1 and factors[0][1] == 1

    @property
    def top_var(self):
        return self.levels[-1][0]

    @property
    def top_modulus(self):
        return self.levels[-1][1]

    def extend(self, var, modulus):
        if any(v == var for v, _ in self.levels):
            raise ValueError(f"variable {var!r} already used in tower")
        if not all(_is_reduced(self, c) for c in modulus):
            raise ValueError(f"modulus for {var!r} has a coefficient that is "
                             "not a trimmed, reduced element of the tower")
        if modulus and not modulus[-1]:
            raise ValueError(f"modulus for {var!r} has a trailing zero")
        if len(modulus) < 3:
            raise ValueError(f"modulus for {var!r} has degree below 2")
        if modulus[-1] != one(self):
            raise ValueError(f"modulus for {var!r} is not monic")
        return Tower(self.levels + ((var, _int_leaves(self, modulus)),))


QQ = Tower()


def zero(tw):
    return 0 if not tw.levels else ()


def one(tw):
    return 1 if not tw.levels else tw._one


def _is_reduced(tw, a):
    """Whether ``a`` is an element of ``tw`` in the form every operation
    keeps: a rational at depth 0, above it a trimmed tuple of fewer
    coefficients than the top modulus degree, each reduced below."""
    if not tw.levels:
        return isinstance(a, (int, Fraction))
    s, n, _ = tw._reduction
    return (isinstance(a, tuple) and len(a) <= n
            and not (a and not a[-1])
            and all(_is_reduced(s, c) for c in a))


def _int_leaves(tw, f):
    """The polynomial ``f`` over ``tw`` with its integral leaves as ints:
    equal in value and hash, and cheaper to multiply and hash."""
    if not tw.levels:
        return tuple(c.numerator if c.denominator == 1 else c for c in f)
    s = tw.sub()
    return tuple(_int_leaves(s, c) for c in f)


def from_rational(tw, q):
    q = Fraction(q)
    if not tw.levels:
        return q
    if q == 0:
        return ()
    return (from_rational(tw.sub(), q),)


def qscale(tw, a, q):
    """``a * q`` for a rational ``q``, coefficient by coefficient.

    Scaling by a nonzero rational keeps an element reduced and trimmed,
    so this equals ``mul(tw, a, from_rational(tw, q))`` without the
    multiplication and reduction."""
    if not tw.levels:
        return a * q
    if q == 0:
        return ()
    s = tw.sub()
    return tuple(qscale(s, c, q) for c in a)


def generator(tw):
    """The class of the top variable of a non-trivial tower."""
    s = tw.sub()
    return reduce_mod(tw, (zero(s), one(s)))


def add(tw, a, b):
    if not tw.levels:
        return a + b
    return padd(tw.sub(), a, b)


def neg(tw, a):
    if not tw.levels:
        return -a
    return pneg(tw.sub(), a)


def sub(tw, a, b):
    return add(tw, a, neg(tw, b))


def mul(tw, a, b):
    """The product of two reduced elements.

    An operand of length <= 1 is zero or a constant (c,) from the level
    below, and the product is then the other operand b scaled by c
    coefficient by coefficient (``pscale``), with no ``pmul`` and no
    ``reduce_mod``.  It is the same element: ``pmul((c,), b)`` has the
    one product c b_j at index j, and b is reduced, so that list is
    shorter than the modulus degree n and ``reduce_mod`` only trims it.
    The trim stays, as over a level that is not a field c times the top
    coefficient of b can be zero.  A constant equal to ``one(tw)`` returns
    b itself: b 1 = b leaf by leaf, and b is reduced, so the trim removes
    nothing (7,472 of the 11,917 products at depth >= 1 on tower-germs,
    16 rounds at each of seeds 1 and 7).  No inversion is added or
    dropped, so values and splits, and with them every output, stay the
    same."""
    if not tw.levels:
        return a * b
    if len(b) < len(a):
        a, b = b, a
    if len(a) <= 1:
        if a == tw._one:
            return b
        return pscale(tw.sub(), b, a[0]) if a else ()
    return reduce_mod(tw, pmul(tw.sub(), a, b))


def reduce_mod(tw, cs):
    """The class of sum cs[e] t^e modulo the monic top modulus of ``tw``,
    for any number of coefficients over the tower below: reduced and
    trimmed.  Multiples of the modulus are added from the top coefficient
    down, with no quotient and no inversion."""
    s, n, low = tw._reduction
    cs = list(cs)
    for k in range(len(cs) - 1, n - 1, -1):
        c = cs[k]
        if not c:
            continue
        for i, m in low:
            cs[k - n + i] = add(s, cs[k - n + i], mul(s, c, m))
    return ptrim(s, cs[:n])


def inv(tw, a):
    """The inverse of a nonzero reduced element: in a tower, the Bezout
    cofactor of ``a`` from extended Euclid against the top modulus, over
    the first constant remainder.  A zero remainder after one of positive
    degree r0 means r0 is a proper factor of the modulus: ``ModulusSplit``
    carries it made monic.

    This inverts exactly the elements plain Euclid inverts, in the same
    order, so it returns the same value, or raises the same split for the
    same variable and factor, at every depth, also over a tower below
    that is not a field.  Plain Euclid runs until the remainder is zero,
    dividing by each remainder in ``pdivmod`` (inverting its lead when
    that is not 1), and closes by inverting the constant last divisor r:

    * a constant a = (a0,) is inverted one level down, (a0^-1,).  Euclid
      would first invert a0 to divide the modulus by (a0,), which leaves
      remainder 0, and then invert a0 again for the cofactor 1 over a0;
    * the loop here stops at the first remainder of length <= 1.  Empty,
      it is the zero remainder of plain Euclid.  A constant (r,) is the
      last divisor of plain Euclid, whose one more division inverts r
      (when r is not 1) and leaves 0, and whose close inverts r again;
      here r is inverted once, and not at all when it is 1.

    At a depth-1 level of degree 2 the inverse is ``_adjugate``'s b / n,
    with no Euclid.  The level below is QQ, a field.  Plain Euclid on
    (m, a), a = a0 + a1 t with a1 != 0, inverts a1 and then the constant
    remainder n / a1^2, both nonzero rationals and so units.  That
    remainder is 0 exactly when n = 0, and Euclid then raises the split
    with a made monic, as ``_adjugate`` does.  An inverse is unique, so
    the value, the split variable and the split factor stay the same;
    only the inversions of rationals at depth 0 are gone.  Every other
    level keeps Euclid, where the tower below need not be a field."""
    if not tw.levels:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return Fraction(1) / a
    if not a:
        raise DivisionByZero("inverse of zero")
    s = tw.sub()
    if len(a) == 1:
        return (inv(s, a[0]),)
    if tw._quadratic:
        (b0, b1), n = _adjugate(tw, a)
        return (Fraction(b0, n), Fraction(b1, n))
    r0, s0, r1, s1 = tw.top_modulus, (), a, (one(s),)
    while len(r1) > 1:
        q, r = pdivmod(s, r0, r1)
        r0, s0, r1, s1 = r1, s1, r, psub(s, s0, pmul(s, q, s1))
    if not r1:
        raise ModulusSplit(tw.top_var, pmonic(s, r0))
    if r1[0] == one(s):
        return reduce_mod(tw, s1)
    return reduce_mod(tw, pscale(s, s1, inv(s, r1[0])))


def _adjugate(tw, a):
    """``(b, n)`` with a b = n, for a = a0 + a1 t, a1 != 0, at a depth-1
    level whose modulus is m = t^2 + m1 t + m0: b = (a0 - a1 m1) - a1 t
    and the rational n = a0 (a0 - a1 m1) + a1^2 m0 = Res(m, a).  Leaves
    that are ints give ints.  When n = 0, a is a zero divisor and
    m = (t + a0/a1)(t + m1 - a0/a1): ``ModulusSplit`` carries the first
    factor, a made monic."""
    m0, m1, _ = tw.top_modulus
    a0, a1 = a
    b0 = a0 - a1 * m1
    n = a0 * b0 + a1 * a1 * m0
    if not n:
        raise ModulusSplit(tw.top_var, (Fraction(a0, a1), 1))
    return (b0, -a1), n


def split_tower(tw, factor):
    """Branch a tower at its top modulus: (factor tower, cofactor tower)."""
    s = tw.sub()
    var = tw.top_var
    cofactor = pdiv_exact(s, tw.top_modulus, factor)
    return tuple(Tower(s.levels + ((var, _int_leaves(s, m)),))
                 for m in (factor, cofactor))


def branched(tower, var, fn):
    """Run ``fn(tower)``, branching on splits of the modulus owned by ``var``.

    Returns a list of ``(tower, result)`` pairs, one per surviving branch.
    Splits of other moduli propagate to their own handler.
    """
    try:
        return [(tower, fn(tower))]
    except ModulusSplit as e:
        if e.var != var:
            raise
        t1, t2 = split_tower(tower, e.factor)
        return branched(t1, var, fn) + branched(t2, var, fn)


# ---------------------------------------------------------------------------
# Integer leaves: elements scaled by one rational
# ---------------------------------------------------------------------------

def leaves(tw, elems):
    """The rational leaves of the elements, in order."""
    if not tw.levels:
        return list(elems)
    s = tw.sub()
    return [v for a in elems for v in leaves(s, a)]


def _scale_leaves(tw, elems, den, num):
    if not tw.levels:
        return [v.numerator * (den // v.denominator) // num for v in elems]
    s = tw.sub()
    return [tuple(_scale_leaves(s, a, den, num)) for a in elems]


_ONE = Fraction(1)


def int_scale(tw, elems):
    """``(ints, q)``: ``ints[i] = q * elems[i]`` for the one positive
    rational ``q`` that makes all their leaves integers with gcd 1 (q = 1
    when every element is zero).  Leaves may be ints or Fractions.

    When every leaf is an int, their gcd g alone gives q = 1 / g: for
    g <= 1 the elements come back as they are, with one shared q = 1, so
    primitive integer data is neither read through ``Fraction`` nor
    rebuilt.  An integral ``Fraction`` leaf takes the general route,
    which returns it as an int."""
    vals = leaves(tw, elems)
    if all(type(v) is int for v in vals):
        g = math.gcd(*vals)
        if g <= 1:
            return list(elems), _ONE
        return _scale_leaves(tw, elems, 1, g), Fraction(1, g)
    den = math.lcm(*(v.denominator for v in vals))
    num = 0
    for v in vals:
        num = math.gcd(num, v.numerator * (den // v.denominator))
    num = num or 1
    return _scale_leaves(tw, elems, den, num), Fraction(den, num)


def int_poly(tw, terms):
    """``(q, s)``: the polynomial with these terms scaled by the positive
    rational ``s`` to integer leaves with gcd 1."""
    vals, s = int_scale(tw, list(terms.values()))
    return BiPoly(tw, dict(zip(terms, vals))), s


# ---------------------------------------------------------------------------
# Dense univariate polynomials over a tower (plain tuples, low -> high)
# ---------------------------------------------------------------------------

def ptrim(tw, cs):
    """``cs`` without its trailing zeros, as a tuple; a tuple that ends
    on a nonzero coefficient comes back as it is, the same object in
    CPython, whose full slice and ``tuple`` of a tuple return it."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def pdeg(f):
    return len(f) - 1


def padd(tw, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = add(tw, out[i], c)
    return ptrim(tw, out)


def pneg(tw, f):
    return tuple(neg(tw, c) for c in f)


def psub(tw, f, g):
    return padd(tw, f, pneg(tw, g))


def pscale(tw, f, c):
    """f times the constant c.  A zero coefficient is kept as it is, with
    no product: as in ``pmul``, an int 0 may stand where the product was a
    ``Fraction`` 0, and the two are equal and print alike."""
    return ptrim(tw, [mul(tw, a, c) if a else a for a in f])


def pmul(tw, f, g):
    """The product of two polynomials, over the coefficient pairs that
    are both nonzero.

    A zero coefficient on either side adds only zero products, so every
    sum keeps its value, and an index that no pair reaches is zero.  Each
    sum starts from its first product, as in ``_mul_into``, not from
    ``zero(tw)``, so int leaves stay ints.  A skipped ``Fraction`` zero
    can leave an int where the full sum had an integral ``Fraction``;
    the two are equal, hash alike and print alike (``rat_str``), so
    outputs stay byte-identical."""
    out = [None] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    p = mul(tw, a, b)
                    c = out[i + j]
                    out[i + j] = p if c is None else add(tw, c, p)
    z = zero(tw)
    return ptrim(tw, [z if c is None else c for c in out])


def pdivmod(tw, f, g):
    """Quotient and remainder of ``f`` by ``g``, with ``deg r < deg g``.

    The remainder is reduced in place from the top coefficient down.  The
    leading coefficient of ``g`` is inverted only when it is not 1, so
    exact division by a monic factor (``pdiv_exact`` in ``split_tower``)
    and ``pgcd``'s Euclid, whose divisors are monic, never invert.
    ``inv``'s extended Euclid and ``exact_div`` still divide by divisors
    that need not be monic.  Reduction modulo a tower modulus is
    ``reduce_mod``.
    """
    g = ptrim(tw, g)
    if not g:
        raise DivisionByZero("polynomial division by zero")
    dg = len(g) - 1
    lc = g[-1]
    invlc = None if lc == one(tw) else inv(tw, lc)
    low = [(i, b) for i, b in enumerate(g[:-1]) if b]
    r = list(f)
    q = [zero(tw)] * max(0, len(r) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg]
        if not c:
            continue
        if invlc is not None:
            c = mul(tw, c, invlc)
        q[k] = c
        for i, b in low:
            r[k + i] = sub(tw, r[k + i], mul(tw, c, b))
    return ptrim(tw, q), ptrim(tw, r[:dg])


def pmod(tw, f, g):
    return pdivmod(tw, f, g)[1]


def pdiv_exact(tw, f, g):
    q, r = pdivmod(tw, f, g)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def pmonic(tw, f):
    """``f`` over its leading coefficient lc.  Where ``inv`` takes the
    closed form b / n, each coefficient is multiplied by b, on int leaves
    when f and the modulus have them, and then scaled by 1/n; the top is
    lc b / n = 1.  Elsewhere lc is still inverted by ``inv``, and the
    coefficients below the top are multiplied by that inverse, but the top
    is written as ``one(tw)``: lc inv(lc) reduces to 1 whenever ``inv``
    returns, over a field or not (931 calls on tower-germs, 16 rounds at
    each of seeds 1 and 7).  The value is that of ``pscale(f, inv(lc))``,
    and a zero divisor lc raises the same split."""
    if not f or f[-1] == one(tw):
        return f
    lc = f[-1]
    if tw._quadratic and len(lc) == 2:
        b, n = _adjugate(tw, lc)
        q = Fraction(1, n)
        low = (qscale(tw, mul(tw, c, b), q) if c else c for c in f[:-1])
    else:
        il = inv(tw, lc)
        low = (mul(tw, c, il) if c else c for c in f[:-1])
    return tuple(low) + (one(tw),)


def pgcd(tw, f, g):
    """The monic gcd of ``f`` and ``g``: ``_pgcd_qq`` over QQ, and in a
    tower Euclid on monic divisors.

    Each divisor is made monic once, by ``pmonic``, so ``pdivmod`` takes
    its leading-1 path and never inverts, and the last divisor is the
    monic gcd.  Plain Euclid divides by the remainders r_1, r_2, ... (r_0
    = g, leads l_i) as they come and closes with ``pmonic``: it inverts
    each l_i in ``pdivmod`` and the last one again.  The two agree.
    Division by an associate leaves the same remainder, and scaling the
    dividend scales it, so the divisors here are the r_i made monic, the
    loop ends at the same step and the gcd is the same.  The remainder
    made monic here is r_i over l_(i-2) (r_i itself for i <= 1), whose
    lead is l_i times inverses already computed.  Over a product of fields
    that is a zero divisor exactly when l_i is (a lead of 1 that either
    side skips is a unit), so the first inversion that meets a zero
    divisor comes at the same step.  Where the tower below is a field (at
    depth 1, or over irreducible moduli), it raises ``ModulusSplit`` for
    the same variable with the same factor: the monic generator of the
    ideal (l_i, m) = (l_i u, m), for the top modulus m and a unit u.
    Over a tower below that is not a field, inverting a unit can itself
    meet a zero divisor there, depending on the element; this argument
    does not cover that case."""
    f, g = ptrim(tw, f), ptrim(tw, g)
    if not tw.levels:
        return _pgcd_qq(f, g)
    if not g:
        return pmonic(tw, f)
    g = pmonic(tw, g)
    while g:
        f, g = g, pmonic(tw, pmod(tw, f, g))
    return f


def _pgcd_qq(f, g):
    """Rational univariate gcd via the primitive PRS over the integers
    (avoids the coefficient blowup of naive Euclid over Fraction).

    The monic gcd is returned with int leaves where it has integral
    ones: the primitive gcd with its sign fixed when its lead is +-1,
    (1,) when either input is a nonzero constant.  Otherwise each leaf
    is a ``Fraction`` over the lead.  An int equals and hashes like the
    integral ``Fraction``, so the value is the same either way.

    ``int_scale`` scales by a positive rational, so the primitive forms
    a, b of proportional inputs are equal up to sign.  The PRS would
    stop at the zero pseudo-remainder of a by b with the primitive gcd
    b, and that step is skipped; a = -b gives the same gcd once its sign
    is fixed.  Two linear inputs that are not proportional have a
    nonzero determinant a0 b1 - a1 b0, so distinct roots and the gcd
    (1,), where the PRS would end on that determinant made primitive to
    +-1."""
    if not f or not g:
        return pmonic(QQ, f or g)
    a, b = int_scale(QQ, f)[0], int_scale(QQ, g)[0]
    if len(a) == len(b):
        if a == b or a == [-v for v in b]:
            b = []
        elif len(a) == 2:
            return (1,)
    while b:
        # integer pseudo-remainder of a by b
        r = list(a)
        lb = b[-1]
        while True:
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
            lr = r[-1]
            k = len(r) - len(b)
            r = [v * lb for v in r]
            for i, bv in enumerate(b):
                r[k + i] -= lr * bv
            r = r[:-1]
        a, b = b, _primitive(r)
    lead = a[-1]
    if abs(lead) == 1:
        return tuple(a) if lead == 1 else tuple(-v for v in a)
    return tuple(Fraction(v, lead) for v in a)


def _primitive(row):
    """The ints of ``row`` over their gcd (``row`` itself if it is 0 or 1)."""
    g = math.gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def pderiv(tw, f):
    return ptrim(tw, [qscale(tw, f[i], i) for i in range(1, len(f))])


def peval(tw, f, x0):
    """``f(x0)`` for a rational ``x0`` (an int or a ``Fraction``, not a
    tower element): Horner, each step a ``qscale``, so no tower product.
    Int leaves and an int ``x0`` give int leaves."""
    acc = zero(tw)
    for c in reversed(f):
        acc = add(tw, qscale(tw, acc, x0), c)
    return acc


# ---------------------------------------------------------------------------
# Bivariate polynomials
# ---------------------------------------------------------------------------

class BiPoly:
    """Exact bivariate polynomial in x, y over a field tower.

    Terms are kept sparse as ``{(i, j): coeff}`` with nonzero reduced
    coefficients.  Supports +, -, *, ** with int/Fraction coercion.
    """

    __slots__ = ("tower", "terms")

    def __init__(self, tower, terms):
        self.tower = tower
        self.terms = {k: v for k, v in terms.items() if v}

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, tower=QQ):
        return cls(tower, {})

    @classmethod
    def const(cls, value, tower=QQ):
        return cls(tower, {(0, 0): from_rational(tower, value)})

    @classmethod
    def variable(cls, name, tower=QQ):
        if name == "x":
            return cls(tower, {(1, 0): one(tower)})
        if name == "y":
            return cls(tower, {(0, 1): one(tower)})
        raise ValueError("variables are named 'x' and 'y'")

    # -- basics --------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            try:
                other = BiPoly.const(other, self.tower)
            except (TypeError, ValueError):
                return NotImplemented
        return self.tower == other.tower and self.terms == other.terms

    def __hash__(self):
        return hash((self.tower, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "BiPoly(0)"
        bits = [f"({c!r})" + _power("x", i) + _power("y", j)
                for (i, j), c in sorted(self.terms.items())]
        return "BiPoly(" + " + ".join(bits) + ")"

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            if other.tower != self.tower:
                raise ValueError("tower mismatch")
            return other
        return BiPoly.const(other, self.tower)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        tw = self.tower
        for k, v in other.terms.items():
            out[k] = add(tw, out.get(k, zero(tw)), v)
        return BiPoly(tw, out)

    __radd__ = __add__

    def __neg__(self):
        tw = self.tower
        return BiPoly(tw, {k: neg(tw, v) for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        _mul_into(self.tower, out, self.terms, other.terms)
        return BiPoly(self.tower, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        acc = BiPoly.const(1, self.tower)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    # -- structure -----------------------------------------------------
    def order(self):
        """Order of vanishing at the origin (min total degree)."""
        if not self.terms:
            raise ValueError("order of the zero polynomial")
        return min(i + j for i, j in self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def deg_x(self):
        return max((i for i, _ in self.terms), default=-1)

    def deg_y(self):
        return max((j for _, j in self.terms), default=-1)

    def deriv(self, var):
        """d/dx or d/dy; each term moves one-to-one, so none are summed."""
        if var not in ("x", "y"):
            raise ValueError("variables are named 'x' and 'y'")
        tw = self.tower
        di, dj = (1, 0) if var == "x" else (0, 1)
        return BiPoly(tw, {(i - di, j - dj): qscale(tw, c, i * di + j * dj)
                           for (i, j), c in self.terms.items()
                           if i * di + j * dj})

    def compose(self, px, py):
        """Substitute BiPolys for x and y.

        The terms of each y-power j are summed first, r_j = sum_i c_ij
        px^i, so every py^j takes one product, and all of it accumulates
        into one dict.  No zero or one is seeded with a ``Fraction``, so
        polynomials with int leaves compose on ints over every tower whose
        moduli have int leaves.

        A monomial map px = x^p1 y^q1, py = x^p2 y^q2, both with
        coefficient 1 and p1 q2 != p2 q1, moves each term c x^i y^j to
        c x^(p1 i + p2 j) y^(q1 i + q2 j) with c unchanged.  The exponent
        map has determinant p1 q2 - p2 q1 != 0, so it is injective: no two
        terms meet, and the sums below would only have multiplied c by
        1."""
        tw = self.tower
        if px.tower != tw or py.tower != tw:
            raise ValueError("tower mismatch")
        if len(px.terms) == len(py.terms) == 1:
            ((p1, q1), cx), = px.terms.items()
            ((p2, q2), cy), = py.terms.items()
            if cx == cy == one(tw) and p1 * q2 != p2 * q1:
                return BiPoly(tw, {(p1 * i + p2 * j, q1 * i + q2 * j): c
                                   for (i, j), c in self.terms.items()})
        rows = {}
        for (i, j), c in self.terms.items():
            rows.setdefault(j, []).append((i, c))
        unit = {(0, 0): one(tw)}
        xpow, ypow = [unit], [unit]
        for pows, base, n in ((xpow, px, self.deg_x()),
                              (ypow, py, self.deg_y())):
            for _ in range(n):
                nxt = {}
                _mul_into(tw, nxt, pows[-1], base.terms)
                pows.append(nxt)
        out = {}
        for j, row in rows.items():
            r = {}
            for i, c in row:
                _mul_into(tw, r, {(0, 0): c}, xpow[i])
            _mul_into(tw, out, r, ypow[j])
        return BiPoly(tw, out)

    def lift_to(self, tw_ext):
        """The polynomial over ``tw_ext``, one level above its tower; terms
        are never zero, so each coefficient c becomes the constant (c,)."""
        return BiPoly(tw_ext, {k: (v,) for k, v in self.terms.items()})

    # -- conversions to (K[x])[y] -------------------------------------
    def to_yx(self):
        tw = self.tower
        dy = self.deg_y()
        if dy < 0:
            return ()
        rows = [{} for _ in range(dy + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
        out = []
        for row in rows:
            dx = max(row, default=-1)
            out.append(ptrim(tw, [row.get(i, zero(tw)) for i in range(dx + 1)]))
        return tuple(out)

    @classmethod
    def from_yx(cls, tower, yx):
        terms = {}
        for j, row in enumerate(yx):
            for i, c in enumerate(row):
                if c:
                    terms[(i, j)] = c
        return cls(tower, terms)


def _power(var, e):
    """``var^e`` as ``__repr__`` writes it: empty at e = 0, ``var`` at 1."""
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _mul_into(tw, out, a, b):
    """Add the product of the term dicts ``a`` and ``b`` into ``out``,
    through ``mul`` and ``add`` at every depth.  Sums start from the first
    product, so int leaves stay ints."""
    for (i1, j1), u in a.items():
        for (i2, j2), v in b.items():
            k = (i1 + i2, j1 + j2)
            p = mul(tw, u, v)
            out[k] = add(tw, out[k], p) if k in out else p


# -- (K[x])[y] helpers ------------------------------------------------

def _yx_content(tw, f):
    """The monic gcd of the rows, stopping at the first content of length
    1.  That content is the unit 1 reached by Euclid, so over a product of
    fields it is 1 in every component, and no row after it can change
    it."""
    c = ()
    for row in f:
        c = pgcd(tw, c, row)
        if len(c) == 1:
            break
    return c


def _yx_primitive(tw, f):
    c = _yx_content(tw, f)
    return tuple(pdiv_exact(tw, row, c) for row in f), c


def monic_lex(p):
    """Normalize so the lex-leading (highest y, then x) coefficient is 1.

    ``p`` is nonzero: ``poly_gcd`` passes a nonzero input as it is, or
    Brown's result, a nonzero primitive times the monic content gcd."""
    tw = p.tower
    key = max(p.terms, key=lambda k: (k[1], k[0]))
    c = inv(tw, p.terms[key])
    return BiPoly(tw, {k: mul(tw, v, c) for k, v in p.terms.items()})


def _x0s():
    """x0 = 1, -1, 2, -2, ... as ints; not 0, where germs share y^k."""
    for n in itertools.count(1):
        yield n
        yield -n


def _image(tw, f, g, c):
    """Monic gcd of f(c, y) and g(c, y), or None if lc_y(f)(c) = 0; that
    coefficient is inverted, so a zero divisor raises ModulusSplit."""
    fx = _eval_x(tw, f, c)
    if len(fx) < len(f):
        return None
    return pgcd(tw, pmonic(tw, fx), _eval_x(tw, g, c))


def poly_gcd(p, q):
    """GCD in K[x, y], normalized monic-lex; divides both inputs exactly.

    Except for a one-term input over QQ (below), at every depth, the
    rationals being the tower of depth 0, it is Brown's evaluation gcd
    in (K[x])[y] (JACM 18, 1971; for towers van Hoeij and Monagan,
    ISSAC 2002), on p and q scaled to integer leaves
    with gcd 1: a gcd ignores units, and the images at the int points x0
    then start from int leaves.  Let h = gcd(f, g), of y-degree d.  At x0
    with lc_y(f)(x0) a unit, lc_y(h) | lc_y(f) keeps deg h(x0, y) = d, so
    the image gcd(f(x0, y), g(x0, y)) has degree >= d, and = d only if it
    is h(x0, y) made monic.  So the first image, of p and q, decides d = 0,
    and h is then the content gcd in K[x], already monic from Euclid.
    Inputs free of y take the same route: a y-free f has the image f(x0), a
    unit made monic to 1.  Euclid in the content gcd inverts the leading
    coefficient of each row it reads, the first row always, so a zero
    divisor there raises ``ModulusSplit``; it stops at a content of 1,
    which is 1 in every component, so no row after it could change the
    gcd.  Else f and g are made primitive.  If also
    lc_y(g)(x0) != 0, Res_y(f/h, g/h) specializes, so the degree is d
    unless x0 is one of the ``bad`` roots of lc_y(f) lc_y(g) Res_y(f/h,
    g/h).  Scaled by gamma(x0), where gamma = gcd(lc_y f, lc_y g), images
    of degree d are those of gamma/lc_y(h) h, of x-degree below ``need``:
    interpolated, made primitive and dividing p and q, that is h.  A failed
    division means images of degree > d, and a lower degree resets them.
    Among bad + need points, need give degree d, so the loop ends before
    ``RetryBudgetExceeded``.  Each inversion is of a unit or raises
    ``ModulusSplit``, so over a product of fields every step holds in each
    component: an image degree that differs between components leaves a
    zero divisor leading Euclid, which raises.

    Over QQ an input with one term, say p = c x^a y^b, takes no images:
    the gcd is x^min i y^min j, the minima over the exponents of both
    inputs, with coefficient 1.  In the UFD QQ[x, y] the divisors of p
    are the units times x^a' y^b' with a' <= a and b' <= b, and x^a' y^b'
    divides q exactly when a' and b' are at most the least x- and
    y-exponents of q's terms.  Over a tower a coefficient of q can be a
    zero divisor, so the x-order of q can differ between components, and
    towers keep Brown's route.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    if p.is_zero():
        return monic_lex(q)
    if q.is_zero():
        return monic_lex(p)
    tw = p.tower
    if tw != q.tower:
        raise ValueError("tower mismatch")
    if not tw.levels and 1 in (len(p.terms), len(q.terms)):
        exps = [*p.terms, *q.terms]
        return BiPoly(tw, {(min(i for i, _ in exps),
                            min(j for _, j in exps)): 1})
    p, q = int_poly(tw, p.terms)[0], int_poly(tw, q.terms)[0]
    f, g = p.to_yx(), q.to_yx()
    first = next(im for c in _x0s()
                 if (im := _image(tw, f, g, c)) is not None)
    if len(first) == 1:
        return BiPoly.from_yx(tw, (_yx_content(tw, f + g),))
    f, fc = _yx_primitive(tw, f)
    g, gc = _yx_primitive(tw, g)
    gamma = pgcd(tw, f[-1], g[-1])
    dxf, dxg = (max(map(len, u)) - 1 for u in (f, g))
    need = len(gamma) + min(dxf, dxg)
    bad = len(f[-1]) + len(g[-1]) - 2 + dxf * pdeg(g) + dxg * pdeg(f)
    pts, imgs = [], []
    for c in itertools.islice(_x0s(), bad + need):
        im = _image(tw, f, g, c)
        if im is None or (imgs and len(im) > len(imgs[0])):
            continue
        if imgs and len(im) < len(imgs[0]):
            pts, imgs = [], []
        pts.append(c)
        imgs.append(pscale(tw, im, peval(tw, gamma, c)))
        if len(imgs) == need:
            h, _ = _yx_primitive(tw, tuple(_lagrange(tw, pts, vs)
                                           for vs in zip(*imgs)))
            hp = BiPoly.from_yx(tw, h)
            if divides(hp, p) and divides(hp, q):
                return monic_lex(hp * BiPoly.from_yx(tw, (pgcd(tw, fc, gc),)))
    raise RetryBudgetExceeded(f"no gcd interpolated at {bad + need} points x0")


def exact_div(p, q):
    """Exact quotient p / q in K[x, y]; raises ValueError if not divisible."""
    if q.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return p
    tw = p.tower
    f, g = list(p.to_yx()), q.to_yx()
    quot = [()] * max(0, pdeg(f) - pdeg(g) + 1)
    while f := list(ptrim(tw, f)):
        k = pdeg(f) - pdeg(g)
        if k < 0:
            raise ValueError("inexact bivariate division")
        qc = pdiv_exact(tw, f[-1], g[-1])
        quot[k] = qc
        for i in range(pdeg(g) + 1):
            f[k + i] = psub(tw, f[k + i], pmul(tw, qc, g[i]))
        f = f[:-1]
    return BiPoly.from_yx(tw, tuple(quot))


def divides(q, p):
    try:
        exact_div(p, q)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------

def _eval_x(tw, yx, c):
    """Evaluate each x-coefficient at the rational x = c, giving a dense
    poly in y."""
    return ptrim(tw, [peval(tw, row, c) for row in yx])


def resultant_y(p, q):
    """Res_y(p, q) as a dense polynomial in x, at every depth; () when p
    or q is zero or they share a factor of positive y-degree.

    Over a tower that is not known to be a field (``Tower.is_field``)
    every pair takes ``_resultant_at_nodes``, whose inversions raise each
    ``ModulusSplit`` they meet.  Over a field the pair is reduced in
    K[x][y] by ``_euclid_resultant``, which hands the pairs it does not
    finish to the nodes."""
    tw = p.tower
    f, g = p.to_yx(), q.to_yx()
    if not f or not g:
        return ()
    if not tw.is_field:
        return _resultant_at_nodes(tw, f, g)
    return _euclid_resultant(tw, f, g)


def _euclid_resultant(tw, f, g):
    """Res_y(f, g) for nonzero f and g in (K[x])[y], by Euclid over K[x];
    () when they share a factor of positive y-degree.  K is a field, or f
    and g are free of x (a node of ``_resultant_at_nodes``).  The pair is
    kept as (f, g) with d = deg_y f >= e = deg_y g, and the answer as u
    times Res_y of the current pair, for a constant u of K that is +-1 at
    the start.  Each step is a textbook identity of the Sylvester
    resultant (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 6; Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
    ch. 3 sec. 6):

    - Swapping the pair permutes d e pairs of Sylvester rows, so
      Res(f, g) = (-1)^(d e) Res(g, f).
    - At e = 0 the Sylvester matrix is g0 times the identity of size d,
      so Res(f, g) = g0^d.
    - At e = 1 under a lead g1 that is not constant, Res(g, f) =
      g1^d f(-g0 / g1), the value at the root of g, so Res(f, g) =
      (-1)^d sum_j f_j (-g0)^j g1^(d-j), by Horner with the powers of g1
      in each term: no inversion.
    - Where lc_y g is a constant c of K, divide in K[x][y]: f = s g + r
      with deg_y r < e, inverting c once (not at all when c = 1); c is a
      unit once ``inv`` returns.  Res(g, f) = c^d prod f(a) over the roots
      a of g, and f(a) = r(a), so Res(g, f) = c^(d - deg r) Res(g, r),
      and Res(f, g) = (-1)^(d e) c^(d - deg r) Res(g, r).  At r = 0 the
      pair shares g, and the answer is ().  The pair becomes (g, r), with
      deg r < e.

    A linear g under a constant lead takes the division step, which under
    the lead 1 makes Horner's products.  So a pair is finished here when
    divisions lead to a member of y-degree 0 or 1: a line y - c1 x - c2
    x^2 against a quadric, and two monic quadrics whose difference is
    free of y, the two pair shapes of ``intersection_multiplicity`` on the
    tower-germs benchmark, each by one division under the lead 1.  The
    pairs left reach the nodes: e >= 2, and lc_y g is not constant, or
    d - e >= 2 with g of positive x-degree.

    The gap limit d - e <= 1 keeps wider pairs on the nodes, as each
    division step adds deg_x g to the remainder's x-degree: on random
    monic pairs of y-degrees (3, 5) and (3, 6), timed on a 2-vCPU Xeon
    with Python 3.11, division read 0.77-0.94 times the speed of the
    nodes.  It is a measured compromise, not a bound: at e = 2 over Q
    division read faster.  A g free of x adds nothing, so it divides at
    any gap, as every pair does at a node."""
    u = one(tw)
    if len(f) < len(g):
        f, g = g, f
        if (len(f) - 1) * (len(g) - 1) % 2:
            u = neg(tw, u)
    unit = (one(tw),)
    while True:
        d, e = pdeg(f), pdeg(g)
        if e == 0:
            res = g[0] if d else unit
            for _ in range(d - 1):
                res = pmul(tw, res, g[0])
            break
        c = g[-1]
        if e == 1 and len(c) > 1:
            a, res, bp = pneg(tw, g[0]), f[-1], unit
            for fj in reversed(f[:-1]):
                bp = pmul(tw, bp, c)
                res = padd(tw, pmul(tw, res, a), pmul(tw, fj, bp))
            if d % 2:
                u = neg(tw, u)
            break
        if len(c) > 1 or e > 1 and d - e > 1 and max(map(len, g)) > 1:
            res = _resultant_at_nodes(tw, f, g)
            break
        c = c[0]
        ic = None if c == one(tw) else inv(tw, c)
        r = list(f)
        for k in range(d - e, -1, -1):
            s = r[k + e]
            if ic is not None:
                s = pscale(tw, s, ic)
            for i in range(e):
                if g[i]:
                    r[k + i] = psub(tw, r[k + i], pmul(tw, s, g[i]))
        r = ptrim(tw, r[:e])
        if not r:
            return ()
        if d * e % 2:
            u = neg(tw, u)
        if ic is not None:
            for _ in range(d - pdeg(r)):
                u = mul(tw, u, c)
        f, g = g, r
    return res if u == one(tw) else pscale(tw, res, u)


def _degree_bound(f, g):
    """A bound on deg_x Res_y(f, g) for nonzero f, g in (K[x])[y]: the
    smaller of deg_x f e + deg_x g d and e m + d n - d e, for y-degrees
    d = deg_y f, e = deg_y g and total degrees m, n.  The Sylvester entry
    in column c of f's row k has x-degree <= m - d + c - k (n - e + c - l
    in g's row l), so each term of the determinant has x-degree
    <= e m + d n - d e, which is at most the Bezout number m n (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 8 sec. 7).
    The top row of each is nonzero, so a zero row (length 0) never sets
    a maximum."""
    d, e = pdeg(f), pdeg(g)
    dxf, dxg = (max(map(len, h)) - 1 for h in (f, g))
    m, n = (max(len(row) + j for j, row in enumerate(h)) - 1
            for h in (f, g))
    return min(dxf * e + dxg * d, e * m + d * n - d * e)


def _resultant_at_nodes(tw, f, g):
    """Res_y(f, g) for nonzero f, g in (K[x])[y]: the resultants of
    f(x0, y) and g(x0, y) at the first ``_degree_bound(f, g)`` + 1 int
    nodes x0 = 0, 1, 2, ... where both lc_y survive, interpolated by
    ``_lagrange``.  It is the one route over a tower that is not known to
    be a field.  Each node's value is ``_euclid_resultant`` on rows free
    of x.  There every lead is a constant, so every step of positive e is
    the division of Euclid by ``pdivmod``, with its remainders: it
    inverts exactly the leads ``pdivmod`` would invert, each divisor's
    lead other than 1, and a zero divisor among them raises its split
    where Euclid raised it."""
    pts, vals = [], []
    bound = _degree_bound(f, g)
    for c in itertools.count():
        if not peval(tw, f[-1], c) or not peval(tw, g[-1], c):
            continue
        pts.append(c)
        rows = ([(v,) if v else () for v in _eval_x(tw, h, c)] for h in (f, g))
        r = _euclid_resultant(tw, *rows)
        vals.append(r[0] if r else zero(tw))
        if len(pts) == bound + 1:
            break
    return _lagrange(tw, pts, vals)


def _lagrange(tw, pts, vals):
    """The polynomial of degree < n over ``tw`` that takes ``vals[k]`` at
    ``pts[k]``, for n distinct int nodes ``pts``: Lagrange's form in
    O(n^2) operations (von zur Gathen and Gerhard, Modern Computer
    Algebra, 5.2).  M = prod (x - x_j) is formed once over the integers,
    each basis numerator b_k = M / (x - x_k) by synthetic division, and
    the sum of v_k b_k / d_k, d_k = prod_{j != k} (x_k - x_j), runs on the
    int leaves v_k of the values over one common denominator, the lcm of
    the d_k, scaled once at the end."""
    m = [1]
    for xj in pts:
        m = [a - xj * b for a, b in zip([0] + m, m + [0])]
    basis, dens = [], []
    for xk in pts:
        b = [m[-1]]
        for c in reversed(m[1:-1]):
            b.append(c + xk * b[-1])
        basis.append(b[::-1])
        dens.append(math.prod(xk - xj for xj in pts if xj != xk))
    den = math.lcm(*dens)
    ints, q = int_scale(tw, vals)
    out = []
    for i in range(len(pts)):
        acc = zero(tw)
        for v, b, d in zip(ints, basis, dens):
            acc = add(tw, acc, qscale(tw, v, b[i] * den // d))
        out.append(qscale(tw, acc, 1 / (q * den)))
    return ptrim(tw, out)


# ---------------------------------------------------------------------------
# Direction splitting
# ---------------------------------------------------------------------------

def _fresh_var(tw):
    """The first ``t<n>``, n >= depth + 1, that no level of ``tw`` uses."""
    used = {v for v, _ in tw.levels}
    return next(f"t{n}" for n in itertools.count(tw.depth + 1)
                if f"t{n}" not in used)


# Rational roots are searched among the a/b with b | lc and a | c_0.  The
# divisors come by trial division, and the candidates grow with the
# divisor counts, so the search skips an input whose |lc| or |c_0| exceeds
# this; its squarefree factors of degree 2 and 3 then go to sympy.
_ROOT_SEARCH_MAX = 1 << 16


def _divisors(n):
    """The positive divisors of ``n >= 1``, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _divide_root(f, a, b):
    """``f / (b t - a)`` for an int polynomial ``f`` (low -> high) and
    ``b > 0``, or None when ``b t - a`` does not divide ``f`` over Z."""
    q = [0] * (len(f) - 1)
    c = 0
    for i in range(len(f) - 1, 0, -1):
        c, r = divmod(f[i] + a * c, b)
        if r:
            return None
        q[i - 1] = c
    return q if f[0] + a * c == 0 else None


def _sympy_factors(f):
    """sympy's irreducible factors over QQ of the squarefree int
    polynomial ``f``, as primitive int coefficients low -> high."""
    import sympy
    _, facs = sympy.Poly(f[::-1], sympy.Symbol("t"), domain="QQ").factor_list()
    return [[int(c) for c in reversed(fac.all_coeffs())] for fac, _ in facs]


def _factors_over_qq(coeffs):
    """The irreducible factors over QQ of a nonzero polynomial, as
    (primitive int coefficients with positive lead, multiplicity) pairs.

    Rational roots are found by the rational-root theorem, when |lc| and
    |c_0| are at most ``_ROOT_SEARCH_MAX``, and divided out exactly; Yun
    splits what is left into squarefree factors, unless it is already
    certified.  A factor of degree 2 or 3 that the search has seen has no
    rational root, which certifies it irreducible; sympy factors one of
    degree >= 4, or of degree 2 or 3 when the search was skipped."""
    f = int_scale(QQ, coeffs)[0]
    if f[-1] < 0:
        f = [-c for c in f]
    k = next(i for i, c in enumerate(f) if c)
    f = f[k:]
    out = [([0, 1], k)] if k else []
    searched = len(f) > 2 and max(abs(f[0]), f[-1]) <= _ROOT_SEARCH_MAX
    if searched:
        dens, nums = _divisors(f[-1]), _divisors(abs(f[0]))
        roots = ((s * a, b) for b in dens for a in nums
                 if math.gcd(a, b) == 1 for s in (1, -1))
        for a, b in roots:
            if len(f) < 3:
                break
            m = 0
            while (q := _divide_root(f, a, b)) is not None:
                f, m = q, m + 1
            if m:
                out.append(([-a, b], m))
    # the package certifies a factor of at most ``cap`` coefficients:
    # linear, or of degree 2 or 3 when the search found no root of it
    cap = 4 if searched else 2
    for fac, m in [(f, 1)] if len(f) <= cap else _yun(QQ, tuple(f)):
        fac = int_scale(QQ, fac)[0]
        if len(fac) > cap:
            out += [(g, m) for g in _sympy_factors(fac)]
        elif len(fac) > 1:
            out.append((fac, m))
    return out


def _yun(tw, f):
    """Squarefree decomposition over a tower: [(factor, multiplicity)].

    A nonconstant f whose gcd with f' is constant is squarefree and comes
    back as [(f made monic, 1)] (259 of the 332 forms of tower-germs
    whose gcd returns, 16 rounds at each of seeds 1 and 7).  The loop
    would return the same: it divides f by (1,), runs ``pmonic`` on the
    monic b = f by way of ``pgcd(b, 0)`` and divides b by itself, and
    none of that inverts anything, so no split is lost.

    An f whose every coefficient is zero or a constant (c,) of the level
    below is decomposed there, and each factor lifted back (on
    tower-germs, seeds 1 and 7, 16 rounds each, 166 of the 260 calls
    from ``split_directions`` at depth 1 and 17 of the 80 at depth 2).
    Every step of Yun on such an f is the lift of the same step one level
    down: sums, rational scales and products of constants (``mul``'s
    constant route) are lifted coefficient by coefficient, and so are
    quotients and remainders by such a divisor; a monic gcd is unique,
    so ``_pgcd_qq`` over QQ, below a depth-1 level, returns the gcd that
    the tower Euclid would.  The inversions it drops are of rationals,
    which are units, or of wrappers (c,), which ``inv`` inverts as c one
    level down, and the lower run inverts each such c itself, through
    ``inv`` or through ``pmonic``'s ``_adjugate``, which raises the same
    split.  So values, ``ModulusSplit`` variables and factors, and D5
    branches all stay the same."""
    if tw.levels and all(len(c) <= 1 for c in f):
        s = tw.sub()
        return [(tuple((c,) if c else () for c in g), m)
                for g, m in _yun(s, tuple(c[0] if c else zero(s)
                                          for c in f))]
    f = pmonic(tw, f)
    df = pderiv(tw, f)
    a = pgcd(tw, f, df)
    if len(a) == 1 and len(f) > 1:
        return [(f, 1)]
    b = pdiv_exact(tw, f, a)
    c = psub(tw, pdiv_exact(tw, df, a), pderiv(tw, b))
    out = []
    i = 1
    while pdeg(b) > 0:
        d = pgcd(tw, b, c)
        if pdeg(d) > 0:
            out.append((d, i))
        b = pdiv_exact(tw, b, d)
        c = psub(tw, pdiv_exact(tw, c, d), pderiv(tw, b))
        i += 1
    return out


def split_directions(tw, coeffs, least=1):
    """Split a univariate polynomial over ``tw`` (coefficients low -> high)
    into (tower, root) pairs, one per distinct factor of multiplicity at
    least ``least``; a factor below it is left out and never adjoined.

    One loop over (monic factor, multiplicity) pairs serves every depth: a
    linear factor gives its root in ``tw``, and a larger one a fresh level
    whose generator is the root; the level's degree is the orbit size.
    The multiplicity is that of ``_factors_over_qq`` over QQ, of ``_yun``
    over a tower, and k for c t^k; the whole polynomial is factored
    whatever ``least`` is, so the same splits are raised.
    Over QQ the factors are ``_factors_over_qq``'s, irreducible, in
    sympy's order (length, multiplicity, then the primitive int
    coefficients from the top), which the seeded draws downstream depend
    on.  Over a non-trivial tower they are ``_yun``'s squarefree factors,
    adjoined optimistically: a later zero divisor raises ModulusSplit for
    the caller to branch on.

    The input is trimmed first.  A power c t^k, k >= 1, is split with no
    factorization into its one direction 0, with the root the loop below
    gives (``from_rational(tw, 0)``, a ``Fraction`` over QQ): over QQ for
    any c != 0, as t is its one irreducible factor; over a tower only for
    c = 1.  There Yun on t^k returns [(t, k)] and inverts only the
    rationals k, k - 1, ..., 2 (the lead of k t^(k-1), then the constants
    c of its loop), units at every depth, so no ``ModulusSplit`` is lost.
    For c != 1 ``_yun``'s ``pmonic`` inverts c, a dynamic-evaluation test
    that may split, so that input keeps the general route.
    """
    coeffs = ptrim(tw, coeffs)
    if not coeffs:
        raise ValueError("cannot split the zero polynomial")
    if len(coeffs) > 1 and not any(coeffs[:-1]) and (
            not tw.levels or coeffs[-1] == one(tw)):
        return [(tw, from_rational(tw, 0))] if pdeg(coeffs) >= least else []
    if tw.levels:
        factors = _yun(tw, coeffs)
    else:
        factors = sorted(_factors_over_qq(coeffs),
                         key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))
        factors = [(tuple(Fraction(c, f[-1]) for c in f), m)
                   for f, m in factors]
    out = []
    for fac, m in factors:
        if m < least:
            continue
        if pdeg(fac) == 1:
            out.append((tw, neg(tw, fac[0])))
        else:
            ext = tw.extend(_fresh_var(tw), fac)
            out.append((ext, generator(ext)))
    return out


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def rat_str(q):
    """A Fraction or int ``q`` as the text ``p/q`` (``n/1`` for an int)."""
    return f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _frac_from_json(s):
    """The rational ``p/q`` that ``s`` spells: an optional ``-``, digits,
    then optionally ``/`` and digits, with a nonzero denominator.  The
    rest of ``Fraction``'s grammar is rejected, decimals, signs, spaces
    and underscores, and with it the decimal exponent, so ``1e999999999``
    never builds its power of ten."""
    m = _RATIONAL.fullmatch(s)
    if not m:
        raise ValueError(f"coefficient {s!r} is not p/q")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except ZeroDivisionError:
        raise ValueError(f"coefficient {s!r} has a zero denominator") from None


def json_value(v, kind, what, least=None):
    """``v``, read at the key ``what``, if its type is exactly ``kind``
    (list, int, str or dict, or a tuple of them), else TypeError: a bool
    is not an int, and a string, which is iterable too, is not a list, so
    it is never read one item per character.  An int below ``least`` is a
    ValueError."""
    kinds = kind if type(kind) is tuple else (kind,)
    if type(v) not in kinds:
        names = {list: "a list", int: "an integer", str: "a string",
                 dict: "an object"}
        raise TypeError(f"{what!r} is not "
                        + " or ".join(names[k] for k in kinds))
    if least is not None and v < least:
        raise ValueError(f"{what} must be >= {least}, not {v}")
    return v


def elem_to_json(tw, a):
    if not tw.levels:
        return rat_str(a)
    s = tw.sub()
    return {"ext": tw.top_var, "coeffs": [elem_to_json(s, c) for c in a]}


def elem_from_json(tw, data):
    """A coefficient: ``p/q``, or over a tower also ``{"ext", "coeffs"}``."""
    json_value(data, (str, dict) if tw.levels else str, "coefficient")
    if type(data) is str:
        return from_rational(tw, _frac_from_json(data))
    if data.get("ext") != tw.top_var:
        raise ValueError("element does not match tower")
    s = tw.sub()
    coeffs = json_value(data["coeffs"], list, "coeffs")
    return reduce_mod(tw, [elem_from_json(s, c) for c in coeffs])


def tower_to_json(tw):
    out = []
    running = QQ
    for var, modulus in tw.levels:
        out.append({"var": var,
                    "modulus": [elem_to_json(running, c) for c in modulus]})
        running = running.extend(var, modulus)
    return {"levels": out}


MAX_LEVELS = 64


def tower_from_json(data):
    """Build a tower from JSON.  Each modulus has its coefficients reduced
    in the tower below and passes ``Tower.extend``'s checks, and the
    depth-1 one must be irreducible over QQ (``Tower.is_field``).  Deeper
    moduli are adjoined optimistically.

    At most ``MAX_LEVELS`` levels are read, so a deeper tower is a
    ValueError whatever the caller's stack.  Elements recurse once per
    level: the germ y^2 - 3x^2 + x^5 over 64 levels, with one more
    adjoined for its tangent form, runs within a recursion limit of 350
    frames, which leaves the default limit of 1000 room for the levels
    the engine adjoins, one per irrational direction it splits."""
    data = json_value(data, dict, "tower")
    levels = json_value(data.get("levels", []), list, "levels")
    if len(levels) > MAX_LEVELS:
        raise ValueError(f"tower of {len(levels)} levels; at most "
                         f"{MAX_LEVELS} are read")
    tw = QQ
    for level in levels:
        level = json_value(level, dict, "level")
        var = json_value(level["var"], str, "var")
        modulus = tuple(elem_from_json(tw, c) for c in
                        json_value(level["modulus"], list, "modulus"))
        tw = tw.extend(var, modulus)
        if tw.depth == 1 and not tw.is_field:
            raise ValueError(f"modulus for {var!r} is reducible over QQ")
    return tw


def poly_to_json(p):
    terms = [[i, j, elem_to_json(p.tower, c)]
             for (i, j), c in sorted(p.terms.items())]
    return {"vars": ["x", "y"], "terms": terms}


def poly_from_json(tower, data):
    terms = {}
    for term in json_value(json_value(data, dict, "poly")["terms"], list,
                           "terms"):
        term = json_value(term, list, "term")
        if len(term) != 3:
            raise ValueError(f"'term' has {len(term)} items, not 3")
        i, j, c = term
        i, j = (json_value(e, int, "exponent", 0) for e in (i, j))
        if (i, j) in terms:
            raise ValueError(f"monomial x^{i} y^{j} appears twice")
        terms[(i, j)] = elem_from_json(tower, c)
    return BiPoly(tower, terms)
