"""Tower arithmetic, polynomial gcds, resultants and direction splitting."""

import functools
import itertools
import math
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from enriques import (QQ, BiPoly, DivisionByZero, ModulusSplit,
                      RetryBudgetExceeded, Tower, branched, field, poly_gcd,
                      split_directions)
from enriques.field import (add, divides, elem_from_json, elem_to_json,
                            exact_div, from_rational, generator, int_scale,
                            inv, monic_lex, mul, neg, one,
                            padd, pdivmod, peval, pgcd, pmod, pmonic, pmul,
                            poly_from_json, poly_to_json, ptrim, qscale,
                            reduce_mod, resultant_y, tower_from_json,
                            tower_to_json, zero, _fresh_var, leaves)

X = BiPoly.variable("x")
Y = BiPoly.variable("y")


class TestFieldArith:
    def test_invert_sqrt2(self):
        # invert(t) in Q[t]/(t^2 - 2) is t/2
        tw = QQ.extend("t", (Fraction(-2), Fraction(0), Fraction(1)))
        t = generator(tw)
        r = inv(tw, t)
        assert r == (Fraction(0), Fraction(1, 2))
        assert mul(tw, t, r) == one(tw)

    def test_mul_inverse_pair(self):
        assert mul(QQ, Fraction(1, 3), Fraction(3)) == Fraction(1)

    def test_invert_zero_divisor_splits(self):
        # t - 1 in Q[t]/(t^2 - 1) shares the factor t - 1 with the modulus;
        # so does the constant t - 1 of Q(t)(u), u^2 = 2, which is
        # inverted one level down
        tw = QQ.extend("t", (Fraction(-1), Fraction(0), Fraction(1)))
        tu = tw.extend("u", ((Fraction(-2),), (), (Fraction(1),)))
        for t, a in ((tw, (Fraction(-1), Fraction(1))),
                     (tu, ((Fraction(-1), Fraction(1)),))):
            with pytest.raises(ModulusSplit) as exc:
                inv(t, a)
            assert exc.value.var == "t"
            assert exc.value.factor == (Fraction(-1), Fraction(1))

    def test_branched_resolves_split(self):
        tw = QQ.extend("t", (Fraction(-1), Fraction(0), Fraction(1)))

        def job(t):
            a = reduce_mod(t, (Fraction(-1), Fraction(1)))
            if not a:
                return None
            return inv(t, a)

        results = [(bt, v) for bt, v in branched(tw, "t", job)
                   if v is not None]
        # only the branch t = -1 survives (on t = 1 the element is zero)
        assert len(results) == 1
        bt, val = results[0]
        assert mul(bt, val, from_rational(bt, Fraction(-2))) == one(bt)

    def test_branched_passes_other_splits(self):
        # t - 1 over Q(t)(u), t^2 = 1 and u^2 = 2, is a zero divisor
        # through t: the handler of u passes the split of t on, and the
        # handler of t runs the branch u on each factor of t's modulus
        tw = QQ.extend("t", (Fraction(-1), Fraction(0), Fraction(1)))

        def job(t):
            a = reduce_mod(t, (reduce_mod(t.sub(),
                                          (Fraction(-1), Fraction(1))),))
            return None if not a else inv(t, a)

        def over_u(t):
            return branched(t.extend("u", ((Fraction(-2),), (),
                                           (Fraction(1),))), "u", job)

        with pytest.raises(ModulusSplit) as exc:
            over_u(tw)
        assert exc.value.var == "t"
        got = [(bt.top_modulus, [v for _, v in r])
               for bt, r in branched(tw, "t", over_u)]
        # t = 1, where t - 1 is zero, then t = -1, where it is -2
        assert got == [((-1, 1), [None]), ((1, 1), [((Fraction(-1, 2),),)])]

    def test_extend_rejects_a_used_variable(self):
        tw = QQ.extend("t", (Fraction(-2), Fraction(0), Fraction(1)))
        with pytest.raises(ValueError, match="'t' already used"):
            tw.extend("t", ((Fraction(-3),), (), (Fraction(1),)))

    def test_division_by_zero(self):
        tw = QQ.extend("t", (Fraction(-2), Fraction(0), Fraction(1)))
        for t, zero_elem in ((QQ, Fraction(0)), (tw, ())):
            with pytest.raises(DivisionByZero, match="inverse of zero"):
                inv(t, zero_elem)
        with pytest.raises(DivisionByZero, match="polynomial division"):
            pdivmod(QQ, (Fraction(1), Fraction(1)), (Fraction(0),))
        with pytest.raises(DivisionByZero, match="zero polynomial"):
            exact_div(X + Y, BiPoly(QQ, {}))

    def test_int_inputs_stay_exact(self):
        # a depth-0 leaf may be an int; 1 / 3 would be a float
        assert inv(QQ, 3) == Fraction(1, 3)
        assert type(inv(QQ, 3)) is Fraction
        # a product by the unit returns the other operand, int leaves
        # and all, at depths 1 and 2
        q_st = QQ.extend("s", (-2, 0, 1)).extend("t", ((-3,), (), (1,)))
        for tw, b in ((q_st.sub(), (2, -1)), (q_st, ((1,), (0, 3)))):
            assert mul(tw, one(tw), b) is b
            assert mul(tw, from_rational(tw, 1), b) is b
        p = monic_lex(BiPoly(QQ, {(0, 1): 2, (1, 0): 1}))
        assert p.terms == {(0, 1): Fraction(1), (1, 0): Fraction(1, 2)}
        assert all(type(v) is Fraction for v in p.terms.values())

    def test_add_sub(self):
        tw = QQ.extend("t", (Fraction(-2), Fraction(0), Fraction(1)))
        t = generator(tw)
        assert add(tw, add(tw, t, t), neg(tw, t)) == t
        assert add(tw, t, neg(tw, t)) == ()

    @pytest.mark.parametrize("modulus", [
        ((-1, 0), (), (1,)), ((0, 0, 1), (), (1,)), ((-1,), (0.5,), (1,))],
        ids=["untrimmed", "unreduced", "float-leaf"])
    def test_extend_rejects_unreduced_coefficients(self, modulus):
        # (-1, 0) has a trailing zero and (0, 0, 1) is t^2, not reduced
        # modulo t^2 - 1; both were accepted, and inv(u) over the first
        # raised DivisionByZero although u^2 = 1
        tw = QQ.extend("t", (-1, 0, 1))
        with pytest.raises(ValueError, match="reduced element"):
            tw.extend("u", modulus)

    def test_add_a_rational(self):
        tw = QQ.extend("t", (Fraction(-2), Fraction(0), Fraction(1)))
        t = generator(tw)
        assert (add(tw, t, from_rational(tw, 1))
                == (Fraction(1), Fraction(1)))


class TestBiPolyValue:
    def test_equal_to_a_constant(self):
        assert X - X == 0 and X + 2 - X == 2 and X != 0
        assert (X == "x") is False

    def test_hash_and_repr(self):
        assert hash(X * Y) == hash(Y * X)
        assert repr(X - X) == "BiPoly(0)"
        assert repr(BiPoly.const(3)) == "BiPoly((Fraction(3, 1)))"
        assert repr(X) == "BiPoly((1)x)"
        assert repr(2 * X ** 2 * Y ** 3 - Y) == (
            "BiPoly((-1)y + (Fraction(2, 1))x^2y^3)")
        s = BiPoly(Q_S, {(0, 0): generator(Q_S)})
        assert repr(s * BiPoly.variable("y", Q_S) + 3) == (
            "BiPoly(((Fraction(3, 1),)) + ((0, 1))y)")

    def test_deriv(self):
        p = X ** 3 * Y ** 2 + 5 * Y + 7
        assert p.deriv("x") == 3 * X ** 2 * Y ** 2
        assert p.deriv("y") == 2 * X ** 3 * Y + 5
        with pytest.raises(ValueError, match="named 'x' and 'y'"):
            p.deriv("z")


class TestPolyGcd:
    def test_monomial_gcd(self):
        g = poly_gcd(X ** 2 * Y, X * Y ** 2)
        assert g == X * Y

    def test_coprime(self):
        g = poly_gcd(X ** 2 + Y ** 2, X + Y)
        assert g == BiPoly.const(1)

    def test_gcd_with_zero(self):
        p = 2 * X + 2 * Y
        g = poly_gcd(p, BiPoly.zero())
        assert g == X + Y  # normalized monic

    def test_divides_both(self):
        p = (X + Y) * (X - Y) ** 2
        q = (X + Y) ** 2 * (Y ** 2 - X ** 3)
        g = poly_gcd(p, q)
        assert divides(g, p) and divides(g, q)
        assert g == X + Y

    def test_exact_div_roundtrip(self):
        p = (X ** 2 + 3 * Y) * (Y - X)
        assert exact_div(p, Y - X) == X ** 2 + 3 * Y

    def test_exact_div_by_y_free_divisor(self):
        p = (X + 1) * (Y ** 2 + X)
        assert exact_div(p, X + 1) == Y ** 2 + X
        # X + 2 divides no coefficient of y, so the division is inexact
        with pytest.raises(ValueError):
            exact_div(p, X + 2)
        assert divides(X + 1, p) and not divides(X + 2, p)

    def test_gcd_over_extension(self):
        tw = QQ.extend("t", (Fraction(-2), Fraction(0), Fraction(1)))
        t = BiPoly(tw, {(0, 0): generator(tw)})
        x = BiPoly.variable("x", tw)
        y = BiPoly.variable("y", tw)
        p = (y - t * x) * (y + t * x)
        g = poly_gcd(p, y - t * x)
        assert g == y - t * x


class TestResultants:
    def test_node_resultant_linear(self):
        # Res(y - 3, y + 5) = 5 - (-3) = 8, by Sylvester's sign, on rows
        # free of x as a node gives them
        f, g = (Fraction(-3), Fraction(1)), (Fraction(5), Fraction(1))
        r = field._euclid_resultant(QQ, *(tuple((c,) for c in h)
                                          for h in (f, g)))
        assert r == (8,) and sylvester(f, g) == 8

    def test_resultant_parabolas(self):
        # res_y(y - x^2, y + x^2) = 2x^2
        r = resultant_y(Y - X ** 2, Y + X ** 2)
        nz = {i: c for i, c in enumerate(r) if c}
        assert set(nz) == {2}

    def test_resultant_vanishing_order(self):
        # cusp against a smooth germ: order should be intersection number 2
        r = resultant_y(Y ** 2 - X ** 3, Y)
        first = next(i for i, c in enumerate(r) if c)
        assert first == 3
        r2 = resultant_y(Y ** 2 - X ** 3, Y - X)
        first2 = next(i for i, c in enumerate(r2) if c)
        assert first2 == 2


def orbit(tw, ext):
    """The orbit size of a root in ``ext`` split from a polynomial over
    ``tw``: 1 for a root in ``tw``, else the adjoined level's degree."""
    return 1 if ext == tw else len(ext.top_modulus) - 1


class TestSplitDirections:
    """``split_directions`` gives (tower, root) pairs; the multiplicities
    are those of the factorizations it splits, ``_factors_over_qq`` over
    QQ and ``_yun`` over a tower."""

    def test_cube_roots_of_unity(self):
        p = (Fraction(-1), Fraction(0), Fraction(0), Fraction(1))
        dirs = split_directions(QQ, p)
        assert [orbit(QQ, t) for t, _ in dirs] == [1, 2]
        assert dirs[0] == (QQ, Fraction(1))
        assert field._factors_over_qq(p) == [([-1, 1], 1), ([1, 1, 1], 1)]

    def test_repeated_rational_root(self):
        p = (Fraction(0), Fraction(0), Fraction(1))  # y^2
        assert split_directions(QQ, p) == [(QQ, Fraction(0))]
        assert field._factors_over_qq(p) == [([0, 1], 2)]

    def test_irrational_pair(self):
        p = (Fraction(-2), Fraction(0), Fraction(1))  # y^2 - 2
        ((tw, root),) = split_directions(QQ, p)
        assert tw.levels and root == generator(tw)  # got extended
        assert orbit(QQ, tw) == 2
        assert field._factors_over_qq(p) == [([-2, 0, 1], 1)]

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_orbit_times_mult_sums_to_degree(self, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        if len(cs) < 2:
            return
        factors = field._factors_over_qq(cs)
        assert sum((len(f) - 1) * m for f, m in factors) == len(cs) - 1
        # one direction per factor, its orbit the factor's degree
        assert (sorted(orbit(QQ, t) for t, _ in split_directions(QQ, cs))
                == sorted(len(f) - 1 for f, _ in factors))

    def test_pinned_over_q_s(self):
        # (t^2 - 3)^2 (t - s)(t^2 + 1) over Q(s), s^2 = 2: Yun's squarefree
        # factors, the cubic (t - s)(t^2 + 1) adjoined optimistically and
        # t^2 - 3 with multiplicity 2
        s, o = generator(Q_S), one(Q_S)
        f = qq_product([(((-3,), (), o), 2), ((neg(Q_S, s), o), 1),
                        (((1,), (), o), 1)], Q_S)
        cubic = Q_S.extend("t2", ((0, -1), (1,), (0, -1), (1,)))
        quadratic = Q_S.extend("t2", ((-3,), (), (1,)))
        assert split_directions(Q_S, f) == [(cubic, ((), (1,))),
                                            (quadratic, ((), (1,)))]
        assert [m for _, m in field._yun(Q_S, f)] == [1, 2]


class TestFreshVar:
    def test_default_names(self):
        assert _fresh_var(QQ) == "t1"
        tw = QQ.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))
        assert _fresh_var(tw) == "t2"

    def test_skips_names_in_use(self):
        tw = QQ.extend("t2", (Fraction(-2), Fraction(0), Fraction(1)))
        assert _fresh_var(tw) == "t3"
        tw = tw.extend("t3", ((Fraction(-3),), (), (Fraction(1),)))
        assert _fresh_var(tw) == "t4"


class TestJson:
    def test_poly_roundtrip_qq(self):
        p = 2 * X ** 2 - Fraction(1, 3) * Y + 7
        data = poly_to_json(p)
        assert poly_from_json(QQ, data) == p

    def test_poly_roundtrip_tower(self):
        tw = QQ.extend("t1", (Fraction(-2), Fraction(0), Fraction(1)))
        t = BiPoly(tw, {(0, 0): generator(tw)})
        p = t * BiPoly.variable("x", tw) + 1
        data = poly_to_json(p)
        back = poly_from_json(tower_from_json(tower_to_json(tw)), data)
        assert back == p

    def test_cubic_modulus_needs_no_sympy(self, monkeypatch):
        # t^3 - 2 has no rational root, which certifies it irreducible
        monkeypatch.setitem(sys.modules, "sympy", _NoSympy())
        tw = QQ.extend("c", (Fraction(-2), 0, 0, Fraction(1)))
        assert tower_from_json(tower_to_json(tw)) == tw

    @pytest.mark.parametrize("modulus, irreducible", [
        ((-1, 0, 1), False), ((4, 0, 0, 0, 1), False),
        ((1, 0, 2, 0, 1), False), ((-2, 0, 0, 1), True), ((1, 0, 1), True)],
        ids=["t2-1", "t4+4", "(t2+1)^2", "t3-2", "t2+1"])
    def test_depth_one_modulus_certified(self, monkeypatch, modulus,
                                         irreducible):
        # one Tower.extend per level: the certificate builds no tower
        calls = []
        extend = Tower.extend
        monkeypatch.setattr(Tower, "extend", lambda tw, var, m: calls.append(
            var) or extend(tw, var, m))
        data = {"levels": [{"var": "t", "modulus": [f"{c}/1"
                                                    for c in modulus]}]}
        if irreducible:
            assert tower_from_json(data).levels == (("t", modulus),)
        else:
            with pytest.raises(ValueError, match="reducible"):
                tower_from_json(data)
        assert calls == ["t"]

    @pytest.mark.parametrize("modulus, irreducible", [
        ((-1, 0, 1), False), ((4, 0, 0, 0, 1), False),
        ((1, 0, 2, 0, 1), False), ((-2, 0, 0, 1), True), ((1, 0, 1), True)],
        ids=["t2-1", "t4+4", "(t2+1)^2", "t3-2", "t2+1"])
    def test_is_field(self, modulus, irreducible):
        # QQ, or one level irreducible over QQ; a deeper level may split
        tw = QQ.extend("t", modulus)
        assert QQ.is_field and tw.is_field == irreducible
        assert not tw.extend("u", ((2,), (), (1,))).is_field

    def test_elements_are_reduced(self):
        # s^2 is 2 and s^2 - 2 is 0 in Q(s), also where they are read
        s2 = {"ext": "s", "coeffs": ["0", "0", "1"]}
        assert elem_from_json(Q_S, s2) == from_rational(Q_S, 2)
        assert elem_from_json(Q_S, {"ext": "s",
                                    "coeffs": ["-2", "0", "1"]}) == ()

    def test_elem_roundtrip(self):
        tw = QQ.extend("t1", (Fraction(-2), Fraction(0), Fraction(1)))
        a = (Fraction(1, 2), Fraction(3))
        assert elem_from_json(tw, elem_to_json(tw, a)) == a


class TestInvertProperty:
    @given(st.fractions(min_value=-100, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_inverse_identity(self, q):
        if q == 0:
            return
        assert mul(QQ, q, inv(QQ, q)) == Fraction(1)


# Q, Q(s) with s^2 = 2, and Q(s)(t) with t^2 = 3: fields, so every nonzero
# leading coefficient is invertible.
Q_S = QQ.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))
Q_ST = Q_S.extend("t", ((Fraction(-3),), (), (Fraction(1),)))
TOWERS = (QQ, Q_S, Q_ST)

small_q = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def elements(tw):
    """Reduced elements: coefficient lists shorter than the top degree."""
    if not tw.levels:
        return small_q
    sub = tw.sub()
    deg = len(tw.top_modulus) - 1
    return st.lists(elements(sub), max_size=deg).map(
        lambda cs: ptrim(sub, cs))


def nonzero(tw):
    """Nonzero reduced elements.  Above depth 0 they are a nonzero top
    coefficient over any lower ones, drawn without a filter: filtering
    the zeros out of ``elements`` rejected too many draws at depth 2."""
    if not tw.levels:
        return small_q.filter(bool)
    sub = tw.sub()
    deg = len(tw.top_modulus) - 1
    return st.tuples(st.lists(elements(sub), max_size=deg - 1),
                     nonzero(sub)).map(lambda t: (*t[0], t[1]))


@st.composite
def divisions(draw, tw, monic):
    f = ptrim(tw, draw(st.lists(elements(tw), max_size=6)))
    lead = one(tw) if monic else draw(nonzero(tw))
    g = tuple(draw(st.lists(elements(tw), max_size=3))) + (lead,)
    return f, g


DEPTHS = pytest.mark.parametrize("tw", TOWERS, ids=["d0", "d1", "d2"])


def spy_inversions_of_one(monkeypatch):
    """The depths at which ``field.inv`` is asked to invert 1 from now on."""
    ones = []
    orig = field.inv

    def spy(t, b):
        if b == one(t):
            ones.append(t.depth)
        return orig(t, b)

    monkeypatch.setattr(field, "inv", spy)
    return ones


class TestCoreProperties:
    @DEPTHS
    @pytest.mark.parametrize("monic", [True, False], ids=["monic", "general"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_pdivmod_identity(self, tw, monic, data):
        f, g = data.draw(divisions(tw, monic))
        q, r = pdivmod(tw, f, g)
        assert len(r) < len(g)
        assert padd(tw, pmul(tw, q, g), r) == f

    @DEPTHS
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), q=small_q)
    def test_qscale_is_mul_by_rational(self, tw, data, q):
        a = data.draw(elements(tw))
        assert qscale(tw, a, q) == mul(tw, a, from_rational(tw, q))

    @pytest.mark.parametrize("tw, a", [
        (Q_S, (1, 1)), (Q_ST, ((1,), (0, 1))),
        (QQ.extend("s", (-3, 0, 1)), (-2, 1))], ids=["1+s", "1+st", "s-2"])
    def test_inv_inverts_no_one(self, monkeypatch, tw, a):
        # the inverse of a unit is its Bezout cofactor scaled by the
        # inverse of the constant last remainder (-1 for 1 + s, -5/2 for
        # 1 + st), or the cofactor itself when that remainder is 1 (s - 2
        # over s^2 = 3), with no inversion of 1 at any depth below
        ones = spy_inversions_of_one(monkeypatch)
        assert mul(tw, a, field.inv(tw, a)) == one(tw)
        assert ones == []

    @pytest.mark.parametrize("tw", [QQ, Q_S], ids=["QQ", "Q(s)"])
    def test_content_gcd_inverts_no_one(self, monkeypatch, tw):
        # gcd(x^2, x y + x) = x is the content gcd in K[x], which Euclid
        # already made monic: monic-lex then needs no inversion of 1
        ones = spy_inversions_of_one(monkeypatch)
        x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
        assert poly_gcd(x ** 2, x * y + x) == x
        assert ones == []


# moduli with rational, not integer, coefficients, as split_directions
# adjoins them: r^2 + r/3 - 1/2 and u^2 + (r/2) u - 1/3
Q_R = QQ.extend("r", (Fraction(-1, 2), Fraction(1, 3), Fraction(1)))
Q_RU = Q_R.extend("u", ((Fraction(-1, 3),), (Fraction(0), Fraction(1, 2)),
                        (Fraction(1),)))
INT_TOWERS = pytest.mark.parametrize(
    "tw", (QQ, Q_ST, Q_R, Q_RU), ids=["d0", "d2", "d1-rational",
                                      "d2-rational"])


def leaf_elements(tw, leaf):
    """Reduced elements whose leaves are drawn from ``leaf``."""
    if not tw.levels:
        return leaf
    sub = tw.sub()
    return st.lists(leaf_elements(sub, leaf),
                    max_size=len(tw.top_modulus) - 1).map(
        lambda cs: ptrim(sub, cs))


def int_scale_oracle(tw, elems):
    """``int_scale`` as it was before its all-int route: the lcm of the
    denominators and the gcd of the scaled numerators, read from every
    leaf, with every element rebuilt."""
    def scaled(t, elems, den, num):
        if not t.levels:
            return [v.numerator * (den // v.denominator) // num
                    for v in elems]
        return [tuple(scaled(t.sub(), a, den, num)) for a in elems]

    vals = leaves(tw, elems)
    den = math.lcm(*(v.denominator for v in vals))
    num = math.gcd(*(v.numerator * (den // v.denominator) for v in vals)) or 1
    return scaled(tw, elems, den, num), Fraction(den, num)


def int_leaves(tw, a):
    return all(type(v) is int for v in leaves(tw, [a]))


def int_const(tw, k):
    """The int ``k`` as an element of ``tw``, with an int leaf."""
    if not tw.levels:
        return k
    return (int_const(tw.sub(), k),) if k else ()


class TestIntTower:
    """Tower arithmetic on integer leaves."""

    @INT_TOWERS
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_int_scale(self, tw, data):
        elems = data.draw(st.lists(elements(tw), max_size=4))
        ints, q = int_scale(tw, elems)
        assert q > 0
        assert all(int_leaves(tw, a) for a in ints)
        assert ints == [qscale(tw, a, q) for a in elems]
        assert math.gcd(*leaves(tw, ints)) in (0, 1)

    @DEPTHS
    @pytest.mark.parametrize("kind", ["int", "fraction", "integral", "mixed"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_int_scale_is_the_general_route(self, tw, kind, data):
        """The all-int route returns what the route over ``Fraction``
        leaves, kept here as the oracle, returns: equal elements, equal
        scale, and int leaves."""
        ints_ = st.integers(-5, 5)
        leaf = {"int": ints_, "fraction": small_q,
                "integral": ints_.map(Fraction),
                "mixed": st.one_of(ints_, small_q, ints_.map(Fraction))}[kind]
        g = data.draw(st.sampled_from([1, 2, 6]))
        elems = [qscale(tw, a, g)
                 for a in data.draw(st.lists(leaf_elements(tw, leaf),
                                             max_size=4))]
        ints, q = int_scale(tw, elems)
        want, want_q = int_scale_oracle(tw, elems)
        assert ints == want and q == want_q
        assert all(type(v) is int for v in leaves(tw, ints))
        vals = leaves(tw, elems)
        if all(type(v) is int for v in vals) and math.gcd(*vals) <= 1:
            assert ints == elems and q == 1

    @pytest.mark.parametrize("tw, elems, want, q", [
        (QQ, [], [], 1),
        (Q_S, [(), ()], [(), ()], 1),
        (QQ, [0, 3, -2], [0, 3, -2], 1),
        (QQ, [0, 4, -6], [0, 2, -3], Fraction(1, 2)),
        (Q_S, [(Fraction(4), Fraction(-6))], [(2, -3)], Fraction(1, 2)),
        (Q_ST, [((6,), (0, -4)), ()], [((3,), (0, -2)), ()], Fraction(1, 2)),
        (Q_S, [(Fraction(1, 2), 1)], [(1, 2)], 2),
    ], ids=["empty", "zeros", "primitive", "gcd-2", "integral-fractions",
            "d2-gcd-2", "fraction"])
    def test_int_scale_cases(self, tw, elems, want, q):
        ints, got_q = int_scale(tw, elems)
        assert (ints, got_q) == (want, q)
        assert all(type(v) is int for v in leaves(tw, ints))

    @pytest.mark.parametrize("tw", (Q_S, Q_ST, Q_R, Q_RU),
                             ids=["d1", "d2", "d1-rational", "d2-rational"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_reduce_mod_is_pmod(self, tw, data):
        """The one reduction against the general division, on unreduced
        coefficient lists of any length."""
        s = tw.sub()
        cs = data.draw(st.lists(elements(s), max_size=3 * len(tw.top_modulus)))
        assert reduce_mod(tw, cs) == pmod(s, ptrim(s, cs), tw.top_modulus)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_mul_keeps_int_leaves(self, data):
        a, b = (int_scale(Q_ST, [data.draw(elements(Q_ST))])[0][0]
                for _ in range(2))
        assert int_leaves(Q_ST, mul(Q_ST, a, b))
        assert int_leaves(Q_ST, one(Q_ST))
        assert int_leaves(Q_ST, generator(Q_ST))

    @INT_TOWERS
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_products_keep_int_leaves(self, tw, data):
        """Sums start from their first product, not from a zero, so int
        leaves stay ints: in ``pmul`` over a tower with int moduli, and in
        a product by an int, which reduces nothing, over any tower.  In a
        tower a product by the unit, with int or ``Fraction`` leaves,
        returns the other operand itself."""
        vals = int_scale(tw, [data.draw(elements(tw)) for _ in range(4)])[0]
        if tw in (QQ, Q_ST):
            assert all(int_leaves(tw, c) for c in pmul(tw, vals[:2], vals[2:]))
        k = int_const(tw, data.draw(st.integers(-5, 5)))
        assert int_leaves(tw, mul(tw, k, vals[0]))
        assert int_leaves(tw, mul(tw, vals[0], k))
        if tw.levels:
            for unit in (one(tw), from_rational(tw, 1)):
                assert mul(tw, unit, vals[0]) is vals[0]
                assert mul(tw, vals[0], unit) == vals[0]


Q_CUBE = QQ.extend("c", (Fraction(-2), Fraction(0), Fraction(0), Fraction(1)))
Q_T = QQ.extend("t", (Fraction(-1), Fraction(0), Fraction(1)))  # Q x Q


def euclid_reference(tw, f, g):
    """Plain Euclid, dividing by each remainder as it comes, then the last
    divisor made monic: the reference for ``pgcd`` in a tower."""
    f, g = ptrim(tw, f), ptrim(tw, g)
    while g:
        f, g = g, pmod(tw, f, g)
    return pmonic(tw, f)


@st.composite
def gcd_pairs(draw, tw):
    """(f h, g h) for a division (f, g) and a common factor h, so that
    Euclid often ends above degree 0."""
    f, g = draw(divisions(tw, False))
    h = draw(divisions(tw, False))[1]
    return pmul(tw, f, h), pmul(tw, g, h)


def gcd_or_split(tw, gcd, f, g):
    try:
        return "gcd", gcd(tw, f, g)
    except ModulusSplit as e:
        return "split", e.var, e.factor


def plain_inv(tw, a):
    """Plain extended Euclid against the top modulus until the remainder
    is zero, then the cofactor over the constant last divisor: the
    reference for ``inv``.  It inverts one level down through
    ``field.inv``, directly and in ``pdivmod`` and ``pmonic``."""
    if not tw.levels:
        return inv(tw, a)
    s = tw.sub()
    if len(a) == 1:
        return (field.inv(s, a[0]),)
    r0, s0, r1, s1 = tw.top_modulus, (), a, (one(s),)
    while r1:
        q, r = pdivmod(s, r0, r1)
        r0, s0, r1, s1 = r1, s1, r, field.psub(s, s0, pmul(s, q, s1))
    if len(r0) > 1:
        raise ModulusSplit(tw.top_var, pmonic(s, r0))
    if r0[0] == one(s):
        return reduce_mod(tw, s0)
    return reduce_mod(tw, field.pscale(s, s0, field.inv(s, r0[0])))


def spy_inverted(monkeypatch, inverse):
    """Route every ``field.inv`` call, the recursive ones too, through
    ``inverse``; returns the list of (depth, element) it is asked for."""
    seen = []

    def spy(t, b):
        seen.append((t.depth, b))
        return inverse(t, b)

    monkeypatch.setattr(field, "inv", spy)
    return seen


def inverse_or_split(tw, a):
    try:
        return "inverse", field.inv(tw, a)
    except ModulusSplit as e:
        return "split", e.var, e.factor


def assert_inv_matches_plain_euclid(tw, a):
    """The same inverse or the same split, with the same distinct
    elements inverted in the same order at every depth >= 1.  Below a
    depth-1 level of degree 2, which inverts in closed form, the one
    rational inverted is that of a constant (b,), right after it; below
    any other, the rationals inverted are plain Euclid's too."""
    with pytest.MonkeyPatch.context() as mp:
        want_seen = spy_inverted(mp, plain_inv)
        want = inverse_or_split(tw, a)
    with pytest.MonkeyPatch.context() as mp:
        got_seen = spy_inverted(mp, inv)
        got = inverse_or_split(tw, a)
    assert got == want
    if Tower(tw.levels[:1])._quadratic:
        assert all(prev == (1, (b,)) for prev, (d, b)
                   in zip([None, *got_seen], got_seen) if not d)
        got_seen = [(d, b) for d, b in got_seen if d]
        want_seen = [(d, b) for d, b in want_seen if d]
    assert list(dict.fromkeys(got_seen)) == list(dict.fromkeys(want_seen))


# u^2 = t over Q(t), t^2 = 1, is u^2 = 1 on one factor of Q x Q and
# u^2 = -1 on the other; c^3 = c t is c (c^2 - t), reducible on both
Q_TU = Q_T.extend("u", ((Fraction(0), Fraction(-1)), (), (Fraction(1),)))
Q_TC = Q_T.extend("c", ((), (Fraction(0), Fraction(-1)), (), (Fraction(1),)))


class TestTowerEuclid:
    """``pgcd`` in a tower: Euclid on monic divisors."""

    @pytest.mark.parametrize("tw", [Q_S, Q_ST], ids=["d1", "d2"])
    def test_no_lead_inverted_twice(self, monkeypatch, tw):
        # (x - a)(x - 1) and s (x - a)(x + 2), for a = s at depth 1 and
        # a = t at depth 2: two Euclid steps, the last divisor -3 (x - a),
        # which is not monic.  Plain Euclid inverts -3 in its last
        # division and again to make the gcd monic.
        a = generator(tw)
        c = generator(tw) if tw == Q_S else (generator(Q_S),)
        f = pmul(tw, (neg(tw, a), one(tw)), (from_rational(tw, -1), one(tw)))
        g = pmul(tw, (neg(tw, mul(tw, c, a)), c),
                 (from_rational(tw, 2), one(tw)))
        # at depth 1 pmonic inverts a lead of length 2 through _adjugate,
        # not through inv, so both are spied
        seen = []

        def spy(orig):
            def call(t, b):
                if t == tw:
                    seen.append(b)
                return orig(t, b)
            return call

        for name in ("inv", "_adjugate"):
            monkeypatch.setattr(field, name, spy(getattr(field, name)))
        assert pgcd(tw, f, g) == (neg(tw, a), one(tw))
        assert len(seen) == len(set(seen)) >= 2

    @pytest.mark.parametrize("tw", [Q_S, Q_ST, Q_R, Q_RU],
                             ids=["d1", "d2", "d1-rational", "d2-rational"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_plain_euclid(self, tw, data):
        f, g = data.draw(gcd_pairs(tw))
        assert pgcd(tw, f, g) == euclid_reference(tw, f, g)

    @settings(max_examples=60, deadline=None)
    @given(fg=gcd_pairs(Q_T))
    # x^3 + (1 + t) x + 1 mod x^2 has the zero divisor 1 + t as its lead
    @example(fg=(((1,), (1, 1), (), (1,)), ((), (), (1,))))
    def test_splits_as_plain_euclid(self, fg):
        """Over Q(t), t^2 = 1 = Q x Q, both raise the same split or return
        the same gcd."""
        assert (gcd_or_split(Q_T, pgcd, *fg)
                == gcd_or_split(Q_T, euclid_reference, *fg))

    @pytest.mark.parametrize("tw", [Q_S, Q_ST, Q_R, Q_RU, Q_T, Q_TU, Q_CUBE,
                                    Q_TC],
                             ids=["d1", "d2", "d1-rational", "d2-rational",
                                  "d1-split", "d2-over-split", "d1-cubic",
                                  "d2-cubic-over-split"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_inv_matches_plain_euclid(self, tw, data):
        assert_inv_matches_plain_euclid(tw, data.draw(nonzero(tw)))

    # elements whose Euclid against the top modulus ends at a remainder of
    # exactly 1, which the draws above reach only at some seeds
    @pytest.mark.parametrize("tw, a", [
        (Q_CUBE, (Fraction(2), Fraction(0), Fraction(-1))),
        (Q_ST, ((Fraction(2),), (Fraction(1),))),
        (Q_TC, ((Fraction(1),), (), (Fraction(2),)))],
        ids=["d1-cubic", "d2", "d2-cubic-over-split"])
    def test_inv_at_a_last_remainder_of_1(self, tw, a):
        assert_inv_matches_plain_euclid(tw, a)

    def test_inv_inverts_each_element_once(self, monkeypatch):
        # 1 + s t over Q(s)(t), s^2 = 2 and t^2 = 3: the top step inverts
        # s (whose own last remainder is -2) and then the last remainder
        # -5/2, which plain Euclid inverts twice, in its last division and
        # at its close
        a = ((1,), (0, 1))
        seen = spy_inverted(monkeypatch, inv)
        assert mul(Q_ST, a, field.inv(Q_ST, a)) == one(Q_ST)
        assert (2, a) in seen and (1, (Fraction(-5, 2),)) in seen
        assert len(seen) == len(set(seen))


def monic_or_split(tw, monic, f):
    try:
        return "monic", monic(tw, f)
    except ModulusSplit as e:
        return "split", e.var, e.factor


def plain_pmonic(tw, f):
    """``f`` scaled by the inverse of its lead from ``field.inv``: the
    reference for ``pmonic``."""
    return field.pscale(tw, f, field.inv(tw, f[-1]))


class TestQuadraticClosedForm:
    """At a depth-1 level of degree 2, ``inv`` and ``pmonic`` invert by
    ``_adjugate``'s closed form b / n: the same value, or the same split
    variable and factor, as plain Euclid.  Over Q(t), t^2 = 1, n is 0 at
    the zero divisors a0 + a0 t and a0 - a0 t, and the split carries
    t + 1 or t - 1.  Q(t)(u), u^2 = t, is quadratic at depth 2, where
    Euclid stays."""

    TOWERS = pytest.mark.parametrize(
        "tw", [Q_S, Q_R, Q_T, Q_TU],
        ids=["d1", "d1-rational", "d1-split", "d2-over-split"])

    @TOWERS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_inv_matches_plain_euclid(self, tw, data):
        a = data.draw(nonzero(tw))
        with pytest.MonkeyPatch.context() as mp:
            spy_inverted(mp, plain_inv)
            want = inverse_or_split(tw, a)
        assert inverse_or_split(tw, a) == want

    @TOWERS
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pmonic_matches_plain_inverse(self, tw, data):
        f = tuple(data.draw(st.lists(elements(tw), max_size=3)))
        f += (data.draw(nonzero(tw)),)
        with pytest.MonkeyPatch.context() as mp:
            spy_inverted(mp, plain_inv)
            want = monic_or_split(tw, plain_pmonic, f)
        assert monic_or_split(tw, pmonic, f) == want

    @pytest.mark.parametrize("a, factor", [
        ((2, 2), (1, 1)), ((Fraction(-1, 3), Fraction(1, 3)), (-1, 1))],
        ids=["1+t", "1-t"])
    def test_zero_divisor_splits(self, a, factor):
        # n = a0^2 - a1^2 = 0 over t^2 = 1: a is a0 (1 + t) or a0 (1 - t)
        want = ("split", "t", factor)
        with pytest.MonkeyPatch.context() as mp:
            spy_inverted(mp, plain_inv)
            assert inverse_or_split(Q_T, a) == want
            assert monic_or_split(Q_T, plain_pmonic, ((1,), a)) == want
        assert inverse_or_split(Q_T, a) == want
        assert monic_or_split(Q_T, pmonic, ((1,), a)) == want

    def test_depth_2_keeps_euclid(self):
        # 1 + (1 + t) u over Q(t)(u), u^2 = t: Euclid inverts the lead
        # 1 + t, a zero divisor, and splits t^2 - 1; the adjugate formula
        # there would divide by n = 1 - (1 + t)^2 t = -1 - 2t, a unit
        a = ((1,), (1, 1))
        assert inverse_or_split(Q_TU, a) == ("split", "t", (1, 1))
        assert monic_or_split(Q_TU, pmonic, ((1,), a)) == ("split", "t",
                                                           (1, 1))

    @pytest.mark.parametrize("tw, a", [
        (Q_S, (1, 1)), (Q_R, (Fraction(1, 2), 3)), (Q_T, (2, 1))],
        ids=["d1", "d1-rational", "d1-split"])
    def test_adjugate_times_a_is_n(self, tw, a):
        b, n = field._adjugate(tw, a)
        assert mul(tw, a, b) == from_rational(tw, n)
        assert n == sylvester(tw.top_modulus, a)


def pmonic_reference(tw, f):
    """``f`` times the inverse of its lead, the top included: b / n from
    ``_adjugate`` where ``pmonic`` takes the closed form, and
    ``field.inv`` of the lead elsewhere, each applied by ``pscale``."""
    if not f or f[-1] == one(tw):
        return f
    lc = f[-1]
    if tw._quadratic and len(lc) == 2:
        b, n = field._adjugate(tw, lc)
        return field.pscale(tw, field.pscale(tw, f, b),
                            from_rational(tw, Fraction(1, n)))
    return field.pscale(tw, f, field.inv(tw, lc))


def pgcd_reference(tw, f, g):
    """``pgcd``'s Euclid on monic divisors, made monic by
    ``pmonic_reference``."""
    f, g = ptrim(tw, f), ptrim(tw, g)
    if not tw.levels:
        return field._pgcd_qq(f, g)
    if not g:
        return pmonic_reference(tw, f)
    g = pmonic_reference(tw, g)
    while g:
        f, g = g, pmonic_reference(tw, pmod(tw, f, g))
    return f


def yun_reference(tw, f):
    """Yun's loop to the end, with no exit at a constant gcd(f, f'), on
    ``pmonic_reference`` and ``pgcd_reference``."""
    f = pmonic_reference(tw, f)
    df = field.pderiv(tw, f)
    a = pgcd_reference(tw, f, df)
    b = field.pdiv_exact(tw, f, a)
    c = field.psub(tw, field.pdiv_exact(tw, df, a), field.pderiv(tw, b))
    out = []
    i = 1
    while field.pdeg(b) > 0:
        d = pgcd_reference(tw, b, c)
        if field.pdeg(d) > 0:
            out.append((d, i))
        b = field.pdiv_exact(tw, b, d)
        c = field.psub(tw, field.pdiv_exact(tw, c, d), field.pderiv(tw, b))
        i += 1
    return out


@st.composite
def yun_forms(draw, tw):
    """A lead times up to two factors of degree 1 or 2 with multiplicity
    1 or 2: constants, squarefree forms and forms with a repeated
    factor."""
    f = (draw(nonzero(tw)),)
    for _ in range(draw(st.integers(0, 2))):
        g = tuple(draw(st.lists(elements(tw), min_size=1, max_size=2)))
        g += (draw(nonzero(tw)),)
        for _ in range(draw(st.integers(1, 2))):
            f = pmul(tw, f, g)
    return f


def result_or_split(fn, *args):
    try:
        return "value", fn(*args)
    except ModulusSplit as e:
        return "split", e.var, e.factor


def run_and_inverted(run, tw, *args):
    """``result_or_split`` of ``run`` and the list of (depth, element)
    that it asks ``field.inv`` to invert."""
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_inverted(mp, inv)
        return result_or_split(run, tw, *args), seen


def same_as_reference(run, reference, tw, *args):
    """``run`` and ``reference`` give the same value or raise the same
    split, and ask ``field.inv`` to invert the same elements, at every
    depth, in the same order."""
    assert (run_and_inverted(run, tw, *args)
            == run_and_inverted(reference, tw, *args))


def descends(tw, f):
    """Whether every coefficient of ``f`` is zero or a constant (c,) of
    the level below: the forms ``_yun`` decomposes one level down."""
    return bool(tw.levels) and all(len(c) <= 1 for c in f)


def yun_descended(tw, f):
    """``_yun`` on f's coefficients one level down, its factors lifted
    back to ``tw``."""
    s = tw.sub()
    return [(tuple((c,) if c else () for c in g), m)
            for g, m in field._yun(s, tuple(c[0] if c else zero(s)
                                            for c in f))]


def yun_as_lower_run(tw, f):
    """A form that descends: ``_yun`` gives the value of ``yun_reference``
    or raises its split, and equals the lift of the run one level down,
    value or split, with that run's inversions."""
    assert result_or_split(field._yun, tw, f) == result_or_split(
        yun_reference, tw, f)
    assert run_and_inverted(field._yun, tw, f) == run_and_inverted(
        yun_descended, tw, f)


class TestKnownProducts:
    """``pmonic`` writes the top of a monic polynomial as ``one(tw)``
    rather than computing lc inv(lc), and ``_yun`` stops once gcd(f, f')
    is constant.  Neither skips an inversion: over fields and over
    Q(t), t^2 = 1, and a tower over it, they return the values of the
    references above, or raise the same split, after inverting the same
    elements in the same order.  A form whose coefficients all lie in
    the level below is the exception: ``_yun`` runs there, so it gives
    the reference's value or split with the inversions of that lower
    run, which drops only inversions of rationals and of wrappers
    (c,) whose c it tests itself."""

    TOWERS = pytest.mark.parametrize(
        "tw", [Q_S, Q_CUBE, Q_ST, Q_T, Q_TU],
        ids=["d1", "d1-cubic", "d2", "d1-split", "d2-over-split"])

    @TOWERS
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pmonic(self, tw, data):
        f = tuple(data.draw(st.lists(elements(tw), max_size=3)))
        f += (data.draw(nonzero(tw)),)
        same_as_reference(pmonic, pmonic_reference, tw, f)

    @TOWERS
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pgcd(self, tw, data):
        f, g = data.draw(gcd_pairs(tw))
        same_as_reference(pgcd, pgcd_reference, tw, f, g)

    @TOWERS
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_yun(self, tw, data):
        f = data.draw(yun_forms(tw))
        if descends(tw, f):
            yun_as_lower_run(tw, f)
        else:
            same_as_reference(field._yun, yun_reference, tw, f)

    def test_yun_of_rational_form_runs_over_qq(self):
        # (t^2 - 2)^2 (t^2 - 3) over Q(s), s^2 = 2: Yun over QQ, with no
        # inversion at depth 1, though t^2 - 2 splits over Q(s)
        f = pmul(QQ, pmul(QQ, (-2, 0, 1), (-2, 0, 1)), (-3, 0, 1))
        lifted = tuple((c,) if c else () for c in f)
        assert descends(Q_S, lifted)
        (kind, got), seen = run_and_inverted(field._yun, Q_S, lifted)
        assert got == [(((-3,), (), (1,)), 1), (((-2,), (), (1,)), 2)]
        assert got == yun_reference(Q_S, lifted)
        assert kind == "value" and all(d == 0 for d, _ in seen)
        yun_as_lower_run(Q_S, lifted)

    def test_yun_of_a_zero_divisor_lead_below_splits(self):
        # (t - 1) z^2 + z + t over Q(t)(u), t^2 = 1, u^2 = t: every
        # coefficient lies in Q(t), whose run raises the split of t at
        # the lead, as the tower run does, with its factor t - 1
        f = (((0, 1),), ((1,),), ((-1, 1),))
        assert descends(Q_TU, f)
        want = result_or_split(yun_reference, Q_TU, f)
        assert want == ("split", "t", (-1, 1))
        assert result_or_split(field._yun, Q_TU, f) == want
        yun_as_lower_run(Q_TU, f)

    @pytest.mark.parametrize("tw, f", [
        (QQ, (Fraction(1), Fraction(0), Fraction(2))),
        (Q_CUBE, ((1,), (0, 0, 3))),
        (Q_ST, ((), ((1,), (0, 1)))),
        (Q_T, ((1,), (1, 3)))], ids=["d0", "d1-cubic", "d2", "d1-split"])
    def test_pmonic_top_is_one(self, tw, f):
        top = pmonic(tw, f)[-1]
        assert top == one(tw) and int_leaves(tw, top)


def schoolbook_mul(tw, a, b):
    """Every coefficient pair multiplied into sums seeded at zero, then
    ``reduce_mod``: the reference for ``mul``.  Its reduction multiplies
    one level down through ``mul``, which the depth-1 cases check against
    plain rational products."""
    if not tw.levels:
        return a * b
    s = tw.sub()
    out = [zero(s)] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = add(s, out[i + j], schoolbook_mul(s, u, v))
    return reduce_mod(tw, out)


class TestSparseMul:
    """``mul`` scales by a constant operand without reducing, and ``pmul``
    multiplies only the nonzero coefficient pairs."""

    @pytest.mark.parametrize("tw", [Q_S, Q_ST, Q_T, Q_TU, Q_CUBE],
                             ids=["d1", "d2", "d1-split", "d2-over-split",
                                  "d1-cubic"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_schoolbook(self, tw, data):
        a, b = data.draw(elements(tw)), data.draw(elements(tw))
        assert mul(tw, a, b) == schoolbook_mul(tw, a, b)
        assert mul(tw, a[:1], b) == schoolbook_mul(tw, a[:1], b)

    @pytest.mark.parametrize("a, b, want", [
        (((1, 1),), ((1,), (1, -1)), ((1, 1),)),
        (((), (1, 1)), ((), (1, -1)), ())], ids=["constant", "dense"])
    def test_vanishing_top_is_trimmed(self, a, b, want):
        # over Q(t)(u), t^2 = 1: (1 + t)(1 + (1 - t) u) = 1 + t and
        # (1 + t) u (1 - t) u = 0, as (1 + t)(1 - t) = 1 - t^2 = 0
        for x, y in ((a, b), (b, a)):
            assert mul(Q_TU, x, y) == want == schoolbook_mul(Q_TU, x, y)

    @pytest.mark.parametrize("tw, a, b, depths", [
        (Q_S, (3,), (1, 2), []),
        (Q_ST, ((1, 1),), ((1,), (3,)), []),
        (Q_ST, ((1, 1),), ((1,), (0, 1)), [1])],
        ids=["d1", "d2", "d2-dense-below"])
    def test_constant_operand_reduces_nothing(self, monkeypatch, tw, a, b,
                                              depths):
        # (1 + s)(1 + s t) reduces only s (1 + s), one level down
        want = schoolbook_mul(tw, a, b)
        seen = []
        orig = field.reduce_mod
        monkeypatch.setattr(field, "reduce_mod", lambda t, cs: (
            seen.append(t.depth) or orig(t, cs)))
        assert mul(tw, a, b) == want == mul(tw, b, a)
        assert seen == depths * 2


@st.composite
def tower_bipolys(draw, tw, max_deg, only_x=False):
    """Bivariate polynomials over ``tw`` of total degree <= max_deg."""
    monos = [(i, j) for i in range(max_deg + 1)
             for j in range(1 if only_x else max_deg + 1 - i)]
    return BiPoly(tw, draw(st.dictionaries(st.sampled_from(monos),
                                           nonzero(tw), max_size=4)))


SYM_X, SYM_Y = sympy.symbols("x y")


@functools.cache
def sympy_field(tw):
    """sympy's algebraic field for ``tw`` and the images of its levels."""
    gens = {QQ: [], Q_S: [sympy.sqrt(2)], Q_CUBE: [sympy.root(2, 3)],
            Q_ST: [sympy.sqrt(2), sympy.sqrt(3)]}[tw]
    dom = sympy.QQ.algebraic_field(*gens) if gens else sympy.QQ
    return dom, [dom.from_sympy(a) for a in gens]


def sympy_poly(u):
    """``u`` as a sympy Poly in (y, x), whose lex order is monic-lex's."""
    dom, roots = sympy_field(u.tower)

    def elem(tw, a):
        if not tw.levels:
            return dom.from_sympy(sympy.Rational(a.numerator, a.denominator))
        acc = dom.zero
        for c in reversed(a):
            acc = acc * roots[tw.depth - 1] + elem(tw.sub(), c)
        return acc

    return sympy.Poly.from_dict(
        {(j, i): elem(u.tower, c) for (i, j), c in u.terms.items()},
        SYM_Y, SYM_X, domain=dom)


def sympy_gcd(p, q):
    """sympy's monic-lex gcd: a reference independent of ``poly_gcd``."""
    return sympy_poly(p).gcd(sympy_poly(q)).monic()


def s_x_y():
    """The generator s of Q(s), s^2 = 2, and x, y, as BiPolys over it."""
    return (BiPoly(Q_S, {(0, 0): generator(Q_S)}),
            BiPoly.variable("x", Q_S), BiPoly.variable("y", Q_S))


class _Draws:
    """Stands in for ``st.data()`` in an ``@example``: draws the given
    values in order."""

    def __init__(self, *values):
        self.values = values
        self.drawn = iter(values)

    def draw(self, strategy, label=None):
        return next(self.drawn)

    def __repr__(self):
        return f"_Draws{self.values!r}"


class TestGcdCertificate:
    """The tower gcd equals sympy's over the same algebraic field."""

    @pytest.mark.parametrize("tw", [QQ, Q_S, Q_CUBE, Q_ST],
                             ids=["QQ", "sqrt2", "cubic", "depth2"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_sympy(self, tw, data):
        h = data.draw(tower_bipolys(tw, 2, only_x=data.draw(st.booleans())))
        # p = h a is free of y in some draws
        a = data.draw(tower_bipolys(tw, 2, only_x=data.draw(st.booleans())))
        b = data.draw(tower_bipolys(tw, 2))
        p, q = h * a, h * b
        if p.is_zero() and q.is_zero():
            return
        g = poly_gcd(p, q)
        assert sympy_poly(g) == sympy_gcd(p, q)
        assert divides(g, p) and divides(g, q)

    def test_skips_x0_where_leading_coefficient_vanishes(self, monkeypatch):
        s, x, y = s_x_y()
        h = x * x + s
        p, q = h * ((x - 1) * y + 1), h * (y - x)
        seen = []
        eval_x = field._eval_x
        monkeypatch.setattr(field, "_eval_x",
                            lambda tw, f, c: seen.append(c) or eval_x(tw, f, c))
        assert poly_gcd(p, q) == h
        assert seen == [1, -1, -1]
        assert sympy_poly(h) == sympy_gcd(p, q)

    def test_common_factor_in_y(self, monkeypatch):
        s, x, y = s_x_y()
        h = y * y - s * x
        p, q = h * (y + x) * (x - 1), h * (y - x) * (x - 1) * x
        points = []
        lagrange = field._lagrange
        monkeypatch.setattr(field, "_lagrange",
                            lambda tw, pts, vals: points.append(len(pts))
                            or lagrange(tw, pts, vals))
        assert poly_gcd(p, q) == h * (x - 1)
        # gamma = 1 and both primitive parts have x-degree 2: three points
        # for each y-coefficient of h
        assert points == [3, 3, 3]

    @pytest.mark.parametrize("root, degrees", [(1, [3, 3, 2, 2]),
                                               (-1, [2, 2, 3, 2])],
                             ids=["reset", "skip"])
    def test_unlucky_points(self, monkeypatch, root, degrees):
        # y - x shares the root y = x0 with y - root at x0 = root: an
        # unlucky first interpolation point is replaced, a later one is
        # skipped.  The first image comes first, then x0 = 1, -1, 2.
        s, x, y = s_x_y()
        h = y * y - s * x
        seen = []
        image = field._image

        def spy(tw, f, g, c):
            im = image(tw, f, g, c)
            seen.append(len(im) - 1)
            return im

        monkeypatch.setattr(field, "_image", spy)
        assert poly_gcd(h * (y - x), h * (y - root)) == h
        assert seen == degrees

    def test_interpolation_is_bounded(self, monkeypatch):
        s, x, y = s_x_y()
        h = y * y - s * x
        monkeypatch.setattr(field, "_lagrange", lambda tw, pts, vals: (
            one(tw), one(tw)))
        with pytest.raises(RetryBudgetExceeded, match="points x0"):
            poly_gcd(h * (y + x), h * (y - x))

    @pytest.mark.parametrize("tw, lead", [
        (QQ, 3), (Q_S, (0, 1)), (Q_T, (1, 1))],
        ids=["QQ", "Q(s)", "Q(t)-zero-divisor"])
    def test_content_stops_at_a_unit(self, monkeypatch, tw, lead):
        # the rows x and x + 1 have content 1, so the row lead x^2 after
        # them is not read; over Q(t), t^2 = 1, its lead 1 + t is a zero
        # divisor, and the content is 1 in both components all the same
        rows = ((zero(tw), one(tw)), (one(tw), one(tw)),
                (zero(tw), zero(tw), lead))
        read = []
        orig = field.pgcd
        monkeypatch.setattr(field, "pgcd", lambda t, c, row: (
            read.append(row) or orig(t, c, row)))
        assert field._yx_content(tw, rows) == (one(tw),)
        assert read == list(rows[:2])

    def test_zero_divisor_leading_coefficient_splits(self, monkeypatch):
        # Over Q(t), t^2 = 1, e = (1 + t)/2 is idempotent.  lc_y(f) = 1 - e
        # is a zero divisor: in the t = 1 component f drops to y-degree 2
        # and shares (x - 1)y + 1 with g, although f(1, y) and g(1, y) are
        # coprime.  Inverting lc_y(f)(1) splits the modulus.
        e = BiPoly(Q_T, {(0, 0): (Fraction(1, 2), Fraction(1, 2))})
        x = BiPoly.variable("x", Q_T)
        y = BiPoly.variable("y", Q_T)
        one_ = BiPoly.const(1, Q_T)
        p = e * ((x - 1) * y + 1) * (y + 2) + (one_ - e) * (y ** 3 + 1)
        q = e * ((x - 1) * y + 1) * (y + 3) + (one_ - e) * (y + 5)
        # the split comes from the first image, before any content gcd
        monkeypatch.setattr(field, "_yx_content", _no_content)
        with pytest.raises(ModulusSplit):
            poly_gcd(p, q)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    @example(data=_Draws(BiPoly.const(1, Q_T),
                         BiPoly.const(1, Q_T) + BiPoly.variable("y", Q_T),
                         BiPoly(Q_T, {(0, 0): (1, 1)})))
    def test_reducible_tower_answers_per_component(self, data):
        """Over Q(t), t^2 = 1 = Q x Q, poly_gcd either splits the modulus
        or answers with the gcd over Q at t = 1 and at t = -1."""
        h = data.draw(tower_bipolys(Q_T, 2))
        a = data.draw(tower_bipolys(Q_T, 2))
        b = data.draw(tower_bipolys(Q_T, 2))
        p, q = h * a, h * b
        if p.is_zero() and q.is_zero():
            return
        try:
            g = poly_gcd(p, q)
        except ModulusSplit:
            return
        for r in (1, -1):
            def at(u):
                return BiPoly(QQ, {k: sum(ci * r ** i for i, ci in enumerate(c))
                                   for k, c in u.terms.items()})
            pr, qr = at(p), at(q)
            if pr.is_zero() and qr.is_zero():
                continue
            assert at(g) == poly_gcd(pr, qr)


def _no_content(tw, f):
    raise AssertionError("a content gcd ran")


def sympy_expr(u):
    """``u`` as a sympy expression in x and y."""
    if u.tower.levels:
        return sympy_poly(u).as_expr()
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * SYM_X ** i * SYM_Y ** j
                       for (i, j), c in u.terms.items()))


class TestCompose:
    """BiPoly.compose, the reference of TestChartA and the route of the
    pullback's composition, against sympy's substitution."""

    @pytest.mark.parametrize("tw", [QQ, Q_S], ids=["QQ", "sqrt2"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_sympy(self, tw, data):
        p = data.draw(tower_bipolys(tw, 3))
        px = data.draw(tower_bipolys(tw, 2))
        py = data.draw(tower_bipolys(tw, 2))
        want = sympy_expr(p).subs({SYM_X: sympy_expr(px),
                                   SYM_Y: sympy_expr(py)}, simultaneous=True)
        assert sympy.expand(sympy_expr(p.compose(px, py)) - want) == 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_int_leaves_stay_ints(self, data):
        monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
        p, px, py = (BiPoly(QQ, data.draw(st.dictionaries(
            monos, st.integers(-9, 9), max_size=5))) for _ in range(3))
        got = p.compose(px, py)
        assert all(type(v) is int for v in got.terms.values())

        def frac(u):
            return BiPoly(QQ, {k: Fraction(v) for k, v in u.terms.items()})

        assert got == frac(p).compose(frac(px), frac(py))

    def test_tower_mismatch(self):
        with pytest.raises(ValueError, match="tower mismatch"):
            X.compose(X, BiPoly.variable("y", Q_S))


def lagrange_reference(tw, pts, vals):
    """Lagrange's form with every basis polynomial rebuilt on Fractions, in
    O(n^3) operations: an independent reference for ``field._lagrange``."""
    def qmul(f, g):
        out = [Fraction(0)] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return tuple(out)

    acc = ()
    for k in range(len(pts)):
        denom, basis = Fraction(1), (Fraction(1),)
        for j in range(len(pts)):
            if j != k:
                denom *= pts[k] - pts[j]
                basis = qmul(basis, (-pts[j], Fraction(1)))
        term = ptrim(tw, [qscale(tw, vals[k], b / denom) for b in basis])
        acc = padd(tw, acc, term)
    return acc


@st.composite
def nodes(draw, order):
    """Distinct int nodes in a caller's order, some skipped: 0, 1, 2, ...
    as ``resultant_y`` takes them, or 1, -1, 2, -2, ... as ``poly_gcd``
    does."""
    n = draw(st.integers(1, 9))
    picks = sorted(draw(st.sets(st.integers(0, 3 * n), min_size=n,
                                max_size=n)))
    if order == "counted":
        return picks
    seq = list(itertools.islice(field._x0s(), 3 * n + 1))
    return [seq[i] for i in picks]


class TestLagrange:
    """The O(n^2) integer interpolation of the tower gcd and resultant."""

    @DEPTHS
    @pytest.mark.parametrize("order", ["counted", "signed"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_interpolates(self, tw, order, data):
        pts = data.draw(nodes(order))
        vals = data.draw(st.lists(elements(tw), min_size=len(pts),
                                  max_size=len(pts)))
        got = field._lagrange(tw, pts, vals)
        assert len(got) <= len(pts)
        assert [peval(tw, got, x) for x in pts] == vals
        assert got == lagrange_reference(tw, pts, vals)


def at_x(tw, p, x0):
    """``p(x0, y)`` as a dense polynomial in y, by tower products with
    ``from_rational(tw, x0 ** i)``: independent of ``peval``."""
    rows = {}
    for (i, j), c in p.terms.items():
        term = mul(tw, c, from_rational(tw, Fraction(x0) ** i))
        rows[j] = add(tw, rows.get(j, zero(tw)), term)
    return ptrim(tw, [rows.get(j, zero(tw)) for j in range(p.deg_y() + 1)])


def sylvester(f, g):
    """The Sylvester determinant of the dense polynomials ``f`` and ``g``
    in y (low -> high, entries sympy expressions or rationals), by sympy's
    ``Matrix``: a reference for the value and sign of a resultant that is
    independent of ``field``'s resultants and of sympy's ``resultant``."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + list(reversed(f)) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(reversed(g)) + [0] * (m - 1 - i)
             for i in range(m)]
    return sympy.Matrix(m + n, m + n,
                        [sympy.sympify(v) for row in rows for v in row]).det()


def tower_sylvester(tw, f, g):
    """The Sylvester determinant of the dense polynomials ``f`` and ``g``
    in y over ``tw``, rows laid out as in ``sylvester``, by Laplace
    expansion along each row in turn with tower ``mul`` and ``add``, each
    minor kept by the columns it has left.  It never divides, so it never
    splits; at y-degrees <= 3 the matrix is at most 6 x 6."""
    m, n = len(f) - 1, len(g) - 1
    z = zero(tw)
    rows = [[z] * i + list(reversed(f)) + [z] * (n - 1 - i) for i in range(n)]
    rows += [[z] * i + list(reversed(g)) + [z] * (m - 1 - i)
             for i in range(m)]

    @functools.cache
    def minor(k, cols):
        if k == len(rows):
            return one(tw)
        acc = z
        for i, j in enumerate(cols):
            if rows[k][j]:
                rest = minor(k + 1, cols[:i] + cols[i + 1:])
                term = mul(tw, rows[k][j], rest)
                acc = add(tw, acc, neg(tw, term) if i % 2 else term)
        return acc

    return minor(0, tuple(range(m + n)))


@st.composite
def resultant_pairs(draw):
    """Pairs over Q or Q(s), s^2 = 2, that reach each reduction of
    ``resultant_y``: y-degrees 0-4 in either order, leads in y of 1, of
    another constant or of a polynomial in x, and, one pair in four, a
    shared factor of y-degree 1.  A member of positive y-degree has a
    term free of y, so that y^d and y^e do not crowd out the coprime
    pairs."""
    tw = draw(st.sampled_from([QQ, Q_S]))

    def member(deg):
        lead = draw(st.sampled_from(["const", "poly", "one"]))
        if lead == "one":
            terms = {(0, deg): one(tw)}
        else:
            top = {0: draw(nonzero(tw))} if lead == "const" else draw(
                st.dictionaries(st.integers(1, 2), nonzero(tw), min_size=1,
                                max_size=2))
            terms = {(i, deg): c for i, c in top.items()}
        if deg:
            terms[(draw(st.integers(0, 2)), 0)] = draw(nonzero(tw))
            terms.update(draw(st.dictionaries(
                st.sampled_from([(i, j) for i in range(3)
                                 for j in range(deg)]),
                nonzero(tw), max_size=3)))
        return BiPoly(tw, terms)

    p, q = member(draw(st.integers(0, 4))), member(draw(st.integers(0, 4)))
    if draw(st.integers(0, 3)) == 0:
        h = member(1)
        p, q = h * p, h * q
    return p, q


def _germ_pairs():
    """The two pair shapes of the tower-germs benchmark over Q(s), s^2 = 2:
    a line y - c1 x - c2 x^2 against a quadric Q_b = y^2 - e x^2 - b x^3,
    and two quadrics Q_a, Q_b, whose difference is (b - a) x^3."""
    s, x, y = s_x_y()
    q_a = y ** 2 - 3 * x ** 2 - (s - 2) * x ** 3
    q_b = y ** 2 - 3 * x ** 2 - (s + 1) * x ** 3
    line = y - s * x - (2 - s) * x ** 2
    return (line, q_b), (q_a, q_b)


class TestTowerResultants:
    """Res_y over Q, Q(s) and Q(s, t).  Over a field ``resultant_y``
    reduces a pair in K[x][y] (``_euclid_resultant``): a member of
    y-degree 0 closes it, as does Horner against a linear member under a
    lead that is not constant, and it divides where the lead in y of the
    lower member is a constant, unless that member has y-degree >= 2 and
    positive x-degree and the y-degrees differ by 2 or more.  The pairs
    left reach the evaluation route, ``_resultant_at_nodes``, as does
    every pair over a tower that is not known to be a field, and each
    node's value comes from the same loop on rows free of x.  Also the
    Horner by a rational under it."""

    @pytest.mark.parametrize("tw", [QQ, Q_S, Q_ST],
                             ids=["QQ", "sqrt2", "depth2"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_specializes_off_the_nodes(self, tw, data):
        # p is free of y in some draws
        p = data.draw(tower_bipolys(tw, 3, only_x=data.draw(st.booleans())))
        q = data.draw(tower_bipolys(tw, 3))
        assume(not p.is_zero() and not q.is_zero())
        r = resultant_y(p, q)
        for x0 in (Fraction(-3), Fraction(1, 2), Fraction(-7, 3)):
            fp, fq = at_x(tw, p, x0), at_x(tw, q, x0)
            # both lc_y survive at x0
            if len(fp) == p.deg_y() + 1 and len(fq) == q.deg_y() + 1:
                # the Sylvester determinant, by sympy over QQ and by
                # Laplace expansion over a tower
                want = (sylvester(fp, fq) if not tw.levels
                        else tower_sylvester(tw, fp, fq))
                assert peval(tw, r, x0) == want

    @pytest.mark.parametrize("p, q, nodes", [
        (Y ** 2 - X ** 3, Y ** 3 - X ** 5, 14),
        (Y ** 2 - X ** 3 + X ** 4, Y ** 2 - X ** 3 - X ** 5, 15),
        (Y ** 4 - X ** 7, Y ** 3 - X ** 5 + X * Y ** 2, 30)],
        ids=["cusps", "perturbed-cusps", "quartic-cubic"])
    def test_nodes_at_the_degree_bound(self, monkeypatch, p, q, nodes):
        # the evaluation route takes e m + d n - d e + 1 nodes (d, e the
        # y-degrees, m, n the total degrees), fewer than
        # deg_x p e + deg_x q d + 1 and m n + 1; over Q ``resultant_y``
        # finishes the cusp pairs by a division step and gives the
        # quartic-cubic pair fewer nodes
        points = []
        lagrange = field._lagrange
        monkeypatch.setattr(field, "_lagrange",
                            lambda tw, pts, vals: points.append(len(pts))
                            or lagrange(tw, pts, vals))
        f, g = p.to_yx(), q.to_yx()
        r = field._resultant_at_nodes(QQ, f, g)
        assert points == [nodes]
        want = sympy.resultant(sympy_expr(p), sympy_expr(q), SYM_Y)
        got = sum((sympy.Rational(c.numerator, c.denominator) * SYM_X ** i
                   for i, c in enumerate(r)), sympy.Integer(0))
        assert sympy.expand(got - want) == 0

    @settings(max_examples=60, deadline=None)
    @given(pair=resultant_pairs())
    @example(pair=_germ_pairs()[0])
    @example(pair=_germ_pairs()[1])
    # y-degree 0; y-degree 1 under a lead x and under the lead 2; leads
    # 3 and 1 at odd d e; d - e = 2 under constant leads, with g of
    # positive x-degree and free of x; a shared factor
    @example(pair=(X ** 2 + 1, Y ** 3 - X))
    @example(pair=(X * Y + 1, Y ** 2 - X ** 3))
    @example(pair=(Y ** 3 + X ** 2 * Y - X, 2 * Y - X ** 2))
    @example(pair=(Y ** 3 + X, 3 * Y ** 3 - X ** 2 * Y + 1))
    @example(pair=(Y ** 4 - X ** 5, Y ** 2 - X ** 3))
    @example(pair=(Y ** 4 + X * Y - X ** 3, 3 * Y ** 2 + Y - 1))
    @example(pair=((Y ** 2 - X) * (Y + X), (Y ** 2 - X) * (2 * Y - 1)))
    def test_matches_the_evaluation_route(self, pair):
        # in both orders against the evaluation route, and over Q in the
        # drawn order against the Sylvester determinant
        for a, b in (pair, pair[::-1]):
            f, g = a.to_yx(), b.to_yx()
            assert resultant_y(a, b) == field._resultant_at_nodes(
                a.tower, f, g)
        p, q = pair
        if not p.tower.levels:
            want = sympy.expand(sylvester(
                *(sympy.Poly(sympy_expr(u), SYM_Y).all_coeffs()[::-1]
                  for u in pair)))
            got = sum((sympy.Rational(c.numerator, c.denominator) * SYM_X ** i
                       for i, c in enumerate(resultant_y(p, q))),
                      sympy.Integer(0))
            assert sympy.expand(got - want) == 0

    def test_splits_where_the_tower_is_not_a_field(self):
        # t - 1 is a zero divisor of Q[t]/(t^2 - 1), the lead in y of a
        # linear member; over a field that member's pair is finished in
        # K[x][y], but here the evaluation route divides by the lead at
        # its first node and raises the split, in either order
        tw = QQ.extend("t", (Fraction(-1), Fraction(0), Fraction(1)))
        x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
        t = BiPoly(tw, {(0, 0): generator(tw)})
        p, q = y ** 2 - x, (t - 1) * y + x
        for a, b in ((p, q), (q, p)):
            with pytest.raises(ModulusSplit) as exc:
                resultant_y(a, b)
            assert exc.value.var == "t"

    def test_splits_at_a_gap_2_node(self):
        # at every node the lead in y of (t - 1) y^2 + x is t - 1, a zero
        # divisor of Q[t]/(t^2 - 1) below y^4 + x, two y-degrees higher:
        # the division step inverts it at the first node and raises the
        # split of t by t - 1, in either order, as Euclid by pdivmod does
        tw = QQ.extend("t", (Fraction(-1), Fraction(0), Fraction(1)))
        x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
        t = BiPoly(tw, {(0, 0): generator(tw)})
        p, q = y ** 4 + x, (t - 1) * y ** 2 + x
        for a, b in ((p, q), (q, p)):
            with pytest.raises(ModulusSplit) as exc:
                resultant_y(a, b)
            assert (exc.value.var, exc.value.factor) == ("t", (-1, 1))

    @DEPTHS
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), x0=small_q)
    def test_peval_is_mul_horner(self, tw, data, x0):
        f = ptrim(tw, data.draw(st.lists(elements(tw), max_size=5)))
        acc = zero(tw)
        for c in reversed(f):
            acc = add(tw, mul(tw, acc, from_rational(tw, x0)), c)
        assert peval(tw, f, x0) == acc
        assert int_leaves(tw, peval(tw, int_scale(tw, f)[0], 3))


class _NoSympy:
    def __getattr__(self, name):
        raise AssertionError(f"sympy.{name} was used")


class TestOverQ:
    """Over Q, the tower of depth 0, gcd and Res_y take the tower route."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @example(data=_Draws(Y, Y ** 3 + 1))
    def test_sign_is_sylvester(self, data):
        p, q = (data.draw(tower_bipolys(QQ, 3)) for _ in range(2))
        assume(not p.is_zero() and not q.is_zero())
        r = resultant_y(p, q)
        rs = resultant_y(p.lift_to(Q_S), q.lift_to(Q_S))
        assert rs == tuple((c,) if c else () for c in r)
        want = sympy.expand(sylvester(
            *(sympy.Poly(sympy_expr(u), SYM_Y).all_coeffs()[::-1]
              for u in (p, q))))
        got = sum((sympy.Rational(c.numerator, c.denominator) * SYM_X ** i
                   for i, c in enumerate(r)), sympy.Integer(0))
        assert sympy.expand(got - want) == 0

    @pytest.mark.parametrize("p, q", [((X + Y) * (Y - 1), (X + Y) * Y),
                                      (BiPoly.zero(), Y - X)],
                             ids=["common-factor", "zero"])
    def test_zero_resultant_is_empty(self, p, q):
        assert resultant_y(p, q) == ()
        assert resultant_y(q, p) == ()

    def test_no_sympy(self, monkeypatch):
        # sympy is imported where it is used, so a stand-in in sys.modules
        # catches every use
        monkeypatch.setitem(sys.modules, "sympy", _NoSympy())
        h = Y ** 2 - X ** 3
        assert poly_gcd(h * (2 * Y + X), h * (Y - X) * 3) == h
        assert poly_gcd(X ** 2 * Y, Fraction(1, 2) * X * Y ** 2) == X * Y
        assert resultant_y(h, Y - X) == (0, 0, 1, -1)
        # t^2 + 2 has no rational root, which certifies it irreducible
        ((tw, _),) = split_directions(QQ, (2, 0, 1))
        assert orbit(QQ, tw) == 2
        assert field._factors_over_qq((2, 0, 1)) == [([2, 0, 1], 1)]
        # (512 t + 1)^2: |lc| > 2^16 skips the root search, and Yun finds
        # the linear factor
        assert split_directions(QQ, (1, 1024, 262144)) == [
            (QQ, Fraction(-1, 512))]
        assert field._factors_over_qq((1, 1024, 262144)) == [([1, 512], 2)]
        # (t - 1)(t^4 + 2): the squarefree quartic leftover goes to sympy
        with pytest.raises(AssertionError, match="sympy"):
            split_directions(QQ, (-2, 2, 0, 0, -1, 1))


def sympy_split(coeffs):
    """The directions of a polynomial over QQ from sympy's ``factor_list``
    of the whole input, a reference apart from the rational-root route:
    (tower, root) pairs, and the sorted (monic factor, multiplicity)
    pairs."""
    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], t, domain="QQ")
    dirs, factors = [], []
    for fac, mult in poly.factor_list()[1]:
        cs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        cs = tuple(c / cs[-1] for c in cs)
        factors.append((cs, mult))
        if len(cs) == 2:
            dirs.append((QQ, -cs[0]))
        else:
            tw = QQ.extend(_fresh_var(QQ), cs)
            dirs.append((tw, generator(tw)))
    return dirs, sorted(factors)


def monic_factors_over_qq(coeffs):
    """``_factors_over_qq`` read as the factors of ``sympy_split``."""
    return sorted((tuple(Fraction(c, f[-1]) for c in f), m)
                  for f, m in field._factors_over_qq(coeffs))


def qq_product(factors, tw=QQ):
    """The product of ``(coefficients, multiplicity)`` pairs over ``tw``."""
    out = (from_rational(tw, 1),)
    for f, m in factors:
        for _ in range(m):
            out = pmul(tw, out, f)
    return out


QUADRATIC = (Fraction(3), Fraction(1, 2), Fraction(1))    # no rational root


@st.composite
def qq_products(draw):
    """Products of linear, quadratic and cubic factors with rational,
    mostly non-integer, coefficients and multiplicities 1-3, of degree at
    most 9."""
    coef = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    factors, deg = [], 0
    for _ in range(draw(st.integers(1, 5))):
        d = draw(st.integers(1, 3))
        m = draw(st.integers(1, 3))
        if deg + d * m > 9:
            break
        lead = draw(coef.filter(bool))
        factors.append((tuple(draw(coef) for _ in range(d)) + (lead,), m))
        deg += d * m
    return qq_product([((draw(coef.filter(bool)),), 1)] + factors)


class TestSplitOverQ:
    """The rational-root split over QQ equals sympy's factorization, in
    sympy's order, which the seeded draws downstream depend on."""

    @settings(max_examples=150, deadline=None)
    @given(coeffs=qq_products())
    @example(coeffs=qq_product([(QUADRATIC, 2)]))
    @example(coeffs=qq_product([(QUADRATIC, 3)]))
    @example(coeffs=qq_product([(QUADRATIC, 3), ((Fraction(-1, 2), 1), 2)]))
    # |c_0| = 2^34 skips the root search: Yun splits off (t - 2^17)^2 and
    # sympy factors t^2 + 1
    @example(coeffs=qq_product([((Fraction(-2 ** 17), Fraction(1)), 2),
                                ((Fraction(1), Fraction(0), Fraction(1)), 1)]))
    def test_matches_sympy(self, coeffs):
        got = split_directions(QQ, coeffs)
        want, factors = sympy_split(coeffs)
        assert got == want
        assert [type(r) for _, r in got] == [type(r) for _, r in want]
        assert monic_factors_over_qq(coeffs) == factors

    def test_constant_has_no_directions(self):
        assert split_directions(QQ, (Fraction(-3, 7),)) == []

    def test_large_coefficients_are_bounded(self):
        # (t - (2^61 - 1))(t^2 - (2^89 - 1)): divisors of the constant term
        # are not enumerated
        coeffs = qq_product([((Fraction(1 - 2 ** 61), Fraction(1)), 1),
                             ((Fraction(1 - 2 ** 89), 0, Fraction(1)), 1)])
        t0 = time.perf_counter()
        got = split_directions(QQ, coeffs)
        assert time.perf_counter() - t0 < 1.0
        want, factors = sympy_split(coeffs)
        assert got == want
        assert monic_factors_over_qq(coeffs) == factors
        assert [type(r) for _, r in got] == [type(r) for _, r in want]


def compose_reference(p, px, py):
    """The sum of c px^i py^j over the terms c x^i y^j of ``p``, built with
    ``__pow__`` and ``__mul__``: the reference for ``BiPoly.compose``."""
    acc = BiPoly.zero(p.tower)
    for (i, j), c in p.terms.items():
        acc = acc + BiPoly(p.tower, {(0, 0): c}) * px ** i * py ** j
    return acc


def _no_call(*args):
    raise AssertionError("the general route ran")


class TestExponentRoutes:
    """Inputs whose answer the exponents decide: t^k splits into the one
    direction 0, a gcd over QQ with a one-term input is a monomial, and a
    monomial map moves each term to one new exponent."""

    @DEPTHS
    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 6), data=st.data())
    def test_power_of_t_is_yuns_split(self, tw, k, data):
        # over QQ any nonzero lead, over a tower the lead 1
        lead = data.draw(nonzero(QQ)) if not tw.levels else one(tw)
        f = (zero(tw),) * k + (lead,)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field, "_yun", _no_call)
            mp.setattr(field, "_factors_over_qq", _no_call)
            got = split_directions(tw, f)
        if tw.levels:
            assert field._yun(tw, f) == [((zero(tw), one(tw)), k)]
        else:
            assert field._factors_over_qq(f) == [([0, 1], k)]
        assert got == [(tw, from_rational(tw, 0))]
        assert type(got[0][1]) is type(from_rational(tw, 0))

    @DEPTHS
    def test_input_is_trimmed(self, tw):
        # (0, 0) raised StopIteration, and (0, 1, 0) ZeroDivisionError over
        # QQ and DivisionByZero over Q(s), before the input was trimmed
        z, o = zero(tw), one(tw)
        with pytest.raises(ValueError, match="cannot split the zero"):
            split_directions(tw, (z, z))
        assert split_directions(tw, (z, o, z)) == split_directions(
            tw, (z, o)) == [(tw, from_rational(tw, 0))]

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_divisor_lead_still_splits(self, k):
        # (1 + t) t^k over Q(t), t^2 = 1: 1 + t is a zero divisor, and
        # Yun's pmonic, which inverts it, splits the modulus
        with pytest.raises(ModulusSplit) as exc:
            split_directions(Q_T, ((),) * k + ((1, 1),))
        assert exc.value.var == "t"

    def test_unit_lead_over_a_tower_keeps_yun(self, monkeypatch):
        # s t^2 over Q(s): the lead is inverted, so Yun runs
        calls = []
        yun = field._yun
        monkeypatch.setattr(field, "_yun", lambda tw, f: (
            calls.append(f) or yun(tw, f)))
        assert split_directions(Q_S, ((), (), generator(Q_S))) == [(Q_S, ())]
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(i=st.integers(0, 4), j=st.integers(0, 4),
           c=small_q.filter(bool), data=st.data())
    def test_gcd_with_one_term(self, i, j, c, data):
        p = BiPoly(QQ, {(i, j): c})
        q = data.draw(tower_bipolys(QQ, 4))
        for a, b in ((p, q), (q, p)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(field, "_image", _no_call)
                g = poly_gcd(a, b)
            assert sympy_poly(g) == sympy_gcd(a, b)
            assert divides(g, p) and divides(g, q)

    @DEPTHS
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_monomial_map(self, tw, data):
        p = data.draw(tower_bipolys(tw, 3))
        p1, q1, p2, q2 = (data.draw(st.integers(0, 3)) for _ in range(4))
        assume(p1 * q2 != p2 * q1)
        px, py = BiPoly(tw, {(p1, q1): one(tw)}), BiPoly(tw, {(p2, q2): one(tw)})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field, "_mul_into", _no_call)
            got = p.compose(px, py)
        assert got == compose_reference(p, px, py)

    @pytest.mark.parametrize("tw", [QQ, Q_S], ids=["QQ", "Q(s)"])
    @pytest.mark.parametrize("kind", ["x-x", "two-x"])
    def test_other_maps_take_the_general_route(self, monkeypatch, tw, kind):
        # (x, x) is not injective on exponents, and 2x has a coefficient
        # other than 1: each sums its products
        x, y = BiPoly.variable("x", tw), BiPoly.variable("y", tw)
        px, py = {"x-x": (x, x), "two-x": (2 * x, y)}[kind]
        p = x ** 2 * y + 3 * x * y ** 2 - y
        calls = []
        mul_into = field._mul_into
        monkeypatch.setattr(field, "_mul_into", lambda *a: (
            calls.append(a) or mul_into(*a)))
        got = p.compose(px, py)
        assert calls
        monkeypatch.undo()
        assert got == compose_reference(p, px, py)


def fraction_euclid_gcd(f, g):
    """The monic gcd over Q by plain Euclid on Fractions."""
    f, g = [Fraction(c) for c in f], [Fraction(c) for c in g]
    while any(g):
        while not g[-1]:
            g.pop()
        r = list(f)
        while len(r) >= len(g):
            q = r[-1] / g[-1]
            for i, c in enumerate(g):
                r[len(r) - len(g) + i] -= q * c
            r.pop()
            while r and not r[-1]:
                r.pop()
        f, g = g, r
    return tuple(c / f[-1] for c in f)


QQ_LEAVES = st.one_of(st.integers(-6, 6),
                      st.builds(Fraction, st.integers(-6, 6),
                                st.integers(1, 4)))


class TestPgcdQQInts:
    """``_pgcd_qq`` keeps integral values as ints, with the value of the
    monic gcd that Euclid on Fractions gives."""

    @pytest.mark.parametrize("f, g", [
        ((Fraction(3),), (1, 2, 3)), ((2, 4), (-5,)),
        ((Fraction(1, 2),), (Fraction(1, 2),))],
        ids=["constant-f", "constant-g", "both-constant"])
    def test_constant_input(self, f, g):
        got = field._pgcd_qq(f, g)
        assert got == (1,) and type(got[0]) is int
        assert got == fraction_euclid_gcd(f, g)

    def test_unit_lead(self):
        # (t - 1)(t + 2) and (t - 1)(2t + 3): the primitive gcd t - 1
        got = field._pgcd_qq((-2, 1, 1), (Fraction(-3), Fraction(1), 2))
        assert got == (-1, 1) and all(type(v) is int for v in got)
        # -(t - 1) and 3(t - 1)(t + 1): the sign is fixed
        got = field._pgcd_qq((1, -1), (-3, 0, 3))
        assert got == (-1, 1) and all(type(v) is int for v in got)

    @pytest.mark.parametrize("f, g", [
        ((1, 2), (3, 1)), ((Fraction(1, 2), 1), (-1, 1)),
        ((0, 5), (7, Fraction(7, 3)))],
        ids=["ints", "fraction-lead-1", "root-0"])
    def test_linear_pair_that_is_not_proportional(self, f, g):
        # a0 b1 - a1 b0 != 0: distinct roots, the gcd (1,)
        got = field._pgcd_qq(f, g)
        assert got == (1,) and type(got[0]) is int
        assert got == fraction_euclid_gcd(f, g)

    @pytest.mark.parametrize("f, g, want, integral", [
        ((2, 2), (-3, -3), (1, 1), True),
        ((1, 2), (Fraction(1, 2), 1), (Fraction(1, 2), 1), False),
        ((1, 0, -1), (-2, 0, 2), (-1, 0, 1), True),
        ((1, 1, 2), (3, 3, 6), (Fraction(1, 2), Fraction(1, 2), 1), False),
        ((Fraction(1, 3), 0, 0, Fraction(-2, 3)), (-1, 0, 0, 2),
         (Fraction(-1, 2), 0, 0, 1), False)],
        ids=["linear-unit-lead", "linear-lead-2", "negative-multiple",
             "quadratic-lead-2", "cubic-fractions"])
    def test_proportional_pair(self, f, g, want, integral):
        # the primitive forms are equal up to sign, and their gcd is the
        # primitive form made monic
        got = field._pgcd_qq(f, g)
        assert got == want == fraction_euclid_gcd(f, g)
        assert all((type(v) is int) == integral for v in got)
        assert field._pgcd_qq(g, f) == got

    @given(st.lists(QQ_LEAVES, min_size=1, max_size=4),
           st.lists(QQ_LEAVES, min_size=1, max_size=4),
           st.lists(QQ_LEAVES, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_euclid(self, a, b, c):
        # a common factor c makes nontrivial gcds common
        f, g = (ptrim(QQ, pmul(QQ, ptrim(QQ, u), ptrim(QQ, c)))
                for u in (a, b))
        assume(f and g)
        got = field._pgcd_qq(f, g)
        want = fraction_euclid_gcd(f, g)
        assert got == want
        # ints exactly when the monic gcd is integral, so that its
        # primitive associate has lead +-1
        integral = all(v.denominator == 1 for v in want)
        assert all((type(v) is int) == integral for v in got)
