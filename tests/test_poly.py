"""Tests for multivariate polynomials, gcds, and rational functions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from birat import poly
from birat.errors import (
    ArityMismatchError,
    DegreeMismatchError,
    InexactDivisionError,
    ParseError,
    PoleAtPointError,
)
from birat.poly import (
    Polynomial,
    RationalFunction,
    dehomogenize,
    divides,
    exact_div,
    homogenize,
    jacobian,
    parse_poly,
    poly_gcd,
    poly_gcd_list,
    poly_lcm,
    poly_str,
)
from birat.scalars import GF, QI, QQ


def p(text, nvars=2, field=QQ):
    return parse_poly(text, field, nvars)


fractions = st.fractions(min_value=-8, max_value=8, max_denominator=5)


@st.composite
def polys(draw, nvars=2, max_degree=3):
    terms = draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, max_degree) for _ in range(nvars)]),
        fractions,
    ), min_size=0, max_size=4))
    out = Polynomial.zero(QQ, nvars)
    for exps, c in terms:
        out = out + Polynomial.monomial(QQ, nvars, exps, QQ.from_fraction(c))
    return out


def test_construction_drops_zeros():
    a = p("x0 + x1") - p("x1")
    assert a == p("x0")
    assert len(a.terms) == 1
    assert not Polynomial.zero(QQ, 2)


def test_total_degree():
    assert p("x0^2*x1 + x0").total_degree == 3
    assert p("3").total_degree == 0
    assert Polynomial.zero(QQ, 2).total_degree is None


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Polynomial.zero(QQ, 2)


@given(polys(), polys())
def test_degree_of_product(a, b):
    if a and b:
        assert (a * b).total_degree == a.total_degree + b.total_degree


def test_leading_term_order():
    # graded reverse lexicographic: x0^2*x1 beats x0*x1^2
    exps, c = p("x0*x1^2 + x0^2*x1").leading_term()
    assert exps == (2, 1)
    assert c == 1


def test_evaluate():
    a = p("x0^2*x1 - 3")
    assert a.evaluate([QQ.from_int(2), QQ.from_int(5)]) == 17
    with pytest.raises(ArityMismatchError):
        a.evaluate([QQ.one()])


def test_substitute_matches_evaluation():
    a = p("x0^2 + x1")
    inner = [p("x0 + x1"), p("x0*x1")]
    vals = [QQ.from_int(2), QQ.from_int(3)]
    composed = a.substitute(inner)
    assert composed.evaluate(vals) == a.evaluate([q.evaluate(vals) for q in inner])


def test_derivative():
    a = p("x0^3*x1 + 2*x1")
    assert a.derivative(0) == p("3*x0^2*x1")
    assert a.derivative(1) == p("x0^3 + 2")


@given(polys(), polys())
@settings(max_examples=50)
def test_derivative_product_rule(a, b):
    lhs = (a * b).derivative(0)
    assert lhs == a.derivative(0) * b + a * b.derivative(0)


def test_gcd():
    a = p("x0^2 - x1^2")
    b = p("x0^2 + 2*x0*x1 + x1^2")
    assert poly_gcd(a, b) == p("x0 + x1")
    assert poly_gcd(p("x0^2*x1"), p("x0*x1^2")) == p("x0*x1")
    assert poly_gcd(a, Polynomial.zero(QQ, 2)) == a.monic()


def test_gcd_of_coprime():
    assert poly_gcd(p("x0 + 1"), p("x1 + 1")) == p("1")
    assert poly_gcd(p("x0^2 + x1"), p("x0 + x1^2")) == p("1")


@given(polys(max_degree=2), polys(max_degree=2), polys(max_degree=2))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_and_absorbs(g, a, b):
    if not (g and a and b):
        return
    d = poly_gcd(g * a, g * b)
    assert divides(g, d)
    assert divides(d, g * a)
    assert divides(d, g * b)


def test_gcd_list():
    ps = [p("x0^2*x1"), p("x0*x1^2"), p("x0*x1")]
    assert poly_gcd_list(ps) == p("x0*x1")


def test_lcm():
    a, b = p("x0*x1"), p("x1^2")
    assert poly_lcm(a, b) == p("x0*x1^2")


def test_exact_div():
    q = exact_div(p("x0^2 - x1^2"), p("x0 - x1"))
    assert q == p("x0 + x1")
    with pytest.raises(InexactDivisionError):
        exact_div(p("x0^2 + 1"), p("x0 + 1"))


def test_homogeneous_components():
    a = p("x0^2 + x0*x1 + x1 + 4")
    comps = a.homogeneous_components()
    assert comps[0] == p("4")
    assert comps[1] == p("x1")
    assert comps[2] == p("x0^2 + x0*x1")
    assert sum(comps.values(), Polynomial.zero(QQ, 2)) == a


def test_homogenize_dehomogenize():
    a = p("x1^2 + x0", nvars=2)
    h = homogenize(a, 2)
    assert h == parse_poly("x2^2 + x0*x1", QQ, 3)
    assert h.is_homogeneous
    assert dehomogenize(h) == a
    with pytest.raises(DegreeMismatchError):
        homogenize(a, 1)


def test_jacobian():
    fs = [RationalFunction.from_polynomial(p("x0^2*x1")),
          RationalFunction.from_polynomial(p("x0 + x1"))]
    point = [QQ.from_int(2), QQ.from_int(3)]
    j = jacobian(fs, point)
    assert [[str(x) for x in row] for row in j] == [["12", "4"], ["1", "1"]]


def test_jacobian_quotient_rule():
    f = RationalFunction(p("1", nvars=1), p("x0", nvars=1))
    j = jacobian([f], [QQ.from_int(2)])
    assert j[0][0] == QQ.from_fraction(Fraction(-1, 4))


def test_rational_function_reduces():
    f = RationalFunction(p("x0^2 - 1"), p("x0 - 1"))
    assert f.is_polynomial
    assert f.num == p("x0 + 1")
    assert f.den == p("1")


def test_rational_function_monic_denominator():
    f = RationalFunction(p("x0"), p("2*x1"))
    assert f.den == p("x1")
    assert f.num == p("1/2*x0")


def test_rational_function_arithmetic():
    x = RationalFunction.from_polynomial(p("x0"))
    y = RationalFunction.from_polynomial(p("x1"))
    f = x / y + y / x
    assert f == RationalFunction(p("x0^2 + x1^2"), p("x0*x1"))
    assert f - f == RationalFunction.from_polynomial(Polynomial.zero(QQ, 2))


def test_rational_function_evaluation():
    f = RationalFunction(p("1", nvars=1), p("x0", nvars=1))
    assert f.evaluate([QQ.from_int(4)]) == QQ.from_fraction(Fraction(1, 4))
    assert not f.is_defined_at([QQ.zero()])
    with pytest.raises(PoleAtPointError):
        f.evaluate([QQ.zero()])


def test_parse_round_trip():
    for text in ("x0^2 - 2*x0*x1 + 1/3", "x0*x1^3 + x1 - 5", "0", "-x0"):
        a = p(text)
        assert parse_poly(poly_str(a), QQ, 2) == a


def test_parse_gaussian():
    a = parse_poly("(1+i)*x0 + i", QI, 1)
    i = QI.from_pair(0, 1)
    assert a.evaluate([QI.one()]) == 1 + 2 * i


def test_parse_offset_names():
    a = parse_poly("x1 + x2^2", QQ, 2, offset=1)
    assert poly_str(a, offset=1) == "x2^2 + x1"
    assert a == p("x0 + x1^2")


def test_parse_rejects():
    with pytest.raises(ParseError):
        p("x2 + 1")  # out of range for two variables
    with pytest.raises(ParseError):
        p("i")  # no such scalar over Q
    with pytest.raises(ParseError):
        p("x0 / x1")


def test_finite_field_polys():
    F5 = GF(5)
    a = parse_poly("x0^2 + 4", F5, 1)
    assert a.evaluate([F5.from_int(1)]) == 0
    assert poly_gcd(a, parse_poly("x0 + 1", F5, 1)) == parse_poly("x0 + 1", F5, 1)


# A gcd from the chart of a composed map of P^3 (criterion-2 corpus): the
# cubic G divides the sextic G * H.  Without normalizing each remainder of
# the primitive PRS, the coefficients swelled past 140 000 bits here.
SWELL_G = (
    "x0^3 + 7*x0^2*x1 + 4*x0*x1^2 - 12*x1^3 + 7*x0^2*x2 + 2*x0*x1*x2 - 72*x1^2*x2"
    " - 6*x0*x2^2 - 132*x1*x2^2 - 72*x2^3 - 4*x0^2*x3 - 18*x0*x1*x3 - 20*x1^2*x3"
    " - 22*x0*x2*x3 - 52*x1*x2*x3 - 24*x2^2*x3 + 4*x0*x3^2 + 8*x1*x3^2 + 16*x2*x3^2"
)
SWELL_H = (
    "-2667/32*x0^2*x1 - 7831/48*x0*x1^2 + 613/2*x1^3 - 29543/288*x0^2*x2"
    " - 8393/24*x0*x1*x2 + 1839*x1^2*x2 - 6011/48*x0*x2^2 + 6743/2*x1*x2^2"
    " + 1839*x2^3 + 3763/144*x0^2*x3 + 13571/48*x0*x1*x3 + 3065/6*x1^2*x3"
    " + 55085/144*x0*x2*x3 + 7969/6*x1*x2*x3 + 613*x2^2*x3 - 3763/72*x0*x3^2"
    " - 613/3*x1*x3^2 - 1226/3*x2*x3^2"
)


def _coeff_bits(p):
    return max(
        max(c.value.numerator.bit_length(), c.value.denominator.bit_length())
        for c in p.terms.values()
    )


def test_gcd_remainders_stay_small(monkeypatch):
    g = parse_poly(SWELL_G, QQ, 4)
    b = g * parse_poly(SWELL_H, QQ, 4)
    seen = []
    prem = poly._prem

    def traced_prem(f, h, v):
        seen.append(max(_coeff_bits(f), _coeff_bits(h)))
        return prem(f, h, v)

    monkeypatch.setattr(poly, "_prem", traced_prem)
    assert poly_gcd(g, b) == g
    assert seen and max(seen) < 2000
