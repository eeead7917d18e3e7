"""Tests for multivariate polynomials, gcds, and rational functions."""

import contextlib
import heapq
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from birat import _modular, poly
from birat.cli import main
from birat.cremona import CremonaMap, parse_map, standard_involution
from birat.errors import (
    ArityMismatchError,
    BiratError,
    DegreeMismatchError,
    FieldMismatchError,
    InexactDivisionError,
    LimitExceededError,
    ParseError,
    PoleAtPointError,
)
from birat.linear import ProjLinear, parse_matrix
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
    substitute_all,
)
from birat.scalars import GF, QI, QQ, FieldKind, Scalar, _is_prime, parse_field


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
# the primitive PRS, the coefficients swelled past 140 000 bits here.  The
# modular route answers poly_gcd on this pair, so the test runs the PRS
# fallback itself.
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
    # read through the printed value, not the payload, whose encoding is scalars.py's
    return max(
        max(fr.numerator.bit_length(), fr.denominator.bit_length())
        for fr in (Fraction(str(c)) for c in p.terms.values())
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
    assert poly._gcd_rec(g, b).monic() == g
    assert seen and max(seen) < 2000


# ---------------------------------------------------------------------------
# the gcd engine against sympy (test-only: birat never imports sympy)

FIELDS = {"Q": QQ, "Qi": QI, "F101": GF(101), "F2": GF(2), "F3": GF(3)}


def test_birat_never_imports_sympy():
    code = "import sys, birat, birat.cli; sys.exit('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _rand_coeff(rng, field):
    if field.kind is FieldKind.PRIME_FIELD:
        return field.from_int(rng.randrange(1, field.modulus))
    c = field.from_fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    if field.kind is FieldKind.GAUSSIAN_RATIONAL and rng.random() < 0.5:
        c = c + field.from_pair(0, rng.choice([-3, -2, -1, 1, 2, 3]))
    return c


def _rand_poly(rng, field, nvars, degree, nterms):
    terms = {}
    for _ in range(nterms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = _rand_coeff(rng, field)
    return Polynomial(field, nvars, terms)


_SPACES = st.sampled_from(["", "", "", " ", "  ", "\t", "\n "])
# plain, zero, vanishing mod 2, 3 or 101, and past int()'s 4300-digit limit
_LITERALS = st.one_of(
    st.integers(1, 10**30).map(str),
    st.sampled_from(["0", "00", "2", "3", "6", "101", "202", "007", "7" * 5000]),
)


@st.composite
def _term_texts(draw):
    """(text, field name, nvars, offset): text a sum of terms
    [+-] [a[/b]] [*] x_i[^k]*..., with spacing and faults."""
    nvars, offset = draw(st.integers(0, 4)), draw(st.integers(0, 1))
    in_range = st.integers(offset, offset + nvars - 1) if nvars else st.nothing()
    pieces = []
    for k in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["", "+", "-"] if k == 0 else ["+", "-", "+", "-", ""]))
        pieces += [draw(_SPACES), sign, draw(_SPACES)]
        literal = draw(st.none() | _LITERALS)
        if literal is not None:
            pieces.append(literal)
            if draw(st.booleans()):
                pieces += [draw(_SPACES), "/", draw(_SPACES), draw(_LITERALS)]
        powers = []
        for _ in range(draw(st.integers(0 if literal is not None else 1, 4))):
            # one in ten out of range: x5 and x6 always are
            v = draw(in_range if nvars and draw(st.integers(0, 9)) else st.sampled_from([0, 1, 5, 6]))
            exponent = draw(st.sampled_from(["", "", "^0", "^1", "^2", " ^ 3", "^12", "^007"]))
            powers.append(f"x{v}{exponent}")
        if powers:
            if literal is not None:
                pieces.append(draw(st.sampled_from(["*", "", " ", " * "])))
            glue = draw(st.sampled_from(["*", "*", "", " ", " *\t"]))
            pieces.append(glue.join(powers))
        pieces.append(draw(_SPACES))
    return "".join(pieces), draw(st.sampled_from(sorted(FIELDS))), nvars, offset


def _parsed_or_error(read, text, field, nvars, offset):
    try:
        return list(read(text, field, nvars, offset).terms.items())
    except ParseError as e:
        return type(e), str(e)


@given(_term_texts())
@settings(max_examples=400, deadline=None)
def test_parse_poly_reads_terms_as_the_descent_does(case):
    # the term-per-match reader either gives the descent's terms, in its
    # order, or leaves the text to the descent, which raises its error
    text, name, nvars, offset = case
    field = FIELDS[name]
    expected = _parsed_or_error(poly._descend, text, field, nvars, offset)
    assert _parsed_or_error(parse_poly, text, field, nvars, offset) == expected


def test_printed_sums_take_the_term_reader():
    rng = random.Random("printed")
    for name in ("Q", "F101", "F2", "F3"):
        field = FIELDS[name]
        for _ in range(10):
            f = _rand_poly(rng, field, 4, 3, rng.randint(1, 8))
            text = poly_str(f, offset=1)
            assert poly._sum_of_terms(text, field, 4, 1) == f.terms


def _rational(sp, c):
    # a Scalar over Q or F_p through its printed value
    fr = Fraction(str(c))
    return sp.Rational(fr.numerator, fr.denominator)


def _to_sympy(sp, f, gens):
    kind = f.field.kind
    if kind is FieldKind.PRIME_FIELD:
        terms = {e: int(_rational(sp, c)) for e, c in f.terms.items()}
        return sp.Poly.from_dict(terms, *gens, modulus=f.field.modulus)
    if kind is FieldKind.RATIONAL:
        terms = {e: _rational(sp, c) for e, c in f.terms.items()}
        return sp.Poly.from_dict(terms, *gens, domain=sp.QQ)
    terms = {}
    half = f.field.from_fraction(1, 2)
    minus_half_i = f.field.from_pair(0, Fraction(-1, 2))
    for e, c in f.terms.items():
        # re = (c + conj c)/2 and im = (c - conj c)/(2i) lie in Q
        re = _rational(sp, (c + c.conjugate()) * half)
        im = _rational(sp, (c - c.conjugate()) * minus_half_i)
        terms[e] = re + sp.I * im
    return sp.Poly.from_dict(terms, *gens, domain=sp.QQ_I)


def _from_sympy(sp, g, field, nvars):
    terms = {}
    for exps, c in g.terms():
        if field.kind is FieldKind.PRIME_FIELD:
            terms[exps] = field.from_int(int(c))
        elif field.kind is FieldKind.RATIONAL:
            terms[exps] = field.from_fraction(int(c.p), int(c.q))
        else:
            re, im = (Fraction(int(x.p), int(x.q)) for x in (sp.re(c), sp.im(c)))
            terms[exps] = field.from_pair(re, im)
    return Polynomial(field, nvars, terms)


def _sympy_gcd(sp, ps):
    gens = sp.symbols(f"x0:{ps[0].nvars}")
    g = _to_sympy(sp, ps[0], gens)
    for f in ps[1:]:
        g = g.gcd(_to_sympy(sp, f, gens))
    return _from_sympy(sp, g, ps[0].field, ps[0].nvars).monic()


@pytest.mark.parametrize("name", FIELDS)
def test_gcd_matches_sympy(name):
    sp = pytest.importorskip("sympy")
    field = FIELDS[name]
    rng = random.Random(f"gcd/{name}")
    for _ in range(6):
        g = _rand_poly(rng, field, 3, rng.randint(1, 2), 3)
        a, b, c = (g * _rand_poly(rng, field, 3, 2, 4) for _ in range(3))
        assert poly_gcd(a, b) == _sympy_gcd(sp, [a, b])
        assert poly_gcd_list([a, b, c]) == _sympy_gcd(sp, [a, b, c])
        coprime = [_rand_poly(rng, field, 3, 3, 5) for _ in range(3)]
        assert poly_gcd_list(coprime) == _sympy_gcd(sp, coprime)


@pytest.mark.parametrize("name", FIELDS)
def test_exact_div_matches_sympy(name):
    sp = pytest.importorskip("sympy")
    field = FIELDS[name]
    gens = sp.symbols("x0:3")
    rng = random.Random(f"div/{name}")
    for _ in range(6):
        b = _rand_poly(rng, field, 3, 2, 3)
        a = b * _rand_poly(rng, field, 3, 3, 6)
        q, r = _to_sympy(sp, a, gens).div(_to_sympy(sp, b, gens))
        assert r.is_zero
        assert exact_div(a, b) == _from_sympy(sp, q, field, 3)
        c = a + _rand_poly(rng, field, 3, 1, 1)
        _, r = _to_sympy(sp, c, gens).div(_to_sympy(sp, b, gens))
        assert divides(b, c) == r.is_zero


# ---------------------------------------------------------------------------
# every path of the gcd engine, forced by its input


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def test_gcd_coprime_certificate(monkeypatch):
    brown = _spy(monkeypatch, _modular, "_brown")
    prs = _spy(monkeypatch, poly, "_gcd_rec")
    a = p("x0^3 + 2*x1^2*x2 - x2 + 1", 3)
    b = p("x0*x1^2 - 3*x2^2 + x0", 3)
    assert poly_gcd(a, b) == 1
    assert brown == [] and prs == []


@pytest.mark.parametrize("field", [QQ, QI, GF(101)], ids=str)
def test_gcd_modular_route(monkeypatch, field):
    brown = _spy(monkeypatch, _modular, "_brown")
    prs = _spy(monkeypatch, poly, "_gcd_rec")
    unit = "i" if field is QI else "1"
    g = parse_poly(f"x0^2 + 3/2*x1*x2 - {unit}*x2 + 2", field, 3)
    a = g * parse_poly("x0 - x1 + 5", field, 3)
    b = g * parse_poly("x1^2 + x0*x2 + 1", field, 3)
    assert poly_gcd(a, b) == g.monic()
    assert brown and prs == []


@pytest.mark.parametrize("one_mod_four", [False, True])
def test_word_primes_are_scanned_once_and_match_a_fresh_scan(monkeypatch, one_mod_four):
    def scan():
        n = (1 << 31) - 1
        while n > 2:
            if (not one_mod_four or n % 4 == 1) and _is_prime(n):
                yield n
            n -= 2

    fresh = list(itertools.islice(scan(), 12))
    monkeypatch.setitem(_modular._WORD_PRIMES, one_mod_four, [])
    first = _modular._word_primes(one_mod_four)
    second = _modular._word_primes(one_mod_four)
    # the first runs ahead, the second reads its primes and then scans on
    got_first = list(itertools.islice(first, 5))
    got_second = list(itertools.islice(second, 9))
    got_first += itertools.islice(first, 7)
    got_second += itertools.islice(second, 3)
    assert got_first == got_second == fresh
    assert _modular._WORD_PRIMES[one_mod_four] == fresh
    proofs = _spy(monkeypatch, _modular, "_is_prime")
    assert list(itertools.islice(_modular._word_primes(one_mod_four), 12)) == fresh
    assert proofs == []


def test_gcd_drops_an_unlucky_prime(monkeypatch):
    # mod the first prime tried, x0 + x2 + first = x0 + x2 is a second
    # common factor: that image has the larger leading monomial
    first = next(_modular._word_primes(False))
    brown = _spy(monkeypatch, _modular, "_brown")
    a = p("(x0 + x1)*(x0 + x2)", 3)
    b = p(f"(x0 + x1)*(x0 + x2 + {first})", 3)
    assert poly_gcd(a, b) == p("x0 + x1", 3)
    images = [(args[3], max(sum(e) for e in out)) for args, out in brown if len(args[2]) == 3]
    assert images[0] == (first, 2)
    assert images[-1][0] != first and images[-1][1] == 1


@pytest.mark.parametrize("cleared", [False, True], ids=["p*x0+1", "x0+1/p"])
@pytest.mark.parametrize("field", [QQ, QI], ids=str)
def test_certificate_skips_a_prime_that_drops_a_leading_monomial(field, cleared):
    # mod the first prime tried, p*x0 + 1 is 1 and the two images are
    # coprime; x0 + 1/p encodes to p*x0 + 1 once its denominator is cleared
    p = next(_modular._word_primes(field is QI))
    x = Polynomial.variable(field, 1, 0)
    g = x + field.from_fraction(1, p) if cleared else x * p + 1
    a = g * (x + 2)
    b = g * (x + 3)
    assert not poly._coprime_certificate(a, b)
    assert poly._gcd_rec(a, b).monic() == g.monic()
    assert poly_gcd(a, b) == g.monic()


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=str)
def test_gcd_prs_fallback_on_small_fields(monkeypatch, field):
    brown = _spy(monkeypatch, _modular, "_brown")
    prs = _spy(monkeypatch, poly, "_gcd_rec")
    g = parse_poly("x0^2 + x1*x2 + 1", field, 3)
    a = g * parse_poly("x0 + x1 + 1", field, 3)
    b = g * parse_poly("x1*x2 + x0 + 1", field, 3)
    assert poly_gcd(a, b) == g.monic()
    assert prs and brown == []


@pytest.mark.parametrize("field", [QQ, QI, GF(101)], ids=str)
def test_gcd_prs_fallback_on_large_fields(monkeypatch, field):
    # the modular route gives up everywhere: the PRS decides, and the gcd of
    # the contents in x2 (x1 + 2 and a multiple of it) recurses through it
    monkeypatch.setattr(poly, "_gcd_modular", lambda *args: None)
    brown = _spy(monkeypatch, _modular, "_brown")
    prs = _spy(monkeypatch, poly, "_gcd_rec")
    unit = "i" if field is QI else "1"
    g = parse_poly(f"x0*(x1 + 2)*(x2^2 + x0*x1 + 3*{unit})", field, 3)
    a = g * parse_poly("x0 - x1 + 5", field, 3)
    b = g * parse_poly("x1*x2 + x0 + 1", field, 3)
    assert poly_gcd(a, b) == g.monic()
    assert len(prs) > 1 and brown == []


def test_gcd_list_over_a_small_field_runs_the_pairwise_chain(monkeypatch):
    # over F_2 every combination of the last two members would be their
    # sum, g*x0, whose gcd with the first member does not divide g*x1
    F2 = GF(2)
    g = parse_poly("x2 + 1", F2, 3)
    family = [g * parse_poly(t, F2, 3) for t in ("x0", "x1", "x0 + x1")]
    gcds = _spy(monkeypatch, poly, "poly_gcd")
    assert poly_gcd_list(family) == g
    assert [args for args, _ in gcds] == [(family[0], family[1]), (g, family[2])]


# ---------------------------------------------------------------------------
# the verified fallback: every route returns the monic gcd and quotients
# checked by division

# (gcd, a/gcd, b/gcd): a shared factor; a shared factor and monomial content
# on both sides; a monomial gcd of a coprime pair
_FALLBACK_PAIRS = [
    ("2*x0^2 + 3/2*x1*x2 - {u}*x2 + 2", "3*x0 - x1 + 5", "x1^2 + x0*x2 + 1"),
    ("x0*x1^2*(x1 + 2)*(5*x2^2 + x0*x1 + 3*{u})", "x0^2*(x0 - x1 + 5)", "2*x2*(x1*x2 + x0 + 1)"),
    ("3*x1*x2", "x0^2 + x2", "x0*(x1 + {u})"),
]


@pytest.mark.parametrize("case", range(len(_FALLBACK_PAIRS)))
@pytest.mark.parametrize("field", [QQ, QI, GF(101)], ids=str)
def test_the_prs_fallback_returns_the_modular_routes_monic_gcd_and_quotients(
    monkeypatch, field, case
):
    unit = "i" if field is QI else "1"
    g, fa, fb = (parse_poly(t.format(u=unit), field, 3) for t in _FALLBACK_PAIRS[case])
    a, b = g * fa, g * fb
    modular = poly._gcd_pair(a, b)
    monkeypatch.setattr(poly, "_gcd_modular", lambda *args: None)
    prs = _spy(monkeypatch, poly, "_gcd_rec")
    forced = poly._gcd_pair(a, b)
    assert forced == modular
    gcd, qa, qb = forced
    assert gcd == g.monic() and gcd.leading_coefficient() == 1
    assert gcd * qa == a and gcd * qb == b
    # the coprime cofactors of the monomial gcd need no PRS
    assert bool(prs) == (case < 2)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(2), GF(3)], ids=str)
def test_a_wrong_prs_gcd_fails_its_division_check(monkeypatch, field):
    # over Q and F_101 the modular route is switched off; over F_2 and F_3
    # the PRS is the only route
    monkeypatch.setattr(poly, "_gcd_modular", lambda *args: None)
    g = parse_poly("x0^2 + x1*x2 + 1", field, 3)
    a = g * parse_poly("x0 + x1 + 1", field, 3)
    b = g * parse_poly("x1*x2 + x0 + 1", field, 3)
    planted = []

    def wrong_prs(pa, pb):
        planted.append((pa, pb))
        return g * parse_poly("x0 + 1", field, 3)

    monkeypatch.setattr(poly, "_gcd_rec", wrong_prs)
    with pytest.raises(InexactDivisionError):
        poly_gcd(a, b)
    with pytest.raises(InexactDivisionError):
        RationalFunction(a, b)
    assert planted


@st.composite
def _small_field_polys(draw, field, nvars=3, max_degree=2):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_degree)] * nvars),
        st.integers(1, field.modulus - 1),
        max_size=4,
    ))
    return Polynomial(field, nvars, {e: field.from_int(c) for e, c in terms.items()})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_small_field_gcds_return_checked_quotients(data):
    # over F_2 and F_3 the PRS decides every gcd with a nontrivial factor
    field = data.draw(st.sampled_from([GF(2), GF(3)]))
    common = data.draw(_small_field_polys(field))
    ps = [common * data.draw(_small_field_polys(field)) for _ in range(data.draw(st.integers(2, 4)))]
    assume(any(ps))
    g, quos = poly._gcd_cofactors(ps)
    assert g.leading_coefficient() == 1
    assert len(quos) == len(ps)
    assert all(q is not None and g * q == p for p, q in zip(ps, quos))
    a, b = ps[:2]
    if a and b:
        assert poly_lcm(a, b) == (a * exact_div(b, poly_gcd(a, b))).monic()


# ---------------------------------------------------------------------------
# the one-line coprimality certificate, the bounds shortcut and one-prime gcds


def _lines(monkeypatch):
    # (args, verdict) of every _line_certificate call, and its per-variable
    # counterpart on the same images: all bounds zero, from points of its own
    calls = _spy(monkeypatch, _modular, "_line_certificate")

    def per_variable(k):
        A, B, n, q, _ = calls[k][0]
        return not any(_modular._degree_bounds(A, B, n, q, random.Random(k), 2))

    return calls, per_variable


def _homogeneous(draw, field, nvars, degree, pure):
    # a random form of the degree; with pure, x0^degree is among its terms
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        e = [0] * nvars
        for _ in range(degree):
            e[draw(st.integers(0, nvars - 1))] += 1
        terms[tuple(e)] = _rand_coeff(random.Random(draw(st.integers(0, 10**6))), field)
    if pure:
        terms[(degree,) + (0,) * (nvars - 1)] = field.one()
    return Polynomial(field, nvars, terms)


@st.composite
def _certificate_pairs(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[name]
    nvars = 3
    rng = random.Random(draw(st.integers(0, 10**6)))
    shape = draw(st.sampled_from(["affine", "omits", "drops", "origin", "pure", "bare"]))
    if shape in ("pure", "bare"):
        # homogeneous pairs, with and without a pure top power
        g = _homogeneous(draw, field, nvars, draw(st.integers(0, 1)), shape == "pure")
        a = g * _homogeneous(draw, field, nvars, draw(st.integers(1, 2)), shape == "pure")
        b = g * _homogeneous(draw, field, nvars, draw(st.integers(1, 2)), False)
        return a, b
    g = Polynomial.one(field, nvars)
    if draw(st.booleans()):
        g = _rand_poly(rng, field, nvars, 2, 3)
    if shape == "omits":
        # a common factor free of x2
        g = g * parse_poly("x0*x1 + 2*x0 - 1", field, nvars)
    if shape == "drops":
        # its leading coefficient vanishes mod the first prime a map tries
        first = next(_modular._word_primes(field is QI))
        g = g * parse_poly(f"{first}*x0 + 1", field, nvars) * parse_poly("x0 + 2", field, nvars)
    a = g * _rand_poly(rng, field, nvars, 2, 3)
    b = g * _rand_poly(rng, field, nvars, 2, 3)
    if shape == "origin":
        # both vanish at the origin
        a = a * parse_poly("x0 + x1", field, nvars)
        b = b * parse_poly("x1 - x2", field, nvars)
    assume(not (a.is_constant or b.is_constant))
    return a, b


@given(_certificate_pairs())
@settings(max_examples=120, deadline=None)
def test_the_line_certificate_agrees_with_the_per_variable_route_and_sympy(pair):
    sp = pytest.importorskip("sympy")
    a, b = pair
    with pytest.MonkeyPatch.context() as m:
        calls, per_variable = _lines(m)
        certified = not any(poly._certificate(a, b)[3])
        line, = calls
    coprime = _sympy_gcd(sp, [a, b]).is_constant
    # each certificate is sound on its own; neither decides a common factor
    assert not line[1] or coprime
    assert not per_variable(0) or coprime
    assert not certified or coprime
    g = poly_gcd(a, b)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_modular, "_line_certificate", lambda *args: False)
        assert poly_gcd(a, b) == g
    assert g == _sympy_gcd(sp, [a, b])


# over F_2 and F_3 a random line meets a common root of the closure too
# often for any one line to decide
@pytest.mark.parametrize("name", ["Q", "Qi", "F101"])
@pytest.mark.parametrize("a, b, kind", [
    # a constant term: the radial line
    ("x0^2 + x1*x2 + 3", "x0*x1 - x2^2 + x1", "radial"),
    # both vanish at the origin; x1^3 and x2^2 are pure top powers
    ("x0*x1^2 + x1^3 + x0*x2", "x2^2 + x0*x1", "along"),
    # a homogeneous pair with a pure power x0^2
    ("x0^2 + x1*x2", "x0*x1 + x2^2 + x1^2", "along"),
])
def test_the_line_certificate_decides_coprime_pairs_alone(monkeypatch, name, a, b, kind):
    field = FIELDS[name]
    a, b = parse_poly(a, field, 3), parse_poly(b, field, 3)
    calls, _ = _lines(monkeypatch)
    bounds = _spy(monkeypatch, _modular, "_degree_bounds")
    images = _spy(monkeypatch, _modular, "_univariate_image")
    assert poly._coprime_certificate(a, b)
    assert [out for _, out in calls] == [True] and bounds == []
    (line,) = {args[1] for args, _ in images}
    assert (line is None) == (kind == "radial")


def test_a_homogeneous_pair_without_pure_powers_takes_the_per_variable_route(monkeypatch):
    # both forms vanish at the origin and hold no x_v^2: no line decides
    a, b = p("x0*x1 + x1*x2", 3), p("x0*x2 + x1*x2 - x0*x1", 3)
    calls, _ = _lines(monkeypatch)
    bounds = _spy(monkeypatch, _modular, "_degree_bounds")
    assert poly._coprime_certificate(a, b)
    assert [out for _, out in calls] == [False] and len(bounds) == 1


@pytest.mark.parametrize("field", [QQ, QI, GF(101)], ids=str)
def test_a_divisor_that_meets_its_bounds_skips_the_cofactor_certificate(monkeypatch, field):
    unit = "i" if field is QI else "1"
    g = parse_poly(f"x0^2 + 3/2*x1*x2 - {unit}*x2 + 2", field, 3)
    a = g * parse_poly("x0 - x1 + 5", field, 3)
    b = g * parse_poly("x1^2 + x0*x2 + 1", field, 3)
    with monkeypatch.context() as m:
        cofactors = _spy(m, poly, "_coprime_certificate")
        assert poly_gcd(a, b) == g.monic()
        assert cofactors == []
    # bounds one looser in every variable: g meets none, so its cofactors
    # are certified coprime before it is accepted
    real = _modular._degree_bounds
    monkeypatch.setattr(_modular, "_degree_bounds", lambda *args: [k + 1 for k in real(*args)])
    cofactors = _spy(monkeypatch, poly, "_coprime_certificate")
    assert poly_gcd(a, b) == g.monic()
    assert [out for _, out in cofactors] == [True]


def test_a_premature_reconstruction_keeps_its_primes(monkeypatch):
    # c passes 2^40, so no one or two word primes recover it; mod the first
    # prime it still reconstructs, to a wrong small fraction that fails the
    # trial division, and the next primes refine the same product
    first = next(_modular._word_primes(False))
    c = next(
        c for c in itertools.count(2**40 + 1)
        if _modular._rational_reconstruction(c % first, first) is not None
    )
    g = p(f"x0 + {c}*x1 + 1", 2)
    a = g * p("x0 + 2*x1 + 3", 2)
    b = g * p("x0 - x1^2 + 5", 2)
    verified = _spy(monkeypatch, poly, "_verified")
    crts = _spy(monkeypatch, _modular, "_crt")
    assert poly_gcd(a, b) == g
    assert verified[0][1] is None and verified[-1][1] is not None
    # one product of primes throughout: each CRT step extends the last
    assert [args[0] is None for args, _ in crts] == [True] + [False] * (len(crts) - 1)
    assert len(crts) >= 3


# ---------------------------------------------------------------------------
# compositions on which the pairwise PRS chain never returned

with open(os.path.join(os.path.dirname(__file__), "data", "gcd_hangs.json")) as fh:
    HANGS = json.load(fh)

# Each of these compositions finishes in under 0.3 s on a 2-CPU machine.
COMPOSE_GATE_S = 5.0


def _check_composite(sp, f, g):
    start = time.perf_counter()
    fg = f.compose(g)
    elapsed = time.perf_counter() - start
    h = [c.substitute(list(g.components)) for c in f.components]
    common = _sympy_gcd(sp, h)
    assert poly_gcd_list(h) == common
    assert fg == CremonaMap([exact_div(c, common) for c in h])
    assert elapsed < COMPOSE_GATE_S
    return common


def test_sigma_after_conjugated_sigma_composes():
    sp = pytest.importorskip("sympy")
    case = HANGS["sigma_after_conjugated_sigma"]
    field = parse_field(case["field"])
    common = _check_composite(sp, parse_map(case["f"], field), parse_map(case["g"], field))
    assert common == parse_poly("x0 + 268/199*x1 - 48/199*x2 - 284/199*x3", field, 4)


def test_sigma_after_linear_map_of_p4_composes():
    sp = pytest.importorskip("sympy")
    case = HANGS["sigma_after_linear_p4"]
    field = parse_field(case["field"])
    linear = CremonaMap.from_proj_linear(ProjLinear(field, parse_matrix(case["matrix"], field)))
    assert _check_composite(sp, standard_involution(field, 4), linear) == 1


def test_prs_family_over_f2_finishes():
    # The PRS fallback folded coefficient gcds in _content_in in the order
    # their terms first appeared; on this family that ran for over a minute.
    sp = pytest.importorskip("sympy")
    case = HANGS["prs_family_over_f2"]
    field = parse_field(case["field"])
    family = [parse_poly(t, field, case["nvars"]) for t in case["family"]]
    start = time.perf_counter()
    common = poly_gcd_list(family)
    assert time.perf_counter() - start < COMPOSE_GATE_S
    assert common == _sympy_gcd(sp, family) == parse_poly(case["gcd"], field, case["nvars"])


# `verify --suite cremona --dim 3 --seed 1` hung in trials 6 and 8 over all
# three fields; now each field takes at most 7 s on a 2-CPU machine.
VERIFY_GATE_S = 60.0


@pytest.mark.parametrize("field", ["Q", "Qi", "Fp:101"])
def test_cremona_suite_finishes_at_dim_3(field):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "cremona", "--dim", "3", "--trials", "12",
                     "--seed", "1", "--field", field, "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out.getvalue())["passed"] == 12
    assert elapsed < VERIFY_GATE_S


# ---------------------------------------------------------------------------
# evaluation and the Jacobian against the term-by-term and derivative route


def _reference_value(f, point):
    acc = f.field.zero()
    for exps, c in f.terms.items():
        t = c
        for v, k in enumerate(exps):
            if k:
                t = t * point[v] ** k
        acc = acc + t
    return acc


def _reference_jacobian(fs, point):
    rows = []
    for f in fs:
        d = _reference_value(f.den, point)
        n = _reference_value(f.num, point)
        rows.append([
            (_reference_value(f.num.derivative(v), point) * d
             - n * _reference_value(f.den.derivative(v), point)) / (d * d)
            for v in range(len(point))
        ])
    return rows


def _test_points(rng, field, nvars):
    yield [field.zero()] * nvars
    for _ in range(3):
        yield [_rand_coeff(rng, field) if rng.random() < 0.5 else field.zero() for _ in range(nvars)]
        yield [_rand_coeff(rng, field) for _ in range(nvars)]


@pytest.mark.parametrize("name", FIELDS)
def test_evaluate_and_jacobian_match_the_derivative_route(name):
    field = FIELDS[name]
    rng = random.Random(f"jacobian/{name}")
    seen = {"pole": 0, "defined": 0, "rational": 0}
    for _ in range(12):
        nv = rng.randint(1, 4)
        fs = []
        for _ in range(rng.randint(1, 3)):
            num = _rand_poly(rng, field, nv, 4, rng.randint(0, 6))
            den = _rand_poly(rng, field, nv, 2, 3)
            fs.append(RationalFunction(num, den) if den else RationalFunction(num))
        seen["rational"] += sum(not f.is_polynomial for f in fs)
        for point in _test_points(rng, field, nv):
            for f in fs:
                assert f.num.evaluate(point) == _reference_value(f.num, point)
                assert f.den.evaluate(point) == _reference_value(f.den, point)
            if all(_reference_value(f.den, point) for f in fs):
                seen["defined"] += 1
                assert jacobian(fs, point) == _reference_jacobian(fs, point)
                assert fs[0].evaluate(point) == (
                    _reference_value(fs[0].num, point) / _reference_value(fs[0].den, point)
                )
            else:
                seen["pole"] += 1
                with pytest.raises(PoleAtPointError):
                    jacobian(fs, point)
    assert all(seen.values()), seen
    x0 = Polynomial.variable(field, 2, 0)
    with pytest.raises(PoleAtPointError):
        jacobian([RationalFunction(x0 + 1, x0)], [0, 1])


def test_jacobian_takes_no_derivative(monkeypatch):
    def refuse(self, v):
        raise AssertionError("derivative called")

    monkeypatch.setattr(Polynomial, "derivative", refuse)
    f = RationalFunction(p("x0^2*x1 - 3*x1 + 1"), p("x0 + x1^2 + 2"))
    j = jacobian([f, RationalFunction(p("x0*x1"))], [QQ.zero(), QQ.from_int(2)])
    assert [[str(x) for x in row] for row in j] == [["5/36", "1/18"], ["2", "0"]]


# ---------------------------------------------------------------------------
# the parser


@pytest.mark.parametrize("name", FIELDS)
def test_parse_round_trips_over_every_field(name):
    field = FIELDS[name]
    rng = random.Random(f"parse/{name}")
    for _ in range(40):
        nv = rng.randint(1, 4)
        f = _rand_poly(rng, field, nv, 5, rng.randint(0, 8))
        assert parse_poly(poly_str(f), field, nv) == f
        assert parse_poly(poly_str(f, offset=1), field, nv, offset=1) == f


def test_parse_hand_cases():
    x0, x1 = (Polynomial.variable(QQ, 2, v) for v in range(2))
    half = QQ.from_fraction(1, 2)
    cases = {
        "3x0": x0 * 3,
        "3 x0 x1^2": x0 * x1 * x1 * 3,
        "x0/2": x0 * half,
        "x0/2/3*4": x0 * QQ.from_fraction(2, 3),
        "2^3*x0": x0 * 8,
        "x0^0*5 + x1^1": x1 + 5,
        "-x0 + x1": x1 - x0,
        "-(x0 - x1)^2": -((x0 - x1) * (x0 - x1)),
        "((x0 + 1)*(x1 - 2))^2 - 1": ((x0 + 1) * (x1 - 2)) ** 2 - 1,
        "2(x0 + x1)x1(x0 - 1)/3": (x0 + x1) * x1 * (x0 - 1) * QQ.from_fraction(2, 3),
        "(1/2)x0 - (3 - 1)": x0 * half - 2,
        "x0*x1 - x1*x0 + 0*x0": Polynomial.zero(QQ, 2),
        "(x0 + x1)^2 - x0^2 - 2x0x1 - x1^2": Polynomial.zero(QQ, 2),
    }
    for text, expected in cases.items():
        assert parse_poly(text, QQ, 2) == expected, text
    i = QI.from_pair(0, 1)
    y0 = Polynomial.variable(QI, 1, 0)
    assert parse_poly("i^2", QI, 1) == Polynomial.constant(QI, 1, -1)
    assert parse_poly("(1+i)^2*x0 - i x0 i", QI, 1) == y0 * (2 * i + 1)
    assert parse_poly("x0/(2i)", QI, 1) == y0 * (2 * i).inverse()
    assert parse_poly("3*x0^2 + 4", GF(5), 1) == parse_poly("-2x0^2 - 1", GF(5), 1)


@pytest.mark.parametrize("text, message", [
    ("x0/0", "division by zero in literal"),
    ("x0/(x1 - x1)", "division by zero in literal"),
    ("x0/x1", "division only by constants"),
    ("1/(x0 + 1)", "division only by constants"),
    ("x2 + 1", "variable x2 out of range"),
    ("i*x0", "the literal i needs the field Qi"),
    ("x0^x1", "exponent must be an integer literal"),
    ("x0^(1/2)", "exponent must be an integer literal"),
    ("x0^", "exponent must be an integer literal"),
    ("x0 + -x1", "unexpected token '-'"),
    ("(x0 + 1", "expected closing parenthesis"),
    ("x0)", "trailing input after polynomial"),
    ("x0 % 2", "unexpected character '%' in 'x0 % 2'"),
])
def test_parse_errors_keep_their_codes(text, message):
    with pytest.raises(ParseError) as err:
        parse_poly(text, QQ, 2)
    assert err.value.code == "PARSE_ERROR"
    assert str(err.value) == message


@pytest.mark.parametrize("text, k, terms", [
    # homogeneous: the monomials of degree k in three variables, C(k + 2, 2)
    ("(x0 + x1)^{k}", 3, 10),
    ("(x0*x1 - x2^2)^{k}*x0", 1, 6),
    # not homogeneous: the monomials of degree at most k, C(k + 3, 3)
    ("(1 + x0)^{k}", 2, 10),
])
def test_a_power_of_a_polynomial_is_bounded_by_its_monomials(monkeypatch, text, k, terms):
    # a bound of 10 terms: the power at k parses, the one at k + 1 does not
    monkeypatch.setattr(poly, "_MAX_COMPOSE_TERMS", 10)
    f = parse_poly(text.format(k=k), QQ, 3)
    assert len(f.terms) <= terms
    with pytest.raises(LimitExceededError) as err:
        parse_poly(text.format(k=k + 1), QQ, 3)
    assert err.value.code == "LIMIT_EXCEEDED"


@pytest.mark.parametrize("text", ["x0/5", "x0/10", "3/(5)*x0", "x0/5^2", "x1/2/5"])
def test_a_divisor_that_vanishes_mod_p_is_a_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse_poly(text, GF(5), 2)
    assert str(err.value) == "division by zero in literal"


@pytest.mark.parametrize("field", [QQ, QI, GF(101)], ids=str)
def test_a_term_of_literals_costs_no_scalar_arithmetic(monkeypatch, field):
    products = _spy(monkeypatch, Scalar, "__mul__")
    inverses = _spy(monkeypatch, Scalar, "inverse")
    f = parse_poly("-3/4*x0*2/5 x1^2 + 2^3/3^2*x0", field, 2)
    assert products == [] and inverses == []
    assert f == Polynomial(field, 2, {(1, 2): field.from_fraction(-3, 10), (1, 0): field.from_fraction(8, 9)})


@pytest.mark.parametrize("text", ["1" * 5000 + "*x0", "x0^" + "9" * 5000, "x" + "1" * 5000])
def test_an_integer_literal_past_the_digit_limit_is_a_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse_poly(text, QQ, 2)
    assert str(err.value) == "integer literal too long"


def test_a_sum_of_monomials_is_parsed_without_polynomial_sums(monkeypatch):
    from birat import _kernels

    add = _spy(monkeypatch, _kernels, "add_terms")
    mul = _spy(monkeypatch, _kernels, "mul_terms")
    text = " + ".join(f"{k}*x0^{k}*x1^{40 - k}" for k in range(1, 40)) + " - 7/2"
    f = parse_poly(text, QQ, 2)
    assert len(f.terms) == 40
    assert add == [] and mul == []


# ---------------------------------------------------------------------------
# products and substitution on raw values against the Scalar route


def _reference_product(f, g):
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, f.field.zero()) + ca * cb
    return Polynomial(f.field, f.nvars, out)


def _reference_power(g, k):
    out = Polynomial.one(g.field, g.nvars)
    for _ in range(k):
        out = _reference_product(out, g)
    return out


def _reference_substitute(f, gs):
    field, m = f.field, gs[0].nvars
    out = {}
    for exps, c in f.terms.items():
        t = Polynomial.constant(field, m, c)
        for g, k in zip(gs, exps):
            t = _reference_product(t, _reference_power(g, k))
        for e, d in t.terms.items():
            out[e] = out.get(e, field.zero()) + d
    return Polynomial(field, m, out)


def _wide_coeff(rng, field):
    # denominators up to 10^6 over Q and Q(i)
    if field.kind is FieldKind.PRIME_FIELD:
        return _rand_coeff(rng, field)
    c = field.from_fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
    if field.kind is FieldKind.GAUSSIAN_RATIONAL:
        c = c + field.from_pair(0, Fraction(rng.randint(-50, 50), rng.randint(1, 10**6)))
    return c


def _raw_route_polys(rng, field, nvars, degree, nterms):
    f = _rand_poly(rng, field, nvars, degree, nterms)
    if rng.random() < 0.3:
        f = f + Polynomial.monomial(field, nvars, [0] * nvars, _wide_coeff(rng, field))
        f = f * _wide_coeff(rng, field)
    return f


@pytest.mark.parametrize("name", FIELDS)
def test_substitute_and_product_match_the_scalar_route(name):
    field = FIELDS[name]
    rng = random.Random(f"raw/{name}")
    for _ in range(25):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        f = _raw_route_polys(rng, field, n, 4, rng.randint(0, 6))
        gs = [_raw_route_polys(rng, field, m, 2, rng.randint(0, 3)) for _ in range(n)]
        assert f.substitute(gs) == _reference_substitute(f, gs)
        h = _raw_route_polys(rng, field, n, 3, rng.randint(0, 5))
        assert f * h == _reference_product(f, h)
        assert h * f == _reference_product(h, f)
    x0, x1 = Polynomial.variable(field, 2, 0), Polynomial.variable(field, 2, 1)
    g = _raw_route_polys(rng, field, 3, 2, 3) + 1
    cases = [
        (x0 - x1, [g, g]),  # cancels to zero
        (Polynomial.constant(field, 2, _wide_coeff(rng, field)), [g, g * 2]),
        (Polynomial.zero(field, 2), [g, g]),
        (x0 * x1 + x0 + 1, [Polynomial.zero(field, 3), g]),  # not homogeneous
        (x0 ** 3 - x1 * _wide_coeff(rng, field), [g * _wide_coeff(rng, field), g * g + 1]),
    ]
    for f, gs in cases:
        h = f.substitute(gs)
        assert h.nvars == 3
        assert h == _reference_substitute(f, gs)
    assert (x0 - x1).substitute([g, g]).is_zero
    assert (x0 + x1) * (x0 - x1) == _reference_product(x0 + x1, x0 - x1)
    assert len(((x0 + x1) * (x0 - x1)).terms) == 2


# ---------------------------------------------------------------------------
# polynomials of degree at most 1 substitute as linear combinations


def _combination(f, gs):
    # sum of c_v * gs[v] plus c_0, by Polynomial + and * alone
    out = Polynomial.zero(f.field, gs[0].nvars)
    for e, c in f.terms.items():
        out = out + (gs[e.index(1)] * c if any(e) else Polynomial.constant(f.field, gs[0].nvars, c))
    return out


def _affine_cases(rng, field):
    """(fs, gs): fs of degree at most 1 with one nonlinear f last, gs of
    another arity; constants, zero components and cancellations included."""
    cases = []
    for _ in range(12):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        fs = [_rand_poly(rng, field, n, 1, rng.randint(0, n + 1)) for _ in range(3)]
        gs = [_raw_route_polys(rng, field, m, 2, rng.randint(0, 3)) for _ in range(n)]
        cases.append((fs + [_rand_poly(rng, field, n, 3, 4)], gs))
    x = [Polynomial.variable(field, 3, v) for v in range(3)]
    g = _raw_route_polys(rng, field, 2, 2, 3) + 1
    c = _rand_coeff(rng, field)
    cases.append((
        [
            x[0] - x[1],  # cancels to zero
            x[0] + x[2] * c - 1,  # cancels to the constant c - 1
            x[0] * c + x[1] * c,  # zero over F_2, since gs[1] = gs[0]
            Polynomial.constant(field, 3, c),
            Polynomial.zero(field, 3),
            x[2] * x[2] - x[0],
        ],
        [g, g, -g * c.inverse() + 1],
    ))
    cases.append(([x[0] + 1, x[2] - x[1] * c], [g, Polynomial.zero(field, 2), g * g]))
    return cases


@pytest.mark.parametrize("name", FIELDS)
def test_affine_polynomials_substitute_as_their_linear_combination(name):
    field = FIELDS[name]
    rng = random.Random(f"affine/{name}")
    for fs, gs in _affine_cases(rng, field):
        got = substitute_all(fs, gs)
        assert [h.nvars for h in got] == [gs[0].nvars] * len(fs)
        for f, h in zip(fs, got):
            if (f.total_degree or 0) <= 1:
                assert h == _combination(f, gs)
            else:
                assert h == _reference_substitute(f, gs)
    x = [Polynomial.variable(field, 3, v) for v in range(3)]
    g = _raw_route_polys(rng, field, 2, 2, 3) + 1
    assert substitute_all([x[0] - x[1], x[0] + x[1] - x[2] * 2], [g, g, g]) == [
        Polynomial.zero(field, 2), Polynomial.zero(field, 2)]


def _sympy_substitute(sp, f, gs):
    xs = sp.symbols(f"x0:{f.nvars}")
    ys = sp.symbols(f"y0:{gs[0].nvars}")
    image = {x: _to_sympy(sp, g, ys).as_expr() for x, g in zip(xs, gs)}
    expr = _to_sympy(sp, f, xs).as_expr().xreplace(image)
    kind = f.field.kind
    if kind is FieldKind.PRIME_FIELD:
        h = sp.Poly(expr, *ys, modulus=f.field.modulus)
    else:
        h = sp.Poly(expr, *ys, domain=sp.QQ if kind is FieldKind.RATIONAL else sp.QQ_I)
    return _from_sympy(sp, h, f.field, len(ys))


@pytest.mark.parametrize("name", FIELDS)
def test_affine_substitution_matches_sympy(name):
    sp = pytest.importorskip("sympy")
    field = FIELDS[name]
    rng = random.Random(f"affine-sympy/{name}")
    for fs, gs in _affine_cases(rng, field):
        assert substitute_all(fs, gs) == [_sympy_substitute(sp, f, gs) for f in fs]


def test_substitute_runs_on_raw_values(monkeypatch):
    from birat import _kernels
    from birat.scalars import Scalar

    calls = []
    for attr in ("__mul__", "__rmul__", "__add__", "__radd__"):
        real = getattr(Scalar, attr)

        def spy(self, other, real=real, attr=attr):
            calls.append(attr)
            return real(self, other)

        monkeypatch.setattr(Scalar, attr, spy)
    rng = random.Random("raw-calls")
    cases = []
    for field in FIELDS.values():
        f = _rand_poly(rng, field, 3, 4, 6) + 1
        gs = [_rand_poly(rng, field, 4, 2, 3) for _ in range(3)]
        cases.append((f, gs, _reference_substitute(f, gs)))
    calls.clear()
    kernel_calls = _spy(monkeypatch, _kernels, "mul_terms")
    for f, gs, expected in cases:
        assert f.substitute(gs).terms == expected.terms
        assert calls == []
    assert kernel_calls


# ---------------------------------------------------------------------------
# exact division on raw values against the Scalar route


def _reference_exact_div(a, b):
    """a / b by the heap loop on Scalars, one inverse of lc(b) per call."""
    if b.is_constant:
        return a * b.constant_term().inverse()
    lt_e, lt_c = b.leading_term()
    lt_c_inv = lt_c.inverse()
    tail = [(e, -c) for e, c in b.terms.items() if e != lt_e]
    rem = dict(a.terms)
    heap = [(poly._heap_key(e), e) for e in rem]
    heapq.heapify(heap)
    quo = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = rem.pop(e, None)
        if c is None:
            continue  # cancelled since it was pushed
        d = tuple(x - y for x, y in zip(e, lt_e))
        if any(x < 0 for x in d):
            raise InexactDivisionError("division leaves a nonzero remainder")
        q = c * lt_c_inv
        quo[d] = q
        for eb, cb in tail:
            k = tuple(x + y for x, y in zip(d, eb))
            prev = rem.get(k)
            if prev is None:
                rem[k] = q * cb
                heapq.heappush(heap, (poly._heap_key(k), k))
            else:
                s = prev + q * cb
                if s:
                    rem[k] = s
                else:
                    del rem[k]
    return Polynomial(a.field, a.nvars, quo)


def _quotient_or_inexact(divide, a, b):
    try:
        return divide(a, b)
    except InexactDivisionError:
        return "inexact"


def _division_cases(rng, field):
    pairs = []
    for _ in range(40):
        n = rng.randint(1, 3)
        b = _raw_route_polys(rng, field, n, 3, rng.randint(1, 4))
        q = _raw_route_polys(rng, field, n, 3, rng.randint(0, 5))
        if b:
            pairs.append((b * q, b))
            pairs.append((b * q + _rand_poly(rng, field, n, 2, 1), b))
    hand = [
        # contents and denominators on both sides, negative leads
        ("3/7*(-2*x0 + 3*x1)*(x0 - 5*x1 + 1)", "(-4*x0 + 6*x1)/5"),
        ("(-3*x0^2 + 2*x1)*(-x0 + 7)", "-3*x0^2 + 2*x1"),
        # a lead that the divisor's integer lead does not divide
        ("x0 + 1", "2*x0 + 3"),
        ("(2*x0 + 3)*(x0 + 1) + 1", "2*x0 + 3"),
        ("6*x0^2 + 5*x0*x1 + 1", "3*x0 + 1"),
        # a monomial that the divisor's leading monomial does not divide
        ("x0*x1 + 1", "x1^2"),
        ("x0^3 + x1", "x0^2 + x1"),
        # constant divisors, and a constant divided by a nonconstant
        ("(x0 + x1)^2 - 4/3", "7/3"),
        ("5", "x0 + 1"),
    ]
    if field.kind is FieldKind.GAUSSIAN_RATIONAL:
        hand += [
            # 2 = (1+i)(1-i): the content of (1+i)*x0 + 2 is 1+i
            ("((1+i)*x0 + 2)*(x0 + i)", "(1+i)*x0 + 2"),
            ("((1+i)*x0 + 2)*(3*x0 - 2*i*x1)/(1-2*i)", "(2+2*i)*x0 + 4"),
            ("((1+i)*x0 + 2)*x0 + 1", "(1+i)*x0 + 2"),
            ("(3 + 4*i)*x0^2 - i", "(1+2*i)*x0"),
            ("(x0 + x1)*(2 + i)", "1 - i"),
        ]
    for a, b in hand:
        try:
            a, b = p(a, 2, field), p(b, 2, field)
        except ParseError:
            continue  # a divisor in the text vanishes mod p
        if b:
            pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("name", FIELDS)
def test_exact_div_matches_the_scalar_route(name):
    field = FIELDS[name]
    outcomes = []
    for a, b in _division_cases(random.Random(f"exact-div/{name}"), field):
        expected = _quotient_or_inexact(_reference_exact_div, a, b)
        assert _quotient_or_inexact(exact_div, a, b) == expected, (a, b)
        outcomes.append(expected == "inexact")
    assert any(outcomes) and not all(outcomes)


def test_exact_div_runs_on_raw_values(monkeypatch):
    calls = []
    for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__neg__", "inverse"):
        real = getattr(Scalar, attr)

        def spy(self, *args, real=real, attr=attr):
            calls.append(attr)
            return real(self, *args)

        monkeypatch.setattr(Scalar, attr, spy)
    rng = random.Random("exact-div-calls")
    cases = []
    for field in FIELDS.values():
        b = _rand_poly(rng, field, 3, 3, 4) + Polynomial.variable(field, 3, 0) ** 4
        q = _rand_poly(rng, field, 3, 3, 5)
        cases.append((b * q, b, q, b * q + 1))
    calls.clear()
    for a, b, q, c in cases:
        assert exact_div(a, b) == q
        assert not divides(b, c)
    assert calls == []


@pytest.mark.parametrize("field", [QQ, QI, GF(101)], ids=str)
def test_a_fraction_is_reduced_with_two_divisions(monkeypatch, field):
    # the divisions that verify the gcd give the reduced parts
    num = p("(x0 + 1)*(x1 + 2)", 2, field)
    den = p("(x0 + 1)*(x1 - 3)", 2, field)
    calls = _spy(monkeypatch, poly, "exact_div")
    f = RationalFunction(num, den)
    assert (f.num, f.den) == (p("x1 + 2", 2, field), p("x1 - 3", 2, field))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# a P^4 composition that is bound by substitute and the term kernels

with open(os.path.join(os.path.dirname(__file__), "data", "p4_compose.json")) as fh:
    P4_PAIR = json.load(fh)

# It takes about 6 s on a 2-CPU machine, 22-25 s when substitute ran on Scalars.
P4_COMPOSE_GATE_S = 15.0


def test_p4_involution_pair_composes_within_its_gate():
    import hashlib

    from birat.cremona import map_str
    from birat.linear import ProjPoint

    field = parse_field(P4_PAIR["field"])
    f, g = parse_map(P4_PAIR["f"], field), parse_map(P4_PAIR["g"], field)
    start = time.perf_counter()
    fg = f.compose(g)
    elapsed = time.perf_counter() - start
    assert fg.degree == P4_PAIR["composite_degree"]
    assert hashlib.sha256(map_str(fg).encode()).hexdigest() == P4_PAIR["composite_sha256"]
    rng = random.Random("p4-pair")
    checked = 0
    while checked < 3:
        pt = ProjPoint(field, [1] + [rng.randrange(101) for _ in range(4)])
        if g.is_indeterminate_at(pt) or fg.is_indeterminate_at(pt):
            continue
        q = g.apply(pt)
        if f.is_indeterminate_at(q):
            continue
        assert fg.apply(pt) == f.apply(q)
        checked += 1
    assert elapsed < P4_COMPOSE_GATE_S


# ---------------------------------------------------------------------------
# packed monomials against a naive tuple-dict reference
#
# Byte fields serve bounds below 128 and wider fields the rest, so exponents
# 127 and 128, 255 and 256 sit at the edges of both, and 1000 far past them.

_PACKING_EXPONENTS = [0, 1, 2, 127, 128, 255, 256, 1000]


def _naive_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out[e] + ca * cb if e in out else ca * cb
    return {e: c for e, c in out.items() if c}


def _naive_substitute(f, gs, m):
    out = {}
    for exps, c in f.items():
        t = {(0,) * m: c}
        for g, k in zip(gs, exps):
            for _ in range(k):
                t = _naive_mul(t, g)
        for e, d in t.items():
            out[e] = out[e] + d if e in out else d
    return {e: d for e, d in out.items() if d}


def _naive_div(a, b):
    # long division in grevlex order, one leading term at a time
    def order(e):
        return sum(e), tuple(-x for x in reversed(e))

    lead = max(b, key=order)
    inv = b[lead].inverse()
    rem, quo = dict(a), {}
    while rem:
        e = max(rem, key=order)
        d = tuple(x - y for x, y in zip(e, lead))
        if min(d) < 0:
            raise InexactDivisionError("division leaves a nonzero remainder")
        q = quo[d] = rem[e] * inv
        for eb, cb in b.items():
            k = tuple(x + y for x, y in zip(d, eb))
            s = rem[k] - q * cb if k in rem else -(q * cb)
            if s:
                rem[k] = s
            else:
                del rem[k]
    return quo


def _naive_outcome(fn):
    try:
        return fn()
    except InexactDivisionError as e:
        return type(e), str(e)


@st.composite
def _packing_coeffs(draw, field):
    if field.kind is FieldKind.PRIME_FIELD:
        return field.from_int(draw(st.integers(1, field.modulus - 1)))
    c = field.from_fraction(draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 9)), draw(st.integers(1, 6)))
    if field.kind is FieldKind.GAUSSIAN_RATIONAL:
        c = c + field.from_pair(0, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))))
    return c


@st.composite
def _packing_polys(draw, field, nvars, max_terms, min_terms=0):
    pairs = draw(st.lists(
        st.tuples(st.tuples(*[st.sampled_from(_PACKING_EXPONENTS)] * nvars), _packing_coeffs(field)),
        min_size=min_terms, max_size=max_terms,
    ))
    return Polynomial(field, nvars, dict(pairs))


_packing_fields = st.sampled_from(sorted(FIELDS)).map(FIELDS.get)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packed_products_match_a_naive_reference(data):
    field = data.draw(_packing_fields)
    n = data.draw(st.integers(1, 3))
    f = data.draw(_packing_polys(field, n, 4))
    g = data.draw(_packing_polys(field, n, 4))
    assert (f * g).terms == _naive_mul(f.terms, g.terms)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packed_substitution_matches_a_naive_reference(data):
    field = data.draw(_packing_fields)
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    f = data.draw(_packing_polys(field, n, 4))
    gs = []
    for v in range(n):
        # a variable raised past 2 takes a monomial or zero, so that no
        # substituted power has thousands of terms
        high = any(e[v] > 2 for e in f.terms)
        gs.append(data.draw(_packing_polys(field, m, 1 if high else 3)))
    assert f.substitute(gs).terms == _naive_substitute(f.terms, [g.terms for g in gs], m)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_one_substitution_pass_matches_each_polynomial_alone(data):
    # substitute_all runs over one denominator and shared powers; each
    # result must be that polynomial's own substitution, in the same term
    # order, zero polynomials included
    field = data.draw(_packing_fields)
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    fs = data.draw(st.lists(_packing_polys(field, n, 3), min_size=1, max_size=3))
    gs = []
    for v in range(n):
        high = any(e[v] > 2 for f in fs for e in f.terms)
        gs.append(data.draw(_packing_polys(field, m, 1 if high else 3)))
    hs = substitute_all(fs, gs)
    assert len(hs) == len(fs)
    for f, h in zip(fs, hs):
        assert h.terms == _naive_substitute(f.terms, [g.terms for g in gs], m)
        assert list(h.terms.items()) == list(f.substitute(gs).terms.items())


def test_one_substitution_pass_checks_every_polynomial():
    x, y = p("x0"), p("x1")
    with pytest.raises(ArityMismatchError, match="expected 3 polynomials, got 2"):
        substitute_all([x, p("x2", 3)], [x, y])
    with pytest.raises(FieldMismatchError):
        substitute_all([x, p("x0", 2, GF(5))], [x, y])
    with pytest.raises(FieldMismatchError):
        substitute_all([x, y], [x, p("x0", 2, GF(5))])
    with pytest.raises(ArityMismatchError, match="disagree on arity"):
        substitute_all([x, y], [x, p("x2", 3)])


def _exponents_of_degree(draw, nvars, degree):
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=nvars - 1, max_size=nvars - 1)))
    return tuple(y - x for x, y in zip([0] + cuts, cuts + [degree]))


@st.composite
def _map_components(draw, field, n, degree, extra):
    # component v holds c*x_s(v)^degree for a permutation s, and up to extra
    # more terms, so that the map does not reduce to a constant; where extra
    # terms are allowed, one component of three may vanish
    perm = draw(st.permutations(range(n)))
    zero = draw(st.sampled_from([None, None, None, 0, 1, 2])) if n == 3 and extra else None
    comps = []
    for v in range(n):
        terms = {}
        if v != zero:
            terms[tuple(degree if u == perm[v] else 0 for u in range(n))] = draw(_packing_coeffs(field))
            for _ in range(draw(st.integers(0, extra))):
                terms[_exponents_of_degree(draw, n, degree)] = draw(_packing_coeffs(field))
        comps.append(Polynomial(field, n, terms))
    return comps


def _components_or_code(make):
    try:
        return list(make().components)
    except BiratError as e:
        return e.code


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_composition_matches_a_naive_reference(data):
    # f of any degree on either side of a linear map L, as in sigma o L:
    # when L is invertible, compose substitutes and scales, with no gcd
    field = data.draw(_packing_fields)
    n = data.draw(st.integers(2, 3))
    fd = data.draw(st.sampled_from([1, 2, 127, 128, 255, 256, 1000]))
    comps = data.draw(_map_components(field, n, fd, 2))
    lc = next(c for c in comps if c).leading_coefficient().inverse()
    f = CremonaMap._trusted([c * lc for c in comps])
    try:
        # past degree 2 L permutes and scales: f o L has few terms, and
        # neither composition needs a gcd
        lin = CremonaMap(data.draw(_map_components(field, n, 1, 1 if fd <= 2 else 0)))
    except BiratError:
        assume(False)  # L has rank 1
    for a, b in ((f, lin), (lin, f)):
        comps = [
            Polynomial(field, n, _naive_substitute(c.terms, [h.terms for h in b.components], n))
            for c in a.components
        ]
        if lin._is_automorphism():
            lc = next(c for c in comps if c).leading_coefficient().inverse()
            expected = [c * lc for c in comps]
        else:
            expected = _components_or_code(lambda: CremonaMap(comps))
        assert _components_or_code(lambda: a.compose(b)) == expected


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packed_exact_division_matches_a_naive_reference(data):
    field = data.draw(_packing_fields)
    n = data.draw(st.integers(1, 3))
    q = data.draw(_packing_polys(field, n, 3))
    b = data.draw(_packing_polys(field, n, 3, min_terms=1))
    a = q * b
    kind = data.draw(st.sampled_from(["exact", "constant", "monomial"]))
    if kind == "constant":
        a = a + 1
    elif kind == "monomial":
        # a monomial of b's degree: the division stops soon after q
        exps = _exponents_of_degree(data.draw, n, b.total_degree)
        a = a + Polynomial.monomial(field, n, exps, data.draw(_packing_coeffs(field)))
    expected = _naive_outcome(lambda: _naive_div(a.terms, b.terms))
    got = _naive_outcome(lambda: exact_div(a, b).terms)
    assert got == expected
    if kind == "exact":
        assert got == q.terms
    if kind == "constant" and not b.is_constant:
        assert got == (InexactDivisionError, "division leaves a nonzero remainder")


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("k", [0, 127, 128, 255, 256, 1000])
def test_packed_keys_hold_the_edge_exponents(name, k):
    field = FIELDS[name]
    x0, x1, x2 = (Polynomial.variable(field, 3, v) for v in range(3))
    f = x0 ** k * x1 + x2 ** k - 2 * x1
    g = x1 ** k + 3 * x0 * x2 + x2 ** 2
    assert (f * g).terms == _naive_mul(f.terms, g.terms)
    assert exact_div(f * g, g) == f
    assert exact_div(f * g, f) == g
    gs = [x1, x0 + x2, 2 * x0]
    assert f.substitute(gs).terms == _naive_substitute(f.terms, [g.terms for g in gs], 3)
    # x1^(k+1) outranks the lead of b in the graded order, which does not
    # divide it: only the guard bits see that
    for b in (x0 ** k + x1, x0 ** k * x1):
        a = x1 ** k * b + x1 ** (k + 1)
        expected = _naive_outcome(lambda: _naive_div(a.terms, b.terms))
        assert _naive_outcome(lambda: exact_div(a, b).terms) == expected
        if k:
            assert expected == (InexactDivisionError, "division leaves a nonzero remainder")


@pytest.mark.parametrize("field", [QQ, QI, GF(101), GF(2)], ids=str)
def test_linear_forms_and_linear_part_convert_both_ways(field):
    rows = [[field.from_int(k) for k in row] for row in ([0, 2, 1], [3, 0, 0])]
    shift = [field.from_int(5), field.zero()]
    forms = poly._linear_forms(field, rows)
    assert forms == [parse_poly("2*x1 + x2", field, 3), parse_poly("3*x0", field, 3)]
    assert poly._linear_part(forms) == rows
    shifted = poly._linear_forms(field, rows, shift)
    assert shifted[0] == forms[0] + field.from_int(5) and shifted[1] == forms[1]
    assert poly._linear_part(shifted) == rows
