"""Tests for exact field arithmetic and field automorphisms."""

import ast
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from birat.errors import (
    BadModulusError,
    DivisionByZeroError,
    FieldMismatchError,
    ParseError,
)
from birat.poly import Polynomial, exact_div, parse_scalar
from birat.scalars import (
    GF,
    QI,
    QQ,
    conjugation,
    frobenius,
    identity_automorphism,
    parse_field,
)

F5 = GF(5)

fractions = st.fractions(min_value=-12, max_value=12, max_denominator=8)


def any_scalar(field):
    if field == QI:
        return st.tuples(fractions, fractions).map(lambda t: field.from_pair(*t))
    return fractions.map(lambda q: field.from_fraction(q) if field == QQ else field.from_int(q.numerator))


fields = st.sampled_from([QQ, QI, F5])


@given(fields.flatmap(lambda k: st.tuples(any_scalar(k), any_scalar(k), any_scalar(k))))
def test_field_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a.field.zero() == a
    assert a * a.field.one() == a
    assert a - a == a.field.zero()


@given(fields.flatmap(any_scalar))
def test_inverse(a):
    if a:
        assert a * a.inverse() == a.field.one()
        assert a / a == a.field.one()
        assert a ** -2 == (a.inverse()) ** 2


five_fields = st.sampled_from([QQ, QI, GF(101), GF(2), GF(3)])


@given(five_fields.flatmap(lambda k: st.tuples(st.lists(any_scalar(k), max_size=6), any_scalar(k))))
def test_raw_scaling_multiplies_by_the_scalar(case):
    # a Polynomial times a Scalar, as maps and rational functions are made
    # monic, scales the payloads (FieldSpec._scale); it must agree with
    # Scalar arithmetic
    cs, s = case
    f = Polynomial(s.field, 1, {(k,): c for k, c in enumerate(cs)})
    for d in (s, s.inverse()) if s else (s,):
        out = f * d
        assert out.terms == {e: c * d for e, c in f.terms.items() if c * d}
        assert all(c.field is s.field for c in out.terms.values())
    assert f * 3 == 3 * f == f * s.field.from_int(3)


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        QQ.zero().inverse()
    with pytest.raises(DivisionByZeroError):
        F5.from_int(0).inverse()


def test_int_coercion():
    a = QQ.from_fraction(Fraction(3))
    assert a == 3
    assert a + 1 == 4
    assert 2 * a == 6
    assert 1 - a == -2
    assert 6 / a == 2
    assert hash(a) == hash(3)


def test_mixed_fields_refuse():
    with pytest.raises(FieldMismatchError):
        QQ.one() + F5.one()


def test_prime_field():
    a = F5.from_int(7)
    assert a == F5.from_int(2)
    assert str(a) == "2"
    assert F5.from_fraction(1, 2) == F5.from_int(3)
    assert F5.characteristic == 5
    with pytest.raises(BadModulusError):
        GF(4)
    with pytest.raises(BadModulusError):
        GF(1)


def test_prime_field_rejects_moduli_past_the_proven_bound():
    # the least strong pseudoprime to the bases 2..37, and a Mersenne prime
    # past it: neither can be proven prime, so both are refused
    with pytest.raises(BadModulusError):
        GF(399165290221 * 798330580441)
    with pytest.raises(BadModulusError):
        GF(2**89 - 1)
    assert GF(2**61 - 1).from_int(2).inverse() * 2 == 1


def test_gaussian_arithmetic():
    i = QI.from_pair(0, 1)
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert i.inverse() == -i
    assert str(i) == "i"
    assert str(1 - i) == "1-i"
    assert str(QI.from_pair(0, 2)) == "2i"
    assert str(QI.from_pair(Fraction(1, 2), 0)) == "1/2"


def test_conjugation():
    conj = conjugation(QI)
    i = QI.from_pair(0, 1)
    assert conj(i) == -i
    assert conj(conj(i)) == i
    assert conj(QI.from_int(3)) == 3
    assert not conj.is_identity_action
    assert conj.compose(conj).is_identity_action
    with pytest.raises(FieldMismatchError):
        conjugation(QQ)


@given(st.integers(-30, 30))
def test_frobenius_fixes_prime_field(n):
    fr = frobenius(F5)
    a = F5.from_int(n)
    assert fr(a) == a
    assert fr.is_identity_action


def test_frobenius_composition():
    fr = frobenius(F5)
    assert fr.compose(fr) == frobenius(F5, 2)
    with pytest.raises(FieldMismatchError):
        frobenius(QQ)


def test_identity_automorphism():
    ident = identity_automorphism(QI)
    i = QI.from_pair(0, 1)
    assert ident(i) == i
    assert ident.is_identity_action


def test_parse_field():
    assert parse_field("Q") == QQ
    assert parse_field("Qi") == QI
    assert parse_field("Fp:5") == F5
    with pytest.raises(ParseError):
        parse_field("R")
    with pytest.raises(BadModulusError):
        parse_field("Fp:6")


def test_parse_scalar():
    assert parse_scalar("-3/2", QQ) == QQ.from_fraction(Fraction(-3, 2))
    assert parse_scalar("1+i", QI) == QI.from_pair(1, 1)
    assert parse_scalar("2", F5) == F5.from_int(2)
    with pytest.raises(ParseError):
        parse_scalar("i", QQ)


@given(fields.flatmap(any_scalar))
def test_str_round_trip(a):
    assert parse_scalar(str(a), a.field) == a


def _canonical_q(s):
    # lowest terms over a positive denominator, the form == and hash rely on
    n, d = s.value
    return type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1


def _agrees(s, fr):
    return _canonical_q(s) and Fraction(str(s)) == fr and str(s) == str(fr) and hash(s) == hash(fr)


wide = st.fractions(max_denominator=10**30) | st.integers(-(10**40), 10**40).map(Fraction)


@given(wide, wide, st.integers(-(10**6), 10**6), st.integers(-5, 5).filter(bool))
def test_rational_payloads_stay_canonical_and_print_and_hash_as_fractions(x, y, n, d):
    a, b = QQ.from_fraction(x), QQ.from_fraction(y)
    assert _agrees(a, x) and _agrees(b, y)
    assert _agrees(QQ.from_fraction(n, d), Fraction(n, d))
    assert _agrees(QQ.from_int(n), Fraction(n))
    assert _agrees(a + b, x + y) and _agrees(a - b, x - y) and _agrees(a * b, x * y)
    assert _agrees(-a, -x) and _agrees(a * n, x * n) and _agrees(a ** 3, x**3)
    if y:
        assert _agrees(b.inverse(), 1 / y) and _agrees(a / b, x / y) and _agrees(b ** -2, y**-2)
    assert (a == b) == (x == y) and (a == n) == (x == n)
    # the raw routes: a product of polynomials decodes over a common denominator
    f = Polynomial(QQ, 1, {(0,): a, (1,): QQ.from_fraction(n, d)})
    g = Polynomial(QQ, 1, {(0,): b, (2,): QQ.one()})
    for h in (f * g, f * b):
        assert all(map(_canonical_q, h.terms.values()))


class _FractionPair:
    """A Gaussian rational as a pair of Fractions (real, imaginary): the
    reference whose str, hash, truth and bit size Q(i) scalars must keep."""

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _FractionPair(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return _FractionPair(-self.re, -self.im)

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        a, b, c, d = self.re, self.im, o.re, o.im
        return _FractionPair(a * c - b * d, a * d + b * c)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return _FractionPair(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        out = _FractionPair(1, 0)
        for _ in range(abs(n)):
            out = out * self
        return out.inverse() if n < 0 else out

    def conjugate(self):
        return _FractionPair(self.re, -self.im)

    def __eq__(self, o):
        return (self.re, self.im) == (o.re, o.im)

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        istr = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
        if not re:
            return istr
        return f"{re}+{istr}" if im > 0 else f"{re}{istr}"

    def bit_size(self):
        return max(x.bit_length() for q in (self.re, self.im) for x in (q.numerator, q.denominator))


def _canonical_qi(s):
    # (a + b*i)/d with d > 0 and gcd(a, b, d) = 1, the form == and hash rely on
    a, b, d = s.value
    return all(type(x) is int for x in (a, b, d)) and d > 0 and math.gcd(a, b, d) == 1


def _agrees_qi(s, ref):
    return (
        _canonical_qi(s)
        and str(s) == str(ref)
        and hash(s) == hash(ref)
        and bool(s) == bool(ref)
        and QI._bit_size(s) == ref.bit_size()
    )


@given(wide, wide, wide, wide, st.integers(-(10**6), 10**6), st.integers(-5, 5).filter(bool))
def test_gaussian_payloads_stay_canonical_and_print_and_hash_as_fraction_pairs(p, q, r, t, n, d):
    x, y = _FractionPair(p, q), _FractionPair(r, t)
    a, b = QI.from_pair(p, q), QI.from_pair(r, t)
    assert _agrees_qi(a, x) and _agrees_qi(b, y)
    assert _agrees_qi(QI.from_pair(p, 0), _FractionPair(p, 0))
    assert _agrees_qi(QI.from_pair(0, q), _FractionPair(0, q))
    assert _agrees_qi(QI.from_pair(n, d), _FractionPair(n, d))
    assert _agrees_qi(QI.from_fraction(n, d), _FractionPair(Fraction(n, d), 0))
    assert _agrees_qi(QI.from_fraction(p), _FractionPair(p, 0))
    assert _agrees_qi(QI.from_int(n), _FractionPair(n, 0))
    assert _agrees_qi(a + b, x + y) and _agrees_qi(a - b, x - y) and _agrees_qi(a * b, x * y)
    assert _agrees_qi(-a, -x) and _agrees_qi(a.conjugate(), x.conjugate()) and _agrees_qi(a**3, x**3)
    # int promotion on either side
    m = _FractionPair(n, 0)
    assert _agrees_qi(a * n, x * m) and _agrees_qi(n + a, m + x) and _agrees_qi(n - a, m - x)
    if y:
        assert _agrees_qi(b.inverse(), y.inverse()) and _agrees_qi(a / b, x / y)
        assert _agrees_qi(b**-2, y**-2) and _agrees_qi(n / b, m / y)
    assert (a == b) == (x == y) and (a == n) == (x == m) and (a == a.conjugate()) == (x == x.conjugate())
    # the raw routes: products of polynomials decode over a common
    # denominator, a Polynomial times a Scalar scales the payloads, and
    # exact_div decodes over a Gaussian integer
    c = QI.from_pair(Fraction(n, d), 1)
    z = _FractionPair(Fraction(n, d), 1)
    f = Polynomial(QI, 1, {(0,): a, (1,): c})
    g = Polynomial(QI, 1, {(0,): b, (2,): QI.from_pair(0, 1)})
    if a and b:
        assert all(_agrees_qi(h.terms[e], ref) for h, e, ref in [
            (f * g, (0,), x * y), (f * g, (1,), z * y), (f * g, (2,), x * _FractionPair(0, 1)),
            (f * g, (3,), z * _FractionPair(0, 1)), (f * b, (0,), x * y), (f * b, (1,), z * y),
        ])
        q = exact_div(f * g, g)
        assert q == f and _agrees_qi(q.terms[(0,)], x) and _agrees_qi(q.terms[(1,)], z)


def _payload_reads(tree):
    """Lines that read Scalar.value or call Scalar(...) directly."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "value" and id(node) not in called:
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "Scalar") or (
                isinstance(f, ast.Attribute) and f.attr == "Scalar"
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_payload_reads_catch_attribute_reads_and_construction():
    tree = ast.parse("a = c.value\nb = nu.value(s)\nd = Scalar(f, 1)\ne = scalars.Scalar(f, 2)\n")
    assert _payload_reads(tree) == [1, 3, 4]


def test_only_scalars_reads_the_payload():
    # every other module goes through FieldSpec and Scalar's methods, so the
    # payload's encoding lives in one file
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "birat"
    found = {}
    for path in sorted(src.glob("*.py")):
        if path.name != "scalars.py":
            lines = _payload_reads(ast.parse(path.read_text(), str(path)))
            if lines:
                found[path.name] = lines
    assert found == {}
