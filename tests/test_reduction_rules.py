"""The reductions that need no gcd, checked against the full gcd route.

Three kinds of family decide their gcd by structure: a composition with an
invertible linear factor is coprime, a family of linear forms is coprime
unless its coefficient matrix has rank 1, and a family with a monomial
member has a monomial gcd.  Each is compared here with the reduction by
_gcd_cofactors, or for the monomial rule with a pairwise poly_gcd chain and
exact_div, and counted to show that it makes no gcd call.
"""

import functools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from birat import affine, cremona, matrices, poly
from birat.affine import to_cremona
from birat.cremona import CremonaMap, parse_map, standard_involution
from birat.errors import BiratError, ZeroMapError
from birat.poly import Polynomial, _gcd_cofactors, exact_div, parse_poly, poly_gcd
from birat.scalars import GF, QI, QQ, Scalar

FIELDS = [QQ, QI, GF(101), GF(2), GF(3)]


# ---------------------------------------------------------------------------
# strategies: small homogeneous families over every field


@st.composite
def scalars(draw, field):
    a = draw(st.integers(-3, 3))
    if field is QI:
        return field.from_pair(a, draw(st.integers(-2, 2)))
    if field is QQ:
        return field.from_fraction(a, draw(st.integers(1, 2)))
    return field.from_int(a)


@st.composite
def forms(draw, field, nvars, degree, max_terms=3):
    """A homogeneous polynomial of the given degree, possibly zero."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        vs = draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree))
        terms[tuple(vs.count(v) for v in range(nvars))] = draw(scalars(field))
    return Polynomial(field, nvars, terms)


def _linear_forms(field, rows):
    n = len(rows[0])
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return [Polynomial(field, n, dict(zip(units, row))) for row in rows]


@st.composite
def linear_rows(draw, field, n):
    """A square coefficient matrix; some are singular, some of rank 1."""
    kind = draw(st.sampled_from(["random", "singular", "rank one"]))
    rows = [[draw(scalars(field)) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        a, b = draw(scalars(field)), draw(scalars(field))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    elif kind == "rank one":
        rows = [[draw(scalars(field)) * x for x in rows[0]] for _ in range(n)]
    return rows


def _outcome(fn):
    try:
        return fn()
    except BiratError as e:
        return e.code, str(e)


def _reduced_by_gcd(comps):
    # what CremonaMap.__init__ does for any family: the gcd, then the scaling
    nonzero = [c for c in comps if c]
    if not nonzero:
        raise ZeroMapError("all components vanish")
    g, quos = _gcd_cofactors(comps)
    if nonzero[0].total_degree - g.total_degree < 1:
        raise ZeroMapError("map reduces to a constant tuple")
    lc = next(q for q in quos if q).leading_coefficient()
    return tuple(q * lc.inverse() for q in quos)


def _composed_by_gcd(f, g):
    comps = [c.substitute(list(g.components)) for c in f.components]
    if not any(comps):
        raise ZeroMapError("composition vanishes identically")
    return _reduced_by_gcd(comps)


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


# ---------------------------------------------------------------------------
# differential tests


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_linear_families_reduce_as_the_gcd_route_does(data):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(2, 5))
    rows = data.draw(linear_rows(field, n))
    for k in data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        rows[k] = [field.zero()] * n
    comps = _linear_forms(field, rows)
    expected = _outcome(lambda: _reduced_by_gcd(comps))
    assert _outcome(lambda: CremonaMap(comps).components) == expected


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_compositions_with_a_linear_factor_reduce_as_the_gcd_route_does(data):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(2, 5))
    degree = data.draw(st.integers(1, 3))
    comps = [data.draw(forms(field, n, degree)) for _ in range(n)]
    f = _outcome(lambda: CremonaMap(comps))
    lin = _outcome(lambda: CremonaMap(_linear_forms(field, data.draw(linear_rows(field, n)))))
    assume(isinstance(f, CremonaMap) and isinstance(lin, CremonaMap))
    for a, b in ((f, lin), (lin, f)):
        expected = _outcome(lambda: _composed_by_gcd(a, b))
        assert _outcome(lambda: a.compose(b).components) == expected


def _invertible_linear_map(rng, field, n):
    while True:
        rows = [[field.from_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        lin = CremonaMap(_linear_forms(field, rows)) if matrices.rank(rows) == n else None
        if lin is not None and not lin._is_identity():  # compose returns the other factor
            return lin


def _quadratic_map(rng, field, n):
    # on P^2 and up, one or two components vanish; draws that reduce to a
    # lower degree are drawn again
    x = [Polynomial.variable(field, n, v) for v in range(n)]
    while True:
        comps = [
            sum((field.from_int(rng.randint(-2, 2)) * x[rng.randrange(n)] * x[rng.randrange(n)]
                 for _ in range(3)), Polynomial.zero(field, n))
            for _ in range(n)
        ]
        for k in rng.sample(range(n), min(rng.randint(1, 2), n - 2)):
            comps[k] = Polynomial.zero(field, n)
        try:
            f = CremonaMap(comps)
        except ZeroMapError:
            continue
        if f.degree == 2:
            return f


def _composed(comps):
    # CremonaMap.compose, one component at a time
    if not any(comps):
        raise ZeroMapError("composition vanishes identically")
    return CremonaMap(comps)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_one_pass_composition_matches_substituting_each_component(field):
    # a composition substitutes all components in one pass, and next to a
    # linear factor decodes them monic; the reference substitutes each and
    # reduces by CremonaMap, and for a linear factor substitute then scale
    # fixes the term order
    rng = random.Random(f"one-pass/{field}")

    def terms(f):
        return [list(c.terms.items()) for c in f.components]

    for n in (2, 3, 4, 5):
        for _ in range(3):
            f, g = _quadratic_map(rng, field, n), _quadratic_map(rng, field, n)
            lin = _invertible_linear_map(rng, field, n)
            for a, b in ((f, lin), (lin, f), (f, g), (g, f)):
                comps = [c.substitute(list(b.components)) for c in a.components]
                got = _outcome(lambda: a.compose(b))
                expected = _outcome(lambda: _composed(comps))
                assert got == expected
                if isinstance(got, CremonaMap):
                    assert terms(got) == terms(expected)
                if b is lin or a is lin:
                    inv = next(c for c in comps if c).leading_coefficient().inverse()
                    assert terms(got) == [list((c * inv).terms.items()) for c in comps]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_composing_with_a_linear_map_encodes_it_once_and_decodes_monic(field, monkeypatch):
    f = parse_map("P^3: [x0^2 + x1^2 + 3*x1*x2 : x0*x1 : 0 : 2*x1*x3 - x2^2]", field)
    lin = parse_map("P^3: [x0 + x1 : 2*x0 + x1 - x2 : x2 + x3 : x3]", field)
    encoded = _spy(monkeypatch, poly, "_encode_terms")
    spies = {}
    for cls, name in ((type(field), "_encode"), (type(field), "_decode"),
                      (Scalar, "__mul__"), (Scalar, "__rmul__"), (Scalar, "inverse")):
        spies[name] = _spy(monkeypatch, cls, name)
    h = f.compose(lin)
    for c in lin.components:
        assert sum(args[1] is c.terms for args in encoded) == 1
    assert len(spies["_encode"]) == len(encoded) == len(lin.components) + sum(1 for c in f.components if c)
    assert len(spies["_decode"]) == sum(1 for c in h.components if c) == 3
    assert spies["__mul__"] == spies["__rmul__"] == spies["inverse"] == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("dim", (3, 4))
def test_a_linear_left_factor_composes_without_products(field, dim, monkeypatch):
    # L o F is a linear combination of the components of F: no term product,
    # where F is the standard involution, a quadratic map or a linear map
    from birat import _kernels
    from birat.suites import rand_proj_linear

    rng = random.Random(f"linear-left/{field}/{dim}")
    lin = CremonaMap.from_proj_linear(rand_proj_linear(rng, field, dim))
    rights = [
        standard_involution(field, dim),
        _quadratic_map(rng, field, dim + 1),
        CremonaMap.from_proj_linear(rand_proj_linear(rng, field, dim)),
    ]
    expected = [_composed([c.substitute(list(f.components)) for c in lin.components]) for f in rights]
    products = _spy(monkeypatch, _kernels, "mul_terms")
    assert [lin.compose(f) for f in rights] == expected
    assert products == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_composing_without_a_linear_factor_encodes_the_right_factor_once(field, monkeypatch):
    f = parse_map("P^3: [x0^2 + x1^2 + 3*x1*x2 : x0*x1 : 0 : 2*x1*x3 - x2^2]", field)
    g = parse_map("P^3: [x1*x2 : x0*x2 + x3^2 : x0*x1 : x0*x3]", field)
    encoded = _spy(monkeypatch, poly, "_encode_terms")
    substituted = _spy(monkeypatch, Polynomial, "substitute")
    h = f.compose(g)
    for c in g.components:
        assert sum(args[1] is c.terms for args in encoded) == 1
    assert substituted == []
    assert h == CremonaMap([c.substitute(list(g.components)) for c in f.components])


@pytest.mark.parametrize("f, g", [
    ("P^2: [x1*x2 : x0*x2 : x0*x1]", "P^2: [x0 : x0 : x1]"),
    ("P^2: [x0*x1 - x0^2 : x2^2 : x0*x2]", "P^2: [x0 : x0 : x1]"),
    ("P^2: [0 : x1*x2 : x0^2]", "P^2: [x1 : x0 + x2 : x2]"),
    ("P^2: [x0 - x1 : x0 : x2]", "P^2: [x1*x2 : x1*x2 : x0^2]"),
    ("P^2: [x0 - x1 : 2*x0 - 2*x1 : x2]", "P^2: [x0 : x0 : x1]"),
    ("P^3: [x0 : x1 : x0 : x1]", "P^3: [0 : 0 : x0 : x1]"),
    ("P^3: [x1*x2*x3 : x0*x2*x3 : x0*x1*x3 : x0*x1*x2]", "P^3: [x0 : x1 : x1 : x3]"),
])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_singular_factors_and_vanishing_components_reduce_as_the_gcd_route_does(field, f, g):
    f, g = parse_map(f, field), parse_map(g, field)
    for a, b in ((f, g), (g, f)):
        expected = _outcome(lambda: _composed_by_gcd(a, b))
        assert _outcome(lambda: a.compose(b).components) == expected


def _chain_cofactors(ps):
    # the gcd of a family by pairwise poly_gcd, and exact_div for the quotients
    g = functools.reduce(poly_gcd, [p for p in ps if p]).monic()
    return g, [exact_div(p, g) if p else p for p in ps]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_families_with_a_monomial_gcd_divide_as_the_chain_does(data):
    field = data.draw(st.sampled_from(FIELDS))
    nvars = data.draw(st.integers(2, 5))
    monomial_member = data.draw(st.booleans())
    shift = Polynomial.monomial(
        field, nvars, data.draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
    )
    ps = []
    for _ in range(data.draw(st.integers(3, 5))):
        degree = data.draw(st.integers(0, 2))
        ps.append(shift * data.draw(forms(field, nvars, degree)))
    if monomial_member:
        ps[data.draw(st.integers(0, len(ps) - 1))] = shift * Polynomial.monomial(
            field, nvars, data.draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)),
            data.draw(scalars(field).filter(bool)),
        )
    assume(sum(1 for p in ps if p) != 2 and any(ps))
    assert _gcd_cofactors(ps) == _chain_cofactors(ps)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_monomial_gcd_without_a_monomial_member_divides_by_shifting(field, monkeypatch):
    # x0*x1^2 times three binomials: the combination path, or over F_2 and F_3
    # the chain, finds x0*x1^2 and shifts exponents instead of dividing
    ps = [parse_poly(t, field, 3) for t in ("x0^2*x1^2 + x0*x1^3", "x0*x1^2*x2 - x0^3*x1^2",
                                            "x0*x1^4 + 2*x0*x1^2*x2^2")]
    divisions = _spy(monkeypatch, poly, "exact_div")
    g, quos = _gcd_cofactors(ps)
    assert g == parse_poly("x0*x1^2", field, 3)
    assert quos == [parse_poly(t, field, 3) for t in ("x0 + x1", "x2 - x0^2", "x1^2 + 2*x2^2")]
    assert divisions == []


def test_a_monomial_that_misses_a_member_divides_none():
    # an unlucky combination's gcd is rejected, not used to shift exponents
    ps = [parse_poly(t, QQ, 2) for t in ("x0*x1", "x1^2 + x0", "x1")]
    assert poly._divided(ps, parse_poly("x1", QQ, 2)) is None


# ---------------------------------------------------------------------------
# counted: the rules make no gcd call


@pytest.mark.parametrize("field", [QQ, QI, GF(101), GF(3)], ids=str)
def test_an_invertible_linear_factor_skips_the_gcd(field, monkeypatch):
    f = parse_map("P^3: [x0^2 + x1*x2 : x0*x1 : x0*x2 + x3^2 : x1*x3]", field)
    lin = parse_map("P^3: [x0 + x1 : x1 - x2 : x2 + 2*x3 : x3]", field)
    calls = _spy(monkeypatch, cremona, "_gcd_cofactors")
    f.compose(lin)
    lin.compose(f)
    assert calls == []


def test_parsing_a_linear_map_makes_no_gcd_call(monkeypatch):
    calls = [_spy(monkeypatch, module, name) for module, name in
             ((cremona, "_gcd_cofactors"), (poly, "poly_gcd"), (poly, "_gcd_pair"))]
    assert parse_map("P^3: [x0 + x1 : x1 : x0 + x2 : 2*x3 - x1]", QQ).degree == 1
    with pytest.raises(ZeroMapError, match="map reduces to a constant tuple"):
        parse_map("P^3: [x0 + x1 : 2*x0 + 2*x1 : 0 : -x0 - x1]", QQ)
    assert calls == [[], [], []]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_monomial_members_make_no_gcd_or_division(dim, monkeypatch):
    s = standard_involution(QQ, dim)
    auto = affine.elementary_auto(QQ, dim, 1, parse_poly("x1^2 + 3*x1", QQ, dim))
    calls = [_spy(monkeypatch, poly, name) for name in ("poly_gcd", "exact_div")]
    assert s.compose(s) == CremonaMap.identity(QQ, dim)
    assert to_cremona(auto).degree == 2
    assert calls == [[], []]
