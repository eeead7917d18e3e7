"""Tests for maps of projective space in homogeneous coordinates."""

import random

import pytest

from birat import cremona as cremona_module
from birat import matrices, suites
from birat import poly as poly_module
from birat.cremona import (
    CremonaMap,
    chart_from_polys,
    from_chart,
    map_str,
    max_degree,
    parse_map,
    standard_involution,
)
from birat.errors import (
    ChartDegenerateError,
    DegreeMismatchError,
    EmptyFamilyError,
    IndeterminateAtPointError,
    NotHomogeneousError,
    ZeroMapError,
)
from birat.linear import (
    ProjLinear,
    move_point_to_origin,
    origin_point,
    parse_matrix,
    parse_point,
)
from birat.poly import Polynomial, RationalFunction, jacobian, parse_poly, poly_str
from birat.scalars import GF, QI, QQ


def mp(text, field=QQ):
    return parse_map(text, field)


def poly3(text, field=QQ):
    return parse_poly(text, field, 3)


SIGMA = "P^2: [x1*x2 : x0*x2 : x0*x1]"


def test_standard_involution():
    s = standard_involution(QQ)
    assert s == mp(SIGMA)
    assert s.degree == 2
    assert s.compose(s) == CremonaMap.identity(QQ, 2)


def test_involution_higher_dimension():
    s = standard_involution(QQ, 3)
    assert s.degree == 3
    assert s.compose(s) == CremonaMap.identity(QQ, 3)


def test_common_factors_removed():
    f = CremonaMap([poly3("x0^2*x1"), poly3("x0*x1^2"), poly3("x0*x1*x2")])
    assert f.degree == 1
    assert f == mp("P^2: [x0 : x1 : x2]")


def test_scaling_normalized():
    f = CremonaMap([poly3("2*x1*x2"), poly3("2*x0*x2"), poly3("2*x0*x1")])
    assert f == mp(SIGMA)


def test_construction_rejects():
    with pytest.raises(NotHomogeneousError):
        CremonaMap([poly3("x0 + x1^2"), poly3("x1"), poly3("x2")])
    with pytest.raises(DegreeMismatchError):
        CremonaMap([poly3("x0^2"), poly3("x1"), poly3("x2")])
    with pytest.raises(ZeroMapError):
        zero = Polynomial.zero(QQ, 3)
        CremonaMap([zero, zero, zero])
    with pytest.raises(ZeroMapError):
        CremonaMap([Polynomial.one(QQ, 3)] * 3)


def test_apply():
    s = mp(SIGMA)
    assert s.apply(parse_point("[1:2:3]", QQ)) == parse_point("[6:3:2]", QQ)
    assert s.is_indeterminate_at(parse_point("[1:0:0]", QQ))
    with pytest.raises(IndeterminateAtPointError):
        s.apply(parse_point("[1:0:0]", QQ))


def test_fixed_point():
    s = mp(SIGMA)
    assert s.is_fixed_point(parse_point("[1:1:1]", QQ))
    assert not s.is_fixed_point(parse_point("[1:2:3]", QQ))


def test_compose_order():
    # compose(f, g) applies g first
    f = mp("P^2: [x0 : x1 : x1 + x2]")
    g = mp("P^2: [x0 : x0 + x1 : x2]")
    fg = f.compose(g)
    p = parse_point("[1:1:1]", QQ)
    assert fg.apply(p) == f.apply(g.apply(p))


def test_compose_degree_drops():
    s = mp(SIGMA)
    assert s.compose(s).degree == 1


def test_compose_associative():
    s = mp(SIGMA)
    g = mp("P^2: [x2 : x0 : x1]")
    h = mp("P^2: [x0 : x1 : x0 + x2]")
    assert s.compose(g).compose(h) == s.compose(g.compose(h))


def test_identity_composition():
    s = mp(SIGMA)
    ident = CremonaMap.identity(QQ, 2)
    assert s.compose(ident) == s
    assert ident.compose(s) == s


def test_from_proj_linear():
    m = ProjLinear(QQ, parse_matrix("[[1,1,0],[0,1,0],[0,0,2]]", QQ))
    f = CremonaMap.from_proj_linear(m)
    assert f.degree == 1
    p = parse_point("[1:2:3]", QQ)
    assert f.apply(p) == m.apply(p)


def _first_row_zeros(rng, field, d, k):
    # an invertible matrix whose first row starts with k zeros
    while True:
        rows = suites.rand_invertible(rng, field, d + 1)
        rows[0][:k] = [field.zero()] * k
        if matrices.det(rows):
            return ProjLinear(field, rows)


@pytest.mark.parametrize("field", [QQ, QI, GF(101), GF(2)], ids=str)
def test_from_proj_linear_matches_the_validating_constructor(field, monkeypatch):
    rank_calls = []
    true_rank = matrices.rank

    def counted(a):
        rank_calls.append(len(a))
        return true_rank(a)

    monkeypatch.setattr(cremona_module.matrices, "rank", counted)
    rng = random.Random(3)
    for d in (1, 2, 3):
        ms = [suites.rand_proj_linear(rng, field, d) for _ in range(4)]
        ms += [_first_row_zeros(rng, field, d, k) for k in range(1, d + 1)]
        for m in ms:
            f = CremonaMap.from_proj_linear(m)
            assert f._is_automorphism()
            assert rank_calls == []
            assert CremonaMap(list(f.components)) == f
            rank_calls.clear()


@pytest.mark.parametrize("field", [QQ, QI, GF(101), GF(2)], ids=str)
def test_conjugate_is_the_three_factor_composition(field):
    rng = random.Random(5)
    for d in (2, 3):
        for f in (standard_involution(field, d), suites._rand_small_cremona(rng, field, d)):
            m = suites.rand_proj_linear(rng, field, d)
            by_hand = (
                CremonaMap.from_proj_linear(m)
                .compose(f)
                .compose(CremonaMap.from_proj_linear(m.inverse()))
            )
            assert f.conjugate(m) == by_hand


def test_chart_of_involution():
    s = mp(SIGMA)
    chart = s.to_chart()
    x, y = parse_poly("x0", QQ, 2), parse_poly("x1", QQ, 2)
    one = Polynomial.one(QQ, 2)
    assert chart.fractions() == [RationalFunction(one, x), RationalFunction(one, y)]


def test_chart_round_trip():
    for text in (SIGMA, "P^2: [x0^2 : x0*x2 : x0*x1 + x2^2]", "P^2: [x0 : x2 : x1]"):
        f = mp(text)
        assert from_chart(f.to_chart()) == f


def test_chart_degenerate():
    f = CremonaMap([Polynomial.zero(QQ, 3), poly3("x0^2"), poly3("x1^2")])
    with pytest.raises(ChartDegenerateError):
        f.to_chart()


def test_chart_from_polys():
    fs = [RationalFunction(parse_poly("x1", QQ, 2)),
          RationalFunction(parse_poly("x0^2 + x1", QQ, 2))]
    dec = chart_from_polys([f.num for f in fs])
    assert dec.fractions() == fs


def test_chart_reads_make_no_gcd(monkeypatch):
    f = mp("P^2: [x0^2 + x1*x2 : x0*x1 : x0*x2 + x2^2]")
    chart = f.to_chart()
    calls = []
    gcd = poly_module.poly_gcd

    def counted_gcd(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(poly_module, "poly_gcd", counted_gcd)
    fractions = chart.fractions()
    for i in range(f.dim):
        assert chart.numerator(i) == fractions[i].num
        assert chart.denominator(i) == fractions[i].den
    assert not fractions[0].den.is_constant
    assert calls == []


def test_local_isomorphism():
    s = mp(SIGMA)
    assert s.is_local_isomorphism(parse_point("[1:1:1]", QQ))
    assert not s.is_local_isomorphism(parse_point("[1:0:0]", QQ))
    w = mp("P^2: [x0^2 : x0*x1 : x1*x2]")
    assert not w.is_local_isomorphism(parse_point("[1:0:0]", QQ))
    lin = mp("P^2: [x0 : x1 + x2 : x2]")
    assert lin.is_local_isomorphism(parse_point("[1:0:0]", QQ))
    # the characteristic divides the degree, so det J(p) = 0 at every point
    f2, f3 = GF(2), GF(3)
    assert mp(SIGMA, f2).is_local_isomorphism(parse_point("[1:1:1]", f2))
    s3 = standard_involution(f3, 3)
    assert s3.is_local_isomorphism(parse_point("[1:1:1:1]", f3))
    w2 = mp("P^2: [x0^2 : x0*x1 : x1*x2]", f2)
    assert not w2.is_local_isomorphism(parse_point("[1:0:0]", f2))


def _chart_route_is_local_isomorphism(f, point):
    # an independent reference: move the point and its image to [1:0:...:0]
    # and take the determinant of the chart Jacobian at the origin
    if f.is_indeterminate_at(point):
        return False
    a = move_point_to_origin(point)
    b = move_point_to_origin(f.apply(point))
    conj = CremonaMap.from_proj_linear(b).compose(f).compose(
        CremonaMap.from_proj_linear(a.inverse())
    )
    fractions = conj.to_chart().fractions()
    origin = [f.field.zero()] * f.dim
    if not all(g.is_defined_at(origin) for g in fractions):
        return False
    return bool(matrices.det(jacobian(fractions, origin)))


@pytest.mark.parametrize("field", [QQ, GF(101), GF(2), GF(3)], ids=str)
def test_local_isomorphism_agrees_with_chart_route(field):
    rng = random.Random(5)
    draws = [
        suites.corpus_positive_map,
        suites.corpus_base_point_map,
        suites.corpus_pole_map,
        lambda *args: suites.corpus_translation_map(*args)[0],
        suites.corpus_singular_map,
    ]
    verdicts = []
    for i in range(10):
        d = 2 + i % 2
        f = draws[i % len(draws)](rng, field, d, 4)
        for point in [
            origin_point(field, d),
            suites.rand_proj_point(rng, field, d),
            suites.rand_proj_point(rng, field, d),
        ]:
            verdict = f.is_local_isomorphism(point)
            assert verdict == _chart_route_is_local_isomorphism(f, point), (f, point)
            verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_local_isomorphism_makes_no_compose_or_gcd(monkeypatch):
    f = mp("P^2: [x0^2 + x1*x2 : x0*x1 : x0*x2 + x2^2]")
    calls = []
    gcd, compose = poly_module.poly_gcd, CremonaMap.compose

    def counted_gcd(a, b):
        calls.append("gcd")
        return gcd(a, b)

    def counted_compose(self, other):
        calls.append("compose")
        return compose(self, other)

    monkeypatch.setattr(poly_module, "poly_gcd", counted_gcd)
    monkeypatch.setattr(CremonaMap, "compose", counted_compose)
    assert f.is_local_isomorphism(parse_point("[1:0:0]", QQ))
    assert f.is_local_isomorphism(parse_point("[1:2:3]", QQ))
    assert calls == []


def test_local_isomorphism_takes_no_derivative(monkeypatch):
    def refuse(self, v):
        raise AssertionError("derivative called")

    monkeypatch.setattr(Polynomial, "derivative", refuse)
    f = mp("P^2: [x0^2 + x1*x2 : x0*x1 : x0*x2 + x2^2]")
    assert f.is_local_isomorphism(parse_point("[1:0:0]", QQ))
    assert f.is_local_isomorphism(parse_point("[1:2:3]", QQ))
    assert not mp(SIGMA).is_local_isomorphism(parse_point("[0:1:0]", QQ))


def test_reduction_divides_each_component_once(monkeypatch):
    # the quotients that verified the common factor are the reduced map
    calls = []
    real = poly_module.exact_div

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(poly_module, "exact_div", counted)
    monkeypatch.setattr(cremona_module, "exact_div", counted)
    g = poly3("x0 + 2*x1 - x2")
    comps = [poly3(t) * g for t in ("x1*x2", "x0*x2", "x0*x1")]
    assert CremonaMap(comps) == mp(SIGMA)
    assert [sum(a == c and b == g for a, b in calls) for c in comps] == [1, 1, 1]


def test_max_degree():
    assert max_degree([mp(SIGMA), CremonaMap.identity(QQ, 2)]) == 2
    with pytest.raises(EmptyFamilyError):
        max_degree([])


def test_parse_round_trip():
    for text in (SIGMA, "P^2: [x0^2 : x0*x1 : x2^2]", "P^3: [x1*x2*x3 : x0*x2*x3 : x0*x1*x3 : x0*x1*x2]"):
        f = mp(text)
        assert mp(map_str(f)) == f


def test_finite_field_involution():
    F5 = GF(5)
    s = standard_involution(F5)
    assert s.compose(s) == CremonaMap.identity(F5, 2)


@pytest.mark.parametrize("field, text, printed", [
    # shared and disjoint monomials
    (QQ, "P^2: [x0^2 + x1*x2 : x0*x1 - 3/2*x0*x2 : -x2^2 + x1^2]",
     "P^2: [x0^2 + x1*x2 : x0*x1 - 3/2*x0*x2 : x1^2 - x2^2]"),
    # zero components and components that open with a minus sign
    (QQ, "P^3: [0 : x0*x1 - 1/2*x2^2 : -x0^2 : x3^2 - x0*x3]",
     "P^3: [0 : x0*x1 - 1/2*x2^2 : -x0^2 : -x0*x3 + x3^2]"),
    (GF(101), "P^2: [-x0^3 + 5*x1^3 : 0 : x0*x1*x2]", "P^2: [x0^3 + 96*x1^3 : 0 : 100*x0*x1*x2]"),
    (GF(2), "P^2: [x0^2 + x1*x2 : x0*x1 + x2^2 : x1^2]", "P^2: [x0^2 + x1*x2 : x0*x1 + x2^2 : x1^2]"),
    # Gaussian coefficients with a real and an imaginary part, or one of them
    (QI, "P^2: [(1+i)*x0^2 - i*x1*x2 + 3*x1^2 : (2-3*i)*x0*x1 + x2^2 - 1/2*x0^2"
         " : -i*x0^2 + (1/2+i)*x1^2 + (-1-i)*x2^2]",
     "P^2: [x0^2 + (3/2-3/2i)*x1^2 + (-1/2-1/2i)*x1*x2 : (-1/4+1/4i)*x0^2 + (-1/2-5/2i)*x0*x1"
     " + (1/2-1/2i)*x2^2 : (-1/2-1/2i)*x0^2 + (3/4+1/4i)*x1^2 - x2^2]"),
    (QI, "P^2: [-x0 : i*x1 : (-2/3)*i*x2 + x0]", "P^2: [x0 : -i*x1 : -x0 + 2/3i*x2]"),
], ids=["shared", "zero", "F101", "F2", "Qi-mixed", "Qi-parts"])
def test_map_str_joins_the_printed_components(field, text, printed):
    f = parse_map(text, field)
    assert map_str(f) == printed
    assert map_str(f) == f"P^{f.dim}: [" + " : ".join(poly_str(c) for c in f.components) + "]"
    assert parse_map(printed, field) == f


def test_map_str_of_seeded_maps_joins_the_printed_components():
    rng = random.Random("map-str")
    for field in (QQ, QI, GF(101), GF(3)):
        for d in (2, 3):
            for make in (suites.corpus_positive_map, suites.corpus_base_point_map, suites.corpus_pole_map):
                f = make(rng, field, d, 4)
                assert map_str(f) == f"P^{d}: [" + " : ".join(poly_str(c) for c in f.components) + "]"
