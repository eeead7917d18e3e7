"""Tests for polynomial automorphisms of affine space."""

import random
from fractions import Fraction

import pytest

import birat.affine
from birat import matrices
from birat.affine import (
    PolyAuto,
    affine_auto,
    affine_lemma_suite,
    auto_str,
    centralizes,
    elementary_auto,
    embed_lower_linear,
    identity_auto,
    is_diagonal_linear,
    is_monomial_auto,
    linear_auto,
    normalizes_torus,
    parse_auto,
    permutation_auto,
    to_cremona,
    torus_auto,
    translation_auto,
)
from birat.cremona import parse_map
from birat.errors import (
    DimMismatchError,
    FieldMismatchError,
    InverseCheckError,
    PreconditionError,
    SingularLinearPartError,
)
from birat.poly import Polynomial, parse_poly, substitute_all
from birat.scalars import GF, QI, QQ
from birat.suites import rand_invertible, rand_scalar


def chart_poly(text, d=2):
    return parse_poly(text, QQ, d, offset=1)


HENON_AUTO = PolyAuto(
    [chart_poly("x2"), chart_poly("x1 + x2^2")],
    [chart_poly("x2 - x1^2"), chart_poly("x1")],
)


def test_inverse_verified_on_construction():
    x1, x2 = chart_poly("x1"), chart_poly("x2")
    with pytest.raises(InverseCheckError):
        PolyAuto([x1 + x2, x2], [x1 + x2, x2])


def test_apply_and_invert():
    vals = [QQ.from_int(3), QQ.from_int(2)]
    image = HENON_AUTO.apply(vals)
    assert [str(v) for v in image] == ["2", "7"]
    assert HENON_AUTO.inverted().apply(image) == vals


def test_degree():
    assert HENON_AUTO.degree == 2
    assert identity_auto(QQ, 3).degree == 1


def test_compose_order():
    t = translation_auto(QQ, [1, 0])
    vals = [QQ.zero(), QQ.from_int(2)]
    # compose applies the right factor first
    assert HENON_AUTO.compose(t).apply(vals) == HENON_AUTO.apply(t.apply(vals))


def test_compose_inverse():
    c = HENON_AUTO.compose(HENON_AUTO.inverted())
    assert c == identity_auto(QQ, 2)


WRONG_INVERSES = [
    # f o g = 2*x_v (the zero component over F_2)
    (["2*x1", "x2"], ["x1", "x2"], "forward o inverse != id in component 1"),
    (["x1", "x2"], ["x1", "2*x2"], "forward o inverse != id in component 2"),
    # f o g = x_v + 1
    (["x1", "x2 + 1"], ["x1", "x2"], "forward o inverse != id in component 2"),
    (["x1", "x2"], ["x1 + 1", "x2"], "forward o inverse != id in component 1"),
    # a zero component
    (["x1", "0"], ["x1", "x2"], "forward o inverse != id in component 2"),
    # forward o inverse fails at component 2, inverse o forward already at 1
    (["x2", "x1"], ["x2 + 1", "x1"], "inverse o forward != id in component 1"),
    (["x2", "x1 + x2^2"], ["x2 - 2*x1^2", "x1"], "inverse o forward != id in component 1"),
]


@pytest.mark.parametrize("field", [QQ, QI, GF(101), GF(2)], ids=str)
@pytest.mark.parametrize("forward, inverse, message", WRONG_INVERSES)
def test_wrong_inverses_are_named_by_the_first_failing_check(field, forward, inverse, message):
    # component by component, forward o inverse before inverse o forward
    def parse(texts):
        return [parse_poly(t, field, 2, offset=1) for t in texts]

    with pytest.raises(InverseCheckError) as err:
        PolyAuto(parse(forward), parse(inverse))
    assert str(err.value) == message


def test_compose_builds_the_inverse_when_read(monkeypatch):
    # one substitution pass per map: the forward components at once, and
    # the inverse's when first read
    calls = []

    def counted(fs, polys):
        calls.append(len(fs))
        return substitute_all(fs, polys)

    monkeypatch.setattr(birat.affine, "substitute_all", counted)
    g = HENON_AUTO.compose(HENON_AUTO)
    assert calls == [2]
    inverse = g.inverse
    assert calls == [2, 2] and g.inverse is inverse
    assert g.inverted().compose(g) == identity_auto(QQ, 2)


def test_linear_auto_rejects_singular():
    with pytest.raises(SingularLinearPartError):
        linear_auto(QQ, [[1, 1], [1, 1]])
    with pytest.raises(SingularLinearPartError):
        torus_auto(QQ, [1, 0])


def test_affine_auto():
    g = affine_auto(QQ, [[2, 0], [0, 1]], [5, -1])
    vals = [QQ.one(), QQ.one()]
    assert [str(v) for v in g.apply(vals)] == ["7", "0"]
    assert g.compose(g.inverted()) == identity_auto(QQ, 2)


def _matrix_built(field, rng):
    # one output of every constructor that takes a matrix, on random input
    d = rng.randint(1, 3)
    shift = [rand_scalar(rng, field, height=3) for _ in range(d)]
    perm = list(range(d))
    rng.shuffle(perm)
    yield affine_auto(field, rand_invertible(rng, field, d), shift)
    yield linear_auto(field, rand_invertible(rng, field, d))
    yield translation_auto(field, shift)
    yield torus_auto(field, [rand_scalar(rng, field, nonzero=True) for _ in range(d)])
    yield permutation_auto(field, perm)
    yield identity_auto(field, d)
    yield embed_lower_linear(field, rand_invertible(rng, field, d), d + 1)


@pytest.mark.parametrize("field", [QQ, QI, GF(101), GF(2)], ids=str)
def test_matrix_built_automorphisms_pass_the_symbolic_check(field):
    # checked on their matrices, they must also pass the constructor's
    # symbolic check, an independent route; so must their inverses and the
    # composites made by matrix products, which must also be the maps that
    # substitution makes
    rng = random.Random(7)
    for _ in range(6):
        built = list(_matrix_built(field, rng))
        for a in built:
            assert PolyAuto(a.forward, a.inverse) == a
            b = a.inverted()
            assert PolyAuto(b.forward, b.inverse) == b
        for a, b in zip(built, built[1:]):
            if a.dim != b.dim:
                continue
            for c in (a.compose(b), b.inverted().compose(a), a.compose(b).inverted()):
                assert c._affine is not None
                assert PolyAuto(c.forward, c.inverse) == c
            assert a.compose(b).forward == tuple(substitute_all(a.forward, b.forward))
            assert a.compose(b).inverse == tuple(substitute_all(b.inverse, a.inverse))


def test_a_wrong_matrix_inverse_fails_the_matrix_check(monkeypatch):
    true_inv = matrices.inv

    def wrong_inv(a):
        b = true_inv(a)
        b[0][0] = b[0][0] + QQ.one()
        return b

    monkeypatch.setattr(birat.affine.matrices, "inv", wrong_inv)
    with pytest.raises(InverseCheckError):
        affine_auto(QQ, [[2, 1], [1, 1]], [3, 0])
    with pytest.raises(InverseCheckError):
        translation_auto(QQ, [1, 2])


def test_a_wrong_inverse_shift_fails_the_matrix_check(monkeypatch):
    # the inverse shift comes from mat_vec; the check is one product by
    # mat_mul, so it does not repeat the error
    true_mat_vec = matrices.mat_vec

    def wrong_mat_vec(a, v):
        w = true_mat_vec(a, v)
        w[-1] = w[-1] + QQ.one()
        return w

    monkeypatch.setattr(birat.affine.matrices, "mat_vec", wrong_mat_vec)
    with pytest.raises(InverseCheckError):
        affine_auto(QQ, [[2, 1], [1, 1]], [3, 0])
    with pytest.raises(InverseCheckError):
        translation_auto(QQ, [1, 2])
    with pytest.raises(InverseCheckError):
        linear_auto(QQ, [[1, 0], [0, 1]])


def test_matrix_built_maps_compose_without_substituting(monkeypatch):
    calls = []
    real = birat.poly._substitute_raw

    def counted(fs, polys):
        calls.append(len(fs))
        return real(fs, polys)

    monkeypatch.setattr(birat.poly, "_substitute_raw", counted)
    f = affine_auto(QQ, [[2, 1], [1, 1]], [3, -1])
    g = torus_auto(QQ, [3, 5]).compose(translation_auto(QQ, [1, 2]))
    h = f.compose(g).compose(f.inverted())
    assert len(h.inverse) == 2 and calls == []
    point = [QQ.one(), QQ.zero()]
    assert h.apply(point) == f.apply(g.apply(f.inverted().apply(point)))
    # a shear is no matrix: its composite substitutes
    shear = elementary_auto(QQ, 2, 1, chart_poly("x2^2"))
    calls.clear()
    f.compose(shear)
    assert calls == [2]


def test_an_affine_left_factor_composes_without_products(monkeypatch):
    from birat import _kernels

    products = []
    real = _kernels.mul_terms

    def counted(a, b):
        products.append(1)
        return real(a, b)

    rng = random.Random(11)
    for field in (QQ, QI, GF(101), GF(2)):
        for d in (2, 3):
            a = affine_auto(field, rand_invertible(rng, field, d), [rand_scalar(rng, field) for _ in range(d)])
            e = elementary_auto(field, d, 1, parse_poly("x2^3 - x2*x" + str(d), field, d, offset=1))
            expected = substitute_all(a.forward, e.forward)
            monkeypatch.setattr(_kernels, "mul_terms", counted)
            got = a.compose(e)
            monkeypatch.setattr(_kernels, "mul_terms", real)
            assert products == []
            assert list(got.forward) == expected
            assert PolyAuto(got.forward, got.inverse) == got


@pytest.mark.parametrize("bad", [Fraction(1, 2), "1", 1.5, GF(101).one()], ids=repr)
def test_affine_auto_rejects_a_shift_entry_outside_the_field(bad):
    with pytest.raises(FieldMismatchError):
        affine_auto(QQ, [[1, 0], [0, 1]], [bad, 0])


@pytest.mark.parametrize("shift", [[1], [1, 2, 3], []], ids=len)
def test_affine_auto_rejects_a_shift_of_the_wrong_length(shift):
    with pytest.raises(DimMismatchError):
        affine_auto(QQ, [[1, 0], [0, 1]], shift)


def test_permutation_auto():
    g = permutation_auto(QQ, [1, 2, 0])
    vals = [QQ.from_int(k) for k in (4, 5, 6)]
    assert g.compose(g).compose(g) == identity_auto(QQ, 3)
    with pytest.raises(PreconditionError):
        permutation_auto(QQ, [0, 0, 1])


def test_elementary_auto():
    g = elementary_auto(QQ, 2, 1, chart_poly("x2^3"))
    assert g.inverted() == elementary_auto(QQ, 2, 1, -chart_poly("x2^3"))
    with pytest.raises(PreconditionError):
        elementary_auto(QQ, 2, 1, chart_poly("x1"))


def test_embed_lower_linear():
    g = embed_lower_linear(QQ, [[2, 1], [1, 1]], 3)
    vals = [QQ.from_int(9), QQ.one(), QQ.one()]
    assert [str(v) for v in g.apply(vals)] == ["9", "3", "2"]


def test_to_cremona():
    f = to_cremona(HENON_AUTO)
    assert f == parse_map("P^2: [x0^2 : x0*x2 : x0*x1 + x2^2]", QQ)
    assert to_cremona(identity_auto(QQ, 2)).degree == 1


def test_monomial_recognition():
    assert is_monomial_auto(permutation_auto(QQ, [1, 0]))
    assert is_monomial_auto(torus_auto(QQ, [2, 3]))
    assert is_diagonal_linear(torus_auto(QQ, [2, 3]))
    assert not is_diagonal_linear(permutation_auto(QQ, [1, 0]))
    assert not is_monomial_auto(HENON_AUTO)


def test_normalizes_torus():
    assert normalizes_torus(permutation_auto(QQ, [1, 0]).compose(torus_auto(QQ, [5, 7])))
    shear = elementary_auto(QQ, 2, 1, chart_poly("x2"))
    assert not normalizes_torus(shear)
    assert not normalizes_torus(translation_auto(QQ, [1, 0]))


def test_normalizes_torus_tries_every_torus_of_a_small_field():
    # over F_3 the only tori with distinct entries are diag(1, 2) and
    # diag(2, 1); the shear keeps diag(1, 2) diagonal since 2^2 = 1, and the
    # seed below draws only that one when sampling
    f3 = GF(3)
    shear = elementary_auto(f3, 2, 1, Polynomial.variable(f3, 2, 1) ** 2)
    assert not normalizes_torus(shear, trials=4, seed=15)
    with pytest.raises(PreconditionError):
        normalizes_torus(elementary_auto(GF(2), 2, 1, Polynomial.variable(GF(2), 2, 1)))


def test_centralizes():
    block = embed_lower_linear(QQ, [[2, 1], [1, 1]], 3)
    shift = translation_auto(QQ, [1, 0, 0])
    stretch = torus_auto(QQ, [2, 1, 1])
    assert centralizes(shift, [block])
    assert not centralizes(shift, [stretch])
    assert not centralizes(shift, [block, stretch])


def test_lemma_suite():
    report = affine_lemma_suite(QQ, 2)
    assert report.all_passed
    assert len(report.checks) == 40
    names = {name for name, _, _ in report.checks}
    assert names == {"conjugate_squares", "commutes_with_shear"}


def test_lemma_suite_char2():
    report = affine_lemma_suite(GF(2), 3)
    assert report.all_passed
    names = {name for name, _, _ in report.checks}
    assert names == {"square_is_identity", "commutes_with_shear"}


def test_lemma_suite_needs_dimension():
    with pytest.raises(PreconditionError):
        affine_lemma_suite(QQ, 1)


def test_parse_round_trip():
    text = "A^2: (x2; x1 + x2^2) inv (x2 - x1^2; x1)"
    g = parse_auto(text, QQ)
    assert g == HENON_AUTO
    assert parse_auto(auto_str(g), QQ) == g
    with pytest.raises(InverseCheckError):
        parse_auto("A^2: (x2; x1) inv (x1; x1)", QQ)
