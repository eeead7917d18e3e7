"""Tests for projective points, linear maps, and the SL_n toolbox."""

import random
from fractions import Fraction

import pytest

from birat import matrices
from birat.errors import (
    BadEigenvalueError,
    BadModulusError,
    DegeneratePairError,
    FieldMismatchError,
    NotUnimodularError,
    ParseError,
    PreconditionError,
    SingularMatrixError,
)
from birat.linear import (
    DieudonneAutomorphism,
    ProjLinear,
    ProjPoint,
    Transvection,
    enumerate_points,
    gauss_decompose,
    in_congruence_subgroup,
    matrix_str,
    move_point_to_origin,
    origin_point,
    parse_matrix,
    parse_point,
    point_str,
    transvection_bound,
    transvection_product,
    two_fixed_point_automorphism,
)
from birat.scalars import GF, QI, QQ, conjugation, frobenius, identity_automorphism
from birat.suites import rand_invertible

F5 = GF(5)


def pt(text, field=QQ):
    return parse_point(text, field)


def mat(text, field=QQ):
    return ProjLinear(field, parse_matrix(text, field))


def test_point_canonical_form():
    assert pt("[2:4]") == pt("[1:2]")
    assert hash(pt("[2:4]")) == hash(pt("[1:2]"))
    assert point_str(pt("[0:3:6]")) == "[0:1:2]"
    with pytest.raises(PreconditionError):
        pt("[0:0]")


@pytest.mark.parametrize("bad", [Fraction(1, 2), "1", 1.5, GF(101).one()], ids=repr)
def test_point_rejects_a_coordinate_outside_the_field(bad):
    with pytest.raises(FieldMismatchError):
        ProjPoint(QQ, [bad, 1])


def test_enumerate_points():
    assert len(list(enumerate_points(GF(2), 1))) == 3
    pts = list(enumerate_points(F5, 2))
    assert len(pts) == 31
    assert len(set(pts)) == 31


def test_proj_linear_scaling_invariance():
    assert mat("[[2,0],[0,2]]") == ProjLinear.identity(QQ, 1)
    assert mat("[[1,2],[3,4]]") == mat("[[2,4],[6,8]]")


def test_apply_and_inverse():
    g = mat("[[1,1],[0,1]]")
    p = pt("[1:1]")
    assert g.apply(p) == pt("[2:1]")
    assert g.inverse().apply(g.apply(p)) == p
    assert g * g.inverse() == ProjLinear.identity(QQ, 1)


def test_pow():
    g = mat("[[1,1],[0,1]]")
    assert g ** 3 == mat("[[1,3],[0,1]]")
    assert g ** -1 == g.inverse()
    assert g ** 0 == ProjLinear.identity(QQ, 1)


def test_transpose_inverse():
    g = ProjLinear(F5, parse_matrix("[[1,2],[0,1]]", F5))
    assert g.transpose_inverse() == ProjLinear(F5, parse_matrix("[[1,0],[3,1]]", F5))
    h = mat("[[1,2],[0,1]]")
    assert h.transpose_inverse() == mat("[[1,0],[-2,1]]")


def test_twist():
    i = QI.from_pair(0, 1)
    g = ProjLinear(QI, [[QI.one(), i], [QI.zero(), QI.one()]])
    conj = g.twist(conjugation(QI))
    assert conj == ProjLinear(QI, [[QI.one(), -i], [QI.zero(), QI.one()]])
    assert g.twist(identity_automorphism(QI)) == g


def test_fixed_points():
    g = ProjLinear(F5, parse_matrix("[[0,1],[1,0]]", F5))
    assert set(g.fixed_points()) == {pt("[1:1]", F5), pt("[1:4]", F5)}


def test_transvection_basics():
    t = Transvection(0, 1, QQ.from_int(2))
    assert str(t) == "E[0][1](2)"
    assert matrices.mat_eq(t.as_matrix(2), parse_matrix("[[1,2],[0,1]]", QQ))
    prod = transvection_product([t, t.inverse()], QQ, 2)
    assert matrices.mat_eq(prod, matrices.identity(QQ, 2))


def test_gauss_decompose_worked_example():
    m = parse_matrix("[[2,1],[1,1]]", QQ)
    ts = gauss_decompose(m)
    assert [str(t) for t in ts] == ["E[0][1](1)", "E[1][0](1)"]
    assert matrices.mat_eq(transvection_product(ts, QQ, 2), m)


def test_gauss_decompose_reconstructs():
    rng = random.Random(3)
    for field in (QQ, F5):
        for n in (2, 3):
            for _ in range(20):
                ts = [
                    Transvection(*rng.sample(range(n), 2), field.from_int(rng.randint(-3, 3)))
                    for _ in range(5)
                ]
                ts = [t for t in ts if t.c]
                m = transvection_product(ts, field, n)
                out = gauss_decompose(m)
                assert len(out) <= transvection_bound(n - 1)
                assert matrices.mat_eq(transvection_product(out, field, n), m)


def test_gauss_decompose_identity():
    assert gauss_decompose(matrices.identity(QQ, 3)) == []


def test_gauss_decompose_rejects():
    with pytest.raises(NotUnimodularError):
        gauss_decompose(parse_matrix("[[2,0],[0,1]]", QQ))


def test_congruence_membership():
    assert in_congruence_subgroup([[4, 3], [9, 7]], 3)
    assert not in_congruence_subgroup([[1, 1], [0, 1]], 3)
    assert in_congruence_subgroup([[1, 3], [0, 1]], 3)
    assert in_congruence_subgroup([[1, 0], [0, 1]], 7)


def test_congruence_rejects():
    with pytest.raises(BadModulusError):
        in_congruence_subgroup([[1, 0], [0, 1]], 2)
    with pytest.raises(BadModulusError):
        in_congruence_subgroup([[1, 0], [0, 1]], 9)
    with pytest.raises(NotUnimodularError):
        in_congruence_subgroup([[2, 0], [0, 1]], 3)
    with pytest.raises(NotUnimodularError):
        in_congruence_subgroup([[1, 0], [0, QQ.one()]], 3)
    with pytest.raises(NotUnimodularError):  # bool is an int subclass
        in_congruence_subgroup([[True, 0], [0, 1]], 3)


def test_move_point_to_origin():
    for text in ("[1:2:3]", "[0:1:4]", "[0:0:1]", "[3:1:0]"):
        p = pt(text)
        m = move_point_to_origin(p)
        assert m.apply(p) == origin_point(QQ, 2)


def test_two_fixed_point_worked_example():
    p = pt("[1:0:0]")
    q = pt("[0:0:1]")
    alpha = two_fixed_point_automorphism(p, q, 2)
    assert alpha == mat("[[1,1,0],[0,1,0],[0,0,2]]")
    assert alpha.apply(p) == p
    assert alpha.apply(q) == q


def test_two_fixed_point_exact_fixed_set():
    rng = random.Random(11)
    pts = list(enumerate_points(F5, 2))
    for _ in range(10):
        p, q = rng.sample(pts, 2)
        lam = F5.from_int(rng.randint(2, 4))
        alpha = two_fixed_point_automorphism(p, q, lam)
        fixed = [x for x in pts if alpha.apply(x) == x]
        assert set(fixed) == {p, q}


def test_two_fixed_point_rejects():
    p, q = pt("[1:0]"), pt("[0:1]")
    with pytest.raises(DegeneratePairError):
        two_fixed_point_automorphism(p, p, 2)
    with pytest.raises(BadEigenvalueError):
        two_fixed_point_automorphism(p, q, 1)
    with pytest.raises(BadEigenvalueError):
        two_fixed_point_automorphism(p, q, 0)


def test_dieudonne_standard_forms():
    h = ProjLinear.identity(QQ, 1)
    phi = DieudonneAutomorphism(h, identity_automorphism(QQ), dual=True)
    g = mat("[[1,2],[0,1]]")
    assert phi(g) == mat("[[1,0],[-2,1]]")
    inner = DieudonneAutomorphism(mat("[[1,1],[0,1]]"), identity_automorphism(QQ))
    assert inner(g) == mat("[[1,1],[0,1]]") * g * mat("[[1,1],[0,1]]").inverse()


def test_dieudonne_homomorphism():
    i = QI.from_pair(0, 1)
    h = ProjLinear(QI, [[QI.one(), i], [QI.zero(), QI.one()]])
    phi = DieudonneAutomorphism(h, conjugation(QI), dual=True)
    a = ProjLinear(QI, [[QI.one(), i], [i, QI.zero()]])
    b = ProjLinear(QI, [[QI.from_int(2), QI.one()], [QI.one(), QI.one()]])
    assert phi(a * b) == phi(a) * phi(b)


def test_dieudonne_frobenius():
    h = ProjLinear.identity(F5, 1)
    phi = DieudonneAutomorphism(h, frobenius(F5))
    g = ProjLinear(F5, parse_matrix("[[1,2],[3,4]]", F5))
    assert phi(g) == g


def test_matrix_round_trip():
    rows = parse_matrix("[[1,1/2],[0,-1]]", QQ)
    assert parse_matrix(matrix_str(rows), QQ) == rows
    with pytest.raises(ParseError):
        parse_matrix("[[1,2],3]", QQ)


def test_point_round_trip():
    p = pt("[1:-2/3:0]")
    assert pt(point_str(p)) == p


def test_products_and_inverses_skip_the_determinant(monkeypatch):
    rng = random.Random(9)
    g = ProjLinear(QI, rand_invertible(rng, QI, 3))
    h = ProjLinear(QI, rand_invertible(rng, QI, 3))
    checked = {
        "product": matrices.mat_mul(g.rows(), h.rows()),
        "inverse": matrices.inv(g.rows()),
        "transpose_inverse": matrices.transpose(matrices.inv(g.rows())),
        "twist": matrices.map_entries(g.rows(), conjugation(QI)),
    }
    checked = {k: ProjLinear(QI, m) for k, m in checked.items()}
    dets = []
    real = matrices.det
    monkeypatch.setattr(matrices, "det", lambda m: dets.append(m) or real(m))
    trusted = {
        "product": g * h,
        "inverse": g.inverse(),
        "transpose_inverse": g.transpose_inverse(),
        "twist": g.twist(conjugation(QI)),
    }
    assert trusted == checked
    assert dets == []
    with pytest.raises(SingularMatrixError):
        ProjLinear(QQ, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert len(dets) == 1
