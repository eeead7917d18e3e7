"""Tests for scaling conjugation families and their limits at t = 0."""

import pytest

from birat.cremona import CremonaMap, parse_map
from birat.deformation import (
    build_family,
    commutator_family,
    extendability,
    limit_vs_jacobian,
    scaling_map,
)
from birat.errors import (
    MissingInverseError,
    PreconditionError,
    ZeroParameterError,
)
from birat.linear import (
    ProjLinear,
    move_point_to_origin,
    parse_matrix,
    parse_point,
    two_fixed_point_automorphism,
)
from birat.scalars import GF, QQ

HENON = "P^2: [x0^2 : x0*x2 : x0*x1 + x2^2]"
SIGMA = "P^2: [x1*x2 : x0*x2 : x0*x1]"


def fam_of(text, field=QQ):
    return build_family(parse_map(text, field))


def test_scaling_map():
    s = scaling_map(QQ.from_int(3), 2)
    p = parse_point("[1:1:2]", QQ)
    assert s.apply(p) == parse_point("[1:3:6]", QQ)
    with pytest.raises(ZeroParameterError):
        scaling_map(QQ.zero(), 2)
    with pytest.raises(PreconditionError):
        scaling_map(3, 2)


def test_scaling_group_law():
    a, b = QQ.from_int(2), QQ.from_int(5)
    assert scaling_map(a, 2).compose(scaling_map(b, 2)) == scaling_map(a * b, 2)


def test_family_str():
    fam = fam_of(HENON)
    assert str(fam) == "t-family on A^2: (x2) / (1) ; (x1 + t*x2^2) / (1)"


def test_extendable_family():
    verdict = extendability(fam_of(HENON))
    assert verdict.extendable
    assert verdict.p_i0_nonzero == (False, False)
    assert verdict.q_i0_zero == (False, False)
    assert not verdict.jacobian_singular
    assert verdict.limit == ProjLinear(QQ, parse_matrix("[[1,0,0],[0,0,1],[0,1,0]]", QQ))


def test_involution_family_not_extendable():
    verdict = extendability(fam_of(SIGMA))
    assert not verdict.extendable
    assert verdict.p_i0_nonzero == (True, True)
    assert verdict.q_i0_zero == (True, True)
    assert verdict.limit is None


def test_verdict_dict():
    doc = extendability(fam_of(HENON)).to_dict()
    assert doc == {
        "extendable": True,
        "reasons": {
            "p_i0_nonzero": [False, False],
            "q_i0_zero": [False, False],
            "jacobian_singular": False,
        },
        "limit": "[[1,0,0],[0,0,1],[0,1,0]]",
    }


def test_specialize_is_conjugation():
    f = parse_map(HENON, QQ)
    fam = build_family(f)
    for n in (1, 2, -3):
        t = QQ.from_int(n)
        conj = scaling_map(t.inverse(), 2).compose(f).compose(scaling_map(t, 2))
        assert fam.specialize(t) == conj.to_chart().fractions()


def test_specialize_at_one_is_chart():
    f = parse_map(HENON, QQ)
    assert build_family(f).specialize(QQ.one()) == f.to_chart().fractions()


def test_specialize_rejects():
    fam = fam_of(HENON)
    with pytest.raises(ZeroParameterError):
        fam.specialize(QQ.zero())
    with pytest.raises(PreconditionError):
        fam.specialize(GF(5).one())


def test_singular_derivative_detected():
    verdict = extendability(fam_of("P^2: [x0^2 : x0*x1 : x1*x2]"))
    assert not verdict.extendable
    assert verdict.jacobian_singular
    assert verdict.p_i0_nonzero == (False, False)
    assert verdict.q_i0_zero == (False, False)


def test_translation_flags():
    # chart components (x1 + 1, x2): the constant shows up at t-exponent -1
    f = parse_map("P^2: [x0 : x1 + x0 : x2]", QQ)
    verdict = extendability(build_family(f))
    assert not verdict.extendable
    assert verdict.p_i0_nonzero == (True, False)
    assert verdict.q_i0_zero == (False, False)


def test_limit_vs_jacobian():
    assert limit_vs_jacobian(parse_map(HENON, QQ))
    assert limit_vs_jacobian(parse_map("P^2: [x0 : x2 : x1 + x2]", QQ))


def test_limit_vs_jacobian_preconditions():
    with pytest.raises(PreconditionError):
        limit_vs_jacobian(parse_map("P^2: [x0 : x1 + x0 : x2]", QQ))
    with pytest.raises(PreconditionError):
        limit_vs_jacobian(parse_map("P^2: [x0^2 : x0*x1 : x1*x2]", QQ))


def test_commutator_family_linear():
    f = parse_map("P^2: [x0 : x2 : x1]", QQ)
    p = parse_point("[1:2:0]", QQ)
    q = f.apply(p)
    alpha = two_fixed_point_automorphism(p, q, 2)
    verdict = extendability(commutator_family(f, alpha, p))
    assert verdict.extendable


def test_commutator_family_needs_inverse():
    s = parse_map(SIGMA, QQ)
    p = parse_point("[1:1:1]", QQ)
    alpha = two_fixed_point_automorphism(p, parse_point("[0:1:2]", QQ), 2)
    with pytest.raises(MissingInverseError):
        commutator_family(s, alpha, p)


def test_commutator_family_with_inverse():
    s = parse_map(SIGMA, QQ)
    p = parse_point("[1:1:1]", QQ)
    # sigma fixes p, so alpha only needs to fix p and one other point
    alpha = two_fixed_point_automorphism(p, parse_point("[0:1:2]", QQ), 2)
    verdict = extendability(commutator_family(s, alpha, p, f_inverse=s))
    assert verdict.extendable
    assert verdict.limit is not None


def test_commutator_family_rejects_bad_inverse():
    s = parse_map(SIGMA, QQ)
    other = parse_map("P^2: [x0 : x2 : x1]", QQ)
    p = parse_point("[1:1:1]", QQ)
    alpha = two_fixed_point_automorphism(p, parse_point("[0:1:2]", QQ), 2)
    with pytest.raises(PreconditionError):
        commutator_family(s, alpha, p, f_inverse=other)


def test_moved_point_family():
    # conjugate so [1:1:1] becomes the origin, then deform there
    s = parse_map(SIGMA, QQ)
    m = move_point_to_origin(parse_point("[1:1:1]", QQ))
    conj = (
        CremonaMap.from_proj_linear(m)
        .compose(s)
        .compose(CremonaMap.from_proj_linear(m.inverse()))
    )
    verdict = extendability(build_family(conj))
    assert verdict.extendable
    assert verdict.limit == ProjLinear(QQ, parse_matrix("[[1,0,0],[0,-1,0],[0,0,-1]]", QQ))


def test_affine_linear_runs_no_determinant(monkeypatch):
    # extendability has just seen the determinant nonzero, and in
    # limit_vs_jacobian the local-isomorphism check implies it
    from birat import deformation, matrices

    inside, dets = [], []
    real_affine, real_det = deformation._affine_linear, matrices.det

    def affine(field, m):
        inside.append(True)
        try:
            return real_affine(field, m)
        finally:
            inside.pop()

    def det(a):
        dets.append(bool(inside))
        return real_det(a)

    monkeypatch.setattr(deformation, "_affine_linear", affine)
    monkeypatch.setattr(matrices, "det", det)
    f = parse_map(HENON, QQ)
    verdict = extendability(build_family(f))
    assert verdict.extendable and limit_vs_jacobian(f)
    assert str(verdict.limit) == str(ProjLinear(QQ, parse_matrix("[[1,0,0],[0,0,1],[0,1,0]]", QQ)))
    assert dets and not any(dets)
