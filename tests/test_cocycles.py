"""Tests for Galois cocycles of the conjugation action on GL_d(Q(i))."""

import random

import pytest

from birat import matrices
from birat.cocycles import (
    Cocycle,
    coboundary,
    sigma_matrix,
    trivialize,
    validate_cocycle,
)
from birat.errors import (
    FieldMismatchError,
    NotACocycleError,
    SingularMatrixError,
)
from birat.scalars import QI, QQ

I = QI.from_pair(0, 1)


def qi_matrix(rows):
    return [[QI.from_pair(*x) if isinstance(x, tuple) else QI.from_int(x) for x in row]
            for row in rows]


def test_sigma_matrix():
    m = qi_matrix([[(1, 2), 3], [(0, -1), 0]])
    s = sigma_matrix(m)
    assert s[0][0] == QI.from_pair(1, -2)
    assert s[0][1] == 3
    assert s[1][0] == I


def test_worked_instance():
    # nu(sigma) = (i) is a cocycle: i * conj(i) = 1
    nu = Cocycle.from_matrix(qi_matrix([[(0, 1)]]))
    assert validate_cocycle(nu)
    a = trivialize(nu)
    assert a == qi_matrix([[(1, 1)]])
    assert coboundary(a).sigma == nu.sigma


def test_trivial_cocycle():
    nu = Cocycle.from_matrix(qi_matrix([[1]]))
    assert trivialize(nu) == matrices.identity(QI, 1)


def test_non_cocycle_rejected():
    nu = Cocycle.from_matrix(qi_matrix([[2]]))
    assert not validate_cocycle(nu)
    with pytest.raises(NotACocycleError):
        trivialize(nu)


def test_from_matrix_rejects():
    with pytest.raises(SingularMatrixError):
        Cocycle.from_matrix(qi_matrix([[1, 1], [1, 1]]))
    with pytest.raises(FieldMismatchError):
        Cocycle.from_matrix([[QQ.one()]])


def test_coboundary_condition():
    a = qi_matrix([[(1, 1), 0], [(2, -1), (0, 3)]])
    nu = coboundary(a)
    assert validate_cocycle(nu)
    b = nu.value("sigma")
    prod = matrices.mat_mul(b, sigma_matrix(b))
    assert matrices.mat_eq(prod, matrices.identity(QI, 2))


def test_trivialize_round_trip():
    rng = random.Random(2)
    for dim in (1, 2, 3):
        for _ in range(8):
            while True:
                c = [[QI.from_pair(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(dim)] for _ in range(dim)]
                if matrices.det(c):
                    break
            nu = coboundary(c)
            a = trivialize(nu)
            assert coboundary(a).sigma == nu.sigma


@pytest.mark.parametrize("dim, expected", [
    (1, [[(0, -2)]]),
    (2, [[(0, 6), (0, -2)], [(0, -2), (0, -4)]]),
    (3, [[0, 0, (0, -2)], [0, (0, 6), (0, -2)], [(0, -2), (0, -4), (0, -4)]]),
])
def test_a_singular_first_average_moves_on_to_the_next_candidate(dim, expected):
    # for nu(sigma) = -1 the first average, -1*sigma(1) + 1, is the zero
    # matrix; its inversion fails and the next draw is taken
    minus_one = [[QI.from_int(-int(i == j)) for j in range(dim)] for i in range(dim)]
    nu = Cocycle.from_matrix(minus_one)
    a = trivialize(nu)
    assert a == qi_matrix(expected)
    assert coboundary(a).sigma == nu.sigma


def test_value_table():
    nu = Cocycle.from_matrix(qi_matrix([[(0, 1)]]))
    assert matrices.mat_eq(nu.value("id"), matrices.identity(QI, 1))
    assert nu.value("sigma")[0][0] == I
