"""Cocycles of the order-two Galois group of Q(i)/Q with values in GL_d.

A cocycle is determined by its value B at the nontrivial element sigma
(entrywise conjugation); the cocycle condition for the two-element group
reduces to B * sigma(B) = identity.  Every such cocycle is a coboundary
a * sigma(a)^-1, and a trivializing a is found by the averaging trick:
a = B * sigma(c) + c is fixed by x -> B * sigma(x) for any c, so any choice
making a invertible works, and the verification is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import matrices
from .errors import (
    DimMismatchError,
    FieldMismatchError,
    NotACocycleError,
    PreconditionError,
    SingularMatrixError,
)
from .scalars import QI, conjugation

_IDENTITY = "id"
_SIGMA = "sigma"
_GROUP = (_IDENTITY, _SIGMA)

# the candidates trivialize draws before it gives up
_TRIES = 64


def _group_mul(a, b):
    return _IDENTITY if a == b else _SIGMA


def sigma_matrix(m):
    """Entrywise conjugation."""
    return matrices.map_entries(m, conjugation(QI))


def _check_qi_square(m):
    n = len(m)
    for row in m:
        if len(row) != n:
            raise DimMismatchError("cocycle values must be square matrices")
        for x in row:
            if x.field != QI:
                raise FieldMismatchError("cocycle values must live over Q(i)")
    return n


@dataclass(frozen=True)
class Cocycle:
    """Values of a map from the two-element Galois group into GL_d(Q(i))."""

    dim: int
    sigma: tuple

    @classmethod
    def from_matrix(cls, m):
        n = _check_qi_square(m)
        if not matrices.det(m):
            raise SingularMatrixError("cocycle value is singular")
        return cls(n, tuple(tuple(row) for row in m))

    def value(self, element):
        if element == _IDENTITY:
            return matrices.identity(QI, self.dim)
        if element == _SIGMA:
            return [list(row) for row in self.sigma]
        raise PreconditionError(f"unknown group element {element!r}")


def _apply_element(element, m):
    return sigma_matrix(m) if element == _SIGMA else m


def validate_cocycle(nu):
    """Check nu(s*t) = nu(s) * s(nu(t)) over the whole group table."""
    ident = matrices.identity(QI, nu.dim)
    if not matrices.mat_eq(nu.value(_IDENTITY), ident):
        return False
    for s in _GROUP:
        for t in _GROUP:
            lhs = nu.value(_group_mul(s, t))
            rhs = matrices.mat_mul(nu.value(s), _apply_element(s, nu.value(t)))
            if not matrices.mat_eq(lhs, rhs):
                return False
    return True


def coboundary(a):
    """The cocycle sigma -> a * sigma(a)^-1 attached to an invertible a."""
    _check_qi_square(a)
    try:
        inv = matrices.inv(sigma_matrix(a))
    except SingularMatrixError:
        raise SingularMatrixError("coboundary needs an invertible matrix") from None
    return Cocycle.from_matrix(matrices.mat_mul(a, inv))


def trivialize(nu, seed=0):
    """Find a with a^-1 * nu(sigma) * sigma(a) = identity, exactly.

    Tries a = nu(sigma) * sigma(c) + c for deterministic pseudo-random
    Gaussian-integer c of small height until the average is invertible; the
    trivial cocycle returns the identity so results are reproducible.  One
    elimination both inverts a candidate and rejects a singular one.  On a
    valid cocycle a suitable c exists in abundance, so the budget of
    _TRIES candidates is a formality.
    """
    if not validate_cocycle(nu):
        raise NotACocycleError("the cocycle condition fails")
    ident = matrices.identity(QI, nu.dim)
    b = nu.value(_SIGMA)
    if matrices.mat_eq(b, ident):
        return ident
    rng = random.Random(seed)
    candidates = [ident]
    for _ in range(_TRIES):
        c = candidates.pop() if candidates else None
        if c is None:
            c = [
                [
                    QI.from_pair(rng.randint(-3, 3), rng.randint(-3, 3))
                    for _ in range(nu.dim)
                ]
                for _ in range(nu.dim)
            ]
        a = matrices.mat_mul(b, sigma_matrix(c))
        for i in range(nu.dim):
            for j in range(nu.dim):
                a[i][j] = a[i][j] + c[i][j]
        try:
            a_inv = matrices.inv(a)
        except SingularMatrixError:
            continue
        check = matrices.mat_mul(matrices.mat_mul(a_inv, b), sigma_matrix(a))
        if not matrices.mat_eq(check, ident):
            raise NotACocycleError("averaging produced a non-trivializing matrix")
        return a
    raise PreconditionError(f"no invertible average found in {_TRIES} attempts")
