"""Elimination and products on raw payloads against a Scalar Gauss-Jordan."""

import random

import pytest

from birat import matrices
from birat.errors import FieldMismatchError, SingularMatrixError
from birat.scalars import GF, QI, QQ, FieldKind

FIELDS = {"Q": QQ, "Qi": QI, "F101": GF(101), "F2": GF(2), "F3": GF(3)}


def _reference_rref(a, pivot_cols):
    """(rank, det, rows): Gauss-Jordan on Scalars, det of the leading square."""
    rows = [list(row) for row in a]
    field = rows[0][0].field
    det, r = field.one(), 0
    for c in range(pivot_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            det = field.zero()
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = -det
        det = det * rows[r][c]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r, det, rows


def _coeff(rng, field):
    if field.kind is FieldKind.PRIME_FIELD:
        return field.from_int(rng.randrange(field.modulus))
    c = field.from_fraction(rng.randint(-9, 9), rng.randint(1, 10**6 if rng.random() < 0.2 else 5))
    if field.kind is FieldKind.GAUSSIAN_RATIONAL and rng.random() < 0.5:
        c = c + field.from_pair(0, rng.randint(-3, 3))
    return c


def _matrix(rng, field, n, m):
    a = [[_coeff(rng, field) for _ in range(m)] for _ in range(n)]
    shape = rng.random()
    if shape < 0.15 and n > 1:
        a[rng.randrange(n)] = [field.zero()] * m  # a zero row
    elif shape < 0.3 and n > 1:
        i, j = rng.sample(range(n), 2)
        c = _coeff(rng, field)
        a[i] = [c * x for x in a[j]]  # two dependent rows
    elif shape < 0.4 and m > 1:
        for row in a:
            row[rng.randrange(m)] = field.zero()
    return a


@pytest.mark.parametrize("name", FIELDS)
def test_det_rank_inv_match_scalar_gauss_jordan(name):
    field = FIELDS[name]
    rng = random.Random(f"matrices/{name}")
    seen = {"singular": 0, "invertible": 0, "wide": 0}
    for _ in range(80):
        n = rng.randint(1, 5)
        a = _matrix(rng, field, n, n)
        r, d, _ = _reference_rref(a, n)
        assert matrices.rank(a) == r
        assert matrices.det(a) == (d if r == n else field.zero())
        if r < n:
            seen["singular"] += 1
            with pytest.raises(SingularMatrixError):
                matrices.inv(a)
        else:
            seen["invertible"] += 1
            aug = [row + idr for row, idr in zip(a, matrices.identity(field, n))]
            _, _, rows = _reference_rref(aug, n)
            inv = matrices.inv(a)
            assert inv == [row[n:] for row in rows]
            assert matrices.mat_mul(a, inv) == matrices.identity(field, n)
        wide = _matrix(rng, field, n, rng.randint(1, 6))
        assert matrices.rank(wide) == _reference_rref(wide, len(wide[0]))[0]
        seen["wide"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", FIELDS)
def test_products_match_scalar_sums(name):
    field = FIELDS[name]
    rng = random.Random(f"products/{name}")
    for _ in range(20):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        a, b = _matrix(rng, field, n, k), _matrix(rng, field, k, m)
        expected = [[sum((a[i][t] * b[t][j] for t in range(k)), field.zero()) for j in range(m)]
                    for i in range(n)]
        assert matrices.mat_mul(a, b) == expected
        v = [row[0] for row in b]
        assert matrices.mat_vec(a, v) == [row[0] for row in matrices.mat_mul(a, [[x] for x in v])]


def test_entries_of_another_field_are_refused():
    a = matrices.identity(QQ, 2)
    b = matrices.identity(GF(5), 2)
    for run in (lambda: matrices.mat_mul(a, b), lambda: matrices.mat_vec(a, b[0]),
                lambda: matrices.det([a[0], b[1]])):
        with pytest.raises(FieldMismatchError):
            run()
