"""Dense exact matrices over a FieldSpec, as lists of Scalar rows.

Small and boring on purpose: Gaussian elimination with exact field division
is all the sizes here ever need.
"""

from __future__ import annotations

from .errors import DimMismatchError, FieldMismatchError, SingularMatrixError
from .scalars import Scalar


def from_rows(field, rows):
    """Build a matrix from ints/Scalars, validating shape and field."""
    out = []
    width = None
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, int):
                x = field.from_int(x)
            elif not isinstance(x, Scalar):
                raise FieldMismatchError(f"matrix entry {x!r} is not a scalar")
            elif x.field != field:
                raise FieldMismatchError(f"{x.field} vs {field}")
            r.append(x)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise DimMismatchError("ragged matrix")
        out.append(r)
    if not out or width == 0:
        raise DimMismatchError("empty matrix")
    return out


def identity(field, n):
    one = field.one()
    zero = field.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise DimMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {k}x{m}")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v):
    if len(a[0]) != len(v):
        raise DimMismatchError("matrix/vector size mismatch")
    out = []
    for row in a:
        acc = row[0] * v[0]
        for t in range(1, len(v)):
            acc = acc + row[t] * v[t]
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def map_entries(a, fn):
    return [[fn(x) for x in row] for row in a]


def scale(a, c):
    return [[c * x for x in row] for row in a]


def _echelon(a, pivot_cols=None):
    # in-place row echelon; returns (rank, det_of_leading_square_part);
    # pivots are only chosen among the first pivot_cols columns, so an
    # augmented block on the right never contributes to the rank
    rows = len(a)
    cols = len(a[0]) if pivot_cols is None else pivot_cols
    field = a[0][0].field
    det = field.one()
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c]:
                pivot = i
                break
        if pivot is None:
            det = field.zero()
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            det = -det
        det = det * a[r][c]
        inv = a[r][c].inverse()
        a[r] = [inv * x for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r, det


def rank(a):
    work = [list(row) for row in a]
    r, _ = _echelon(work)
    return r


def det(a):
    n = len(a)
    if len(a[0]) != n:
        raise DimMismatchError("determinant of a non-square matrix")
    work = [list(row) for row in a]
    r, d = _echelon(work)
    if r < n:
        return a[0][0].field.zero()
    return d


def inv(a):
    n = len(a)
    if len(a[0]) != n:
        raise DimMismatchError("inverse of a non-square matrix")
    field = a[0][0].field
    work = [list(row) + list(idr) for row, idr in zip(a, identity(field, n))]
    r, _ = _echelon(work, n)
    if r < n:
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in work]
