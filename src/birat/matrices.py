"""Dense exact matrices over a FieldSpec, as lists of Scalar rows.

Small and boring on purpose: Gaussian elimination is all the sizes here
ever need.  Products and elimination encode the entries once as raw values
over one shared denominator (FieldSpec._encode: integers over Q, Gaussian
integers over Q(i), residues over F_p), run on those, and decode each
result entry once.
"""

from __future__ import annotations

import functools
import operator

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


def _encode_rows(field, a):
    """(raw rows, den) with a = raw / den; every entry must lie in field."""
    flat = [x for row in a for x in row]
    for x in flat:
        if x.field is not field and x.field != field:
            raise FieldMismatchError(f"{field} vs {x.field}")
    den = field._den(flat)
    raw = iter(field._encode(flat, den))
    return [[next(raw) for _ in row] for row in a], den


def _dot(xs, ys):
    return functools.reduce(operator.add, map(operator.mul, xs, ys))


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise DimMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {k}x{m}")
    field = a[0][0].field
    ra, da = _encode_rows(field, a)
    rb, db = _encode_rows(field, b)
    cols = list(zip(*rb))
    return [field._decode([_dot(row, col) for col in cols], da * db) for row in ra]


def mat_vec(a, v):
    if len(a[0]) != len(v):
        raise DimMismatchError("matrix/vector size mismatch")
    field = a[0][0].field
    ra, da = _encode_rows(field, a)
    (rv,), dv = _encode_rows(field, [v])
    return field._decode([_dot(row, rv) for row in ra], da * dv)


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def map_entries(a, fn):
    return [[fn(x) for x in row] for row in a]


def scale(a, c):
    return [[c * x for x in row] for row in a]


def _eliminate(field, rows, pivot_cols, reduced):
    """Fraction-free (Bareiss) elimination of raw rows, in place.

    Pivots are chosen among the first pivot_cols columns only, so an
    augmented block on the right never adds to the rank.  Each step
    replaces row i by (p*row_i - x*pivot_row) / q, where p is the pivot, x
    the entry of row i in the pivot column and q the previous pivot; the
    division is exact (Sylvester's identity), so the entries stay integral
    over Q and Q(i).  Without reduced only the rows below the pivot change
    (echelon form), which is all rank and det need, and a column without a
    pivot is skipped; with it the rows above change too (Gauss-Jordan), and
    the first column without a pivot ends the run, as the inverse needs.

    Returns (rank, last pivot, row swaps).  When the leading square part has
    full rank its determinant is (-1)^swaps times the last pivot; a reduced
    run turns a full-rank square part into the last pivot times the
    identity, and so every other column c into pivot * inverse * c.
    """
    n = len(rows)
    prev = field._raw_int(1)
    r = swaps = 0
    for c in range(pivot_cols):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            if reduced:
                break
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            swaps += 1
        top = rows[r]
        p = top[c]
        div = field._divider(prev)
        # left of c the pivot row and the rows below it are zero
        start = 0 if reduced else c
        tail = top[start:]
        for i in range(0 if reduced else r + 1, n):
            if i != r:
                row = rows[i]
                x = row[c]
                row[start:] = [div(p * y - x * z) for y, z in zip(row[start:], tail)]
        prev = p
        r += 1
        if r == n:
            break
    return r, prev, swaps


def rank(a):
    field = a[0][0].field
    rows, _ = _encode_rows(field, a)
    return _eliminate(field, rows, len(a[0]), False)[0]


def det(a):
    n = len(a)
    if len(a[0]) != n:
        raise DimMismatchError("determinant of a non-square matrix")
    field = a[0][0].field
    rows, den = _encode_rows(field, a)
    r, d, swaps = _eliminate(field, rows, n, False)
    if r < n:
        return field.zero()
    return field._decode([-d if swaps % 2 else d], den**n)[0]


def inv(a):
    n = len(a)
    if len(a[0]) != n:
        raise DimMismatchError("inverse of a non-square matrix")
    field = a[0][0].field
    # [a | 1] encodes as den*[a | 1], which the run turns into [d*1 | d*a^-1]
    work, _ = _encode_rows(field, [row + idr for row, idr in zip(a, identity(field, n))])
    r, d, _ = _eliminate(field, work, n, True)
    if r < n:
        raise SingularMatrixError("matrix is singular")
    return [field._decode(row[n:], d) for row in work]
