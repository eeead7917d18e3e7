"""Projective points, projective linear maps, and the linear-group toolkit.

Contains the PGL_{d+1} layer used everywhere else: canonical projective
points and matrices, transvections with an explicit Gauss decomposition and
a documented length bound, congruence subgroup membership for integer
matrices, twisted/dual automorphisms of the projective linear group, and the
two-fixed-point construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matrices
from .errors import (
    BadEigenvalueError,
    BadModulusError,
    DegeneratePairError,
    DimMismatchError,
    FieldMismatchError,
    NotUnimodularError,
    ParseError,
    PreconditionError,
    SingularMatrixError,
)
from .poly import parse_scalar, split_group
from .scalars import (
    QQ,
    FieldAutomorphism,
    FieldKind,
    Scalar,
    _is_prime,
    _square_and_multiply,
    identity_automorphism,
)


class ProjPoint:
    """A point of P^d in canonical form: first nonzero coordinate is 1."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        cs = []
        for x in coords:
            if isinstance(x, int):
                x = field.from_int(x)
            elif not isinstance(x, Scalar):
                raise FieldMismatchError(f"coordinate {x!r} is not a scalar")
            elif x.field != field:
                raise FieldMismatchError(f"{x.field} vs {field}")
            cs.append(x)
        if len(cs) < 2:
            raise DimMismatchError("a projective point needs at least 2 coordinates")
        pivot = next((c for c in cs if c), None)
        if pivot is None:
            raise PreconditionError("all coordinates are zero")
        if pivot != 1:
            inv = pivot.inverse()
            cs = [inv * c for c in cs]
        self.field = field
        self.coords = tuple(cs)

    @property
    def dim(self):
        return len(self.coords) - 1

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __str__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"ProjPoint({self.field}, {self})"


def origin_point(field, dim):
    """The distinguished point [1:0:...:0]."""
    return ProjPoint(field, [1] + [0] * dim)


def enumerate_points(field, dim):
    """All points of P^dim over a prime field, in canonical order."""
    if field.kind is not FieldKind.PRIME_FIELD:
        raise PreconditionError("point enumeration needs a finite field")
    p = field.modulus
    for k in range(dim + 1):
        free = dim - k
        for idx in range(p**free):
            tail = []
            rest = idx
            for _ in range(free):
                tail.append(rest % p)
                rest //= p
            yield ProjPoint(field, [0] * k + [1] + tail)


class ProjLinear:
    """An element of PGL_{d+1}: an invertible matrix scaled so its first
    nonzero entry (row-major) is 1."""

    __slots__ = ("field", "matrix")

    def __init__(self, field, rows):
        m = matrices.from_rows(field, rows)
        n = len(m)
        if len(m[0]) != n:
            raise DimMismatchError("projective linear maps need square matrices")
        if n < 2:
            raise DimMismatchError("need at least a 2x2 matrix")
        if not matrices.det(m):
            raise SingularMatrixError("matrix is singular")
        self._normalize(field, m)

    @classmethod
    def _trusted(cls, field, m):
        # m is square and invertible because its operands are (a product,
        # inverse, transpose-inverse or twist of invertible matrices) or
        # because its caller has just taken its determinant, so the check
        # would only burn time
        self = object.__new__(cls)
        self._normalize(field, m)
        return self

    def _normalize(self, field, m):
        pivot = next(x for row in m for x in row if x)
        if pivot != 1:
            m = matrices.scale(m, pivot.inverse())
        self.field = field
        self.matrix = tuple(tuple(row) for row in m)

    @classmethod
    def identity(cls, field, dim):
        return cls(field, matrices.identity(field, dim + 1))

    @property
    def dim(self):
        return len(self.matrix) - 1

    def rows(self):
        return [list(row) for row in self.matrix]

    def __mul__(self, other):
        if not isinstance(other, ProjLinear):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.dim != other.dim:
            raise DimMismatchError(f"dimension {self.dim} vs {other.dim}")
        return ProjLinear._trusted(self.field, matrices.mat_mul(self.rows(), other.rows()))

    def inverse(self):
        return ProjLinear._trusted(self.field, matrices.inv(self.rows()))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _square_and_multiply(self, n, ProjLinear.identity(self.field, self.dim))

    def transpose_inverse(self):
        """The dual g -> transpose of g^-1, an automorphism of PGL."""
        return ProjLinear._trusted(self.field, matrices.transpose(matrices.inv(self.rows())))

    def twist(self, alpha):
        """Apply a field automorphism entrywise."""
        if alpha.field != self.field:
            raise FieldMismatchError("twist by an automorphism of another field")
        return ProjLinear._trusted(self.field, matrices.map_entries(self.rows(), alpha))

    def apply(self, point):
        if not isinstance(point, ProjPoint) or point.field != self.field:
            raise FieldMismatchError("point and map live over different fields")
        if point.dim != self.dim:
            raise DimMismatchError(f"point in P^{point.dim}, map on P^{self.dim}")
        return ProjPoint(self.field, matrices.mat_vec(self.rows(), list(point.coords)))

    def fixed_points(self):
        """All fixed points over a prime field, by exhaustive scan."""
        return [p for p in enumerate_points(self.field, self.dim) if self.apply(p) == p]

    def __eq__(self, other):
        if not isinstance(other, ProjLinear):
            return NotImplemented
        return self.field == other.field and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.field, self.matrix))

    def __str__(self):
        return matrix_str(self.rows())

    def __repr__(self):
        return f"ProjLinear({self.field}, {self})"


# ---------------------------------------------------------------------------
# transvections and the Gauss decomposition


@dataclass(frozen=True)
class Transvection:
    """The elementary map E_ij(c): adds c times coordinate j to coordinate i."""

    i: int
    j: int
    c: Scalar

    def __post_init__(self):
        if self.i == self.j:
            raise PreconditionError("a transvection needs i != j")

    def as_matrix(self, n):
        m = matrices.identity(self.c.field, n)
        m[self.i][self.j] = self.c
        return m

    def inverse(self):
        return Transvection(self.i, self.j, -self.c)

    def __str__(self):
        return f"E[{self.i}][{self.j}]({self.c})"


def transvection_bound(d):
    """Documented length bound for gauss_decompose on SL_{d+1}."""
    n = d + 1
    return n * n + 2 * n


def transvection_product(ts, field, n):
    acc = matrices.identity(field, n)
    for t in ts:
        acc = matrices.mat_mul(acc, t.as_matrix(n))
    return acc


def gauss_decompose(m):
    """Write a matrix of SL_n as an ordered product of transvections.

    Row elimination with at most one pivot-fixing addition per column; never
    more than transvection_bound(n - 1) factors come out.  The input must
    have determinant exactly 1.
    """
    n = len(m)
    field = m[0][0].field
    if matrices.det(m) != 1:
        raise NotUnimodularError("determinant is not 1")
    work = [list(row) for row in m]
    applied = []

    def row_add(i, j, c):
        # left-multiply by E_ij(c)
        if not c:
            return
        applied.append(Transvection(i, j, c))
        work[i] = [x + c * y for x, y in zip(work[i], work[j])]

    one = field.one()
    for k in range(n - 1):
        if not work[k][k]:
            r = next(i for i in range(k + 1, n) if work[i][k])
            row_add(k, r, one)
        if work[k][k] != 1:
            r = next((i for i in range(k + 1, n) if work[i][k]), None)
            if r is None:
                row_add(k + 1, k, one)
                r = k + 1
            row_add(k, r, (one - work[k][k]) / work[r][k])
        for i in range(n):
            if i != k and work[i][k]:
                row_add(i, k, -work[i][k])
    # the last diagonal entry is forced to 1 by the determinant
    for i in range(n - 1):
        if work[i][n - 1]:
            row_add(i, n - 1, -work[i][n - 1])
    return [t.inverse() for t in applied]


# ---------------------------------------------------------------------------
# congruence subgroups of SL_n(Z)


def in_congruence_subgroup(rows, p):
    """Membership in the congruence subgroup mod an odd prime p.

    rows must be an integer matrix of determinant 1; membership means every
    entry reduces mod p to the identity matrix's.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise DimMismatchError("congruence test needs a square matrix")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise NotUnimodularError("congruence test needs integer entries")
    if p == 2 or not _is_odd_prime(p):
        raise BadModulusError(f"modulus must be an odd prime, got {p}")
    if matrices.det(matrices.from_rows(QQ, rows)) != 1:
        raise NotUnimodularError("determinant is not 1")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if (x - (1 if i == j else 0)) % p != 0:
                return False
    return True


def _is_odd_prime(p):
    return p % 2 == 1 and _is_prime(p)


# ---------------------------------------------------------------------------
# automorphisms of PGL: inner twists by field automorphisms and the dual


@dataclass(frozen=True)
class DieudonneAutomorphism:
    """g -> h (alpha applied entrywise to g, optionally dualized) h^-1."""

    h: ProjLinear
    alpha: FieldAutomorphism
    dual: bool = False

    def __post_init__(self):
        if self.alpha.field != self.h.field:
            raise FieldMismatchError("twist automorphism must match the field of h")

    def __call__(self, g):
        if g.field != self.h.field:
            raise FieldMismatchError("argument lives over the wrong field")
        if g.dim != self.h.dim:
            raise DimMismatchError("argument has the wrong dimension")
        core = g.twist(self.alpha)
        if self.dual:
            core = core.transpose_inverse()
        return self.h * core * self.h.inverse()


def move_point_to_origin(p):
    """A projective linear map sending p to [1:0:...:0].

    Deterministic: a coordinate swap brings the pivot (first nonzero, already
    scaled to 1) to the front, then a unitriangular elimination clears the
    remaining coordinates.
    """
    field = p.field
    n = p.dim + 1
    k = next(i for i, c in enumerate(p.coords) if c)
    swap = matrices.identity(field, n)
    if k != 0:
        swap[0], swap[k] = swap[k], swap[0]
    moved = matrices.mat_vec(swap, list(p.coords))
    elim = matrices.identity(field, n)
    for j in range(1, n):
        elim[j][0] = -moved[j]
    return ProjLinear(field, matrices.mat_mul(elim, swap))


# ---------------------------------------------------------------------------
# the two-fixed-point construction


def two_fixed_point_automorphism(p, q, lam):
    """A projective linear map whose only fixed points are p and q.

    In a basis starting at p and ending at q the matrix is a single Jordan
    block of size d with eigenvalue 1, followed by the eigenvalue lam at q;
    the two eigendirections are then exactly p and q, provided lam is neither
    0 nor 1.
    """
    if p == q:
        raise DegeneratePairError("the two fixed points must differ")
    field = p.field
    if isinstance(lam, int):
        lam = field.from_int(lam)
    if lam.field != field:
        raise FieldMismatchError("eigenvalue from the wrong field")
    if not lam or lam == 1:
        raise BadEigenvalueError("eigenvalue must avoid 0 and 1")
    n = p.dim + 1
    # complete (p, q) to a basis with standard vectors, deterministically
    middle = []
    for e in matrices.identity(field, n):
        if len(middle) == n - 2:
            break
        trial = [list(p.coords)] + middle + [e, list(q.coords)]
        if matrices.rank(trial) == len(trial):
            middle.append(e)
    vectors = [list(p.coords)] + middle + [list(q.coords)]
    if len(vectors) < n or matrices.rank(vectors) < n:
        raise DegeneratePairError("could not complete the pair to a basis")
    b_inv = matrices.transpose(vectors)
    jordan = matrices.identity(field, n)
    for i in range(n - 2):
        jordan[i][i + 1] = field.one()
    jordan[n - 1][n - 1] = lam
    b = matrices.inv(b_inv)
    return ProjLinear(field, matrices.mat_mul(matrices.mat_mul(b_inv, jordan), b))


# ---------------------------------------------------------------------------
# text format: [[1,1,0],[0,1,0],[0,0,2]] and [1:0:0]


def parse_matrix(text, field):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("matrix text must be wrapped in [...]")
    inner = text[1:-1].strip()
    rows = []
    for part in split_group(inner, ","):
        part = part.strip()
        if not (part.startswith("[") and part.endswith("]")):
            raise ParseError(f"matrix row {part!r} must be wrapped in [...]")
        entries = [parse_scalar(e, field) for e in split_group(part[1:-1], ",")]
        rows.append(entries)
    return matrices.from_rows(field, rows)


def matrix_str(rows):
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in rows) + "]"


def parse_point(text, field):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    coords = [parse_scalar(c, field) for c in split_group(text, ":")]
    return ProjPoint(field, coords)


def point_str(p):
    return str(p)
