"""Conjugating a map by scalings and reading off the limit at t = 0.

Conjugation by the scaling (x1,...,xd) -> (t*x1,...,t*xd) turns the chart
form F_i = P_i/Q_i of a map fixing the origin into

    F_i^t = (t^-1 P_i0 + P_i1 + t P_i2 + ...) / (Q_i0 + t Q_i1 + ...),

where P_ij, Q_ij are the homogeneous pieces.  The t-exponent is determined
by the piece degree, so the family is stored exactly as graded chart data;
no numeric limits are ever taken.  The family extends across t = 0 precisely
when every P_i0 vanishes, every Q_i0 does not, and the degree-1 coefficient
matrix is invertible; the value at t = 0 is then the linear map given by
that matrix, i.e. the derivative of the map at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matrices
from .cremona import CremonaMap
from .errors import (
    MissingInverseError,
    PreconditionError,
    ZeroParameterError,
)
from .linear import ProjLinear, move_point_to_origin, origin_point
from .poly import Polynomial, RationalFunction, _linear_part, jacobian, poly_str
from .scalars import Scalar

__all__ = [
    "DeformationFamily",
    "ExtendabilityVerdict",
    "scaling_map",
    "build_family",
    "extendability",
    "limit_vs_jacobian",
    "commutator_family",
    "move_point_to_origin",
]


def scaling_map(t, dim):
    """The scaling [x0 : t*x1 : ... : t*xd] as a degree-1 map."""
    if not isinstance(t, Scalar):
        raise PreconditionError("scaling parameter must be a scalar")
    if not t:
        raise ZeroParameterError("scaling parameter must be nonzero")
    m = matrices.identity(t.field, dim + 1)
    for v in range(1, dim + 1):
        m[v][v] = t
    return CremonaMap.from_proj_linear(ProjLinear(t.field, m))


@dataclass(frozen=True)
class DeformationFamily:
    """The conjugated family in graded chart form.

    chart_data[i] is a pair (numerator pieces, denominator pieces); each
    pieces entry is a (t-exponent, polynomial in x1..xd) pair.  Numerator
    exponents start at -1, denominator exponents at 0.
    """

    source: CremonaMap
    dim: int
    chart_data: tuple

    @property
    def field(self):
        return self.source.field

    @property
    def degree(self):
        return self.source.degree

    def specialize(self, t0):
        """Evaluate the family at a nonzero parameter value, exactly."""
        if not isinstance(t0, Scalar) or t0.field != self.field:
            raise PreconditionError("parameter must be a scalar of the map's field")
        if not t0:
            raise ZeroParameterError("family is only specialized at nonzero parameters")
        out = []
        for num_pieces, den_pieces in self.chart_data:
            num = Polynomial.zero(self.field, self.dim)
            for k, piece in num_pieces:
                num = num + piece * t0**k
            den = Polynomial.zero(self.field, self.dim)
            for k, piece in den_pieces:
                den = den + piece * t0**k
            out.append(RationalFunction(num, den))
        return out

    def component_str(self, i):
        num_pieces, den_pieces = self.chart_data[i]
        return f"({_laurent_str(num_pieces)}) / ({_laurent_str(den_pieces)})"

    def __str__(self):
        comps = " ; ".join(self.component_str(i) for i in range(self.dim))
        return f"t-family on A^{self.dim}: {comps}"


def _laurent_str(pieces):
    if not pieces:
        return "0"
    parts = []
    for k, poly in sorted(pieces):
        body = poly_str(poly, offset=1)
        if " " in body or "+" in body:
            body = f"({body})"
        if k == 0:
            parts.append(body)
        elif k == 1:
            parts.append(f"t*{body}")
        else:
            parts.append(f"t^{k}*{body}")
    return " + ".join(parts)


def build_family(f):
    """Conjugate a map by the scaling family, in graded chart form."""
    chart = f.to_chart()
    data = []
    for nums, dens in zip(chart.numerators, chart.denominators):
        num_pieces = tuple((j - 1, piece) for j, piece in nums)
        den_pieces = tuple((j, piece) for j, piece in dens)
        data.append((num_pieces, den_pieces))
    return DeformationFamily(f, f.dim, tuple(data))


@dataclass(frozen=True)
class ExtendabilityVerdict:
    """Whether a family extends across t = 0, and why not if it does not.

    extendable is true exactly when all flags are clear; limit is the value
    at t = 0 (a projective linear map) and is present exactly in that case.
    """

    extendable: bool
    p_i0_nonzero: tuple
    q_i0_zero: tuple
    jacobian_singular: bool
    limit: ProjLinear | None

    def to_dict(self):
        from .linear import matrix_str

        return {
            "extendable": self.extendable,
            "reasons": {
                "p_i0_nonzero": list(self.p_i0_nonzero),
                "q_i0_zero": list(self.q_i0_zero),
                "jacobian_singular": self.jacobian_singular,
            },
            "limit": matrix_str(self.limit.rows()) if self.limit else None,
        }


def extendability(fam):
    """Decide extendability across t = 0 by reading the graded chart data."""
    field = fam.field
    d = fam.dim
    p_flags = []
    q_flags = []
    rows = []
    zero = Polynomial.zero(field, d)
    for num_pieces, den_pieces in fam.chart_data:
        num = dict(num_pieces)
        den = dict(den_pieces)
        p_i0 = num.get(-1)
        q_i0 = den.get(0)
        p_flags.append(p_i0 is not None and not p_i0.is_zero)
        q_flags.append(q_i0 is None or q_i0.is_zero)
        rows.append((num.get(0, zero), q_i0))
    if any(p_flags) or any(q_flags):
        return ExtendabilityVerdict(
            False, tuple(p_flags), tuple(q_flags), False, None
        )
    linear = _linear_part([p_i1 for p_i1, _ in rows])
    matrix = []
    for row, (_, q_i0) in zip(linear, rows):
        inv = q_i0.constant_term().inverse()
        matrix.append([x * inv for x in row])
    if not matrices.det(matrix):
        return ExtendabilityVerdict(
            False, tuple(p_flags), tuple(q_flags), True, None
        )
    return ExtendabilityVerdict(
        True, tuple(p_flags), tuple(q_flags), False, _affine_linear(field, matrix)
    )


def _affine_linear(field, m):
    """The projective matrix of the linear chart map x -> m*x.

    m is invertible wherever this is called (extendability has just seen
    its determinant nonzero; in limit_vs_jacobian it is the Jacobian of a
    local isomorphism), so the determinant is not checked again.
    """
    d = len(m)
    rows = [[field.one()] + [field.zero()] * d]
    for r in m:
        rows.append([field.zero()] + list(r))
    return ProjLinear._trusted(field, rows)


def limit_vs_jacobian(f):
    """Compare the family limit with the symbolically computed derivative.

    Two independent routes: the limit is read off the graded chart data of
    the conjugated family, the derivative comes from quotient-rule
    differentiation of the chart fractions evaluated at the origin.  Requires
    a map that fixes [1:0:...:0] and is a local isomorphism there.
    """
    field = f.field
    p = origin_point(field, f.dim)
    if not f.is_fixed_point(p):
        raise PreconditionError("map must fix [1:0:...:0]")
    if not f.is_local_isomorphism(p):
        raise PreconditionError("map must be a local isomorphism at [1:0:...:0]")
    verdict = extendability(build_family(f))
    origin = [field.zero()] * f.dim
    j = jacobian(f.to_chart().fractions(), origin)
    return verdict.extendable and verdict.limit == _affine_linear(field, j)


def commutator_family(f, alpha, p, f_inverse=None):
    """Family of the conjugated commutator alpha^-1 f^-1 alpha f at p.

    alpha must fix both p and f(p); f must be defined and a local isomorphism
    at p.  The commutator then fixes p, the point is moved to [1:0:...:0],
    and the scaling family of the result is returned.  An inverse of f must
    be supplied unless f has degree 1.
    """
    if f_inverse is None:
        if f.degree != 1:
            raise MissingInverseError("no inverse known for a map of degree > 1")
        m = ProjLinear(f.field, _linear_part(f.components))
        f_inverse = CremonaMap.from_proj_linear(m.inverse())
    ident = CremonaMap.identity(f.field, f.dim)
    if f.compose(f_inverse) != ident or f_inverse.compose(f) != ident:
        raise PreconditionError("supplied inverse does not invert the map")
    if f.is_indeterminate_at(p):
        raise PreconditionError("map is indeterminate at the base point")
    q = f.apply(p)
    if alpha.apply(p) != p or alpha.apply(q) != q:
        raise PreconditionError("conjugating automorphism must fix p and f(p)")
    if not f.is_local_isomorphism(p):
        raise PreconditionError("map must be a local isomorphism at the base point")
    comm = f_inverse.conjugate(alpha.inverse()).compose(f)
    return build_family(comm.conjugate(move_point_to_origin(p)))
