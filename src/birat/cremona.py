"""Birational transformations of projective space.

A map is a (d+1)-tuple of homogeneous polynomials of one common degree with
no common factor, scaled so the first nonzero component is monic in grevlex
order.  Composition substitutes and re-reduces; the degree of a map is the
common degree after reduction, so degrees are submultiplicative but not
multiplicative (the standard quadratic involution squares to the identity).

Three kinds of family are reduced without a gcd, since their structure
decides it: a composition with an invertible linear factor on either side is
coprime already; a family of linear forms is coprime unless its coefficient
matrix has rank 1; and a family with a monomial member has a monomial gcd
(poly._gcd_cofactors), which divides by shifting exponents.  A composition
whose dense term count would pass _MAX_COMPOSE_TERMS fails fast instead.

The affine chart x0 != 0 is the distinguished one: to_chart produces the d
reduced rational functions describing the map there, remembering their
homogeneous pieces, and from_chart homogenizes back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import matrices
from .errors import (
    ChartDegenerateError,
    DegreeMismatchError,
    DimMismatchError,
    EmptyFamilyError,
    FieldMismatchError,
    IndeterminateAtPointError,
    LimitExceededError,
    NotHomogeneousError,
    ParseError,
    ZeroMapError,
)
from .linear import ProjPoint
from .poly import (
    Polynomial,
    RationalFunction,
    _MAX_COMPOSE_TERMS,
    _decode_terms,
    _gcd_cofactors,
    _heap_key,
    _linear_forms,
    _linear_part,
    _monomial_str,
    _poly_str,
    _powers_at,
    _substitute_raw,
    _value,
    _value_and_gradient,
    dehomogenize,
    exact_div,
    homogenize,
    parse_poly,
    poly_lcm,
    poly_str,
    split_group,
)

class CremonaMap:
    """A birational-style self-map of P^d in canonical reduced form."""

    __slots__ = ("field", "components", "_chart", "_rank")

    def __init__(self, components):
        comps = list(components)
        if len(comps) < 2:
            raise DimMismatchError("need at least 2 components")
        field = comps[0].field
        nvars = comps[0].nvars
        if nvars != len(comps):
            raise DimMismatchError(
                f"{len(comps)} components need {len(comps)} variables, got {nvars}"
            )
        degree = None
        for c in comps:
            if c.field != field:
                raise FieldMismatchError("components over different fields")
            if c.nvars != nvars:
                raise DimMismatchError("components with different arities")
            if not c.is_homogeneous:
                raise NotHomogeneousError(f"component {poly_str(c)} is not homogeneous")
            if not c.is_zero:
                if degree is None:
                    degree = c.total_degree
                elif c.total_degree != degree:
                    raise DegreeMismatchError(
                        f"components of degrees {degree} and {c.total_degree}"
                    )
        if degree is None:
            raise ZeroMapError("all components vanish")
        rank = None
        if degree == 1:
            # two linear forms that are not proportional share no factor
            rank = matrices.rank(_linear_part(comps))
            reduced = rank > 1
        else:
            g, comps = _gcd_cofactors(comps)
            reduced = degree > g.total_degree
        if not reduced:
            raise ZeroMapError("map reduces to a constant tuple")
        lead = next(c for c in comps if not c.is_zero)
        lc = lead.leading_coefficient()
        if lc != 1:
            inv = lc.inverse()
            comps = [c * inv for c in comps]
        self._store(comps, rank)

    @classmethod
    def _trusted(cls, comps, rank=None):
        # comps are homogeneous of one positive degree, with no common
        # factor, and the first nonzero one is monic
        self = object.__new__(cls)
        self._store(comps, rank)
        return self

    def _store(self, comps, rank):
        self.field = comps[0].field
        self.components = tuple(comps)
        self._chart = None
        self._rank = rank  # of the coefficient matrix, once a linear map needs it

    @classmethod
    def identity(cls, field, dim):
        n = dim + 1
        return cls([Polynomial.variable(field, n, v) for v in range(n)])

    @classmethod
    def from_proj_linear(cls, m):
        """The linear map given by a ProjLinear, stored without re-checking.

        m is invertible, so its forms share no factor and the rank is d+1;
        the first nonzero entry of its first row is 1, and that entry's
        variable is the grevlex lead of the first form, so the map is monic.
        """
        return cls._trusted(_linear_forms(m.field, m.matrix), m.dim + 1)

    @property
    def dim(self):
        return len(self.components) - 1

    @property
    def degree(self):
        return next(c for c in self.components if not c.is_zero).total_degree

    def _is_automorphism(self):
        """A linear map with an invertible coefficient matrix."""
        if self._rank is None:
            if self.degree != 1:
                return False
            self._rank = matrices.rank(_linear_part(self.components))
        return self._rank == len(self.components)

    def conjugate(self, m):
        """m o self o m^-1 for a ProjLinear m."""
        return (
            CremonaMap.from_proj_linear(m)
            .compose(self)
            .compose(CremonaMap.from_proj_linear(m.inverse()))
        )

    def _is_identity(self):
        for v, c in enumerate(self.components):
            if len(c.terms) != 1:
                return False
            ((exps, coef),) = c.terms.items()
            if coef != 1 or sum(exps) != 1 or exps[v] != 1:
                return False
        return True

    def compose(self, other):
        """self after other, reduced.

        Next to an invertible linear factor L the substituted components
        are coprime already.  x -> Lx is a ring automorphism, so it keeps
        the components of self coprime in self o L; and the components of
        other are linear combinations of those of L o other, so a common
        factor of these divides all of them.
        """
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.dim != other.dim:
            raise DimMismatchError(f"dimension {self.dim} vs {other.dim}")
        if other._is_identity():
            return self
        if self._is_identity():
            return other
        degree = self.degree * other.degree
        terms = math.comb(degree + self.dim, self.dim)
        if terms > _MAX_COMPOSE_TERMS:
            raise LimitExceededError(
                f"a composition of degree {degree} on P^{self.dim} may have {terms} terms"
                f" per component, over the limit of {_MAX_COMPOSE_TERMS}"
            )
        # one pass over all components: other is encoded once and every
        # component comes out over one denominator.  Next to an invertible
        # linear factor each coefficient is decoded over the raw leading
        # coefficient of the first nonzero component instead, so the result
        # comes out monic and needs no reduction
        raws, den, monos = _substitute_raw(self.components, list(other.components))
        if not any(raws):
            raise ZeroMapError("composition vanishes identically")
        trusted = other._is_automorphism() or self._is_automorphism()
        if trusted:
            lead = next(r for r in raws if r)
            den = lead[monos.lead(lead)]
        field, m = self.field, len(raws)
        comps = [Polynomial._raw(field, m, _decode_terms(field, r, den, monos) if r else {}) for r in raws]
        return CremonaMap._trusted(comps) if trusted else CremonaMap(comps)

    def apply(self, point):
        if not isinstance(point, ProjPoint) or point.field != self.field:
            raise FieldMismatchError("point over the wrong field")
        if point.dim != self.dim:
            raise DimMismatchError(f"point in P^{point.dim}, map on P^{self.dim}")
        vals = self._values_at(point)
        if not any(vals):
            raise IndeterminateAtPointError(f"map is indeterminate at {point}")
        return ProjPoint(self.field, vals)

    def _values_at(self, point):
        powers = _powers_at(self.field, len(self.components), point.coords)
        return [_value(self.field, c.terms, powers) for c in self.components]

    def is_indeterminate_at(self, point):
        return not any(self._values_at(point))

    def is_fixed_point(self, point):
        """True when the map is defined at the point and sends it to itself."""
        vals = self._values_at(point)
        return any(vals) and ProjPoint(self.field, vals) == point

    def to_chart(self):
        """Chart form on x0 != 0: d reduced rational functions in x1..xd."""
        if self._chart is not None:
            return self._chart
        if self.components[0].is_zero:
            raise ChartDegenerateError("image lies in the hyperplane x0 = 0")
        den = dehomogenize(self.components[0])
        fractions = [
            RationalFunction(dehomogenize(c), den) for c in self.components[1:]
        ]
        self._chart = ChartDecomposition.from_fractions(self.field, self.dim, fractions)
        return self._chart

    def is_local_isomorphism(self, point):
        """Defined at the point with an invertible differential there.

        With v = F(p), Euler's identity J(p)*p = e*v makes the Jacobian of the
        components induce the differential k^(d+1)/<p> -> k^(d+1)/<v>, which
        is invertible exactly when the columns of J(p) and v span k^(d+1).
        This holds in every characteristic, also where it divides e and so
        det J(p) vanishes identically.
        """
        powers = _powers_at(self.field, len(self.components), point.coords)
        rows = [_value_and_gradient(self.field, c.terms, powers) for c in self.components]
        if not any(v for v, _ in rows):
            return False
        return matrices.rank([grad + [v] for v, grad in rows]) == self.dim + 1

    def __eq__(self, other):
        if not isinstance(other, CremonaMap):
            return NotImplemented
        return self.field == other.field and self.components == other.components

    def __str__(self):
        return map_str(self)

    def __repr__(self):
        return f"CremonaMap({self.field}, {self})"


@dataclass(frozen=True)
class ChartDecomposition:
    """The chart form of a map on x0 != 0, with its homogeneous pieces.

    functions holds the d reduced coordinate functions that to_chart built.
    numerators[i][j] is the degree-j part of the numerator of the i-th
    function, and likewise for denominators; reassembling the pieces recovers
    the chart form exactly.
    """

    field: object
    dim: int
    functions: tuple

    @classmethod
    def from_fractions(cls, field, dim, fractions):
        return cls(field, dim, tuple(fractions))

    @property
    def numerators(self):
        return tuple(_pieces(f.num) for f in self.functions)

    @property
    def denominators(self):
        return tuple(_pieces(f.den) for f in self.functions)

    def numerator(self, i):
        return self.functions[i].num

    def denominator(self, i):
        return self.functions[i].den

    def fractions(self):
        return list(self.functions)


def _pieces(p):
    return tuple(sorted(p.homogeneous_components().items()))


def from_chart(dec):
    """Homogenize a chart decomposition back to a map of P^d."""
    d = dec.dim
    fractions = dec.fractions()
    if all(f.is_zero for f in fractions):
        raise ZeroMapError("chart data describes the zero tuple")
    den = fractions[0].den
    for f in fractions[1:]:
        den = poly_lcm(den, f.den)
    nums = [f.num * exact_div(den, f.den) for f in fractions]
    e = max([den.total_degree] + [n.total_degree for n in nums if not n.is_zero])
    comps = [homogenize(den, e)] + [
        homogenize(n, e) if not n.is_zero else Polynomial.zero(dec.field, d + 1)
        for n in nums
    ]
    return CremonaMap(comps)


def chart_from_polys(polys):
    """Chart data of a polynomial map of the chart (denominators 1)."""
    field = polys[0].field
    dim = len(polys)
    return ChartDecomposition.from_fractions(
        field, dim, [RationalFunction(p) for p in polys]
    )


def max_degree(maps):
    """Largest degree in a family of maps; the family must be nonempty."""
    maps = list(maps)
    if not maps:
        raise EmptyFamilyError("no maps given")
    return max(m.degree for m in maps)


def standard_involution(field, dim=2):
    """The coordinate-wise inversion [x1*x2*...*xd : prod without x1 : ...]."""
    n = dim + 1
    comps = []
    for i in range(n):
        exps = tuple(0 if j == i else 1 for j in range(n))
        comps.append(Polynomial.monomial(field, n, exps))
    return CremonaMap(comps)


# ---------------------------------------------------------------------------
# text format: P^2: [x1*x2 : x0*x2 : x0*x1]


def parse_map(text, field):
    text = text.strip()
    if not text.startswith("P^"):
        raise ParseError("map text must start with P^<dim>:")
    head, _, body = text.partition(":")
    try:
        dim = int(head[2:])
    except ValueError:
        raise ParseError(f"bad dimension in {head!r}") from None
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError("map components must be wrapped in [...]")
    parts = split_group(body[1:-1], ":")
    if len(parts) != dim + 1:
        raise DimMismatchError(f"expected {dim + 1} components, got {len(parts)}")
    comps = [parse_poly(part, field, dim + 1) for part in parts]
    return CremonaMap(comps)


def map_str(f):
    # the components share most of their monomials: one sort and one text each
    order = sorted(set().union(*(c.terms for c in f.components)), key=_heap_key)
    monomials = {e: _monomial_str(e, 0) for e in order}
    comps = " : ".join(_poly_str(c, order, monomials) for c in f.components)
    return f"P^{f.dim}: [{comps}]"
