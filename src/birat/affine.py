"""Polynomial automorphisms of affine space with verified inverses.

Every PolyAuto carries its inverse; nothing is ever assumed invertible.  One
given by polynomials is checked symbolically (both compositions are the
identity), one given by a matrix (affine_auto) on its matrix.  Every
composite substitutes, where an affine component costs a linear combination
(poly._substitute_raw), and builds its inverse when first read.
Composition follows the same convention as maps of projective space:
compose(f, g) applies g first.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import matrices
from .cremona import CremonaMap
from .errors import (
    ArityMismatchError,
    DimMismatchError,
    FieldMismatchError,
    InverseCheckError,
    ParseError,
    PreconditionError,
    SingularLinearPartError,
    SingularMatrixError,
)
from .poly import (
    Polynomial,
    _linear_forms,
    homogenize,
    parse_poly,
    poly_str,
    split_group,
    substitute_all,
)
from .scalars import FieldKind, Scalar


class PolyAuto:
    """An automorphism of A^d given by forward and inverse component tuples."""

    __slots__ = ("field", "dim", "forward", "_inverse")

    def __init__(self, forward, inverse):
        forward = tuple(forward)
        inverse = tuple(inverse)
        if not forward or len(forward) != len(inverse):
            raise DimMismatchError("forward and inverse must have the same length")
        d = len(forward)
        field = forward[0].field
        for c in forward + inverse:
            if c.field != field:
                raise FieldMismatchError("components over different fields")
            if c.nvars != d:
                raise ArityMismatchError(f"component arity {c.nvars}, expected {d}")
        self.field = field
        self.dim = d
        self.forward = forward
        self._inverse = inverse
        self._verify()

    def _verify(self):
        xs = [Polynomial.variable(self.field, self.dim, v) for v in range(self.dim)]
        fwd_inv = substitute_all(self.forward, self.inverse)
        inv_fwd = substitute_all(self.inverse, self.forward)
        for v in range(self.dim):
            if fwd_inv[v] != xs[v]:
                raise InverseCheckError(f"forward o inverse != id in component {v + 1}")
            if inv_fwd[v] != xs[v]:
                raise InverseCheckError(f"inverse o forward != id in component {v + 1}")

    @classmethod
    def _trusted(cls, field, dim, forward, inverse):
        # the inverse relation holds already: checked on a matrix, or kept
        # exactly by composition and swapping; inverse may be a function
        # that builds the components when first read
        self = object.__new__(cls)
        self.field = field
        self.dim = dim
        self.forward = tuple(forward)
        self._inverse = inverse if callable(inverse) else tuple(inverse)
        return self

    @property
    def inverse(self):
        """The inverse's components; a composite builds them on first read."""
        if callable(self._inverse):
            self._inverse = tuple(self._inverse())
        return self._inverse

    @property
    def degree(self):
        return max(c.total_degree for c in self.forward)

    def compose(self, other):
        """self after other."""
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.dim != other.dim:
            raise DimMismatchError(f"dimension {self.dim} vs {other.dim}")
        fwd = substitute_all(self.forward, other.forward)

        def inv():
            return substitute_all(other.inverse, self.inverse)

        return PolyAuto._trusted(self.field, self.dim, fwd, inv)

    def inverted(self):
        return PolyAuto._trusted(self.field, self.dim, self.inverse, self.forward)

    def apply(self, vals):
        return [c.evaluate(vals) for c in self.forward]

    def __eq__(self, other):
        if not isinstance(other, PolyAuto):
            return NotImplemented
        return self.field == other.field and self.forward == other.forward

    def __str__(self):
        return auto_str(self)

    def __repr__(self):
        return f"PolyAuto({self.field}, {self})"


def identity_auto(field, d):
    return linear_auto(field, matrices.identity(field, d))


@dataclass(frozen=True)
class TorusElement:
    """A diagonal automorphism x_i -> a_i * x_i with all a_i nonzero."""

    field: object
    diagonal: tuple

    def __post_init__(self):
        for a in self.diagonal:
            if not isinstance(a, Scalar) or a.field != self.field:
                raise FieldMismatchError("diagonal entries must be scalars of the field")
            if not a:
                raise SingularLinearPartError("torus entries must be nonzero")

    def as_auto(self):
        m = matrices.identity(self.field, len(self.diagonal))
        for v, a in enumerate(self.diagonal):
            m[v][v] = a
        return linear_auto(self.field, m)


def torus_auto(field, diag):
    diag = tuple(field.from_int(a) if isinstance(a, int) else a for a in diag)
    return TorusElement(field, diag).as_auto()


def permutation_auto(field, perm):
    """x_i -> x_{perm(i)} (0-based images)."""
    d = len(perm)
    if sorted(perm) != list(range(d)):
        raise PreconditionError(f"{perm} is not a permutation of 0..{d - 1}")
    return linear_auto(field, [[int(j == perm[i]) for j in range(d)] for i in range(d)])


def linear_auto(field, rows):
    return affine_auto(field, rows, [0] * len(rows))


def affine_auto(field, rows, shift):
    """x -> m*x + b with stored inverse x -> m^-1*x + b', where b' = -m^-1*b.

    Only m is inverted, by one Gauss-Jordan run.  One matrix product checks
    the inverse and its shift together, m*[m^-1 | b'] = [1 | -b], so the
    symbolic check of the constructor is not needed.
    """
    m = matrices.from_rows(field, rows)
    d = len(m)
    if len(shift) != d:
        raise DimMismatchError(f"shift of length {len(shift)} for {d} rows")
    (b,) = matrices.from_rows(field, [shift])
    try:
        m_inv = matrices.inv(m)
    except SingularMatrixError:
        raise SingularLinearPartError("linear part is singular") from None
    b_inv = [-x for x in matrices.mat_vec(m_inv, b)]
    product = matrices.mat_mul(m, [row + [x] for row, x in zip(m_inv, b_inv)])
    expected = [row + [-x] for row, x in zip(matrices.identity(field, d), b)]
    if not matrices.mat_eq(product, expected):
        raise InverseCheckError("the matrix inverse does not invert the affine map")
    return PolyAuto._trusted(
        field, d, _linear_forms(field, m, b), _linear_forms(field, m_inv, b_inv)
    )


def translation_auto(field, shift):
    return affine_auto(field, matrices.identity(field, len(shift)), shift)


def elementary_auto(field, d, i, p):
    """x_i -> x_i + p where p does not involve x_i (i is 1-based).

    The inverse is x_i -> x_i - p, which is what makes these the basic
    triangular generators.
    """
    if not 1 <= i <= d:
        raise ArityMismatchError(f"component index {i} out of range 1..{d}")
    if p.nvars != d:
        raise ArityMismatchError(f"shift polynomial has arity {p.nvars}, expected {d}")
    if (i - 1) in p.support_vars():
        raise PreconditionError(f"shift polynomial may not involve x{i}")
    fwd = [Polynomial.variable(field, d, v) for v in range(d)]
    inv = list(fwd)
    fwd[i - 1] = fwd[i - 1] + p
    inv[i - 1] = inv[i - 1] - p
    return PolyAuto(fwd, inv)


def embed_lower_linear(field, rows, d):
    """Embed a linear automorphism of the last d-1 coordinates into A^d."""
    if len(rows) != d - 1:
        raise DimMismatchError(f"expected a {d - 1}x{d - 1} matrix")
    small = matrices.from_rows(field, rows)
    return linear_auto(field, [[1] + [0] * (d - 1)] + [[0] + row for row in small])


def to_cremona(auto):
    """Homogenize an automorphism of A^d to a map of P^d."""
    e = auto.degree
    field = auto.field
    n = auto.dim + 1
    x0e = Polynomial.monomial(field, n, (e,) + (0,) * auto.dim)
    comps = [x0e] + [homogenize(c, e) for c in auto.forward]
    return CremonaMap(comps)


# ---------------------------------------------------------------------------
# torus normalization and centralizers


def is_diagonal_linear(auto):
    for v, c in enumerate(auto.forward):
        terms = list(c.terms.items())
        if len(terms) != 1:
            return False
        exps, _ = terms[0]
        if sum(exps) != 1 or exps[v] != 1:
            return False
    return True


def is_monomial_auto(auto):
    """Each component a scalar times a single variable, up to permutation."""
    images = []
    for c in auto.forward:
        terms = list(c.terms.items())
        if len(terms) != 1:
            return False
        exps, _ = terms[0]
        if sum(exps) != 1:
            return False
        images.append(exps.index(1))
    return sorted(images) == list(range(auto.dim))


def _distinct_torus(field, d, rng):
    if field.kind is FieldKind.PRIME_FIELD:
        if field.modulus - 1 < d:
            raise PreconditionError(
                f"need {d} distinct nonzero entries, field has {field.modulus - 1}"
            )
        picks = rng.sample(range(1, field.modulus), d)
    else:
        picks = rng.sample(range(2, 2 + 8 * d), d)
    return torus_auto(field, picks)


def normalizes_torus(g, trials=8, seed=0):
    """Does conjugation by g keep diagonal maps diagonal?

    Monomial maps are recognized structurally and always normalize; anything
    else is tested by conjugating torus elements with pairwise distinct
    diagonal entries: every one of them when the field has at most `trials`,
    otherwise `trials` random ones.
    """
    if is_monomial_auto(g):
        return True
    field, d = g.field, g.dim
    # a field with no such element at all is rejected by _distinct_torus
    if field.kind is FieldKind.PRIME_FIELD and 0 < math.perm(field.modulus - 1, d) <= trials:
        entries = itertools.permutations(range(1, field.modulus), d)
        tori = (torus_auto(field, picks) for picks in entries)
    else:
        rng = random.Random(seed)
        tori = (_distinct_torus(field, d, rng) for _ in range(trials))
    g_inv = g.inverted()
    for t in tori:
        if not is_diagonal_linear(g.compose(t).compose(g_inv)):
            return False
    return True


def centralizes(g, others):
    """Does g commute with every automorphism in the collection?"""
    return all(g.compose(s) == s.compose(g) for s in others)


# ---------------------------------------------------------------------------
# the commutation identities behind the affine-group argument


@dataclass(frozen=True)
class AffineLemmaReport:
    field: object
    dim: int
    checks: tuple  # (name, parameter, passed)

    @property
    def all_passed(self):
        return all(ok for _, _, ok in self.checks)


def affine_lemma_suite(field, d, params=None):
    """Verify the identities pinning translations inside the affine group.

    For f the translation by a in x1: (a) conjugating by t = diag(2,1,...,1)
    doubles the translation, t f t^-1 = f^2, away from characteristic 2;
    (b) f commutes with h = (x1+x2, x2, ..., xd); (c) in characteristic 2,
    f^2 = id.  Needs d >= 2.
    """
    if d < 2:
        raise PreconditionError("the identities need dimension at least 2")
    char2 = field.characteristic == 2
    if params is None:
        params = [1] if char2 else list(range(1, 21))
    checks = []
    h = elementary_auto(field, d, 1, Polynomial.variable(field, d, 1))
    for a in params:
        a = field.from_int(a) if isinstance(a, int) else a
        if not a:
            continue
        f = translation_auto(field, [a] + [field.zero()] * (d - 1))
        if char2:
            checks.append(
                ("square_is_identity", str(a), f.compose(f) == identity_auto(field, d))
            )
        else:
            t = torus_auto(field, [2] + [1] * (d - 1))
            lhs = t.compose(f).compose(t.inverted())
            checks.append(("conjugate_squares", str(a), lhs == f.compose(f)))
        checks.append(
            ("commutes_with_shear", str(a), f.compose(h) == h.compose(f))
        )
    return AffineLemmaReport(field, d, tuple(checks))


# ---------------------------------------------------------------------------
# text format: A^2: (x2; x1 + x2^2) inv (x2; x1 + x2^2)


def parse_auto(text, field):
    text = text.strip()
    if not text.startswith("A^"):
        raise ParseError("automorphism text must start with A^<dim>:")
    head, _, body = text.partition(":")
    try:
        d = int(head[2:])
    except ValueError:
        raise ParseError(f"bad dimension in {head!r}") from None
    body = body.strip()
    if " inv " not in body:
        raise ParseError("expected '(...) inv (...)'")
    fwd_text, _, inv_text = body.partition(" inv ")

    def parse_tuple(part):
        part = part.strip()
        if not (part.startswith("(") and part.endswith(")")):
            raise ParseError("component tuples must be wrapped in (...)")
        pieces = split_group(part[1:-1], ";")
        if len(pieces) != d:
            raise DimMismatchError(f"expected {d} components, got {len(pieces)}")
        return [parse_poly(s, field, d, offset=1) for s in pieces]

    return PolyAuto(parse_tuple(fwd_text), parse_tuple(inv_text))


def auto_str(auto):
    fwd = "; ".join(poly_str(c, offset=1) for c in auto.forward)
    inv = "; ".join(poly_str(c, offset=1) for c in auto.inverse)
    return f"A^{auto.dim}: ({fwd}) inv ({inv})"
