"""Sparse multivariate polynomials and rational functions, exactly.

Polynomials are dicts mapping exponent tuples to nonzero scalars; the
canonical term order is graded reverse lexicographic (grevlex), which fixes
leading coefficients, printing, and hence every normalization downstream.
The zero polynomial has total degree None.

Rational functions are kept reduced (numerator and denominator coprime) with
a monic denominator, so structural equality is semantic equality.
"""

from __future__ import annotations

import heapq
import itertools
import random
import re
from operator import lshift, or_, sub

from . import _kernels, _modular
from .errors import (
    ArityMismatchError,
    DegreeMismatchError,
    DivisionByZeroError,
    FieldMismatchError,
    InexactDivisionError,
    LimitExceededError,
    ParseError,
    PoleAtPointError,
    PreconditionError,
)
from .scalars import FieldKind, Scalar, _square_and_multiply


# ---------------------------------------------------------------------------
# raw field values (FieldSpec._encode) under packed monomials: what products,
# substitutions and exact divisions run on
#
# The kernels need nothing of a coefficient but +, * and truthiness, so they
# run on raw values as they are; over F_p each kernel's output is reduced
# mod p again, so that the ints do not grow across a run.
#
# Under a bound on every exponent, the exponent tuple e of n variables packs
# into one int with e[v] in field v, counted from the low end, so the key of
# a product of monomials is the sum of their keys.  While the bound is below
# 128 the fields are bytes, which int.from_bytes and int.to_bytes pack and
# unpack in C; above it each field is as wide as the bound needs.  Either way
# the top bit of every field stays clear, a guard that exact_div reads to find
# a field that went negative.


class _Monomials:
    """Packed keys of n-variable monomials whose exponents are at most bound.

    Graded keys carry the total degree in one more field on top, so that
    int order on them is a graded monomial order.  One instance lives for
    one call.
    """

    __slots__ = ("n", "width", "graded")

    def __init__(self, n, bound, graded=False):
        self.n = n
        self.width = 8 if bound < 128 else bound.bit_length() + 1
        self.graded = graded

    def pack(self, monomials):
        """The keys of the exponent tuples in monomials (a dict or a list)."""
        w = self.width
        if w == 8:
            keys = map(int.from_bytes, map(bytes, monomials), itertools.repeat("little"))
        else:
            keys = [sum(k << w * v for v, k in enumerate(e)) for e in monomials]
        if self.graded:
            keys = map(or_, keys, map(lshift, map(sum, monomials), itertools.repeat(w * self.n)))
        return keys

    def unpack(self, keys):
        """The exponent tuples of keys (a dict or a set), which carry no degree."""
        n, w = self.n, self.width
        if w == 8:
            return [tuple(k.to_bytes(n, "little")) for k in keys]
        mask = (1 << w) - 1
        return [tuple(k >> w * v & mask for v in range(n)) for k in keys]

    def lead(self, keys):
        """The key of the grevlex-largest of monomials of one degree.

        It is the least: the last variable's field is the most significant.
        """
        return min(keys)


def _encode_terms(field, terms, den, monos=None, weights=None):
    """The raw term dict of den * terms, its keys packed by monos if given."""
    raw = field._encode(terms.values(), den, weights)
    return dict(zip(terms if monos is None else monos.pack(terms), raw))


def _decode_terms(field, raw, den, monos=None):
    """The Scalar term dict of raw / den, its keys unpacked by monos if given.

    raw holds no zero.
    """
    keys = raw if monos is None else monos.unpack(raw)
    return dict(zip(keys, field._decode(raw.values(), den)))


def _raw_kernels(field):
    """mul_terms, add_terms and scale_terms for raw values of the field."""
    kernels = (_kernels.mul_terms, _kernels.add_terms, _kernels.scale_terms)
    if field.kind is not FieldKind.PRIME_FIELD:
        return kernels
    p = field.modulus

    def reduced(kernel):
        def run(a, b):
            return {e: r for e, c in kernel(a, b).items() if (r := c % p)}

        return run

    return tuple(map(reduced, kernels))


def _heap_key(exps):
    # smaller key <=> larger monomial in grevlex; the one grevlex key, by
    # which poly_str, leading_term, the gcd images and _content_in order
    return (-sum(exps), exps[::-1])


def _fold(terms, exps, c):
    # add c*x^exps into the term dict in place
    if not c:
        return
    prev = terms.get(exps)
    if prev is None:
        terms[exps] = c
    else:
        s = prev + c
        if s:
            terms[exps] = s
        else:
            del terms[exps]


class Polynomial:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ArityMismatchError(f"exponent tuple {exps} does not fit {nvars} variables")
            if not isinstance(c, Scalar):
                c = field.from_int(c)
            elif c.field != field:
                raise FieldMismatchError(f"coefficient field {c.field} vs {field}")
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def _raw(cls, field, nvars, terms):
        # trusted constructor: terms already canonical
        p = object.__new__(cls)
        p.field = field
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, field, nvars):
        return cls._raw(field, nvars, {})

    @classmethod
    def one(cls, field, nvars):
        return cls.constant(field, nvars, field.one())

    @classmethod
    def constant(cls, field, nvars, c):
        if isinstance(c, int):
            c = field.from_int(c)
        if not c:
            return cls.zero(field, nvars)
        return cls._raw(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, v):
        if not 0 <= v < nvars:
            raise ArityMismatchError(f"variable {v} out of range for {nvars} variables")
        exps = tuple(1 if j == v else 0 for j in range(nvars))
        return cls._raw(field, nvars, {exps: field.one()})

    @classmethod
    def monomial(cls, field, nvars, exps, c=1):
        return cls(field, nvars, {tuple(exps): c})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def total_degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(map(sum, self.terms))

    def degree_in(self, v):
        if not self.terms:
            return None
        return max(e[v] for e in self.terms)

    @property
    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.field.zero())

    def support_vars(self):
        vs = set()
        for e in self.terms:
            for v, k in enumerate(e):
                if k:
                    vs.add(v)
        return vs

    def _check_compatible(self, other):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.nvars != other.nvars:
            raise ArityMismatchError(f"{self.nvars} variables vs {other.nvars}")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Scalar)):
            return Polynomial.constant(self.field, self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._raw(self.field, self.nvars, _kernels.add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c = other if isinstance(other, Scalar) else self.field.from_int(other)
            field = self.field
            if c.field != field:
                raise FieldMismatchError(f"{field} vs {c.field}")
            if not c:
                return Polynomial.zero(field, self.nvars)
            return Polynomial._raw(field, self.nvars, dict(zip(self.terms, field._scale(self.terms.values(), c))))
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            if not (self.terms and other.terms):
                return Polynomial.zero(self.field, self.nvars)
            field = self.field
            monos = _Monomials(self.nvars, self.total_degree + other.total_degree)
            da = field._den(self.terms.values())
            db = field._den(other.terms.values())
            mul = _raw_kernels(field)[0]
            raw = mul(
                _encode_terms(field, self.terms, da, monos),
                _encode_terms(field, other.terms, db, monos),
            )
            return Polynomial._raw(field, self.nvars, _decode_terms(field, raw, da * db, monos))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return _square_and_multiply(self, n, Polynomial.one(self.field, self.nvars))

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Polynomial.constant(self.field, self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def leading_term(self):
        """Largest term in grevlex order as an (exponents, coefficient) pair."""
        if not self.terms:
            raise DivisionByZeroError("zero polynomial has no leading term")
        e = min(self.terms, key=_heap_key)
        return e, self.terms[e]

    def leading_coefficient(self):
        return self.leading_term()[1]

    def monic(self):
        """Scale so the grevlex leading coefficient is 1."""
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return self * lc.inverse()

    def evaluate(self, vals):
        return _value(self.field, self.terms, _powers_at(self.field, self.nvars, vals))

    def substitute(self, polys):
        """Substitute polys[v] for variable v; polys may live in another arity."""
        return substitute_all([self], polys)[0]

    def derivative(self, v):
        if not 0 <= v < self.nvars:
            raise ArityMismatchError(f"variable {v} out of range")
        out = {}
        for exps, c in self.terms.items():
            k = exps[v]
            if not k:
                continue
            e = list(exps)
            e[v] = k - 1
            nc = c * k
            if nc:
                out[tuple(e)] = nc
        return Polynomial._raw(self.field, self.nvars, out)

    def homogeneous_components(self):
        """Decompose into homogeneous parts, keyed by total degree."""
        parts = {}
        for exps, c in self.terms.items():
            parts.setdefault(sum(exps), {})[exps] = c
        return {
            d: Polynomial._raw(self.field, self.nvars, t) for d, t in sorted(parts.items())
        }

    def homogeneous_part(self, d):
        t = {e: c for e, c in self.terms.items() if sum(e) == d}
        return Polynomial._raw(self.field, self.nvars, t)

    @property
    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        return len(degs) == 1

    def split_monomial_content(self):
        """Largest monomial dividing self, and the cofactor."""
        if not self.terms:
            return (0,) * self.nvars, self
        it = iter(self.terms)
        m = list(next(it))
        for exps in it:
            for v in range(self.nvars):
                if exps[v] < m[v]:
                    m[v] = exps[v]
        m = tuple(m)
        if not any(m):
            return m, self
        t = {tuple(e - mv for e, mv in zip(exps, m)): c for exps, c in self.terms.items()}
        return m, Polynomial._raw(self.field, self.nvars, t)

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Polynomial({self.field}, {self.nvars}, {self})"


def substitute_all(fs, polys):
    """[f.substitute(polys) for f in fs], in one pass that encodes polys once.

    fs is a nonempty sequence of polynomials over one field, each in
    len(polys) variables; polys may live in another arity.
    """
    field = fs[0].field
    for f in fs:
        if len(polys) != f.nvars:
            raise ArityMismatchError(f"expected {f.nvars} polynomials, got {len(polys)}")
        if f.field != field:
            raise FieldMismatchError(f"{field} vs {f.field}")
    if not polys:
        return list(fs)
    m = polys[0].nvars
    for g in polys:
        if g.field != field:
            raise FieldMismatchError(f"{field} vs {g.field}")
        if g.nvars != m:
            raise ArityMismatchError("substituted polynomials disagree on arity")
    raws, den, monos = _substitute_raw(fs, polys)
    return [Polynomial._raw(field, m, _decode_terms(field, r, den, monos) if r else {}) for r in raws]


def _substitute_raw(fs, polys):
    """The raw term dicts of every f(polys) for f in fs, over one denominator.

    Returns (raws, den, monos): raws[k] / den is fs[k] with polys[v] put for
    variable v, its monomials packed by the _Monomials monos.  fs share a
    field and an arity, len(polys) of them, and the polys are in that field
    and of one arity.  An f of total degree at most 1 is a linear
    combination, sum of c_v*polys[v] plus c_0, and costs one scaling and one
    addition per term, no product.  Any other f runs Horner's rule in one
    variable after another: each step multiplies by one substituted
    polynomial, or a power of it cached across all of fs, never by a
    product of several powers.  The polys are encoded once: with D their
    common denominator, E that of all of fs and N the largest total degree
    in fs, the term c*x^e enters as the integer E*c*D^(N-|e|) and the
    substituted polys as D*polys[v], so every sum comes out over E*D^N,
    also where an f is not homogeneous.
    """
    field = fs[0].field
    den = field._den([c for g in polys for c in g.terms.values()])
    term_degrees = [[sum(e) for e in f.terms] for f in fs]
    top = max((max(ks, default=0) for ks in term_degrees), default=0)
    dpow = [1]
    for _ in range(top):
        dpow.append(dpow[-1] * den)
    fden = field._den([c for f in fs for c in f.terms.values()])
    # no exponent of a result, nor of polys, passes top (or 1) times the
    # largest degree in polys
    bound = max(top, 1) * max(g.total_degree or 0 for g in polys)
    monos = _Monomials(polys[0].nvars, bound)
    pows = [{1: _encode_terms(field, g.terms, den, monos)} for g in polys]
    mul, add, scale = _raw_kernels(field)
    nvars = len(polys)

    def power(v, k):
        if k not in pows[v]:
            pows[v][k] = mul(power(v, k // 2), power(v, k - k // 2))
        return pows[v][k]

    def horner(terms, v):
        # sum of c * prod polys[v + j]^e[j] over terms {e: c}
        if v == nvars:
            return {0: terms[()]}
        groups = {}
        for e, c in terms.items():
            groups.setdefault(e[0], {})[e[1:]] = c
        degrees = sorted(groups, reverse=True)
        acc = horner(groups[degrees[0]], v + 1)
        for k, below in zip(degrees, degrees[1:]):
            acc = add(mul(acc, power(v, k - below)), horner(groups[below], v + 1))
        if degrees[-1]:
            acc = mul(acc, power(v, degrees[-1]))
        return acc

    def combination(terms):
        # the same sum as horner, folded as horner folds it (from the last
        # variable, the constant innermost), so the terms come in its order
        acc = {}
        for e in sorted(terms):
            acc = add(scale(pows[e.index(1)][1], terms[e]), acc) if any(e) else {0: terms[e]}
        return acc

    raws = []
    for f, ks in zip(fs, term_degrees):
        if not ks:
            raws.append({})
            continue
        terms = _encode_terms(field, f.terms, fden, None, [dpow[top - k] for k in ks])
        raws.append(combination(terms) if max(ks) <= 1 else horner(terms, 0))
    return raws, fden * dpow[top], monos


# ---------------------------------------------------------------------------
# values and gradients at a point


def _powers_at(field, nvars, vals):
    """Power tables of a point, shared by every polynomial evaluated there.

    Table v maps k to vals[v]^k, filled as terms ask (k = -1 is the
    inverse); it is None where vals[v] vanishes, so that a term in which
    that coordinate appears to a positive power is skipped unread.
    """
    if len(vals) != nvars:
        raise ArityMismatchError(f"expected {nvars} values, got {len(vals)}")
    vals = [field.from_int(v) if isinstance(v, int) else v for v in vals]
    for v in vals:
        if v.field != field:
            raise FieldMismatchError(f"{field} vs {v.field}")
    return [{1: v} if v else None for v in vals]


def _power(table, k):
    p = table.get(k)
    if p is None:
        p = table[k] = table[1] ** k
    return p


def _value(field, terms, powers):
    """The value of a term dict at the point of the power tables."""
    acc = field.zero()
    for exps, c in terms.items():
        for v, k in enumerate(exps):
            if k:
                table = powers[v]
                if table is None:
                    break
                c = c * _power(table, k)
        else:
            acc = acc + c
    return acc


def _value_and_gradient(field, terms, powers):
    """The value and the partial derivatives of a term dict, in one pass.

    A term with no vanishing coordinate adds its value m to the value and
    k*m/x_v to the v-th partial for each x_v^k in it; a term with one
    vanishing coordinate x_z, to the first power, adds its cofactor to the
    z-th partial alone; any other term adds nothing.
    """
    zero = field.zero()
    val = zero
    grad = [zero] * len(powers)
    for exps, c in terms.items():
        vanishing = None
        for v, k in enumerate(exps):
            if k:
                table = powers[v]
                if table is not None:
                    c = c * _power(table, k)
                elif k > 1 or vanishing is not None:
                    break
                else:
                    vanishing = v
        else:
            if vanishing is not None:
                grad[vanishing] = grad[vanishing] + c
                continue
            val = val + c
            for v, k in enumerate(exps):
                if k:
                    g = c * _power(powers[v], -1)
                    grad[v] = grad[v] + (g * k if k > 1 else g)
    return val, grad


# ---------------------------------------------------------------------------
# exact division and gcd


def exact_div(a, b):
    """Divide a by b, raising InexactDivisionError on a nonzero remainder.

    The remainder's monomials wait in a heap, so each quotient term costs
    one pop and the updates of its product with b (Monagan and Pearce, J.
    Symb. Comp. 46, 2011, keep products in the heap instead).  The heap
    holds negated graded packed keys (_Monomials), whose int order is a
    graded monomial order: no remainder monomial passes the degree of a, so
    none outgrows its fields.  The lead monomial of b divides a remainder
    monomial e unless e - lead is negative or sets a field's guard bit.  An
    exact quotient is the same in every monomial order, so this one's lead
    serves as well as grevlex's.

    The loop runs on raw values.  Over F_p they are residues, and each
    quotient term is a product with the inverse of lc(b).  Over Q and Q(i)
    each operand is encoded over its own denominator and divided by its
    content, which leaves primitive polynomials a' and b' over Z or Z[i].
    By Gauss's lemma a quotient of a' by the primitive b', if exact, has
    coefficients in Z or Z[i] as well; so each quotient term is an exact
    division by lc(b') there, and one that leaves a remainder proves the
    division inexact.  With a = ca*a'/da and b = cb*b'/db, the quotient
    a'/b' is decoded once, over (da*cb)/(db*ca).
    """
    a._check_compatible(b)
    if b.is_zero:
        raise DivisionByZeroError("division by the zero polynomial")
    if a.is_zero:
        return a
    if b.is_constant:
        return a * b.constant_term().inverse()
    field = a.field
    monos = _Monomials(a.nvars, max(a.total_degree, b.total_degree), graded=True)
    rem, da, ca = _primitive_terms(field, a.terms, monos)
    rb, db, cb = _primitive_terms(field, b.terms, monos)
    lead = max(rb)
    quotient = field._divider(rb.pop(lead), check=True)
    tail = [(e, -c) for e, c in rb.items()]
    w = monos.width
    low = (1 << w * a.nvars) - 1
    # bit w - 1 of every field below the degree's
    guard = low // ((1 << w) - 1) << w - 1
    heap = [-e for e in rem]
    heapq.heapify(heap)
    quo = {}
    # every product term lies below the popped monomial, so each monomial
    # enters the heap once and leaves it once; a cancelled one leaves as 0
    while heap:
        e = -heapq.heappop(heap)
        q = quotient(rem.pop(e))
        if q is None:
            raise InexactDivisionError("division leaves a nonzero remainder")
        if not q:
            continue
        d = e - lead
        if d < 0 or d & guard:
            raise InexactDivisionError("division leaves a nonzero remainder")
        quo[d & low] = q
        for eb, x in tail:
            k = d + eb
            prev = rem.get(k)
            if prev is None:
                rem[k] = q * x
                heapq.heappush(heap, -k)
            else:
                rem[k] = prev + q * x
    num = ca * field._raw_int(db)
    if num != 1:
        quo = {e: q * num for e, q in quo.items()}
    return Polynomial._raw(field, a.nvars, _decode_terms(field, quo, cb * field._raw_int(da), monos))


def _primitive_terms(field, terms, monos):
    """(raw, den, content): terms = content * raw / den, raw primitive.

    raw is den * terms, encoded (FieldSpec._encode), over the least common
    denominator den, and divided by its content (FieldSpec._content); its
    keys are packed by monos.
    """
    den = field._den(terms.values())
    raw = _encode_terms(field, terms, den, monos)
    c = field._content(raw.values())
    if c != 1:
        div = field._divider(c)
        raw = {e: div(r) for e, r in raw.items()}
    return raw, den, c


def divides(b, a):
    """True when b divides a exactly (b nonzero)."""
    try:
        exact_div(a, b)
    except InexactDivisionError:
        return False
    return True


# ---------------------------------------------------------------------------
# the coprimality certificate and the modular route (images: _modular.py)

_CERT_SEED = 0x9E3779B9


def _encoded(a, vs):
    """(raw terms, their denominator, leading monomial) of a, packed to vs.

    The raw terms are FieldSpec._encode's, keyed by the exponents of the
    variables vs alone, which a and its partner together use.
    """
    pack = _modular._packer(vs)
    den = a.field._den(a.terms.values())
    raw = dict(zip(map(pack, a.terms), a.field._encode(a.terms.values(), den)))
    return raw, den, pack(a.leading_term()[0])


def _certificate(a, b):
    """(vs, a's and b's encodings, degree bounds of their gcd in vs).

    a and b are not both constant, and vs are the variables they use.  The
    images are those under the field's first ring map that keeps both
    leading monomials, and so the total degree of every common factor; a
    map that drops a leading monomial, as reducing (p*x + 1)*(x + 2) mod p
    does, could hide one.  One line (_line_certificate) settles most
    coprime pairs, with bounds all zero; where it does not, the bounds come
    from _degree_bounds, two attempts.  Points come from a fixed seed, so
    the outcome is reproducible.  All bounds zero certify the gcd constant.
    """
    vs = sorted(a.support_vars() | b.support_vars())
    ea, eb = _encoded(a, vs), _encoded(b, vs)
    (ra, _, lma), (rb, _, lmb) = ea, eb
    for p, roots in _modular._embeddings(a.field):
        A = _modular._image(ra, p, roots[0])
        B = _modular._image(rb, p, roots[0])
        if lma in A and lmb in B:
            break
    n = len(vs)
    rng = random.Random(_CERT_SEED)
    if _modular._line_certificate(A, B, n, p, rng):
        return vs, ea, eb, [0] * n
    return vs, ea, eb, _modular._degree_bounds(A, B, n, p, rng, 2)


def _coprime_certificate(a, b):
    """True only when the gcd is certainly constant; False means undecided."""
    return not any(_certificate(a, b)[3])


def _coefficient_bits(field, raw, den):
    # bit size of the coefficients once the denominators are cleared: the
    # largest cleared numerator's and the common denominator's
    if field.kind is FieldKind.PRIME_FIELD:
        return field.modulus.bit_length()
    if field.kind is FieldKind.GAUSSIAN_RATIONAL:
        top = max(max(abs(c.re), abs(c.im)) for c in raw.values())
    else:
        top = max(map(abs, raw.values()))
    return top.bit_length() + den.bit_length()


def _few_points(field, degree):
    # F_p with too few elements for random evaluation points and combinations
    return field.kind is FieldKind.PRIME_FIELD and field.modulus <= 4 * (degree + 1)


def _gcd_modular(a, b, vs, ea, eb, bounds):
    """(g, a/g, b/g), g the gcd by images mod primes, or None for the PRS.

    a and b are nonconstant and free of monomial factors; vs, their
    encodings ea, eb and the degree bounds, not all zero, are _certificate's.
    Brown's method, within those bounds, gives monic images mod primes that
    keep both leading coefficients; over Q they are combined by CRT and
    rational reconstruction, over Q(i) the two images of i -> +-sqrt(-1)
    give real and imaginary parts first, and over a large F_p one image is
    the candidate.  Each new candidate is tried as soon as it is
    reconstructed; one that fails leaves the primes it came from in the
    product, and the next prime refines it.  A candidate is accepted once it
    divides a and b and is certainly the gcd (_verified); the cofactors that
    verified it are returned with it.
    """
    field = a.field
    kind = field.kind
    if _few_points(field, max(a.total_degree, b.total_degree)):
        return None
    (ra, _, lma), (rb, _, lmb) = ea, eb
    # Mignotte: the gcd's cleared coefficients have at most gbits bits
    gbits = min(
        _coefficient_bits(field, r, d) + sum(x.degree_in(v) for v in vs) + len(x.terms).bit_length()
        for x, (r, d, _) in ((a, ea), (b, eb))
    )
    spread = 4 if kind is FieldKind.GAUSSIAN_RATIONAL else 2
    budget = (spread * gbits + 3) // 30 + 4
    rng = random.Random(_CERT_SEED)
    lead = acc = cand = None
    modulus = 1
    for p, roots in itertools.islice(_modular._embeddings(field), budget):
        images = []
        for root in roots:
            A = _modular._image(ra, p, root)
            B = _modular._image(rb, p, root)
            if lma not in A or lmb not in B:
                break
            g = _modular._brown(A, B, bounds, p, rng)
            if g is None:
                break
            if len(g) == 1 and not any(next(iter(g))):
                return Polynomial.one(field, a.nvars), a, b
            lm = min(g, key=_heap_key)
            inv = pow(g[lm], -1, p)
            images.append({e: c * inv % p for e, c in g.items()})
        else:
            lms = {min(g, key=_heap_key) for g in images}
            if len(lms) > 1:
                continue  # one embedding is unlucky
            lm = lms.pop()
            if lead is None or _heap_key(lm) > _heap_key(lead):
                lead, acc, cand, modulus = lm, None, None, 1
            elif lm != lead:
                continue  # an unlucky prime
            residues = _modular._residues(images, p, kind)
            if kind is FieldKind.PRIME_FIELD:
                new = residues
            else:
                acc, modulus = _modular._crt(acc, modulus, residues, p), modulus * p
                new = _modular._reconstruct(acc, modulus)
                if new is None or new == cand:
                    continue  # premature, or failed already
            found = _verified(a, b, new, vs, bounds)
            if found is not None:
                return found
            if kind is FieldKind.PRIME_FIELD:
                lead = None
            cand = new
    return None


def _verified(a, b, coeffs, vs, bounds):
    """(g, a/g, b/g) if the candidate g is the gcd of a and b, else None.

    A g dividing a and b is their gcd where its degree in each variable of
    vs meets the bound there, for the gcd's cannot pass it; else only where
    the cofactors are certified coprime.
    """
    field = a.field
    lift = field.from_pair if field.kind is FieldKind.GAUSSIAN_RATIONAL else field.from_fraction
    terms = {}
    for packed, parts in coeffs.items():
        e = [0] * a.nvars
        for v, k in zip(vs, packed):
            e[v] = k
        terms[tuple(e)] = lift(*parts)
    g = Polynomial._raw(field, a.nvars, terms)
    try:
        qa = exact_div(a, g)
        qb = exact_div(b, g)
    except InexactDivisionError:
        return None
    if (
        _modular._degrees(coeffs, len(vs)) == bounds
        or qa.is_constant
        or qb.is_constant
        or _coprime_certificate(qa, qb)
    ):
        return g, qa, qb
    return None


# ---------------------------------------------------------------------------
# the normalized primitive PRS: the fallback for small fields and bad luck


def _coeffs_in(p, v):
    """Coefficients of p as a polynomial in variable v (v-exponent zeroed)."""
    out = {}
    for exps, c in p.terms.items():
        k = exps[v]
        e = list(exps)
        e[v] = 0
        out.setdefault(k, {})[tuple(e)] = c
    return {k: Polynomial._raw(p.field, p.nvars, t) for k, t in out.items()}


def _content_in(p, v):
    # smallest coefficients first, so that the gcd drops fast: by degree,
    # length, then the grevlex-least lead (a stable sort, reversed)
    coeffs = sorted(
        _coeffs_in(p, v).values(),
        key=lambda q: (-q.total_degree, -len(q.terms), _heap_key(q.leading_term()[0])),
        reverse=True,
    )
    g = coeffs[0]
    for q in coeffs[1:]:
        if g.is_constant:
            break
        g = _gcd_pair(g, q)[0]
    return g.monic()


def _lead_in(p, v):
    coeffs = _coeffs_in(p, v)
    return coeffs[max(coeffs)]


def _prem(f, g, v):
    """Pseudo-remainder of f by g with respect to v (up to lc(g) powers)."""
    dg = g.degree_in(v)
    lg = _lead_in(g, v)
    xv = Polynomial.variable(f.field, f.nvars, v)
    r = f
    while r and r.degree_in(v) >= dg:
        dr = r.degree_in(v)
        lr = _lead_in(r, v)
        r = lg * r - lr * xv ** (dr - dg) * g
    return r


def _gcd_rec(a, b):
    """A gcd of a and b, up to a scalar factor, by the normalized PRS.

    a and b are nonconstant and free of monomial factors.  The PRS runs in
    their last variable; the gcds of the contents go back through _gcd_pair.
    """
    v = max(a.support_vars() | b.support_vars())
    da = a.degree_in(v)
    db = b.degree_in(v)
    if da == 0:
        return _gcd_pair(a, _content_in(b, v))[0]
    if db == 0:
        return _gcd_pair(_content_in(a, v), b)[0]
    cont_a = _content_in(a, v)
    cont_b = _content_in(b, v)
    c = _gcd_pair(cont_a, cont_b)[0]
    f = exact_div(a, cont_a)
    g = exact_div(b, cont_b)
    if da < db:
        f, g = g, f
    while True:
        r = _prem(f, g, v)
        if r.is_zero:
            return c * g
        if r.degree_in(v) == 0:
            return c
        f, g = g, exact_div(r, _content_in(r, v)).monic()


# ---------------------------------------------------------------------------
# the gcd entry points


def _gcd_pair(a, b):
    """(g, a/g, b/g): the monic gcd g of nonzero a and b, and the quotients.

    The one pair routine: the monomial content is split off, the certificate
    bounds the gcd's degree in each variable on one image, Brown's method
    runs within those bounds, and the normalized PRS takes over where it
    gives up.  Every route returns quotients checked by division: those
    that verified the modular gcd, whose images are monic at their grevlex
    lead; a and b where g is 1; and after the PRS, whose gcd is made monic
    here, the quotients of dividing by it, so that a wrong one raises
    InexactDivisionError.
    """
    ma, pa = a.split_monomial_content()
    mb, pb = b.split_monomial_content()
    g, qa, qb = Polynomial.one(a.field, a.nvars), pa, pb
    if not (pa.is_constant or pb.is_constant):
        vs, ea, eb, bounds = _certificate(pa, pb)
        if any(bounds):
            found = _gcd_modular(pa, pb, vs, ea, eb, bounds)
            if found is None:
                g = _gcd_rec(pa, pb).monic()
                found = g, exact_div(pa, g), exact_div(pb, g)
            g, qa, qb = found
    m = tuple(map(min, ma, mb))
    if not any(m) and qa is pa:
        return g, a, b  # g is 1: a and b are their own quotients
    shifts = m, tuple(map(sub, ma, m)), tuple(map(sub, mb, m))
    return tuple(
        q * Polynomial.monomial(q.field, q.nvars, e) if any(e) else q
        for q, e in zip((g, qa, qb), shifts)
    )


def poly_gcd(a, b):
    """Greatest common divisor, normalized to grevlex leading coefficient 1.

    The two-element case of poly_gcd_list; _gcd_pair does the work.
    """
    a._check_compatible(b)
    if a.is_zero and b.is_zero:
        raise PreconditionError("gcd of two zero polynomials")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    return _gcd_pair(a, b)[0]


_COMBINATION_TRIES = 3


def poly_gcd_list(ps):
    """gcd of a family, normalized to grevlex leading coefficient 1.

    A family with a monomial member, unless it is a pair, has as its gcd
    the largest monomial dividing every member.  Otherwise one gcd of the
    smallest member and a seeded random combination of the others is a
    multiple of the family's gcd, and equal to it unless the combination is
    unlucky; it is kept only if it divides every member.  After a few
    unlucky combinations, and over small prime fields, where most
    combinations are unlucky, the pairwise chain decides.
    """
    return _gcd_cofactors(ps)[0]


def _gcd_cofactors(ps):
    """poly_gcd_list(ps) and every member divided by it, in the order given.

    A family of two nonzero members, as every fraction is, takes its gcd
    and both quotients from _gcd_pair, which checked them by division.  In
    any other family with a monomial member the gcd divides that monomial,
    so it is the largest monomial dividing every member: no gcd runs.  The
    rest goes through poly_gcd, once per random combination or link of the
    chain, and dividing its members by the result checks it; a monomial
    gcd divides by shifting exponents.
    """
    ps = list(ps)
    order = sorted(
        (k for k, p in enumerate(ps) if not p.is_zero),
        key=lambda k: (ps[k].total_degree, len(ps[k].terms)),
    )
    if not order:
        raise PreconditionError("gcd of an all-zero family")
    if len(order) == 2:
        quos = list(ps)
        g, quos[order[0]], quos[order[1]] = _gcd_pair(ps[order[0]], ps[order[1]])
        return g, quos
    head, rest = ps[order[0]], [ps[k] for k in order[1:]]
    field = head.field
    if any(len(ps[k].terms) == 1 for k in order):
        m = tuple(map(min, zip(*(e for k in order for e in ps[k].terms))))
        if not any(m):
            return Polynomial.one(field, head.nvars), ps
        return _divided(ps, Polynomial._raw(field, head.nvars, {m: field.one()}))
    top = field.modulus if field.kind is FieldKind.PRIME_FIELD else 1 << 16
    chain = len(rest) < 2 or _few_points(field, rest[-1].total_degree)
    rng = random.Random(_CERT_SEED + 1)
    if not chain:
        den = field._den([c for p in rest for c in p.terms.values()])
        raws = [_encode_terms(field, p.terms, den) for p in rest]
        _, add_raw, scale = _raw_kernels(field)
    for _ in range(0 if chain else _COMBINATION_TRIES):
        mix = {}
        for raw in raws:
            mix = add_raw(mix, scale(raw, field._raw_int(rng.randrange(1, top))))
        if not mix:
            continue
        mix = Polynomial._raw(field, head.nvars, _decode_terms(field, mix, den))
        g = poly_gcd(head, mix)
        if g.is_constant:
            return g, ps
        found = _divided(ps, g)
        if found is not None:
            return found
    g = head
    for p in rest:
        if g.is_constant:
            break
        g = poly_gcd(g, p)
    g = g.monic()
    if g.is_constant:
        return g, ps
    return _divided(ps, g)


def _divided(ps, g):
    """(g, every member of ps divided by the monic g), or None if g misses one.

    A monomial g divides by shifting exponents; any other g by exact_div.
    """
    if len(g.terms) > 1:
        try:
            return g, [exact_div(p, g) if p else p for p in ps]
        except InexactDivisionError:
            return None
    (m,) = g.terms
    quos = []
    for p in ps:
        terms = {}
        for e, c in p.terms.items():
            d = tuple(map(sub, e, m))
            if min(d) < 0:
                return None
            terms[d] = c
        quos.append(Polynomial._raw(p.field, p.nvars, terms))
    return g, quos


def poly_lcm(a, b):
    if a.is_zero or b.is_zero:
        raise PreconditionError("lcm with a zero polynomial")
    a._check_compatible(b)
    return (a * _gcd_pair(a, b)[2]).monic()


# ---------------------------------------------------------------------------
# homogenization with respect to a fresh first variable


def homogenize(p, degree):
    """Homogenize to the given degree, inserting the new variable in front."""
    if p.total_degree is not None and p.total_degree > degree:
        raise DegreeMismatchError(f"cannot homogenize degree {p.total_degree} to {degree}")
    out = {}
    for exps, c in p.terms.items():
        out[(degree - sum(exps),) + exps] = c
    return Polynomial._raw(p.field, p.nvars + 1, out)


def dehomogenize(p):
    """Set the first variable to 1 and drop it."""
    if p.nvars == 0:
        raise ArityMismatchError("no variable to dehomogenize")
    out = {}
    for exps, c in p.terms.items():
        _fold(out, exps[1:], c)
    return Polynomial._raw(p.field, p.nvars - 1, out)


# ---------------------------------------------------------------------------
# linear forms <-> coefficient matrices: the one place that converts


def _linear_forms(field, rows, shift=None):
    """The forms rows[i] . (x_0, ..., x_{n-1}) + shift[i], one per row.

    Entries are scalars of field; each form's term dict is built directly.
    """
    n = len(rows[0])
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    forms = []
    for i, row in enumerate(rows):
        terms = {e: c for e, c in zip(units, row) if c}
        if shift is not None and shift[i]:
            terms[(0,) * n] = shift[i]
        forms.append(Polynomial._raw(field, n, terms))
    return forms


def _linear_part(polys):
    """The coefficient rows of x_0..x_{n-1} in polys, one row per polynomial.

    Each row is read in one pass over the polynomial's terms; every entry
    not among them is the one zero of the field.
    """
    zero = polys[0].field.zero()
    rows = []
    for p in polys:
        row = [zero] * p.nvars
        for e, c in p.terms.items():
            if sum(e) == 1:
                row[e.index(1)] = c
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """A reduced fraction of polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial.one(num.field, num.nvars)
        num._check_compatible(den)
        if den.is_zero:
            raise DivisionByZeroError("zero denominator")
        if num.is_zero:
            den = Polynomial.one(num.field, num.nvars)
        else:
            if not (num.is_constant or den.is_constant):
                _, (num, den) = _gcd_cofactors([num, den])
            lc = den.leading_coefficient()
            if lc != 1:
                inv = lc.inverse()
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    @property
    def nvars(self):
        return self.num.nvars

    @classmethod
    def from_polynomial(cls, p):
        return cls(p)

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den.is_constant

    def __add__(self, other):
        if isinstance(other, (int, Scalar, Polynomial)):
            other = RationalFunction(self.num._coerce(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Scalar, Polynomial)):
            other = RationalFunction(self.num._coerce(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar, Polynomial)):
            other = RationalFunction(self.num._coerce(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Scalar, Polynomial)):
            other = RationalFunction(self.num._coerce(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if other.is_zero:
            raise DivisionByZeroError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if isinstance(other, (int, Scalar, Polynomial)):
            other = RationalFunction(self.num._coerce(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def is_defined_at(self, vals):
        return bool(self.den.evaluate(vals))

    def evaluate(self, vals):
        powers = _powers_at(self.field, self.nvars, vals)
        d = _value(self.field, self.den.terms, powers)
        if not d:
            raise PoleAtPointError(f"denominator vanishes at {[str(v) for v in vals]}")
        return _value(self.field, self.num.terms, powers) / d

    def __str__(self):
        if self.is_polynomial:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self})"


def jacobian(fs, point):
    """Jacobian matrix of a tuple of rational functions at a point.

    Row i holds the partial derivatives of fs[i]; every denominator must be
    nonzero at the point.  Numerators and denominators give their values
    and gradients in one pass over their terms each.
    """
    if not fs:
        raise PreconditionError("jacobian of an empty tuple")
    field = fs[0].field
    m = fs[0].nvars
    point = [field.from_int(v) if isinstance(v, int) else v for v in point]
    if len(point) != m:
        raise ArityMismatchError(f"point has {len(point)} coordinates, expected {m}")
    powers = _powers_at(field, m, point)
    rows = []
    for f in fs:
        if f.field != field or f.nvars != m:
            _powers_at(f.field, f.nvars, point)  # raises as evaluating f would
        d, dd = _value_and_gradient(field, f.den.terms, powers)
        if not d:
            raise PoleAtPointError("jacobian at a pole")
        n, dn = _value_and_gradient(field, f.num.terms, powers)
        inv = d.inverse()
        if any(dd):
            inv2 = inv * inv
            rows.append([(a * d - n * b) * inv2 for a, b in zip(dn, dd)])
        else:
            rows.append([a * inv for a in dn])
    return rows


# ---------------------------------------------------------------------------
# text format: variables x0..x9, ^ for powers, * explicit or implicit


_BRACKETS = frozenset("()[]")


def split_group(text, sep):
    """Split on sep at bracket depth zero."""
    if _BRACKETS.isdisjoint(text):
        return text.split(sep)
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return parts


# one token per match, after optional whitespace: an integer literal, a
# variable, a symbol, the literal i, or any other character (an error)
_TOKEN = re.compile(r"\s*(?:(\d+)|x(\d+)|([-+*/^()])|(i)|(\S))")


def _tokenize(text):
    tokens = []
    try:
        for literal, var, symbol, imag, other in _TOKEN.findall(text):
            if literal:
                tokens.append(("int", int(literal)))
            elif var:
                tokens.append(("var", int(var)))
            elif symbol:
                tokens.append((symbol, None))
            elif imag:
                tokens.append(("imag", None))
            else:
                raise ParseError(f"unexpected character {other!r} in {text!r}")
    except ValueError:
        # int() refuses literals past sys.get_int_max_str_digits() digits
        raise ParseError("integer literal too long") from None
    return tokens


# Python prints no int of more digits (sys.set_int_max_str_digits' default),
# and the tokenizer reads none: a power or product of literals that reaches
# _LITERAL_CAP is refused, before a power is computed
_LITERAL_DIGITS = 4300
_LITERAL_CAP = 10**_LITERAL_DIGITS


class _PolyParser:
    """Recursive descent that folds a sum into one term dict, term by term.

    A term is read as a coefficient, an exponent vector and the product of
    its nonconstant parenthesised factors, if any; only those cost
    polynomial products.  The term's integer literals multiply into an int
    numerator and denominator, which become one Scalar per term; only i
    and parenthesised constants cost Scalar arithmetic.  Over F_p those
    ints are reduced mod p; over Q and Q(i) they stay below _LITERAL_CAP,
    and so does every part of a constant group, its powers and products.
    """

    def __init__(self, tokens, field, nvars, offset):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.nvars = nvars
        self.offset = offset
        self.modulus = field.modulus if field.kind is FieldKind.PRIME_FIELD else None

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError("trailing input after polynomial")
        return p

    def expr(self):
        kind, _ = self.peek()
        sign = 1
        if kind in ("+", "-"):
            self.take()
            sign = -1 if kind == "-" else 1
        terms = {}
        while True:
            c, exps, group = self.term(sign)
            if group is None:
                _fold(terms, tuple(exps), c)
            elif c:
                for e, gc in group.terms.items():
                    _fold(terms, tuple(x + y for x, y in zip(e, exps)), gc * c)
            kind, _ = self.peek()
            if kind not in ("+", "-"):
                return Polynomial._raw(self.field, self.nvars, terms)
            self.take()
            sign = -1 if kind == "-" else 1

    def term(self, sign):
        num, den = sign, 1
        c = None  # the product of i and the constant groups
        exps = [0] * self.nvars
        group = None
        divide = False
        while True:
            f = self.factor()
            if isinstance(f, int):
                if not divide:
                    num = self.literal(num * f)
                elif not f or (self.modulus and not f % self.modulus):
                    raise ParseError("division by zero in literal")
                else:
                    den = self.literal(den * f)
            elif isinstance(f, tuple):
                if divide and f[1]:
                    raise ParseError("division only by constants")
                exps[f[0]] += f[1]
            elif isinstance(f, Polynomial):
                if divide:
                    raise ParseError("division only by constants")
                group = f if group is None else group * f
            else:
                if divide:
                    if not f:
                        raise ParseError("division by zero in literal")
                    f = f.inverse()
                c = f if c is None else self.bounded(c * f)
            kind, _ = self.peek()
            if kind in ("*", "/"):
                self.take()
                divide = kind == "/"
            elif kind in ("int", "var", "imag", "("):
                divide = False
            else:
                lit = self.field.from_fraction(num, den)
                return (lit if c is None else lit * c), exps, group

    def literal(self, n):
        # a product of literals, each below _LITERAL_CAP or a power below its square
        if self.modulus:
            return n % self.modulus
        if abs(n) >= _LITERAL_CAP:
            raise LimitExceededError(f"a literal product passes {_LITERAL_DIGITS} digits")
        return n

    def factor(self):
        # an int literal, a Scalar, a variable power (slot, k) or a
        # nonconstant Polynomial
        f = self.atom()
        kind, _ = self.peek()
        if kind == "^":
            self.take()
            ekind, k = self.take()
            if ekind != "int":
                raise ParseError("exponent must be an integer literal")
            if isinstance(f, tuple):
                f = (f[0], k)
            elif isinstance(f, int):
                if self.modulus:
                    f = pow(f, k, self.modulus)
                elif (f.bit_length() - 1) * k >= _LITERAL_CAP.bit_length():
                    # f^k >= 2^((bits - 1)*k)
                    raise LimitExceededError(f"a literal power passes {_LITERAL_DIGITS} digits")
                else:
                    f = f**k
            elif isinstance(f, Scalar):
                f = self.power(f, k)
            else:
                f = f**k
        return f

    def bounded(self, s):
        # a constant group, or a power or product of them, below _LITERAL_CAP
        if self.field._bit_size(s) >= _LITERAL_CAP.bit_length():
            raise LimitExceededError(f"a constant passes {_LITERAL_DIGITS} digits")
        return s

    def power(self, s, k):
        # s^k by squaring, every factor bounded: unless s is 0 or a root of
        # unity its factors grow with each squaring, so a huge k is refused
        # within a few dozen steps; over F_p nothing grows
        result = self.field.one()
        while k:
            if k & 1:
                result = self.bounded(result * s)
            k >>= 1
            if k:
                s = self.bounded(s * s)
        return result

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return val
        if kind == "imag":
            if self.field.kind is not FieldKind.GAUSSIAN_RATIONAL:
                raise ParseError("the literal i needs the field Qi")
            return self.field.from_pair(0, 1)
        if kind == "var":
            slot = val - self.offset
            if not 0 <= slot < self.nvars:
                raise ParseError(f"variable x{val} out of range")
            return (slot, 1)
        if kind == "(":
            p = self.expr()
            ckind, _ = self.take()
            if ckind != ")":
                raise ParseError("expected closing parenthesis")
            return p.constant_term() if p.is_constant else p
        raise ParseError(f"unexpected token {kind!r}")


# A sum of terms [+-] [a[/b]] [*] x_i[^k]*..., what poly_str prints over Q
# and F_p, is read one match per term, whitespace as the tokenizer allows
# it; any other text, errors included, goes to the descent.
_MONOMIAL = r"x\d+(?:\s*\^\s*\d+)?(?:\s*(?:\*\s*)?x\d+(?:\s*\^\s*\d+)?)*"
_TERM = re.compile(
    rf"\s*(?:([-+])\s*)?(?:(\d+)(?:\s*/\s*(\d+))?(?:\s*(?:\*\s*)?({_MONOMIAL}))?|({_MONOMIAL}))\s*"
)
_POWER = re.compile(r"x(\d+)(?:\s*\^\s*(\d+))?")


def _sum_of_terms(text, field, nvars, offset):
    """The term dict of a plain sum of terms, or None for the descent."""
    p = field.modulus if field.kind is FieldKind.PRIME_FIELD else None
    match = _TERM.match
    terms = {}
    pos, end = 0, len(text)
    try:
        while pos < end:
            m = match(text, pos)
            if m is None:
                return None
            sign, num, den, mono, bare = m.groups()
            if pos and not sign:
                return None
            pos = m.end()
            exps = [0] * nvars
            for var, k in _POWER.findall(mono or bare or ""):
                slot = int(var) - offset
                if not 0 <= slot < nvars:
                    return None
                exps[slot] += int(k) if k else 1
            num = int(num) if num else 1
            if sign == "-":
                num = -num
            if den:
                den = int(den)
                if not den or (p and not den % p):
                    return None
                c = field.from_fraction(num, den)
            else:
                c = field.from_int(num)
            _fold(terms, tuple(exps), c)
    except ValueError:
        # int() refuses literals past sys.get_int_max_str_digits() digits
        return None
    return terms if pos else None


def _descend(text, field, nvars, offset):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    return _PolyParser(tokens, field, nvars, offset).parse()


def parse_poly(text, field, nvars, offset=0):
    """Parse a polynomial; variables are x{offset}..x{offset+nvars-1}."""
    terms = _sum_of_terms(text, field, nvars, offset)
    if terms is None:
        return _descend(text, field, nvars, offset)
    return Polynomial._raw(field, nvars, terms)


def parse_scalar(text, field):
    """Parse a scalar literal: integers, fractions a/b, i, sums and products."""
    p = parse_poly(text, field, 0)
    return p.constant_term()


def poly_str(p, offset=0):
    order = sorted(p.terms, key=_heap_key)
    return _poly_str(p, order, {e: _monomial_str(e, offset) for e in order})


def _monomial_str(exps, offset):
    return "*".join(f"x{v + offset}" if k == 1 else f"x{v + offset}^{k}" for v, k in enumerate(exps) if k)


def _poly_str(p, order, monomials):
    """poly_str of p, given its monomials in grevlex order and their texts.

    order may hold more monomials than p's, and monomials maps each to its
    text: map_str sorts the monomials of all components of a map once.
    """
    if p.is_zero:
        return "0"
    terms = p.terms
    order = [e for e in order if e in terms]
    out = []
    for e, (neg, cs) in zip(order, p.field._sum_texts([terms[e] for e in order])):
        mono = monomials[e]
        if mono and cs == "1":
            body = mono
        else:
            body = f"{cs}*{mono}" if mono else cs
        out.append(f" - {body}" if neg else f" + {body}")
    first = out[0]
    out[0] = "-" + first[3:] if first[1] == "-" else first[3:]
    return "".join(out)
