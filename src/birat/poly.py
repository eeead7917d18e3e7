"""Sparse multivariate polynomials and rational functions, exactly.

Polynomials are dicts mapping exponent tuples to nonzero scalars; the
canonical term order is graded reverse lexicographic (grevlex), which fixes
leading coefficients, printing, and hence every normalization downstream.
The zero polynomial has total degree None.

Rational functions are kept reduced (numerator and denominator coprime) with
a monic denominator, so structural equality is semantic equality.
"""

from __future__ import annotations

import random

from . import _kernels
from .errors import (
    ArityMismatchError,
    DegreeMismatchError,
    DivisionByZeroError,
    FieldMismatchError,
    InexactDivisionError,
    ParseError,
    PoleAtPointError,
    PreconditionError,
)
from .scalars import FieldKind, Scalar


def grevlex_key(exps):
    # larger key <=> larger monomial in grevlex
    return (sum(exps), tuple(-e for e in reversed(exps)))


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
        return max(sum(e) for e in self.terms)

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
            if c.field != self.field:
                raise FieldMismatchError(f"{self.field} vs {c.field}")
            return Polynomial._raw(self.field, self.nvars, _kernels.scale_terms(self.terms, c))
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return Polynomial._raw(self.field, self.nvars, _kernels.mul_terms(self.terms, other.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Polynomial.one(self.field, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        e = max(self.terms, key=grevlex_key)
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
        if len(vals) != self.nvars:
            raise ArityMismatchError(f"expected {self.nvars} values, got {len(vals)}")
        vals = [self.field.from_int(v) if isinstance(v, int) else v for v in vals]
        for v in vals:
            if v.field != self.field:
                raise FieldMismatchError(f"{self.field} vs {v.field}")
        acc = self.field.zero()
        for exps, c in self.terms.items():
            t = c
            for v, k in enumerate(exps):
                if k:
                    t = t * vals[v] ** k
            acc = acc + t
        return acc

    def substitute(self, polys):
        """Substitute polys[v] for variable v; polys may live in another arity."""
        if len(polys) != self.nvars:
            raise ArityMismatchError(f"expected {self.nvars} polynomials, got {len(polys)}")
        if not polys:
            return self
        field = self.field
        m = polys[0].nvars
        for g in polys:
            if g.field != field:
                raise FieldMismatchError(f"{field} vs {g.field}")
            if g.nvars != m:
                raise ArityMismatchError("substituted polynomials disagree on arity")
        # cache powers of each substituted polynomial
        maxdeg = [0] * self.nvars
        for exps in self.terms:
            for v, k in enumerate(exps):
                if k > maxdeg[v]:
                    maxdeg[v] = k
        pows = []
        for v in range(self.nvars):
            lst = [Polynomial.one(field, m)]
            for _ in range(maxdeg[v]):
                lst.append(lst[-1] * polys[v])
            pows.append(lst)
        acc = Polynomial.zero(field, m)
        for exps, c in self.terms.items():
            t = Polynomial.constant(field, m, c)
            for v, k in enumerate(exps):
                if k:
                    t = t * pows[v][k]
            acc = acc + t
        return acc

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


# ---------------------------------------------------------------------------
# exact division and gcd


def exact_div(a, b):
    """Divide a by b, raising InexactDivisionError on a nonzero remainder."""
    a._check_compatible(b)
    if b.is_zero:
        raise DivisionByZeroError("division by the zero polynomial")
    if a.is_zero:
        return a
    if b.is_constant:
        return a * b.constant_term().inverse()
    lt_e, lt_c = b.leading_term()
    lt_c_inv = lt_c.inverse()
    rem = dict(a.terms)
    quo = {}
    while rem:
        e = max(rem, key=grevlex_key)
        c = rem[e]
        d = tuple(x - y for x, y in zip(e, lt_e))
        if any(x < 0 for x in d):
            raise InexactDivisionError("division leaves a nonzero remainder")
        q = c * lt_c_inv
        quo[d] = q
        piece = _kernels.mul_terms({d: q}, b.terms)
        rem = _kernels.add_terms(rem, {k: -v for k, v in piece.items()})
    return Polynomial._raw(a.field, a.nvars, quo)


def divides(b, a):
    """True when b divides a exactly (b nonzero)."""
    try:
        exact_div(a, b)
    except InexactDivisionError:
        return False
    return True


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
    coeffs = list(_coeffs_in(p, v).values())
    g = coeffs[0]
    for q in coeffs[1:]:
        if g.is_constant:
            break
        g = _gcd_rec(g, q)
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


def _univariate_specialization(p, v, vals):
    """Dense coefficient list of p in variable v, all others set to vals."""
    field = p.field
    out = [field.zero()] * (p.degree_in(v) + 1)
    for exps, c in p.terms.items():
        acc = c
        for j, e in enumerate(exps):
            if j != v and e:
                acc = acc * vals[j] ** e
        out[exps[v]] = out[exps[v]] + acc
    return out


def _dense_mod(fa, fb):
    # remainder of fa by fb; dense lists with nonzero leading coefficients
    fa = list(fa)
    inv = fb[-1].inverse()
    while len(fa) >= len(fb):
        c = fa[-1] * inv
        if c:
            shift = len(fa) - len(fb)
            for i in range(len(fb) - 1):
                fa[shift + i] = fa[shift + i] - c * fb[i]
        fa.pop()
        while fa and not fa[-1]:
            fa.pop()
    return fa


def _univariate_gcd_is_constant(fa, fb):
    while fb:
        fa, fb = fb, _dense_mod(fa, fb)
    return len(fa) == 1


_CERT_SEED = 0x9E3779B9


def _coprime_certificate(a, b):
    """True only when the gcd is certainly constant; False means undecided.

    Any common factor survives specializing all variables but one, and when
    the specialization preserves both leading degrees in the kept variable
    the factor's degree there survives too.  A univariate gcd of 1 therefore
    rules the kept variable out of any common factor, and certifying every
    shared variable proves the gcd constant.  Specialization points are
    deterministic, so the outcome is reproducible.
    """
    field = a.field
    shared = sorted(a.support_vars() & b.support_vars())
    for v in shared:
        da = a.degree_in(v)
        db = b.degree_in(v)
        certified = False
        for attempt in range(2):
            rng = random.Random(_CERT_SEED + 1009 * v + attempt)
            vals = {
                j: field.from_int(rng.randint(2, 23))
                for j in range(a.nvars)
                if j != v
            }
            fa = _univariate_specialization(a, v, vals)
            fb = _univariate_specialization(b, v, vals)
            if fa[da] and fb[db] and _univariate_gcd_is_constant(fa, fb):
                certified = True
                break
        if not certified:
            return False
    return True


def _gcd_rec(a, b):
    # both nonzero; result is a gcd up to a scalar factor
    ma, ra = a.split_monomial_content()
    mb, rb = b.split_monomial_content()
    m = tuple(min(x, y) for x, y in zip(ma, mb))
    vs = ra.support_vars() | rb.support_vars()
    if (
        not vs
        or ra.is_constant
        or rb.is_constant
        or _coprime_certificate(ra, rb)
    ):
        core = Polynomial.one(a.field, a.nvars)
    else:
        v = max(vs)
        da = ra.degree_in(v)
        db = rb.degree_in(v)
        if da == 0:
            core = _gcd_rec(ra, _content_in(rb, v))
        elif db == 0:
            core = _gcd_rec(_content_in(ra, v), rb)
        else:
            cont_a = _content_in(ra, v)
            cont_b = _content_in(rb, v)
            c = _gcd_rec(cont_a, cont_b)
            pa = exact_div(ra, cont_a)
            pb = exact_div(rb, cont_b)
            f, g = (pa, pb) if da >= db else (pb, pa)
            while True:
                r = _prem(f, g, v)
                if r.is_zero:
                    core = c * g
                    break
                if r.degree_in(v) == 0:
                    core = c
                    break
                f, g = g, exact_div(r, _content_in(r, v)).monic()
    if any(m):
        core = core * Polynomial.monomial(a.field, a.nvars, m)
    return core


def poly_gcd(a, b):
    """Greatest common divisor, normalized to grevlex leading coefficient 1."""
    a._check_compatible(b)
    if a.is_zero and b.is_zero:
        raise PreconditionError("gcd of two zero polynomials")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    return _gcd_rec(a, b).monic()


def poly_gcd_list(ps):
    ps = [p for p in ps if not p.is_zero]
    if not ps:
        raise PreconditionError("gcd of an all-zero family")
    g = ps[0].monic()
    for p in ps[1:]:
        if g.is_constant:
            break
        g = poly_gcd(g, p)
    return g


def poly_lcm(a, b):
    if a.is_zero or b.is_zero:
        raise PreconditionError("lcm with a zero polynomial")
    return exact_div(a * b, poly_gcd(a, b)).monic()


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
        tail = exps[1:]
        prev = out.get(tail)
        if prev is None:
            out[tail] = c
        else:
            s = prev + c
            if s:
                out[tail] = s
            else:
                del out[tail]
    return Polynomial._raw(p.field, p.nvars - 1, out)


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
                g = poly_gcd(num, den)
                if not g.is_constant:
                    num = exact_div(num, g)
                    den = exact_div(den, g)
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
        d = self.den.evaluate(vals)
        if not d:
            raise PoleAtPointError(f"denominator vanishes at {[str(v) for v in vals]}")
        return self.num.evaluate(vals) / d

    def __str__(self):
        if self.is_polynomial:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self})"


def jacobian(fs, point):
    """Jacobian matrix of a tuple of rational functions at a point.

    Row i holds the partial derivatives of fs[i]; every denominator must be
    nonzero at the point.
    """
    if not fs:
        raise PreconditionError("jacobian of an empty tuple")
    field = fs[0].field
    m = fs[0].nvars
    point = [field.from_int(v) if isinstance(v, int) else v for v in point]
    if len(point) != m:
        raise ArityMismatchError(f"point has {len(point)} coordinates, expected {m}")
    rows = []
    for f in fs:
        d = f.den.evaluate(point)
        if not d:
            raise PoleAtPointError("jacobian at a pole")
        n = f.num.evaluate(point)
        row = []
        for v in range(m):
            dn = f.num.derivative(v).evaluate(point)
            dd = f.den.derivative(v).evaluate(point)
            row.append((dn * d - n * dd) / (d * d))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# text format: variables x0..x9, ^ for powers, * explicit or implicit


def split_group(text, sep):
    """Split on sep at bracket depth zero."""
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


_SYMBOLS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, None))
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[k:j])))
            k = j
            continue
        if ch == "x" and k + 1 < n and text[k + 1].isdigit():
            j = k + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("var", int(text[k + 1 : j])))
            k = j
            continue
        if ch == "i":
            tokens.append(("imag", None))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class _PolyParser:
    def __init__(self, tokens, field, nvars, offset):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.nvars = nvars
        self.offset = offset

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
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            kind, _ = self.peek()
            if kind == "+":
                self.take()
                p = p + self.term()
            elif kind == "-":
                self.take()
                p = p - self.term()
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, _ = self.peek()
            if kind == "*":
                self.take()
                p = p * self.factor()
            elif kind == "/":
                self.take()
                q = self.factor()
                if not q.is_constant:
                    raise ParseError("division only by constants")
                c = q.constant_term()
                if not c:
                    raise ParseError("division by zero in literal")
                p = p * c.inverse()
            elif kind in ("int", "var", "imag", "("):
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.atom()
        kind, _ = self.peek()
        if kind == "^":
            self.take()
            ekind, eval_ = self.take()
            if ekind != "int":
                raise ParseError("exponent must be an integer literal")
            p = p**eval_
        return p

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return Polynomial.constant(self.field, self.nvars, val)
        if kind == "imag":
            if self.field.kind is not FieldKind.GAUSSIAN_RATIONAL:
                raise ParseError("the literal i needs the field Qi")
            return Polynomial.constant(self.field, self.nvars, self.field.from_pair(0, 1))
        if kind == "var":
            slot = val - self.offset
            if not 0 <= slot < self.nvars:
                raise ParseError(f"variable x{val} out of range")
            return Polynomial.variable(self.field, self.nvars, slot)
        if kind == "(":
            p = self.expr()
            ckind, _ = self.take()
            if ckind != ")":
                raise ParseError("expected closing parenthesis")
            return p
        raise ParseError(f"unexpected token {kind!r}")


def parse_poly(text, field, nvars, offset=0):
    """Parse a polynomial; variables are x{offset}..x{offset+nvars-1}."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    return _PolyParser(tokens, field, nvars, offset).parse()


def parse_scalar(text, field):
    """Parse a scalar literal: integers, fractions a/b, i, sums and products."""
    p = parse_poly(text, field, 0)
    return p.constant_term()


def _coeff_sign_split(c):
    # (negative, magnitude, needs_parens)
    if c.field.kind is FieldKind.RATIONAL:
        return c.value < 0, -c if c.value < 0 else c, False
    if c.field.kind is FieldKind.GAUSSIAN_RATIONAL:
        re, im = c.value
        if not im:
            return re < 0, -c if re < 0 else c, False
        if not re:
            return im < 0, -c if im < 0 else c, False
        return False, c, True
    return False, c, False


def poly_str(p, offset=0):
    if p.is_zero:
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[exps]
        mono = "*".join(
            f"x{v + offset}" if k == 1 else f"x{v + offset}^{k}"
            for v, k in enumerate(exps)
            if k
        )
        neg, mag, parens = _coeff_sign_split(c)
        if mono and mag == 1:
            body = mono
        else:
            cs = f"({mag})" if parens else str(mag)
            body = f"{cs}*{mono}" if mono else cs
        pieces.append(("-" if neg else "+", body))
    sign, body = pieces[0]
    out = [f"-{body}" if sign == "-" else body]
    for sign, body in pieces[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)
