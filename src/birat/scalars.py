"""Exact scalar arithmetic over the three coefficient fields.

Supported fields: the rationals Q, the Gaussian rationals Q(i), and prime
fields F_p.  Every value is stored in a canonical form (lowest terms with a
positive denominator for rational parts, residues in [0, p) for prime
fields), so equality and hashing are structural and no floating point is
involved anywhere.  A rational is a (numerator, denominator) pair of ints,
which the _q_* helpers keep canonical with one gcd per operation; a Gaussian
rational (a + b*i)/d is an (a, b, d) triple of ints, which the _qi_* helpers
keep canonical with one three-argument gcd per operation.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadModulusError,
    DivisionByZeroError,
    FieldMismatchError,
    ParseError,
)


class FieldKind(enum.Enum):
    RATIONAL = "Q"
    GAUSSIAN_RATIONAL = "Qi"
    PRIME_FIELD = "Fp"


# the least strong pseudoprime to all twelve bases below (399165290221 *
# 798330580441); Miller-Rabin with these bases is proven only below it
_MR_BOUND = 318665857834031151167461


def _q(n, d):
    """The canonical pair of the rational n/d, d nonzero."""
    if d < 0:
        n, d = -n, -d
    g = math.gcd(n, d)
    return (n // g, d // g) if g != 1 else (n, d)


def _q_add(x, y):
    a, b = x
    c, d = y
    if b == 1 and d == 1:
        return a + c, 1
    return _q(a * d + c * b, b * d)


def _q_mul(x, y):
    a, b = x
    c, d = y
    if not (a and c):
        return 0, 1
    if b == 1 and d == 1:
        return a * c, 1
    # each cross gcd cancels what the other factor's denominator shares
    g = math.gcd(a, d)
    h = math.gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _q_inv(x):
    a, b = x
    return (b, a) if a > 0 else (-b, -a)


def _q_str(x):
    a, b = x
    return str(a) if b == 1 else f"{a}/{b}"


def _qi(a, b, d):
    """The canonical triple of the Gaussian rational (a + b*i)/d, d nonzero."""
    if d < 0:
        a, b, d = -a, -b, -d
    g = math.gcd(a, b, d)
    return (a // g, b // g, d // g) if g != 1 else (a, b, d)


def _qi_add(x, y):
    a, b, d = x
    c, e, f = y
    if d == f:
        return (a + c, b + e, 1) if d == 1 else _qi(a + c, b + e, d)
    return _qi(a * f + c * d, b * f + e * d, d * f)


def _qi_mul(x, y):
    a, b, d = x
    c, e, f = y
    if d == 1 and f == 1:
        return a * c - b * e, a * e + b * c, 1
    return _qi(a * c - b * e, a * e + b * c, d * f)


def _qi_inv(x):
    # d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)
    a, b, d = x
    return _qi(a * d, -b * d, a * a + b * b)


def _qi_parts(x):
    """The canonical pairs of the real and the imaginary part of x."""
    a, b, d = x
    return _q(a, d), _q(b, d)


def _is_prime(n):
    # Miller-Rabin, deterministic below _MR_BOUND
    if n >= _MR_BOUND:
        raise BadModulusError(
            f"cannot prove {n} prime: moduli must be below {_MR_BOUND}"
        )
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: Q, Q(i), or F_p (p an odd or even prime)."""

    kind: FieldKind
    modulus: int | None = None

    def __post_init__(self):
        if self.kind is FieldKind.PRIME_FIELD:
            if self.modulus is None or not _is_prime(self.modulus):
                raise BadModulusError(f"modulus must be prime, got {self.modulus}")
        elif self.modulus is not None:
            raise BadModulusError("modulus only makes sense for prime fields")

    @property
    def characteristic(self):
        return self.modulus if self.kind is FieldKind.PRIME_FIELD else 0

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        if self.kind is FieldKind.RATIONAL:
            return Scalar(self, (operator.index(n), 1))
        if self.kind is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self, (operator.index(n), 0, 1))
        return Scalar(self, n % self.modulus)

    def from_fraction(self, num, den=1):
        """num/den for ints or Fractions num and den."""
        if type(num) is int and type(den) is int:
            if not den:
                raise DivisionByZeroError(f"zero denominator in {num}/0")
            n, d = _q(num, den)
        else:
            fr = Fraction(num, den)
            n, d = fr.numerator, fr.denominator
        if self.kind is FieldKind.RATIONAL:
            return Scalar(self, (n, d))
        if self.kind is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self, (n, 0, d))
        p = self.modulus
        if d % p == 0:
            raise DivisionByZeroError(f"denominator of {_q_str((n, d))} vanishes mod {p}")
        return Scalar(self, n * pow(d, -1, p) % p)

    def from_pair(self, re, im):
        """Gaussian rational re + im*i."""
        if self.kind is not FieldKind.GAUSSIAN_RATIONAL:
            raise FieldMismatchError("real/imaginary pairs only exist over Q(i)")
        re, im = (x if isinstance(x, (int, Fraction)) else Fraction(x) for x in (re, im))
        a, r = re.numerator, re.denominator
        b, s = im.numerator, im.denominator
        if r == s:
            return Scalar(self, (a, b, r))
        # over the lcm of the parts' denominators the triple is canonical
        d = math.lcm(r, s)
        return Scalar(self, (a * (d // r), b * (d // s), d))

    # Raw values, what the inner loops of poly.py and matrices.py run on:
    # residues mod p over F_p (not always reduced inside a loop), integers
    # over Q and _GaussianInt over Q(i), the latter two standing for
    # themselves over a denominator that the loop keeps on the side.  Each
    # has +, -, *, == and truthiness.

    def _den(self, scalars):
        """The least common denominator of the scalars; 1 over F_p."""
        if self.kind is FieldKind.RATIONAL:
            return math.lcm(*(s.value[1] for s in scalars))
        if self.kind is FieldKind.GAUSSIAN_RATIONAL:
            return math.lcm(*(s.value[2] for s in scalars))
        return 1

    def _encode(self, scalars, den, weights=None):
        """The raw values of den*s for s in scalars, each times its weight.

        den must clear every denominator (see _den).  weights hold one
        integer per scalar; over F_p, where den is 1, they must be 1 too
        and are not read.
        """
        if self.kind is FieldKind.PRIME_FIELD:
            return [s.value for s in scalars]
        if weights is None:
            weights = itertools.repeat(1)
        if self.kind is FieldKind.RATIONAL:
            return [n * (den // d) * w for (n, d), w in zip((s.value for s in scalars), weights)]
        out = []
        for (a, b, d), w in zip((s.value for s in scalars), weights):
            m = den // d * w
            out.append(_GaussianInt(a * m, b * m))
        return out

    def _decode(self, raws, den):
        """The Scalars r/den for r in raws; den is a nonzero raw value."""
        if self.kind is FieldKind.PRIME_FIELD:
            p = self.modulus
            if den != 1:
                inv = pow(den, -1, p)
                return [Scalar(self, r * inv % p) for r in raws]
            return [Scalar(self, r % p) for r in raws]
        if self.kind is FieldKind.RATIONAL:
            if den == 1:
                return [Scalar(self, (r, 1)) for r in raws]
            return [Scalar(self, _q(r, den)) for r in raws]
        if isinstance(den, _GaussianInt):
            conj = _GaussianInt(den.re, -den.im)
            raws = [r * conj for r in raws]
            den = den.re * den.re + den.im * den.im
        if den == 1:
            return [Scalar(self, (r.re, r.im, 1)) for r in raws]
        return [Scalar(self, _qi(r.re, r.im, den)) for r in raws]

    def _scale(self, scalars, c):
        """The Scalars s*c for s in scalars; c is a nonzero Scalar.

        What Scalar.__mul__ computes, on the payloads, with no Scalar
        product per term: none of the products vanishes.
        """
        v = c.value
        if self.kind is FieldKind.PRIME_FIELD:
            p = self.modulus
            return [Scalar(self, s.value * v % p) for s in scalars]
        if self.kind is FieldKind.RATIONAL:
            return [Scalar(self, _q_mul(s.value, v)) for s in scalars]
        return [Scalar(self, _qi_mul(s.value, v)) for s in scalars]

    def _bit_size(self, s):
        """The bit size of the Scalar s: of its largest numerator or denominator.

        Over Q(i) these are the real and the imaginary part's, in lowest terms.
        """
        v = s.value
        if self.kind is FieldKind.PRIME_FIELD:
            return v.bit_length()
        if self.kind is FieldKind.RATIONAL:
            return max(v[0].bit_length(), v[1].bit_length())
        return max(x.bit_length() for q in _qi_parts(v) for x in q)

    def _raw_int(self, n):
        """The raw value of the integer n."""
        if self.kind is FieldKind.PRIME_FIELD:
            return n % self.modulus
        if self.kind is FieldKind.GAUSSIAN_RATIONAL:
            return _GaussianInt(n, 0)
        return n

    def _content(self, raws):
        """A gcd of the nonzero raw values in Z or Z[i]; 1 over F_p.

        Over Q it is positive; over Q(i) it is 1 where the gcd is a unit.
        """
        if self.kind is FieldKind.RATIONAL:
            return math.gcd(*raws)
        if self.kind is FieldKind.PRIME_FIELD:
            return 1
        g = None
        for r in raws:
            g = r if g is None else _gaussian_gcd(g, r)
            if g.re * g.re + g.im * g.im == 1:
                return _GaussianInt(1, 0)
        return g

    def _divider(self, d, check=False):
        """A function dividing raw values by the nonzero raw value d.

        Over F_p the result is reduced.  Over Q and Q(i) the quotient must
        be exact, unless check is set: then the function returns None where
        d does not divide the value in Z or Z[i].
        """
        if self.kind is FieldKind.PRIME_FIELD:
            p = self.modulus
            inv = pow(d, -1, p)
            return lambda v: v * inv % p
        if not check:
            return lambda v: v // d
        if self.kind is FieldKind.RATIONAL:

            def divide(v):
                q, r = divmod(v, d)
                return None if r else q

            return divide
        # v/d = v*conj(d)/N(d)
        c, e = d.re, d.im
        n = c * c + e * e

        def divide_gaussian(v):
            x, rx = divmod(v.re * c + v.im * e, n)
            y, ry = divmod(v.im * c - v.re * e, n)
            return None if rx or ry else _GaussianInt(x, y)

        return divide_gaussian

    def _sum_texts(self, scalars):
        """(negative, text) per scalar: a sum prints it as its sign, then text.

        text is that of -s where negative, and parenthesised where s has
        both a real and an imaginary part; it is "1" only for 1.
        """
        if self.kind is FieldKind.PRIME_FIELD:
            return [(False, str(s.value)) for s in scalars]
        out = []
        if self.kind is FieldKind.RATIONAL:
            for s in scalars:
                n, d = s.value
                out.append((True, _q_str((-n, d))) if n < 0 else (False, _q_str((n, d))))
            return out
        for s in scalars:
            a, b, _ = s.value
            if a and b:
                out.append((False, f"({s})"))
            elif (a or b) < 0:
                out.append((True, str(-s)))
            else:
                out.append((False, str(s)))
        return out

    def __str__(self):
        if self.kind is FieldKind.PRIME_FIELD:
            return f"F{self.modulus}"
        return self.kind.value

    __repr__ = __str__


class _GaussianInt:
    """a + b*i with integer a and b: the raw value over Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, other):
        return _GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return _GaussianInt(-self.re, -self.im)

    def __mul__(self, other):
        a, b = self.re, self.im
        c, d = other.re, other.im
        return _GaussianInt(a * c - b * d, a * d + b * c)

    def __floordiv__(self, other):
        # exact division only: multiply by the conjugate, divide by the norm
        a, b = self.re, self.im
        c, d = other.re, other.im
        n = c * c + d * d
        return _GaussianInt((a * c + b * d) // n, (b * c - a * d) // n)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.re == other and not self.im
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re or self.im)


def _gaussian_gcd(x, y):
    """A gcd of two Gaussian integers, by Euclid's algorithm.

    Each quotient is x/y rounded to the nearest Gaussian integer, which
    leaves a remainder of at most half the norm of y.
    """
    while y:
        n = y.re * y.re + y.im * y.im
        # x*conj(y) = a + b*i, and x/y = (a + b*i)/n
        a = x.re * y.re + x.im * y.im
        b = x.im * y.re - x.re * y.im
        q = _GaussianInt((2 * a + n) // (2 * n), (2 * b + n) // (2 * n))
        x, y = y, x - q * y
    return x


QQ = FieldSpec(FieldKind.RATIONAL)
QI = FieldSpec(FieldKind.GAUSSIAN_RATIONAL)


def GF(p):
    return FieldSpec(FieldKind.PRIME_FIELD, p)


def parse_field(text):
    """Parse a field name: ``Q``, ``Qi``, or ``Fp:<prime>``."""
    text = text.strip()
    if text == "Q":
        return QQ
    if text == "Qi":
        return QI
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ParseError(f"bad prime field spec {text!r}") from None
        return GF(p)
    raise ParseError(f"unknown field {text!r}, expected Q, Qi, or Fp:<prime>")


class Scalar:
    """An element of one of the supported fields, in canonical form.

    The payload depends on the field: a (numerator, denominator) pair of
    ints in lowest terms with a positive denominator over Q, an (a, b, d)
    triple of ints standing for (a + b*i)/d with d > 0 and gcd(a, b, d) = 1
    over Q(i), and a residue in [0, p) over F_p.  str, == and hash over Q
    agree with those of the equal Fraction, and over Q(i) with those of the
    pair of Fractions (real, imaginary).
    Arithmetic mixes freely with Python ints, which are promoted into the
    field.
    """

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            # fields are mostly the same object; FieldSpec.__eq__ is slow
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            return Scalar(self.field, _q_add(self.value, other.value))
        if k is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self.field, _qi_add(self.value, other.value))
        return Scalar(self.field, (self.value + other.value) % self.field.modulus)

    __radd__ = __add__

    def __neg__(self):
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            a, b = self.value
            return Scalar(self.field, (-a, b))
        if k is FieldKind.GAUSSIAN_RATIONAL:
            a, b, d = self.value
            return Scalar(self.field, (-a, -b, d))
        return Scalar(self.field, -self.value % self.field.modulus)

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            return Scalar(self.field, _q_mul(self.value, other.value))
        if k is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self.field, _qi_mul(self.value, other.value))
        return Scalar(self.field, self.value * other.value % self.field.modulus)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZeroError("inverse of zero")
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            return Scalar(self.field, _q_inv(self.value))
        if k is FieldKind.GAUSSIAN_RATIONAL:
            return Scalar(self.field, _qi_inv(self.value))
        return Scalar(self.field, pow(self.value, -1, self.field.modulus))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _square_and_multiply(self, n, self.field.one())

    def conjugate(self):
        """Complex conjugate; the identity on Q and F_p."""
        if self.field.kind is FieldKind.GAUSSIAN_RATIONAL:
            a, b, d = self.value
            return Scalar(self.field, (a, -b, d))
        return self

    def __bool__(self):
        k = self.field.kind
        if k is FieldKind.PRIME_FIELD:
            return bool(self.value)
        if k is FieldKind.RATIONAL:
            return bool(self.value[0])
        return bool(self.value[0] or self.value[1])

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        k = self.field.kind
        if k is FieldKind.RATIONAL:
            n, d = self.value
            return hash(n) if d == 1 else hash(Fraction(n, d))
        if k is FieldKind.GAUSSIAN_RATIONAL:
            a, b, d = self.value
            if d == 1:
                return hash((a, b)) if b else hash(a)
            re = Fraction(a, d)
            return hash((re, Fraction(b, d))) if b else hash(re)
        return hash(self.value)

    def __str__(self):
        k = self.field.kind
        if k is FieldKind.GAUSSIAN_RATIONAL:
            re, im = _qi_parts(self.value)
            if not im[0]:
                return _q_str(re)
            if im == (1, 1):
                istr = "i"
            elif im == (-1, 1):
                istr = "-i"
            else:
                istr = f"{_q_str(im)}i"
            if not re[0]:
                return istr
            return f"{_q_str(re)}+{istr}" if im[0] > 0 else f"{_q_str(re)}{istr}"
        if k is FieldKind.RATIONAL:
            return _q_str(self.value)
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self.field}, {self})"


def _square_and_multiply(base, n, one):
    """base**n for an int n >= 0, with one the neutral element of base's *."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class AutoKind(enum.Enum):
    IDENTITY = "id"
    CONJUGATION = "conj"
    FROBENIUS_POWER = "frob"


@dataclass(frozen=True)
class FieldAutomorphism:
    """A field automorphism usable entrywise on matrices and coefficients.

    Over Q only the identity exists; over Q(i) also complex conjugation; over
    F_p the Frobenius powers x -> x^(p^e), which act as the identity on the
    prime field itself but are kept as first-class values so code handling
    several fields stays uniform.
    """

    field: FieldSpec
    kind: AutoKind
    power: int = 0

    def __post_init__(self):
        if self.kind is AutoKind.CONJUGATION and self.field.kind is not FieldKind.GAUSSIAN_RATIONAL:
            raise FieldMismatchError("conjugation only exists over Q(i)")
        if self.kind is AutoKind.FROBENIUS_POWER:
            if self.field.kind is not FieldKind.PRIME_FIELD:
                raise FieldMismatchError("Frobenius only exists in positive characteristic")
            if self.power < 0:
                raise ParseError("Frobenius power must be nonnegative")

    def __call__(self, s):
        if not isinstance(s, Scalar) or s.field != self.field:
            raise FieldMismatchError("automorphism applied outside its field")
        if self.kind is AutoKind.IDENTITY:
            return s
        if self.kind is AutoKind.CONJUGATION:
            return s.conjugate()
        # x^(p^e) = x on the prime field
        return s

    def compose(self, other):
        """self after other."""
        if other.field != self.field:
            raise FieldMismatchError("cannot compose automorphisms of different fields")
        if self.kind is AutoKind.IDENTITY:
            return other
        if other.kind is AutoKind.IDENTITY:
            return self
        if self.kind is AutoKind.CONJUGATION and other.kind is AutoKind.CONJUGATION:
            return identity_automorphism(self.field)
        return FieldAutomorphism(self.field, AutoKind.FROBENIUS_POWER, self.power + other.power)

    @property
    def is_identity_action(self):
        return self.kind is not AutoKind.CONJUGATION

    def __str__(self):
        if self.kind is AutoKind.FROBENIUS_POWER:
            return f"frob^{self.power}"
        return self.kind.value


def identity_automorphism(field):
    return FieldAutomorphism(field, AutoKind.IDENTITY)


def conjugation(field=QI):
    return FieldAutomorphism(field, AutoKind.CONJUGATION)


def frobenius(field, power=1):
    return FieldAutomorphism(field, AutoKind.FROBENIUS_POWER, power)
