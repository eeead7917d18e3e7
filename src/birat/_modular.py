"""Images of polynomials mod word-size primes, and Brown's gcd on them.

Everything here works on plain ints mod p: dense univariate lists (low
degree first, no trailing zeros) and sparse dicts {exponent tuple: residue}.
poly._gcd_pair encodes each operand once (FieldSpec._encode: residues over
F_p, integers over Q, Gaussian integers over Q(i), over one denominator) and
takes its images here under the ring maps of _embeddings.  The certificate
restricts the first image to one line (_line_certificate), and only where
that leaves the gcd undecided runs _degree_bounds on it; the same encodings
and bounds then feed Brown's dense modular gcd (J. ACM 18, 1971), whose
result poly.py lifts back.  A prime is used only where both images keep
their leading monomial.  The names stay private, so a traced run charges
this work to the gcd's own span.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .scalars import FieldKind, _is_prime


def _u_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _u_rem(f, g, p):
    # remainder of f by g; dense lists mod p, g trimmed and nonzero
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    while len(f) > dg:
        c = f[-1] * inv % p
        if c:
            shift = len(f) - 1 - dg
            for i in range(dg):
                f[shift + i] = (f[shift + i] - c * g[i]) % p
        f.pop()
        _u_trim(f)
    return f


def _u_gcd(f, g, p):
    """Monic gcd of two dense lists mod p; [] when both are zero."""
    f = _u_trim(list(f))
    g = _u_trim(list(g))
    while g:
        f, g = g, _u_rem(f, g, p)
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]


def _u_quo(f, g, p):
    # exact quotient of f by g
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = f[k + dg] * inv % p
        q[k] = c
        if c:
            for i in range(dg):
                f[k + i] = (f[k + i] - c * g[i]) % p
    return q


def _u_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    return [x % p for x in out]


def _u_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _u_content(fs, p):
    # monic gcd of nonzero dense lists, smallest first so that it drops fast
    g = None
    for f in sorted(fs, key=len):
        g = _u_gcd(f, [], p) if g is None else _u_gcd(g, f, p)
        if len(g) == 1:
            break
    return g


# the word-size primes found so far, largest first, per value of one_mod_four
_WORD_PRIMES = {False: [], True: []}


def _word_primes(one_mod_four):
    """Primes below 2**31, largest first; only p = 1 (mod 4) if asked.

    The scan goes down from 2**31 - 1 and keeps what it finds in
    _WORD_PRIMES, so each prime is proven once per process, and a later
    generator reads the list before it scans on from its last entry.
    """
    found = _WORD_PRIMES[one_mod_four]
    k = 0
    while True:
        if k == len(found):
            n = found[-1] - 2 if found else (1 << 31) - 1
            while not ((not one_mod_four or n % 4 == 1) and _is_prime(n)):
                n -= 2
                if n <= 2:
                    return
            found.append(n)
        yield found[k]
        k += 1


def _sqrt_minus_one(p):
    # p = 1 (mod 4): a non-residue's (p-1)/4-th power squares to -1
    for g in range(2, p):
        s = pow(g, (p - 1) // 4, p)
        if s * s % p == p - 1:
            return s


def _embeddings(field):
    """Yield (p, roots): ring maps from the field's raw values into ints mod p.

    Raw values are those of FieldSpec._encode: residues over F_p, integers
    over Q and Gaussian integers over Q(i).  Over F_p the one map is the
    identity, yielded again and again; over Q it is the reduction mod each
    word-size prime; over Q(i) there are two per prime p = 1 (mod 4), which
    send i to the roots s and -s of -1 mod p.  Each map is named by its
    image of i, None where the field has no i; see _image.
    """
    if field.kind is FieldKind.PRIME_FIELD:
        while True:
            yield field.modulus, (None,)
    elif field.kind is FieldKind.RATIONAL:
        for p in _word_primes(False):
            yield p, (None,)
    else:
        for p in _word_primes(True):
            s = _sqrt_minus_one(p)
            yield p, (s, p - s)


def _packer(vs):
    # exponent tuple -> exponents of the variables vs, as a tuple
    if len(vs) == 1:
        v = vs[0]
        return lambda e: (e[v],)
    return operator.itemgetter(*vs)


def _image(raw, p, root):
    """{exponents: int mod p} of a raw term dict under the map i -> root."""
    if root is None:
        return {e: x for e, c in raw.items() if (x := c % p)}
    return {e: x for e, c in raw.items() if (x := (c.re + root * c.im) % p)}


def _degrees(P, n):
    out = [0] * n
    for e in P:
        for j, k in enumerate(e):
            if k > out[j]:
                out[j] = k
    return out


def _univariate_image(P, v, pw, p):
    # dense coefficient list of P on a line through the point r, r_j^k =
    # pw[j][k]: along variable v, the others set to r; for v None the
    # radial line s*r, where a term's degree in s is its total degree
    out = {}
    for e, c in P.items():
        for j, k in enumerate(e):
            if k and j != v:
                c = c * pw[j][k] % p
        d = sum(e) if v is None else e[v]
        out[d] = out.get(d, 0) + c
    f = [0] * (max(out) + 1)
    for k, c in out.items():
        f[k] = c % p
    return f


def _power_tables(rng, p, tops):
    # [1, x, ..., x^top] mod p for a random x per variable, top from tops
    pw = []
    for top in tops:
        x = rng.randrange(p)
        row = [1]
        for _ in range(top):
            row.append(row[-1] * x % p)
        pw.append(row)
    return pw


def _line_certificate(A, B, n, p, rng):
    """True when the gcd of A and B is certainly constant; False: undecided.

    A and B are images in n variables that keep the total degree of the
    operands, and so of any common factor G.  On a line x = r + s*w, G
    keeps its degree in s wherever one operand keeps its own, for the top
    homogeneous part of each operand is a multiple of G's; so a nonconstant
    G leaves a nonconstant common factor of the two restrictions, and a
    constant univariate gcd certifies the gcd constant.  Where an operand
    has a constant term the line is radial, w = r and r = 0, and full degree
    is checked; otherwise it runs along a variable v whose pure top power
    x_v^deg an operand holds, where that operand keeps its degree for any r.
    With neither, s would divide both restrictions of the radial line, and
    the per-variable bounds decide.
    """
    da = max(map(sum, A))
    db = max(map(sum, B))
    zero = (0,) * n
    v = None
    if zero not in A and zero not in B:
        for v in range(n):
            if zero[:v] + (da,) + zero[v + 1:] in A or zero[:v] + (db,) + zero[v + 1:] in B:
                break
        else:
            return False
    pw = _power_tables(rng, p, [max(da, db)] * n)
    fa = _univariate_image(A, v, pw, p)
    fb = _univariate_image(B, v, pw, p)
    if not ((len(fa) == da + 1 and fa[-1]) or (len(fb) == db + 1 and fb[-1])):
        return False
    return len(_u_gcd(fa, fb, p)) == 1


def _degree_bounds(A, B, n, p, rng, attempts):
    """Upper bounds on the degree of gcd(A, B) in each of the n variables.

    Any common factor survives setting all variables but v to values, and
    when that keeps both leading degrees in v its degree in v survives too;
    the univariate gcd's degree therefore bounds the factor's degree in v.
    All bounds zero certify the gcd constant.  A variable keeps the trivial
    bound after `attempts` points that each dropped a leading degree.
    """
    da = _degrees(A, n)
    db = _degrees(B, n)
    bounds = [min(x, y) for x, y in zip(da, db)]
    for _ in range(attempts):
        todo = [v for v in range(n) if bounds[v]]
        if not todo:
            break
        pw = _power_tables(rng, p, map(max, da, db))
        for v in todo:
            fa = _univariate_image(A, v, pw, p)
            fb = _univariate_image(B, v, pw, p)
            if len(fa) == da[v] + 1 and fa[-1] and len(fb) == db[v] + 1 and fb[-1]:
                bounds[v] = min(bounds[v], len(_u_gcd(fa, fb, p)) - 1)
    return bounds


def _split_last(P):
    # {exps: c} -> {exps[:-1]: dense coefficient list in the last variable}
    out = {}
    for e, c in P.items():
        f = out.get(e[:-1])
        if f is None:
            f = out[e[:-1]] = []
        k = e[-1]
        if len(f) <= k:
            f.extend([0] * (k + 1 - len(f)))
        f[k] = c
    return out


def _interpolate(xs, images, p):
    """{head: dense list f in a new last variable} with f(xs[j]) = images[j][head]."""
    n = len(xs)
    master = [1]
    for x in xs:
        master = _u_mul(master, [-x % p, 1], p)
    basis = []
    for x in xs:
        q = [0] * n
        acc = 0
        for i in range(n, 0, -1):
            acc = (master[i] + acc * x) % p
            q[i - 1] = acc
        inv = pow(_u_eval(q, x, p), -1, p)
        basis.append([c * inv % p for c in q])
    heads = set()
    for img in images:
        heads.update(img)
    out = {}
    for h in heads:
        f = [0] * n
        for img, l in zip(images, basis):
            c = img.get(h)
            if c:
                for i in range(n):
                    f[i] += c * l[i]
        f = _u_trim([c % p for c in f])
        if f:
            out[h] = f
    return out


def _brown(A, B, bounds, p, rng):
    """gcd of A and B mod p, monic in lex order, or None on bad luck.

    A and B are {exponents: int} in len(bounds) variables, and bounds[v]
    bounds the degree of the gcd in variable v.  The last variable is set to
    points until images of the gcd times gamma, the gcd of the leading
    coefficients, can be interpolated; an image whose leading monomial is
    larger than another's came from an unlucky point and is dropped.
    """
    k = len(bounds) - 1
    if k == 0:
        fa = [0] * (max(A)[0] + 1)
        fb = [0] * (max(B)[0] + 1)
        for (e,), c in A.items():
            fa[e] = c
        for (e,), c in B.items():
            fb[e] = c
        g = _u_gcd(fa, fb, p)
        if len(g) - 1 > bounds[0]:
            return None
        return {(e,): c for e, c in enumerate(g) if c}
    ga = _split_last(A)
    gb = _split_last(B)
    ca = _u_content(ga.values(), p)
    cb = _u_content(gb.values(), p)
    if len(ca) > 1:
        ga = {h: _u_quo(f, ca, p) for h, f in ga.items()}
    if len(cb) > 1:
        gb = {h: _u_quo(f, cb, p) for h, f in gb.items()}
    cont = _u_gcd(ca, cb, p)
    gamma = _u_gcd(ga[max(ga)], gb[max(gb)], p)
    need = bounds[k] + len(gamma)
    xs, images, lead, used, misses = [], [], None, set(), 0
    for _ in range(min(p, 4 * need + 16)):
        x = rng.randrange(p)
        if x in used:
            continue
        used.add(x)
        gx = _u_eval(gamma, x, p)
        if not gx:
            continue
        ax = {h: c for h, f in ga.items() if (c := _u_eval(f, x, p))}
        bx = {h: c for h, f in gb.items() if (c := _u_eval(f, x, p))}
        h = _brown(ax, bx, bounds[:k], p, rng)
        if h is None:
            misses += 1
            if misses > need:
                return None
            continue
        m = max(h)
        if not any(m):
            # the primitive parts are coprime: the gcd is the content's
            return {(0,) * k + (e,): c for e, c in enumerate(cont) if c}
        if lead is None or m < lead:
            xs, images, lead = [], [], m
        elif m > lead:
            continue
        xs.append(x)
        images.append({e: c * gx % p for e, c in h.items()})
        if len(xs) == need:
            break
    else:
        return None
    H = _interpolate(xs, images, p)
    hc = _u_content(H.values(), p)
    out = {}
    for h, f in H.items():
        if len(hc) > 1:
            f = _u_quo(f, hc, p)
        if len(cont) > 1:
            f = _u_mul(f, cont, p)
        for e, c in enumerate(f):
            if c:
                out[h + (e,)] = c
    inv = pow(out[max(out)], -1, p)
    return {e: c * inv % p for e, c in out.items()}


def _rational_reconstruction(u, m):
    """n/d = u (mod m) with |n|, d below sqrt(m/2), or None."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not s1 or abs(s1) > bound:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    if math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _residues(images, p, kind):
    # {exps: tuple of residues}: (real, imaginary) parts over Q(i)
    if kind is not FieldKind.GAUSSIAN_RATIONAL:
        return {e: (c,) for e, c in images[0].items()}
    u, w = images
    s = _sqrt_minus_one(p)
    half = pow(2, -1, p)
    half_s = pow(2 * s, -1, p)
    out = {}
    for e in u.keys() | w.keys():
        x, y = u.get(e, 0), w.get(e, 0)
        out[e] = ((x + y) * half % p, (x - y) * half_s % p)
    return out


def _crt(acc, modulus, residues, p):
    if acc is None:
        return residues
    m_inv = pow(modulus, -1, p)
    out = {}
    for e in acc.keys() | residues.keys():
        old = acc.get(e)
        new = residues.get(e)
        if old is None:
            old = (0,) * len(new)
        if new is None:
            new = (0,) * len(old)
        out[e] = tuple(x + modulus * ((y - x) * m_inv % p) for x, y in zip(old, new))
    return out


def _reconstruct(acc, modulus):
    out = {}
    for e, parts in acc.items():
        fr = tuple(_rational_reconstruction(x, modulus) for x in parts)
        if None in fr:
            return None
        if any(fr):
            out[e] = fr
    return out
