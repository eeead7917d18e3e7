"""Term-dict kernels: the inner loops of polynomial arithmetic.

A term dict maps a monomial key to a nonzero coefficient; coefficients only
need +, * and truthiness, so these kernels are shared by every field, and by
the raw values (ints, Gaussian integers) that poly.py runs them on.  The keys
of mul_terms are packed monomials (poly._Monomials), ints whose sum is the
key of the product; add_terms and scale_terms take any hashable keys.
"""


def mul_terms(a, b):
    """Multiply two term dicts, dropping coefficients that cancel to zero."""
    if not a or not b:
        return {}
    out = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = ea + eb
            prev = get(key)
            out[key] = ca * cb if prev is None else prev + ca * cb
    return {k: v for k, v in out.items() if v}


def add_terms(a, b):
    """Add two term dicts, dropping coefficients that cancel to zero."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    get = out.get
    for e, c in b.items():
        prev = get(e)
        if prev is None:
            out[e] = c
        else:
            s = prev + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def scale_terms(terms, c):
    """Multiply every coefficient by the scalar c (c may be zero)."""
    if not c:
        return {}
    return {e: c * v for e, v in terms.items()}
