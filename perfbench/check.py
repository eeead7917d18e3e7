"""Checks of birat's outputs against computations made apart from birat.

The map texts are read by a small parser here and the arithmetic is done in
sympy, never in birat.  run.py calls these after the timed worker has exited,
so sympy is never loaded in the process that is timed or whose memory is
measured.  Each checker returns a list of problems, empty when all is well.
"""

import json
import random
from fractions import Fraction
from functools import reduce

from sympy import GF, QQ
from sympy.polys.rings import ring


def _domain(field):
    if field == "Q":
        return QQ
    if field.startswith("Fp:"):
        return GF(int(field[3:]))
    raise ValueError(f"no checker domain for field {field!r}")


def parse_poly_terms(text, n):
    """{exponents: Fraction} of a polynomial in birat's printed form."""
    terms = {}
    for tok in text.strip().replace(" - ", " + -").split(" + "):
        tok = tok.strip()
        coef = Fraction(-1 if tok.startswith("-") else 1)
        exps = [0] * n
        for factor in tok.lstrip("-").split("*"):
            if factor.startswith("x"):
                v, _, k = factor[1:].partition("^")
                exps[int(v)] += int(k) if k else 1
            else:
                coef *= Fraction(factor)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coef
    return {e: c for e, c in terms.items() if c}


def parse_map(text, field):
    """The components of 'P^d: [c0 : ... : cd]' as sympy ring elements."""
    head, _, body = text.partition(":")
    n = int(head.strip()[2:]) + 1
    domain = _domain(field)
    R, *_ = ring(",".join(f"x{i}" for i in range(n)), domain)
    comps = []
    for part in body.strip()[1:-1].split(":"):
        terms = parse_poly_terms(part, n)
        comps.append(R({e: domain(c.numerator) / domain(c.denominator) for e, c in terms.items()}))
    return comps


def _reduced(comps):
    g = reduce(lambda a, b: a.gcd(b), [c for c in comps if c])
    return [c.exquo(g) for c in comps]


def _substitute(poly, images, one):
    """poly(images[0], images[1], ...), with one the unit of the target ring."""
    acc = one * 0
    powers = {}
    for exps, c in poly.terms():
        term = one * c
        for v, k in enumerate(exps):
            if k:
                if (v, k) not in powers:
                    powers[v, k] = images[v] ** k
                term = term * powers[v, k]
        acc = acc + term
    return acc


def coprime_on_lines(comps, field):
    """Certify that homogeneous comps share no factor of positive degree.

    A common factor F of degree e restricted to the line p + t*q is a
    polynomial in t of degree e whenever F(q) != 0, so a univariate gcd of 1
    on a line rules F out unless q is a zero of F.  Lines come from a fixed
    generator; over F_p, where a random q is a zero of F far more often,
    three lines must certify.
    """
    rng = random.Random(0)
    domain = _domain(field)
    Rt, t = ring("t", domain)
    n = comps[0].ring.ngens
    need = 1 if field == "Q" else 3
    certified = 0
    for _ in range(12):
        if field == "Q":
            p = [rng.randint(-1000, 1000) for _ in range(n)]
            q = [rng.randint(-1000, 1000) for _ in range(n)]
        else:
            p = [rng.randrange(domain.mod) for _ in range(n)]
            q = [rng.randrange(domain.mod) for _ in range(n)]
        line = [a + b * t for a, b in zip(p, q)]
        g = reduce(lambda a, b: a.gcd(b), [_substitute(c, line, Rt.one) for c in comps if c])
        if g.degree() == 0:
            certified += 1
            if certified == need:
                return True
    return False


def check_compose(op, output):
    """birat's f∘g equals the sympy substitution divided by its gcd.

    The substitution h = f(g) is made in sympy.  birat's result b passes when
    G = h_k/b_k is exact for its first nonzero component k, h_i == G*b_i for
    every i, and the components of b share no factor (coprime_on_lines): b is
    then h divided by the gcd of its components, up to a scalar.
    """
    field = op["field"]
    f = parse_map(op["f"], field)
    g = parse_map(op["g"], field)
    got = parse_map(output, field)
    one = g[0].ring.one
    h = [_substitute(c, g, one) for c in f]
    k = next((i for i, x in enumerate(got) if x), None)
    problems = []
    if k is None or len(got) != len(h):
        return [f"{op['id']}: malformed composition"]
    quo, rem = h[k].div(got[k])
    if rem or any(quo * b != a for a, b in zip(h, got)):
        problems.append(f"{op['id']}: composition is not the sympy substitution up to a factor")
    elif not coprime_on_lines(got, field):
        problems.append(f"{op['id']}: components of the composition share a factor")
    if op["f"] == op["g"] and all(len(c) == 1 for c in f):
        # sigma after sigma is the identity
        gens = one.ring.gens
        if any(a * gens[k] != gens[i] * got[k] for i, a in enumerate(got)):
            problems.append(f"{op['id']}: sigma∘sigma is not the identity")
    return problems


def _limit_matrix(text):
    return [[Fraction(x) for x in row.split(",")] for row in text.strip("[]").split("],[")]


def derivative_at_origin(text):
    """Derivative at [1:0:...:0] of a map, in the chart x0 = 1, by sympy.

    For a component c of degree e, the chart value at the origin is the
    coefficient of x0^e and the partial in x_j that of x0^(e-1)*x_j; the
    quotient rule gives the rest.  A common factor of the unreduced text that
    vanishes at the origin is divided out first.
    """
    comps = parse_map(text, "Q")
    n = comps[0].ring.ngens
    rest = [tuple(int(i == j) for i in range(n - 1)) for j in range(n - 1)]

    def value_and_partials(c):
        if not c:
            return Fraction(0), [Fraction(0)] * (n - 1)
        e = max(sum(m) for m in c.monoms())
        at = lambda *exps: Fraction(str(c.get(exps, 0)))
        return at(e, *([0] * (n - 1))), [at(e - 1, *u) for u in rest]

    if not value_and_partials(comps[0])[0]:
        comps = _reduced(comps)

    q0, dq = value_and_partials(comps[0])
    rows = []
    for num in comps[1:]:
        p0, dp = value_and_partials(num)
        rows.append([(a * q0 - p0 * b) / q0**2 for a, b in zip(dp, dq)])
    return rows


def check_deform(op, output):
    """The verdict flags match the class the map was built in.

    For a positive map the limit must also equal the derivative at the
    origin computed by sympy from the map's text.
    """
    v = json.loads(output)
    r = v["reasons"]
    p, q, sing = r["p_i0_nonzero"], r["q_i0_zero"], r["jacobian_singular"]
    cls = op["class"]
    if cls == "positive":
        ok = v["extendable"] and v["limit_vs_jacobian"] and v["limit"] is not None
        if ok:
            m = _limit_matrix(v["limit"])
            want = derivative_at_origin(op["map"])
            scale = m[0][0]
            ok = scale != 0 and all(
                m[i + 1][j + 1] / scale == want[i][j]
                for i in range(len(want))
                for j in range(len(want))
            )
    elif cls in ("base_point", "pole"):
        ok = not v["extendable"] and any(q)
    elif cls == "translation":
        ok = not v["extendable"] and p == op["shift"] and not any(q)
    elif cls == "singular":
        ok = not v["extendable"] and sing and not any(p) and not any(q)
    else:
        raise ValueError(f"unknown corpus class {cls!r}")
    return [] if ok else [f"{op['id']}: verdict does not match class {cls}"]


def check_verify(op, output, rerun):
    """Every trial passed, and a second run printed the same bytes."""
    problems = []
    run = json.loads(output)
    if run["exit"] != 0:
        problems.append(f"{op['id']}: exit code {run['exit']}")
    report = json.loads(run["stdout"])
    if report["passed"] != report["trials"] or report["failures"]:
        problems.append(f"{op['id']}: {report['passed']}/{report['trials']} passed")
    if rerun != output:
        problems.append(f"{op['id']}: second run differs")
    return problems


def check_run(workload, ops, result):
    """Problems with one worker result: wrong outputs, or nondeterminism.

    An operation capped in any round is a problem unless it is the
    workload's known fault.  One capped in every round has no output.
    """
    problems = [f"{i}: output changed between rounds" for i in result["mismatched"]]
    outputs = result["outputs"]
    failed = set(result["failed"])
    for op in ops:
        if op["id"] in failed and not op.get("known_fault"):
            problems.append(f"{op['id']}: capped (not a known fault)")
        out = outputs.get(op["id"])
        if out is None:
            if op["id"] not in failed:
                problems.append(f"{op['id']}: no output")
            continue
        if workload == "deform-corpus":
            problems += check_deform(op, out)
        elif workload == "compose-p3p4":
            problems += check_compose(op, out)
        else:
            problems += check_verify(op, out, result["reruns"][op["id"]])
    return problems
