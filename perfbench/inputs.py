"""Seeded input text for the benchmark workloads, made without birat.

The inputs depend only on the seed and on this file, never on the code under
test.  Maps are built from plain dict polynomials (exponent tuple ->
coefficient) over Fraction or residues mod p and written in birat's text
format, unreduced: parsing reduces them by the gcd of their components, and
that reduction is part of the timed work.

    python3 perfbench/inputs.py --workload deform-corpus --seed 7 --out FILE

writes the JSON document the benchmark feeds to its worker; without --out it
goes to stdout.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

WORKLOADS = ("deform-corpus", "verify-suites", "compose-p3p4")


class Rationals:
    def norm(self, c):
        return c

    def inv(self, c):
        return 1 / Fraction(c)

    def rand(self, r, height=3, nonzero=False):
        """Drawn like birat.suites.rand_scalar: size from r.shape, sign from r.coef."""
        while True:
            num = abs(r.shape.randint(-height, height))
            den = r.shape.randint(1, 3)
            if num or not nonzero:
                return Fraction(num * r.coef.choice((1, -1)), den)


class PrimeField:
    def __init__(self, p):
        self.p = p

    def norm(self, c):
        return c % self.p

    def inv(self, c):
        return pow(c, -1, self.p)

    def rand(self, r, height=3, nonzero=False):
        while True:
            c = r.coef.randrange(self.p)
            if c or not nonzero:
                return c


QQ = Rationals()
F101 = PrimeField(101)


class Draw:
    """The two random streams that make maps.

    `shape` picks constructions, degrees, monomials, which coordinates move
    and the size of every rational coefficient; `coef` picks the signs of
    rational coefficients and the residues mod p.  deform-corpus seeds each
    map's `shape` from the map alone and its `coef` from the map and the
    run's seed, so runs on different seeds time the same mix of work, with
    coefficients of the same sizes, on different maps.
    """

    def __init__(self, shape_key, coef_key):
        self.shape = random.Random(shape_key)
        self.coef = random.Random(coef_key)


# ---------------------------------------------------------------------------
# polynomials: {exponent tuple: nonzero coefficient} in n variables


def variable(n, i):
    return {tuple(int(j == i) for j in range(n)): 1}


def padd(F, a, b):
    out = dict(a)
    for e, c in b.items():
        s = F.norm(out.get(e, 0) + c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(F, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: F.norm(c) for e, c in out.items() if F.norm(c)}


def substitute(F, p, polys, n):
    """p(polys[0], polys[1], ...), the polys living in n variables."""
    acc = {}
    pows = {}
    for e, c in p.items():
        t = {(0,) * n: c}
        for v, k in enumerate(e):
            if k:
                if (v, k) not in pows:
                    q = {(0,) * n: 1}
                    for _ in range(k):
                        q = pmul(F, q, polys[v])
                    pows[v, k] = q
                t = pmul(F, t, pows[v, k])
        acc = padd(F, acc, t)
    return acc


def degree(p):
    return max((sum(e) for e in p), default=0)


def poly_text(F, p):
    if not p:
        return "0"
    out = []
    for e in sorted(p, key=lambda e: (sum(e), e), reverse=True):
        c = p[e]
        mono = "*".join(f"x{v}" if k == 1 else f"x{v}^{k}" for v, k in enumerate(e) if k)
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


def map_text(F, comps):
    return f"P^{len(comps) - 1}: [" + " : ".join(poly_text(F, c) for c in comps) + "]"


# ---------------------------------------------------------------------------
# matrices


def det(F, m):
    m = [list(r) for r in m]
    n = len(m)
    d = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        d = F.norm(d * m[col][col])
        inv = F.inv(m[col][col])
        for r in range(col + 1, n):
            f = F.norm(m[r][col] * inv)
            if f:
                m[r] = [F.norm(a - f * b) for a, b in zip(m[r], m[col])]
    return d


def inverse(F, m):
    n = len(m)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = F.inv(a[col][col])
        a[col] = [F.norm(x * inv) for x in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [F.norm(x - f * y) for x, y in zip(a[r], a[col])]
    return [r[n:] for r in a]


def rand_invertible(F, r, n, height=3):
    while True:
        m = [[F.rand(r, height) for _ in range(n)] for _ in range(n)]
        if det(F, m):
            return m


def linear_forms(F, m):
    n = len(m[0])
    return [
        {tuple(int(j == i) for j in range(n)): F.norm(c) for i, c in enumerate(row) if F.norm(c)}
        for row in m
    ]


# ---------------------------------------------------------------------------
# automorphisms of A^d (d polys in x0..x_{d-1}), drawn like birat.suites


def rand_linear_auto(F, r, d):
    return linear_forms(F, rand_invertible(F, r, d))


def rand_shear(F, r, d, max_degree):
    """x_i -> x_i + (a polynomial in the other variables, no constant term)."""
    i = r.shape.randrange(d)
    others = [v for v in range(d) if v != i]
    monomials = set()
    for _ in range(r.shape.randint(1, 3)):
        exps = [0] * d
        for _ in range(r.shape.randint(1, max_degree)):
            exps[r.shape.choice(others)] += 1
        monomials.add(tuple(exps))
    add = {e: F.rand(r, nonzero=True) for e in sorted(monomials)}
    return [padd(F, variable(d, v), add) if v == i else variable(d, v) for v in range(d)]


def auto_compose(F, f, g, d):
    return [substitute(F, c, g, d) for c in f]


def rand_origin_fixing_auto(F, r, d, degree_cap):
    g = rand_linear_auto(F, r, d)
    for _ in range(r.shape.randint(1, 3)):
        budget = degree_cap // max(max(degree(c) for c in g), 1)
        if budget >= 2 and r.shape.random() < 0.7:
            e = rand_shear(F, r, d, r.shape.randint(2, min(3, budget)))
            g = auto_compose(F, g, e, d) if r.shape.random() < 0.5 else auto_compose(F, e, g, d)
        else:
            g = auto_compose(F, g, rand_linear_auto(F, r, d), d)
    return g


def to_projective(F, f, d):
    """Homogenize an automorphism of A^d with x0 as the new variable."""
    e = max(degree(c) for c in f)
    comps = [{(e,) + (0,) * d: 1}]
    for c in f:
        comps.append({(e - sum(k),) + k: v for k, v in c.items()})
    return comps


# ---------------------------------------------------------------------------
# maps of P^d (d+1 homogeneous polys in x0..xd)


def compose(F, f, g):
    """f after g, unreduced."""
    return [substitute(F, c, g, len(g)) for c in f]


def sigma(d):
    n = d + 1
    return [{tuple(int(j != i) for j in range(n)): 1} for i in range(n)]


def block_linear(F, r, d):
    """A linear map of P^d fixing [1:0:...:0] and the hyperplane x0 = 0."""
    a = rand_invertible(F, r, d)
    return linear_forms(F, [[1] + [0] * d] + [[0] + row for row in a])


def conjugated_sigma(F, m, d):
    """m∘sigma∘m^-1 for an invertible (d+1)x(d+1) matrix m."""
    return compose(F, linear_forms(F, m), compose(F, sigma(d), linear_forms(F, inverse(F, m))))


def involution_fixing_origin(F, d):
    """sigma conjugated by a matrix sending [1:...:1] to [1:0:...:0]."""
    n = d + 1
    return conjugated_sigma(F, [[int(i == j) - int(j == 0 and i > 0) for j in range(n)] for i in range(n)], d)


# ---------------------------------------------------------------------------
# deform-corpus: the five classes of the criterion-1 corpus around [1:0:...:0]

# Maps per class and dimension in one round; positive maps come in three
# styles as in birat.suites.corpus_positive_map.  The style that composes a
# degree-cap automorphism with the involution is drawn in P^2 only: in P^3 it
# reaches degree 6 and, on some draws, poly_gcd's coefficient swell makes one
# map take over a minute, which no run could absorb.  Both percentiles are
# placed inside dense bands of the latency distribution, where they do not
# jump with which maps lie beside them: the P^3 involutions, at 60 to 120 ms
# each, hold the 90th percentile, and there are 24 of them; the P^2
# translations and singular maps, most at 1 to 3 ms, are 30 each, which brings
# the median down from the sparse stretch at 6 to 9 ms into the band of
# maps at 4 to 5.5 ms.
DEFORM_PLAN = {
    2: {"auto": 8, "involution": 7, "twisted": 5, "base": 10, "pole": 10, "translation": 30, "singular": 30},
    3: {"auto": 8, "involution": 24, "base": 10, "pole": 10, "translation": 10, "singular": 10},
}


def deform_map(F, r, d, style):
    """(map comps, class, shift) for one corpus map of the given style."""
    cap = 6
    if style == "auto":
        return to_projective(F, rand_origin_fixing_auto(F, r, d, cap), d), "positive", None
    if style in ("involution", "twisted"):
        g = involution_fixing_origin(F, d)
        g = compose(F, block_linear(F, r, d), compose(F, g, block_linear(F, r, d)))
        if style == "twisted":
            h = to_projective(F, rand_origin_fixing_auto(F, r, d, cap // d), d)
            g = compose(F, h, g) if r.shape.random() < 0.5 else compose(F, g, h)
        return g, "positive", None
    if style == "base":
        inner = to_projective(F, rand_origin_fixing_auto(F, r, d, max(cap // d, 1)), d)
        outer = linear_forms(F, rand_invertible(F, r, d + 1))
        return compose(F, outer, compose(F, sigma(d), inner)), "base_point", None
    if style == "pole":
        g = to_projective(F, rand_origin_fixing_auto(F, r, d, cap), d)
        while True:
            m = rand_invertible(F, r, d + 1)
            m[0][0] = 0
            if det(F, m):
                break
        return compose(F, linear_forms(F, m), g), "pole", None
    if style == "translation":
        g = rand_origin_fixing_auto(F, r, d, cap)
        while True:
            moving = [r.shape.random() < 0.75 for _ in range(d)]
            if any(moving):
                break
        shift = [F.rand(r, nonzero=True) if m else 0 for m in moving]
        moved = [padd(F, c, {(0,) * d: s}) if s else c for c, s in zip(g, shift)]
        return to_projective(F, moved, d), "translation", [bool(s) for s in shift]
    # singular: [x0^2 : x0 x1 : x1 x2 : x0 x3 ...] between two linear maps
    n = d + 1
    x = [variable(n, v) for v in range(n)]
    w = [pmul(F, x[0], x[0]), pmul(F, x[0], x[1]), pmul(F, x[1], x[2])]
    w += [pmul(F, x[0], x[v]) for v in range(3, n)]
    f = compose(F, block_linear(F, r, d), compose(F, w, block_linear(F, r, d)))
    if r.shape.random() < 0.4:
        h = to_projective(F, rand_origin_fixing_auto(F, r, d, cap // 2), d)
        f = compose(F, h, f) if r.shape.random() < 0.5 else compose(F, f, h)
    return f, "singular", None


def deform_ops(seed):
    ops = []
    for d, plan in DEFORM_PLAN.items():
        for style, count in plan.items():
            for k in range(count):
                op_id = f"P{d}/{style}/{k}"
                r = Draw(f"deform-corpus/shape/{op_id}", f"deform-corpus/{seed}/{op_id}")
                comps, cls, shift = deform_map(QQ, r, d, style)
                ops.append(
                    {"id": op_id, "field": "Q", "map": map_text(QQ, comps), "class": cls, "shift": shift}
                )
    return ops


# ---------------------------------------------------------------------------
# compose-p3p4: pairs of small Cremona maps, drawn like
# birat.suites._rand_small_cremona


def small_map(F, r, d, kind):
    if kind == "L":
        return linear_forms(F, rand_invertible(F, r, d + 1))
    if kind == "S":
        return sigma(d)
    if kind == "C":
        return conjugated_sigma(F, rand_invertible(F, r, d + 1), d)
    f = rand_origin_fixing_auto(F, r, d, 2)
    if r.shape.random() < 0.5:
        shift = [F.rand(r) for _ in range(d)]
        f = [padd(F, c, {(0,) * d: s}) if s else c for c, s in zip(f, shift)]
    return to_projective(F, f, d)


# Ordered pairs (outer, inner) and how many are composed per round: L
# linear, S the standard involution, C a conjugated involution, A a degree-2
# automorphism.  Pairs come from a fixed pool of COMPOSE_POOL entries per
# stratum, and --seed picks which.  Fresh draws hang in poly_gcd now and then
# (σ∘L in P^4 over Q once in a few hundred draws), and no run could fail
# those the same way on every seed; every pool entry finishes within 0.5 s at
# this commit, which `--pool` and worker.py can check again.  Left out
# altogether, because poly_gcd hangs on many of their draws: S∘C, A∘C, C∘C,
# S∘A, C∘A, C∘S, and L∘C and C∘L over F_101.  The one hanging pair kept is
# COMPOSE_FAULT.  σ∘L in P^4 is drawn six times over Q and twelve times over
# F_101, so that the 90th percentile falls well inside the F_101 stratum, not
# at a gap between strata, and rests on enough draws from its pool, whose
# entries differ in cost by a factor of two.
PLAIN_PAIRS = dict.fromkeys(("LL", "LS", "LA", "SL", "SS", "AL", "AS", "AA"), 3)
COMPOSE_PLAN = {
    (3, "Q"): {**PLAIN_PAIRS, "LC": 3, "CL": 3},
    (3, "Fp:101"): PLAIN_PAIRS,
    (4, "Q"): {**PLAIN_PAIRS, "SL": 6},
    (4, "Fp:101"): {**PLAIN_PAIRS, "SL": 12},
}
COMPOSE_POOL = 30

# The trial-6 pair of `birat verify --suite cremona --dim 3 --seed 1`:
# sigma after a conjugated sigma, over Q.  poly_gcd does not return on it.
COMPOSE_FAULT = {
    "id": "fault/P3/SC",
    "field": "Q",
    "f": "P^3: [x1*x2*x3 : x0*x2*x3 : x0*x1*x3 : x0*x1*x2]",
    "g": (
        "P^3: [x0^3 - 21756/59057*x0^2*x1 - 58809/59057*x0*x1^2 + 22004/59057*x1^3"
        " + 95153/236228*x0^2*x2 - 98045/236228*x0*x1*x2 - 7831/59057*x1^2*x2"
        " - 12900/59057*x0*x2^2 - 18489/59057*x1*x2^2 - 3789/59057*x2^3"
        " + 142878/59057*x0^2*x3 - 45444/59057*x0*x1*x3 - 26448/59057*x1^2*x3"
        " + 132829/236228*x0*x2*x3 - 22217/59057*x1*x2*x3 - 14349/59057*x2^2*x3"
        " + 108585/59057*x0*x3^2 - 23688/59057*x1*x3^2 + 9419/59057*x2*x3^2"
        " + 24764/59057*x3^3"
        " : 652123/1653596*x0^3 - 1044303/1653596*x0^2*x1 - 687027/826798*x0*x1^2"
        " + 409102/413399*x1^3 - 199145/6614384*x0^2*x2 + 450283/3307192*x0*x1*x2"
        " - 404695/826798*x1^2*x2 - 1422501/6614384*x0*x2^2 - 351537/1653596*x1*x2^2"
        " + 19881/413399*x2^3 + 186789/826798*x0^2*x3 + 2577657/1653596*x0*x1*x3"
        " - 1080813/413399*x1^2*x3 - 1442053/6614384*x0*x2*x3 + 1155641/1653596*x1*x2*x3"
        " + 444585/1653596*x2^2*x3 - 1209213/1653596*x0*x3^2 + 905490/413399*x1*x3^2"
        " - 310727/1653596*x2*x3^2 - 232667/413399*x3^3"
        " : -112037/413399*x0^3 - 49991/413399*x0^2*x1 + 32993/413399*x0*x1^2"
        " - 138556/413399*x1^3 - 697257/1653596*x0^2*x2 - 1767597/1653596*x0*x1*x2"
        " - 172365/413399*x1^2*x2 + 63099/826798*x0*x2^2 + 12402/413399*x1*x2^2"
        " + 4104/413399*x2^3 - 64182/413399*x0^2*x3 - 344863/413399*x0*x1*x3"
        " + 282704/413399*x1^2*x3 + 560187/1653596*x0*x2*x3 - 86532/413399*x1*x2*x3"
        " + 72846/413399*x2^2*x3 + 207747/413399*x0*x3^2 - 294872/413399*x1*x3^2"
        " + 314361/413399*x2*x3^2 + 159892/413399*x3^3"
        " : -144825/826798*x0^3 + 601509/1653596*x0^2*x1 - 256161/1653596*x0*x1^2"
        " + 41679/413399*x1^3 - 951147/3307192*x0^2*x2 + 6092151/6614384*x0*x1*x2"
        " - 335469/1653596*x1^2*x2 - 141165/6614384*x0*x2^2 + 226719/1653596*x1*x2^2"
        " + 42876/413399*x2^3 - 804807/413399*x0^2*x3 + 5734041/1653596*x0*x1*x3"
        " - 643278/413399*x1^2*x3 - 3619359/3307192*x0*x2*x3 + 2205879/1653596*x1*x2*x3"
        " + 663489/1653596*x2^2*x3 - 2784753/826798*x0*x3^2 + 1283133/413399*x1*x3^2"
        " - 667053/826798*x2*x3^2 - 659982/413399*x3^3]"
    ),
    "known_fault": True,
}


def compose_pool_op(d, fname, pair, k):
    """Entry k of the pool of one stratum."""
    F = QQ if fname == "Q" else F101
    stratum = f"P{d}/{fname}/{pair}"
    r = Draw(f"compose-p3p4/{stratum}/{k}/shape", f"compose-p3p4/{stratum}/{k}")
    f = small_map(F, r, d, pair[0])
    g = small_map(F, r, d, pair[1])
    return {"id": f"{stratum}/{k}", "field": fname, "f": map_text(F, f), "g": map_text(F, g),
            "known_fault": False}


def compose_pool():
    """Every entry of every stratum's pool."""
    return [
        compose_pool_op(d, fname, pair, k)
        for (d, fname), pairs in COMPOSE_PLAN.items()
        for pair in pairs
        for k in range(COMPOSE_POOL)
    ]


def compose_ops(seed):
    pick = random.Random(f"compose-p3p4/{seed}")
    ops = []
    for (d, fname), pairs in COMPOSE_PLAN.items():
        for pair, draws in pairs.items():
            for k in sorted(pick.sample(range(COMPOSE_POOL), draws)):
                ops.append(compose_pool_op(d, fname, pair, k))
    ops.append(dict(COMPOSE_FAULT))
    return ops


# ---------------------------------------------------------------------------
# verify-suites: argument vectors for birat.cli.main

SUITES = ("polynomials", "cremona", "deformation", "linear", "affineauto", "cocycles")
SUITE_FIELDS = ("Q", "Qi", "Fp:101", "Fp:2")
# The suite seeds are a fixed panel.  A suite draws every trial from its
# seed, and over Qi one suite run's cost changes twofold from seed to seed,
# more than a run of bounded length can average out; --seed only sets the
# order of the operations in a round.
SUITE_SEEDS = (1, 2, 3, 4, 5)
SUITE_TRIALS = 5


def verify_ops(seed):
    ops = []
    for s in SUITE_SEEDS:
        for field in SUITE_FIELDS:
            for suite in SUITES:
                argv = ["verify", "--suite", suite, "--field", field, "--seed", str(s),
                        "--trials", str(SUITE_TRIALS), "--dim", "2", "--json"]
                ops.append({"id": f"{suite}/{field}/{s}", "argv": argv})
    k = seed % len(ops)
    return ops[k:] + ops[:k]


def make_inputs(workload, seed):
    """The JSON-ready input document of one workload and seed."""
    makers = {"deform-corpus": deform_ops, "verify-suites": verify_ops, "compose-p3p4": compose_ops}
    return {"workload": workload, "seed": seed, "ops": makers[workload](seed)}


def main(argv=None):
    ap = argparse.ArgumentParser(description="write one workload's benchmark inputs")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="output file (default stdout)")
    ap.add_argument("--pool", action="store_true", help="compose-p3p4: every pool entry instead")
    args = ap.parse_args(argv)
    doc = make_inputs(args.workload, args.seed)
    if args.pool:
        doc["ops"] = compose_pool()
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
