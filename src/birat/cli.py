"""Command line front end.

Inputs are literals on the command line; an argument that names an existing
file is read from that file instead.  All output is deterministic for a
fixed argument vector and seed.

Exit codes: 0 on success, 1 when a verification suite reports failures,
2 when a request fails with a library error (the error code goes to stderr).
"""

import argparse
import functools
import json
import os
import sys

from .cocycles import Cocycle, trivialize
from .cremona import map_str, parse_map
from .deformation import build_family, extendability
from .errors import BiratError, ParseError
from .linear import (
    DieudonneAutomorphism,
    ProjLinear,
    gauss_decompose,
    in_congruence_subgroup,
    matrix_str,
    move_point_to_origin,
    parse_matrix,
    parse_point,
    point_str,
)
from .scalars import QI, conjugation, frobenius, identity_automorphism, parse_field
from .suites import SUITE_NAMES, run_all, run_suite


def _read_arg(text):
    if os.path.isfile(text):
        with open(text) as fh:
            return fh.read().strip()
    return text


def _field(args):
    return parse_field(args.field)


def _cmd_compose(args):
    field = _field(args)
    f = parse_map(_read_arg(args.map), field)
    g = parse_map(_read_arg(args.other), field)
    print(map_str(f.compose(g)))
    return 0


def _cmd_degree(args):
    field = _field(args)
    f = parse_map(_read_arg(args.map), field)
    print(f.degree)
    return 0


def _cmd_apply(args):
    field = _field(args)
    f = parse_map(_read_arg(args.map), field)
    p = parse_point(_read_arg(args.point), field)
    print(point_str(f.apply(p)))
    return 0


def _cmd_deform(args):
    field = _field(args)
    f = parse_map(_read_arg(args.map), field)
    if args.at is not None:
        p = parse_point(_read_arg(args.at), field)
        f = f.conjugate(move_point_to_origin(p))
    fam = build_family(f)
    verdict = extendability(fam)
    if args.json:
        doc = {"schema": 1, "family": str(fam)}
        doc.update(verdict.to_dict())
        print(json.dumps(doc, sort_keys=True))
    else:
        print(fam)
        print(f"extendable: {str(verdict.extendable).lower()}")
        if verdict.limit is not None:
            print(f"limit: {matrix_str(verdict.limit.rows())}")
        else:
            reasons = verdict.to_dict()["reasons"]
            for key in sorted(reasons):
                print(f"{key}: {reasons[key]}")
    return 0


def _cmd_dieudonne(args):
    field = _field(args)
    h = ProjLinear(field, parse_matrix(_read_arg(args.conjugator), field))
    g = ProjLinear(field, parse_matrix(_read_arg(args.matrix), field))
    if args.alpha == "id":
        alpha = identity_automorphism(field)
    elif args.alpha == "conj":
        alpha = conjugation(field)
    else:
        alpha = frobenius(field)
    phi = DieudonneAutomorphism(h, alpha, args.dual)
    print(matrix_str(phi(g).rows()))
    return 0


def _cmd_decompose(args):
    field = _field(args)
    m = parse_matrix(_read_arg(args.matrix), field)
    ts = gauss_decompose(m)
    print(f"factors: {len(ts)}")
    for t in ts:
        print(t)
    return 0


def _cmd_congruence(args):
    try:
        raw = json.loads(_read_arg(args.matrix))
    except ValueError:
        raise ParseError("expected an integer matrix like [[1,0],[0,1]]") from None
    if not isinstance(raw, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in raw
    ):
        raise ParseError("expected an integer matrix like [[1,0],[0,1]]")
    print(str(in_congruence_subgroup(raw, args.prime)).lower())
    return 0


def _cmd_trivialize(args):
    m = parse_matrix(_read_arg(args.cocycle), QI)
    nu = Cocycle.from_matrix(m)
    a = trivialize(nu, seed=args.seed)
    print(matrix_str(a))
    return 0


def _cmd_verify(args):
    field = parse_field(args.field)
    if args.suite == "all":
        reports = run_all(args.seed, args.trials, field, args.dim)
    else:
        reports = [run_suite(args.suite, args.seed, args.trials, field, args.dim)]
    if args.json:
        if args.suite == "all":
            doc = {
                "schema": 1,
                "suite": "all",
                "seed": args.seed,
                "trials": sum(r.trials for r in reports),
                "passed": sum(r.passed for r in reports),
                "reports": [r.to_dict() for r in reports],
            }
        else:
            doc = reports[0].to_dict()
        print(json.dumps(doc, sort_keys=True))
    else:
        for r in reports:
            print(r.summary_line())
            for f in r.failures:
                print(f"  {f['case']}: expected {f['expected']}, got {f['actual']}")
    return 0 if all(r.ok for r in reports) else 1


# one parser per process, built on the first call: parse_args leaves it as
# it was, and a suite run in process calls main many times
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="birat",
        description="Exact birational maps of projective space and their checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument(
            "--field",
            default="Q",
            help="coefficient field: Q, Qi, or Fp:<prime> (default Q)",
        )

    p = sub.add_parser("compose", help="compose two maps (second argument acts first)")
    p.add_argument("map", help="outer map, like 'P^2: [x1x2 : x0x2 : x0x1]'")
    p.add_argument("other", help="inner map")
    add_field(p)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("degree", help="degree of a map after reduction")
    p.add_argument("map")
    add_field(p)
    p.set_defaults(handler=_cmd_degree)

    p = sub.add_parser("apply", help="evaluate a map at a projective point")
    p.add_argument("map")
    p.add_argument("point", help="point like [1:2:0]")
    add_field(p)
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser(
        "deform",
        help="conjugate by the scaling family and decide the limit at t=0",
    )
    p.add_argument("map")
    p.add_argument("--at", help="base point to move to [1:0:...:0] first")
    p.add_argument("--json", action="store_true", help="machine readable verdict")
    add_field(p)
    p.set_defaults(handler=_cmd_deform)

    p = sub.add_parser(
        "dieudonne",
        help="apply a standard-form automorphism h (alpha g or dual) h^-1",
    )
    p.add_argument("--h", dest="conjugator", required=True, help="conjugating matrix")
    p.add_argument(
        "--alpha",
        choices=("id", "conj", "frob"),
        default="id",
        help="field action applied to the entries",
    )
    p.add_argument("--dual", action="store_true", help="compose with transpose-inverse")
    p.add_argument("-g", dest="matrix", required=True, help="argument matrix")
    add_field(p)
    p.set_defaults(handler=_cmd_dieudonne)

    p = sub.add_parser("decompose", help="factor a determinant-1 matrix into transvections")
    p.add_argument("matrix", help="matrix like [[2,1],[1,1]]")
    add_field(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "congruence", help="membership in the level-p congruence subgroup of SL_n(Z)"
    )
    p.add_argument("matrix", help="integer matrix like [[4,3],[9,7]]")
    p.add_argument("--prime", type=int, required=True, help="odd prime level")
    p.set_defaults(handler=_cmd_congruence)

    p = sub.add_parser(
        "trivialize", help="split a Galois cocycle for the order-two group over Q(i)"
    )
    p.add_argument("--cocycle", required=True, help="value at the generator, over Qi")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_trivialize)

    p = sub.add_parser("verify", help="run randomized verification suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=SUITE_NAMES + ("all",),
        help="which suite to run (default all)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--json", action="store_true", help="machine readable report")
    add_field(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BiratError as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
