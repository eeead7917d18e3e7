"""Digests of canonical printed forms: compositions and deform --json documents.

A passing `verify --json` report names no field and no input, so it pins
little of what the gcd engine and the reductions print.  These digests pin
the printed forms themselves: for each field and dimension, seeded pairs of
small Cremona maps are composed and printed with map_str, and seeded maps of
the criterion-1 positive corpus are run through `birat deform --json`.  A
second set composes small Cremona maps with an invertible and with a
singular linear map, on either side, printing the error code where the
composition reduces to a constant tuple.
"""

import contextlib
import hashlib
import io
import random

import pytest

from birat import suites
from birat.cli import main
from birat.cremona import CremonaMap, map_str
from birat.errors import BiratError
from birat.poly import Polynomial
from birat.scalars import parse_field

DRAWS = 6

# sha256 prefixes of _printed_forms: they change only where a printed form does
DIGESTS = {
    "Q/2": "5c38f901c6b1c707",
    "Q/3": "8debea47aca1c824",
    "Qi/2": "a58f9d132203792c",
    "Qi/3": "1d334111576eee68",
    "Fp:101/2": "3b76c3275ecdede2",
    "Fp:101/3": "853547bccf5844a7",
    "Fp:2/2": "09ccd22f0d525a44",
    "Fp:2/3": "c6913b43b8e9c273",
}


def _printed_forms(name, d):
    field = parse_field(name)
    rng = random.Random(f"printed-forms/{name}/{d}")
    lines = []
    for _ in range(DRAWS):
        f = suites._rand_small_cremona(rng, field, d)
        g = suites._rand_small_cremona(rng, field, d)
        lines.append(map_str(f.compose(g)))
        h = suites.corpus_positive_map(rng, field, d)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["deform", "--json", "--field", name, map_str(h)]) == 0
        lines.append(out.getvalue())
    return "\n".join(lines)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", ["Q", "Qi", "Fp:101", "Fp:2"])
def test_printed_forms_digest(name, d):
    digest = hashlib.sha256(_printed_forms(name, d).encode()).hexdigest()[:16]
    assert digest == DIGESTS[f"{name}/{d}"]


# ---------------------------------------------------------------------------
# compositions with a linear factor, invertible or singular, on either side

LINEAR_DRAWS = 3

# sha256 prefixes of _linear_factor_forms, recorded while every composition
# still went through the full gcd reduction
LINEAR_FACTOR_DIGESTS = {
    "Q/2": "45109b3a5930712c",
    "Q/3": "76305e1ef2a40b10",
    "Q/4": "66284df0ed16ca13",
    "Qi/2": "04b05fd65f8e647e",
    "Qi/3": "a2e995612e5ad824",
    "Qi/4": "be9d81a0dd5e3202",
    "Fp:2/2": "cc57be3bf58d220f",
    "Fp:2/3": "2828ea031b196702",
    "Fp:2/4": "2bfd7643e8f954fd",
    "Fp:3/2": "164b45e423b054a3",
    "Fp:3/3": "3b7273d5937d2c18",
    "Fp:3/4": "55b3d6dfeb0b7184",
}


def _linear_map(field, rows):
    n = len(rows)
    return CremonaMap(
        [Polynomial(field, n, {tuple(int(i == j) for i in range(n)): c for j, c in enumerate(row)}) for row in rows]
    )


def _singular_rows(rng, field, n):
    # rank n - 1: the last row is a combination of the first two
    rows = suites.rand_invertible(rng, field, n)
    a, b = suites.rand_scalar(rng, field), suites.rand_scalar(rng, field)
    rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def _printed_or_code(f, g):
    try:
        return map_str(f.compose(g))
    except BiratError as e:
        return f"{e.code}: {e}"


def _linear_factor_forms(name, d):
    field = parse_field(name)
    rng = random.Random(f"linear-factor-forms/{name}/{d}")
    lines = []
    for _ in range(LINEAR_DRAWS):
        f = suites._rand_small_cremona(rng, field, d)
        invertible = _linear_map(field, suites.rand_invertible(rng, field, d + 1))
        singular = _linear_map(field, _singular_rows(rng, field, d + 1))
        for lin in (invertible, singular):
            lines += [map_str(lin), _printed_or_code(f, lin), _printed_or_code(lin, f)]
    return "\n".join(lines)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("name", ["Q", "Qi", "Fp:2", "Fp:3"])
def test_linear_factor_forms_digest(name, d):
    digest = hashlib.sha256(_linear_factor_forms(name, d).encode()).hexdigest()[:16]
    assert digest == LINEAR_FACTOR_DIGESTS[f"{name}/{d}"]
