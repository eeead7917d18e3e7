"""Digests of canonical printed forms: compositions and deform --json documents.

A passing `verify --json` report names no field and no input, so it pins
little of what the gcd engine and the reductions print.  These digests pin
the printed forms themselves: for each field and dimension, seeded pairs of
small Cremona maps are composed and printed with map_str, and seeded maps of
the criterion-1 positive corpus are run through `birat deform --json`.
"""

import contextlib
import hashlib
import io
import random

import pytest

from birat import suites
from birat.cli import main
from birat.cremona import map_str
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
