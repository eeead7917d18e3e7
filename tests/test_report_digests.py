"""The verify reports at fixed seeds, pinned by digest.

Each digest is the sha256 of what `birat verify --suite all --json --trials 5
--seed 1` prints at its --dim and --field.  A change that alters a verdict,
a trial count or the report's layout changes it; one that only makes the
suites faster does not.
"""

import hashlib
import random

import pytest

from birat import suites
from birat.cli import main
from birat.scalars import parse_field

# The schema-1 report holds counts, not the field, so fields that pass every
# trial print the same bytes.
ALL_PASS = "c502863fc5bd2041955127ba2a5453295ab2431d372c4b4845d4a1b4ee081853"
DIGESTS = {
    (dim, field): ALL_PASS
    for dim in ("2", "3")
    for field in ("Q", "Qi", "Fp:101", "Fp:2")
}


@pytest.mark.parametrize("dim, field", sorted(DIGESTS))
def test_verify_report_digest(capsys, dim, field):
    argv = ["verify", "--suite", "all", "--json", "--trials", "5", "--seed", "1", "--dim", dim, "--field", field]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[dim, field]


# sha256 over str of what the suites' generators build: rand_affine_auto and
# the corpus maps the deformation suite draws from, each from a fresh
# random.Random(seed).  The reports above hold only counts, so this is what
# sees a change in the maps the constructors produce.
GENERATORS = (
    "rand_affine_auto",
    "corpus_positive_map",
    "corpus_base_point_map",
    "corpus_translation_map",
    "corpus_singular_map",
)
GENERATOR_DIGEST = "a58596e50529c7d5970b675814e552518fcec59e8a5a15dee7647d0810db130f"


def test_generator_digest():
    h = hashlib.sha256()
    for name in ("Q", "Qi", "Fp:101", "Fp:2"):
        field = parse_field(name)
        for dim in (2, 3):
            for gen in GENERATORS:
                for seed in range(15):
                    out = getattr(suites, gen)(random.Random(seed), field, dim)
                    if isinstance(out, tuple):  # a translation map and its shift
                        out = f"{out[0]} {[str(s) for s in out[1]]}"
                    h.update(f"{name} {dim} {gen} {seed}: {out}\n".encode())
    assert h.hexdigest() == GENERATOR_DIGEST
