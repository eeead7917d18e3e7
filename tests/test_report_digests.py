"""The verify reports at fixed seeds, pinned by digest.

Each digest is the sha256 of what `birat verify --suite all --json --trials 5
--seed 1` prints at its --dim and --field.  A change that alters a verdict,
a trial count or the report's layout changes it; one that only makes the
suites faster does not.
"""

import hashlib

import pytest

from birat.cli import main

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
