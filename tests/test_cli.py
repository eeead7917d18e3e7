"""End-to-end tests for the command line interface."""

import json
import time

import pytest

from birat.cli import main
from birat.suites import SuiteReport

SIGMA = "P^2: [x1*x2 : x0*x2 : x0*x1]"
HENON = "P^2: [x0^2 : x0*x2 : x0*x1 + x2^2]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", SIGMA, SIGMA)
    assert code == 0
    assert out.strip() == "P^2: [x0 : x1 : x2]"


def test_a_singular_linear_factor_composes_in_full(capsys):
    code, out, _ = run(capsys, "compose", SIGMA, "P^2: [x0 : x0 : x1]")
    assert code == 0
    assert out.strip() == "P^2: [x1 : x1 : x0]"


HUGE = "P^2: [x0^4000 : x1^4000 : x2^4000]"


def test_a_huge_composition_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "compose", HUGE, "P^2: [x0 + x1 : x1 + x2 : x2 + x0]")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err.startswith("LIMIT_EXCEEDED")


def test_the_composition_limit_bounds_the_terms_of_the_product_degree(capsys):
    # C(1412 + 2, 2) = 998,991 monomials pass the limit of 10^6; C(1413 + 2, 2) do not
    code, out, _ = run(capsys, "compose", "P^2: [x0^706 : x1^706 : x2^706]", "P^2: [x0^2 : x1^2 : x2^2]")
    assert code == 0
    assert out.strip() == "P^2: [x0^1412 : x1^1412 : x2^1412]"
    code, out, err = run(capsys, "compose", "P^2: [x0^471 : x1^471 : x2^471]", "P^2: [x0^3 : x1^3 : x2^3]")
    assert code == 2
    assert err.startswith("LIMIT_EXCEEDED")


def test_a_degree_300_composition_is_under_the_limit(capsys):
    code, out, _ = run(capsys, "compose", "P^2: [x0^300 : x1^300 : x2^300]",
                       "P^2: [x0 + x1 : x1 + x2 : x2 + x0]")
    assert code == 0
    assert out.startswith("P^2: [x0^300 + 300*x0^299*x1 + 44850*x0^298*x1^2 + ")


def test_composing_with_the_identity_is_not_limited(capsys):
    for f, g in ((HUGE, "P^2: [x0 : x1 : x2]"), ("P^2: [x0 : x1 : x2]", HUGE)):
        code, out, _ = run(capsys, "compose", f, g)
        assert code == 0
        assert out.strip() == HUGE


def test_degree(capsys):
    code, out, _ = run(capsys, "degree", SIGMA)
    assert code == 0
    assert out.strip() == "2"


def test_apply(capsys):
    code, out, _ = run(capsys, "apply", SIGMA, "[1:2:3]")
    assert code == 0
    assert out.strip() == "[1:1/2:1/3]"


def test_apply_indeterminate(capsys):
    code, out, err = run(capsys, "apply", SIGMA, "[1:0:0]")
    assert code == 2
    assert out == ""
    assert err.startswith("INDETERMINATE_AT_POINT")


def test_parse_error(capsys):
    code, _, err = run(capsys, "degree", "nonsense")
    assert code == 2
    assert err.startswith("PARSE_ERROR")


@pytest.mark.parametrize("outer", [
    "P^1: [x0^2 : " + "1" * 5000 + "*x1^2]",
    "P^1: [x0^" + "9" * 5000 + " : x1]",
], ids=["coefficient", "exponent"])
def test_an_integer_literal_past_the_digit_limit_is_a_parse_error(capsys, outer):
    # int() refuses more than 4300 digits with a ValueError, not a BiratError
    code, out, err = run(capsys, "compose", outer, "P^1: [x0 : x1]")
    assert code == 2
    assert out == ""
    assert err.startswith("PARSE_ERROR")


def test_a_huge_power_of_a_literal_is_refused_before_it_is_computed(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "degree", "P^2: [2^7569131557543087404*x0 : x1 : x2]")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.strip() == "LIMIT_EXCEEDED: a literal power passes 4300 digits"


def test_a_product_of_literals_past_the_digit_limit_is_refused(capsys):
    # each literal parses, but their product could not be printed
    big = "7" * 3000
    start = time.perf_counter()
    code, out, err = run(capsys, "compose", f"P^2: [{big} {big}*x0 + x1 : x1 : x2]", "P^2: [x0 : x1 : x2]")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.strip() == "LIMIT_EXCEEDED: a literal product passes 4300 digits"


@pytest.mark.parametrize("field, text", [
    ("Q", "(2)^7569131557543087404*x0"),
    ("Q", "(2)^75691*x0"),
    ("Q", "(3/4)^7569131557543087404*x0"),
    ("Q", "(2)^10000*(3)^10000*x0"),
    ("Qi", "(1 + i)^7569131557543087404*x0"),
])
def test_a_huge_power_of_a_parenthesised_constant_is_refused(capsys, field, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "degree", "--field", field, f"P^2: [{text} : x1 : x2]")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.strip() == "LIMIT_EXCEEDED: a constant passes 4300 digits"


@pytest.mark.parametrize("field, text", [
    ("Q", "(2)^100*x0"),
    ("Q", "(2)^14283*x0"),
    ("Q", "(1)^7569131557543087404*x0"),
    ("Qi", "(i)^7569131557543087404*x0"),
    ("Fp:101", "(2)^7569131557543087404*x0"),
])
def test_a_bounded_power_of_a_parenthesised_constant_parses(capsys, field, text):
    start = time.perf_counter()
    code, out, _ = run(capsys, "degree", "--field", field, f"P^2: [{text} : x1 : x2]")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.strip() == "1"


@pytest.mark.parametrize("argv, printed", [
    # 2^14284 has 4300 digits, the most that prints
    (["degree", "P^2: [2^14284*x0 : x1 : x2]"], "1"),
    # over F_p literals are reduced as they multiply: 77...79 = 2 mod 101
    (["compose", "--field", "Fp:101", "P^2: [x1 : " + "7" * 2999 + "9*" + "7" * 2999 + "9*x0 : x2]",
      "P^2: [x0 : x1 : x2]"], "P^2: [x1 : 4*x0 : x2]"),
])
def test_literals_within_the_digit_limit_parse(capsys, argv, printed):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == printed


def test_field_option(capsys):
    code, out, _ = run(capsys, "apply", "--field", "Fp:5", SIGMA, "[1:2:3]")
    assert code == 0
    assert out.strip() == "[1:3:2]"


def test_deform_text(capsys):
    code, out, _ = run(capsys, "deform", HENON)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t-family on A^2: (x2) / (1) ; (x1 + t*x2^2) / (1)"
    assert lines[1] == "extendable: true"
    assert lines[2] == "limit: [[1,0,0],[0,0,1],[0,1,0]]"


def test_deform_json(capsys):
    code, out, _ = run(capsys, "deform", "--json", HENON)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["extendable"] is True
    assert doc["limit"] == "[[1,0,0],[0,0,1],[0,1,0]]"
    assert doc["reasons"]["p_i0_nonzero"] == [False, False]


def test_deform_not_extendable(capsys):
    code, out, _ = run(capsys, "deform", "--json", SIGMA)
    assert code == 0
    doc = json.loads(out)
    assert doc["extendable"] is False
    assert doc["limit"] is None
    assert doc["reasons"]["p_i0_nonzero"] == [True, True]
    assert doc["reasons"]["q_i0_zero"] == [True, True]


def test_deform_at_point(capsys):
    code, out, _ = run(capsys, "deform", "--json", "--at", "[1:1:1]", SIGMA)
    assert code == 0
    doc = json.loads(out)
    assert doc["extendable"] is True
    assert doc["limit"] == "[[1,0,0],[0,-1,0],[0,0,-1]]"


def test_dieudonne(capsys):
    code, out, _ = run(
        capsys, "dieudonne", "--h", "[[1,0],[0,1]]", "--dual", "-g", "[[1,2],[0,1]]"
    )
    assert code == 0
    assert out.strip() == "[[1,0],[-2,1]]"


def test_dieudonne_conjugation(capsys):
    code, out, _ = run(
        capsys, "dieudonne", "--field", "Qi",
        "--h", "[[1,0],[0,1]]", "--alpha", "conj", "-g", "[[i,0],[0,1]]",
    )
    assert code == 0
    assert out.strip() == "[[1,0],[0,i]]"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "[[2,1],[1,1]]")
    assert code == 0
    assert out.splitlines() == ["factors: 2", "E[0][1](1)", "E[1][0](1)"]


def test_decompose_rejects(capsys):
    code, _, err = run(capsys, "decompose", "[[2,0],[0,1]]")
    assert code == 2
    assert err.startswith("NOT_UNIMODULAR")


def test_congruence(capsys):
    code, out, _ = run(capsys, "congruence", "[[4,3],[9,7]]", "--prime", "3")
    assert code == 0
    assert out.strip() == "true"
    code, out, _ = run(capsys, "congruence", "[[1,1],[0,1]]", "--prime", "3")
    assert code == 0
    assert out.strip() == "false"


def test_congruence_bad_modulus(capsys):
    code, _, err = run(capsys, "congruence", "[[1,0],[0,1]]", "--prime", "4")
    assert code == 2
    assert err.startswith("BAD_MODULUS")


def test_unprovable_prime_is_a_bad_modulus(capsys):
    pseudoprime = str(399165290221 * 798330580441)
    code, _, err = run(capsys, "verify", "--field", f"Fp:{pseudoprime}")
    assert code == 2
    assert err.startswith("BAD_MODULUS")
    code, _, err = run(capsys, "congruence", "[[1,0],[0,1]]", "--prime", pseudoprime)
    assert code == 2
    assert err.startswith("BAD_MODULUS")


def test_congruence_bad_matrix(capsys):
    code, _, err = run(capsys, "congruence", "[[1,0],[0,1.5]]", "--prime", "3")
    assert code == 2
    assert err.startswith("PARSE_ERROR")
    code, _, err = run(capsys, "congruence", "[[true,0],[0,1]]", "--prime", "3")
    assert code == 2
    assert err.startswith("PARSE_ERROR")


def test_congruence_empty_matrix(capsys):
    code, _, err = run(capsys, "congruence", "[]", "--prime", "3")
    assert code == 2
    assert err.startswith("DIM_MISMATCH")


def test_trivialize(capsys):
    code, out, _ = run(capsys, "trivialize", "--cocycle", "[[i]]")
    assert code == 0
    assert out.strip() == "[[1+i]]"


def test_trivialize_rejects(capsys):
    code, _, err = run(capsys, "trivialize", "--cocycle", "[[2]]")
    assert code == 2
    assert err.startswith("NOT_A_COCYCLE")


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cremona", "--trials", "5")
    assert code == 0
    assert out.strip() == "cremona: 5/5 passed (ok)"


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "linear", "--trials", "4", "--json"
    )
    assert code == 0
    report = SuiteReport.from_dict(json.loads(out))
    assert report.ok
    assert report.trials == 4


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "all"
    assert doc["trials"] == 18
    assert doc["passed"] == 18
    assert len(doc["reports"]) == 6


def test_verify_deterministic(capsys):
    args = ("verify", "--trials", "4", "--seed", "42", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_reports_failures(capsys, monkeypatch):
    import birat.suites as suites

    def fails_first(rng, field, dim, seed):
        # seed is the suite seed (0) plus the trial index
        return seed != 0, "x", "1"

    case = suites._Case("t", "0", fails_first)
    monkeypatch.setitem(suites._SUITES, "cremona", (case,))
    code, out, _ = run(capsys, "verify", "--suite", "cremona", "--trials", "3")
    assert code == 1
    assert "cremona: 2/3 passed (1 failed)" in out
    assert "t/0: expected 0, got 1" in out


def test_file_arguments(capsys, tmp_path):
    path = tmp_path / "map.txt"
    path.write_text(SIGMA + "\n")
    code, out, _ = run(capsys, "degree", str(path))
    assert code == 0
    assert out.strip() == "2"


def test_consecutive_calls_share_no_state(capsys):
    verify = ("verify", "--suite", "linear", "--trials", "3", "--seed", "4")
    code, out, _ = run(capsys, *verify, "--json")
    assert code == 0 and json.loads(out)["suite"] == "linear"
    code, plain, _ = run(capsys, *verify)
    assert code == 0 and plain.startswith("linear")
    with pytest.raises(json.JSONDecodeError):
        json.loads(plain)
    _, qi, _ = run(capsys, "compose", "P^1: [x0 : i*x1]", "P^1: [x0 : i*x1]", "--field", "Qi")
    assert qi.strip() == "P^1: [x0 : -x1]"
    code, _, err = run(capsys, "compose", "P^1: [x0 : i*x1]", "P^1: [x0 : x1]")
    assert code == 2 and err.startswith("PARSE_ERROR")
    code, out, _ = run(capsys, "deform", HENON, "--json")
    assert json.loads(out)["extendable"]
    code, out, _ = run(capsys, "deform", HENON)
    assert out.startswith("t-family")
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--suite", "nope"])
    assert exit_.value.code == 2
    assert run(capsys, *verify)[1] == plain
