"""Tests of the benchmark itself: its checkers, its cap and its traced mode.

    python3 -m pytest -q perfbench/tests

Run from the root of a checkout.  The worker tests start worker.py on small
slices of each workload's inputs, with and without tracing.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import birat  # noqa: E402
import check  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402


def _op(workload, prefix, seed=0):
    return next(op for op in inputs.make_inputs(workload, seed)["ops"] if op["id"].startswith(prefix))


# ---------------------------------------------------------------------------
# each checker accepts birat's answer and rejects a wrong one


@pytest.mark.parametrize("prefix", ["P2/involution/", "P3/auto/"])
def test_deform_checker_rejects_perturbed_limit(prefix):
    op = _op("deform-corpus", prefix)
    out = worker.deform_op(birat, op)
    assert check.check_deform(op, out) == []
    v = json.loads(out)
    rows = [r.split(",") for r in v["limit"].strip("[]").split("],[")]
    rows[1][1] = str(inputs.Fraction(rows[1][1]) + 1)
    v["limit"] = "[" + ",".join("[" + ",".join(r) + "]" for r in rows) + "]"
    assert check.check_deform(op, json.dumps(v)) != []


def test_deform_checker_rejects_wrong_flags():
    op = _op("deform-corpus", "P3/translation/")
    v = json.loads(worker.deform_op(birat, op))
    assert check.check_deform(op, json.dumps(v)) == []
    v["reasons"]["p_i0_nonzero"] = [not x for x in v["reasons"]["p_i0_nonzero"]]
    assert check.check_deform(op, json.dumps(v)) != []


@pytest.mark.parametrize("prefix", ["P3/Q/SL/", "P4/Fp:101/AS/", "P3/Q/SS/"])
def test_compose_checker_rejects_extra_linear_factor(prefix):
    op = _op("compose-p3p4", prefix)
    out = worker.compose_op(birat, op)
    assert check.check_compose(op, out) == []
    F = inputs.QQ if op["field"] == "Q" else inputs.F101
    n = len(out.split(":")) - 1
    body = out.partition(":")[2].strip()[1:-1].split(":")
    form = {tuple(int(i == j) for i in range(n)): c for j, c in ((0, 1), (1, 2), (n - 1, 3))}
    wrong = [inputs.pmul(F, check.parse_poly_terms(c, n), form) for c in body]
    if F is inputs.F101:
        wrong = [{e: c.numerator % 101 for e, c in w.items()} for w in wrong]
    assert check.check_compose(op, inputs.map_text(F, wrong)) != []


def test_compose_checker_rejects_a_different_map():
    op = _op("compose-p3p4", "P3/Q/LA/")
    other = _op("compose-p3p4", "P3/Q/LA/", seed=1)
    assert check.check_compose(op, worker.compose_op(birat, other)) != []


def test_verify_checker_rejects_changed_byte():
    op = _op("verify-suites", "linear/Q/")
    out = worker.verify_op(birat, op)
    assert check.check_verify(op, out, worker.verify_op(birat, op)) == []
    run = json.loads(out)
    changed = json.dumps(dict(run, stdout=run["stdout"].replace('"seed": ', '"seed": 1', 1)))
    assert check.check_verify(op, out, changed) != []
    failing = json.dumps(dict(run, stdout=run["stdout"].replace('"passed": ', '"passed": 1', 1)))
    assert check.check_verify(op, failing, failing) != []


def test_inputs_depend_only_on_the_seed():
    for workload in inputs.WORKLOADS:
        a = inputs.make_inputs(workload, 3)
        assert a == inputs.make_inputs(workload, 3)
        assert a != inputs.make_inputs(workload, 4)


# ---------------------------------------------------------------------------
# the worker: traced and untraced runs agree, and the cap fails the known
# fault and nothing else, traced or not

# The first operation whose id starts with each prefix.
SLICES = {
    "deform-corpus": ("P2/auto/0", "P2/twisted/0", "P3/involution/0", "P3/base/0", "P3/pole/0",
                      "P3/translation/0", "P3/singular/0"),
    "compose-p3p4": ("P3/Q/SS/", "P3/Q/LC/", "P4/Fp:101/SL/", "P4/Q/AA/", "fault/P3/SC"),
    "verify-suites": tuple(f"{s}/Qi/1" for s in inputs.SUITES),
}

# Per-layer metrics each workload must move, even on its slice.
EXERCISED = {
    "deform-corpus": (
        "scalars.mul.calls", "scalars.add.calls", "scalars.inverse.calls", "scalars.self_s",
        "kernels.mul_terms.calls", "kernels.terms_out", "poly.gcd.calls", "poly.gcd.self_s",
        "poly.exact_div.calls", "poly.exact_div.max_coeff_bits", "poly.mul.calls", "poly.rational.calls",
        "poly.jacobian.self_s", "poly.parse.self_s", "cremona.reduce.calls", "cremona.to_chart.calls",
        "cremona.to_chart.hit_ratio", "cremona.is_local_isomorphism.calls",
        "deformation.build_family.self_s", "deformation.extendability.self_s",
        "deformation.limit_vs_jacobian.self_s", "matrices.det.calls", "matrices.self_s", "linear.self_s",
    ),
    "compose-p3p4": (
        "scalars.mul.calls", "scalars.self_s", "kernels.mul_terms.calls", "kernels.add_terms.self_s",
        "kernels.terms_out", "poly.gcd.calls", "poly.gcd.total_s", "poly.gcd.nontrivial",
        "poly.exact_div.calls", "poly.mul.calls", "poly.substitute.calls", "poly.substitute.self_s",
        "poly.parse.self_s", "cremona.compose.calls", "cremona.compose.self_s", "cremona.reduce.calls",
    ),
    "verify-suites": (
        "scalars.mul.calls", "scalars.inverse.calls", "matrices.det.calls", "matrices.self_s",
        "linear.self_s", "affine.self_s", "cocycles.self_s", "cli.main.self_s",
        *(f"suites.{s}.total_s" for s in inputs.SUITES),
    ),
}


def _run_worker(tmp_path, workload, trace):
    ops = [_op(workload, prefix) for prefix in SLICES[workload]]
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps({"ops": ops}))
    result = tmp_path / f"{workload}-{trace}.result.json"
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--launched", repr(time.monotonic()),
           "--workload", workload, "--inputs", str(path), "--seconds", "0",
           "--trace", str(trace), "--result", str(result)]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=300)
    return ops, json.loads(result.read_text())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_run_matches_untraced_and_counts_every_layer(tmp_path, workload):
    ops, plain = _run_worker(tmp_path, workload, 0)
    _, traced = _run_worker(tmp_path, workload, 1)
    assert traced["outputs"] == plain["outputs"]
    assert set(traced["failed"]) == set(plain["failed"]) == {op["id"] for op in ops if op.get("known_fault")}
    assert check.check_run(workload, ops, plain) == []
    layers = traced["layers"]
    assert not [name for name in EXERCISED[workload] if not layers[name]]
    assert "layers" not in plain


def test_a_capped_operation_other_than_the_known_fault_fails_the_run():
    ops = [_op("deform-corpus", "P3/involution/0"), _op("compose-p3p4", "P3/Q/SS/")]
    result = worker.run_rounds(birat, worker.deform_op, ops[:1], 0, 1e-4, None)
    assert result["failed"] == [ops[0]["id"]] * worker.MIN_ROUNDS
    assert check.check_run("deform-corpus", ops[:1], result) == [f"{ops[0]['id']}: capped (not a known fault)"]
    known = dict(ops[1], known_fault=True)
    result = worker.run_rounds(birat, worker.compose_op, [known], 0, 1e-4, None)
    assert result["failed"] and check.check_run("compose-p3p4", [known], result) == []


def test_tracer_keeps_its_bookkeeping_out_of_self_times():
    from tracing import Tracer

    class Num:
        def __mul__(self, other):
            return self

    def loop(x):
        for _ in range(20_000):
            x * x

    t = time.perf_counter()
    loop(Num())
    plain = time.perf_counter() - t
    tracer = Tracer()
    tracer.own_cost, tracer.child_cost = Tracer.calibrate()
    # a count hook that costs as much as a coefficient scan
    Num.__mul__ = tracer.wrap("mul", Num.__mul__, hook=lambda args, result: sum(range(300)))
    started = time.perf_counter()
    tracer.wrap("loop", loop)(Num())
    traced = time.perf_counter() - started
    charged = tracer.self_time["loop"] + tracer.self_time["mul"]
    # tracing and hooks cost several times the loop itself, but little of it lands in self times
    assert traced > 3 * plain
    assert charged < plain + 0.3 * (traced - plain)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "compose-p3p4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
