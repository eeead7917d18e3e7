"""Tests of the term-dict kernels."""

import birat
from birat import _kernels
from birat.scalars import QQ


def test_backend_name():
    assert birat.kernel_backend == "py"


def test_py_mul_cancels():
    # mul_terms' keys are packed monomials: x0^i*x1^j is i + 256*j in bytes
    x = {1: QQ.one()}
    y = {256: QQ.one()}
    a = _kernels.add_terms(x, y)
    b = _kernels.add_terms(x, {e: -c for e, c in y.items()})
    prod = _kernels.mul_terms(a, b)
    assert prod == {2: QQ.one(), 512: -QQ.one()}


def test_py_scale_by_zero():
    a = {(1,): QQ.from_int(3)}
    assert _kernels.scale_terms(a, QQ.zero()) == {}
