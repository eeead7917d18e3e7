"""Tests of the term-dict kernels."""

import birat
from birat import _kernels
from birat.scalars import QQ


def test_backend_name():
    assert birat.kernel_backend == "py"


def test_py_mul_cancels():
    x = {(1, 0): QQ.one()}
    y = {(0, 1): QQ.one()}
    a = _kernels.add_terms(x, y)
    b = _kernels.add_terms(x, {e: -c for e, c in y.items()})
    prod = _kernels.mul_terms(a, b)
    assert prod == {(2, 0): QQ.one(), (0, 2): -QQ.one()}


def test_py_scale_by_zero():
    a = {(1,): QQ.from_int(3)}
    assert _kernels.scale_terms(a, QQ.zero()) == {}
