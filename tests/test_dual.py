"""Hyper-dual arithmetic against closed-form and finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatbundle import dual as dm
from flatbundle.engines import jet


def jet1(f, x, y):
    """(value, f_x, f_y, f_xy) of a two-argument scalar function."""
    out = f(dm.seed(x, 1.0, 0.0), dm.seed(y, 0.0, 1.0))
    return out.f, out.e1, out.e2, out.e12


def test_product_rule_and_mixed_partial():
    f, fx, fy, fxy = jet1(lambda u, v: u * u * v + 3.0 * v, 2.0, 5.0)
    assert f == 2.0 * 2.0 * 5.0 + 15.0
    assert fx == 2.0 * 2.0 * 5.0
    assert fy == 2.0 * 2.0 + 3.0
    assert fxy == 2.0 * 2.0


def test_quotient_and_power():
    x, y = 1.3, 0.7
    f, fx, fy, fxy = jet1(lambda u, v: (u / v) ** 3, x, y)
    assert f == pytest.approx((x / y) ** 3, rel=1e-14)
    assert fx == pytest.approx(3.0 * x ** 2 / y ** 3, rel=1e-13)
    assert fy == pytest.approx(-3.0 * x ** 3 / y ** 4, rel=1e-13)
    assert fxy == pytest.approx(-9.0 * x ** 2 / y ** 4, rel=1e-13)


def test_second_derivative_same_axis():
    # seed the same direction twice: e12 carries d^2f/dx^2
    out = dm.sin(dm.seed(0.8, 1.0, 1.0))
    assert out.e12 == pytest.approx(-math.sin(0.8), rel=1e-14)


@pytest.mark.parametrize("fn,dfn", [
    (dm.sin, math.cos),
    (dm.exp, math.exp),
    (dm.sinh, math.cosh),
    (dm.cosh, math.sinh),
    (dm.tanh, lambda x: 1.0 / math.cosh(x) ** 2),
    (dm.atan, lambda x: 1.0 / (1.0 + x * x)),
    (dm.sech, lambda x: -math.tanh(x) / math.cosh(x)),
])
def test_unary_first_derivatives(fn, dfn):
    x = 0.6
    out = fn(dm.seed(x, 1.0, 0.0))
    assert out.e1 == pytest.approx(dfn(x), rel=1e-13)


def test_log_sqrt_domain():
    out = dm.log(dm.sqrt(dm.seed(2.0, 1.0, 0.0)))
    assert out.f == pytest.approx(0.5 * math.log(2.0))
    assert out.e1 == pytest.approx(0.25)


def test_array_components_broadcast():
    x = np.linspace(0.1, 2.0, 7)
    out = dm.cos(dm.seed(x, 1.0, 0.0)) * dm.seed(x, 0.0, 1.0)
    np.testing.assert_allclose(out.f, np.cos(x) * x, rtol=1e-14)
    np.testing.assert_allclose(out.e1, -np.sin(x) * x, rtol=1e-13)
    np.testing.assert_allclose(out.e2, np.cos(x), rtol=1e-14)
    np.testing.assert_allclose(out.e12, -np.sin(x), rtol=1e-13)


def _compound(u, v):
    return dm.exp(dm.sin(u) * dm.cos(v)) + u * u / (dm.cosh(v) + 2.0)


def _compound_float(u, v):
    return math.exp(math.sin(u) * math.cos(v)) + u * u / (math.cosh(v) + 2.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_against_finite_differences(x, y):
    """AD partials of a compound expression agree with central differences."""
    f, fx, fy, fxy = jet1(_compound, x, y)
    h = 1e-5
    fx_fd = (_compound_float(x + h, y) - _compound_float(x - h, y)) / (2 * h)
    fy_fd = (_compound_float(x, y + h) - _compound_float(x, y - h)) / (2 * h)
    fxy_fd = (_compound_float(x + h, y + h) - _compound_float(x + h, y - h)
              - _compound_float(x - h, y + h)
              + _compound_float(x - h, y - h)) / (4 * h * h)
    assert f == pytest.approx(_compound_float(x, y), rel=1e-12)
    assert fx == pytest.approx(fx_fd, rel=1e-6, abs=1e-6)
    assert fy == pytest.approx(fy_fd, rel=1e-6, abs=1e-6)
    assert fxy == pytest.approx(fxy_fd, rel=1e-4, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.3, 2.0))
def test_field_axioms(x, y):
    """Sum/product of hyper-duals behave like truncated Taylor polynomials."""
    a = dm.seed(x, 1.0, 0.0)
    b = dm.seed(y, 0.0, 1.0)
    s = a * b + b * a
    assert s.e12 == pytest.approx(2.0, rel=1e-14)
    q = (a * b) / b
    assert q.f == pytest.approx(x, rel=1e-13, abs=1e-13)
    assert q.e1 == pytest.approx(1.0, rel=1e-12)
    assert q.e2 == pytest.approx(0.0, abs=1e-12)


def test_array_on_the_left_defers_to_hyperdual():
    """numpy does not broadcast a HyperDual into an object array: with an
    ndarray on the left every operator returns a HyperDual, and a chart
    map written ``s * u`` has the jet of ``u * s`` bit for bit."""
    s = np.linspace(0.5, 2.0, 5)
    h = dm.seed(np.linspace(0.1, 1.0, 5), 1.0, 0.0)
    for got, want in ((s + h, h + s), (s - h, -h + s), (s * h, h * s),
                      (s / h, h._reciprocal() * s)):
        assert isinstance(got, dm.HyperDual)
        for slot in dm.HyperDual.__slots__:
            np.testing.assert_array_equal(getattr(got, slot),
                                          getattr(want, slot))

    U = np.stack(np.meshgrid(np.linspace(0.2, 1.0, 5),
                             np.linspace(-1.0, 1.0, 5)), axis=-1)
    s = 1.0 + U[..., 0].ravel() ** 2          # one factor per point
    left = jet(lambda u: (s * u[0], u[1], u[0] * u[1]), U, 2)
    right = jet(lambda u: (u[0] * s, u[1], u[0] * u[1]), U, 2)
    for part in ("value", "first", "second"):
        np.testing.assert_array_equal(getattr(left, part),
                                      getattr(right, part))
