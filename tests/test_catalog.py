"""Every catalog entry's advertised properties are re-derived here; the
catalog itself carries no claim this file does not check."""

import math

import numpy as np
import pytest

from flatbundle import catalog
from flatbundle.errors import DomainError, ModelConsistencyError
from flatbundle.fields import make_grid
from flatbundle.fundamental import fundamental_batch, normal_bundle_is_flat
from flatbundle.principal import principal_decomposition
from flatbundle.sinegordon import (SampledAngle, integrate_surface,
                                   one_soliton, sine_gordon_residual)
from flatbundle.verifiers import check_intrinsic_curvature

CLOSED_FORM = ["pseudosphere", "dini", "product_torus_r4", "clifford_torus_s3",
               "sphere_negative_control", "hyperbolic_plane", "ps3",
               "veronese_r5", "plane_r3"]


def _center(chart):
    return np.array([0.5 * (lo + hi) for lo, hi in chart.domain])


def test_registry_contents():
    assert set(catalog.names()) == set(CLOSED_FORM) | {"sine_gordon_surface"}
    with pytest.raises(KeyError):
        catalog.get("moebius_strip")


@pytest.mark.parametrize("name", CLOSED_FORM)
def test_expected_properties_rederived(name):
    entry = catalog.get(name)
    chart = entry.chart
    u = _center(chart)
    flat, res = normal_bundle_is_flat(chart, u)
    assert flat == entry.expected["flat_normal_bundle"], res
    if "s" in entry.expected:
        dec = principal_decomposition(fundamental_batch(chart, u))
        assert dec.s == entry.expected["s"]
    if "C_positive" in entry.expected:
        assert (chart.C is not None and chart.C > 0) \
            == entry.expected["C_positive"]
    if chart.c is not None and flat:
        grid = make_grid(chart, (25,) * chart.n)
        fb = fundamental_batch(chart, grid.points, interior_check=False)
        rep = check_intrinsic_curvature(fb, grid, tol=5e-2)
        assert rep.passed, rep.summary_line()


def test_parameter_validation():
    with pytest.raises(ValueError):
        catalog.get("dini", a=0.0)
    with pytest.raises(ValueError):
        catalog.get("clifford_torus_s3", t=2.0)
    with pytest.raises(ValueError):
        catalog.get("product_torus_r4", r2=-1.0)
    with pytest.raises(ValueError):
        catalog.get("sphere_negative_control", c=-1.0)
    with pytest.raises(ValueError):
        catalog.get("hyperbolic_plane", extent_y=2.0)


def test_dini_b0_is_reparametrized_pseudosphere():
    """b = 0 removes the helicoidal shear: K = -1/a^2 and the surface is a
    rescaled pseudosphere (same curvature magnitudes pattern)."""
    entry = catalog.get("dini", a=2.0, b=0.0)
    assert entry.c == pytest.approx(-0.25)
    fb = fundamental_batch(entry.chart, np.array([1.0, 0.8]))
    dec = principal_decomposition(fb)
    k = np.sort(np.linalg.norm(dec.etas, axis=-1))
    assert k[0] * k[1] == pytest.approx(0.25, rel=1e-10)   # k1 k2 = c


# ---------------------------------------------------------------------------
# sine-Gordon integration

@pytest.fixture(scope="module")
def soliton_entry():
    return catalog.get("sine_gordon_surface")


def test_one_soliton_residual():
    res, rng = sine_gordon_residual(one_soliton, ((-1.6, -0.4), (-1.6, -0.4)))
    assert res < 1e-12
    assert 0.0 < rng[0] and rng[1] < math.pi


def test_soliton_surface_metric(soliton_entry):
    """Induced metric of the integrated surface matches the closed form
    du^2 + 2 cos(phi) du dv + dv^2."""
    surf = soliton_entry.params["surface"]
    assert surf.sg_residual < 1e-12
    assert surf.monodromy_residual < 1e-6
    chart = soliton_entry.chart
    assert chart.engine == "fd"
    grid = make_grid(chart, 33)
    fb = fundamental_batch(chart, grid.points, interior_check=False)
    want = surf.expected_metric(grid.points)
    assert float(np.max(np.abs(fb.g - want))) < 1e-3


def test_soliton_surface_curvature(soliton_entry):
    grid = make_grid(soliton_entry.chart, 49)
    fb = fundamental_batch(soliton_entry.chart, grid.points,
                           interior_check=False)
    rep = check_intrinsic_curvature(fb, grid, tol=1e-2)
    assert rep.passed, rep.summary_line()


def test_chebyshev_constant_angle():
    """phi = pi/2 is not a sine-Gordon solution; with the residual check
    disabled the integration still produces unit-speed coordinate curves
    (the Chebyshev-net property) and reports the monodromy inconsistency."""
    phi = lambda u, v: 0.0 * u + 0.0 * v + math.pi / 2.0
    with pytest.raises(ModelConsistencyError):
        integrate_surface(phi, resolution=33)
    surf = integrate_surface(phi, resolution=33, residual_tol=math.inf)
    np.testing.assert_allclose(np.linalg.norm(surf.Fu, axis=-1), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(surf.Fv, axis=-1), 1.0,
                               atol=1e-12)
    assert surf.monodromy_residual > 1e-3    # reported, not enforced


def test_angle_range_guard():
    phi = lambda u, v: 0.0 * u + 0.0 * v + 3.2      # > pi
    with pytest.raises(DomainError):
        integrate_surface(phi, resolution=33, residual_tol=math.inf)


def test_sampled_angle_matches_callable():
    us = np.linspace(-1.6, -0.4, 61)
    vs = np.linspace(-1.6, -0.4, 61)
    U, V = np.meshgrid(us, vs, indexing="ij")
    from flatbundle import dual as dm
    vals = 4.0 * np.arctan(np.exp(U + V))
    sampled = SampledAngle(us, vs, vals)
    f, fu, fv, fuv = sampled.jet(-1.0, -0.9)
    out = one_soliton(dm.seed(np.array(-1.0), 1.0, 0.0),
                      dm.seed(np.array(-0.9), 0.0, 1.0))
    assert float(f) == pytest.approx(float(out.f), abs=1e-10)
    assert float(fu) == pytest.approx(float(out.e1), abs=1e-7)
    assert float(fuv) == pytest.approx(float(out.e12), abs=1e-5)
    res, _ = sine_gordon_residual(sampled, ((-1.5, -0.5), (-1.5, -0.5)))
    assert res < 1e-5
