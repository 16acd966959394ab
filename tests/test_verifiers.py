"""The curvature-identity suite on positive examples and negative controls."""

import numpy as np
import pytest

from flatbundle import catalog
from flatbundle.fields import grid_deriv, make_grid, principal_field
from flatbundle.fundamental import fundamental_batch
from flatbundle.verifiers import (check_codazzi_c1, check_codazzi_c2,
                                  check_connection_formula, check_g0_flat,
                                  check_gauss, check_intrinsic_curvature,
                                  constant_curvature_residual, verify_chart)


def test_identity_suite_pseudosphere(pseudosphere, ps_field_33):
    chart = pseudosphere.chart
    grid = ps_field_33.grid
    reports = {r.identity: r for r in verify_chart(chart, grid)}
    assert set(reports) == {"intrinsic_curvature", "gauss", "codazzi_c1",
                            "codazzi_c2", "connection_nn", "g0_flat"}
    for r in reports.values():
        assert r.passed, r.summary_line()
    assert reports["gauss"].max < 1e-12          # AD engine, closed form
    assert reports["codazzi_c2"].vacuous         # n = 2: no triples


def test_identity_suite_dini(dini, dini_field_65):
    reports = verify_chart(dini.chart, dini_field_65.grid)
    for r in reports:
        assert r.passed, r.summary_line()


def test_gauss_identity_detects_wrong_curvature(ps_field_33):
    """Claiming c~ = 1 for a surface in R^3 must fail loudly."""
    bad = check_gauss(ps_field_33, c=-1.0, ctilde=1.0, tol=1e-8)
    assert not bad.passed
    assert bad.max > 1.0


def test_intrinsic_curvature_detects_wrong_c(pseudosphere):
    import dataclasses
    chart = dataclasses.replace(pseudosphere.chart, c=-2.0)
    grid = make_grid(chart, 33)
    fb = fundamental_batch(chart, grid.points, interior_check=False)
    rep = check_intrinsic_curvature(fb, grid)
    assert not rep.passed


def test_intrinsic_curvature_hyperbolic_band():
    entry = catalog.get("hyperbolic_plane")
    grid = make_grid(entry.chart, (49, 25), box=((-2.0, 2.0), (-1.0, 1.0)))
    fb = fundamental_batch(entry.chart, grid.points, interior_check=False)
    rep = check_intrinsic_curvature(fb, grid)
    assert rep.passed, rep.summary_line()


def test_c2_nonvacuous_for_three_principal_normals():
    """ps3 (pseudosphere x line) has three distinct principal normals;
    both Codazzi identities must hold with real index triples."""
    entry = catalog.get("ps3")
    grid = make_grid(entry.chart, (25, 25, 9))
    pf = principal_field(entry.chart, grid)
    c1 = check_codazzi_c1(pf, tol=5e-4)
    c2 = check_codazzi_c2(pf, tol=5e-4)
    assert not c2.vacuous and c2.points > 0
    assert c1.passed, c1.summary_line()
    assert c2.passed, c2.summary_line()


def test_connection_formula_requires_lambdas(ps_field_33, pseudosphere):
    grid = ps_field_33.grid
    pf = principal_field(pseudosphere.chart, grid, C=None)
    with pytest.raises(ValueError):
        check_connection_formula(pf)


def test_g0_flat_clifford_tight(clifford):
    grid = make_grid(clifford.chart, 33)
    fb = fundamental_batch(clifford.chart, grid.points, interior_check=False)
    rep = check_g0_flat(fb, grid, C=1.0, tol=1e-8)
    assert rep.passed, rep.summary_line()


def test_residual_convergence_order(pseudosphere):
    """Derived-field identities converge at 4th order under refinement."""
    chart = pseudosphere.chart
    data = {}
    for res in (17, 33):
        grid = make_grid(chart, res)
        pf = principal_field(chart, grid, C=chart.C)
        data[res] = (float(np.max(grid.spacing)),
                     check_codazzi_c1(pf).max,
                     check_connection_formula(pf).max)
    (h1, c1a, nn1), (h2, c1b, nn2) = data[17], data[33]
    for coarse, fine in ((c1a, c1b), (nn1, nn2)):
        slope = np.log(coarse / fine) / np.log(h1 / h2)
        assert slope >= 3.5, f"slope {slope:.2f}"


def test_reports_record_engine_and_counts(dini_field_65):
    rep = check_codazzi_c1(dini_field_65)
    assert rep.engine == "ad"
    assert rep.points + rep.skipped == int(np.prod(dini_field_65.grid.shape))
    assert rep.skipped > 0                  # stencil margin rows are masked
    line = rep.summary_line()
    assert "codazzi_c1" in line and "PASS" in line


def test_gauge_coherence_on_grids(ps_field_33, dini_field_65):
    assert ps_field_33.n_incoherent == 0
    assert dini_field_65.n_incoherent == 0


# ---------------------------------------------------------------------------
# curvature kernel against the einsum formulas it replaced

def _einsum_residual(G, grid, c):
    def d(A, k):
        return np.stack([grid_deriv(A, m, grid.spacing[m], grid.periodic[m])
                         for m in range(grid.ndim)], axis=-k)
    dG = d(G, 3)
    low = 0.5 * (dG + np.einsum("...jil->...ijl", dG)
                 - np.einsum("...lij->...ijl", dG))
    Gam = np.einsum("...kl,...ijl->...ijk", np.linalg.inv(G), low)
    dGam = d(Gam, 4)
    Rup = (dGam - np.swapaxes(dGam, -4, -3)
           + np.einsum("...iml,...jkm->...ijkl", Gam, Gam)
           - np.einsum("...jml,...ikm->...ijkl", Gam, Gam))
    R = np.einsum("...lm,...ijkl->...ijkm", G, Rup)
    model = c * (np.einsum("...jk,...il->...ijkl", G, G)
                 - np.einsum("...ik,...jl->...ijkl", G, G))
    num = np.max(np.abs(R - model), axis=(-4, -3, -2, -1))
    return num / (1.0 + np.sum(G * G, axis=(-2, -1)))


@pytest.mark.parametrize("name, res, exact", [
    ("pseudosphere", 65, True),
    ("clifford_torus_s3", 33, True),
    ("ps3", 17, False),
])
def test_curvature_residual_matches_einsum_oracle(name, res, exact):
    chart = catalog.get(name).chart
    grid = make_grid(chart, res)
    G = fundamental_batch(chart, grid.points, interior_check=False).g
    for c in (-1.0, 0.0, 1.0):
        new = constant_curvature_residual(G, grid, c)
        old = _einsum_residual(G, grid, c)
        assert np.array_equal(np.isnan(new), np.isnan(old))
        assert np.isfinite(new).any()
        if exact:
            assert np.array_equal(new, old, equal_nan=True)
        else:
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-13)
