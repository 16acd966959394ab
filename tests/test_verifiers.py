"""The curvature-identity suite on positive examples and negative controls."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from flatbundle import catalog
from flatbundle.fields import (ALIGN_MIN, Grid, _alignment_matrices,
                               _signed_permutation, make_grid,
                               principal_field)
from flatbundle.fundamental import fundamental_batch
from flatbundle.principal import principal_batch
from flatbundle.verifiers import (IDENTITIES, check_codazzi_c1,
                                  check_codazzi_c2, check_connection_formula,
                                  check_g0_flat, check_gauss,
                                  check_intrinsic_curvature,
                                  constant_curvature_residual,
                                  residual_report, verify_chart)


def test_identity_suite_pseudosphere(pseudosphere, ps_field_33):
    chart = pseudosphere.chart
    grid = ps_field_33.grid
    reports = {r.identity: r for r in verify_chart(chart, grid)[0]}
    assert set(reports) == {"intrinsic_curvature", "gauss", "codazzi_c1",
                            "codazzi_c2", "connection_nn", "g0_flat"}
    for r in reports.values():
        assert r.passed, r.summary_line()
    assert reports["gauss"].max < 1e-12          # AD engine, closed form
    assert reports["codazzi_c2"].vacuous         # n = 2: no triples


def test_identity_suite_dini(dini, dini_field_65):
    reports, _ = verify_chart(dini.chart, dini_field_65.grid)
    for r in reports:
        assert r.passed, r.summary_line()


@pytest.mark.parametrize("name, res, skipped", [
    ("product_torus_r4", 17, {"connection_nn", "g0_flat"}),     # C = 0
    ("ps3", (17, 17, 9), {"intrinsic_curvature", "gauss",      # c unasserted
                          "connection_nn", "g0_flat"}),
    ("veronese_r5", 17, set(IDENTITIES)),                      # not flat
])
def test_verify_chart_names_each_identity_once(name, res, skipped):
    chart = catalog.get(name).chart
    reports, why = verify_chart(chart, make_grid(chart, res))
    ran = [r.identity for r in reports]
    assert set(why) == skipped
    assert sorted(ran + list(why)) == sorted(IDENTITIES)
    assert ran == [i for i in IDENTITIES if i not in skipped]


def test_verify_chart_evaluates_the_grid_once(pseudosphere, monkeypatch):
    """Flatness is tested on the grid batch that the principal field then
    decomposes: one fundamental batch, over the grid's points."""
    import sys
    shapes = []
    orig = fundamental_batch

    def counted(chart, U):
        shapes.append(np.shape(U))
        return orig(chart, U)

    for name, mod in list(sys.modules.items()):
        if name.startswith("flatbundle") \
                and getattr(mod, "fundamental_batch", None) is orig:
            monkeypatch.setattr(mod, "fundamental_batch", counted)
    reports, skipped = verify_chart(pseudosphere.chart,
                                    make_grid(pseudosphere.chart, 17))
    assert len(reports) == len(IDENTITIES) and not skipped
    assert shapes == [(17, 17, 2)]


@pytest.mark.parametrize("name, res, most", [
    ("ps3", (17, 17, 9), 18),          # 9 for the frame, 9 for the eta_i
    ("pseudosphere", 33, 60),          # 48 for the two metric checks
])
def test_verify_chart_differentiates_each_field_once(name, res, most,
                                                     monkeypatch):
    """The field identities read one connection table: each frame vector,
    each principal normal and each 1/lambda_i takes one grid derivative
    per chart axis in a verify_chart, however many index pairs read it."""
    calls = []
    deriv = Grid.deriv

    def counted(self, A, axis):
        calls.append(1)
        return deriv(self, A, axis)

    monkeypatch.setattr(Grid, "deriv", counted)
    chart = catalog.get(name).chart
    reports, _ = verify_chart(chart, make_grid(chart, res))
    assert "codazzi_c1" in [r.identity for r in reports]
    assert len(calls) <= most


@pytest.mark.parametrize("res, horocycle, skew", [(33, 5e-5, 1e-4),
                                                  (65, 3e-6, 1e-5)])
def test_connection_table_closed_form_pseudosphere(pseudosphere, res,
                                                   horocycle, skew):
    """On the pseudosphere the meridians are geodesics, so
    <D_{X_u} X_u, X_v> = 0, and the parallels are horocycles of geodesic
    curvature 1, so |<D_{X_v} X_v, X_u>| = 1; the frame is orthonormal, so
    the table is skew in its last two indices.  The order-4 stencil makes
    the last two errors fall like h^4."""
    chart = pseudosphere.chart
    grid = make_grid(chart, res)
    pf = principal_field(fundamental_batch(chart, grid.points), grid)
    gam = np.array(pf.gamma)                         # (a, b, c) + grid
    ok = pf.coherent & np.all(np.isfinite(gam), axis=(0, 1, 2))
    assert np.count_nonzero(ok) > 0.8 * ok.size
    is_u = np.argmax(np.abs(pf.pb.X_chart[..., :, 0]), axis=-1) == 0
    uuv = np.where(is_u, gam[0, 0, 1], gam[1, 1, 0])[ok]
    vvu = np.where(is_u, gam[1, 1, 0], gam[0, 0, 1])[ok]
    assert np.max(np.abs(uuv)) <= 1e-12
    assert np.max(np.abs(np.abs(vvu) - 1.0)) <= horocycle
    assert np.max(np.abs(gam + gam.swapaxes(1, 2))[..., ok]) <= skew


def test_gauss_identity_detects_wrong_curvature(ps_field_33):
    """Claiming c = -2 for the pseudosphere in R^3 sets the target
    c - c~ to -2, which must fail loudly."""
    wrong = dataclasses.replace(ps_field_33.chart, c=-2.0)
    bad = check_gauss(dataclasses.replace(ps_field_33, chart=wrong),
                      tol=1e-8)
    assert not bad.passed
    assert bad.max > 1.0


def test_intrinsic_curvature_detects_wrong_c(pseudosphere):
    import dataclasses
    chart = dataclasses.replace(pseudosphere.chart, c=-2.0)
    grid = make_grid(chart, 33)
    fb = fundamental_batch(chart, grid.points)
    rep = check_intrinsic_curvature(fb, grid)
    assert not rep.passed


def test_intrinsic_curvature_hyperbolic_band():
    entry = catalog.get("hyperbolic_plane", extent_x=2.0, extent_y=1.0)
    grid = make_grid(entry.chart, (49, 25))
    fb = fundamental_batch(entry.chart, grid.points)
    rep = check_intrinsic_curvature(fb, grid)
    assert rep.passed, rep.summary_line()


def test_c2_nonvacuous_for_three_principal_normals():
    """ps3 (pseudosphere x line) has three distinct principal normals;
    both Codazzi identities must hold with real index triples."""
    entry = catalog.get("ps3")
    grid = make_grid(entry.chart, (25, 25, 9))
    pf = principal_field(fundamental_batch(entry.chart, grid.points), grid)
    c1 = check_codazzi_c1(pf, tol=5e-4)
    c2 = check_codazzi_c2(pf, tol=5e-4)
    assert not c2.vacuous and c2.points > 0
    assert c1.passed, c1.summary_line()
    assert c2.passed, c2.summary_line()


def test_connection_formula_requires_lambdas(ps_field_33, pseudosphere):
    grid = ps_field_33.grid
    # without an asserted c there is no gap C, hence no lambdas
    chart = dataclasses.replace(pseudosphere.chart, c=None)
    pf = principal_field(fundamental_batch(chart, grid.points), grid)
    with pytest.raises(ValueError):
        check_connection_formula(pf)


def test_g0_flat_clifford_tight(clifford):
    grid = make_grid(clifford.chart, 33)
    fb = fundamental_batch(clifford.chart, grid.points)
    rep = check_g0_flat(fb, grid, tol=1e-8)
    assert rep.passed, rep.summary_line()


def test_residual_convergence_order(pseudosphere):
    """Derived-field identities converge at 4th order under refinement."""
    chart = pseudosphere.chart
    data = {}
    for res in (17, 33):
        grid = make_grid(chart, res)
        pf = principal_field(fundamental_batch(chart, grid.points), grid)
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


@pytest.mark.parametrize("identity, residuals, line", [
    ("commutator", [1.733e-15], "commutator PASS max=1.733e-15 tol=1.0e-04"),
    ("codazzi_c2", [], "codazzi_c2 PASS(vacuous) max=0.000e+00 tol=1.0e-04 "
                       "points=0 skipped=0"),
    ("gauss", [[2e-5, np.nan], [3e-4, 1e-6]],
     "gauss FAIL max=3.000e-04 tol=1.0e-04 points=3 skipped=1"),
])
def test_summary_line_counts_all_but_a_single_value(dini, identity,
                                                     residuals, line):
    """Every identity line is ResidualReport.summary_line: a check of one
    value (the commutator, the flow round trip) prints no point counts,
    an empty one (codazzi_c2 at n = 2) prints points=0 skipped=0, and a
    grid its finite and skipped entries."""
    rep = residual_report(identity, residuals, 1e-4, dini.chart)
    assert rep.summary_line() == line


def test_gauge_coherence_on_grids(ps_field_33, dini_field_65):
    assert ps_field_33.n_incoherent == 0
    assert dini_field_65.n_incoherent == 0


def _recomputed_coherence(fb, grid, pf):
    """The coherence mask with the overlaps recomputed from the regauged
    frames, and the ambiguity from the canonical ones."""
    sig = fb.chart.ambient.signature
    X0, X = principal_batch(fb).X_cont, pf.pb.X_cont
    coherent = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.ndim):
        _, amb = _signed_permutation(
            _alignment_matrices(X0, np.roll(X0, -1, axis=ax), sig))
        Q = _alignment_matrices(X, np.roll(X, -1, axis=ax), sig)
        bad = np.any(np.einsum("...kk->...k", Q) < ALIGN_MIN, axis=-1) | amb
        if not grid.periodic[ax]:
            bad[(slice(None),) * ax + (-1,)] = False
        coherent &= ~bad & ~np.roll(bad, 1, axis=ax)
    return coherent


@pytest.mark.parametrize("res", [9, 17, 33])
@pytest.mark.parametrize("name", ["veronese_r5", "hyperbolic_plane"])
def test_coherence_reuses_the_first_pass_overlaps(name, res):
    """The regauged overlaps are M Q M_next^T of the first pass's Q, which
    is exact for signed permutations M: the mask equals one from overlaps
    recomputed on the regauged frames, on charts with incoherent points."""
    chart = catalog.get(name).chart
    grid = make_grid(chart, res)
    fb = fundamental_batch(chart, grid.points)
    pf = principal_field(fb, grid)
    assert pf.n_incoherent > 0
    np.testing.assert_array_equal(pf.coherent,
                                  _recomputed_coherence(fb, grid, pf))


# ---------------------------------------------------------------------------
# curvature kernel against the einsum formulas it replaced

def _einsum_residual(G, grid, c):
    def d(A, k):
        return np.stack([grid.deriv(A, m) for m in range(grid.ndim)],
                        axis=-k)
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
    G = fundamental_batch(chart, grid.points).g
    for c in (-1.0, 0.0, 1.0):
        new = constant_curvature_residual(G, grid, c)
        old = _einsum_residual(G, grid, c)
        assert np.array_equal(np.isnan(new), np.isnan(old))
        assert np.isfinite(new).any()
        if exact:
            assert np.array_equal(new, old, equal_nan=True)
        else:
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name, res", [("pseudosphere", 257), ("ps3", 17)])
def test_curvature_residual_memory_budget(name, res):
    """The tracemalloc peak of one residual call stays within the arrays it
    holds: the n^3 Christoffel symbols and their n^4 derivatives, one grid
    array each, plus 4n + 4 working arrays (the running max, the n
    components R^m_{kij} of one (i, j, k), and the temporaries of a sum or
    a stencil).  That is 36 grid arrays (18.1 MiB) at 257^2 and 124 at
    17^3; the peaks are 32 (16.1 MiB) and 119.  The broadcast tensors it
    replaced peaked at 56 (28.3 MiB) and 274."""
    chart = catalog.get(name).chart
    grid = make_grid(chart, res)
    G = fundamental_batch(chart, grid.points).g
    n = grid.ndim
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        constant_curvature_residual(G, grid, -1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    budget = (n ** 3 + n ** 4 + 4 * n + 4) * G[..., 0, 0].nbytes
    assert peak <= budget, (peak / 2 ** 20, budget / 2 ** 20)
