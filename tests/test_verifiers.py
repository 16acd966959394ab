"""The curvature-identity suite on positive examples and negative controls."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from flatbundle import catalog, verifiers
from flatbundle.errors import ConfigError, DegenerateMetricError
from flatbundle.fields import (ALIGN_MIN, Grid, _alignment_matrices,
                               _signed_permutation, make_grid,
                               principal_field)
from flatbundle.fundamental import fundamental_batch
from flatbundle.principal import comparison_metric, principal_batch
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
# Grid.deriv against the four-roll formula it replaced

def _four_roll_deriv(grid, A, axis):
    """The order-4 stencil from four rolled copies of A, NaN written over
    the two-node margins of a non-periodic axis afterwards."""
    def r(k):
        return np.roll(A, -k, axis=axis)

    d = (-r(2) + 8.0 * r(1) - 8.0 * r(-1) + r(-2)) \
        / (12.0 * grid.spacing[axis])
    if not grid.periodic[axis]:
        for bad in (slice(0, 2), slice(-2, None)):
            d[(slice(None),) * axis + (bad,)] = np.nan
    return d


@pytest.mark.parametrize("trailing", [(), (3,), (2, 3)])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_deriv_is_the_four_roll_formula(ndim, trailing, rng):
    """Finite entries are bit-equal to the four-roll formula, NaN lies
    exactly on the two-node margins of a non-periodic axis and nowhere on
    a periodic one, for every axis length from 1 to 9."""
    for length in range(1, 10):
        for axis in range(ndim):
            shape = tuple(int(k) for k in rng.integers(1, 10, ndim))
            shape = shape[:axis] + (length,) + shape[axis + 1:]
            periodic = tuple(bool(p) for p in rng.integers(0, 2, ndim))
            for flip in (False, True):
                periodic = periodic[:axis] + (periodic[axis] ^ flip,) \
                    + periodic[axis + 1:]
                grid = Grid(tuple(np.arange(k, dtype=float) for k in shape),
                            rng.uniform(0.01, 1.0, ndim), periodic)
                A = rng.standard_normal(shape + trailing)
                new = grid.deriv(A, axis)
                old = _four_roll_deriv(grid, A, axis)
                fin = np.isfinite(old)
                assert new.shape == A.shape
                np.testing.assert_array_equal(np.isfinite(new), fin)
                assert np.array_equal(new[fin].view(np.int64),
                                      old[fin].view(np.int64))
                margin = np.zeros(length, dtype=bool)
                if not periodic[axis]:
                    margin[:2] = margin[-2:] = True
                where = margin.reshape((1,) * axis + (length,)
                                       + (1,) * (A.ndim - axis - 1))
                np.testing.assert_array_equal(
                    np.isnan(new), np.broadcast_to(where, A.shape))


def test_grid_resolution_is_one_value_or_one_per_axis(pseudosphere):
    """make_grid reads its resolution by the config file's per-axis rule:
    one value broadcasts, n values are one per axis, any other count is
    refused, and so is an axis of fewer than 2 samples.  (33,) built a 1-D
    grid on this n = 2 chart, (33, 17, 9) dropped the 9, and 1 raised
    ZeroDivisionError."""
    chart = pseudosphere.chart
    assert make_grid(chart, (33,)).shape == make_grid(chart, 33).shape \
        == (33, 33)
    assert make_grid(chart, (33, 17)).shape == (33, 17)
    with pytest.raises(ConfigError,
                       match="^resolution has 3 axes, chart has 2$"):
        make_grid(chart, (33, 17, 9))
    for bad in (1, (1,), (33, 1), 0):
        with pytest.raises(ConfigError, match="^resolution .* at least 2"):
            make_grid(chart, bad)


def test_grid_resolution_float_must_be_integral(pseudosphere):
    """A float resolution reads as its integer only where it is integral,
    scalar or per axis: 33.9 built a 33^2 grid and (33.9, 17) raised
    TypeError."""
    chart = pseudosphere.chart
    assert make_grid(chart, 33.0).shape == (33, 33)
    assert make_grid(chart, (33.0, np.int64(17))).shape == (33, 17)
    for bad in (33.9, (33.9, 17), (33, 17.5), float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="^resolution .* not an integer"):
            make_grid(chart, bad)


# ---------------------------------------------------------------------------
# curvature kernel against the einsum formulas it replaced

def _einsum_residual(G, Ginv, grid, c):
    def d(A, k):
        return np.stack([grid.deriv(A, m) for m in range(grid.ndim)],
                        axis=-k)
    dG = d(G, 3)
    low = 0.5 * (dG + np.einsum("...jil->...ijl", dG)
                 - np.einsum("...lij->...ijl", dG))
    Gam = np.einsum("...kl,...ijl->...ijk", Ginv, low)
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
    Ginv = np.linalg.inv(G)
    for c in (-1.0, 0.0, 1.0):
        new = constant_curvature_residual(G, Ginv, grid, c)
        old = _einsum_residual(G, Ginv, grid, c)
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
    Ginv = np.linalg.inv(G)
    n = grid.ndim
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        constant_curvature_residual(G, Ginv, grid, -1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    budget = (n ** 3 + n ** 4 + 4 * n + 4) * G[..., 0, 0].nbytes
    assert peak <= budget, (peak / 2 ** 20, budget / 2 ** 20)


@pytest.mark.parametrize("name, res", [
    ("pseudosphere", 65), ("clifford_torus_s3", 33), ("dini", 33),
    ("ps3", 17)])
def test_curvature_residual_with_the_batch_inverse(name, res):
    """The residual from the batch's own g^{-1}, read as a point-major
    view, and from g0^{-1} built by the Cholesky kernels (where the chart
    has a gap C > 0), agrees with the residual from LAPACK inverses; NaN
    lies at the same points."""
    chart = catalog.get(name).chart
    grid = make_grid(chart, res)
    fb = fundamental_batch(chart, grid.points)
    ginv = np.moveaxis(fb.ginv, -1, 0).reshape(fb.g.shape)
    assert np.shares_memory(ginv, fb.ginv)
    metrics = [(fb.g, ginv)]
    if chart.C is not None:
        g0 = comparison_metric(fb)
        metrics.append((g0, verifiers._g0_inverse(chart, g0)))
    for G, Ginv in metrics:
        for c in (-1.0, 0.0):
            new = constant_curvature_residual(G, Ginv, grid, c)
            old = constant_curvature_residual(G, np.linalg.inv(G), grid, c)
            assert np.array_equal(np.isnan(new), np.isnan(old))
            assert np.isfinite(new).any()
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-13)


def test_g0_not_positive_definite_is_refused(pseudosphere):
    """check_g0_flat refuses a g0 whose Cholesky factor fails, rather than
    handing on no inverse."""
    chart = pseudosphere.chart
    grid = make_grid(chart, 9)
    fb = fundamental_batch(chart, grid.points)
    bad = dataclasses.replace(fb, III=-(chart.C + 1.0) * fb.g)   # g0 = -g
    with pytest.raises(DegenerateMetricError,
                       match="g0 not positive definite"):
        check_g0_flat(bad, grid)


@pytest.mark.parametrize("name, res", [("pseudosphere", 33), ("ps3", 17)])
def test_verify_path_runs_no_per_point_lapack(name, res, monkeypatch):
    """verify_chart inverts g and g0 and diagonalizes the shape operators
    with the batch layer's own kernels: with np.linalg.inv and eigh made
    to raise, every report comes back as it does without."""
    chart = catalog.get(name).chart
    grid = make_grid(chart, res)
    want, skipped = verify_chart(chart, grid)

    def refuse(*args, **kwargs):
        raise AssertionError("per-point LAPACK call in the verify path")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    got, got_skipped = verify_chart(chart, grid)
    assert got_skipped == skipped
    assert [r.identity for r in got] == [r.identity for r in want]
    assert len(got) == 6 - len(skipped)
    for a, b in zip(got, want):
        assert a.summary_line() == b.summary_line()
        np.testing.assert_array_equal(a.residual_grid, b.residual_grid)
