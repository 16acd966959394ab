"""Principal normals, clustering, joint diagonalization and the comparison
metric, checked against the catalog's closed-form ground truth."""

import math

import numpy as np
import pytest

from flatbundle import catalog, principal
from flatbundle.errors import HypothesisViolation
from flatbundle.fields import make_grid
from flatbundle.fundamental import _point_major, fundamental_batch
from flatbundle.principal import (PrincipalBatch, _diag_weights, _lambdas,
                                  comparison_metric, joint_diagonalize,
                                  principal_batch, principal_decomposition)


def test_pseudosphere_principal_data(pseudosphere):
    chart = pseudosphere.chart
    pts = np.array([[0.6, 0.5], [1.3, 2.0], [2.4, 5.0]])
    fb = fundamental_batch(chart, pts)
    pb = principal_batch(fb)
    assert float(np.max(pb.offdiag)) < 1e-12
    for k, (u, _) in enumerate(pts):
        want = np.sort([math.sinh(u) ** 2, 1.0 / math.sinh(u) ** 2])
        np.testing.assert_allclose(np.sort(pb.eta_sq[k]), want, rtol=1e-10)
        np.testing.assert_allclose(pb.lambdas[k],
                                   1.0 / np.sqrt(pb.eta_sq[k] + 1.0))
        # X_i are g-orthonormal
        X = pb.X_chart[k]
        np.testing.assert_allclose(X @ fb.g[k] @ X.T, np.eye(2), atol=1e-12)
    dec = principal_decomposition(fundamental_batch(chart, pts[1]))
    assert dec.s == 2
    assert sorted(dec.multiplicities.tolist()) == [1, 1]


def _ps_grid_batch(pseudosphere):
    grid = make_grid(pseudosphere.chart, 9)
    return principal_batch(fundamental_batch(pseudosphere.chart, grid.points))


def test_principal_batch_canonical_gauge(pseudosphere):
    """|eta| descending; each direction's largest chart component > 0."""
    pb = _ps_grid_batch(pseudosphere)
    assert np.all(np.diff(pb.eta_sq, axis=-1) <= 0)
    lead = np.take_along_axis(
        pb.X_chart, np.argmax(np.abs(pb.X_chart), axis=-1)[..., None],
        axis=-1)
    assert np.all(lead > 0)


def test_regauge_round_trip(pseudosphere, rng):
    """regauge(M) moves direction perm[k] to slot k with sign s[k] and only
    permutes the label data; regauge(M^T) restores every field exactly."""
    pb = _ps_grid_batch(pseudosphere)
    fields = ("X_chart", "X_cont", "eta", "eta_cont", "eta_sq", "lambdas")
    before = {f: getattr(pb, f).copy() for f in fields}
    shape, n = pb.eta_sq.shape[:-1], pb.eta_sq.shape[-1]
    perm = np.argsort(rng.random(shape + (n,)), axis=-1)
    sign = rng.choice([-1.0, 1.0], shape + (n,))
    M = np.where(perm[..., None] == np.arange(n), sign[..., None], 0.0)

    pb.regauge(M)
    np.testing.assert_array_equal(
        pb.X_chart, sign[..., None] * np.take_along_axis(
            before["X_chart"], perm[..., None], axis=-2))
    np.testing.assert_array_equal(
        pb.eta, np.take_along_axis(before["eta"], perm[..., None], axis=-2))
    np.testing.assert_array_equal(
        pb.lambdas, np.take_along_axis(before["lambdas"], perm, axis=-1))

    pb.regauge(np.swapaxes(M, -1, -2))
    for f in fields:
        np.testing.assert_array_equal(getattr(pb, f), before[f], err_msg=f)


def test_sphere_umbilic_cluster(sphere_control):
    fb = fundamental_batch(sphere_control.chart, np.array([0.4, -0.2]))
    dec = principal_decomposition(fb)
    assert dec.s == 1
    assert dec.multiplicities.tolist() == [2]
    # single principal normal of norm sqrt(c) = 1
    assert float(np.linalg.norm(dec.etas_cont[0])) == pytest.approx(1.0,
                                                                    rel=1e-12)


def test_product_torus_principal_normals():
    r1, r2 = 1.0, 0.5
    entry = catalog.get("product_torus_r4", r1=r1, r2=r2)
    fb = fundamental_batch(entry.chart, np.array([1.0, 2.5]))
    dec = principal_decomposition(fb)
    assert dec.s == 2
    norms = np.sort(np.linalg.norm(dec.etas, axis=-1))
    np.testing.assert_allclose(norms, np.sort([1.0 / r1, 1.0 / r2]),
                               rtol=1e-12)
    # factor normals are orthogonal: <eta_1, eta_2> = c - c~ = 0
    assert abs(float(dec.etas[0] @ dec.etas[1])) < 1e-13


def test_clifford_curvatures_and_g0(clifford):
    """Clifford torus at t = pi/4: principal curvatures tan t, -cot t and
    the comparison metric is exactly the identity."""
    chart = clifford.chart
    pts = np.array([[0.3, 1.0], [4.0, 2.0]])
    fb = fundamental_batch(chart, pts)
    pb = principal_batch(fb)
    # <eta_1, eta_2> = c - c~ = -1 and eta_sq = 1 for both at t = pi/4
    np.testing.assert_allclose(pb.eta_sq, 1.0, atol=1e-13)
    ip = np.sum(pb.eta[..., 0, :] * pb.eta[..., 1, :], axis=-1)
    np.testing.assert_allclose(ip, -1.0, atol=1e-13)
    g0 = comparison_metric(fb)
    assert np.all(np.linalg.eigvalsh(g0) > 0)
    np.testing.assert_allclose(g0, np.broadcast_to(np.eye(2), g0.shape),
                               atol=1e-14)


def test_third_fundamental_form_orthogonal_coords(pseudosphere):
    """In principal coordinates III = diag(k1^2 E, k2^2 G)."""
    u = 1.1
    fb = fundamental_batch(pseudosphere.chart, np.array([u, 2.0]))
    III = fb.III
    E, G = math.tanh(u) ** 2, 1.0 / math.cosh(u) ** 2
    k_u, k_v = 1.0 / math.sinh(u), math.sinh(u)   # magnitudes per direction
    np.testing.assert_allclose(III, np.diag([k_u ** 2 * E, k_v ** 2 * G]),
                               atol=1e-12)


def test_comparison_metric_guards():
    fb = fundamental_batch(catalog.get("product_torus_r4").chart,
                           np.array([1.0, 1.0]))
    with pytest.raises(HypothesisViolation):
        comparison_metric(fb)                     # C = 0
    fb_v = fundamental_batch(catalog.get("veronese_r5").chart,
                             np.array([0.5, 0.3]))
    with pytest.raises(HypothesisViolation):
        comparison_metric(fb_v)                   # C unknown


def test_lambda_guard_fires_when_gap_negative(sphere_control):
    """C = c~ - c = -1 on the unit sphere: no lambdas anywhere, although
    |eta|^2 + C = 0 rounds to a positive number at some points."""
    chart = sphere_control.chart
    grid = make_grid(chart, 40)
    pb = principal_batch(fundamental_batch(chart, grid.points))
    assert chart.C == -1.0 and np.any(pb.eta_sq + chart.C > 0)
    assert pb.lambdas is None
    dec = principal_decomposition(fundamental_batch(chart,
                                                    np.array([0.4, -0.2])))
    assert dec.s == 1 and dec.lambdas is None


def test_joint_diagonalize_commuting_family(rng):
    """Oracle: matrices built with a shared eigenbasis are re-diagonalized."""
    n = 4
    A = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    mats = [Q @ np.diag(rng.standard_normal(n)) @ Q.T for _ in range(3)]
    V = joint_diagonalize(mats)
    np.testing.assert_allclose(V.T @ V, np.eye(n), atol=1e-12)
    for m in mats:
        D = V.T @ m @ V
        off = D - np.diag(np.diag(D))
        assert np.max(np.abs(off)) < 1e-9


def test_plane_zero_alpha():
    entry = catalog.get("plane_r3")
    fb = fundamental_batch(entry.chart, np.array([0.5, -0.5]))
    assert float(fb.sff_sq) == 0.0
    dec = principal_decomposition(fb)
    assert dec.s == 1
    np.testing.assert_allclose(dec.etas, 0.0, atol=1e-15)


def test_signed_permutation_any_memory_layout():
    """A transposed (non-contiguous) stack of alignment matrices gets the
    signed permutations of its contiguous copy: one +-1 per row."""
    from flatbundle.fields import _signed_permutation
    Q = np.random.default_rng(2).standard_normal((6, 3, 3)).swapaxes(-1, -2)
    P, ambiguous = _signed_permutation(Q)
    P_c, ambiguous_c = _signed_permutation(np.ascontiguousarray(Q))
    assert np.array_equal(P, P_c)
    assert np.array_equal(ambiguous, ambiguous_c)
    assert np.array_equal(np.abs(P).sum(axis=-1), np.ones((6, 3)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_signed_permutation_ambiguity_matches_a_full_sort(n):
    """The best-minus-runner-up gap, taken without sorting a row, flags
    the points that a sorted row flags, exact ties and gaps at the
    threshold included."""
    from flatbundle.fields import ALIGN_AMBIGUOUS, _signed_permutation
    Q = np.random.default_rng(n).standard_normal((2000, n, n)) * 0.2
    Q[:1000] = np.round(Q[:1000], 1)
    _, ambiguous = _signed_permutation(Q)
    expected = np.zeros(len(Q), dtype=bool)
    if n > 1:
        top2 = -np.sort(-np.abs(Q), axis=-1)[..., :2]
        expected = np.any(top2[..., 0] - top2[..., 1] < ALIGN_AMBIGUOUS,
                          axis=-1)
        assert 0 < expected.sum() < len(Q)
    assert np.array_equal(ambiguous, expected)


# ---------------------------------------------------------------------------
# principal_batch against the point-major solve/einsum formulation

def _principal_oracle(fb):
    """Principal data from a fresh Cholesky factor of g, triangular solves
    and einsum contractions, point by point."""
    n, p = fb.n, fb.p
    batch = fb.sff_sq.shape
    g, alpha = fb.g, _point_major(fb.alpha, batch)
    L = np.linalg.cholesky(g)
    if p > 0:
        B = np.einsum("...ija->...aij", alpha)
        Atil = np.linalg.solve(L[..., None, :, :], B)
        Atil = np.swapaxes(np.linalg.solve(
            L[..., None, :, :], np.swapaxes(Atil, -1, -2)), -1, -2)
        Atil = 0.5 * (Atil + np.swapaxes(Atil, -1, -2))
        Aw = np.einsum("a,...aij->...ij", _diag_weights(p), Atil)
    else:
        Atil = np.zeros(batch + (0, n, n))
        Aw = np.zeros(batch + (n, n))
    _, vecs = np.linalg.eigh(Aw)
    if p > 1:
        D = np.einsum("...ki,...akl,...lj->...aij", vecs, Atil, vecs)
        off = D - D * np.eye(n)
        scale = np.maximum(1.0, np.sqrt(fb.sff_sq))
        bad = np.max(np.abs(off), axis=(-3, -2, -1)) > 1e-9 * scale
        for idx in np.argwhere(bad):
            t = tuple(idx)
            vecs[t] = joint_diagonalize([Atil[t][a] for a in range(p)])
    X_chart = np.swapaxes(np.linalg.solve(np.swapaxes(L, -1, -2), vecs),
                          -1, -2)
    eta = np.einsum("...ki,...kj,...ija->...ka", X_chart, X_chart, alpha)
    eta_sq = np.sum(eta * eta, axis=-1)
    X_cont = np.einsum("...km,...mN->...kN", X_chart,
                       _point_major(fb.tangent, batch))
    eta_cont = np.einsum("...ka,...aN->...kN", eta,
                         _point_major(fb.frame, batch))
    cross = np.einsum("...ki,...lj,...ija->...kla", X_chart, X_chart, alpha)
    offdiag = np.max(np.abs(cross) * (1.0 - np.eye(n))[..., None],
                     axis=(-3, -2, -1)) if p > 0 else np.zeros(batch)
    offdiag = offdiag / np.maximum(1.0, np.sqrt(fb.sff_sq))
    key = np.argsort(-eta_sq, axis=-1, kind="stable")
    lead = np.take_along_axis(
        X_chart, np.argmax(np.abs(X_chart), axis=-1)[..., None], axis=-1)
    sign = np.where(lead[..., 0] < 0, -1.0, 1.0)
    M = np.where(key[..., None] == np.arange(n), sign[..., None, :], 0.0)
    return PrincipalBatch(fb, X_chart, X_cont, eta, eta_cont, eta_sq,
                          _lambdas(fb.chart, eta_sq), offdiag).regauge(M)


def _assert_matches_oracle(pb, want):
    for f in ("X_chart", "X_cont", "eta", "eta_cont", "eta_sq", "lambdas"):
        got, ref = getattr(pb, f), getattr(want, f)
        if ref is None:
            assert got is None, f
            continue
        assert got.shape == ref.shape, f
        scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * scale,
                                   err_msg=f)
    # offdiag is relative to the curvature scale already
    np.testing.assert_allclose(pb.offdiag, want.offdiag, rtol=0, atol=1e-13)


def _points(chart, count, seed):
    """Random interior points of the chart."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(chart.domain).T
    return lo + (hi - lo) * (0.05 + 0.9 * rng.random((count, chart.n)))


@pytest.mark.parametrize("name, params", [
    ("pseudosphere", {}), ("dini", {}), ("clifford_torus_s3", {"t": 0.6}),
    ("ps3", {}),                                 # n = 3
    ("hyperbolic_plane", {}),                    # p = 0
    ("product_torus_r4", {}),                    # p = 2, lambdas None
])
def test_principal_batch_matches_solve_oracle(name, params):
    chart = catalog.get(name, **params).chart
    fb = fundamental_batch(chart, _points(chart, 64, 3).reshape(8, 8, -1))
    _assert_matches_oracle(principal_batch(fb), _principal_oracle(fb))
    one = fundamental_batch(chart, _points(chart, 1, 4)[0])
    _assert_matches_oracle(principal_batch(one), _principal_oracle(one))


def test_principal_batch_joint_diagonalize_fallback(monkeypatch):
    """Commuting second fundamental forms whose generic combination is a
    multiple of the identity: eigh returns an arbitrary basis, and the
    Jacobi joint diagonalization has to recover the common one."""
    chart = catalog.get("product_torus_r4").chart
    fb = fundamental_batch(chart, _points(chart, 6, 5))
    w = _diag_weights(2)
    rng = np.random.default_rng(6)
    alpha = np.empty(fb.alpha.shape)               # (n, n, p, m)
    for k in range(alpha.shape[-1]):
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        L = np.linalg.cholesky(fb.g[k])
        d0 = rng.uniform(1.0, 2.0, 2)
        d1 = 0.7 - w[0] * d0 / w[1]          # w . (d0, d1) is constant
        for a, d in enumerate((d0, d1)):
            alpha[:, :, a, k] = L @ Q @ np.diag(d) @ Q.T @ L.T
    fb.alpha = alpha
    calls = []
    jd = principal.joint_diagonalize
    monkeypatch.setattr(principal, "joint_diagonalize",
                        lambda mats: calls.append(1) or jd(mats))
    pb = principal_batch(fb)
    assert calls, "the generic combination diagonalized every point"
    assert float(np.max(pb.offdiag)) < 1e-12
    _assert_matches_oracle(pb, _principal_oracle(fb))
