"""Principal normals, principal frames and the comparison metric
g0 = C g + III."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, NumericalError
from .fundamental import _matmul, gap_violation

DEFAULT_SEED = 12345
CLUSTER_REL_TOL = 1e-6
JACOBI_TOL = 1e-12           # rotation sine below which a pair is diagonal
JACOBI_MAX_SWEEPS = 100
_EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=None)
def _diag_weights(p):
    """Fixed generic weight vector for the simultaneous diagonalization,
    drawn once from DEFAULT_SEED (cached, hence read-only); the run seed
    only draws samples and does not reach it."""
    w = np.random.default_rng(DEFAULT_SEED).standard_normal(p)
    w = w / np.sqrt(w.dot(w))
    w.flags.writeable = False
    return w


def joint_diagonalize(mats):
    """Jacobi-style joint diagonalization of commuting symmetric matrices.

    Returns an orthogonal V such that V.T @ M @ V is (near) diagonal for
    every M in ``mats``.
    """
    mats = [m.copy() for m in mats]
    n = mats[0].shape[0]
    V = np.eye(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                h = np.array([[m[i, i] - m[j, j], 2.0 * m[i, j]]
                              for m in mats])
                G = h.T @ h
                vals, vecs = np.linalg.eigh(G)
                x, y = vecs[:, -1]
                if x < 0:
                    x, y = -x, -y
                c = np.sqrt((x + 1.0) / 2.0)
                s = y / np.sqrt(2.0 * (x + 1.0))
                if abs(s) > JACOBI_TOL:
                    rotated = True
                    for m in mats:
                        mi, mj = m[:, i].copy(), m[:, j].copy()
                        m[:, i], m[:, j] = c * mi + s * mj, -s * mi + c * mj
                        mi, mj = m[i, :].copy(), m[j, :].copy()
                        m[i, :], m[j, :] = c * mi + s * mj, -s * mi + c * mj
                    vi, vj = V[:, i].copy(), V[:, j].copy()
                    V[:, i], V[:, j] = c * vi + s * vj, -s * vi + c * vj
        if not rotated:
            return V
    raise NumericalError("joint diagonalization did not converge")


def _eigenvectors(A):
    """Orthonormal eigenvectors of component-major symmetric matrices A
    (n, n, m): V (n, n, m) whose columns hold them in ascending eigenvalue
    order, by the cyclic Jacobi method (Golub and Van Loan, Matrix
    Computations, 8.5).

    A sweep rotates each pair (p, q) in turn at the points where |A_pq|
    exceeds eps times the point's largest entry, and only there: the
    other points are masked out and keep their bits.  So a point's
    rotations depend on that point alone, and it gets the same bits in
    any batch.  For n = 2 one rotation diagonalizes; of the two that do,
    it takes the one that leaves the smaller eigenvalue first, so no sort
    follows.
    """
    n = len(A)
    if n == 2:
        return _eigenvectors2(A)
    V = np.zeros_like(A)
    for k in range(n):
        V[k, k] = 1.0
    A = A.copy()
    tol = _EPS * np.max(np.abs(A), axis=(0, 1))
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                at = np.flatnonzero(np.abs(A[p, q]) > tol)
                if at.size:
                    rotated = True
                    A[..., at], V[..., at] = _rotate(A[..., at], V[..., at],
                                                     p, q)
        if not rotated:
            diag = A[np.arange(n), np.arange(n)]
            order = np.argsort(diag, axis=0, kind="stable")
            return np.take_along_axis(V, order[None], axis=1)
    raise NumericalError("Jacobi eigenvector iteration did not converge")


def _rotate(A, V, p, q):
    """Apply to gathered A and V (n, n, k) the Jacobi rotation J of angle
    at most pi/4 that zeroes A_pq: A <- J^T A J, V <- V J."""
    app, aqq, apq = A[p, p].copy(), A[q, q].copy(), A[p, q].copy()
    x = aqq - app
    y = np.where(x < 0, -apq, apq)            # sign(x) A_pq, sign(0) = +1
    u = np.abs(x) + np.hypot(x, apq + apq)
    t = 2.0 * y / u                           # tan of the angle
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    A[:, p], A[:, q] = c * A[:, p] - s * A[:, q], s * A[:, p] + c * A[:, q]
    A[p], A[q] = c * A[p] - s * A[q], s * A[p] + c * A[q]
    A[p, q] = A[q, p] = 0.0
    A[p, p], A[q, q] = app - t * apq, aqq + t * apq
    V[:, p], V[:, q] = c * V[:, p] - s * V[:, q], s * V[:, p] + c * V[:, q]
    return A, V


def _eigenvectors2(A):
    """The n = 2 case of _eigenvectors.

    The eigenvector of the smaller eigenvalue of [[a, b], [b, d]] is
    (u, -y) with x = d - a, y = 2b and u = |x| + |(x, y)| where x >= 0,
    and (y, -u) where x < 0, each free of cancellation; V is the rotation
    with it as its first column.  Since |y| <= u, the ratio r = y / u
    gives its entries as c = 1 / sqrt(1 + r^2) and s = r c without
    overflow.  A point already diagonal in ascending order (b = 0,
    a <= d) is masked to r = 0, so it gets the identity, +0 included.
    """
    a, b, d = A[0, 0], A[0, 1], A[1, 1]
    x = d - a
    y = b + b
    u = np.hypot(x, y)
    u += np.abs(x)
    first = x >= 0
    turn = (y != 0) | ~first
    r = np.where(turn, y, 0.0) / np.where(turn, u, 1.0)
    c = 1.0 / np.sqrt(1.0 + r * r)
    s = r * c
    V = np.empty_like(A)
    V[0, 0] = V[1, 1] = np.where(first, c, s)
    V[0, 1] = np.where(first, s, c)
    np.subtract(0.0, V[0, 1], out=V[1, 0])        # -V[0, 1], with +0 for 0
    return V


@dataclass
class PrincipalBatch:
    """Per-direction principal data over a batch (one entry per tangent
    direction; clustering into distinct principal normals is done on top).

    X_chart  : (..., n, n)  chart components of the g-orthonormal directions
    X_cont   : (..., n, N)  the same directions as container vectors
    eta      : (..., n, p)  alpha(X_k, X_k) in the normal frame
    eta_cont : (..., n, N)  container-valued principal normals
    eta_sq   : (..., n)
    lambdas  : (..., n), or None when the chart's gap C is not positive
    offdiag  : (...,) residual max |alpha(X_k, X_l)|, k != l (relative)
    """

    fb: object
    X_chart: np.ndarray
    X_cont: np.ndarray
    eta: np.ndarray
    eta_cont: np.ndarray
    eta_sq: np.ndarray
    lambdas: object
    offdiag: np.ndarray


def _lambdas(chart, eta_sq):
    """(|eta|^2 + C)^(-1/2) where the chart's gap passes C > 0, else None."""
    if gap_violation(chart) is not None:
        return None
    return 1.0 / np.sqrt(eta_sq + chart.C)


def _congruence(A, B, lower=False):
    """Component-major A B A^T for B (n, n, ..., m) symmetric in its first
    two axes; ``lower`` as in :func:`_matmul`."""
    return _matmul(A, _matmul(A, B, lower).swapaxes(0, 1), lower)


def _rotated(V, Atil):
    """D_a = V^T Atil_a V (n, n, p, m) and its largest off-diagonal
    magnitude per point (m,), component-major."""
    D = _congruence(V.swapaxes(0, 1), Atil)
    off = np.abs(D) * (1.0 - np.eye(len(V)))[:, :, None, None]
    return D, np.max(off, axis=(0, 1, 2), initial=0.0)


def principal_batch(fb, gauge=None):
    """Diagonalize the commuting shape operators of a FundamentalBatch.

    The batch's inverse Cholesky factor L^{-1} (g = L L^T) takes each
    alpha_a to its symmetric representative Atil_a = L^{-1} B_a L^{-T} in a
    g-orthonormal gauge.  The eigenvectors V of a generic combination of
    the Atil_a, from the component-major Jacobi kernel _eigenvectors (a
    joint diagonalization where that combination fails to diagonalize
    them all), give the directions X = V^T L^{-1}, and D_a = V^T Atil_a V
    holds alpha_a(X_k, X_l): eta on its diagonal, the residual off it.
    Computed component-major on the batch's own alpha, tangent and frame,
    like the fundamental kernel, with no per-point matrix routine; only
    the PrincipalBatch fields are handed back point-major.  Each point's
    data depends on that point alone, so it has the same bits in any
    batch.

    Directions come in the canonical pointwise gauge: sorted by |eta|
    descending (stable), each signed so its largest-magnitude chart
    component is positive.  Field sweeps and flows pass a ``gauge`` on top:
    it maps the canonical container directions (n, N, m) to int8 signed
    codes (n, m), and slot k takes direction |c_k| - 1, negated if c_k < 0.
    """
    n, p = fb.n, fb.chart.codimension
    batch = fb.sff_sq.shape
    Linv = fb.chol_inv                                   # (n, n, m)
    S = _congruence(Linv, fb.alpha, lower=True)         # (n, n, p, m)
    Atil = 0.5 * (S + S.swapaxes(0, 1))
    Aw = (_diag_weights(p)[:, None] * Atil).sum(axis=2)
    V = _eigenvectors(Aw)
    D, offdiag = _rotated(V, Atil)

    # refine points where the generic combination failed to diagonalize all
    scale = np.maximum(1.0, np.sqrt(fb.sff_sq.reshape(-1)))
    bad = np.flatnonzero(offdiag > 1e-9 * scale) if p > 1 else ()
    if len(bad):
        for t in bad:
            V[..., t] = joint_diagonalize([Atil[:, :, a, t]
                                           for a in range(p)])
        D, offdiag = _rotated(V, Atil)
    diag = np.arange(n)
    eta = D[diag, diag]                                  # (n, p, m)
    eta_sq = (eta * eta).sum(axis=1)                     # (n, m)
    X = _matmul(V.swapaxes(0, 1), Linv)                  # rows: directions

    # canonical gauge: each direction signed so its largest-magnitude chart
    # component is positive, then sorted by |eta| descending (stable)
    lead = np.take_along_axis(X, np.argmax(np.abs(X), axis=1)[:, None],
                              axis=1)
    X *= np.where(lead < 0, -1.0, 1.0)
    X_cont = _matmul(X, fb.tangent)
    key = np.argsort(-eta_sq, axis=0, kind="stable")
    if gauge is not None:
        codes = gauge(np.take_along_axis(X_cont, key[:, None], axis=0))
        key = np.take_along_axis(key, np.abs(codes) - 1, axis=0)
    at = (np.arange(key.shape[1])[:, None], key.T)

    def gather(A, directions=False):
        # one gather into the point-major layout; gauged directions take
        # the codes' signs, "+ 0.0" reading -0 as +0 as a matrix product does
        A = A.transpose((A.ndim - 1,) + tuple(range(A.ndim - 1)))[at]
        if directions and gauge is not None:
            A *= np.sign(codes).T[..., None]
            A += 0.0
        return A.reshape(batch + A.shape[1:])

    eta_sq = gather(eta_sq)
    return PrincipalBatch(
        fb, gather(X, True), gather(X_cont, True), gather(eta),
        gather(_matmul(eta, fb.frame)), eta_sq,
        _lambdas(fb.chart, eta_sq), (offdiag / scale).reshape(batch))


@dataclass
class PrincipalDecomposition:
    """Clustered principal data at a single point."""

    etas: np.ndarray           # (s, p) distinct principal normals, frame comps
    etas_cont: np.ndarray      # (s, N)
    directions: np.ndarray     # (n, n) chart components, grouped by cluster
    labels: np.ndarray         # (n,) cluster index per direction
    multiplicities: np.ndarray
    lambdas: object            # (s,) or None
    s: int
    offdiag_residual: float


def principal_decomposition(fb):
    """Spec operation: principal normals with clustering at one point."""
    pb = principal_batch(fb)
    eta = np.asarray(pb.eta, dtype=float).reshape(fb.n, fb.chart.codimension)
    eta_cont = np.asarray(pb.eta_cont, dtype=float).reshape(fb.n, -1)
    X = np.asarray(pb.X_chart, dtype=float).reshape(fb.n, fb.n)
    n = fb.n
    thresh = CLUSTER_REL_TOL * max(1.0, float(np.sqrt(fb.sff_sq)))

    labels = -np.ones(n, dtype=int)
    reps = []
    for k in range(n):
        for ci, r in enumerate(reps):
            if np.linalg.norm(eta[k] - r) <= thresh:
                labels[k] = ci
                break
        else:
            labels[k] = len(reps)
            reps.append(eta[k])
    s = len(reps)
    mult = np.bincount(labels, minlength=s)
    etas = np.stack([eta[labels == ci].mean(axis=0) for ci in range(s)]) \
        if fb.chart.codimension > 0 else np.zeros((s, 0))
    etas_cont = np.stack([eta_cont[labels == ci].mean(axis=0)
                          for ci in range(s)])
    lambdas = _lambdas(fb.chart, np.sum(etas * etas, axis=-1))
    return PrincipalDecomposition(etas, etas_cont, X, labels, mult, lambdas,
                                  s, float(pb.offdiag))


def comparison_metric(fb):
    """g0 = C g + III with the chart's gap C, from a FundamentalBatch;
    requires C > 0, where it is positive definite, since III is a Gram
    matrix."""
    reason = gap_violation(fb.chart)
    if reason is not None:
        raise HypothesisViolation(f"comparison metric needs C > 0: {reason}")
    return fb.III + fb.chart.C * fb.g
