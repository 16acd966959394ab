"""Principal normals, principal frames and the comparison metric
g0 = C g + III."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, NumericalError
from .fundamental import _matmul, _point_major, gap_violation

DEFAULT_SEED = 12345
CLUSTER_REL_TOL = 1e-6
JACOBI_TOL = 1e-12           # rotation sine below which a pair is diagonal
JACOBI_MAX_SWEEPS = 100


@functools.lru_cache(maxsize=None)
def _diag_weights(p):
    """Fixed generic weight vector for the simultaneous diagonalization,
    drawn once from DEFAULT_SEED (cached, hence read-only); the run seed
    only draws samples and does not reach it."""
    w = np.random.default_rng(DEFAULT_SEED).standard_normal(p)
    w = w / np.linalg.norm(w)
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

    def regauge(self, M):
        """Apply per-point signed permutations M (..., n, n) in place:
        directions take M, the label data (eta, eta_cont, eta_sq, lambdas)
        take the permutation |M|.  Returns self."""
        self.X_chart = M @ self.X_chart
        self.X_cont = M @ self.X_cont
        perm = np.abs(M)
        self.eta = perm @ self.eta
        self.eta_cont = perm @ self.eta_cont
        self.eta_sq = (perm @ self.eta_sq[..., None])[..., 0]
        if self.lambdas is not None:
            self.lambdas = (perm @ self.lambdas[..., None])[..., 0]
        return self


def _lambdas(chart, eta_sq):
    """(|eta|^2 + C)^(-1/2) where the chart's gap passes C > 0, else None."""
    if gap_violation(chart) is not None:
        return None
    return 1.0 / np.sqrt(eta_sq + chart.C)


def _congruence(A, B):
    """Component-major A B A^T for B (n, n, ..., m) symmetric in its first
    two axes."""
    return _matmul(A, _matmul(A, B).swapaxes(0, 1))


def _rotated(V, Atil):
    """D_a = V^T Atil_a V (n, n, p, m) and its largest off-diagonal
    magnitude per point (m,), component-major."""
    D = _congruence(V.swapaxes(0, 1), Atil)
    off = np.abs(D) * (1.0 - np.eye(len(V)))[:, :, None, None]
    return D, np.max(off, axis=(0, 1, 2), initial=0.0)


def principal_batch(fb):
    """Diagonalize the commuting shape operators of a FundamentalBatch.

    The batch's inverse Cholesky factor L^{-1} (g = L L^T) takes each
    alpha_a to its symmetric representative Atil_a = L^{-1} B_a L^{-T} in a
    g-orthonormal gauge.  The eigenvectors V of a generic combination of
    the Atil_a (a joint diagonalization where that combination fails to
    diagonalize them all) give the directions X = V^T L^{-1}, and
    D_a = V^T Atil_a V holds alpha_a(X_k, X_l): eta on its diagonal, the
    residual off it.  Computed component-major on the batch's own
    alpha, tangent and frame, like the fundamental kernel; only the
    PrincipalBatch fields are handed back point-major.

    Directions come in the canonical pointwise gauge: sorted by |eta|
    descending (stable), each signed so its largest-magnitude chart
    component is positive.  Field sweeps and flows regauge on top.
    """
    n, p = fb.n, fb.p
    batch = fb.sff_sq.shape
    Linv = fb.chol_inv                                   # (n, n, m)
    S = _congruence(Linv, fb.alpha)                      # (n, n, p, m)
    Atil = 0.5 * (S + S.swapaxes(0, 1))
    Aw = (_diag_weights(p)[:, None] * Atil).sum(axis=2)
    V = np.linalg.eigh(Aw.transpose(2, 0, 1))[1].transpose(1, 2, 0)
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

    # canonical gauge: a gather by |eta| descending, then the signs
    key = np.argsort(-eta_sq, axis=0, kind="stable")
    X = np.take_along_axis(X, key[:, None], axis=0)
    eta = np.take_along_axis(eta, key[:, None], axis=0)
    eta_sq = np.take_along_axis(eta_sq, key, axis=0)
    lead = np.take_along_axis(X, np.argmax(np.abs(X), axis=1)[:, None],
                              axis=1)
    X = np.where(lead < 0, -X, X)

    X_cont = _matmul(X, fb.tangent)
    eta_cont = _matmul(eta, fb.frame)
    eta_sq = _point_major(eta_sq, batch)
    return PrincipalBatch(
        fb, _point_major(X, batch), _point_major(X_cont, batch),
        _point_major(eta, batch), _point_major(eta_cont, batch), eta_sq,
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
    eta = np.asarray(pb.eta, dtype=float).reshape(fb.n, fb.p)
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
        if fb.p > 0 else np.zeros((s, 0))
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
