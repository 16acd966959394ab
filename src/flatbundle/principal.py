"""Principal normals, principal frames, the third fundamental form and the
comparison metric g0 = C g + III."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, NumericalError
from .fundamental import gap_violation, positive_definite

DEFAULT_SEED = 12345
CLUSTER_REL_TOL = 1e-6


@functools.lru_cache(maxsize=None)
def _diag_weights(p, seed=DEFAULT_SEED):
    """Fixed generic weight vector for the simultaneous diagonalization
    (cached, hence read-only)."""
    w = np.random.default_rng(seed).standard_normal(p)
    w = w / np.linalg.norm(w)
    w.flags.writeable = False
    return w


def joint_diagonalize(mats, tol=1e-12, max_sweeps=100):
    """Jacobi-style joint diagonalization of commuting symmetric matrices.

    Returns an orthogonal V such that V.T @ M @ V is (near) diagonal for
    every M in ``mats``.
    """
    mats = [m.copy() for m in mats]
    n = mats[0].shape[0]
    V = np.eye(n)
    for _ in range(max_sweeps):
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
                if abs(s) > tol:
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
    weight_seed: int

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


def principal_batch(fb, seed=DEFAULT_SEED):
    """Diagonalize the commuting shape operators of a FundamentalBatch.

    Directions come in the canonical pointwise gauge: sorted by |eta|
    descending (stable), each signed so its largest-magnitude chart
    component is positive.  Field sweeps and flows regauge on top.
    """
    g, ginv, alpha = fb.g, fb.ginv, fb.alpha
    n, p = fb.n, fb.p
    batch = fb.sff_sq.shape
    L = np.linalg.cholesky(g)

    if p > 0:
        B = np.einsum("...ija->...aij", alpha)
        # symmetric representatives in a g-orthonormal gauge
        Atil = np.linalg.solve(L[..., None, :, :], B)
        Atil = np.swapaxes(np.linalg.solve(
            L[..., None, :, :], np.swapaxes(Atil, -1, -2)), -1, -2)
        Atil = 0.5 * (Atil + np.swapaxes(Atil, -1, -2))
        w = _diag_weights(p, seed)
        Aw = np.einsum("a,...aij->...ij", w, Atil)
    else:
        Atil = np.zeros(batch + (0, n, n))
        Aw = np.zeros(batch + (n, n))

    _, vecs = np.linalg.eigh(Aw)

    # refine points where the generic combination failed to diagonalize all
    if p > 1:
        D = np.einsum("...ki,...akl,...lj->...aij", vecs, Atil, vecs)
        off = D - D * np.eye(n)
        scale = np.maximum(1.0, np.sqrt(fb.sff_sq))
        bad = np.max(np.abs(off), axis=(-3, -2, -1)) > 1e-9 * scale
        if np.any(bad):
            flat_idx = np.argwhere(bad)
            for idx in flat_idx:
                t = tuple(idx)
                V = joint_diagonalize([Atil[t][a] for a in range(p)])
                vecs[t] = V

    # back to chart components; rows of X_chart are directions
    Xc = np.linalg.solve(np.swapaxes(L, -1, -2), vecs)
    X_chart = np.swapaxes(Xc, -1, -2)
    eta = np.einsum("...ki,...kj,...ija->...ka", X_chart, X_chart, alpha)
    eta_sq = np.sum(eta * eta, axis=-1)
    X_cont = np.einsum("...km,...mN->...kN", X_chart, fb.tangent)
    eta_cont = np.einsum("...ka,...aN->...kN", eta, fb.frame)

    cross = np.einsum("...ki,...lj,...ija->...kla", X_chart, X_chart, alpha)
    mask = 1.0 - np.eye(n)
    offdiag = np.max(np.abs(cross) * mask[..., None], axis=(-3, -2, -1)) \
        if p > 0 else np.zeros(batch)
    offdiag = offdiag / np.maximum(1.0, np.sqrt(fb.sff_sq))

    lambdas = _lambdas(fb.chart, eta_sq)

    key = np.argsort(-eta_sq, axis=-1, kind="stable")
    lead = np.take_along_axis(
        X_chart, np.argmax(np.abs(X_chart), axis=-1)[..., None], axis=-1)
    sign = np.where(lead[..., 0] < 0, -1.0, 1.0)
    M = np.where(key[..., None] == np.arange(n), sign[..., None, :], 0.0)
    return PrincipalBatch(fb, X_chart, X_cont, eta, eta_cont, eta_sq,
                          lambdas, offdiag, seed).regauge(M)


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


def principal_decomposition(fb, seed=DEFAULT_SEED,
                            cluster_tol=CLUSTER_REL_TOL):
    """Spec operation: principal normals with clustering at one point."""
    pb = principal_batch(fb, seed=seed)
    eta = np.asarray(pb.eta, dtype=float).reshape(fb.n, fb.p)
    eta_cont = np.asarray(pb.eta_cont, dtype=float).reshape(fb.n, -1)
    X = np.asarray(pb.X_chart, dtype=float).reshape(fb.n, fb.n)
    n = fb.n
    thresh = cluster_tol * max(1.0, float(np.sqrt(fb.sff_sq)))

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


def third_fundamental_form(fb):
    """III(d_i, d_j) = trace over a g-orthonormal slot of <alpha_i., alpha_j.>,
    as computed by the batch's kernel."""
    return fb.III


@dataclass
class ComparisonMetric:
    g0: np.ndarray
    C: float
    positive_definite: bool


def comparison_metric(fb, exploratory=False):
    """g0 = C g + III with the chart's gap C, from a MetricBatch or a
    FundamentalBatch; requires C > 0 (exploratory mode admits C = 0)."""
    reason = gap_violation(fb.chart, exploratory)
    if reason is not None:
        raise HypothesisViolation(f"comparison metric needs C > 0: {reason}")
    C = fb.chart.C
    g0 = fb.III + C * fb.g
    return ComparisonMetric(g0, C, positive_definite(g0))
