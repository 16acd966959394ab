"""First/second fundamental forms, normal frames, and the flat-normal-bundle
test, computed in batch over arbitrary point sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engines
from .errors import DegenerateMetricError, FrameError

_FRAME_TOL = 1e-10


def _gram_schmidt_append(basis, sqnorms, v, inner):
    """Project v off the stored (orthogonal, unnormalized) basis vectors."""
    w = v
    for b, q in zip(basis, sqnorms):
        w = w - (inner(w, b) / q)[..., None] * b
    return w


@dataclass
class FundamentalBatch:
    """Per-point fundamental data over a batch of shape ``batch``.

    g          : (..., n, n)   first fundamental form
    ginv       : (..., n, n)
    tangent    : (..., n, N)   container tangent vectors dF/du_i
    position   : (..., N)      image points
    alpha_cont : (..., n, n, N) second fundamental form, container valued
    frame      : (..., p, N)   orthonormal normal frame
    alpha      : (..., n, n, p) components of alpha in the frame
    sff_sq     : (...,)        |alpha|^2
    obasis / obasis_sq : orthogonalized span of tangent (+ position) used
                         for normal projections, with signed square norms
    """

    chart: object
    points: np.ndarray
    position: np.ndarray
    tangent: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    alpha_cont: np.ndarray
    frame: np.ndarray
    alpha: np.ndarray
    sff_sq: np.ndarray
    obasis: np.ndarray
    obasis_sq: np.ndarray

    @property
    def n(self):
        return self.g.shape[-1]

    @property
    def p(self):
        return self.frame.shape[-2]

    def normal_project(self, v):
        """Project container vectors (..., N) onto the normal space."""
        inner = self.chart.ambient.inner
        w = v
        for k in range(self.obasis.shape[-2]):
            b = self.obasis[..., k, :]
            q = self.obasis_sq[..., k]
            w = w - (inner(w, b) / q)[..., None] * b
        return w

    def shape_operators(self):
        """g-self-adjoint shape operators A_a = g^{-1} B_a, shape (..., p, n, n)."""
        B = np.einsum("...ija->...aij", self.alpha)
        return np.einsum("...ik,...akj->...aij", self.ginv, B)

    def flatness_residual(self):
        """Max commutator norm of the shape operators, relative to the
        curvature scale max(1, |alpha|^2).  Zero for p <= 1."""
        p = self.p
        batch = self.sff_sq.shape
        res = np.zeros(batch)
        if p <= 1:
            return res
        A = self.shape_operators()
        for a in range(p):
            for b in range(a + 1, p):
                comm = A[..., a, :, :] @ A[..., b, :, :] \
                    - A[..., b, :, :] @ A[..., a, :, :]
                nrm = np.sqrt(np.sum(comm * comm, axis=(-2, -1)))
                res = np.maximum(res, nrm)
        return res / np.maximum(1.0, self.sff_sq)


def fundamental_batch(chart, U, interior_check=True):
    """Compute fundamental data at points U of shape (..., n)."""
    U = np.asarray(U, dtype=float)
    J = chart.jet(U, interior_check=interior_check)
    amb = chart.ambient
    inner = amb.inner
    n = chart.n
    N = amb.embedding_dimension

    T = J.first                              # (..., n, N)
    sigT = T * amb.signature
    g = np.einsum("...ik,...jk->...ij", sigT, J.first)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise DegenerateMetricError(
            f"{chart.name}: first fundamental form not positive definite")
    ginv = np.linalg.inv(g)

    # orthogonalized span to project off: position (non-flat) then tangents
    batch = U.shape[:-1]
    vecs = []
    if not amb.flat:
        vecs.append(J.value)
    for i in range(n):
        vecs.append(T[..., i, :])
    obasis, obasis_sq = [], []
    for v in vecs:
        w = _gram_schmidt_append(obasis, obasis_sq, v, inner)
        obasis.append(w)
        obasis_sq.append(inner(w, w))
    obasis = np.stack(obasis, axis=-2)
    obasis_sq = np.stack(obasis_sq, axis=-1)

    # alpha = normal component of the container second derivatives
    H = J.second                             # (..., n, n, N)
    alpha_cont = H.copy()
    for k in range(obasis.shape[-2]):
        b = obasis[..., k, :]
        q = obasis_sq[..., k]
        coef = np.einsum("...ijk,...k->...ij", alpha_cont * amb.signature, b)
        alpha_cont = alpha_cont - (coef / q[..., None, None])[..., None] \
            * b[..., None, None, :]
    alpha_cont = 0.5 * (alpha_cont + np.swapaxes(alpha_cont, -3, -2))

    # deterministic normal frame: standard basis vectors projected in order
    p = chart.codimension
    frame = np.zeros(batch + (p, N))
    if p > 0:
        count = np.zeros(batch, dtype=int)
        for k in range(N):
            e = np.zeros(N)
            e[k] = 1.0
            w = np.broadcast_to(e, batch + (N,)).copy()
            for m in range(obasis.shape[-2]):
                b = obasis[..., m, :]
                q = obasis_sq[..., m]
                w = w - (inner(w, b) / q)[..., None] * b
            for a in range(p):
                prev = frame[..., a, :]
                qq = inner(prev, prev)
                coef = np.where(qq > 0, inner(w, prev) / np.where(qq > 0, qq, 1.0), 0.0)
                w = w - coef[..., None] * prev
            nrm2 = inner(w, w)
            accept = (nrm2 > _FRAME_TOL) & (count < p)
            if np.any(accept):
                wn = w / np.sqrt(np.where(accept, nrm2, 1.0))[..., None]
                idx = np.where(accept, count, 0)
                put = np.zeros_like(frame)
                np.put_along_axis(
                    put, idx[..., None, None],
                    np.where(accept[..., None], wn, 0.0)[..., None, :], axis=-2)
                frame = frame + put
                count = count + accept.astype(int)
            if np.all(count == p):
                break
        if not np.all(count == p):
            raise FrameError(
                f"{chart.name}: could not build {p} independent normals")

    alpha = np.einsum("...ijk,...ak->...ija", alpha_cont * amb.signature, frame)
    sff_sq = np.einsum("...ik,...jl,...ija,...kla->...",
                       ginv, ginv, alpha, alpha)
    return FundamentalBatch(chart, U, J.value, T, g, ginv, alpha_cont,
                            frame, alpha, sff_sq, obasis, obasis_sq)


# ---------------------------------------------------------------------------
# the theorem's hypotheses: a positive curvature gap and a flat normal bundle

def gap_violation(chart, exploratory=False):
    """Why the chart's curvature gap C fails the theorem's C > 0, or None.
    The exploratory mode admits C = 0."""
    C = chart.C
    if C is None:
        return "intrinsic curvature unasserted"
    if C < 0 or (C == 0 and not exploratory):
        return f"curvature gap C = {C:g} <= 0"
    return None


def flatness_verdict(fb):
    """(is_flat, residual, tol) over a batch: the normal bundle counts as
    flat when the largest shape-operator commutator residual is at most
    ten times the default residual tolerance of the chart's engine."""
    res = float(np.max(fb.flatness_residual()))
    tol = 10.0 * engines.DEFAULT_TOL[fb.chart.engine]
    return res <= tol, res, tol


def normal_bundle_is_flat(chart, u):
    """(is_flat, residual) from the shape-operator commutators at u."""
    flat, res, _ = flatness_verdict(fundamental_batch(chart, u))
    return flat, res
