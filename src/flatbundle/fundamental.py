"""First/second/third fundamental forms, normal frames, and the
flat-normal-bundle test, computed in batch over arbitrary point sets.

``fundamental_batch`` is the one batch.  Its kernel takes the chart's
2-jet to the induced metric g, its inverse, the container-valued second
fundamental form alpha (the second derivatives projected off the tangent
space, and off the position vector in a curved ambient), the third
fundamental form III_ij = g^{kl} <alpha_ik, alpha_jl> and
|alpha|^2 = tr(g^{-1} III).  None of these needs a normal frame: the inner
products are taken in the container.  The normal frame and alpha in frame
components, which principal data, the flatness test and normal
projections need, are built on the first read of either, so a consumer
that reads only g, III and |alpha|^2 (the growth edge weights and
polylines) never builds them.

One layout holds through the batch layer (this module and ``principal``):
component-major, index axes first and the flattened points last, as the
kernel computes it, so the small index loops are multiply-adds over
contiguous arrays and no per-point matrix routine and no ``einsum`` runs.
Data turns point-major only where it leaves the layer: g, III and
|alpha|^2 at the end of the batch, ``normal_project``'s result and the
principal batch's fields.

The batch is the one place that blocks: it runs the chart's jet and the
kernel on consecutive blocks of at most BLOCK flattened points, whole
rows of a grid-shaped batch where a row fits, and writes each block into
the batch arrays.  BLOCK = 8192 keeps a block's component arrays in
cache, so blocks run faster per point than one pass over a 257^2 grid,
and a batch holds one block's temporaries beside its results, not a whole
point set's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import engines
from .errors import DegenerateMetricError, FrameError

_FRAME_TOL = 1e-10


# ---------------------------------------------------------------------------
# component-major helpers: index axes first, flattened points last

def _components(a, k):
    """Component-major copy of a point-major array whose last k axes are
    index axes."""
    lead = a.ndim - k
    flat = a.reshape((math.prod(a.shape[:lead]),) + a.shape[lead:])
    return np.ascontiguousarray(flat.transpose(tuple(range(1, k + 1)) + (0,)))


def _point_major(a, batch):
    """Point-major copy, shape batch + index axes, of a component-major
    array."""
    axes = (a.ndim - 1,) + tuple(range(a.ndim - 1))
    return np.ascontiguousarray(a.transpose(axes)).reshape(batch + a.shape[:-1])


def _matmul(A, B, lower=False):
    """Component-major matrix product C[i, j...] = sum_k A[i, k] B[k, j...]
    of A (r, s, m) and B (s, ..., m), accumulated in k order from +0 in
    one product buffer.  A ``lower`` triangular A skips the zeros above its
    diagonal: with B finite their terms are +-0, which leave C's bits."""
    shape = (1,) * (B.ndim - 2) + A.shape[-1:]
    C = np.zeros((A.shape[0],) + B.shape[1:])
    tmp = np.empty_like(C)
    for k in range(A.shape[1]):
        r = k if lower else 0
        C[r:] += np.multiply(A[r:, k].reshape((len(A) - r,) + shape), B[k],
                             out=tmp[r:])
    return C


def _signs(ambient):
    """The container signature as an (N, 1) column, or None when it is all
    plus (every Riemannian container)."""
    sig = ambient.signature
    return sig[:, None] if (sig < 0).any() else None


def _dot(u, v, signs=None):
    """sum_k signs[k] u[..., k, :] v[..., k, :], accumulated in k order:
    the container inner product of component-major vectors."""
    prod = u * v
    if signs is not None:
        prod *= signs
    return prod.sum(axis=-2)


def _project_off(v, basis, sqnorms, signs):
    """v minus its components along the orthogonal basis vectors, taken off
    in order.  v is (..., N, m), each basis vector (N, m) with signed
    square norm (m,)."""
    for b, q in zip(basis, sqnorms):
        v = v - (_dot(v, b, signs) / q)[..., None, :] * b
    return v


def _cholesky(G):
    """Lower Cholesky factor of component-major symmetric matrices G
    (n, n, m), or None when some matrix is not positive definite (a pivot
    not > 0, NaN included)."""
    n = len(G)
    L = np.zeros_like(G)
    for j in range(n):
        d = G[j, j] - sum(L[j, k] * L[j, k] for k in range(j))
        if not (d > 0).all():
            return None
        L[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            L[i, j] = (G[i, j] - sum(L[i, k] * L[j, k] for k in range(j))) \
                / L[j, j]
    return L


def _lower_inverse(L):
    """L^{-1}, lower triangular, of component-major Cholesky factors."""
    n = len(L)
    M = np.zeros_like(L)
    for i in range(n):
        M[i, i] = 1.0 / L[i, i]
        for j in range(i):
            M[i, j] = -sum(L[i, k] * M[k, j] for k in range(j, i)) * M[i, i]
    return M


def _inverse(M):
    """G^{-1} = L^{-T} L^{-1} from the component-major M = L^{-1}."""
    n = len(M)
    Ginv = np.empty_like(M)
    for i in range(n):
        for j in range(i, n):
            Ginv[i, j] = Ginv[j, i] = sum(M[k, i] * M[k, j]
                                          for k in range(j, n))
    return Ginv


# ---------------------------------------------------------------------------
# the kernel and the batch

BLOCK = 8192         # points per jet and kernel pass (see above)


def _kernel(chart, V):
    """The batch fields over one block of points V (m, n), from the chart's
    jet, with the guards every batch runs: g must be positive definite and
    the normal projection finite; every field component-major.  A function
    of its own, so that its temporaries are freed before the batch copies
    its results."""
    J = chart.jet(V)
    amb = chart.ambient
    sig = _signs(amb)
    n = chart.n
    T = _components(J.first, 2)                      # (n, N, m)
    g = _dot(T[:, None], T[None, :], sig)            # (n, n, m)
    L = _cholesky(g)
    if L is None:
        raise DegenerateMetricError(
            f"{chart.name}: first fundamental form not positive definite")
    chol_inv = _lower_inverse(L)
    ginv = _inverse(chol_inv)

    # orthogonalized span to project off: position (non-flat) then tangents
    vecs = list(T) if amb.flat else [_components(J.value, 1)] + list(T)
    obasis, obasis_sq = [], []
    for v in vecs:
        w = _project_off(v, obasis, obasis_sq, sig)
        obasis.append(w)
        obasis_sq.append(_dot(w, w, sig))

    # alpha = normal component of the container second derivatives; the
    # normal space is {0} in codimension 0
    H = _components(J.second, 3)
    if chart.codimension == 0:
        alpha = np.zeros_like(H)
    else:
        alpha = _project_off(H, obasis, obasis_sq, sig)
    if not np.isfinite(alpha).all():
        raise FrameError(f"{chart.name}: normal projection not finite")

    # III_ij = sum_l <beta_il, alpha_jl> with beta_il = g^{lk} alpha_ik
    beta = ginv[None, :, 0, None] * alpha[:, None, 0]
    for k in range(1, n):
        beta += ginv[None, :, k, None] * alpha[:, None, k]
    III = _dot(beta[:, None], alpha[None, :], sig).sum(axis=2)
    III = 0.5 * (III + np.swapaxes(III, 0, 1))
    sff_sq = (ginv * III).sum(axis=(0, 1))
    return dict(g=g, ginv=ginv, III=III, sff_sq=sff_sq, tangent=T,
                chol_inv=chol_inv, obasis=np.stack(obasis),
                obasis_sq=np.stack(obasis_sq), alpha_cont=alpha)


def _write(out, block, rows, m):
    """Write one block's fields into the batch arrays ``out`` over m
    flattened points, at ``rows``; the first block allocates them."""
    for name, a in block.items():
        if name not in out:
            out[name] = np.empty(a.shape[:-1] + (m,))
        out[name][..., rows] = a


def _block_size(batch):
    """Points per block: whole rows (the points of one index of the first
    batch axis) where a row fits in BLOCK, so that the jet of a grid-shaped
    batch sees whole grid rows, the compact lattice an FD chart's spline
    evaluation is fastest on."""
    row = math.prod(batch[1:])
    return row * (BLOCK // row) if 0 < row <= BLOCK else BLOCK


@dataclass
class FundamentalBatch:
    """Fundamental data over a batch of shape ``batch``, m points in all:
    g, III and sff_sq point-major, batch axes first, for the layers that
    read them; every other field component-major, points last.

    g          : (..., n, n)   first fundamental form
    III        : (..., n, n)   third fundamental form
                               g^{kl} <alpha_ik, alpha_jl>
    sff_sq     : (...,)        |alpha|^2 = tr(g^{-1} III)
    ginv       : (n, n, m)     g^{-1}
    tangent    : (n, N, m)     container tangent vectors dF/du_i
    chol_inv   : (n, n, m)     lower triangular L^{-1}, g = L L^T
    obasis     : (K, N, m)     orthogonalized span of tangent (+ position)
    obasis_sq  : (K, m)        and its signed square norms, projected off
                               for normal projections
    alpha_cont : (n, n, N, m)  container-valued alpha, until the frame is
                               built

    ``frame`` (p, N, m), an orthonormal normal frame, and ``alpha``
    (n, n, p, m), the components of alpha in it, are built together on
    the first read of either; the container-valued alpha is then released.
    """

    chart: object
    points: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    III: np.ndarray
    sff_sq: np.ndarray
    tangent: np.ndarray
    chol_inv: np.ndarray
    obasis: np.ndarray
    obasis_sq: np.ndarray
    alpha_cont: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.g.shape[-1]

    @functools.cached_property
    def frame(self):
        frame = _normal_frame(self.chart, self.obasis, self.obasis_sq)
        self.alpha = _dot(self.alpha_cont[:, :, None], frame,
                          _signs(self.chart.ambient))
        self.alpha_cont = None
        return frame

    @functools.cached_property
    def alpha(self):
        self.frame            # builds alpha beside the frame
        return self.__dict__["alpha"]

    def normal_project(self, v):
        """Project container vectors (..., N) onto the normal space."""
        batch = self.sff_sq.shape
        v = np.broadcast_to(v, batch + self.tangent.shape[1:2])
        w = _project_off(_components(v, 1), self.obasis, self.obasis_sq,
                         _signs(self.chart.ambient))
        return _point_major(w, batch)

    def flatness_residual(self):
        """Max commutator norm of the shape operators A_a = g^{-1} B_a
        relative to max(1, |alpha|^2); zero for p <= 1."""
        p = self.chart.codimension
        res = np.zeros(self.sff_sq.size)
        if p > 1:
            A = _matmul(self.ginv, self.alpha)             # (n, n, p, m)
            for a in range(p):
                for b in range(a + 1, p):
                    comm = _matmul(A[:, :, a], A[:, :, b]) \
                        - _matmul(A[:, :, b], A[:, :, a])
                    res = np.maximum(res, np.sqrt(
                        (comm * comm).sum(axis=(0, 1))))
        return res.reshape(self.sff_sq.shape) / np.maximum(1.0, self.sff_sq)


def _normal_frame(chart, obasis, obasis_sq):
    """Deterministic orthonormal normal frame (p, N, m): the standard basis
    vectors projected off the span and the accepted normals, in order."""
    sig = _signs(chart.ambient)
    p = chart.codimension
    N = chart.ambient.embedding_dimension
    m = obasis.shape[-1]
    frame = np.zeros((p, N, m))
    if p == 0 or m == 0:
        return frame
    count = np.zeros(m, dtype=int)
    for k in range(N):
        w = _project_off(np.eye(N)[:, k, None], obasis, obasis_sq, sig)
        prev = frame[:count.max()]        # slots some point has filled
        qq = _dot(prev, prev, sig)
        w = _project_off(w, prev, np.where(qq > 0, qq, 1.0), sig)
        nrm2 = _dot(w, w, sig)
        accept = (nrm2 > _FRAME_TOL) & (count < p)
        if np.any(accept):
            wn = w / np.sqrt(np.where(accept, nrm2, 1.0))
            for a in range(p):
                frame[a] = np.where(accept & (count == a), wn, frame[a])
            count += accept
        if np.all(count == p):
            return frame
    raise FrameError(f"{chart.name}: could not build {p} independent normals")


def fundamental_batch(chart, U):
    """Fundamental data at points U of shape (..., n).  The normal frame is
    built when first read.

    The points go through the chart's jet and the kernel in consecutive
    blocks of at most BLOCK flattened points, each written into the batch
    arrays; a batch of one block keeps the kernel's own.  The guards run
    per block, in order: a point outside the chart raises
    :class:`DomainError` naming the first such point in C order, an image
    off the space-form model raises :class:`ModelConsistencyError` with
    the worst residual of the first block that has one, and the first
    block that fails decides whether :class:`DegenerateMetricError` or
    :class:`FrameError` is raised.
    """
    U = np.asarray(U, dtype=float)
    batch = U.shape[:-1]
    flat = U.reshape(-1, U.shape[-1])
    m, size = len(flat), _block_size(batch)
    if m <= size:
        out = _kernel(chart, flat)
    else:
        out = {}
        for lo in range(0, m, size):
            _write(out, _kernel(chart, flat[lo:lo + size]),
                   slice(lo, lo + size), m)
    for name in ("g", "III", "sff_sq"):     # handed on point-major
        out[name] = _point_major(out[name], batch)
    return FundamentalBatch(chart, U, **out)


# ---------------------------------------------------------------------------
# the theorem's hypotheses: a positive curvature gap and a flat normal bundle

def gap_violation(chart, exploratory=False):
    """Why the chart's curvature gap C fails the theorem's C > 0, or None.
    The exploratory mode admits C = 0."""
    C = chart.C
    if C is None:
        return "intrinsic curvature unasserted"
    if not math.isfinite(C):
        return f"curvature gap C = {C:g} is not finite"
    if C < 0 or (C == 0 and not exploratory):
        return f"curvature gap C = {C:g} <= 0"
    return None


def flatness_violation(fb):
    """Why the normal bundle over the batch fails to be flat, or None.  It
    counts as flat when the largest shape-operator commutator residual is
    at most ten times the default residual tolerance of the chart's
    engine."""
    res = float(np.max(fb.flatness_residual()))
    tol = 10.0 * engines.DEFAULT_TOL[fb.chart.engine]
    if res <= tol:
        return None
    return f"normal bundle not flat, residual {res:.3e} > {tol:.1e}"
