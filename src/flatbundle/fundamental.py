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

The kernel works component-major: each index component is one contiguous
array over the flattened points (points on the last axis), and the small
index loops are plain multiply-adds over those arrays, so no per-point
matrix routine and no ``einsum`` runs.  The batch hands its results back
point-major, shape (..., n, n) and so on.

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

# the batch fields held component-major, points on the last axis
_COMPONENT_MAJOR = ("chol_inv", "obasis", "obasis_sq", "alpha_cont")


def _kernel(chart, V):
    """The batch fields over one block of points V (m, n), from the chart's
    jet, with the guards every batch runs: g must be positive definite and
    the normal projection finite.  g, ginv and III are point-major views of
    component-major arrays.  A function of its own, so that its temporaries
    are freed before the batch copies its results."""
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
    return dict(g=g.transpose(2, 0, 1), ginv=ginv.transpose(2, 0, 1),
                III=III.transpose(2, 0, 1), sff_sq=sff_sq, position=J.value,
                tangent=J.first, chol_inv=chol_inv, obasis=np.stack(obasis),
                obasis_sq=np.stack(obasis_sq), alpha_cont=alpha)


def _write(out, block, rows, m):
    """Write one block's fields into the batch arrays ``out`` over m
    flattened points, at ``rows``; the first block allocates them."""
    for name, a in block.items():
        comp = name in _COMPONENT_MAJOR
        if name not in out:
            out[name] = np.empty(a.shape[:-1] + (m,) if comp
                                 else (m,) + a.shape[1:])
        out[name][(..., rows) if comp else rows] = a


def _block_size(batch):
    """Points per block: whole rows (the points of one index of the first
    batch axis) where a row fits in BLOCK, so that the jet of a grid-shaped
    batch sees whole grid rows, the compact lattice an FD chart's spline
    evaluation is fastest on."""
    row = math.prod(batch[1:])
    return row * (BLOCK // row) if 0 < row <= BLOCK else BLOCK


@dataclass
class FundamentalBatch:
    """Fundamental data over a batch of shape ``batch``.

    g        : (..., n, n)    first fundamental form
    ginv     : (..., n, n)
    III      : (..., n, n)    third fundamental form
                              g^{kl} <alpha_ik, alpha_jl>
    sff_sq   : (...,)         |alpha|^2 = tr(g^{-1} III)
    position : (..., N)       image points
    tangent  : (..., n, N)    container tangent vectors dF/du_i
    chol_inv : component-major (n, n, m) inverse Cholesky factor L^{-1} of
               g = L L^T over the m flattened points (lower triangular)
    obasis / obasis_sq : component-major (K, N, m) / (K, m) orthogonalized
                         span of tangent (+ position) over the m flattened
                         points, projected off for normal projections
    alpha_cont : component-major (n, n, N, m) container-valued alpha, held
                 until the frame is built

    ``frame`` (..., p, N), an orthonormal normal frame, and ``alpha``
    (..., n, n, p), the components of alpha in it, are built together on
    the first read of either; the container-valued alpha is then released.
    """

    chart: object
    points: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    III: np.ndarray
    sff_sq: np.ndarray
    position: np.ndarray
    tangent: np.ndarray
    chol_inv: np.ndarray
    obasis: np.ndarray
    obasis_sq: np.ndarray
    alpha_cont: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.g.shape[-1]

    @property
    def p(self):
        return self.chart.codimension

    @functools.cached_property
    def frame(self):
        frame = _normal_frame(self.chart, self.obasis, self.obasis_sq)
        alpha = _dot(self.alpha_cont[:, :, None], frame,
                     _signs(self.chart.ambient))            # (n, n, p, m)
        batch = self.sff_sq.shape
        self.alpha = _point_major(alpha, batch)
        self.alpha_cont = None
        return _point_major(frame, batch)

    @functools.cached_property
    def alpha(self):
        self.frame            # builds alpha beside the frame
        return self.__dict__["alpha"]

    def normal_project(self, v):
        """Project container vectors (..., N) onto the normal space."""
        batch = self.sff_sq.shape
        v = np.broadcast_to(v, batch + self.position.shape[-1:])
        w = _project_off(_components(v, 1), self.obasis, self.obasis_sq,
                         _signs(self.chart.ambient))
        return _point_major(w, batch)

    def shape_operators(self):
        """g-self-adjoint shape operators A_a = g^{-1} B_a, shape (..., p, n, n)."""
        B = np.moveaxis(self.alpha, -1, -3)
        return self.ginv[..., None, :, :] @ B

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
        out = {name: np.ascontiguousarray(a)
               for name, a in _kernel(chart, flat).items()}
    else:
        out = {}
        for lo in range(0, m, size):
            _write(out, _kernel(chart, flat[lo:lo + size]),
                   slice(lo, lo + size), m)
    for name, a in out.items():
        if name not in _COMPONENT_MAJOR:
            out[name] = a.reshape(batch + a.shape[1:])
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
