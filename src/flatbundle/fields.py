"""Sampled fields on rectangular parameter grids.

Derived per-point quantities (principal normals, directions, lambdas, the
comparison metric) only exist after a pointwise eigen-decomposition, so
their derivatives are always taken by order-4 finite differences on the
grid, regardless of the chart engine.  This module also fixes the discrete
gauge: directions start from the canonical pointwise gauge of
``principal_batch`` and are relabelled and signed coherently along a
spanning raster path from the grid origin, so the origin keeps its
canonical labels; points where the alignment is ambiguous are masked and
counted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .principal import principal_batch

ALIGN_AMBIGUOUS = 1e-3   # two alignment candidates closer than this: flag
ALIGN_MIN = 0.7          # below this diagonal overlap the gauge is incoherent


@dataclass
class Grid:
    axes: tuple          # per-axis 1d coordinate arrays
    spacing: np.ndarray
    periodic: tuple

    @property
    def shape(self):
        return tuple(len(a) for a in self.axes)

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def points(self):
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def cell_volume(self):
        return float(np.prod(self.spacing))

    def deriv(self, A, axis):
        """Order-4 central difference of a sampled field A (grid leading
        dims) along one grid axis, read from one copy of A padded by two
        nodes at each end of the axis: wrapped if the axis is periodic,
        NaN if not.  The NaN fills the two-node stencil margin and poisons
        any residual computed there; callers reduce over finite entries.
        """
        pad = [(2, 2) if k == axis else (0, 0) for k in range(A.ndim)]
        P = (np.pad(A, pad, mode="wrap") if self.periodic[axis]
             else np.pad(A, pad, constant_values=np.nan))
        pre, m = (slice(None),) * axis, A.shape[axis]

        def r(k):
            return P[pre + (slice(2 + k, 2 + k + m),)]

        return (-r(2) + 8.0 * r(1) - 8.0 * r(-1) + r(-2)) \
            / (12.0 * self.spacing[axis])

    @property
    def stencil_floor(self):
        """100 h^4 at the largest spacing h: the error scale of
        :meth:`deriv`, the least tolerance of a differentiated field."""
        return 100.0 * float(np.max(self.spacing)) ** 4

    def gradient(self, A):
        """The derivatives of A along every grid axis, in axis order."""
        return [self.deriv(A, m) for m in range(self.ndim)]


def per_axis(name, values, n):
    """The values for each of n axes; one value broadcasts to all n."""
    values = tuple(values)
    if len(values) == 1:
        values = values * n
    if len(values) != n:
        raise ConfigError(f"{name} has {len(values)} axes, chart has {n}")
    return values


def resolution_per_axis(resolution, n):
    """The sample count of each of n grid axes, at least 2 each; one value
    broadcasts to all n.  A float counts only where it is integral, as
    that integer."""
    if np.isscalar(resolution):
        resolution = (resolution,)
    counts = []
    for value in per_axis("resolution", resolution, n):
        try:
            count = int(value)
        except (TypeError, ValueError, OverflowError):
            count = None
        if count is None or count != value:
            raise ConfigError(f"resolution {value!r} is not an integer")
        counts.append(count)
    resolution = tuple(counts)
    if min(resolution) < 2:
        raise ConfigError(f"resolution {resolution} needs at least 2 "
                          f"samples per axis")
    return resolution


def make_grid(chart, resolution):
    """Uniform grid over the chart's usable domain.

    Periodic axes sample [lo, hi) without the duplicate endpoint.
    """
    resolution = resolution_per_axis(resolution, chart.n)
    axes, spacing = [], []
    for k, ((lo, hi), r) in enumerate(zip(chart.usable_domain(),
                                          resolution)):
        if chart.periodic[k]:
            h = (hi - lo) / r
            axes.append(lo + h * np.arange(r))
        else:
            h = (hi - lo) / (r - 1)
            axes.append(np.linspace(lo, hi, r))
        spacing.append(h)
    return Grid(tuple(axes), np.array(spacing), tuple(chart.periodic))


@dataclass
class PrincipalField:
    """Coherently gauged principal data sampled on a grid."""

    chart: object
    grid: Grid
    fb: object               # FundamentalBatch over the grid
    pb: object               # PrincipalBatch (coherent gauge)
    coherent: np.ndarray     # bool mask of gauge-trustworthy points
    n_incoherent: int

    def along(self, grad, a):
        """X_a(A) = sum_m X_a^m d_m A from the gradient of A, summed in m
        order."""
        out = None
        for m, dA in enumerate(grad):
            coef = self.pb.X_chart[..., a, m]
            coef = coef.reshape(coef.shape + (1,) * (dA.ndim - coef.ndim))
            term = coef * dA
            out = term if out is None else out + term
        return out

    @functools.cached_property
    def gamma(self):
        """The connection table gamma[a][b][c] = <D_{X_a} X_b, X_c> of the
        principal frame, one grid array per entry; each frame vector is
        differentiated once."""
        X = self.pb.X_cont
        inner = self.chart.ambient.inner
        n = self.chart.n
        table = [[None] * n for _ in range(n)]
        for b in range(n):
            grad = self.grid.gradient(X[..., b, :])
            for a in range(n):
                D = self.along(grad, a)
                table[a][b] = [inner(D, X[..., c, :]) for c in range(n)]
        return table


def _alignment_matrices(X, Y, signature):
    """Q[..., k, l] = <X_k, Y_l>, the container overlaps of two direction
    frames (..., n, N)."""
    return np.einsum("...kN,...lN->...kl", X * signature, Y)


def _signed_permutation(Q):
    """Greedy signed-permutation approximation of alignment matrices Q.

    Returns (P, ambiguous): X_aligned(next) = P @ X_raw(next) matches the
    current point's labels; ambiguous flags points where the best and
    second-best candidate for some direction are too close to call.
    """
    n = Q.shape[-1]
    absQ = np.abs(Q)
    # rowwise ambiguity (n >= 2): best and runner-up candidate too close
    # to call.  Q is finite (the batch refuses a non-finite frame), and the
    # gap is exact: |a - b| is max - min, and a partition keeps the values
    if n == 2:
        gap = np.abs(absQ[..., 0] - absQ[..., 1])
    else:
        top2 = np.partition(absQ, n - 2, axis=-1)[..., -2:]
        gap = top2[..., 1] - top2[..., 0]
    ambiguous = np.any(gap < ALIGN_AMBIGUOUS, axis=-1)
    # fancy indexing, not *_along_axis: flows call this on many small batches
    flat = absQ.reshape(-1, n * n)
    Qflat = Q.reshape(flat.shape)
    P = np.zeros(flat.shape, dtype=Q.dtype)
    pts = np.arange(flat.shape[0])
    lane = np.arange(n)
    for _ in range(n):
        idx = np.argmax(flat, axis=-1)
        sgn = np.sign(Qflat[pts, idx])
        P[pts, idx] = np.where(sgn == 0, 1.0, sgn)
        k, l = idx // n, idx % n
        flat[pts[:, None], k[:, None] * n + lane] = -np.inf
        flat[pts[:, None], lane * n + l[:, None]] = -np.inf
    return P.reshape(Q.shape), ambiguous


def principal_field(fb, grid):
    """Principal data of the fundamental batch fb over the grid's points,
    in a coherent gauge."""
    chart = fb.chart
    pb = principal_batch(fb)

    sig = chart.ambient.signature
    n = chart.n
    shape = grid.shape
    ndim = grid.ndim

    # gauge transform M per point, accumulated edge by edge along the raster
    # spanning path from the grid origin (axis 0 first with later axes at 0,
    # then axis 1 at fixed axis-0 index, and so on)
    M = np.broadcast_to(np.eye(n), shape + (n, n)).copy()
    overlaps, ambiguous = [], []
    for ax in range(ndim):
        Q = _alignment_matrices(pb.X_cont, np.roll(pb.X_cont, -1, axis=ax),
                                sig)
        P, amb = _signed_permutation(Q)
        overlaps.append(Q)
        ambiguous.append(amb)
        pin = (0,) * (ndim - ax - 1)
        for i in range(1, shape[ax]):
            pre = (slice(None),) * ax
            cur = pre + (i,) + pin
            prv = pre + (i - 1,) + pin
            M[cur] = M[prv] @ P[prv]

    pb.regauge(M)

    # verify the gauge: neighbors must overlap strongly and positively on
    # the diagonal; points adjacent to a seam or an ambiguous alignment are
    # masked and counted.  The regauge is a signed permutation per point, so
    # the regauged overlaps are M Q M_next^T exactly, and it permutes the
    # rows of |Q| and the entries within each row, so the ambiguity found
    # before it still holds
    coherent = np.ones(shape, dtype=bool)
    for ax in range(ndim):
        Q = M @ overlaps[ax] @ np.swapaxes(np.roll(M, -1, axis=ax), -1, -2)
        diag = np.einsum("...kk->...k", Q)
        bad = np.any(diag < ALIGN_MIN, axis=-1) | ambiguous[ax]
        if not grid.periodic[ax]:
            sl = [slice(None)] * ndim
            sl[ax] = slice(-1, None)
            bad[tuple(sl)] = False
        coherent &= ~bad
        coherent &= ~np.roll(bad, 1, axis=ax)

    return PrincipalField(chart, grid, fb, pb, coherent,
                          int(np.sum(~coherent)))
