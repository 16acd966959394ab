"""Sampled fields on rectangular parameter grids.

Derived per-point quantities (principal normals, directions, lambdas, the
comparison metric) only exist after a pointwise eigen-decomposition, so
their derivatives are always taken by order-4 finite differences on the
grid, regardless of the chart engine.  This module also fixes the discrete
gauge, component-major in the batch layer's layout: from the canonical
pointwise gauge of ``principal_batch``, int8 signed codes relabel and sign
the directions coherently along a spanning raster path from the grid
origin, so the origin keeps its canonical labels, and ``principal_batch``
applies them in its one gather.  Overlaps are multiply-adds over the
container index.  Points where the alignment is ambiguous are masked and
counted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fundamental import _signs
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


def _overlaps(X, Y, signs):
    """Q[k, l] = <X_k, Y_l> (n, n, m), accumulated in N order: the
    container overlaps of two component-major direction frames (n, N, m)."""
    if signs is not None:
        X = X * signs
    Q = X[:, None, 0] * Y[None, :, 0]
    term = np.empty_like(Q)
    for c in range(1, X.shape[1]):
        Q += np.multiply(X[:, None, c], Y[None, :, c], out=term)
    return Q


def _greedy_codes(Q):
    """The greedy signed permutation of overlaps Q (n, n, m) as signed
    codes (n, m): the largest |Q[k, l]| left, the first in row-major
    order on a tie, gives slot k direction l, signed as Q[k, l] (+ for
    0), and takes row k and column l out."""
    n = len(Q)
    flat = np.abs(Q).reshape(n * n, -1)
    codes = np.empty((n, flat.shape[1]), dtype=np.int8)
    pts, lane = np.arange(flat.shape[1]), np.arange(n)[:, None]
    for _ in range(n):
        at = np.argmax(flat, axis=0)
        k, l = np.divmod(at, n)
        codes[k, pts] = np.where(Q.reshape(n * n, -1)[at, pts] < 0,
                                 -1 - l, 1 + l)
        flat[k * n + lane, pts] = -np.inf
        flat[lane * n + l, pts] = -np.inf
    return codes


def _signed_codes(Q):
    """The greedy codes of overlaps Q (n, n, m), and where they are
    ambiguous: some slot's best and runner-up candidates lie closer than
    ALIGN_AMBIGUOUS.  For n = 2 in closed form: the greedy keeps the
    labels iff |Q00| >= max(|Q01|, |Q10|) or |Q11| exceeds that max."""
    n = len(Q)
    absQ = np.abs(Q)
    # Q is finite (the batch refuses a non-finite frame), and the gap is
    # exact: |a - b| is max - min, and a partition keeps the values
    if n == 2:
        gap = np.abs(absQ[:, 0] - absQ[:, 1])
        cross = np.maximum(absQ[0, 1], absQ[1, 0])
        keep = (absQ[0, 0] >= cross) | (absQ[1, 1] > cross)
        codes = np.where(keep, [[1], [2]], [[2], [1]]).astype(np.int8)
        codes[np.where(keep, Q[[0, 1], [0, 1]], Q[[0, 1], [1, 0]]) < 0] *= -1
    else:
        top2 = np.partition(absQ, n - 2, axis=1)[:, -2:]
        gap = top2[:, 1] - top2[:, 0]
        codes = _greedy_codes(Q)
    return codes, np.any(gap < ALIGN_AMBIGUOUS, axis=0)


def principal_field(fb, grid):
    """Principal data of the fundamental batch fb over the grid's points,
    in a coherent gauge."""
    shape, ndim, n = grid.shape, grid.ndim, fb.n
    signs = _signs(fb.chart.ambient)
    codes = np.empty((n,) + shape, dtype=np.int8)
    overlaps = []           # per axis: Q and its ambiguity, canonical gauge

    def gauge(X):
        # codes composed edge by edge along the raster spanning path from
        # the grid origin (axis 0 first with later axes at 0, then axis 1
        # at fixed axis-0 index, and so on): a step from code c by greedy
        # codes p ends at sign(c) p[|c| - 1], entry c + n of [-p[::-1], 0, p]
        codes[...] = np.arange(1, n + 1).reshape((n,) + (1,) * ndim)
        on_grid = X.reshape(X.shape[:2] + shape)
        for ax in range(ndim):
            Q = _overlaps(X, np.roll(on_grid, -1, axis=2 + ax)
                          .reshape(X.shape), signs)
            p, amb = _signed_codes(Q)
            overlaps.append((Q.reshape((-1,) + shape), amb.reshape(shape)))
            p = p.reshape((n,) + shape)
            run = (slice(None),) * (ax + 2) + (0,) * (ndim - ax - 1)
            c = np.moveaxis(codes, ax + 1, 0)[run]
            table = np.moveaxis(np.concatenate([-p[::-1], 0 * p[:1], p]),
                                ax + 1, 0)[run].reshape(len(c), -1)
            lanes = np.intp(c[0, 0].size)
            at = np.arange(lanes).reshape(c.shape[2:]) + n * lanes
            for i in range(1, len(c)):
                c[i] = table[i - 1][c[i - 1] * lanes + at]
        return codes.reshape(n, -1)

    pb = principal_batch(fb, gauge)

    # verify the gauge: neighbors must overlap strongly and positively on
    # the diagonal; points adjacent to a seam or an ambiguous alignment are
    # masked and counted.  For codes (pi, s) at a point and (pi', s') at
    # its neighbor, slot k's gauged overlap is s_k s'_k Q[pi(k), pi'(k)];
    # the gauge permutes the rows of |Q| and the entries within each row,
    # so the ambiguity found in the canonical gauge still holds
    slot, neg = np.abs(codes) - 1, codes < 0
    coherent = np.ones(shape, dtype=bool)
    for ax, (Q, amb) in enumerate(overlaps):
        d = np.take_along_axis(Q, slot * n + np.roll(slot, -1, axis=1 + ax),
                               0)
        bad = np.any(np.where(neg != np.roll(neg, -1, axis=1 + ax), -d, d)
                     < ALIGN_MIN, axis=0) | amb
        if not grid.periodic[ax]:
            bad[(slice(None),) * ax + (-1,)] = False
        coherent &= ~bad & ~np.roll(bad, 1, axis=ax)

    return PrincipalField(fb.chart, grid, fb, pb, coherent,
                          int(np.sum(~coherent)))
