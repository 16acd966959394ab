"""Lengths, distances, geodesic balls, volumes, the metric-comparison
inequality chain, and exponential-growth fitting.

Discrete geodesics are shortest paths on the parameter grid with a
32-direction stencil (axis, diagonal, knight and (3,1)/(3,2) moves).  Every
strict inequality is asserted with the stencil's worst-case directional
overshoot subtracted as an error budget.  That overshoot is exact in every
dimension: 1/inradius - 1 of the convex hull of the unit stencil
directions, tabulated for n = 2 and 3.

An edge weight is the metric length of the edge at its midpoint.  The
midpoint of the edge k -> k + o lies on the 2x-refined half-lattice of
the grid, at half-index 2k + o.  The half-lattice points off the nodes
fall into parity classes c in {0,1}^n other than 0, each a lattice of
its own, and the midpoints of one offset o are a shifted window of the
lattice of c = o mod 2.  So the metrics are evaluated once on the class
lattices, in blocks of ``fundamental.BLOCK`` points (so each batch is a
single kernel block), and each offset's weights are multiply-adds over a
window of its class lattice, with no midpoint table and no gather.  A
block needs only the induced metric g and the comparison metric
g0 = C g + III: it reads them from a ``fundamental_batch`` (which refuses
a degenerate g or a non-finite normal projection) without building its
normal frame, and ``comparison_metric`` checks the gap (g0 is then
positive definite, since III is a Gram matrix); at C = 0, where no
verdict reads the g0 distances, a block reads g alone.  The random
polylines of the length check read the same pair.
Only the grid batch builds its normal frame, to test the flatness
hypothesis.  The two metrics share one CSR structure, read off (nodes,
K) tables over the K stencil offsets with no edge list and no sort; one
at a time, each fills a weight table and runs Dijkstra without it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .errors import ConfigError, DomainError, HypothesisViolation
from .fields import make_grid
from .fundamental import (BLOCK, flatness_violation, fundamental_batch,
                          gap_violation)
from .principal import DEFAULT_SEED, comparison_metric

DEFAULT_RESOLUTION = 257
_OFFSET_RANGE = 3
_OFFSET_MAX_SQ = 13          # admits (3,2) but not (3,3)
LENGTH_SAMPLES = 64          # midpoint samples per polyline segment
LENGTH_CURVES = 20           # random polylines of the length check
# stencil_overshoot(stencil_offsets(n)) by ConvexHull, per dimension n
_OVERSHOOT = {2: 0.013081457233190097, 3: 0.02596311932106632}
_GROUP = 8            # stencil offsets (64 bytes) per write to a weight row
# reference_ball_volume's Gauss-Legendre nodes and weights on [-1, 1], and
# its most panels: past sqrt|c| r = 711, sinh(sqrt|c| r) overflows
_GAUSS = np.polynomial.legendre.leggauss(20)
_MAX_PANELS = math.ceil(math.asinh(np.finfo(float).max))


# ---------------------------------------------------------------------------
# stencil geometry

def stencil_offsets(ndim):
    """Primitive integer steps (one per undirected direction) with
    components in [-3, 3] and squared length at most 13."""
    grids = np.meshgrid(*[np.arange(-_OFFSET_RANGE, _OFFSET_RANGE + 1)] * ndim,
                        indexing="ij")
    offs = np.stack(grids, axis=-1).reshape(-1, ndim)
    keep = []
    for o in offs:
        if not o.any() or o @ o > _OFFSET_MAX_SQ:
            continue
        if np.gcd.reduce(np.abs(o)[np.abs(o) > 0]) != 1:
            continue
        nz = o[np.nonzero(o)[0][0]]
        if nz < 0:           # one representative per antipodal pair
            continue
        keep.append(o)
    return np.array(keep)


def stencil_overshoot(offsets):
    """Worst relative excess of the shortest stencil path over a straight
    segment.  The stencil path length of a displacement is the gauge of the
    convex hull of the +-unit stencil directions, so the excess is at most
    1/inradius - 1 of that hull, with equality along its nearest facet.
    The stencil of n = 2 and 3 reads its value from a table."""
    n = offsets.shape[1]
    if n in _OVERSHOOT and np.array_equal(offsets, stencil_offsets(n)):
        return _OVERSHOOT[n]
    from scipy.spatial import ConvexHull
    dirs = offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
    hull = ConvexHull(np.concatenate([dirs, -dirs]))
    return float(1.0 / np.min(-hull.equations[:, -1]) - 1.0)


# ---------------------------------------------------------------------------
# distance fields

@dataclass
class DistanceField:
    """Shortest-path distances from one anchor node over a metric grid."""

    grid: object
    anchor_index: tuple
    d: np.ndarray                  # grid-shaped distances
    predecessors: np.ndarray       # flat node index of the previous hop
    overshoot: float               # documented stencil error (relative)

    def path_max(self, values):
        """Running max of a node field along every shortest path.

        Returns, per node y, max of ``values`` over the discrete geodesic
        from the anchor to y (the paper's path quantity \\hat S).  Pointer
        doubling over the predecessor tree: after round k, v[y] is the max
        over the 2^k nodes of the path up to y and p[y] its 2^k-th
        ancestor, until every pointer has passed a root (negative)."""
        v = np.asarray(values, dtype=float).ravel().copy()
        p = self.predecessors.copy()
        live = np.flatnonzero(p >= 0)
        while live.size:
            up = p[live]
            v[live] = np.maximum(v[live], v[up])
            p[live] = p[up]
            live = live[p[live] >= 0]
        return v.reshape(self.d.shape)


def nearest_node(grid, x0):
    """Grid index tuple of the node closest to chart point x0, measuring
    distance modulo the period on periodic axes."""
    x0 = np.asarray(x0, dtype=float)
    index = []
    for k, ax in enumerate(grid.axes):
        d = np.abs(ax - x0[k])
        if grid.periodic[k]:
            period = ax.size * grid.spacing[k]
            d = np.mod(d, period)
            d = np.minimum(d, period - d)
        index.append(int(np.argmin(d)))
    return tuple(index)


def _windows(grid, o, d):
    """Pairs (at, to) of index boxes for the edges k -> k + o: over the
    nodes k of box ``at`` the edge stays on the grid, and k + d (wrapped
    on a periodic axis) runs over box ``to`` of a lattice that shares the
    grid's periodic axes.  A periodic axis splits where k + d wraps.  On
    a non-periodic axis shorter than the offset the box's stop is at or
    below its start (a negative stop, which a slice would wrap): dropped,
    as is every other empty box."""
    axes = []
    for r, per, oa, da in zip(grid.shape, grid.periodic, o, d):
        if per:
            t = da % r
            pairs = [(slice(0, r - t), slice(t, r)),
                     (slice(r - t, r), slice(0, t))]
        else:
            lo, hi = max(0, -oa), min(r, r - oa)
            pairs = [(slice(lo, hi), slice(lo + da, hi + da))]
        axes.append([p for p in pairs if p[0].stop > p[0].start])
    for boxes in itertools.product(*axes):
        yield tuple(at for at, _ in boxes), tuple(to for _, to in boxes)


def _stencil_graph(grid):
    """The stencil's CSR structure, read off (nodes, K) tables over the K
    stencil offsets.

    Returns (indptr, indices, valid, offsets): column s of the tables is
    offsets[s] from every node, and valid marks the edges on the grid.
    Both tables are sums and products of per-axis (r, K) tables of k + o.
    Each edge is stored once, from its source, and the int32 indices are
    node-major: no sort.
    """
    shape, ndim = grid.shape, grid.ndim
    if any(per and r <= 2 * _OFFSET_RANGE
           for r, per in zip(shape, grid.periodic)):
        # two offsets would wrap onto one node pair, or an edge onto a loop
        raise ValueError(f"the stencil needs at least {2 * _OFFSET_RANGE + 1}"
                         " grid points on a periodic axis")
    offsets = stencil_offsets(ndim)
    K = len(offsets)
    valid = np.ones(shape + (K,), dtype=bool)
    steps, stride = [], math.prod(shape)
    for a, (r, per) in enumerate(zip(shape, grid.periodic)):
        stride //= r
        to = np.arange(r)[:, None] + offsets[:, a]      # (r, K): k + o
        along = (1,) * a + (r,) + (1,) * (ndim - 1 - a) + (K,)
        steps.append(((to % r) * stride).astype(np.int32).reshape(along))
        if not per:
            valid &= ((to >= 0) & (to < r)).reshape(along)
    dst = functools.reduce(np.add, steps)       # read where valid only
    valid = valid.reshape(-1, K)
    indptr = np.zeros(len(valid) + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(valid, axis=1), out=indptr[1:])
    return indptr, dst.reshape(valid.shape)[valid], valid, offsets


def _parity_classes(grid):
    """The parity classes c in {0,1}^n other than 0 of the half-lattice,
    each with the shape of its lattice and where that lattice starts in
    their concatenation, and the concatenation's length.  Point k of
    class c sits at half-index 2k + c, so an axis has one point fewer
    than the grid where c is odd and the axis is not periodic."""
    classes, total = [], 0
    for c in itertools.product((0, 1), repeat=grid.ndim):
        if any(c):
            shape = tuple(r - 1 if ca and not per else r
                          for r, ca, per in zip(grid.shape, c, grid.periodic))
            classes.append((c, shape, total))
            total += math.prod(shape)
    return classes, total


def _midpoints(grid, classes, start, stop):
    """Chart points start:stop of the concatenated class lattices, each
    in C order."""
    points = []
    for c, shape, base in classes:
        lo, hi = max(start - base, 0), min(stop - base, math.prod(shape))
        if lo < hi:
            k = np.unravel_index(np.arange(lo, hi), shape)
            points.append(np.stack(
                [ax[0] + 0.5 * h * (2 * ka + ca) for ax, h, ka, ca
                 in zip(grid.axes, grid.spacing, k, c)], axis=-1))
    return np.concatenate(points)


def distance_fields(grid, metrics_fn, anchor_index):
    """Dijkstra distance fields for several metrics sharing one grid graph.

    metrics_fn : callable(points (m, n)) -> dict label -> (m, n, n),
                 evaluated once per block of at most BLOCK edge midpoints

    The points are the parity-class lattices of the half-lattice, one
    after another, and each label's metrics are kept per class,
    component-major.  The midpoint of the edge k -> k + o is point k + d
    of class c = o mod 2, d = (o - c) / 2 (mod r on a periodic axis), so
    over the box of nodes where offset o stays on the grid its weights
    are x_i G_ij x_j, x = o h, summed in _quadratic_form's order over a
    window of that class lattice.  _GROUP offsets at a time pass through
    a scratch into the node-major (nodes, K) weight table, whose valid
    entries, square-rooted, are the CSR data.  One label at a time is
    weighed, released and run through Dijkstra.
    """
    indptr, indices, valid, offsets = _stencil_graph(grid)
    overshoot = stencil_overshoot(offsets)
    classes, total = _parity_classes(grid)
    metrics = {}          # filled in place: no second copy of the metrics
    for s in range(0, total, BLOCK):
        U = _midpoints(grid, classes, s, s + BLOCK)
        for label, g in metrics_fn(U).items():
            if label not in metrics:
                metrics[label] = np.empty(g.shape[1:] + (total,))
            metrics[label][..., s:s + len(g)] = np.moveaxis(g, 0, -1)
    a = int(np.ravel_multi_index(anchor_index, grid.shape))
    fields = {}
    for label in list(metrics):
        G = metrics.pop(label)
        lattices = {c: np.moveaxis(           # (shape..., n, n) views
            G[..., b:b + math.prod(shape)].reshape(G.shape[:-1] + shape),
            (0, 1), (-2, -1)) for c, shape, b in classes}
        # _GROUP offsets at a time through a (_GROUP, nodes) scratch: one
        # offset's column alone writes a single entry per cache line of w
        scratch = np.empty((_GROUP,) + grid.shape)
        w = np.empty(grid.shape + (len(offsets),))  # read where valid only
        for s in range(0, len(offsets), _GROUP):
            group = offsets[s:s + _GROUP]
            for j, o in enumerate(group):
                c = o % 2
                for at, to in _windows(grid, o, (o - c) // 2):
                    scratch[(j,) + at] = _quadratic_form(
                        lattices[tuple(c)][to], o * grid.spacing)
            w[..., s:s + len(group)] = np.moveaxis(scratch[:len(group)], 0,
                                                   -1)
        del G, lattices, scratch
        data = w.reshape(valid.shape)[valid]
        del w
        np.sqrt(data, out=data)
        graph = sparse.csr_matrix((data, indices, indptr),
                                  shape=(len(valid),) * 2)
        del data
        d, pred = dijkstra(graph, directed=False, indices=a,
                           return_predecessors=True)
        del graph
        fields[label] = DistanceField(grid, tuple(anchor_index),
                                      d.reshape(grid.shape), pred, overshoot)
    return fields


def _quadratic_form(G, x):
    """x_i G_ij x_j per matrix of the stack G (..., n, n), for vectors x
    (..., n) that broadcast against it."""
    n = x.shape[-1]
    q = (x[..., 0] * x[..., 0]) * G[..., 0, 0]
    for i in range(n):
        for j in range(n):
            if i or j:
                q += (x[..., i] * x[..., j]) * G[..., i, j]
    return q


# ---------------------------------------------------------------------------
# curve lengths

def _polyline_samples(chart, polyline, samples_per_segment):
    """Composite-midpoint samples (..., segments, samples, n) of chart
    polylines (..., vertices, n) and the chart step (..., segments, n)
    that each sample stands for.  Every vertex must lie in the chart's
    usable domain, where the engine's stencil stays inside the declared
    one."""
    P = np.asarray(polyline, dtype=float)
    if P.ndim < 2 or P.shape[-2] < 2:
        raise ValueError("polyline needs at least two chart points")
    inside = chart.contains(P)
    if not np.all(inside):
        bad = np.unravel_index(np.argmin(inside), inside.shape)
        raise DomainError(
            f"polyline vertex {bad[-1]} at {P[bad].tolist()} leaves the "
            f"usable domain of {chart.name}")
    t = (np.arange(samples_per_segment) + 0.5) / samples_per_segment
    A, B = P[..., :-1, None, :], P[..., 1:, None, :]
    mids = A + t[:, None] * (B - A)
    return mids, (B - A)[..., 0, :] / samples_per_segment


def _polyline_length(seg, gm):
    """Sums of metric step lengths per polyline; gm (..., segments,
    samples, n, n) holds the metric at every sample."""
    q = _quadratic_form(gm, seg[..., None, :])
    return np.sum(np.sqrt(q), axis=(-2, -1))


def curve_length(chart, polyline, metric="g",
                 samples_per_segment=LENGTH_SAMPLES):
    """Composite midpoint length of a chart polyline, plus the path max of
    the squared second-fundamental-form norm (the paper's \\hat S).

    metric is "g" (induced) or "g0" (comparison).
    """
    if metric not in ("g", "g0"):
        raise ValueError(f"unknown metric {metric!r}")
    mids, seg = _polyline_samples(chart, polyline, samples_per_segment)
    fb = fundamental_batch(chart, mids)
    gm = fb.g if metric == "g" else comparison_metric(fb)
    return float(_polyline_length(seg, gm)), float(np.max(fb.sff_sq))


# ---------------------------------------------------------------------------
# balls

def ball_max_sff(df, sff_sq, r):
    """S(r): max squared second-fundamental-form norm over the ball d <= r."""
    if r < 0:
        raise ValueError("ball radius must be non-negative")
    mask = df.d <= r
    if not np.any(mask):
        raise ValueError(f"no grid node within distance {r} of the anchor")
    return float(np.max(np.asarray(sff_sq)[mask]))


def ball_volume(df, sqrt_det_g, r):
    """Riemann sum of the volume density over the ball d <= r.

    Returns (volume, truncated): truncated means the ball touches the grid
    boundary, so the value is a lower bound of the true ball volume.
    """
    if r < 0:
        raise ValueError("ball radius must be non-negative")
    mask = df.d <= r
    vol = float(np.sum(np.asarray(sqrt_det_g)[mask]) * df.grid.cell_volume())
    truncated = any(np.take(mask, [0, -1], axis=k).any()
                    for k, per in enumerate(df.grid.periodic) if not per)
    return vol, truncated


def unit_ball_volume(n):
    """Volume of the Euclidean unit n-ball, pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def reference_ball_volume(c, n, r):
    """Geodesic ball volume in the simply connected space form of
    curvature c: the area of the distance spheres, integrated by a
    20-point Gauss-Legendre rule on max(1, ceil(sqrt|c| r)) equal panels.
    A radius beyond the diameter of the sphere (c > 0), or whose volume
    overflows a float, raises :class:`ConfigError`."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    if r == 0:
        return 0.0
    area = n * unit_ball_volume(n)        # unit (n-1)-sphere area
    if c == 0:
        return unit_ball_volume(n) * r ** n
    a = math.sqrt(abs(c))
    if c > 0 and r > math.pi / a:
        raise ConfigError(f"radius {r:g} exceeds the diameter "
                          f"{math.pi / a:g} of the model sphere of "
                          f"curvature {c:g}")
    sn = np.sinh if c < 0 else np.sin
    panels = max(1, math.ceil(a * r))
    vol = math.inf                        # unless computed finite below
    if panels <= _MAX_PANELS:
        x, w = _GAUSS
        width = r / panels
        t = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)) * width
        with np.errstate(over="ignore"):    # sinh beyond the float range
            vol = float(area * (0.5 * width)
                        * np.sum((sn(a * t) / a) ** (n - 1) @ w))
    if math.isinf(vol):
        raise ConfigError(f"radius {r:g}: reference ball volume overflows")
    return vol


# ---------------------------------------------------------------------------
# exponential fit

def fit_exponential(rows, window=None):
    """Least squares of log(value) against r; returns (k, l, r_squared).

    rows : sequence of (r, value) with r strictly increasing.
    window : optional (r_lo, r_hi) restriction.
    """
    r, v = np.asarray(rows, dtype=float).reshape(len(rows), 2).T
    if np.any(np.diff(r) <= 0):
        raise ValueError("radii must be strictly increasing")
    if window is not None:
        keep = (r >= window[0]) & (r <= window[1])
        r, v = r[keep], v[keep]
    if len(r) < 4:
        raise ValueError("need at least 4 rows in the fit window")
    if np.any(v <= 0):
        raise ValueError("fit values must be positive in the window")
    logv = np.log(v)
    ell, logk = np.polyfit(r, logv, 1)
    resid = logv - (ell * r + logk)
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(np.exp(logk)), float(ell), r2


# ---------------------------------------------------------------------------
# inequality chain

@dataclass
class ChainVerdict:
    """Outcome of one link of the metric-comparison inequality chain."""

    name: str
    verdict: str          # "pass" | "fail" | "indeterminate" | "skip"
    margin: float         # worst relative slack of the strict inequality
    error_budget: float   # documented discretization error (relative)
    notes: str = ""
    compared: int = 0     # number of entries the inequality was tested on

    def summary_line(self):
        return (f"{self.name} {self.verdict.upper()} margin={self.margin:.3e} "
                f"budget={self.error_budget:.3e} {self.notes}").rstrip()


def _strict_verdict(name, lhs, rhs, budget, notes=""):
    """Relative verdict for strict inequalities lhs < rhs (elementwise).

    Only entries with a finite positive rhs are compared.  A non-finite lhs
    against such an rhs fails; with nothing compared the verdict is
    indeterminate (margin NaN), never a vacuous pass.
    """
    lhs, rhs = np.asarray(lhs, float), np.asarray(rhs, float)
    ok = np.isfinite(rhs) & (rhs > 0)
    compared = int(np.count_nonzero(ok))
    if compared == 0:
        return ChainVerdict(name, "indeterminate", math.nan, budget, notes, 0)
    lo, hi = lhs[ok], rhs[ok]
    rel = np.where(np.isfinite(lo), (hi - lo) / hi, -math.inf)
    margin = float(np.min(rel))
    if margin > budget:
        verdict = "pass"
    elif margin < -budget:
        verdict = "fail"
    else:
        verdict = "indeterminate"
    return ChainVerdict(name, verdict, margin, budget, notes, compared)


def check_length_inequality(chart, seed=DEFAULT_SEED):
    """Strict length comparison on random polylines drawn from ``seed``:
    the comparison-metric length must stay below sqrt(path max |alpha|^2
    + C) times the induced length."""
    reason = gap_violation(chart)
    if reason is not None:
        raise HypothesisViolation(f"length comparison needs C > 0: {reason}")
    rng = np.random.default_rng(seed)
    box = np.array(chart.usable_domain())
    P = box[:, 0] + rng.random((LENGTH_CURVES, 4, chart.n)) \
        * (box[:, 1] - box[:, 0])
    mids, seg = _polyline_samples(chart, P, LENGTH_SAMPLES)
    fb = fundamental_batch(chart, mids)
    Lg = _polyline_length(seg, fb.g)
    L0 = _polyline_length(seg, comparison_metric(fb))
    s_hat = np.max(fb.sff_sq, axis=(-2, -1))
    # the same lengths at twice the samples, as curve_length takes them
    mids, seg = _polyline_samples(chart, P, 2 * LENGTH_SAMPLES)
    L0c = _polyline_length(seg, comparison_metric(fundamental_batch(chart,
                                                                    mids)))
    quad_err = float(np.max(np.abs(L0 - L0c) / np.maximum(L0, 1e-300),
                            initial=0.0))
    return _strict_verdict("length_comparison", L0,
                           np.sqrt(s_hat + chart.C) * Lg,
                           max(3.0 * quad_err, 1e-12),
                           notes=f"{LENGTH_CURVES} random polylines")


def check_distance_inequality(df_g, df_g0, sff_sq, chart):
    """Strict distance comparison at every grid node against the anchor;
    sff_sq holds |alpha|^2 at the grid nodes of the chart."""
    s_path = df_g.path_max(sff_sq)
    rhs = np.sqrt(s_path + chart.C) * df_g.d
    away = np.ones(df_g.d.shape, dtype=bool)
    away[df_g.anchor_index] = False       # the anchor itself is vacuous
    budget = df_g.overshoot + df_g0.overshoot
    return _strict_verdict("distance_comparison", df_g0.d[away], rhs[away],
                           budget, notes=f"{int(np.sum(away))} grid nodes")


def check_ball_containment(df_g, df_g0, sff_sq, chart, r):
    """Every node of the induced-metric ball D_r must lie strictly inside
    the comparison-metric ball of radius psi(r) = r sqrt(S(r) + C);
    sff_sq holds |alpha|^2 at the grid nodes of the chart.

    A ball holding only the anchor compares nothing: indeterminate."""
    S = ball_max_sff(df_g, sff_sq, r)
    psi = r * math.sqrt(S + chart.C)
    mask = (df_g.d <= r)
    mask[df_g.anchor_index] = False
    budget = df_g.overshoot + df_g0.overshoot
    lhs = df_g0.d[mask]
    return _strict_verdict(f"ball_containment(r={r:g})", lhs,
                           np.full(lhs.shape, psi), budget,
                           notes=(f"{lhs.size} ball nodes" if lhs.size
                                  else "singleton ball"))


# ---------------------------------------------------------------------------
# the growth report

class GrowthRow(NamedTuple):
    """One radius of the growth table: growth.csv's columns, in order."""

    r: float
    S: float
    psi: float
    vol: float
    bound: float
    ref_vol: float


@dataclass
class GrowthReport:
    """Per-radius growth table plus the bound-chain verdicts and the fit.

    The exponential fit is reported, never asserted: a finite patch cannot
    witness the exponential-growth conclusion, only the inequality chain.
    """

    rows: list                     # GrowthRow items, by increasing radius
    verdicts: list                 # ChainVerdict items
    fit: tuple                     # (k, ell, r_squared) for S(r), or None
    fit_window: object
    warnings: list
    stencil_overshoot: float       # relative stencil error of the distances

    @property
    def chain_holds(self):
        return all(v.verdict == "pass" for v in self.verdicts)


def default_resolution(n):
    """Growth grid points per axis when none is configured."""
    return DEFAULT_RESOLUTION if n == 2 else 65


def default_fit_window(radii):
    """Skip the smallest 20% of radii (the asymptotic regime is existential)."""
    radii = sorted(radii)
    lo = radii[int(math.ceil(0.2 * len(radii)))] if len(radii) > 1 else radii[0]
    return (lo, radii[-1])


def growth_report(chart, x0, radii, window=None, resolution=None,
                  seed=DEFAULT_SEED, exploratory=False):
    """Assemble the full growth table and inequality-chain verdicts;
    ``seed`` draws the polylines of the length check.

    Requires the theorem hypotheses C > 0 and flat normal bundle; violations
    raise :class:`HypothesisViolation` (C = 0 is admitted in exploratory
    mode with the bound column left undefined).  An x0 outside the chart's
    usable domain raises :class:`DomainError`.
    """
    C = chart.C
    reason = gap_violation(chart, exploratory)
    if reason is not None:
        raise HypothesisViolation(
            f"{chart.name}: {reason}"
            + (" (pass exploratory=True for C = 0)" if C == 0 else ""))
    radii = [float(r) for r in radii]
    for r in radii:
        if not math.isfinite(r):
            raise ValueError(f"radius {r} is not finite")
    radii = sorted(radii)
    if not radii or radii[0] <= 0:
        raise ValueError("radii must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (chart.n,) or not chart.contains(x0):
        raise DomainError(f"x0 = {x0.tolist()} is not a point of the usable "
                          f"domain of {chart.name}")
    # before the grid work, so that a radius past the sphere's diameter
    # or an overflowing one fails at once
    refs = [reference_ball_volume(chart.c, chart.n, r)
            if chart.c is not None else math.nan for r in radii]

    if resolution is None:
        resolution = default_resolution(chart.n)
    grid = make_grid(chart, resolution)
    fb = fundamental_batch(chart, grid.points)
    reason = flatness_violation(fb)
    if reason is not None:
        raise HypothesisViolation(f"{chart.name}: {reason}")

    sff_sq = fb.sff_sq
    sqrt_det_g = np.sqrt(np.linalg.det(fb.g))
    del fb                # Dijkstra runs without the grid batch
    anchor = nearest_node(grid, x0)

    def metrics_fn(U):
        batch = fundamental_batch(chart, U)
        # at C = 0 no verdict reads the g0 distances
        return ({"g": batch.g, "g0": comparison_metric(batch)} if C > 0
                else {"g": batch.g})

    dfs = distance_fields(grid, metrics_fn, anchor)
    df_g, df_g0 = dfs["g"], dfs.get("g0")

    warnings = []
    n = chart.n
    omega = unit_ball_volume(n)
    rows = []
    if C > 0:
        verdicts = [check_length_inequality(chart, seed=seed),
                    check_distance_inequality(df_g, df_g0, sff_sq, chart)]
    else:
        verdicts = [ChainVerdict(name, "skip", math.nan, math.nan,
                                 "C = 0 (exploratory)")
                    for name in ("length_comparison", "distance_comparison")]

    budget_vol = 2.0 * df_g.overshoot
    for r, ref in zip(radii, refs):
        S = ball_max_sff(df_g, sff_sq, r)
        vol, truncated = ball_volume(df_g, sqrt_det_g, r)
        if truncated:
            warnings.append(
                f"ball r={r:g} touches the domain boundary; its volume is a "
                "lower bound only")
        bound = (r ** n * (1.0 + S / C) ** (n / 2.0) * omega
                 if C > 0 else math.nan)
        rows.append(GrowthRow(r, S, r * math.sqrt(S + C), vol, bound, ref))
        if C > 0:
            contained = check_ball_containment(df_g, df_g0, sff_sq, chart, r)
            # the anchor alone (containment compares every other node)
            # sums one cell, which bounds nothing
            singleton = contained.compared == 0
            verdicts += [contained, _strict_verdict(
                f"volume_bound(r={r:g})", [vol],
                [math.nan if singleton else bound], budget_vol,
                notes="singleton ball" if singleton
                else "truncated ball (lower bound)" if truncated else "")]

    fit = None
    fit_window = window or default_fit_window(radii)
    try:
        fit = fit_exponential([(row.r, row.S) for row in rows], fit_window)
    except ValueError as exc:
        warnings.append(f"exponential fit skipped: {exc}")

    return GrowthReport(rows, verdicts, fit, fit_window, warnings,
                        df_g.overshoot)
