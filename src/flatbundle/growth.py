"""Lengths, distances, geodesic balls, volumes, the metric-comparison
inequality chain, and exponential-growth fitting.

Discrete geodesics are shortest paths on the parameter grid with a
32-direction stencil (axis, diagonal, knight and (3,1)/(3,2) moves).  Every
strict inequality is asserted with the stencil's worst-case directional
overshoot subtracted as an error budget.  That overshoot is exact in every
dimension: 1/inradius - 1 of the convex hull of the unit stencil
directions.

An edge weight is the metric length of the edge at its midpoint.  Every
edge midpoint lies on the 2x-refined half-lattice of the grid, so the
metrics are evaluated once on the half-lattice points off the nodes, in
blocks of ``fundamental.BLOCK`` points (so each batch is a single kernel
block), and each edge indexes its weight out of that one evaluation.  A
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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate, sparse, spatial
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
    1/inradius - 1 of that hull, with equality along its nearest facet."""
    dirs = offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
    hull = spatial.ConvexHull(np.concatenate([dirs, -dirs]))
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


def _stencil_graph(grid):
    """The stencil's CSR structure and its edge midpoints on the half-lattice.

    The half-lattice is the 2x-refined grid: node k sits at refined index
    2k, and the midpoint of the edge k -> k + o at 2k + o (wrapped mod 2r
    on a periodic axis of resolution r).  Offsets are primitive, so no
    midpoint is a node, and every refined point off the nodes is the
    midpoint of some edge.

    Returns (indptr, indices, valid, rows, mids, offsets): mids (m, n)
    holds the chart coordinates of the refined points off the nodes, and
    column s of the (nodes, K) tables is offsets[s] from every node: valid
    marks the edges on the grid, rows their midpoints in mids.  Each edge
    is stored once, from its source, and the int32 indices are node-major:
    no sort.
    """
    shape = grid.shape
    ndim = grid.ndim
    if any(per and r <= 2 * _OFFSET_RANGE
           for r, per in zip(shape, grid.periodic)):
        # two offsets would wrap onto one node pair, or an edge onto a loop
        raise ValueError(f"the stencil needs at least {2 * _OFFSET_RANGE + 1}"
                         " grid points on a periodic axis")
    half_shape = tuple(2 * r if per else 2 * r - 1
                       for r, per in zip(shape, grid.periodic))
    hidx = np.indices(half_shape, dtype=np.int32).reshape(ndim, -1)
    off_node = np.any(hidx % 2 == 1, axis=0)
    mids = np.stack([ax[0] + 0.5 * h * i for ax, h, i
                     in zip(grid.axes, grid.spacing, hidx[:, off_node])],
                    axis=-1)
    row = np.cumsum(off_node, dtype=np.int32) - 1     # at the nodes: unused

    node = np.indices(shape, dtype=np.int32).reshape(ndim, -1)
    size = np.array(shape)[:, None]
    per = np.array(grid.periodic)[:, None]
    # clipped indices only land on edges that leave the grid
    modes = ["wrap" if p else "clip" for p in grid.periodic]
    offsets = stencil_offsets(ndim)
    dst = np.empty((node.shape[1], len(offsets)), dtype=np.int32)
    rows = np.empty_like(dst)
    valid = np.empty(dst.shape, dtype=bool)
    for s, o in enumerate(offsets):
        to = node + o[:, None]          # its midpoint is at 2 node + o
        valid[:, s] = np.all(per | ((to >= 0) & (to < size)), axis=0)
        dst[:, s] = np.ravel_multi_index(to, shape, mode=modes)
        rows[:, s] = row[np.ravel_multi_index(to + node, half_shape,
                                              mode=modes)]
    indptr = np.zeros(len(dst) + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(valid, axis=1), out=indptr[1:])
    return indptr, dst[valid], valid, rows, mids, offsets


def distance_fields(grid, metrics_fn, anchor_index):
    """Dijkstra distance fields for several metrics sharing one grid graph.

    metrics_fn : callable(points (m, n)) -> dict label -> (m, n, n),
                 evaluated once per block of at most BLOCK edge midpoints
    """
    indptr, indices, valid, rows, mids, offsets = _stencil_graph(grid)
    overshoot = stencil_overshoot(offsets)
    metrics = {}          # filled in place: no second copy of the metrics
    for s in range(0, len(mids), BLOCK):
        for label, g in metrics_fn(mids[s:s + BLOCK]).items():
            if label not in metrics:
                metrics[label] = np.empty((len(mids),) + g.shape[1:])
            metrics[label][s:s + len(g)] = g
    del mids
    a = int(np.ravel_multi_index(anchor_index, grid.shape))
    fields = {}
    for label in list(metrics):
        G = metrics.pop(label)
        w = np.empty(valid.shape)
        for s, o in enumerate(offsets):
            w[:, s] = _quadratic_form(G[rows[:, s]], o * grid.spacing)
        del G
        np.sqrt(w, out=w)
        graph = sparse.csr_matrix((w[valid], indices, indptr),
                                  shape=(len(valid),) * 2)
        del w
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
    curvature c (numerical quadrature of the area of distance spheres).
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
    sn = math.sinh if c < 0 else math.sin
    try:
        vol = area * integrate.quad(
            lambda t: (sn(a * t) / a) ** (n - 1), 0.0, r)[0]
    except OverflowError:      # sinh beyond the float range
        vol = math.inf
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
    radii = sorted(float(r) for r in radii)
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
