"""Lengths, distances, geodesic balls, volumes, the metric-comparison
inequality chain, and exponential-growth fitting.

Discrete geodesics are shortest paths on the parameter grid with a
32-direction stencil (axis, diagonal, knight and (3,1)/(3,2) moves).  Every
strict inequality is asserted with the stencil's worst-case directional
overshoot subtracted as an error budget.  In 2-D that overshoot is exact
(from the widest angular gap between stencil directions); in 3-D it is the
maximum over 8192 sampled directions, an estimate rather than a bound.

An edge weight is the metric length of the edge at its midpoint.  Every
edge midpoint lies on the 2x-refined half-lattice of the grid, so the
fundamental data is evaluated once on the half-lattice points off the
nodes (in chunks of MIDPOINT_CHUNK points), and both the induced metric g
and the comparison metric g0 = C g + III are indexed out of that one
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, sparse
from scipy.sparse.csgraph import dijkstra

from .errors import ConfigError, DomainError, HypothesisViolation
from .fields import make_grid
from .fundamental import fundamental_batch
from .principal import DEFAULT_SEED, comparison_metric

DEFAULT_RESOLUTION = 257
_OFFSET_RANGE = 3
_OFFSET_MAX_SQ = 13          # admits (3,2) but not (3,3)
MIDPOINT_CHUNK = 65536       # edge midpoints per fundamental batch (bounds
                             # the memory of the full per-point batch)


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
    """Worst relative excess of the best stencil direction over a straight
    segment: max over unit directions of sec(angle to nearest offset) - 1."""
    dirs = offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
    ndim = offsets.shape[1]
    if ndim == 2:
        ang = np.sort(np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), np.pi))
        ang = np.concatenate([ang, [ang[0] + np.pi]])
        half_gap = 0.5 * np.max(np.diff(ang))
        return 1.0 / math.cos(half_gap) - 1.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal((8192, ndim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    best = np.max(np.abs(v @ dirs.T), axis=1)
    return float(np.max(1.0 / best) - 1.0)


# ---------------------------------------------------------------------------
# distance fields

@dataclass
class DistanceField:
    """Shortest-path distances from one anchor node over a metric grid."""

    grid: object
    anchor_index: tuple
    d: np.ndarray                  # grid-shaped distances
    predecessors: np.ndarray       # flat node index of the previous hop
    metric_label: str
    overshoot: float               # documented stencil error (relative)

    def path_max(self, values):
        """Running max of a node field along every shortest path.

        Returns, per node y, max of ``values`` over the discrete geodesic
        from the anchor to y (the paper's path quantity \\hat S)."""
        flat_d = self.d.ravel()
        flat_v = np.asarray(values, dtype=float).ravel().copy()
        order = np.argsort(flat_d)
        pred = self.predecessors
        for node in order:
            p = pred[node]
            if p >= 0:
                flat_v[node] = max(flat_v[node], flat_v[p])
        return flat_v.reshape(self.d.shape)


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
    """Stencil edges of the grid and their midpoints on the half-lattice.

    The half-lattice is the 2x-refined grid: node k sits at refined index
    2k, and the midpoint of the edge k -> k + o at 2k + o (wrapped mod 2r
    on a periodic axis of resolution r).  Offsets are primitive, so no
    midpoint is a node, and every refined point off the nodes is the
    midpoint of some edge.

    Returns (edges, mids): mids (m, n) holds the chart coordinates of the
    refined points off the nodes, and edges is a list of per-offset
    (src, dst, row, disp) with row the index in mids of each edge's
    midpoint.
    """
    shape = grid.shape
    ndim = grid.ndim
    half_shape = tuple(2 * r if per else 2 * r - 1
                       for r, per in zip(shape, grid.periodic))
    off_node = np.zeros(half_shape, dtype=bool)
    for k, size in enumerate(half_shape):
        odd = np.arange(size) % 2 == 1
        off_node |= odd.reshape((-1,) + (1,) * (ndim - 1 - k))
    hidx = np.nonzero(off_node)
    mids = np.stack([ax[0] + 0.5 * h * i for ax, h, i
                     in zip(grid.axes, grid.spacing, hidx)], axis=-1)
    row = np.full(half_shape, -1, dtype=np.intp)
    row[hidx] = np.arange(len(mids))

    node = np.indices(shape).reshape(ndim, -1)      # flat node order
    edges = []
    for o in stencil_offsets(ndim):
        dst = node + o[:, None]
        half = 2 * node + o[:, None]
        valid = np.ones(node.shape[1], dtype=bool)
        for k in range(ndim):
            if grid.periodic[k]:
                dst[k] %= shape[k]
                half[k] %= half_shape[k]
            else:
                valid &= (dst[k] >= 0) & (dst[k] < shape[k])
        src = np.flatnonzero(valid)
        dst_flat = np.ravel_multi_index(tuple(dst[:, valid]), shape)
        edges.append((src, dst_flat, row[tuple(half[:, valid])],
                      o * grid.spacing))
    return edges, mids


def distance_fields(grid, metrics_fn, anchor_index, overshoot=None):
    """Dijkstra distance fields for several metrics sharing one grid graph.

    metrics_fn : callable(points (m, n)) -> dict label -> (m, n, n),
                 evaluated once per chunk of edge midpoints
    """
    edges, mids = _stencil_graph(grid)
    if overshoot is None:
        overshoot = stencil_overshoot(stencil_offsets(grid.ndim))
    metrics = {}          # filled in place: no second copy of the metrics
    for s in range(0, len(mids), MIDPOINT_CHUNK):
        for label, g in metrics_fn(mids[s:s + MIDPOINT_CHUNK]).items():
            if label not in metrics:
                metrics[label] = np.empty((len(mids),) + g.shape[1:])
            metrics[label][s:s + len(g)] = g
    n_nodes = int(np.prod(grid.shape))
    src = np.concatenate([e[0] for e in edges])
    dst = np.concatenate([e[1] for e in edges])
    a = int(np.ravel_multi_index(anchor_index, grid.shape))
    fields = {}
    for label, G in metrics.items():
        w = np.concatenate([
            np.sqrt(np.einsum("i,...ij,j->...", disp, G[row], disp))
            for _, _, row, disp in edges])
        graph = sparse.coo_matrix((w, (src, dst)), shape=(n_nodes, n_nodes))
        d, pred = dijkstra(graph.tocsr(), directed=False, indices=a,
                           return_predecessors=True)
        fields[label] = DistanceField(grid, tuple(anchor_index),
                                      d.reshape(grid.shape), pred, label,
                                      overshoot)
    return fields


def distance_field(grid, metric_fn, anchor_index, label="g"):
    return distance_fields(grid, lambda U: {label: metric_fn(U)},
                           anchor_index)[label]


def induced_metric_fn(chart, engine=None):
    def fn(U):
        return fundamental_batch(chart, U, engine=engine,
                                 interior_check=False).g
    return fn


def _metric_pair(fb, C, exploratory=False):
    """Induced metric g and comparison metric g0 = C g + III of one batch."""
    return {"g": fb.g,
            "g0": comparison_metric(fb, C=C, exploratory=exploratory).g0}


# ---------------------------------------------------------------------------
# curve lengths

def _polyline_samples(chart, polyline, engine, samples_per_segment):
    """Composite-midpoint samples (segments, samples, n) of a chart
    polyline and the chart step (segments, n) that each sample stands for."""
    P = np.asarray(polyline, dtype=float)
    if P.ndim != 2 or P.shape[0] < 2:
        raise ValueError("polyline needs at least two chart points")
    if not np.all(chart.contains(P, engine)):
        bad = np.argwhere(~chart.contains(P, engine))[0, 0]
        raise DomainError(
            f"polyline vertex {bad} leaves the domain of {chart.name}")
    t = (np.arange(samples_per_segment) + 0.5) / samples_per_segment
    A, B = P[:-1], P[1:]
    mids = A[:, None, :] + t[None, :, None] * (B - A)[:, None, :]
    return mids, (B - A) / samples_per_segment


def _polyline_length(seg, gm):
    """Sum of metric step lengths; gm holds the metric at every sample."""
    return float(np.sum(np.sqrt(np.einsum("si,smij,sj->sm", seg, gm, seg))))


def curve_length(chart, polyline, metric="g", C=None, engine=None,
                 samples_per_segment=64, exploratory=False):
    """Composite midpoint length of a chart polyline, plus the path max of
    the squared second-fundamental-form norm (the paper's \\hat S).

    metric is "g" (induced) or "g0" (comparison).
    """
    mids, seg = _polyline_samples(chart, polyline, engine,
                                  samples_per_segment)
    fb = fundamental_batch(chart, mids, engine=engine, interior_check=False)
    if metric == "g":
        gm = fb.g
    elif metric == "g0":
        gm = comparison_metric(fb, C=C, exploratory=exploratory).g0
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return _polyline_length(seg, gm), float(np.max(fb.sff_sq))


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
    truncated = False
    for k in range(df.grid.ndim):
        if df.grid.periodic[k]:
            continue
        sl = [slice(None)] * df.grid.ndim
        for edge in (0, -1):
            sl[k] = edge
            truncated |= bool(np.any(mask[tuple(sl)]))
    return vol, truncated


def unit_ball_volume(n):
    """Volume of the Euclidean unit n-ball, pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def reference_ball_volume(c, n, r):
    """Geodesic ball volume in the simply connected space form of
    curvature c (numerical quadrature of the area of distance spheres)."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    if r == 0:
        return 0.0
    area = n * unit_ball_volume(n)        # unit (n-1)-sphere area
    if c == 0:
        return unit_ball_volume(n) * r ** n
    a = math.sqrt(abs(c))
    if c > 0 and r > math.pi / a:
        raise ValueError("radius exceeds the diameter of the sphere")
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
    rows = [(float(r), float(v)) for r, v in rows]
    rs = np.array([r for r, _ in rows])
    if np.any(np.diff(rs) <= 0):
        raise ValueError("radii must be strictly increasing")
    if window is not None:
        keep = (rs >= window[0]) & (rs <= window[1])
        rows = [rv for rv, k in zip(rows, keep) if k]
    if len(rows) < 4:
        raise ValueError("need at least 4 rows in the fit window")
    r = np.array([x for x, _ in rows])
    v = np.array([y for _, y in rows])
    if np.any(v <= 0):
        raise ValueError("fit values must be positive in the window")
    ell, logk = np.polyfit(r, np.log(v), 1)
    resid = np.log(v) - (ell * r + logk)
    ss_tot = float(np.sum((np.log(v) - np.mean(np.log(v))) ** 2))
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


def check_length_inequality(chart, C=None, engine=None, n_curves=20,
                            rng_seed=DEFAULT_SEED, samples_per_segment=64):
    """Strict length comparison on random polylines: the comparison-metric
    length must stay below sqrt(path max |alpha|^2 + C) times the induced
    length."""
    if C is None:
        C = chart.C
    if C is None or C <= 0:
        raise HypothesisViolation("length comparison needs C > 0")
    rng = np.random.default_rng(rng_seed)
    box = np.array(chart.usable_domain(engine))
    lhs, rhs = [], []
    quad_err = 0.0
    for _ in range(n_curves):
        P = box[:, 0] + rng.random((4, chart.n)) * (box[:, 1] - box[:, 0])
        mids, seg = _polyline_samples(chart, P, engine, samples_per_segment)
        fb = fundamental_batch(chart, mids, engine=engine,
                               interior_check=False)
        metrics = _metric_pair(fb, C)
        Lg = _polyline_length(seg, metrics["g"])
        L0 = _polyline_length(seg, metrics["g0"])
        s_hat = float(np.max(fb.sff_sq))
        L0c, _ = curve_length(chart, P, "g0", C=C, engine=engine,
                              samples_per_segment=2 * samples_per_segment)
        quad_err = max(quad_err, abs(L0 - L0c) / max(L0, 1e-300))
        lhs.append(L0)
        rhs.append(math.sqrt(s_hat + C) * Lg)
    return _strict_verdict("length_comparison", lhs, rhs,
                           max(3.0 * quad_err, 1e-12),
                           notes=f"{n_curves} random polylines")


def check_distance_inequality(df_g, df_g0, sff_sq, C):
    """Strict distance comparison at every grid node against the anchor."""
    s_path = df_g.path_max(sff_sq)
    rhs = np.sqrt(s_path + C) * df_g.d
    away = np.ones(df_g.d.shape, dtype=bool)
    away[df_g.anchor_index] = False       # the anchor itself is vacuous
    budget = df_g.overshoot + df_g0.overshoot
    return _strict_verdict("distance_comparison", df_g0.d[away], rhs[away],
                           budget, notes=f"{int(np.sum(away))} grid nodes")


def check_ball_containment(df_g, df_g0, sff_sq, C, r):
    """Every node of the induced-metric ball D_r must lie strictly inside
    the comparison-metric ball of radius psi(r) = r sqrt(S(r) + C).

    A ball holding only the anchor compares nothing: indeterminate."""
    S = ball_max_sff(df_g, sff_sq, r)
    psi = r * math.sqrt(S + C)
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

@dataclass
class GrowthRow:
    r: float
    S: float
    psi: float
    vol: float
    bound: float
    ref_vol: float
    truncated: bool = False


@dataclass
class GrowthReport:
    """Per-radius growth table plus the bound-chain verdicts and the fit.

    The exponential fit is reported, never asserted: a finite patch cannot
    witness the exponential-growth conclusion, only the inequality chain.
    """

    chart_name: str
    x0: np.ndarray
    C: float
    rows: list
    verdicts: list                 # ChainVerdict items
    fit: tuple                     # (k, ell, r_squared) for S(r), or None
    fit_window: object
    warnings: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    CSV_HEADER = "r,S,psi,vol,bound,ref_vol"

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(
                "%.17g" % v for v in (row.r, row.S, row.psi, row.vol,
                                      row.bound, row.ref_vol)))
        return "\n".join(lines) + "\n"

    @property
    def chain_holds(self):
        return all(v.verdict == "pass" for v in self.verdicts)


def default_fit_window(radii):
    """Skip the smallest 20% of radii (the asymptotic regime is existential)."""
    radii = sorted(radii)
    lo = radii[int(math.ceil(0.2 * len(radii)))] if len(radii) > 1 else radii[0]
    return (lo, radii[-1])


def growth_report(chart, x0, radii, window=None, resolution=None, C=None,
                  engine=None, seed=DEFAULT_SEED, exploratory=False,
                  n_test_curves=20):
    """Assemble the full growth table and inequality-chain verdicts.

    Requires the theorem hypotheses C > 0 and flat normal bundle; violations
    raise :class:`HypothesisViolation` (C = 0 is admitted in exploratory
    mode with the bound column left undefined).
    """
    from . import engines as _eng
    engine = engine or chart.engine
    if C is None:
        C = chart.C
    if C is None:
        raise HypothesisViolation(
            f"{chart.name}: intrinsic curvature unasserted, no curvature gap")
    if C < 0 or (C == 0 and not exploratory):
        raise HypothesisViolation(
            f"{chart.name}: curvature gap C = {C:g} violates C > 0"
            + ("" if C < 0 else " (pass exploratory=True for C = 0)"))
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("radii must be positive")
    # before the grid work, so that an overflowing radius fails at once
    refs = [reference_ball_volume(chart.c, chart.n, r)
            if chart.c is not None else math.nan for r in radii]

    if resolution is None:
        resolution = DEFAULT_RESOLUTION if chart.n == 2 else 65
    grid = make_grid(chart, resolution, engine=engine)
    fb = fundamental_batch(chart, grid.points, engine=engine,
                           interior_check=False)
    flat_res = float(np.max(fb.flatness_residual()))
    flat_tol = 10.0 * _eng.DEFAULT_TOL[engine]
    if flat_res > flat_tol:
        raise HypothesisViolation(
            f"{chart.name}: normal bundle not flat "
            f"(residual {flat_res:.3e} > {flat_tol:.1e})")

    sff_sq = fb.sff_sq
    sqrt_det_g = np.sqrt(np.linalg.det(fb.g))
    anchor = nearest_node(grid, x0)

    def metrics_fn(U):
        fb = fundamental_batch(chart, U, engine=engine, interior_check=False)
        return _metric_pair(fb, C, exploratory)

    dfs = distance_fields(grid, metrics_fn, anchor)
    df_g, df_g0 = dfs["g"], dfs["g0"]

    warnings = []
    n = chart.n
    omega = unit_ball_volume(n)
    rows = []
    verdicts = []
    if C > 0:
        verdicts.append(check_length_inequality(
            chart, C=C, engine=engine, n_curves=n_test_curves, rng_seed=seed))
        verdicts.append(check_distance_inequality(df_g, df_g0, sff_sq, C))
    else:
        verdicts.append(ChainVerdict("length_comparison", "skip", math.nan,
                                     math.nan, "C = 0 (exploratory)"))
        verdicts.append(ChainVerdict("distance_comparison", "skip", math.nan,
                                     math.nan, "C = 0 (exploratory)"))

    budget_vol = 2.0 * df_g.overshoot
    for r, ref in zip(radii, refs):
        S = ball_max_sff(df_g, sff_sq, r)
        psi = r * math.sqrt(S + C)
        vol, truncated = ball_volume(df_g, sqrt_det_g, r)
        if truncated:
            warnings.append(
                f"ball r={r:g} touches the domain boundary; its volume is a "
                "lower bound only")
        bound = (r ** n * (1.0 + S / C) ** (n / 2.0) * omega
                 if C > 0 else math.nan)
        rows.append(GrowthRow(r, S, psi, vol, bound, ref, truncated))
        if C > 0:
            verdicts.append(
                check_ball_containment(df_g, df_g0, sff_sq, C, r))
            verdicts.append(_strict_verdict(
                f"volume_bound(r={r:g})", [vol], [bound], budget_vol,
                notes="truncated ball (lower bound)" if truncated else ""))

    fit = None
    fit_window = window or default_fit_window(radii)
    try:
        fit = fit_exponential([(row.r, row.S) for row in rows], fit_window)
    except ValueError as exc:
        warnings.append(f"exponential fit skipped: {exc}")

    meta = dict(engine=engine, seed=seed, resolution=resolution,
                anchor=tuple(anchor), C=C,
                stencil_overshoot=df_g.overshoot,
                flatness_residual=flat_res,
                cell_volume=grid.cell_volume())
    return GrowthReport(chart.name, np.asarray(x0, dtype=float), C, rows,
                        verdicts, fit, fit_window, warnings, meta)
