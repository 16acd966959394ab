"""Distances, balls, volumes, the inequality chain and the exponential fit,
checked against flat and hyperbolic closed forms."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import integrate, sparse
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import ConvexHull

from flatbundle import catalog, growth
from flatbundle.errors import (ConfigError, DomainError,
                               HypothesisViolation)
from flatbundle.fields import make_grid
from flatbundle.fundamental import fundamental_batch
from flatbundle.growth import (DistanceField, _stencil_graph,
                               _strict_verdict, ball_max_sff, ball_volume,
                               check_ball_containment,
                               check_distance_inequality,
                               check_length_inequality, curve_length,
                               distance_fields, fit_exponential,
                               growth_report, nearest_node,
                               reference_ball_volume, stencil_offsets,
                               stencil_overshoot, unit_ball_volume)
from flatbundle.principal import comparison_metric


# ---------------------------------------------------------------------------
# stencil geometry

def test_stencil_offsets_2d():
    offs = stencil_offsets(2)
    assert len(offs) == 16                   # one per antipodal pair
    for o in offs:
        assert np.max(np.abs(o)) <= 3
        assert o @ o <= 13
        assert np.gcd.reduce(np.abs(o)[np.abs(o) > 0]) == 1
    # no antipodal duplicates
    keys = {tuple(o) for o in offs}
    assert not any(tuple(-np.asarray(k)) in keys for k in keys)


def test_stencil_overshoot_2d():
    over = stencil_overshoot(stencil_offsets(2))
    # sec of half the largest angular gap between stencil directions
    assert over == pytest.approx(0.0131, abs=5e-4)
    assert over < 0.02
    assert over == 0.013081457233190097       # the growth outputs' budget


def test_stencil_overshoot_3d():
    offs = stencil_offsets(3)
    over = stencil_overshoot(offs)
    assert 0.0 < over < 0.15


@pytest.mark.parametrize("ndim", [2, 3, 4])
def test_stencil_overshoot_table_is_the_hull_value(ndim):
    """The tabulated overshoot of n = 2 and 3 is ConvexHull's value bit for
    bit; n = 4, and a stencil other than the tabulated one, are computed
    from the hull."""
    offs = stencil_offsets(ndim)
    dirs = offs / np.linalg.norm(offs, axis=1, keepdims=True)
    hull = ConvexHull(np.concatenate([dirs, -dirs]))
    want = float(1.0 / np.min(-hull.equations[:, -1]) - 1.0)
    assert stencil_overshoot(offs) == want
    sub = offs[:-1]                 # one direction fewer: a wider gap
    dirs = sub / np.linalg.norm(sub, axis=1, keepdims=True)
    hull = ConvexHull(np.concatenate([dirs, -dirs]))
    assert stencil_overshoot(sub) == \
        float(1.0 / np.min(-hull.equations[:, -1]) - 1.0) >= want


@pytest.mark.parametrize("ndim", [2, 3])
def test_stencil_overshoot_bounds_every_hull_facet(ndim):
    """Along a facet normal v of the hull of the +-unit stencil directions
    the shortest stencil path has length 1/max_k |v . d_k|; the overshoot
    must cover every such direction (8192 sampled directions in 3-D
    missed the worst one)."""
    offs = stencil_offsets(ndim)
    dirs = offs / np.linalg.norm(offs, axis=1, keepdims=True)
    normals = ConvexHull(np.concatenate([dirs, -dirs])).equations[:, :-1]
    excess = 1.0 / np.max(np.abs(normals @ dirs.T), axis=1) - 1.0
    over = stencil_overshoot(offs)
    assert np.max(excess) <= over * (1.0 + 1e-12)
    assert np.max(excess) >= over * (1.0 - 1e-12)   # attained: exact


# ---------------------------------------------------------------------------
# flat-plane oracles

def _induced_distance(chart, grid, anchor):
    """Distance field of the chart's induced metric g from the anchor."""
    return distance_fields(
        grid, lambda U: {"g": fundamental_batch(chart, U).g}, anchor)["g"]


@pytest.fixture(scope="module")
def plane_df():
    chart = catalog.get("plane_r3").chart
    grid = make_grid(chart, 161)
    anchor = nearest_node(grid, (0.0, 0.0))
    return grid, _induced_distance(chart, grid, anchor)


def _path_max_by_node_loop(df, values):
    """Oracle: relax each node from its predecessor in distance order."""
    v = np.asarray(values, dtype=float).ravel().copy()
    for node in np.argsort(df.d.ravel()):
        p = df.predecessors[node]
        if p >= 0:
            v[node] = max(v[node], v[p])
    return v.reshape(df.d.shape)


def test_path_max_matches_the_node_loop(plane_df):
    grid, df = plane_df
    values = np.random.default_rng(5).random(grid.shape)
    assert np.array_equal(df.path_max(values),
                          _path_max_by_node_loop(df, values))


def test_path_max_on_a_forest_with_unreachable_nodes():
    # anchor 0 with the path 0-1-2-3 and the branch 1-4-5; nodes 6 and 7
    # are unreachable (scipy's -9999 predecessor, infinite distance), and
    # so is 8, hung below 6
    pred = np.array([-9999, 0, 1, 2, 1, 4, -9999, -9999, 6])
    d = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 3.0, np.inf, np.inf, np.inf])
    values = np.array([1.0, 0.5, 4.0, 2.0, 3.0, 0.0, 7.0, 1.0, 6.0])
    df = DistanceField(None, (0,), d, pred, 0.0)
    want = np.array([1.0, 1.0, 4.0, 4.0, 3.0, 3.0, 7.0, 1.0, 7.0])
    assert np.array_equal(df.path_max(values), want)
    assert np.array_equal(_path_max_by_node_loop(df, values), want)
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.standard_normal(d.shape)
        assert np.array_equal(df.path_max(values),
                              _path_max_by_node_loop(df, values))


def test_plane_distances_match_euclidean(plane_df):
    grid, df = plane_df
    exact = np.linalg.norm(grid.points, axis=-1)
    mask = exact > 0.1
    rel = (df.d[mask] - exact[mask]) / exact[mask]
    assert np.min(rel) > -1e-9               # graph paths never undershoot
    assert np.max(rel) <= df.overshoot + 1e-9


def test_plane_ball_volume(plane_df):
    grid, df = plane_df
    r = 1.5
    vol, truncated = ball_volume(df, np.ones(grid.shape), r)
    assert not truncated
    assert vol == pytest.approx(math.pi * r * r, rel=0.02)
    _, truncated = ball_volume(df, np.ones(grid.shape), 5.0)
    assert truncated                         # ball spills past the domain


def test_path_max_dominates_field(plane_df):
    grid, df = plane_df
    field = grid.points[..., 0]
    pm = df.path_max(field)
    assert np.all(pm >= field - 1e-15)
    assert float(pm[df.anchor_index]) == pytest.approx(
        float(field[df.anchor_index]))
    # far on the negative-x side the path must have crossed larger x
    assert float(pm[0, 80]) > float(field[0, 80])


def test_nearest_node_wraps_periodic_axes(clifford):
    """An x0 beyond a periodic axis's range snaps to the node nearest its
    wrapped image, not to the edge node."""
    grid = make_grid(clifford.chart, 65)
    assert grid.periodic == (True, True)
    assert nearest_node(grid, (10.0, 3.0)) == (38, 31)
    assert nearest_node(grid, (10.0 - 2.0 * math.pi, 3.0)) == (38, 31)
    assert nearest_node(grid, (-2.0 * math.pi, 3.0 + 4.0 * math.pi)) \
        == (0, 31)


def test_nearest_node_just_below_the_period_is_node_zero(clifford,
                                                         pseudosphere):
    grid = make_grid(clifford.chart, 65)
    lo = grid.axes[0][0]
    period = 65 * grid.spacing[0]
    below = lo + period - 0.1 * grid.spacing[0]
    assert nearest_node(grid, (below, below)) == (0, 0)
    # a non-periodic axis still clamps to its edge node
    ps = make_grid(pseudosphere.chart, 33)
    assert ps.periodic == (False, True)
    assert nearest_node(ps, (ps.axes[0][-1] + 5.0, 0.0)) == (32, 0)


def test_curve_length_constant_metric():
    chart = catalog.get("plane_r3").chart
    P = np.array([[0.0, 0.0], [1.0, 1.0], [1.5, -0.5]])
    L, s_hat = curve_length(chart, P)
    assert L == pytest.approx(math.sqrt(2.0) + math.sqrt(0.25 + 2.25),
                              rel=1e-12)
    assert s_hat == 0.0
    with pytest.raises(DomainError):
        curve_length(chart, np.array([[0.0, 0.0], [5.0, 0.0]]))
    with pytest.raises(ValueError):
        curve_length(chart, np.array([[0.0, 0.0]]))


def test_curve_length_keeps_the_fd_stencil_in_the_domain(pseudosphere):
    """A vertex inside the declared domain but within the FD stencil's
    reach of its edge used to be measured: the map was evaluated outside
    the domain (on the sine-Gordon chart, on an extrapolated spline)."""
    fd = dataclasses.replace(pseudosphere.chart, engine="fd")
    with pytest.raises(DomainError, match=r"vertex 0 at \[0.3005, 1.0\]"):
        curve_length(fd, np.array([[0.3005, 1.0], [1.0, 1.0]]))
    sg = catalog.get("sine_gordon_surface").chart
    with pytest.raises(DomainError, match="vertex 1"):
        curve_length(sg, np.array([[-1.0, -1.0], [-1.6, -1.6]]))
    lo = fd.usable_domain()[0][0]
    L, _ = curve_length(fd, np.array([[lo, 1.0], [1.0, 1.0]]))
    assert L > 0


# ---------------------------------------------------------------------------
# half-lattice edge weights against the per-offset reference

def _per_offset_edges(grid):
    """Reference stencil edges: per offset, the (src, dst) node pairs that
    stay on the grid, their midpoints U + o h / 2 and the displacement."""
    shape = grid.shape
    U = grid.points
    idx = np.indices(shape)
    edges = []
    for o in stencil_offsets(grid.ndim):
        valid = np.ones(shape, dtype=bool)
        dst = []
        for k in range(grid.ndim):
            t = idx[k] + o[k]
            if grid.periodic[k]:
                t = t % shape[k]
            else:
                valid &= (t >= 0) & (t < shape[k])
                t = np.clip(t, 0, shape[k] - 1)
            dst.append(t)
        src_flat = np.ravel_multi_index(tuple(idx), shape)[valid]
        dst_flat = np.ravel_multi_index(tuple(dst), shape)[valid]
        disp = o * grid.spacing
        edges.append((src_flat, dst_flat, U[valid] + 0.5 * disp, disp))
    return edges


def _per_offset_distances(grid, metric_fns, anchor_index):
    """Reference: one metric evaluation per stencil offset at the edge
    midpoints, one COO graph, as the distance fields were first computed."""
    shape = grid.shape
    n_nodes = int(np.prod(shape))
    edges = _per_offset_edges(grid)
    src = np.concatenate([e[0] for e in edges])
    dst = np.concatenate([e[1] for e in edges])
    a = int(np.ravel_multi_index(anchor_index, shape))
    out = {}
    for label, fn in metric_fns.items():
        w = np.concatenate([
            np.sqrt(np.einsum("i,...ij,j->...", disp, fn(mid), disp))
            for _, _, mid, disp in edges])
        graph = sparse.coo_matrix((w, (src, dst)), shape=(n_nodes, n_nodes))
        out[label] = dijkstra(graph.tocsr(), directed=False,
                              indices=a).reshape(shape)
    return out


def _csr_rows(indptr):
    """Row of every stored entry of a CSR structure."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


@pytest.mark.parametrize("name, resolution, x0, with_g0", [
    ("pseudosphere", 65, (0.88, 3.14), True),        # one periodic axis
    ("clifford_torus_s3", 33, (1.0, 2.0), False),    # both axes periodic
    ("dini", 33, (3.1, 0.75), False),                # no periodic axis
    ("ps3", 17, (1.0, 1.0, 0.0), False),             # n = 3, 85 offsets
])
def test_half_lattice_matches_per_offset(name, resolution, x0, with_g0):
    chart = catalog.get(name).chart
    grid = make_grid(chart, resolution)
    anchor = nearest_node(grid, x0)

    def g(U):
        return fundamental_batch(chart, U).g

    def g0(U):
        fb = fundamental_batch(chart, U)
        return comparison_metric(fb)

    def both(U):
        fb = fundamental_batch(chart, U)
        out = {"g": fb.g}
        if with_g0:
            out["g0"] = comparison_metric(fb)
        return out

    ref = _per_offset_distances(
        grid, {"g": g, "g0": g0} if with_g0 else {"g": g}, anchor)
    got = distance_fields(grid, both, anchor)
    assert set(got) == set(ref)
    for label, d in ref.items():
        assert np.all(np.isfinite(d))
        np.testing.assert_allclose(got[label].d, d, rtol=1e-12, atol=0.0)

    # the CSR read off the (nodes, K) tables holds the node pairs of the
    # COO -> CSR conversion of the per-offset edges, each pair once
    edges = _per_offset_edges(grid)
    n_nodes = int(np.prod(grid.shape))
    src = np.concatenate([e[0] for e in edges])
    dst = np.concatenate([e[1] for e in edges])
    ref = sparse.coo_matrix((np.ones(len(src)), (src, dst)),
                            shape=(n_nodes, n_nodes)).tocsr()
    indptr, indices, valid, rows, mids, _ = _stencil_graph(grid)
    assert len(indptr) == n_nodes + 1 and indptr[0] == 0
    assert len(indices) == indptr[-1] == np.count_nonzero(valid) == ref.nnz
    pairs = np.int64(n_nodes) * _csr_rows(indptr) + indices
    assert len(np.unique(pairs)) == len(pairs)
    assert np.array_equal(np.sort(pairs), np.sort(
        np.int64(n_nodes) * _csr_rows(ref.indptr) + ref.indices))

    half_shape = [2 * r if per else 2 * r - 1
                  for r, per in zip(grid.shape, grid.periodic)]
    assert len(mids) == np.prod(half_shape) - n_nodes
    assert valid.shape == rows.shape == (n_nodes, len(edges))
    assert rows.dtype == indices.dtype == indptr.dtype == np.int32
    assert np.array_equal(np.unique(rows[valid]), np.arange(len(mids)))
    # every valid edge's midpoint row holds U + o h / 2, up to a period
    per = np.array(grid.periodic)
    period = np.where(per, np.array(grid.shape) * grid.spacing, 1.0)
    for s, (src, _, mid, _) in enumerate(edges):
        diff = mids[rows[src, s]] - mid
        diff -= per * period * np.round(diff / period)
        np.testing.assert_allclose(diff, 0.0, rtol=0.0, atol=1e-12)


def test_distance_fields_memory_budget(pseudosphere):
    """The tracemalloc peak of distance_fields at 129^2 stays within the
    arrays it holds: both labels' midpoint metric arrays, the int32
    midpoint-row table, the valid mask, the int32 CSR indices, the float
    (nodes, K) weight table and the CSR data, plus 1 MiB for one block's
    output (0.25 MiB a label) or the per-offset gather.  Not all of them
    are live at once: the peak is 9.2 MiB against a bound of 10.3 MiB.
    The metrics are the pseudosphere's g in closed form (and 2 g as the
    second label), so no fundamental batch of one block of BLOCK points
    (7.3 MiB) hides the graph's own arrays.  Per-offset intp edge lists
    (24 bytes an edge, 5.8 MiB here) or a COO -> CSR sort break the
    bound: built that way, the graph peaked at 21 MiB.
    """
    grid = make_grid(pseudosphere.chart, 129)

    def metrics(U):
        t = np.tanh(U[:, 0])
        g = np.zeros((len(U), 2, 2))
        g[:, 0, 0] = t * t
        g[:, 1, 1] = 1.0 - t * t
        return {"g": g, "g0": 2.0 * g}

    _, indices, valid, rows, mids, _ = _stencil_graph(grid)
    budget = (2 * len(mids) * 4 * 8 + rows.nbytes + valid.nbytes
              + indices.nbytes + valid.size * 8 + len(indices) * 8
              + 2 ** 20)
    del indices, valid, rows, mids
    anchor = nearest_node(grid, (0.88, 3.14))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dfs = distance_fields(grid, metrics, anchor)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(dfs["g0"].d))
    assert peak <= budget, (peak / 2 ** 20, budget / 2 ** 20)


def test_growth_report_releases_the_grid_batch(pseudosphere, monkeypatch):
    """Only |alpha|^2 and the volume density of the grid batch outlive the
    flatness test: the batch is gone before the graph is built."""
    from flatbundle import growth
    grids, seen = [], []
    batch, fields = growth.fundamental_batch, growth.distance_fields

    def kept(chart, U):
        fb = batch(chart, U)
        if U.shape == (33, 33, 2):
            grids.append(weakref.ref(fb))
        return fb

    def checked(*args):
        gc.collect()
        seen.append([ref() is None for ref in grids])
        return fields(*args)

    monkeypatch.setattr(growth, "fundamental_batch", kept)
    monkeypatch.setattr(growth, "distance_fields", checked)
    rep = growth_report(pseudosphere.chart, (0.88, 3.14), (0.3, 0.6),
                        resolution=33)
    assert rep.chain_holds
    assert seen == [[True]]


def test_stencil_needs_seven_points_on_a_periodic_axis(clifford):
    """On a periodic axis of 6 points the offsets (1, 3) and (1, -3) wrap
    onto one node pair, which the shared CSR entry cannot weigh twice."""
    with pytest.raises(ValueError, match="at least 7"):
        _stencil_graph(make_grid(clifford.chart, 6))
    indptr, indices, *_ = _stencil_graph(make_grid(clifford.chart, 7))
    pairs = _csr_rows(indptr) * 49 + indices
    assert len(np.unique(pairs)) == len(pairs)


# ---------------------------------------------------------------------------
# strict verdicts

def test_strict_verdict_nonfinite_lhs_fails():
    for bad in (math.inf, math.nan):
        v = _strict_verdict("x", [0.5, bad], [1.0, 1.0], 1e-12)
        assert v.verdict == "fail"
        assert v.compared == 2
        assert v.margin == -math.inf


def test_strict_verdict_nothing_compared_is_indeterminate():
    for lhs, rhs in (([], []), ([1.0], [0.0]), ([1.0], [math.inf]),
                     ([math.inf], [math.nan])):
        v = _strict_verdict("x", lhs, rhs, 1e-12, notes="note")
        assert v.verdict == "indeterminate"
        assert v.compared == 0
        assert v.summary_line() == "x INDETERMINATE margin=nan " \
            "budget=1.000e-12 note"
    v = _strict_verdict("x", [0.5, 1.0], [1.0, 0.0], 1e-12)
    assert (v.verdict, v.compared, v.margin) == ("pass", 1, 0.5)


def test_chain_verdicts_exclude_the_anchor(pseudosphere):
    chart = pseudosphere.chart
    grid = make_grid(chart, 33)
    fb = fundamental_batch(chart, grid.points)
    anchor = nearest_node(grid, (0.88, 3.14))

    def both(U):
        fb = fundamental_batch(chart, U)
        return {"g": fb.g, "g0": comparison_metric(fb)}

    dfs = distance_fields(grid, both, anchor)
    v = check_distance_inequality(dfs["g"], dfs["g0"], fb.sff_sq, chart)
    assert v.verdict == "pass"
    assert v.compared == grid.points[..., 0].size - 1
    assert v.notes == f"{v.compared} grid nodes"
    tiny = check_ball_containment(dfs["g"], dfs["g0"], fb.sff_sq, chart,
                                  1e-3)
    assert (tiny.verdict, tiny.compared) == ("indeterminate", 0)
    assert tiny.notes == "singleton ball"


def test_length_check_matches_separate_curve_lengths(pseudosphere,
                                                      monkeypatch):
    chart = pseudosphere.chart
    monkeypatch.setattr(growth, "LENGTH_CURVES", 3)
    got = check_length_inequality(chart, seed=7)
    rng = np.random.default_rng(7)
    box = np.array(chart.usable_domain())
    lhs, rhs, quad_err = [], [], 0.0
    for _ in range(3):
        P = box[:, 0] + rng.random((4, chart.n)) * (box[:, 1] - box[:, 0])
        Lg, s_hat = curve_length(chart, P, "g")
        L0, _ = curve_length(chart, P, "g0")
        L0c, _ = curve_length(chart, P, "g0", samples_per_segment=128)
        quad_err = max(quad_err, abs(L0 - L0c) / L0)
        lhs.append(L0)
        rhs.append(math.sqrt(s_hat + 1.0) * Lg)
    want = _strict_verdict("length_comparison", lhs, rhs,
                           max(3.0 * quad_err, 1e-12),
                           notes="3 random polylines")
    assert got == want
    assert got.verdict == "pass" and got.compared == 3
    monkeypatch.setattr(growth, "LENGTH_CURVES", 0)
    none = check_length_inequality(chart)
    assert (none.verdict, none.compared) == ("indeterminate", 0)


# ---------------------------------------------------------------------------
# hyperbolic closed forms

def test_hyperbolic_distance_and_area():
    entry = catalog.get("hyperbolic_plane")
    chart = entry.chart
    grid = make_grid(chart, (161, 81))
    anchor = nearest_node(grid, (0.0, 0.0))
    df = _induced_distance(chart, grid, anchor)
    X, Y = grid.points[..., 0], grid.points[..., 1]
    exact = np.arccosh(np.cosh(X) / np.cos(Y))
    mask = (exact > 0.2) & (exact <= 3.0)
    rel = np.abs(df.d[mask] - exact[mask]) / exact[mask]
    assert float(np.max(rel)) < 0.03
    fb = fundamental_batch(chart, grid.points)
    dens = np.sqrt(np.linalg.det(fb.g))
    for r in (1.0, 2.0):
        vol, truncated = ball_volume(df, dens, r)
        assert not truncated
        assert vol == pytest.approx(2.0 * math.pi * (math.cosh(r) - 1.0),
                                    rel=0.02)


def test_reference_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0)
    assert reference_ball_volume(0.0, 2, 1.3) == pytest.approx(
        math.pi * 1.3 ** 2)
    assert reference_ball_volume(-1.0, 2, 2.0) == pytest.approx(
        2.0 * math.pi * (math.cosh(2.0) - 1.0), rel=1e-10)
    assert reference_ball_volume(1.0, 2, 1.0) == pytest.approx(
        2.0 * math.pi * (1.0 - math.cos(1.0)), rel=1e-10)
    # hyperbolic 3-ball: pi (sinh(2r) - 2r)
    assert reference_ball_volume(-1.0, 3, 1.5) == pytest.approx(
        math.pi * (math.sinh(3.0) - 3.0), rel=1e-10)
    with pytest.raises(ConfigError, match="radius 4 exceeds the diameter "
                       "3.14159 of the model sphere of curvature 1"):
        reference_ball_volume(1.0, 2, 4.0)


def _sinh_minus_x(x):
    """sinh(x) - x, by its series below 1 where the difference cancels."""
    if x > 1.0:
        return math.sinh(x) - x
    return sum(x ** k / math.factorial(k) for k in range(3, 40, 2))


def _hyp4(r):
    """2 pi^2 (cosh^3 r / 3 - cosh r + 2/3) with x = cosh r - 1."""
    x = 2.0 * math.sinh(r / 2.0) ** 2
    return 2.0 * math.pi ** 2 * x * x * (1.0 + x / 3.0)


def _sph4(r):
    """2 pi^2 (2/3 - cos r + cos^3 r / 3) with y = 1 - cos r."""
    y = 2.0 * math.sin(r / 2.0) ** 2
    return 2.0 * math.pi ** 2 * y * y * (1.0 - y / 3.0)


@pytest.mark.parametrize("c, n, closed_form, r_max", [
    (-1.0, 2, lambda r: 4.0 * math.pi * math.sinh(r / 2.0) ** 2, 30.0),
    (1.0, 2, lambda r: 4.0 * math.pi * math.sin(r / 2.0) ** 2, math.pi),
    (-1.0, 3, lambda r: math.pi * _sinh_minus_x(2.0 * r), 30.0),
    (-1.0, 4, _hyp4, 30.0),
    (1.0, 4, _sph4, math.pi),
])
def test_reference_ball_volume_closed_forms(c, n, closed_form, r_max):
    """The quadrature against the model-ball closed forms, each written
    without cancellation, from r = 1e-6 to 30 (to the antipode on the
    unit sphere)."""
    for r in (1e-6, 1e-4, 1e-3, 0.01, *np.linspace(0.2, r_max, 20)):
        assert reference_ball_volume(c, n, r) == pytest.approx(
            closed_form(r), rel=1e-12), r


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("c", [-4.0, -1.0, -0.25, 0.25, 1.0])
def test_reference_ball_volume_matches_quad(c, n):
    """The Gauss-Legendre panels against scipy's adaptive quadrature, from
    r = 1e-6 to 50 wherever the volume is defined (to the antipode on a
    sphere).  Within 1e-14 relative, plus the integral's own float
    condition: each rule samples the integrand at float nodes, a node near
    r is off by up to half an ulp of r, and that moves the integrand by up
    to (n - 1) sqrt|c| r eps / 2 relative, so two rules may differ by
    twice that (6.7e-14 at c = -4, n = 4, r = 50, where both are about
    2e-14 off the closed form).  At the rounder radii the two agree within
    6e-15."""
    a = math.sqrt(abs(c))
    sn = math.sinh if c < 0 else math.sin
    r_max = 50.0 if c < 0 else math.pi / a
    rs = [1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
          *np.linspace(0.05, r_max, 41)]
    for r in (r for r in rs if r <= r_max):
        want = n * unit_ball_volume(n) * integrate.quad(
            lambda t: (sn(a * t) / a) ** (n - 1), 0.0, r)[0]
        tol = 1e-14 + (n - 1) * a * r * np.finfo(float).eps
        assert reference_ball_volume(c, n, r) == pytest.approx(
            want, rel=tol, abs=0.0), r


@pytest.mark.filterwarnings("error")
def test_reference_ball_volume_overflow_is_config_error():
    """sinh(1000) raises OverflowError; at r = 710 sinh is finite but the
    volume is not.  Both are config errors naming the radius."""
    for r in (710.0, 1000.0, 2000.0):
        with pytest.raises(ConfigError, match=f"radius {r:g}"):
            reference_ball_volume(-1.0, 2, r)
    assert math.isfinite(reference_ball_volume(-1.0, 2, 700.0))


# ---------------------------------------------------------------------------
# exponential fit

def test_fit_exponential_exact():
    rs = np.linspace(0.5, 3.0, 8)
    k, ell, r2 = fit_exponential([(r, 3.0 * math.exp(2.0 * r)) for r in rs])
    assert k == pytest.approx(3.0, rel=1e-10)
    assert ell == pytest.approx(2.0, rel=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_exponential_window_and_errors():
    rs = np.linspace(0.5, 3.0, 10)
    rows = [(r, math.exp(r) + (5.0 if r < 1.0 else 0.0)) for r in rs]
    _, ell, _ = fit_exponential(rows, window=(1.0, 3.0))
    assert ell == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        fit_exponential([(1.0, 2.0), (1.0, 3.0)])        # not increasing
    with pytest.raises(ValueError):
        fit_exponential([(1.0, 2.0), (2.0, 3.0)])        # too few rows
    with pytest.raises(ValueError):
        fit_exponential([(r, r - 2.0) for r in rs])      # nonpositive values


# ---------------------------------------------------------------------------
# growth report and guards

def test_growth_report_pseudosphere(pseudosphere):
    rep = growth_report(pseudosphere.chart, (math.asinh(1.0), math.pi),
                        (0.25, 0.5, 0.75, 1.0, 1.25, 1.5), resolution=129)
    assert rep.chain_holds
    for v in rep.verdicts:
        assert v.verdict == "pass"
        assert v.margin > v.error_budget
    rs = [row.r for row in rep.rows]
    Ss = [row.S for row in rep.rows]
    assert rs == sorted(rs)
    assert all(b >= a for a, b in zip(Ss, Ss[1:]))       # S(r) nondecreasing
    for row in rep.rows:
        assert row.psi == pytest.approx(row.r * math.sqrt(row.S + 1.0))
        assert row.vol < row.bound
    assert rep.fit is not None
    k, ell, r2 = rep.fit
    assert ell > 0 and 0.9 < r2 <= 1.0


def test_ball_max_sff_matches_anchor(pseudosphere):
    chart = pseudosphere.chart
    grid = make_grid(chart, 65)
    fb = fundamental_batch(chart, grid.points)
    anchor = nearest_node(grid, (math.asinh(1.0), math.pi))
    df = _induced_distance(chart, grid, anchor)
    S1 = ball_max_sff(df, fb.sff_sq, 0.3)
    S2 = ball_max_sff(df, fb.sff_sq, 0.9)
    assert S2 >= S1 >= float(fb.sff_sq[anchor])
    with pytest.raises(ValueError):
        ball_max_sff(df, fb.sff_sq, -1.0)


def test_growth_guards():
    sphere = catalog.get("sphere_negative_control")
    with pytest.raises(HypothesisViolation):
        growth_report(sphere.chart, (0.5, 0.2), (0.3, 0.6), resolution=33)
    ps3 = catalog.get("ps3")
    with pytest.raises(HypothesisViolation):       # c unasserted
        growth_report(ps3.chart, (1.0, 1.0, 0.0), (0.3,), resolution=17)
    veronese = catalog.get("veronese_r5")
    with pytest.raises(HypothesisViolation):       # normal bundle not flat
        # asserting c = -1 gives it the gap C = 1, so flatness is reached
        growth_report(dataclasses.replace(veronese.chart, c=-1.0),
                      (1.0, 0.0), (0.3,), resolution=33)


@pytest.mark.parametrize("name, x0, frames", [
    ("product_torus_r4", (3.0, 3.0), [33 * 33]),   # p = 2, C = 0
    ("pseudosphere", (0.88, 3.14), []),   # p = 1: flat without a frame
])
def test_growth_report_builds_at_most_the_grid_frame(name, x0, frames,
                                                      monkeypatch):
    """The edge midpoints and the test polylines read only g, III and
    |alpha|^2, so at most the grid batch builds its normal frame, for the
    flatness test."""
    from flatbundle import fundamental
    points = []
    build = fundamental._normal_frame

    def counted(chart, obasis, obasis_sq):
        points.append(obasis.shape[-1])
        return build(chart, obasis, obasis_sq)

    monkeypatch.setattr(fundamental, "_normal_frame", counted)
    rep = growth_report(catalog.get(name).chart, x0, (0.3, 0.6),
                        resolution=33, exploratory=True)
    assert rep.verdicts
    assert points == frames


@pytest.mark.parametrize("name, x0, runs", [
    ("product_torus_r4", (3.0, 3.0), 1),   # C = 0: no verdict reads g0
    ("pseudosphere", (0.88, 3.14), 2),
])
def test_growth_report_builds_the_distances_its_verdicts_read(name, x0, runs,
                                                             monkeypatch):
    """An exploratory C = 0 run skips both verdicts that read the g0
    distances, so it builds the g distances alone: one Dijkstra run, where
    it used to make two."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(growth, "dijkstra", counted)
    growth_report(catalog.get(name).chart, x0, (0.3, 0.6), resolution=33,
                  exploratory=True)
    assert len(calls) == runs


def test_growth_report_refuses_an_x0_outside_the_chart(pseudosphere):
    """The library applies the CLI's x0 rule (inside the usable domain,
    one coordinate per axis): these used to snap to the nearest node."""
    chart = pseudosphere.chart
    fd = dataclasses.replace(chart, engine="fd")
    for ch, x0 in ((chart, (1.85, math.nan)), (chart, (1.85, math.inf)),
                   (chart, (9.0, 1.0)), (chart, (1.0, 1.0, 0.0)),
                   (fd, (0.3005, 1.0))):
        with pytest.raises(DomainError, match="x0"):
            growth_report(ch, x0, (0.3,), resolution=17)


def test_growth_c0_exploratory_only():
    torus = catalog.get("product_torus_r4")
    with pytest.raises(HypothesisViolation):
        growth_report(torus.chart, (3.0, 3.0), (0.5, 1.0), resolution=65)
    rep = growth_report(torus.chart, (3.0, 3.0), (0.5, 1.0), resolution=65,
                        exploratory=True)
    assert all(math.isnan(row.bound) for row in rep.rows)
    assert {v.verdict for v in rep.verdicts} == {"skip"}
    # S = 1/r1^2 + 1/r2^2 = 5 everywhere on the product torus
    for row in rep.rows:
        assert row.S == pytest.approx(5.0, rel=1e-10)
