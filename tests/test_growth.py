"""Distances, balls, volumes, the inequality chain and the exponential fit,
checked against flat and hyperbolic closed forms."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from flatbundle import catalog
from flatbundle.errors import (ConfigError, DomainError,
                               HypothesisViolation)
from flatbundle.fields import make_grid
from flatbundle.fundamental import fundamental_batch
from flatbundle.growth import (_stencil_graph, _strict_verdict,
                               ball_max_sff, ball_volume,
                               check_ball_containment,
                               check_distance_inequality,
                               check_length_inequality, curve_length,
                               distance_field, distance_fields,
                               fit_exponential, growth_report,
                               induced_metric_fn, nearest_node,
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


def test_stencil_overshoot_3d_sampled():
    offs = stencil_offsets(3)
    over = stencil_overshoot(offs)
    assert 0.0 < over < 0.15


# ---------------------------------------------------------------------------
# flat-plane oracles

@pytest.fixture(scope="module")
def plane_df():
    chart = catalog.get("plane_r3").chart
    grid = make_grid(chart, 161)
    anchor = nearest_node(grid, (0.0, 0.0))
    return grid, distance_field(grid, induced_metric_fn(chart), anchor)


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


# ---------------------------------------------------------------------------
# half-lattice edge weights against the per-offset reference

def _per_offset_distances(grid, metric_fns, anchor_index):
    """Reference: one metric evaluation per stencil offset at the edge
    midpoints U + o h / 2, as the distance fields were first computed."""
    shape = grid.shape
    U = grid.points
    idx = np.indices(shape)
    n_nodes = int(np.prod(shape))
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
        return fundamental_batch(chart, U, interior_check=False).g

    def g0(U):
        fb = fundamental_batch(chart, U, interior_check=False)
        return comparison_metric(fb).g0

    def both(U):
        fb = fundamental_batch(chart, U, interior_check=False)
        out = {"g": fb.g}
        if with_g0:
            out["g0"] = comparison_metric(fb).g0
        return out

    ref = _per_offset_distances(
        grid, {"g": g, "g0": g0} if with_g0 else {"g": g}, anchor)
    got = distance_fields(grid, both, anchor)
    assert set(got) == set(ref)
    for label, d in ref.items():
        assert np.all(np.isfinite(d))
        np.testing.assert_allclose(got[label].d, d, rtol=1e-12, atol=0.0)

    edges, mids = _stencil_graph(grid)
    half_shape = [2 * r if per else 2 * r - 1
                  for r, per in zip(grid.shape, grid.periodic)]
    assert len(mids) == np.prod(half_shape) - np.prod(grid.shape)
    assert len(edges) == len(stencil_offsets(grid.ndim))
    rows = np.concatenate([e[2] for e in edges])
    assert np.all(rows >= 0)
    assert np.array_equal(np.unique(rows), np.arange(len(mids)))


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
    fb = fundamental_batch(chart, grid.points, interior_check=False)
    anchor = nearest_node(grid, (0.88, 3.14))

    def both(U):
        fb = fundamental_batch(chart, U, interior_check=False)
        return {"g": fb.g, "g0": comparison_metric(fb).g0}

    dfs = distance_fields(grid, both, anchor)
    v = check_distance_inequality(dfs["g"], dfs["g0"], fb.sff_sq, 1.0)
    assert v.verdict == "pass"
    assert v.compared == grid.points[..., 0].size - 1
    assert v.notes == f"{v.compared} grid nodes"
    tiny = check_ball_containment(dfs["g"], dfs["g0"], fb.sff_sq, 1.0, 1e-3)
    assert (tiny.verdict, tiny.compared) == ("indeterminate", 0)
    assert tiny.notes == "singleton ball"


def test_length_check_matches_separate_curve_lengths(pseudosphere):
    chart = pseudosphere.chart
    got = check_length_inequality(chart, C=1.0, n_curves=3, rng_seed=7)
    rng = np.random.default_rng(7)
    box = np.array(chart.usable_domain(None))
    lhs, rhs, quad_err = [], [], 0.0
    for _ in range(3):
        P = box[:, 0] + rng.random((4, chart.n)) * (box[:, 1] - box[:, 0])
        Lg, s_hat = curve_length(chart, P, "g", C=1.0)
        L0, _ = curve_length(chart, P, "g0", C=1.0)
        L0c, _ = curve_length(chart, P, "g0", C=1.0, samples_per_segment=128)
        quad_err = max(quad_err, abs(L0 - L0c) / L0)
        lhs.append(L0)
        rhs.append(math.sqrt(s_hat + 1.0) * Lg)
    want = _strict_verdict("length_comparison", lhs, rhs,
                           max(3.0 * quad_err, 1e-12),
                           notes="3 random polylines")
    assert got == want
    assert got.verdict == "pass" and got.compared == 3


# ---------------------------------------------------------------------------
# hyperbolic closed forms

def test_hyperbolic_distance_and_area():
    entry = catalog.get("hyperbolic_plane")
    chart = entry.chart
    grid = make_grid(chart, (161, 81))
    anchor = nearest_node(grid, (0.0, 0.0))
    df = distance_field(grid, induced_metric_fn(chart), anchor)
    X, Y = grid.points[..., 0], grid.points[..., 1]
    exact = np.arccosh(np.cosh(X) / np.cos(Y))
    mask = (exact > 0.2) & (exact <= 3.0)
    rel = np.abs(df.d[mask] - exact[mask]) / exact[mask]
    assert float(np.max(rel)) < 0.03
    fb = fundamental_batch(chart, grid.points, interior_check=False)
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
    with pytest.raises(ValueError):
        reference_ball_volume(1.0, 2, 4.0)   # beyond the sphere's diameter


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
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
    csv = rep.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "r,S,psi,vol,bound,ref_vol"
    assert len(lines) == 1 + len(rep.rows)
    assert "\r" not in csv


def test_ball_max_sff_matches_anchor(pseudosphere):
    chart = pseudosphere.chart
    grid = make_grid(chart, 65)
    fb = fundamental_batch(chart, grid.points, interior_check=False)
    anchor = nearest_node(grid, (math.asinh(1.0), math.pi))
    df = distance_field(grid, induced_metric_fn(chart), anchor)
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
        growth_report(veronese.chart, (1.0, 0.0), (0.3,), C=1.0,
                      resolution=33)


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
