"""Fundamental forms and engines against symbolic (sympy) oracles."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from flatbundle import catalog, fundamental
from flatbundle import dual as dm
from flatbundle.charts import (MODEL_TOL, AmbientModel, ImmersionChart,
                               euclidean, hyperbolic, sphere)
from flatbundle.errors import (DegenerateMetricError, DomainError,
                               FrameError, HypothesisViolation,
                               ModelConsistencyError)
from flatbundle.fields import make_grid
from flatbundle.fundamental import (flatness_violation, fundamental_batch,
                                    gap_violation)
from flatbundle.growth import (curve_length, distance_fields, growth_report,
                               nearest_node)
from flatbundle.principal import comparison_metric


# ---------------------------------------------------------------------------
# symbolic oracles for surfaces in R^3

def _surface_oracle(fx, fy, fz, u, v):
    """First fundamental form, Gauss curvature and shape operator of a
    parametric surface, derived symbolically and lambdified unsimplified
    (the shape operator g^-1 II is solved numerically)."""
    F = sp.Matrix([fx, fy, fz])
    Fu, Fv = F.diff(u), F.diff(v)
    E, Ff, G = Fu.dot(Fu), Fu.dot(Fv), Fv.dot(Fv)
    nvec = Fu.cross(Fv)
    nvec = nvec / sp.sqrt(nvec.dot(nvec))
    L = F.diff(u, 2).dot(nvec)
    M = F.diff(u, v).dot(nvec)
    N = F.diff(v, 2).dot(nvec)
    g_fn = sp.lambdify((u, v), sp.Matrix([[E, Ff], [Ff, G]]), "numpy")
    K_fn = sp.lambdify((u, v), (L * N - M * M) / (E * G - Ff * Ff), "numpy")
    II_fn = sp.lambdify((u, v), sp.Matrix([[L, M], [M, N]]), "numpy")

    def k_fn(uu, vv):
        return np.linalg.solve(np.array(g_fn(uu, vv), float),
                               np.array(II_fn(uu, vv), float))
    return g_fn, K_fn, k_fn


def test_pseudosphere_metric_and_curvatures(pseudosphere):
    u, v = sp.symbols("u v", positive=True)
    g_fn, K_fn, shape_fn = _surface_oracle(
        sp.sech(u) * sp.cos(v), sp.sech(u) * sp.sin(v), u - sp.tanh(u), u, v)
    chart = pseudosphere.chart
    pts = np.array([[0.7, 1.1], [1.4, 4.0], [2.5, 0.2]])
    fb = fundamental_batch(chart, pts)
    for k, (uu, vv) in enumerate(pts):
        np.testing.assert_allclose(fb.g[k], np.array(g_fn(uu, vv), float),
                                   atol=1e-12)
        # closed form g = diag(tanh^2 u, sech^2 u)
        np.testing.assert_allclose(
            fb.g[k], np.diag([math.tanh(uu) ** 2, 1 / math.cosh(uu) ** 2]),
            atol=1e-12)
        assert float(K_fn(uu, vv)) == pytest.approx(-1.0, abs=1e-10)
        # principal curvatures are the shape operator eigenvalues;
        # magnitudes {1/sinh u, sinh u}, product -1
        kappa = np.sort(np.abs(np.linalg.eigvals(
            np.array(shape_fn(uu, vv), float))))
        np.testing.assert_allclose(
            kappa, np.sort([1.0 / math.sinh(uu), math.sinh(uu)]), rtol=1e-10)


def test_dini_curvature_matches_asserted():
    """K from the symbolic Gauss formula equals -1/(a^2+b^2) everywhere."""
    a_, b_ = 1.3, 0.4
    u, v = sp.symbols("u v", positive=True)
    _, K_fn, _ = _surface_oracle(
        a_ * sp.cos(u) * sp.sin(v), a_ * sp.sin(u) * sp.sin(v),
        a_ * (sp.cos(v) + sp.log(sp.tan(v / 2))) + b_ * u, u, v)
    from flatbundle import catalog
    entry = catalog.get("dini", a=a_, b=b_)
    assert entry.chart.c == pytest.approx(-1.0 / (a_ * a_ + b_ * b_))
    for uu, vv in [(0.5, 0.6), (3.0, 0.9), (5.5, 0.4)]:
        assert float(K_fn(uu, vv)) == pytest.approx(entry.chart.c, rel=1e-9)


def test_dini_metric_against_sympy(dini):
    u, v = sp.symbols("u v", positive=True)
    g_fn, _, _ = _surface_oracle(
        sp.cos(u) * sp.sin(v), sp.sin(u) * sp.sin(v),
        sp.cos(v) + sp.log(sp.tan(v / 2)) + sp.Rational(1, 2) * u, u, v)
    pts = np.array([[1.0, 0.5], [4.0, 1.0]])
    fb = fundamental_batch(dini.chart, pts)
    for k, (uu, vv) in enumerate(pts):
        np.testing.assert_allclose(fb.g[k], np.array(g_fn(uu, vv), float),
                                   atol=1e-12)


def test_second_fundamental_form_sphere():
    """Round sphere of radius R: alpha(X, X) has norm 1/R for unit X."""
    R = 2.0
    from flatbundle import catalog
    entry = catalog.get("sphere_negative_control", c=1.0 / R ** 2)
    fb = fundamental_batch(entry.chart, np.array([0.3, 0.4]))
    # sff_sq = sum over a g-orthonormal basis of |alpha(e_i, e_j)|^2 = 2/R^2
    assert float(fb.sff_sq) == pytest.approx(2.0 / R ** 2, rel=1e-12)
    assert flatness_violation(fb) is None
    assert float(fb.flatness_residual()) < 1e-12


# ---------------------------------------------------------------------------
# engines

def test_ad_fd_jets_agree(pseudosphere):
    chart = pseudosphere.chart
    pts = np.array([[1.0, 1.0], [1.8, 3.0]])
    ja = dataclasses.replace(chart, engine="ad").jet(pts)
    jf = dataclasses.replace(chart, engine="fd").jet(pts)
    np.testing.assert_allclose(ja.value, jf.value, atol=1e-12)
    np.testing.assert_allclose(ja.first, jf.first, atol=1e-7)
    np.testing.assert_allclose(ja.second, jf.second, atol=1e-6)


def test_fd_second_derivatives_symmetric(dini):
    j = dataclasses.replace(dini.chart, engine="fd").jet(np.array([2.0, 0.7]))
    np.testing.assert_allclose(j.second, np.swapaxes(j.second, -3, -2),
                               atol=1e-14)


def test_ad_jet_matches_per_pair_seeding():
    """The AD jet seeds every pair (i, j) in one pass.  The arithmetic per
    point is unchanged, so it must equal seeding each pair separately bit
    for bit, with a constant (non-dual) component and a single point
    included."""
    from flatbundle import engines

    def f(u):
        return (u[0] * dm.exp(u[1]), 2.0,
                dm.sin(u[2]) / (1.0 + u[0] * u[2]))

    U = np.random.default_rng(5).uniform(0.1, 1.0, (4, 5, 3))
    J = engines.jet(f, U, 3)
    for i in range(3):
        for j in range(i, 3):
            out = f([dm.seed(U[..., k], float(k == i), float(k == j))
                     for k in range(3)])
            for c, comp in enumerate(out):
                if not isinstance(comp, dm.HyperDual):
                    comp = dm.HyperDual(comp)
                for got, want in ((J.value[..., c], comp.f),
                                  (J.first[..., i, c], comp.e1),
                                  (J.first[..., j, c], comp.e2),
                                  (J.second[..., i, j, c], comp.e12),
                                  (J.second[..., j, i, c], comp.e12)):
                    np.testing.assert_array_equal(
                        got, np.broadcast_to(want, U.shape[:-1]))
    one = engines.jet(f, U[1, 2], 3)
    assert one.second.shape == (3, 3, 3)
    np.testing.assert_array_equal(one.second, J.second[1, 2])


@pytest.mark.parametrize("name, calls", [("pseudosphere", 25),
                                         ("sine_gordon_surface", 25),
                                         ("ps3", 61)])
def test_fd_jet_is_the_order4_stencils(name, calls):
    """The FD jet equals the order-4 central stencils written out here, bit
    for bit, and evaluates the map once per distinct point set:
    1 + 4n + 16 n(n-1)/2 calls."""
    from flatbundle import engines
    chart = catalog.get(name).chart
    n, h = chart.n, chart.fd_step()
    lo, hi = np.array(chart.usable_domain()).T
    rng = np.random.default_rng(3)
    U = lo + (hi - lo) * rng.uniform(0.2, 0.8, (2, 3, n))
    seen = []

    def counted(u):
        seen.append(None)
        return chart.map(u)

    J = engines.jet(counted, U, n, engine="fd", h=h)
    assert len(seen) == calls

    def F(*moves):
        V = U.copy()
        for i, k in moves:
            V[..., i] = V[..., i] + k * h[i]
        return engines.evaluate(chart.map, V)

    d1 = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))
    d2 = ((-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12),
          (2, -1 / 12))
    np.testing.assert_array_equal(J.value, F())
    for i in range(n):
        first = sum(w * F((i, k)) for k, w in d1) / h[i]
        np.testing.assert_array_equal(J.first[..., i, :], first)
        same = sum(w * F((i, k)) for k, w in d2) / (h[i] * h[i])
        np.testing.assert_array_equal(J.second[..., i, i, :], same)
        for j in range(i + 1, n):
            mixed = sum(wi * wj * F((i, ki), (j, kj))
                        for ki, wi in d1 for kj, wj in d1) / (h[i] * h[j])
            np.testing.assert_array_equal(J.second[..., i, j, :], mixed)
            np.testing.assert_array_equal(J.second[..., j, i, :], mixed)


def test_fd_usable_domain_shrinks(pseudosphere):
    chart = pseudosphere.chart
    full = dataclasses.replace(chart, engine="ad").usable_domain()
    shrunk = dataclasses.replace(chart, engine="fd").usable_domain()
    assert full == tuple(chart.domain)
    (lo_f, hi_f), (lo_s, hi_s) = full[0], shrunk[0]
    assert lo_s > lo_f and hi_s < hi_f
    assert shrunk[1] == full[1]          # periodic axis unchanged


def test_fd_stencil_domain_guard(pseudosphere):
    chart = pseudosphere.chart
    lo = chart.domain[0][0]
    with pytest.raises(DomainError):
        dataclasses.replace(chart, engine="fd").jet(np.array([lo + 1e-6, 1.0]))


# ---------------------------------------------------------------------------
# ambient models

def test_ambient_constraint_enforced():
    bad = ImmersionChart("bad_sphere",
                         lambda u: (dm.cos(u[0]), dm.sin(u[0]), 0.1 + 0 * u[1]),
                         2, sphere(1.0, 2), None,
                         ((0.0, 6.0), (0.0, 1.0)))
    with pytest.raises(ModelConsistencyError):
        bad.jet(np.array([1.0, 0.5]))


def test_hyperboloid_sheet_constraint(clifford):
    """Band-model H^2 chart sits on <x,x> = -1 in the Lorentzian container."""
    from flatbundle import catalog
    entry = catalog.get("hyperbolic_plane")
    amb = entry.chart.ambient
    assert amb.signature.tolist() == [1.0, 1.0, -1.0]
    pts = np.array([[0.5, 0.3], [-2.0, -1.0], [3.0, 1.2]])
    x = entry.chart.jet(pts).value
    np.testing.assert_allclose(amb.inner(x, x), -1.0, atol=1e-12)
    # conformal metric sec^2(y) I
    fb = fundamental_batch(entry.chart, pts)
    for k, (_, y) in enumerate(pts):
        np.testing.assert_allclose(fb.g[k], np.eye(2) / math.cos(y) ** 2,
                                   atol=1e-10)
    # Clifford chart satisfies the unit-sphere constraint too
    xc = clifford.chart.jet(np.array([1.0, 2.0])).value
    assert float(np.sum(xc * xc)) == pytest.approx(1.0, abs=1e-14)


def test_far_hyperboloid_points_are_on_the_model():
    """The model residual is relative to sum x_k^2, the rounding scale of
    <x,x>: relative to max(1, |1/c~|) instead, rounding alone read 7.4e-9
    at this point, |x|^2 = 7.7e7, and the jet was refused."""
    chart = catalog.get("hyperbolic_plane", extent_x=5, extent_y=1.565).chart
    x = chart.jet(np.array([4.9, 1.56])).value
    assert chart.ambient.constraint_residual(x) <= MODEL_TOL


def test_a_non_finite_gap_violates_the_hypothesis(pseudosphere):
    """No comparison with NaN is true, so a NaN gap passed C > 0 and the
    growth report ran a chart with c = nan."""
    for c in (math.nan, -math.inf):
        chart = dataclasses.replace(pseudosphere.chart, c=c)
        for exploratory in (False, True):
            assert "not finite" in gap_violation(chart, exploratory)
    # the finite reasons keep their wording
    assert gap_violation(dataclasses.replace(pseudosphere.chart, c=1.0)) \
        == "curvature gap C = -1 <= 0"
    chart = dataclasses.replace(pseudosphere.chart, c=math.nan)
    with pytest.raises(HypothesisViolation, match="not finite"):
        growth_report(chart, (1.85, 3.0), (0.3,), resolution=17)


def test_ambient_kind_sign_validation():
    with pytest.raises(ValueError):
        AmbientModel("sphere", -1.0, 3)
    with pytest.raises(ValueError):
        AmbientModel("hyperbolic", 1.0, 3)
    with pytest.raises(ValueError):
        AmbientModel("cylinder", 0.0, 3)
    for kind, c in (("sphere", math.inf), ("hyperbolic", -math.inf),
                    ("sphere", math.nan), ("hyperbolic", math.nan)):
        with pytest.raises(ValueError):
            AmbientModel(kind, c, 3)
    assert euclidean(3).flat
    assert not hyperbolic(-2.0, 3).flat


def test_chart_needs_two_dimensions():
    """A curve has no curvature identities to compare: the chart refuses
    n < 2 before any pipeline runs."""
    for n in (0, 1):
        with pytest.raises(ValueError, match="need n >= 2"):
            ImmersionChart("curve", lambda u: (u[0], u[0]), n, euclidean(2),
                           -1.0, ((0.0, 1.0),) * n)


def test_chart_needs_room_in_its_ambient():
    """A surface in a 1-dimensional space form has codimension -1: the
    chart refuses it before any pipeline runs."""
    for ambient in (euclidean(1), sphere(1.0, 1), hyperbolic(-1.0, 1)):
        with pytest.raises(ValueError, match=f"ambient {ambient.kind} of "
                           "dimension 1 has no room for n = 2"):
            ImmersionChart("small", lambda u: (u[0],), 2, ambient, None,
                           ((0.0, 1.0),) * 2)


def test_domain_membership(pseudosphere):
    chart = pseudosphere.chart
    with pytest.raises(DomainError):
        chart.jet(np.array([5.0, 1.0]))
    # the periodic axis never rejects a finite value
    assert chart.contains(np.array([1.0, 97.3]))


def test_non_finite_coordinates_are_outside_on_every_axis(pseudosphere):
    """NaN and inf are outside on the periodic axis too: they used to pass
    there, so growth snapped x0 = (1.85, nan) to node 0."""
    chart = pseudosphere.chart
    for bad in (math.nan, math.inf, -math.inf):
        for u in ((1.85, bad), (bad, 1.0)):
            assert not chart.contains(np.array(u))
    np.testing.assert_array_equal(
        chart.contains(np.array([[1.0, 2.0], [1.0, math.nan], [9.0, 2.0]])),
        [True, False, False])


def test_degenerate_metric_rejected():
    folded = ImmersionChart("folded",
                            lambda u: (u[0], u[0], 0.0 * u[1]),
                            2, euclidean(3), None,
                            ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(DegenerateMetricError):
        fundamental_batch(folded, np.array([0.1, 0.2]))


def test_veronese_normal_bundle_not_flat():
    from flatbundle import catalog
    entry = catalog.get("veronese_r5")
    fb = fundamental_batch(entry.chart, np.array([0.7, 0.4]))
    assert flatness_violation(fb) is not None
    assert float(fb.flatness_residual()) > 0.05


# ---------------------------------------------------------------------------
# the frame-free metric kernel against the frame-based formulas

def _assert_rel(got, want, rel=1e-13):
    """|got - want| <= rel * max |want| (exact equality when want is 0)."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("name", [
    "pseudosphere", "dini",
    "clifford_torus_s3",          # sphere ambient, p = 2
    "veronese_r5",                # p = 3
    "ps3",                        # n = 3
    "hyperbolic_plane",           # Lorentzian container, p = 0
])
def test_metric_kernel_matches_frame_formulas(name):
    chart = catalog.get(name).chart
    if gap_violation(chart) is not None:      # g0 needs a gap: take C = 1
        chart = dataclasses.replace(chart, c=chart.ambient.curvature - 1.0)
    grid = make_grid(chart, 9 if chart.n == 2 else 5)
    fb = fundamental_batch(chart, grid.points)
    batch = fb.sff_sq.shape
    ginv = fundamental._point_major(fb.ginv, batch)
    alpha = fundamental._point_major(fb.alpha, batch)
    III = np.einsum("...kl,...ika,...jla->...ij", ginv, alpha, alpha)
    sff = np.einsum("...ik,...jl,...ija,...kla->...", ginv, ginv, alpha,
                    alpha)
    _assert_rel(fb.III, III)
    _assert_rel(fb.sff_sq, sff)
    _assert_rel(comparison_metric(fb), III + chart.C * fb.g)
    # the flatness residual against the point-major shape operators
    A = ginv[..., None, :, :] @ np.moveaxis(alpha, -1, -3)
    res = np.zeros(batch)
    for a in range(fb.chart.codimension):
        for b in range(a + 1, fb.chart.codimension):
            comm = A[..., a, :, :] @ A[..., b, :, :] \
                - A[..., b, :, :] @ A[..., a, :, :]
            res = np.maximum(res, np.sqrt(np.sum(comm * comm,
                                                 axis=(-2, -1))))
    _assert_rel(fb.flatness_residual(), res / np.maximum(1.0, sff))


def _nan_second_derivatives(u):
    """A plane in R^3 whose second derivatives are NaN (the tangents and
    the metric stay finite)."""
    return (u[0], u[1], 0.0 * u[0] + dm.HyperDual(0.0, 0.0, 0.0, np.nan))


def _nan_position(u):
    """Finite tangents in S^3, but a NaN image point to project off."""
    return (u[0], u[1], 0.0 * u[0] + dm.HyperDual(np.nan), 0.0 * u[0] + 1.0)


def test_metric_kernel_guards():
    folded = ImmersionChart("folded",
                            lambda u: (u[0], u[0], 0.0 * u[1]),
                            2, euclidean(3), None,
                            ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(DegenerateMetricError):
        fundamental_batch(folded, np.array([0.1, 0.2]))
    box = ((-1.0, 1.0), (-1.0, 1.0))
    for chart in (
            ImmersionChart("nan_hessian", _nan_second_derivatives, 2,
                           euclidean(3), -1.0, box),
            ImmersionChart("nan_position", _nan_position, 2, sphere(1.0, 3),
                           0.0, box)):
        U = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(FrameError, match="not finite"):
            fundamental_batch(chart, U)
        # the growth metrics raise instead of weighting edges with NaN
        grid = make_grid(chart, 9)
        with pytest.raises(FrameError):
            distance_fields(grid,
                            lambda U: {"g": fundamental_batch(chart, U).g},
                            nearest_node(grid, (0.0, 0.0)))
        with pytest.raises(FrameError):
            curve_length(chart, U, "g")


# ---------------------------------------------------------------------------
# the batch in blocks

_STORED_FIELDS = ("g", "ginv", "III", "sff_sq", "tangent", "chol_inv",
                  "obasis", "obasis_sq", "alpha_cont")


def _block_sizes(monkeypatch):
    """Record the number of points of every chart.jet call."""
    sizes = []
    jet = ImmersionChart.jet

    def counted(self, u):
        sizes.append(int(np.prod(np.shape(u)[:-1])))
        return jet(self, u)
    monkeypatch.setattr(ImmersionChart, "jet", counted)
    return sizes


@pytest.mark.parametrize("name", [
    "pseudosphere",               # AD, codimension 1
    "clifford_torus_s3",          # codimension 2, on S^3
    "sine_gordon_surface",        # FD, lattice spline evaluation
])
def test_blocked_batch_matches_one_block(name, monkeypatch):
    """fundamental_batch runs the jet and kernel on blocks of at most BLOCK
    points, whole rows where a row fits.  The arithmetic per point is
    unchanged, so with BLOCK = 7 every field equals the one-block batch
    bit for bit, on every batch shape."""
    chart = catalog.get(name).chart
    box = np.array(chart.usable_domain())
    rng = np.random.default_rng(11)

    def uniform(*shape):
        return box[:, 0] + rng.random(shape + (2,)) * (box[:, 1] - box[:, 0])

    lattice = make_grid(chart, 12).points
    cases = [(lattice[3, 4], [1]),
             (uniform(23), [7, 7, 7, 2]),
             (lattice[2:7, 1:4], [6, 6, 3]),           # two rows a block
             (lattice[:3, :10], [7, 7, 7, 7, 2]),      # a row is too long
             (uniform(4, 2, 3), [6] * 4),
             (uniform(0), [0])]
    for U, blocks in cases:
        one = fundamental_batch(chart, U)
        sizes = _block_sizes(monkeypatch)
        monkeypatch.setattr(fundamental, "BLOCK", 7)
        blocked = fundamental_batch(chart, U)
        monkeypatch.undo()
        assert sizes == blocks
        for f in _STORED_FIELDS + ("frame", "alpha"):
            a, b = getattr(blocked, f), getattr(one, f)
            assert a.shape == b.shape, f
            np.testing.assert_array_equal(a, b, err_msg=f)
        np.testing.assert_array_equal(blocked.flatness_residual(),
                                      one.flatness_residual())


def test_grid_batch_memory_budget(pseudosphere):
    """The tracemalloc peak of the 257^2 grid batch stays within the arrays
    it returns (21.7 MiB) plus one block's jet and kernel temporaries,
    allowed 1 KiB a point of one block (8 MiB; one 8,192-point block
    peaks at 7.3 MiB).  The peak is 28.7 MiB.  The kernel run on the
    whole grid at once breaks the bound: it peaked at 58.5 MiB."""
    chart = pseudosphere.chart
    U = make_grid(chart, 257).points
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fb = fundamental_batch(chart, U)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = sum(getattr(fb, f).nbytes for f in _STORED_FIELDS)
    budget = held + fundamental.BLOCK * 1024
    assert peak <= budget, (peak / 2 ** 20, budget / 2 ** 20)


def test_blocked_batch_guards(pseudosphere):
    """The chart's guards run per block in order: an outside or NaN point
    in a later block of the 257^2 grid raises the DomainError that the
    whole grid's jet raises, naming the first of them in C order; an image
    that leaves S^3 only in a later block raises ModelConsistencyError."""
    chart = pseudosphere.chart
    grid = make_grid(chart, 257)
    for first, second in (((9.0, 1.0), (math.nan, 2.0)),
                          ((math.nan, 2.0), (9.0, 1.0))):
        U = grid.points.copy()
        U[100, 5], U[200, 7] = first, second
        with pytest.raises(DomainError) as whole:
            chart.jet(U)
        assert str(list(first)) in str(whole.value)
        with pytest.raises(DomainError, match=re.escape(str(whole.value))):
            fundamental_batch(chart, U)

    clifford = catalog.get("clifford_torus_s3").chart

    def leaves_s3(u):
        scale = 1.0 + 1e-3 * (np.asarray(getattr(u[0], "f", u[0])) > 5.0)
        return tuple(x * scale for x in clifford.map(u))
    chart = dataclasses.replace(clifford, name="leaves_s3", map=leaves_s3)
    U = make_grid(chart, 257).points
    fundamental_batch(chart, U[:200])
    with pytest.raises(ModelConsistencyError, match="leaves_s3"):
        fundamental_batch(chart, U)
