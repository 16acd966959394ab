"""Every catalog entry's advertised properties are re-derived here; the
catalog itself carries no claim this file does not check."""

import math

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from flatbundle import catalog, sinegordon
from flatbundle import dual as dm
from flatbundle.errors import DomainError, ModelConsistencyError
from flatbundle.fields import make_grid
from flatbundle.fundamental import flatness_violation, fundamental_batch
from flatbundle.principal import principal_decomposition
from flatbundle.sinegordon import (DEFAULT_DOMAIN, QuinticSpline,
                                   SampledAngle, integrate_surface,
                                   one_soliton, sine_gordon_residual)
from flatbundle.verifiers import check_intrinsic_curvature

CLOSED_FORM = ["pseudosphere", "dini", "product_torus_r4", "clifford_torus_s3",
               "sphere_negative_control", "hyperbolic_plane", "ps3",
               "veronese_r5", "plane_r3"]


def _center(chart):
    return np.array([0.5 * (lo + hi) for lo, hi in chart.domain])


def test_registry_contents():
    assert set(catalog.names()) == set(CLOSED_FORM) | {"sine_gordon_surface"}
    with pytest.raises(KeyError):
        catalog.get("moebius_strip")


@pytest.mark.parametrize("name", CLOSED_FORM)
def test_expected_properties_rederived(name):
    entry = catalog.get(name)
    chart = entry.chart
    u = _center(chart)
    fb = fundamental_batch(chart, u)
    flat = flatness_violation(fb) is None
    assert flat == entry.expected["flat_normal_bundle"], \
        fb.flatness_residual()
    if "s" in entry.expected:
        dec = principal_decomposition(fb)
        assert dec.s == entry.expected["s"]
    if "C_positive" in entry.expected:
        assert (chart.C is not None and chart.C > 0) \
            == entry.expected["C_positive"]
    if chart.c is not None and flat:
        grid = make_grid(chart, (25,) * chart.n)
        fb = fundamental_batch(chart, grid.points)
        rep = check_intrinsic_curvature(fb, grid, tol=5e-2)
        assert rep.passed, rep.summary_line()


@pytest.mark.parametrize("name, params", [
    ("dini", dict(a=0.0)),
    ("clifford_torus_s3", dict(t=2.0)),
    ("product_torus_r4", dict(r2=-1.0)),
    ("sphere_negative_control", dict(c=-1.0)),
    ("hyperbolic_plane", dict(extent_y=2.0)),
    # NaN passed checks written as `a <= 0`, inf passed them too, and the
    # chart then failed later as a degenerate metric
    ("dini", dict(a=math.nan)),
    ("dini", dict(a=math.inf)),
    ("dini", dict(b=math.inf)),
    ("dini", dict(b=math.nan)),
    ("product_torus_r4", dict(r1=math.nan)),
    ("product_torus_r4", dict(r2=math.inf)),
    ("sphere_negative_control", dict(c=math.nan)),
    ("sphere_negative_control", dict(c=math.inf)),
    ("hyperbolic_plane", dict(extent_x=math.nan)),
    ("hyperbolic_plane", dict(extent_x=math.inf)),
    ("hyperbolic_plane", dict(extent_x=-1.0)),
])
def test_parameter_validation(name, params):
    with pytest.raises(ValueError):
        catalog.get(name, **params)


def test_dini_b0_is_reparametrized_pseudosphere():
    """b = 0 removes the helicoidal shear: K = -1/a^2 and the surface is a
    rescaled pseudosphere (same curvature magnitudes pattern)."""
    entry = catalog.get("dini", a=2.0, b=0.0)
    assert entry.chart.c == pytest.approx(-0.25)
    fb = fundamental_batch(entry.chart, np.array([1.0, 0.8]))
    dec = principal_decomposition(fb)
    k = np.sort(np.linalg.norm(dec.etas, axis=-1))
    assert k[0] * k[1] == pytest.approx(0.25, rel=1e-10)   # k1 k2 = c


# ---------------------------------------------------------------------------
# sine-Gordon integration

@pytest.fixture(scope="module")
def soliton_entry():
    return catalog.get("sine_gordon_surface")


def test_one_soliton_residual():
    res, rng = sine_gordon_residual(one_soliton, ((-1.6, -0.4), (-1.6, -0.4)))
    assert res < 1e-12
    assert 0.0 < rng[0] and rng[1] < math.pi


def test_soliton_surface_metric(soliton_entry):
    """Induced metric of the integrated surface matches the closed form
    du^2 + 2 cos(phi) du dv + dv^2."""
    surf = soliton_entry.params["surface"]
    assert surf.sg_residual < 1e-12
    assert surf.monodromy_residual < 1e-6
    chart = soliton_entry.chart
    assert chart.engine == "fd"
    grid = make_grid(chart, 33)
    fb = fundamental_batch(chart, grid.points)
    want = surf.expected_metric(grid.points)
    assert float(np.max(np.abs(fb.g - want))) < 1e-3


def test_soliton_surface_curvature(soliton_entry):
    grid = make_grid(soliton_entry.chart, 49)
    fb = fundamental_batch(soliton_entry.chart, grid.points)
    rep = check_intrinsic_curvature(fb, grid, tol=1e-2)
    assert rep.passed, rep.summary_line()


def test_chebyshev_constant_angle():
    """phi = pi/2 is not a sine-Gordon solution; with the residual check
    disabled the integration still produces unit-speed coordinate curves
    (the Chebyshev-net property) and reports the monodromy inconsistency."""
    phi = lambda u, v: 0.0 * u + 0.0 * v + math.pi / 2.0
    with pytest.raises(ModelConsistencyError):
        integrate_surface(phi, resolution=33)
    surf = integrate_surface(phi, resolution=33, residual_tol=math.inf)
    np.testing.assert_allclose(np.linalg.norm(surf.Fu, axis=-1), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(surf.Fv, axis=-1), 1.0,
                               atol=1e-12)
    assert surf.monodromy_residual > 1e-3    # reported, not enforced


def test_angle_range_guard():
    phi = lambda u, v: 0.0 * u + 0.0 * v + 3.2      # > pi
    with pytest.raises(DomainError):
        integrate_surface(phi, resolution=33, residual_tol=math.inf)


def test_sampled_angle_matches_callable():
    us = np.linspace(-1.6, -0.4, 61)
    vs = np.linspace(-1.6, -0.4, 61)
    U, V = np.meshgrid(us, vs, indexing="ij")
    vals = 4.0 * np.arctan(np.exp(U + V))
    sampled = SampledAngle(us, vs, vals)
    f, fu, fv, fuv = sampled.jet(-1.0, -0.9)
    out = one_soliton(dm.seed(np.array(-1.0), 1.0, 0.0),
                      dm.seed(np.array(-0.9), 0.0, 1.0))
    assert float(f) == pytest.approx(float(out.f), abs=1e-10)
    assert float(fu) == pytest.approx(float(out.e1), abs=1e-7)
    assert float(fuv) == pytest.approx(float(out.e12), abs=1e-5)
    res, _ = sine_gordon_residual(sampled, ((-1.5, -0.5), (-1.5, -0.5)))
    assert res < 1e-5


# ---------------------------------------------------------------------------
# the numpy spline: FITPACK's interpolant, the same bits in every batch

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def _random_surfaces():
    """Two random surfaces on a 21 x 17 grid."""
    rng = np.random.default_rng(3)
    xa, ya = np.linspace(-1.6, -0.4, 21), np.linspace(0.0, 2.0, 17)
    return xa, ya, rng.normal(size=(2, 21, 17))


def _smooth_surfaces():
    """Three smooth surfaces on the 161-square grid of the default
    sine-Gordon chart."""
    xa = ya = np.linspace(-1.6, -0.4, 161)
    U, V = np.meshgrid(xa, ya, indexing="ij")
    return xa, ya, np.stack([np.sin(3 * U) * np.cos(2 * V), np.exp(U + V),
                             U * V / (1 + U * U)])


@pytest.fixture(scope="module")
def quintic():
    return QuinticSpline(*_random_surfaces())


# the (dx, dy) orders SampledAngle.jet asks for
ORDERS = sinegordon.JET_ORDERS


@pytest.mark.parametrize("surfaces, k, tol", [
    (_random_surfaces, 5, (1e-13, 1e-13, 1e-13)),
    (_random_surfaces, 4, (1e-13, 1e-13, 1e-13)),
    (_random_surfaces, 3, (1e-13, 1e-13, 1e-13)),
    (_smooth_surfaces, 5, (1e-13, 1e-11, 1e-9)),
], ids=["random-k5", "random-k4", "random-k3", "smooth-161"])
def test_quintic_spline_matches_fitpack(surfaces, k, tol):
    """Against RectBivariateSpline, component by component: the same
    knots, and values and derivatives within ``tol`` (values, first
    derivatives, mixed derivative) of the largest |FITPACK value|.  Both
    solve for the coefficients with rounding of about 1e-16 relative, and
    each derivative order scales that by about 1 / node spacing (133 on
    the 161-node grid): values differ by up to 2.5e-15, and on that grid
    first derivatives by 9.4e-13 and the mixed one by 2.8e-10.  The
    points include the domain edges and points beyond them, which both
    clamp to the edges."""
    xa, ya, z = surfaces()
    sp = QuinticSpline(xa, ya, z, k=k)
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(xa[0] - 0.1, xa[-1] + 0.1, 500),
                        xa[[0, 0, -1, -1]]])
    y = np.concatenate([rng.uniform(ya[0] - 0.1, ya[-1] + 0.1, 500),
                        ya[[0, -1, 0, -1]]])
    got = sp(x, y, ORDERS)
    for c in range(len(z)):
        ref = RectBivariateSpline(xa, ya, z[c], kx=k, ky=k)
        assert np.array_equal(sp.tx, ref.tck[0])
        assert np.array_equal(sp.ty, ref.tck[1])
        for (dx, dy), g in zip(ORDERS, got[:, c]):
            want = ref.ev(x, y, dx=dx, dy=dy)
            assert np.max(np.abs(g - want)) <= \
                tol[dx + dy] * np.max(np.abs(want)), (c, dx, dy)


def _pointwise(sp, x, y):
    """``sp(x, y, ORDERS)`` evaluated one point at a time."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    out = np.empty((len(ORDERS), len(sp.c)) + x.shape)
    for i in np.ndindex(x.shape):
        out[(slice(None), slice(None)) + i] = sp(x[i], y[i], ORDERS)
    return out


def _check_pointwise(sp, x, y):
    assert _same_bits(sp(x, y, ORDERS), _pointwise(sp, x, y))


def test_quintic_spline_on_meshgrids_and_fd_shifts(quintic):
    """A grid and every finite-difference stencil shift of it, as the FD
    engine sends them; the grid reaches the domain edges exactly."""
    xa, ya = np.linspace(-1.6, -0.4, 13), np.linspace(0.0, 2.0, 11)
    X, Y = np.meshgrid(xa, ya, indexing="ij")
    h = (1.2e-3, 2e-3)
    for di in (-2, -1, 0, 1, 2):
        for dj in (-2, -1, 0, 1, 2):
            _check_pointwise(quintic, X + di * h[0], Y + dj * h[1])
    _check_pointwise(quintic, X.ravel(), Y.ravel())            # flattened
    _check_pointwise(quintic, xa[:, None], ya[None, :])         # broadcast


def test_quintic_spline_on_domain_edges(quintic):
    xs = np.array([-1.6, -1.6, -0.4, -0.4, -1.0])
    ys = np.array([0.0, 2.0, 0.0, 2.0, 2.0])
    _check_pointwise(quintic, xs, ys)
    X, Y = np.meshgrid([-1.6, -0.4], [0.0, 2.0], indexing="ij")
    _check_pointwise(quintic, X, Y)


def test_quintic_spline_scattered_and_degenerate_points(quintic):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.6, -0.4, 300)
    y = rng.uniform(0.0, 2.0, 300)
    _check_pointwise(quintic, x, y)
    _check_pointwise(quintic, -1.0, 0.5)                      # 0-d scalar
    _check_pointwise(quintic, np.array([-1.0]), np.array([0.5]))
    _check_pointwise(quintic, np.zeros(0), np.zeros(0))       # empty batch
    x, y = np.array([np.nan, -1.0, -np.inf]), np.array([0.5, np.inf, 0.5])
    _check_pointwise(quintic, x, y)                           # non-finite
    out = quintic(x, y, ORDERS)
    assert np.isnan(out[:, :, 0]).all()
    # an infinite coordinate is clamped to the domain edge, as FITPACK does
    assert _same_bits(out[:, :, 1], quintic(-1.0, 2.0, ORDERS))
    assert _same_bits(out[:, :, 2], quintic(-1.6, 0.5, ORDERS))


def _lattice_cases():
    """(name, x, y) batches around the C-order lattice shortcut."""
    xa, ya = np.linspace(-1.6, -0.4, 13), np.linspace(0.0, 2.0, 11)
    X, Y = np.meshgrid(xa, ya, indexing="ij")
    Xf, Yf = np.meshgrid(xa, ya)                       # x fast
    swapped = xa[[0, 2, 1] + list(range(3, 13))]
    repeated = xa[[0, 1, 1] + list(range(3, 13))]
    Xn = X.copy()
    Xn[4, 5] = np.nan
    return [
        ("c-order-block", X, Y),
        ("fd-shifted-block", X + 2 * 1.2e-3, Y - 2e-3),
        ("c-order-flat", X.ravel(), Y.ravel()),
        ("fortran-meshgrid", Xf, Yf),
        ("fortran-ravel", X.ravel(order="F"), Y.ravel(order="F")),
        ("unsorted-row", *np.meshgrid(swapped, ya, indexing="ij")),
        ("repeated-row", *np.meshgrid(repeated, ya, indexing="ij")),
        ("unsorted-column", *np.meshgrid(xa, ya[::-1], indexing="ij")),
        ("single-row", np.full(11, -1.0), ya),
        ("single-column", xa, np.full(13, 0.5)),
        ("single-point", np.array([-1.0]), np.array([0.5])),
        ("nan-point", Xn, Y),
        ("inf-axis", *np.meshgrid(np.append(xa, np.inf), ya, indexing="ij")),
    ]


@pytest.mark.parametrize("name, x, y", _lattice_cases(),
                         ids=[c[0] for c in _lattice_cases()])
def test_quintic_spline_keeps_the_bits_in_every_layout(quintic, name, x, y):
    _check_pointwise(quintic, x, y)


def test_quintic_spline_c_order_block_needs_no_sort(quintic, monkeypatch):
    """A C-order grid block is contracted on its own axes: its basis comes
    from the axes, with no ``np.unique`` sort; a Fortran-order one takes
    the sorting path, and scattered points go point by point."""
    sizes, calls = [], []
    basis, unique = sinegordon._basis, np.unique

    def spy_basis(t, k, x):
        sizes.append(x.size)
        return basis(t, k, x)

    def spy_unique(*args, **kwargs):
        calls.append(args[0].size)
        return unique(*args, **kwargs)

    monkeypatch.setattr(sinegordon, "_basis", spy_basis)
    monkeypatch.setattr(sinegordon.np, "unique", spy_unique)
    cases = {c[0]: c[1:] for c in _lattice_cases()}
    for name, axes in (("c-order-block", [13, 11]),
                       ("fd-shifted-block", [13, 11]),
                       ("c-order-flat", [13, 11]),
                       ("single-row", [1, 11]),
                       ("single-point", [1, 1])):
        sizes.clear()
        quintic(*cases[name], ORDERS)
        assert sizes == axes and calls == [], name
    quintic(*cases["fortran-meshgrid"], ORDERS)
    assert calls == [143, 143] and sizes[-2:] == [13, 11]
    rng = np.random.default_rng(5)
    quintic(rng.uniform(-1.6, -0.4, 50), rng.uniform(0.0, 2.0, 50), ORDERS)
    assert sizes[-2:] == [50, 50]


# ---------------------------------------------------------------------------
# integrate_surface against the sequential RK4 march it replaced: one phi
# evaluation per RK4 stage, point set by point set, a sampled phi's spline
# evaluated point by point

def _seq_jet(phi, u, v):
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    if isinstance(phi, SampledAngle):
        return tuple(_pointwise(phi._spline, u, v)[:, 0])
    out = phi(dm.seed(u, 1.0, 0.0), dm.seed(v, 0.0, 1.0))
    return (np.asarray(out.f, float), np.asarray(out.e1, float),
            np.asarray(out.e2, float), np.asarray(out.e12, float))


def _seq_deriv_u(state, u, v, phi):
    F, Fu, Fv, N = state
    f, fu, _, _ = _seq_jet(phi, u, v)
    s, c = np.sin(f), np.cos(f)
    cot, inv = (c / s)[..., None], (1.0 / s)[..., None]
    return (Fu,
            fu[..., None] * (cot * Fu - inv * Fv),
            s[..., None] * N,
            cot * Fu - inv * Fv)


def _seq_deriv_v(state, u, v, phi):
    F, Fu, Fv, N = state
    f, _, fv, _ = _seq_jet(phi, u, v)
    s, c = np.sin(f), np.cos(f)
    cot, inv = (c / s)[..., None], (1.0 / s)[..., None]
    return (Fv,
            s[..., None] * N,
            fv[..., None] * (cot * Fv - inv * Fu),
            cot * Fv - inv * Fu)


def _seq_rk4_march(state, fixed, t0, t1, nsteps, deriv, phi, along_u):
    h = (t1 - t0) / nsteps
    t = t0

    def rhs(st, tt):
        return deriv(st, tt if along_u else fixed,
                     fixed if along_u else tt, phi)

    for _ in range(nsteps):
        k1 = rhs(state, t)
        k2 = rhs(tuple(y + 0.5 * h * k for y, k in zip(state, k1)),
                 t + 0.5 * h)
        k3 = rhs(tuple(y + 0.5 * h * k for y, k in zip(state, k2)),
                 t + 0.5 * h)
        k4 = rhs(tuple(y + h * k for y, k in zip(state, k3)), t + h)
        state = tuple(y + (h / 6.0) * (a + 2 * b + 2 * c + d)
                      for y, a, b, c, d in zip(state, k1, k2, k3, k4))
        t += h
    return state


def _seq_integrate(phi, domain, resolution, substeps):
    (u0, u1), (v0, v1) = domain
    u_axis = np.linspace(u0, u1, resolution[0])
    v_axis = np.linspace(v0, v1, resolution[1])
    f0 = float(np.asarray(_seq_jet(phi, u0, v0)[0]))
    column = [(np.zeros(3), np.array([1.0, 0.0, 0.0]),
               np.array([math.cos(f0), math.sin(f0), 0.0]),
               np.array([0.0, 0.0, 1.0]))]
    for k in range(len(v_axis) - 1):
        column.append(_seq_rk4_march(column[-1], u0, v_axis[k],
                                     v_axis[k + 1], substeps, _seq_deriv_v,
                                     phi, along_u=False))
    rows = [tuple(np.stack([st[j] for st in column]) for j in range(4))]
    for k in range(len(u_axis) - 1):
        rows.append(_seq_rk4_march(rows[-1], v_axis, u_axis[k],
                                   u_axis[k + 1], substeps, _seq_deriv_u,
                                   phi, along_u=True))
    out = tuple(np.stack([st[j] for st in rows]) for j in range(4))
    check = [tuple(arr[-1, 0] for arr in out)]
    for k in range(len(v_axis) - 1):
        check.append(_seq_rk4_march(check[-1], u1, v_axis[k], v_axis[k + 1],
                                    substeps, _seq_deriv_v, phi,
                                    along_u=False))
    mono = max(float(np.max(np.abs(np.stack([st[j] for st in check])
                                   - arr[-1])))
               for j, arr in enumerate(out))
    return out, mono


def _sampled_soliton():
    axis = np.linspace(-1.7, -0.3, 41)
    U, V = np.meshgrid(axis, axis, indexing="ij")
    return SampledAngle(axis, axis, 4.0 * np.arctan(np.exp(U + V)))


def _constant_angle(u, v):
    return 0.0 * u + 0.0 * v + math.pi / 2.0


@pytest.mark.parametrize("phi, resolution, substeps, residual_tol", [
    (one_soliton, 161, 4, 1e-6),            # the catalog default
    (one_soliton, 33, 4, 1e-6),
    (one_soliton, 33, 1, 1e-6),
    (one_soliton, (17, 23), 1, 1e-6),
    (one_soliton, (17, 23), 4, 1e-6),
    (_sampled_soliton(), (21, 19), 4, 1e-4),
    (_sampled_soliton(), (23, 17), 2, 1e-4),
    (_constant_angle, 17, 4, math.inf),
], ids=["soliton-161-s4", "soliton-33-s4", "soliton-33-s1",
        "soliton-17x23-s1", "soliton-17x23-s4", "sampled-21x19",
        "sampled-23x17-s2", "constant-angle"])
def test_integrate_surface_matches_sequential_march(phi, resolution,
                                                    substeps, residual_tol):
    surf = integrate_surface(phi, resolution=resolution, substeps=substeps,
                             residual_tol=residual_tol)
    res = (resolution,) * 2 if np.isscalar(resolution) else resolution
    want, mono = _seq_integrate(phi, DEFAULT_DOMAIN, res, substeps)
    for got, ref in zip((surf.F, surf.Fu, surf.Fv, surf.N), want):
        assert _same_bits(got, ref)
    assert surf.monodromy_residual == mono
    if residual_tol == math.inf:
        assert mono > 1e-3                  # the non-solution is reported


@pytest.mark.parametrize("kwargs, match", [
    (dict(resolution=33.5), "resolution"),
    (dict(resolution=5), "resolution"),
    (dict(resolution=(33, 4)), "resolution"),
    (dict(resolution=(17, 17, 17)), "resolution"),     # third ignored
    (dict(resolution=(17,)), "resolution"),            # IndexError
    (dict(domain=((-0.4, -1.6), (-1.6, -0.4))), "domain"),  # reversed
    (dict(domain=((-1.0, -1.0), (-1.6, -0.4))), "domain"),  # empty
    (dict(domain=((-1.6, math.nan), (-1.6, -0.4))), "domain"),
    (dict(domain=((-1.6, -0.4), (-1.6, math.inf))), "domain"),
    (dict(domain=((-1.6, -0.4),)), "domain"),
    (dict(domain=1.0), "domain"),
    (dict(substeps=0), "substeps"),
    (dict(substeps=1.5), "substeps"),
    (dict(residual_tol=-1.0), "residual_tol"),
    (dict(residual_tol=0.0), "residual_tol"),
    (dict(residual_tol=math.nan), "residual_tol"),
])
def test_integrate_surface_rejects_bad_grid_parameters(kwargs, match):
    with pytest.raises(ValueError, match=match):
        integrate_surface(one_soliton, **kwargs)
