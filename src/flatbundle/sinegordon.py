"""K = -1 surfaces from sine-Gordon solutions.

In asymptotic coordinates a surface of curvature -1 has first fundamental
form du^2 + 2 cos(phi) du dv + dv^2 and second fundamental form
2 sin(phi) du dv, where the angle phi between the coordinate curves solves
phi_uv = sin(phi).  Conversely, integrating the moving-frame system

    F_uu = phi_u cot(phi) F_u - (phi_u / sin phi) F_v
    F_vv = -(phi_v / sin phi) F_u + phi_v cot(phi) F_v
    F_uv = sin(phi) N
    N_u  = cot(phi) F_u - (1 / sin phi) F_v
    N_v  = -(1 / sin phi) F_u + cot(phi) F_v

for any such phi with 0 < phi < pi produces the surface.  The integration
is classical RK4 (order 4, matching the finite-difference engine used on
the resulting sampled chart): first down one column in v, then along every
row in u at once.  Phi's jet is evaluated once per grid interval, at all
RK4 stage abscissae of that interval together.  Since the cross
derivatives close the system only when phi solves sine-Gordon, the
residual is checked first and a monodromy pass re-integrates the far
column to measure the accumulated inconsistency.

The sampled chart and a sampled angle are quintic splines.  A batch of
points whose distinct coordinates form a small lattice (a grid, or a grid
shifted by a finite-difference stencil) is evaluated by one FITPACK grid
call on that lattice and gathered, which gives the same bits as
evaluating point by point (see :func:`lattice_ev`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RectBivariateSpline

from . import dual as dm
from .charts import ImmersionChart, euclidean
from .errors import DomainError, ModelConsistencyError, NumericalError

DEFAULT_DOMAIN = ((-1.6, -0.4), (-1.6, -0.4))
MONODROMY_TOL = 1e-6
RESIDUAL_SAMPLES = 41    # samples per axis of the sine-Gordon residual grid
# A lattice of distinct coordinates up to this many times the point count
# is evaluated on the grid (about 13x cheaper per point than `ev`).
LATTICE_FACTOR = 4


def lattice_ev(x, y, requests):
    """``[spline.ev(x, y, dx=dx, dy=dy) for spline, dx, dy in requests]``
    at the broadcast points (x, y), bit for bit.

    When the distinct x and y coordinates span a lattice of at most
    LATTICE_FACTOR times the point count, each request is one FITPACK grid
    call on that lattice, gathered back to the points; otherwise, and for
    non-finite coordinates, it is ``ev``.
    """
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    xs, ix = np.unique(x.ravel(), return_inverse=True)
    ys, iy = np.unique(y.ravel(), return_inverse=True)
    if (x.size == 0 or xs.size * ys.size > LATTICE_FACTOR * x.size
            or not np.isfinite([xs[0], xs[-1], ys[0], ys[-1]]).all()):
        return [sp.ev(x, y, dx=dx, dy=dy) for sp, dx, dy in requests]
    return [sp(xs, ys, dx=dx, dy=dy)[ix, iy].reshape(x.shape)
            for sp, dx, dy in requests]


def one_soliton(u, v):
    """The travelling-wave solution phi = 4 arctan(exp(u + v))."""
    return 4.0 * dm.atan(dm.exp(u + v))


class SampledAngle:
    """Angle field given by grid samples, differentiated via a quintic
    spline; interchangeable with a closed-form callable."""

    def __init__(self, u_axis, v_axis, values):
        u_axis = np.asarray(u_axis, dtype=float)
        v_axis = np.asarray(v_axis, dtype=float)
        k = min(5, len(u_axis) - 1, len(v_axis) - 1)
        self._spline = RectBivariateSpline(u_axis, v_axis,
                                           np.asarray(values, dtype=float),
                                           kx=k, ky=k)

    def jet(self, u, v):
        sp = self._spline
        return tuple(lattice_ev(u, v, [(sp, 0, 0), (sp, 1, 0), (sp, 0, 1),
                                       (sp, 1, 1)]))

    def __call__(self, u, v):
        return self.jet(u, v)[0]


def _phi_jet(phi, u, v):
    """(phi, phi_u, phi_v, phi_uv) at broadcastable points, each of their
    broadcast shape."""
    if isinstance(phi, SampledAngle):
        return phi.jet(u, v)
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    out = phi(dm.seed(u, 1.0, 0.0), dm.seed(v, 0.0, 1.0))
    parts = ((out.f, out.e1, out.e2, out.e12)
             if isinstance(out, dm.HyperDual) else (out, 0.0, 0.0, 0.0))
    return tuple(np.broadcast_to(np.asarray(a, float), u.shape)
                 for a in parts)


def sine_gordon_residual(phi, domain):
    """Max |phi_uv - sin(phi)| on a RESIDUAL_SAMPLES-square sample grid,
    plus the phi range."""
    us = np.linspace(*domain[0], RESIDUAL_SAMPLES)
    vs = np.linspace(*domain[1], RESIDUAL_SAMPLES)
    U, V = np.meshgrid(us, vs, indexing="ij")
    f, _, _, fuv = _phi_jet(phi, U, V)
    return float(np.max(np.abs(fuv - np.sin(f)))), \
        (float(np.min(f)), float(np.max(f)))


def _march(frame, phi, t0, t1, fixed, substeps, along_u):
    """March frames (rows F, Fu, Fv, N of ``frame``) from t0 to t1 in
    ``substeps`` RK4 steps along u (``along_u``) or v, the other coordinate
    frozen at ``fixed`` (a number, or an axis of points batched in the
    frames).

    Phi's jet comes from one call at the interval's 2 substeps + 1 stage
    abscissae, accumulated as a stepwise ``t += h`` would be (a step's
    ``t + h`` is the next step's ``t``).  With the rows reordered to
    (F, A, B, N), A the derivative along the march, both directions have
    the right-hand side (A, phi_t (cot A - B / sin), sin N, cot A - B / sin).
    """
    h = (t1 - t0) / substeps
    ts = [t0]
    for _ in range(substeps):
        ts += [ts[-1] + 0.5 * h, ts[-1] + h]
    t = np.reshape(ts, (-1,) + (1,) * np.ndim(fixed))
    f, fu, fv, _ = _phi_jet(phi, *((t, fixed) if along_u else (fixed, t)))
    s, c = np.sin(f), np.cos(f)
    cot, inv = (c / s)[..., None], (1.0 / s)[..., None]
    ft, s = (fu if along_u else fv)[..., None], s[..., None]

    def rhs(y, i):
        k = np.empty_like(y)
        k[0] = y[1]
        k[3] = cot[i] * y[1] - inv[i] * y[2]
        k[1] = ft[i] * k[3]
        k[2] = s[i] * y[3]
        return k

    order = [0, 1, 2, 3] if along_u else [0, 2, 1, 3]
    y = frame[order]
    half, sixth = 0.5 * h, h / 6.0
    for j in range(0, 2 * substeps, 2):
        k1 = rhs(y, j)
        k2 = rhs(y + half * k1, j + 1)
        k3 = rhs(y + half * k2, j + 1)
        k4 = rhs(y + h * k3, j + 2)
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[order]


@dataclass
class SineGordonSurface:
    """Sampled chart of an integrated pseudospherical surface."""

    phi: object
    domain: tuple
    u_axis: np.ndarray
    v_axis: np.ndarray
    F: np.ndarray                  # (res_u, res_v, 3) positions
    Fu: np.ndarray
    Fv: np.ndarray
    N: np.ndarray
    sg_residual: float
    monodromy_residual: float

    def expected_metric(self, U):
        """Closed-form first fundamental form [[1, cos phi], [cos phi, 1]]."""
        U = np.asarray(U, dtype=float)
        f, _, _, _ = _phi_jet(self.phi, U[..., 0], U[..., 1])
        g = np.empty(U.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = 1.0
        g[..., 0, 1] = g[..., 1, 0] = np.cos(f)
        return g

    def chart(self):
        splines = [RectBivariateSpline(self.u_axis, self.v_axis,
                                       self.F[..., k], kx=5, ky=5)
                   for k in range(3)]

        def f(u):
            return tuple(lattice_ev(u[0], u[1],
                                    [(sp, 0, 0) for sp in splines]))

        return ImmersionChart("sine_gordon_surface", f, 2, euclidean(3),
                              -1.0, self.domain, engine="fd",
                              supported_engines=("fd",))


def _count(name, value, least):
    """``value`` as an int of at least ``least``; a float must be
    integral."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got "
                         f"{value!r}")
    return n


def integrate_surface(phi, domain=DEFAULT_DOMAIN, resolution=161,
                      residual_tol=1e-6, substeps=4):
    """Integrate the frame system over a grid; see the module docstring.

    residual_tol bounds the sine-Gordon residual of phi; pass ``inf`` to
    integrate a non-solution deliberately (monodromy is then reported but
    not enforced).  A resolution (per axis) of at least 6 nodes gives the
    quintic spline chart; any other value raises ValueError.
    """
    if np.isscalar(resolution):
        resolution = (resolution,) * 2
    resolution = tuple(_count("resolution", r, 6) for r in resolution)
    substeps = _count("substeps", substeps, 1)
    if not residual_tol > 0:
        raise ValueError(f"residual_tol must be > 0 or inf, got "
                         f"{residual_tol!r}")
    res, rng = sine_gordon_residual(phi, domain)
    enforce = math.isfinite(residual_tol)
    if enforce and res > residual_tol:
        raise ModelConsistencyError(
            f"phi is not a sine-Gordon solution: residual {res:.3e} > "
            f"{residual_tol:.1e}")
    if rng[0] <= 0.0 or rng[1] >= math.pi:
        raise DomainError(
            f"phi range {rng} leaves (0, pi): coordinate curves degenerate")

    (u0, u1), (v0, v1) = domain
    u_axis = np.linspace(u0, u1, resolution[0])
    v_axis = np.linspace(v0, v1, resolution[1])

    f0 = float(np.asarray(_phi_jet(phi, u0, v0)[0]))
    frame = np.array([[0.0, 0.0, 0.0],                  # F
                      [1.0, 0.0, 0.0],                  # Fu
                      [math.cos(f0), math.sin(f0), 0.0],  # Fv
                      [0.0, 0.0, 1.0]])                 # N

    # down the first column in v, recording at every node
    column = [frame]
    for k in range(len(v_axis) - 1):
        column.append(_march(column[-1], phi, v_axis[k], v_axis[k + 1], u0,
                             substeps, along_u=False))

    # all rows at once in u
    rows = [np.stack(column, axis=1)]
    for k in range(len(u_axis) - 1):
        rows.append(_march(rows[-1], phi, u_axis[k], u_axis[k + 1], v_axis,
                           substeps, along_u=True))
    # four arrays, not one (4, res_u, res_v, 3) block: with the block, the
    # allocator left the verify run's peak RSS about 0.8 MB higher
    out = tuple(np.stack([r[j] for r in rows]) for j in range(4))

    # monodromy: re-integrate the far column in v from the far corner of
    # the first row and compare with the row-built column
    check = [np.stack([arr[-1, 0] for arr in out])]
    for k in range(len(v_axis) - 1):
        check.append(_march(check[-1], phi, v_axis[k], v_axis[k + 1], u1,
                            substeps, along_u=False))
    far = np.stack(check, axis=1)
    mono = max(float(np.max(np.abs(far[j] - arr[-1])))
               for j, arr in enumerate(out))
    if enforce and mono > MONODROMY_TOL:
        raise NumericalError(
            f"frame monodromy inconsistency {mono:.3e} across the grid "
            f"exceeds {MONODROMY_TOL:.1e}")
    return SineGordonSurface(phi, tuple(map(tuple, domain)), u_axis, v_axis,
                             *out, res, mono)
