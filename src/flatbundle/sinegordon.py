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
row in u at once.  Since the cross derivatives close the system only when
phi solves sine-Gordon, the residual is checked first and a monodromy pass
re-integrates the far column to measure the accumulated inconsistency.
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
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        ev = self._spline.ev
        return (ev(u, v), ev(u, v, dx=1), ev(u, v, dy=1),
                ev(u, v, dx=1, dy=1))

    def __call__(self, u, v):
        return self.jet(u, v)[0]


def _phi_jet(phi, u, v):
    """(phi, phi_u, phi_v, phi_uv) at broadcastable points."""
    if isinstance(phi, SampledAngle):
        return phi.jet(u, v)
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    out = phi(dm.seed(u, 1.0, 0.0), dm.seed(v, 0.0, 1.0))
    if isinstance(out, dm.HyperDual):
        return (np.asarray(out.f, float), np.asarray(out.e1, float),
                np.asarray(out.e2, float), np.asarray(out.e12, float))
    out = np.asarray(out, float)
    return out, np.zeros_like(out), np.zeros_like(out), np.zeros_like(out)


def sine_gordon_residual(phi, domain, samples=41):
    """Max |phi_uv - sin(phi)| on a sample grid, plus the phi range."""
    us = np.linspace(*domain[0], samples)
    vs = np.linspace(*domain[1], samples)
    U, V = np.meshgrid(us, vs, indexing="ij")
    f, _, _, fuv = _phi_jet(phi, U, V)
    return float(np.max(np.abs(fuv - np.sin(f)))), \
        (float(np.min(f)), float(np.max(f)))


def _deriv_u(state, u, v, phi):
    F, Fu, Fv, N = state
    f, fu, _, _ = _phi_jet(phi, u, v)
    s, c = np.sin(f), np.cos(f)
    cot, inv = (c / s)[..., None], (1.0 / s)[..., None]
    return (Fu,
            fu[..., None] * (cot * Fu - inv * Fv),
            s[..., None] * N,
            cot * Fu - inv * Fv)


def _deriv_v(state, u, v, phi):
    F, Fu, Fv, N = state
    f, _, fv, _ = _phi_jet(phi, u, v)
    s, c = np.sin(f), np.cos(f)
    cot, inv = (c / s)[..., None], (1.0 / s)[..., None]
    return (Fv,
            s[..., None] * N,
            fv[..., None] * (cot * Fv - inv * Fu),
            cot * Fv - inv * Fu)


def _rk4_march(state, fixed, t0, t1, nsteps, deriv, phi, along_u):
    """March a (batch of) frame states from t0 to t1 in nsteps RK4 steps.

    ``fixed`` is the frozen coordinate (v during a u-march and vice versa).
    """
    h = (t1 - t0) / nsteps
    t = t0

    def rhs(st, tt):
        return deriv(st, tt if along_u else fixed,
                     fixed if along_u else tt, phi)

    for _ in range(nsteps):
        k1 = rhs(state, t)
        k2 = rhs(tuple(y + 0.5 * h * k for y, k in zip(state, k1)), t + 0.5 * h)
        k3 = rhs(tuple(y + 0.5 * h * k for y, k in zip(state, k2)), t + 0.5 * h)
        k4 = rhs(tuple(y + h * k for y, k in zip(state, k3)), t + h)
        state = tuple(y + (h / 6.0) * (a + 2 * b + 2 * c + d)
                      for y, a, b, c, d in zip(state, k1, k2, k3, k4))
        t += h
    return state


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
            x, y = np.broadcast_arrays(np.asarray(u[0], float),
                                       np.asarray(u[1], float))
            return tuple(sp.ev(x, y) for sp in splines)

        return ImmersionChart("sine_gordon_surface", f, 2, euclidean(3),
                              -1.0, self.domain, engine="fd",
                              supported_engines=("fd",))


def integrate_surface(phi, domain=DEFAULT_DOMAIN, resolution=161,
                      residual_tol=1e-6, substeps=4):
    """Integrate the frame system over a grid; see the module docstring.

    residual_tol bounds the sine-Gordon residual of phi; pass ``inf`` to
    integrate a non-solution deliberately (monodromy is then reported but
    not enforced).
    """
    if np.isscalar(resolution):
        resolution = (int(resolution),) * 2
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
    state = (np.zeros(3),
             np.array([1.0, 0.0, 0.0]),
             np.array([math.cos(f0), math.sin(f0), 0.0]),
             np.array([0.0, 0.0, 1.0]))

    # down the first column in v, recording at every node
    column = [state]
    for k in range(len(v_axis) - 1):
        column.append(_rk4_march(column[-1], u0, v_axis[k], v_axis[k + 1],
                                 substeps, _deriv_v, phi, along_u=False))
    col = tuple(np.stack([st[j] for st in column]) for j in range(4))

    # all rows at once in u
    rows = [col]
    for k in range(len(u_axis) - 1):
        rows.append(_rk4_march(rows[-1], v_axis, u_axis[k], u_axis[k + 1],
                               substeps, _deriv_u, phi, along_u=True))
    F, Fu, Fv, N = (np.stack([st[j] for st in rows]) for j in range(4))

    # monodromy: re-integrate the far column in v from the far corner of
    # the first row and compare with the row-built column
    check = [tuple(arr[-1, 0] for arr in (F, Fu, Fv, N))]
    for k in range(len(v_axis) - 1):
        check.append(_rk4_march(check[-1], u1, v_axis[k], v_axis[k + 1],
                                substeps, _deriv_v, phi, along_u=False))
    mono = max(float(np.max(np.abs(np.stack([st[j] for st in check])
                                   - arr[-1])))
               for j, arr in enumerate((F, Fu, Fv, N)))
    if enforce and mono > MONODROMY_TOL:
        raise NumericalError(
            f"frame monodromy inconsistency {mono:.3e} across the grid "
            f"exceeds {MONODROMY_TOL:.1e}")
    return SineGordonSurface(phi, tuple(map(tuple, domain)), u_axis, v_axis,
                             F, Fu, Fv, N, res, mono)


def build_sine_gordon_entry(phi=None, domain=None, resolution=161,
                            residual_tol=1e-6, substeps=4):
    from .catalog import CatalogEntry
    phi = one_soliton if phi is None else phi
    domain = DEFAULT_DOMAIN if domain is None else domain
    surf = integrate_surface(phi, domain, resolution, residual_tol, substeps)
    return CatalogEntry(
        "sine_gordon_surface", surf.chart(),
        expected=dict(flat_normal_bundle=True, C_positive=True, s=2),
        notes="integrated from an asymptotic-coordinate angle field; "
              "metric du^2 + 2 cos(phi) du dv + dv^2",
        params=dict(surface=surf, sg_residual=surf.sg_residual,
                    monodromy_residual=surf.monodromy_residual,
                    resolution=resolution, substeps=substeps))
