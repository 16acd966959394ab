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
row in u at once.  A column march evaluates phi's jet once, at every RK4
stage abscissa of the column, and steps its single frame as Python
floats; the row march evaluates it once per grid interval, at that
interval's stage abscissae on every row, and steps all rows in place.
Both give the bits of a plain numpy march.  Since the cross derivatives
close the system only when phi solves sine-Gordon, the residual is
checked first and a monodromy pass re-integrates the far column to
measure the accumulated inconsistency.

The sampled chart and a sampled angle are quintic splines: FITPACK's
interpolant, built and evaluated in numpy (:class:`QuinticSpline`).  A
batch of points that is a C-order grid (or a grid shifted by a
finite-difference stencil) is evaluated on its axes; one whose distinct
coordinates form a small lattice, on that lattice, gathered.  Both give
the same bits as evaluating point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .charts import ImmersionChart, euclidean
from .errors import DomainError, ModelConsistencyError, NumericalError

DEFAULT_DOMAIN = ((-1.6, -0.4), (-1.6, -0.4))
MONODROMY_TOL = 1e-6
RESIDUAL_SAMPLES = 41    # samples per axis of the sine-Gordon residual grid
# the (d/du, d/dv) orders of phi's jet: phi, phi_u, phi_v, phi_uv
JET_ORDERS = ((0, 0), (1, 0), (0, 1), (1, 1))
# A lattice of distinct coordinates up to this many times the point count
# is evaluated on the lattice and gathered (a sampled angle's column march
# batch: 0.5 ms where point by point takes 1.4 ms).
LATTICE_FACTOR = 4


def _c_lattice(x, y):
    """The axes (xs, ys) when the flat points (x, y) are the C-order
    lattice of strictly increasing finite axes xs and ys (x slow), else
    None; O(len(x))."""
    ny = int((x != x[0]).argmax()) or x.size
    if x.size % ny:
        return None
    X, Y = x.reshape(-1, ny), y.reshape(-1, ny)
    xs, ys = X[:, 0], Y[0]
    for a in (xs, ys):
        if not (np.isfinite(a[[0, -1]]).all() and (a[1:] > a[:-1]).all()):
            return None
    if (X == xs[:, None]).all() and (Y == ys).all():
        return xs, ys
    return None


def _knots(x, k):
    """FITPACK's knots for the s = 0 interpolant of degree k at the nodes
    x: k + 1 fold ends, and interior knots at the nodes x[k // 2 + 1:
    -(k // 2 + 1)] (odd k) or midway between nodes (even k)."""
    m = k // 2 + 1
    inner = (x[m:x.size - m] if k % 2
             else 0.5 * (x[m - 1:x.size - m] + x[m:x.size - m + 1]))
    return np.concatenate([[x[0]] * (k + 1), inner, [x[-1]] * (k + 1)])


def _basis(t, k, x):
    """The B-splines of degree k on the knots t that may be nonzero at
    the points x: (l, b), where b[d, i] is the d-th derivative (d = 0, 1)
    of B_{l + i} at x, b a (2, k + 1, len(x)) array.

    x is clamped to the end knots, as FITPACK clamps it, and the values
    come from FITPACK's recursion (fpbspl); each operation is elementwise,
    so a point's basis does not depend on the other points.
    """
    x = np.minimum(np.maximum(x, t[k]), t[-k - 1])
    l = np.minimum(np.maximum(np.searchsorted(t, x, side="right") - 1, k),
                   t.size - k - 2)
    T = t[l + np.arange(1 - k, k + 1)[:, None]]     # T[s] = t[l + 1 - k + s]
    left, right = x - T[:k], T[k:] - x
    h = np.ones((1, x.size))
    for j in range(1, k + 1):
        f = h / (T[k:k + j] - T[k - j:k])
        h = np.empty((j + 1, x.size))
        h[:j] = f * right[:j]
        h[j] = f[j - 1] * left[k - 1]
        h[1:j] += f[:j - 1] * left[k - j:k - 1]
    # B'_{l+i,k} = k (B_{l+i,k-1} / (t_{l+i+k} - t_{l+i}) - B_{l+i+1,k-1} /
    # (t_{l+i+k+1} - t_{l+i+1})), and the last step's f are those quotients
    b = np.empty((2,) + h.shape)
    b[0] = h
    b[1, 0] = -(k * f[0])
    b[1, 1:k] = k * (f[:-1] - f[1:])
    b[1, k] = k * f[k - 1]
    return l - k, b


class QuinticSpline:
    """FITPACK's s = 0 tensor-product interpolant of degree k (quintic by
    default; ``RectBivariateSpline(x, y, z, kx=k, ky=k)``) of several
    surfaces z (components, len(x), len(y)) sampled on the nodes x, y,
    in numpy.

    The coefficients come from two collocation solves.  A call evaluates
    every component at once, from one basis per axis; it contracts x
    first, then y, each sum term by term in index order.  A batch that is
    a C-order lattice (a grid, or a grid moved by a finite-difference
    stencil) is contracted on its axes; one whose distinct coordinates
    span a lattice of at most LATTICE_FACTOR times its size, on that
    lattice, gathered; any other runs the same operations point by point.
    So a point gets the same bits whatever batch it arrives in.
    """

    def __init__(self, x, y, z, k=5):
        x, y = np.asarray(x, float), np.asarray(y, float)
        self.k = k
        self.tx, self.ty = _knots(x, k), _knots(y, k)
        bx, by = (np.zeros((a.size, a.size)) for a in (x, y))
        for b, t, a in ((bx, self.tx, x), (by, self.ty, y)):
            l, v = _basis(t, k, a)
            b[np.arange(a.size), l + np.arange(k + 1)[:, None]] = v[0]
        c = np.linalg.solve(bx, np.asarray(z, float))
        c = np.linalg.solve(by, c.transpose(0, 2, 1))
        self.c = np.ascontiguousarray(c.transpose(0, 2, 1))

    def __call__(self, x, y, orders=((0, 0),)):
        """The (dx, dy) partial derivatives (orders 0 and 1) of every
        component at the broadcast points (x, y): an array (len(orders),
        components) + their shape."""
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        flat = x.ravel(), y.ravel()
        axes = _c_lattice(*flat) if x.size else None
        if axes is None and x.size:
            xs, ix = np.unique(flat[0], return_inverse=True)
            ys, iy = np.unique(flat[1], return_inverse=True)
            if (xs.size * ys.size <= LATTICE_FACTOR * x.size
                    and np.isfinite([xs[0], xs[-1], ys[0], ys[-1]]).all()):
                return self(xs[:, None], ys, orders)[:, :, ix, iy].reshape(
                    (len(orders), len(self.c)) + x.shape)
        k, c = self.k, self.c
        (lx, bx), (ly, by) = (_basis(t, k, a) for t, a
                              in zip((self.tx, self.ty), axes or flat))
        dx, dy = (list(d) for d in zip(*orders))
        bx = bx[dx][:, :, None, :, None]      # (orders, k + 1, 1, x, 1)
        if axes is not None:          # the lattice's rows, then columns
            c = c[:, lx[0]:lx[-1] + k + 1, ly[0]:ly[-1] + k + 1]
            lx, ly = lx - lx[0], ly - ly[0]
            rows = [(slice(None), lx + i) for i in range(k + 1)]
            cols = [ly + j for j in range(k + 1)]
            by = by[dy][:, :, None, None, :]
        else:                         # each point's (k + 1)^2 coefficients
            near = ly[:, None] + np.arange(k + 1)
            rows = [(slice(None), (lx + i)[:, None], near)
                    for i in range(k + 1)]
            cols = list(range(k + 1))
            by = by[dy][:, :, None, :]
        w = c[rows[0]] * bx[:, 0]
        for i in range(1, k + 1):
            w += c[rows[i]] * bx[:, i]
        out = w[..., cols[0]] * by[:, 0]
        for j in range(1, k + 1):
            out += w[..., cols[j]] * by[:, j]
        return out.reshape((len(orders), len(c)) + x.shape)


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
        self._spline = QuinticSpline(u_axis, v_axis,
                                     np.asarray(values, dtype=float)[None],
                                     k=k)

    def jet(self, u, v):
        return tuple(self._spline(u, v, JET_ORDERS)[:, 0])

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


def _stages(axis, substeps):
    """Each interval of ``axis``: its RK4 step h, and its 2 substeps + 1
    stage abscissae accumulated as a stepwise ``t += h`` would be (a step's
    ``t + h`` is the next step's ``t``), as one (intervals, 2 substeps + 1)
    array."""
    hs, ts = [], []
    for t0, t1 in zip(axis[:-1].tolist(), axis[1:].tolist()):
        h = (t1 - t0) / substeps
        t = [t0]
        for _ in range(substeps):
            t += [t[-1] + 0.5 * h, t[-1] + h]
        hs.append(h)
        ts.append(t)
    return hs, np.array(ts)


# With the frame rows reordered to (F, A, B, N), A the derivative along the
# march, both directions have the right-hand side
# (A, phi_t (cot A - B / sin), sin N, cot A - B / sin), evaluated in that
# operation order by both marches below.

def _march_column(frame, phi, axis, u, substeps):
    """March ``frame`` (rows F, Fu, Fv, N) in v down ``axis`` at u = ``u``:
    the frames at every node, a component-major (4, 3, len(axis)) array.

    Phi's jet comes from one call at every stage abscissa of the axis.  A
    single frame is too small for numpy to pay off, so each of its three
    components is stepped as four Python floats, with the operations of
    the row march in its order (so the same bits).  The slope of F at a
    stage is that stage's A.
    """
    hs, ts = _stages(axis, substeps)
    f, _, fv, _ = _phi_jet(phi, u, ts)
    s = np.sin(f)
    coef = np.stack((np.cos(f) / s, 1.0 / s, fv, s), axis=-1).tolist()

    def rhs(A, B, N, c):
        """The slopes of A, B and N at coefficients c."""
        cot, inv, ft, s = c
        d = cot * A - inv * B
        return ft * d, s * N, d

    out = np.empty((4, 3, len(axis)))
    for j in range(3):
        F, B, A, N = frame[:, j].tolist()       # A = Fv along v
        nodes = [(F, A, B, N)]
        for h, c in zip(hs, coef):
            half, sixth = 0.5 * h, h / 6.0
            for i in range(0, 2 * substeps, 2):
                a1, b1, n1 = rhs(A, B, N, c[i])
                A2, B2, N2 = A + half * a1, B + half * b1, N + half * n1
                a2, b2, n2 = rhs(A2, B2, N2, c[i + 1])
                A3, B3, N3 = A + half * a2, B + half * b2, N + half * n2
                a3, b3, n3 = rhs(A3, B3, N3, c[i + 1])
                A4, B4, N4 = A + h * a3, B + h * b3, N + h * n3
                a4, b4, n4 = rhs(A4, B4, N4, c[i + 2])
                F = F + sixth * (A + 2 * A2 + 2 * A3 + A4)
                A = A + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
                B = B + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
                N = N + sixth * (n1 + 2 * n2 + 2 * n3 + n4)
            nodes.append((F, A, B, N))
        out[[0, 2, 1, 3], j] = np.array(nodes).T
    return out


def _march_rows(column, phi, axis, v, substeps):
    """March the frames ``column`` (component-major (4, 3, len(v)), rows
    F, Fu, Fv, N) in u across ``axis``, every row at once: the four
    (len(axis), len(v), 3) arrays F, Fu, Fv, N over the grid.

    Phi's jet is evaluated once per interval, at its stage abscissae on
    every row together.  The state is stepped in place in preallocated
    buffers, each ufunc on operands of one shape (broadcasting a
    coefficient row over the three components costs more than copying it
    once per interval).
    """
    hs, ts = _stages(axis, substeps)
    y = column.copy()
    k, yt, acc = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    tmp = np.empty_like(y[0])
    y_rows, yt_rows = tuple(y), tuple(yt)
    k_rows, acc_rows = tuple(k), tuple(acc)
    # (cot, 1 / sin, phi_u, sin) at each stage, repeated per component
    coefs = np.empty((2 * substeps + 1, 4) + y[0].shape)
    coef = [tuple(c) for c in coefs]
    # four arrays, not one (4, res_u, res_v, 3) block: with the block, the
    # allocator left the verify run's peak RSS about 0.8 MB higher
    out = tuple(np.empty((len(axis), len(v), 3)) for _ in range(4))

    def rhs(state, i, into):
        """The right-hand side at ``state`` and stage ``i``, into the rows
        ``into``."""
        cot, inv, ft, s = coef[i]
        _, A, B, N = state
        kF, kA, kB, kN = into
        np.copyto(kF, A)
        np.multiply(cot, A, out=kN)
        np.multiply(inv, B, out=tmp)
        np.subtract(kN, tmp, out=kN)
        np.multiply(ft, kN, out=kA)
        np.multiply(s, N, out=kB)

    def stage(d, c):
        """``y + c * d`` into ``yt``."""
        np.multiply(d, c, out=yt)
        np.add(y, yt, out=yt)

    def accumulate():
        """``acc + 2 * k`` into ``acc``."""
        np.multiply(k, 2.0, out=yt)
        np.add(acc, yt, out=acc)

    for j in range(4):
        out[j][0] = y[j].T
    for n, (h, t) in enumerate(zip(hs, ts)):
        f, ft, _, _ = _phi_jet(phi, t[:, None], v)
        s = np.sin(f)
        np.copyto(coefs, np.stack((np.cos(f) / s, 1.0 / s, ft, s),
                                  axis=1)[:, :, None])
        half, sixth = 0.5 * h, h / 6.0
        for i in range(0, 2 * substeps, 2):
            # acc gathers k1 + 2 k2 + 2 k3 + k4, added in that order
            rhs(y_rows, i, acc_rows)
            stage(acc, half)
            rhs(yt_rows, i + 1, k_rows)
            accumulate()
            stage(k, half)
            rhs(yt_rows, i + 1, k_rows)
            accumulate()
            stage(k, h)
            rhs(yt_rows, i + 2, k_rows)
            acc += k
            acc *= sixth
            y += acc
        for j in range(4):
            out[j][n + 1] = y[j].T
    return out


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
        spline = QuinticSpline(self.u_axis, self.v_axis,
                               self.F.transpose(2, 0, 1))

        def f(u):
            return tuple(spline(u[0], u[1])[0])

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


def _resolution(resolution):
    """Nodes per axis: one integer for both, or two, each at least 6."""
    if np.isscalar(resolution):
        resolution = (resolution,) * 2
    try:
        nu, nv = resolution
    except (TypeError, ValueError):
        raise ValueError(f"resolution must be one integer or two, got "
                         f"{resolution!r}") from None
    return _count("resolution", nu, 6), _count("resolution", nv, 6)


def _domain(domain):
    """``domain`` as ((u0, u1), (v0, v1)), finite with u0 < u1, v0 < v1."""
    try:
        d = np.asarray(domain, dtype=float)
    except (TypeError, ValueError):
        d = None
    if (d is None or d.shape != (2, 2) or not np.isfinite(d).all()
            or not (d[:, 0] < d[:, 1]).all()):
        raise ValueError(f"domain must be two finite increasing intervals "
                         f"((u0, u1), (v0, v1)), got {domain!r}")
    return tuple(map(tuple, d.tolist()))


def integrate_surface(phi, domain=DEFAULT_DOMAIN, resolution=161,
                      residual_tol=1e-6, substeps=4):
    """Integrate the frame system over a grid; see the module docstring.

    residual_tol bounds the sine-Gordon residual of phi; pass ``inf`` to
    integrate a non-solution deliberately (monodromy is then reported but
    not enforced).  The domain is two finite increasing intervals, and a
    resolution (one for both axes, or one per axis) of at least 6 nodes
    gives the quintic spline chart; anything else raises ValueError.
    """
    domain = _domain(domain)
    resolution = _resolution(resolution)
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

    # down the first column in v, then along every row in u at once
    column = _march_column(frame, phi, v_axis, u0, substeps)
    out = _march_rows(column, phi, u_axis, v_axis, substeps)

    # monodromy: re-integrate the far column in v from the far corner of
    # the first row and compare with the row-built column
    far = _march_column(np.stack([arr[-1, 0] for arr in out]), phi, v_axis,
                        u1, substeps)
    mono = max(float(np.max(np.abs(far[j].T - arr[-1])))
               for j, arr in enumerate(out))
    if enforce and mono > MONODROMY_TOL:
        raise NumericalError(
            f"frame monodromy inconsistency {mono:.3e} across the grid "
            f"exceeds {MONODROMY_TOL:.1e}")
    return SineGordonSurface(phi, domain, u_axis, v_axis, *out, res, mono)
