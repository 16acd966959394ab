"""Differentiation engines for immersion charts.

Two interchangeable back ends compute the 2-jet (value, first and second
container derivatives) of a chart map at a batch of parameter points:

* ``"ad"``  -- hyper-dual forward automatic differentiation; exact to
  rounding for charts written with :mod:`flatbundle.dual` math functions.
* ``"fd"``  -- central finite differences of order 4 for black-box maps,
  with step ``h = span * 1e-3`` per axis.

Every report records which engine produced it; the default residual
tolerances (1e-8 for AD, 1e-4 for FD) match the truncation error of each.
"""

from __future__ import annotations

import numpy as np

from .dual import HyperDual, seed

AD = "ad"
FD = "fd"
ENGINES = (AD, FD)

DEFAULT_TOL = {AD: 1e-8, FD: 1e-4}

# 5-point central first-derivative stencil, order 4
_D1_OFFSETS = (-2, -1, 1, 2)
_D1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
# same-axis second derivative, order 4
_D2_OFFSETS = (-2, -1, 0, 1, 2)
_D2_WEIGHTS = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0,
               16.0 / 12.0, -1.0 / 12.0)

STENCIL_RADIUS = 2


def fd_step(domain):
    """Per-axis finite-difference step: (domain span) * 1e-3."""
    return np.array([(hi - lo) * 1e-3 for lo, hi in domain])


class Jet:
    """2-jet of a chart map over a batch of points.

    Attributes
    ----------
    value : (..., N) container coordinates
    first : (..., n, N) partial derivatives d F / d u_i
    second : (..., n, n, N) partials d^2 F / d u_i d u_j (symmetric)
    """

    def __init__(self, value, first, second):
        self.value = value
        self.first = first
        self.second = second


def evaluate(chart_map, U):
    """Plain evaluation of the map at points U of shape (..., n)."""
    U = np.asarray(U, dtype=float)
    coords = [U[..., k] for k in range(U.shape[-1])]
    out = chart_map(coords)
    batch = U.shape[:-1]
    cols = [np.broadcast_to(np.asarray(c, dtype=float), batch) for c in out]
    return np.stack(cols, axis=-1)


def jet(chart_map, U, n, engine=AD, h=None):
    """Compute the 2-jet at points ``U`` (shape (..., n))."""
    U = np.asarray(U, dtype=float)
    if U.shape[-1] != n:
        raise ValueError(f"points have {U.shape[-1]} coordinates, chart has {n}")
    if engine == AD:
        return _jet_ad(chart_map, U, n)
    if engine == FD:
        if h is None:
            raise ValueError("finite-difference engine requires a step h")
        return _jet_fd(chart_map, U, n, np.asarray(h, dtype=float))
    raise ValueError(f"unknown engine {engine!r}")


def _jet_ad(chart_map, U, n):
    """All seed pairs i <= j in one hyper-dual pass (pair p on a leading
    axis of the perturbation slots), so the value slot is evaluated once."""
    batch = U.shape[:-1]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    d1 = np.array([[float(k == i) for i, _ in pairs] for k in range(n)])
    d2 = np.array([[float(k == j) for _, j in pairs] for k in range(n)])
    flat = U.reshape(-1, n)
    m = flat.shape[0]
    out = chart_map([seed(flat[:, k], d1[k][:, None], d2[k][:, None])
                     for k in range(n)])
    N = len(out)
    value = np.empty((m, N))
    first = np.empty((m, n, N))
    second = np.empty((m, n, n, N))
    for c, comp in enumerate(out):
        if not isinstance(comp, HyperDual):
            comp = HyperDual(comp)
        value[:, c] = comp.f
        e1, e2, e12 = (np.broadcast_to(e, (len(pairs), m))
                       for e in (comp.e1, comp.e2, comp.e12))
        for p, (i, j) in enumerate(pairs):
            first[:, i, c] = e1[p]
            first[:, j, c] = e2[p]
            second[:, i, j, c] = e12[p]
            second[:, j, i, c] = e12[p]
    return Jet(value.reshape(batch + (N,)), first.reshape(batch + (n, N)),
               second.reshape(batch + (n, n, N)))


def _shifted(U, i, di, h):
    V = U.copy()
    V[..., i] = V[..., i] + di * h[i]
    return V


def _jet_fd(chart_map, U, n, h):
    batch = U.shape[:-1]
    value = evaluate(chart_map, U)
    N = value.shape[-1]
    F1 = np.zeros(batch + (n, N))
    F2 = np.zeros(batch + (n, n, N))
    cache = {}

    def ev(shifts):
        key = shifts
        if key not in cache:
            V = U.copy()
            for i, di in shifts:
                V = _shifted(V, i, di, h)
            cache[key] = evaluate(chart_map, V)
        return cache[key]

    cache[()] = value
    for i in range(n):
        acc = np.zeros_like(value)
        for off, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
            acc += w * ev(((i, off),))
        F1[..., i, :] = acc / h[i]
        acc2 = np.zeros_like(value)
        for off, w in zip(_D2_OFFSETS, _D2_WEIGHTS):
            acc2 += w * ev(((i, off),) if off else ())
        F2[..., i, i, :] = acc2 / (h[i] * h[i])
    for i in range(n):
        for j in range(i + 1, n):
            acc = np.zeros_like(value)
            for oi, wi in zip(_D1_OFFSETS, _D1_WEIGHTS):
                for oj, wj in zip(_D1_OFFSETS, _D1_WEIGHTS):
                    acc += wi * wj * ev(((i, oi), (j, oj)))
            mixed = acc / (h[i] * h[j])
            F2[..., i, j, :] = mixed
            F2[..., j, i, :] = mixed
    return Jet(value, F1, F2)
