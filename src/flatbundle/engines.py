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

import functools

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


def _jet_fd(chart_map, U, n, h):
    """Order-4 stencils over the map's values at U moved by whole steps;
    each moved point set is evaluated once, the unmoved one first."""
    @functools.cache
    def at(*moves):
        V = U.copy()
        for i, k in moves:
            V[..., i] = V[..., i] + k * h[i]
        return evaluate(chart_map, V)

    def stencil(terms, scale):
        """sum of w * F(U moved by moves) over terms, divided by scale."""
        acc = np.zeros_like(value)
        for w, moves in terms:
            acc += w * at(*moves)
        return acc / scale

    value = at()
    d1 = tuple(zip(_D1_OFFSETS, _D1_WEIGHTS))
    F1 = np.empty(value.shape[:-1] + (n,) + value.shape[-1:])
    F2 = np.empty(value.shape[:-1] + (n, n) + value.shape[-1:])
    for i in range(n):
        F1[..., i, :] = stencil([(w, ((i, o),)) for o, w in d1], h[i])
    for i in range(n):
        F2[..., i, i, :] = stencil(
            [(w, ((i, o),) if o else ())
             for o, w in zip(_D2_OFFSETS, _D2_WEIGHTS)], h[i] * h[i])
        for j in range(i + 1, n):
            F2[..., i, j, :] = F2[..., j, i, :] = stencil(
                [(wi * wj, ((i, oi), (j, oj)))
                 for oi, wi in d1 for oj, wj in d1], h[i] * h[j])
    return Jet(value, F1, F2)
