"""Ambient space-form models and immersion charts."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import engines
from .errors import DomainError, ModelConsistencyError

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"

MODEL_TOL = 1e-9


@dataclass(frozen=True)
class AmbientModel:
    """A space form presented inside a flat (or Lorentzian) container.

    * euclidean: the container itself, curvature 0.
    * sphere: {<x,x> = 1/c~} in Euclidean R^(m+1), c~ > 0.
    * hyperbolic: upper sheet of {<x,x> = 1/c~} in Lorentzian R^(m,1)
      (one minus sign, last coordinate), c~ < 0.
    """

    kind: str
    curvature: float
    embedding_dimension: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, SPHERE, HYPERBOLIC):
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        c = self.curvature
        ok = {EUCLIDEAN: c == 0.0, SPHERE: 0.0 < c < np.inf,
              HYPERBOLIC: -np.inf < c < 0.0}
        if not ok[self.kind]:
            raise ValueError(
                f"{self.kind} ambient requires curvature sign constraint, got {c}")

    @property
    def flat(self):
        return self.kind == EUCLIDEAN

    @functools.cached_property
    def signature(self):
        """Diagonal of the container metric (built once, read-only)."""
        s = np.ones(self.embedding_dimension)
        if self.kind == HYPERBOLIC:
            s[-1] = -1.0
        s.flags.writeable = False
        return s

    def inner(self, u, v):
        """Container inner product along the last axis (broadcasts)."""
        return np.einsum("...k,...k->...", u * self.signature, v)

    def constraint_residual(self, x):
        """|<x,x> - 1/c~| relative to max(1, sum x_k^2), the rounding scale
        of <x,x> (on a sphere, max(1, 1/c~)); zero array for the flat kind."""
        if self.flat:
            return np.zeros(np.shape(x)[:-1])
        return np.abs(self.inner(x, x) - 1.0 / self.curvature) \
            / np.maximum(1.0, np.sum(x * x, axis=-1))


def euclidean(m):
    return AmbientModel(EUCLIDEAN, 0.0, m)


def sphere(c, m):
    return AmbientModel(SPHERE, c, m + 1)


def hyperbolic(c, m):
    return AmbientModel(HYPERBOLIC, c, m + 1)


@dataclass(frozen=True)
class ImmersionChart:
    """A parametric immersion of a box in R^n into an ambient space form.

    ``map`` takes a sequence of n coordinate scalars (floats, arrays or
    hyper-duals) and returns the container coordinates; writing it with the
    :mod:`flatbundle.dual` math functions makes it AD-differentiable.
    ``engine`` (``ad`` or ``fd``) is how every layer differentiates the
    chart; ``dataclasses.replace(chart, engine="fd")`` switches it among
    ``supported_engines``, the engines that can differentiate ``map``.
    """

    name: str
    map: object
    n: int
    ambient: AmbientModel
    c: object            # asserted intrinsic curvature, or None if unasserted
    domain: tuple        # per-axis (lo, hi)
    periodic: tuple = None
    engine: str = engines.AD
    supported_engines: tuple = engines.ENGINES

    def __post_init__(self):
        if self.periodic is None:
            object.__setattr__(self, "periodic", (False,) * self.n)
        if self.n < 2:
            raise ValueError(f"{self.name}: chart dimension n = {self.n}; "
                             "the curvature identities need n >= 2")
        if len(self.domain) != self.n or len(self.periodic) != self.n:
            raise ValueError("domain/periodic length must equal n")
        if self.engine not in self.supported_engines:
            raise ValueError(
                f"engine {self.engine!r} cannot differentiate {self.name}; "
                f"supported: {', '.join(self.supported_engines)}")

    @property
    def C(self):
        """Curvature gap c~ - c of the theorem, or None if c is unasserted."""
        if self.c is None:
            return None
        return self.ambient.curvature - self.c

    @property
    def codimension(self):
        radial = 0 if self.ambient.flat else 1
        return self.ambient.embedding_dimension - self.n - radial

    def fd_step(self):
        return engines.fd_step(self.domain)

    def usable_domain(self):
        """Declared domain shrunk by the stencil radius on non-periodic axes."""
        if self.engine == engines.AD:
            return tuple(self.domain)
        h = self.fd_step()
        out = []
        for k, (lo, hi) in enumerate(self.domain):
            if self.periodic[k]:
                out.append((lo, hi))
            else:
                pad = engines.STENCIL_RADIUS * h[k]
                out.append((lo + pad, hi - pad))
        return tuple(out)

    def contains(self, u):
        """Whether each point of u (..., n) lies in the usable domain."""
        u = np.asarray(u, dtype=float)
        ok = np.isfinite(u).all(axis=-1)      # NaN or inf: outside, any axis
        for k, (lo, hi) in enumerate(self.usable_domain()):
            if self.periodic[k]:
                continue
            ok &= (u[..., k] >= lo - 1e-12) & (u[..., k] <= hi + 1e-12)
        return ok

    def jet(self, u):
        """The map's 2-jet at points u (..., n): the one entry point to the
        map.  A point outside the usable domain raises
        :class:`DomainError`; on a sphere or hyperboloid ambient, an image
        off the model raises :class:`ModelConsistencyError`."""
        u = np.asarray(u, dtype=float)
        outside = ~self.contains(u)
        if np.any(outside):
            raise DomainError(f"point {u[outside][0].tolist()} is outside "
                              f"the usable domain of {self.name}")
        h = self.fd_step() if self.engine == engines.FD else None
        J = engines.jet(self.map, u, self.n, engine=self.engine, h=h)
        if not self.ambient.flat:
            res = self.ambient.constraint_residual(J.value)
            worst = float(np.max(res)) if res.size else 0.0
            if worst > MODEL_TOL:
                raise ModelConsistencyError(
                    f"{self.name}: model constraint residual {worst:.3e}")
        return J
