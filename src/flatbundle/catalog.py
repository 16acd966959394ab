"""Closed-form example immersions with known ground truth, plus negative
controls.  Every asserted property is re-derived by the verification
modules at test time; the catalog carries no unverified claims."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dual as dm
from .charts import ImmersionChart, euclidean, hyperbolic, sphere


@dataclass(frozen=True)
class CatalogEntry:
    chart: ImmersionChart
    expected: dict = field(default_factory=dict)
    notes: str = ""
    params: dict = field(default_factory=dict)


def pseudosphere():
    """Tractrix surface of revolution in R^3: c = -1, C = 1, p = 1."""
    def f(u):
        return (dm.sech(u[0]) * dm.cos(u[1]),
                dm.sech(u[0]) * dm.sin(u[1]),
                u[0] - dm.tanh(u[0]))
    chart = ImmersionChart("pseudosphere", f, 2, euclidean(3), -1.0,
                           ((0.3, 3.0), (0.0, 2.0 * math.pi)), (False, True))
    return CatalogEntry(
        chart, expected=dict(flat_normal_bundle=True, C_positive=True, s=2),
        notes="principal curvatures -1/sinh(u), sinh(u); k1 k2 = -1")


def dini(a=1.0, b=0.5):
    """Helicoidal pseudospherical surface, K = -1/(a^2 + b^2)."""
    if not (0 < a < math.inf and 0 <= b < math.inf):
        raise ValueError("dini needs finite a > 0 and b >= 0")
    def f(u):
        return (a * dm.cos(u[0]) * dm.sin(u[1]),
                a * dm.sin(u[0]) * dm.sin(u[1]),
                a * (dm.cos(u[1]) + dm.log(dm.tan(u[1] / 2.0))) + b * u[0])
    c = -1.0 / (a * a + b * b)
    chart = ImmersionChart("dini", f, 2, euclidean(3), c,
                           ((0.0, 2.0 * math.pi), (0.3, 1.2)))
    return CatalogEntry(
        chart, expected=dict(flat_normal_bundle=True, C_positive=True, s=2),
        notes="b = 0 degenerates to a rescaled pseudosphere")


def product_torus_r4(r1=1.0, r2=0.5):
    """Product of two circles in R^4: flat, C = 0 edge case; lambdas exist
    only in exploratory mode."""
    if not (0 < r1 < math.inf and 0 < r2 < math.inf):
        raise ValueError("product torus needs finite positive radii")
    def f(u):
        return (r1 * dm.cos(u[0]), r1 * dm.sin(u[0]),
                r2 * dm.cos(u[1]), r2 * dm.sin(u[1]))
    chart = ImmersionChart("product_torus_r4", f, 2, euclidean(4), 0.0,
                           ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
                           (True, True))
    return CatalogEntry(
        chart, expected=dict(flat_normal_bundle=True, C_positive=False, s=2),
        notes="|eta_i| = 1/r_i, factor normals orthogonal")


def clifford_torus_s3(t=math.pi / 4):
    """Flat torus in the unit 3-sphere: c = 0 < ctilde = 1, C = 1."""
    if not 0.0 < t < math.pi / 2:
        raise ValueError("clifford torus needs t in (0, pi/2)")
    ct, st = math.cos(t), math.sin(t)
    def f(u):
        return (ct * dm.cos(u[0]), ct * dm.sin(u[0]),
                st * dm.cos(u[1]), st * dm.sin(u[1]))
    chart = ImmersionChart("clifford_torus_s3", f, 2, sphere(1.0, 3), 0.0,
                           ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
                           (True, True))
    return CatalogEntry(
        chart, expected=dict(flat_normal_bundle=True, C_positive=True, s=2),
        notes="principal curvatures tan(t), -cot(t) in S^3")


def sphere_negative_control(c=1.0):
    """Round sphere in R^3: c > ctilde, umbilical (s = 1).  All theorem
    hypothesis guards are expected to fire."""
    if not 0 < c < math.inf:
        raise ValueError("sphere control needs finite c > 0")
    R = 1.0 / math.sqrt(c)
    def f(u):
        return (R * dm.cos(u[0]) * dm.cos(u[1]),
                R * dm.sin(u[0]) * dm.cos(u[1]),
                R * dm.sin(u[1]))
    chart = ImmersionChart("sphere_negative_control", f, 2, euclidean(3), c,
                           ((0.0, 2.0 * math.pi), (-1.2, 1.2)),
                           (True, False))
    return CatalogEntry(
        chart, expected=dict(flat_normal_bundle=True, C_positive=False, s=1),
        notes="umbilical: single principal normal of multiplicity 2")


def hyperbolic_plane(extent_x=3.4, extent_y=1.48):
    """H^2 in band-model coordinates on the hyperboloid sheet (c = ctilde
    = -1, p = 0).  The induced metric sec^2(y) (dx^2 + dy^2) is conformal,
    so grid shortest paths stay within the isotropic stencil error; the
    closed-form distance d(0, (x,y)) = arccosh(cosh x / cos y) and ball
    area 2 pi (cosh r - 1) make this the oracle for the growth machinery."""
    if not 0 < extent_x < math.inf:
        raise ValueError("band half-width must be finite and positive")
    if not 0 < extent_y < math.pi / 2:
        raise ValueError("band height must lie inside (0, pi/2)")
    def f(u):
        return (dm.sinh(u[0]) / dm.cos(u[1]),
                dm.tan(u[1]),
                dm.cosh(u[0]) / dm.cos(u[1]))
    chart = ImmersionChart("hyperbolic_plane", f, 2, hyperbolic(-1.0, 2),
                           -1.0, ((-extent_x, extent_x),
                                  (-extent_y, extent_y)))
    return CatalogEntry(
        chart, expected=dict(flat_normal_bundle=True, C_positive=False, s=1),
        notes="band model; d(0,(x,y)) = arccosh(cosh x / cos y), "
              "area(D_r) = 2 pi (cosh r - 1)")


def ps3():
    """Pseudosphere x line in R^4: n = 3 with three distinct principal
    normals (one zero).  Not constant curvature; exercises the n = 3
    Codazzi machinery only."""
    def f(u):
        return (dm.sech(u[0]) * dm.cos(u[1]),
                dm.sech(u[0]) * dm.sin(u[1]),
                u[0] - dm.tanh(u[0]),
                u[2])
    chart = ImmersionChart("ps3", f, 3, euclidean(4), None,
                           ((0.3, 3.0), (0.0, 2.0 * math.pi), (-1.0, 1.0)),
                           (False, True, False))
    return CatalogEntry(
        chart, expected=dict(flat_normal_bundle=True, s=3),
        notes="hypothesis-violating control (c not constant); p = 1")


def veronese_r5():
    """Veronese-type surface in R^5: non-flat normal bundle control."""
    s3 = math.sqrt(3.0)
    def f(u):
        x = dm.cos(u[0]) * dm.cos(u[1])
        y = dm.sin(u[0]) * dm.cos(u[1])
        z = dm.sin(u[1])
        return (s3 * x * y, s3 * x * z, s3 * y * z,
                s3 * (x * x - y * y) / 2.0,
                (x * x + y * y - 2.0 * z * z) / 2.0)
    chart = ImmersionChart("veronese_r5", f, 2, euclidean(5), None,
                           ((0.0, 2.0 * math.pi), (-1.2, 1.2)),
                           (True, False))
    return CatalogEntry(
        chart, expected=dict(flat_normal_bundle=False),
        notes="shape operators do not commute; intrinsic c unasserted")


def plane_r3():
    """Totally geodesic plane in R^3: alpha = 0; guard-behavior fixture."""
    def f(u):
        return (u[0], u[1], 0.0 * u[0])
    chart = ImmersionChart("plane_r3", f, 2, euclidean(3), 0.0,
                           ((-2.0, 2.0), (-2.0, 2.0)))
    return CatalogEntry(
        chart, expected=dict(flat_normal_bundle=True, s=1),
        notes="totally geodesic: single principal normal 0, multiplicity 2")


# sine_gordon_surface's (n, p, c, c~, notes), declared so that describing
# the entry integrates nothing
_SINE_GORDON = (2, 1, -1.0, 0.0,
                "integrated from an asymptotic-coordinate angle field; "
                "metric du^2 + 2 cos(phi) du dv + dv^2")


def sine_gordon_surface(phi=None, domain=None, resolution=161,
                        residual_tol=1e-6, substeps=4):
    """K = -1 surface from a sine-Gordon solution (by default the one
    soliton over the default domain); see :mod:`flatbundle.sinegordon`."""
    from .sinegordon import DEFAULT_DOMAIN, integrate_surface, one_soliton
    surf = integrate_surface(one_soliton if phi is None else phi,
                             DEFAULT_DOMAIN if domain is None else domain,
                             resolution, residual_tol, substeps)
    return CatalogEntry(
        surf.chart(),
        expected=dict(flat_normal_bundle=True, C_positive=True, s=2),
        notes=_SINE_GORDON[-1],
        params=dict(surface=surf))


_REGISTRY = {f.__name__: f for f in (
    pseudosphere, dini, product_torus_r4, clifford_torus_s3,
    sphere_negative_control, hyperbolic_plane, ps3, veronese_r5, plane_r3,
    sine_gordon_surface)}


def names():
    return sorted(_REGISTRY)


def get(name, **params):
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"known: {', '.join(names())}")
    return factory(**params)


def describe(name):
    """An entry's (n, p, c, c~, notes) at its default parameters."""
    if name == "sine_gordon_surface":
        return _SINE_GORDON
    e = get(name)
    chart = e.chart
    return (chart.n, chart.codimension, chart.c, chart.ambient.curvature,
            e.notes)
