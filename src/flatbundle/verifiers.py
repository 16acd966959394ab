"""Residual checks for every identity the toolkit asserts: the Gauss
relation between principal normals, both Codazzi forms, the principal-frame
connection formula, intrinsic-curvature consistency, and flatness of the
comparison metric g0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engines
from .fields import principal_field
from .errors import DegenerateMetricError
from .fundamental import (_cholesky, _components, _inverse, _lower_inverse,
                          flatness_violation, fundamental_batch,
                          gap_violation)
from .principal import CLUSTER_REL_TOL, comparison_metric

G0_FLAT_TOL = 1e-3
DERIVED_TOL = 1e-4   # identities that differentiate eigen-derived fields


@dataclass
class ResidualReport:
    identity: str
    max: float
    tolerance: float
    passed: bool
    points: int
    skipped: int
    engine: str
    vacuous: bool = False
    notes: str = ""
    residual_grid: object = None   # per-point residuals (NaN where skipped)

    def summary_line(self):
        """The identity's verdict line; one value gets no point counts."""
        verdict = ("PASS(vacuous)" if self.vacuous
                   else "PASS" if self.passed else "FAIL")
        line = (f"{self.identity} {verdict} max={self.max:.3e} "
                f"tol={self.tolerance:.1e}")
        if self.points + self.skipped != 1:
            line += f" points={self.points} skipped={self.skipped}"
        return line


def residual_report(identity, residuals, tol, chart, notes=""):
    """Summarize per-point residuals of a chart over their finite entries;
    with none finite the report is a vacuous pass."""
    r = np.asarray(residuals, dtype=float)
    finite = r[np.isfinite(r)]
    skipped = int(r.size - finite.size)
    if finite.size == 0:
        return ResidualReport(identity, 0.0, tol, True, 0, skipped,
                              chart.engine, vacuous=True, notes=notes,
                              residual_grid=r)
    worst = float(np.max(finite))
    return ResidualReport(identity, worst, tol, bool(worst <= tol),
                          int(finite.size), skipped, chart.engine,
                          notes=notes, residual_grid=r)


def _field_report(identity, pf, worst, tol):
    """Report per-point residuals on the coherent points of pf whose
    principal normals are pairwise distinct."""
    mask = pf.coherent & _distinct_mask(pf)
    return residual_report(identity, np.where(mask, worst, np.nan), tol,
                           pf.chart)


def _distinct_mask(pf):
    """Points where the n principal normals are pairwise distinct."""
    eta = pf.pb.eta
    n = pf.chart.n
    scale = np.maximum(1.0, np.sqrt(pf.fb.sff_sq))
    ok = np.ones(scale.shape, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(eta[..., i, :] - eta[..., j, :], axis=-1)
            ok &= d > CLUSTER_REL_TOL * scale
    return ok


def check_gauss(pf, tol=None):
    """|<eta_i, eta_j> - (c - ctilde)| over all pairs i != j, with the
    chart's c and its ambient's curvature ctilde.

    Implements the sign convention <eta_i, eta_j> = c - ctilde validated on
    the pseudosphere (k1 k2 = -1 = c - ctilde); see the repo notes.
    """
    chart = pf.chart
    if tol is None:
        tol = engines.DEFAULT_TOL[chart.engine]
    n = chart.n
    target = chart.c - chart.ambient.curvature
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            ip = np.sum(pf.pb.eta[..., i, :] * pf.pb.eta[..., j, :], axis=-1)
            worst = np.maximum(worst, np.abs(ip - target))
    return _field_report("gauss", pf, worst, tol)


def check_codazzi_c1(pf, tol=DERIVED_TOL):
    """perp-derivative of eta_i along X_j vs <nabla_{X_i}X_i, X_j>(eta_i-eta_j)."""
    amb = pf.chart.ambient
    n = pf.chart.n
    eta = pf.pb.eta_cont
    worst = 0.0
    for i in range(n):
        scale = np.maximum(1.0, pf.pb.eta_sq[..., i])
        grad = pf.grid.gradient(eta[..., i, :])
        for j in range(n):
            if i == j:
                continue
            lhs = pf.fb.normal_project(pf.along(grad, j))
            rhs = pf.gamma[i][i][j][..., None] * (eta[..., i, :]
                                                  - eta[..., j, :])
            diff = lhs - rhs
            r = np.sqrt(np.abs(amb.inner(diff, diff))) / scale
            worst = np.maximum(worst, r)
    return _field_report("codazzi_c1", pf, worst, tol)


def check_codazzi_c2(pf, tol=DERIVED_TOL):
    """<nabla_{X_l}X_j, X_i>(eta_i-eta_j) = <nabla_{X_j}X_l, X_i>(eta_i-eta_l)
    over distinct triples; vacuous for n = 2."""
    amb = pf.chart.ambient
    n = pf.chart.n
    if n < 3:
        return residual_report("codazzi_c2", [], tol, pf.chart,
                               notes="n < 3: no index triples")
    eta = pf.pb.eta_cont
    gam = pf.gamma
    worst = 0.0
    for i in range(n):
        scale = np.maximum(1.0, pf.pb.eta_sq[..., i])
        for j in range(n):
            for l in range(n):
                if len({i, j, l}) < 3:
                    continue
                diff = gam[l][j][i][..., None] * (eta[..., i, :]
                                                  - eta[..., j, :]) \
                    - gam[j][l][i][..., None] * (eta[..., i, :]
                                                 - eta[..., l, :])
                r = np.sqrt(np.abs(amb.inner(diff, diff))) / scale
                worst = np.maximum(worst, r)
    return _field_report("codazzi_c2", pf, worst, tol)


def check_connection_formula(pf, tol=DERIVED_TOL):
    """Gamma_ii^j = lambda_i X_j(1/lambda_i) (Lemma 1 in proof form)."""
    n = pf.chart.n
    if pf.pb.lambdas is None:
        raise ValueError("connection formula needs lambdas: "
                         + gap_violation(pf.chart))
    worst = 0.0
    lam = pf.pb.lambdas
    for i in range(n):
        grad = pf.grid.gradient(1.0 / lam[..., i])
        for j in range(n):
            if i == j:
                continue
            rhs = lam[..., i] * pf.along(grad, j)
            worst = np.maximum(worst, np.abs(pf.gamma[i][i][j] - rhs))
    return _field_report("connection_nn", pf, worst, tol)


# ---------------------------------------------------------------------------
# curvature of sampled metric fields

def constant_curvature_residual(G, Ginv, grid, c):
    """Max |R_{ijkl} - c (g_jk g_il - g_ik g_jl)| / (1 + |g|^2) per point,
    where R_{ijkl} = <R(d_i,d_j)d_k, d_l> of the sampled metric field G
    with inverse Ginv, both point-major (grid shape + (n, n)); NaN in the
    double stencil margin.  Every component of g, its derivatives and the
    Christoffel symbols is one grid array, and each sum runs in index
    order.  Ginv is read only for the Christoffel symbols, so a view of
    a component-major inverse serves without a copy."""
    N = range(grid.ndim)

    def dot(a, b):
        """sum_m a[m] b[m], accumulated in m order"""
        s = a[0] * b[0]
        for m in N[1:]:
            s += a[m] * b[m]
        return s

    g = [[G[..., i, j] for j in N] for i in N]
    dg = [[[grid.deriv(g[i][j], m) for j in N] for i in N] for m in N]
    # Gamma_{ij,l} = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
    low = [[[((dg[i][j][l] + dg[j][i][l]) - dg[l][i][j]) * 0.5 for l in N]
            for j in N] for i in N]
    del dg
    # Gamma^k_{ij} = sum_l g^{kl} Gamma_{ij,l}, stored at gam[i][j][k]
    gam = [[[dot([Ginv[..., k, l] for l in N], low[i][j]) for k in N]
            for j in N] for i in N]
    del low, Ginv
    dgam = [[[[grid.deriv(gam[i][j][k], m) for k in N] for j in N]
             for i in N] for m in N]
    worst = 0.0
    for i in N:
        for j in N:
            for k in N:
                # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                #           + Gamma^l_{im} Gamma^m_{jk}
                #           - Gamma^l_{jm} Gamma^m_{ik}
                up = [(dgam[i][j][k][l] - dgam[j][i][k][l])
                      + dot([gam[i][m][l] for m in N], gam[j][k])
                      - dot([gam[j][m][l] for m in N], gam[i][k])
                      for l in N]
                for l in N:
                    # R_{ijkl} = sum_m g_ml R^m_{kij} against
                    # <R(X,Y)Z,W> = c(<Y,Z><X,W> - <X,Z><Y,W>)
                    R = dot([g[m][l] for m in N], up)
                    R -= (g[j][k] * g[i][l] - g[i][k] * g[j][l]) * c
                    worst = np.maximum(worst, np.abs(R, out=R))
    del gam, dgam
    scale = 1.0 + np.sum(G * G, axis=(-2, -1))
    return worst / scale


def check_intrinsic_curvature(fb, grid, tol=None):
    """Sectional curvature of the induced metric (fb over the grid points)
    equals the asserted c."""
    chart = fb.chart
    if tol is None:
        tol = max(engines.DEFAULT_TOL[chart.engine], grid.stencil_floor)
    if chart.c is None:
        raise ValueError(f"{chart.name} asserts no intrinsic curvature")
    res = constant_curvature_residual(
        fb.g, _point_major_view(fb.ginv, fb.g.shape), grid, chart.c)
    return residual_report("intrinsic_curvature", res, tol, chart)


def check_g0_flat(fb, grid, tol=G0_FLAT_TOL):
    """Lemma: g0 = C g + III (fb over the grid points) is flat.  Residual =
    max normalized |R0_{ijkl}|."""
    g0 = comparison_metric(fb)
    # the inverse is handed over, not held here, so the residual frees it
    # with its Christoffel symbols, before its peak
    res = constant_curvature_residual(g0, _g0_inverse(fb.chart, g0), grid,
                                      0.0)
    return residual_report("g0_flat", res, tol, fb.chart)


def _g0_inverse(chart, g0):
    """g0^{-1} through the batch layer's Cholesky kernels, point-major like
    g0; a g0 that is not positive definite somewhere is refused."""
    L = _cholesky(_components(g0, 2))
    if L is None:
        raise DegenerateMetricError(
            f"{chart.name}: comparison metric g0 not positive definite")
    return _point_major_view(_inverse(_lower_inverse(L)), g0.shape)


def _point_major_view(a, shape):
    """A component-major (n, n, m) array as a point-major view of the given
    shape, batch + (n, n), without a copy."""
    return np.moveaxis(a, -1, 0).reshape(shape)


# ---------------------------------------------------------------------------
# the suite and its hypotheses

# the identities in suite order, each with the [tolerances] config key
# that loosens it
TOLERANCE_KEYS = {"intrinsic_curvature": "intrinsic", "gauss": "gauss",
                  "codazzi_c1": "c1", "codazzi_c2": "c2",
                  "connection_nn": "nn", "g0_flat": "g0"}
IDENTITIES = tuple(TOLERANCE_KEYS)


def verify_chart(chart, grid, tols=None):
    """Run the identity suite on a chart under the theorem's hypotheses.

    ``tols`` maps [tolerances] keys to tolerances; an identity whose key
    is unset keeps its check's default.  Returns (reports, skipped): a
    report for each identity that ran, in IDENTITIES order, and a dict
    identity -> reason for each identity whose hypothesis fails; together
    they name every identity once.  The normal bundle's flatness is
    tested on the grid first, since the principal decomposition needs it.
    """
    tols = tols or {}
    fb = fundamental_batch(chart, grid.points)
    why = flatness_violation(fb)
    if why is not None:
        return [], dict.fromkeys(IDENTITIES, why)

    skipped = {}
    gap = gap_violation(chart)
    if gap is not None:
        skipped.update(connection_nn=gap, g0_flat=gap)
    if chart.c is None:
        skipped.update(intrinsic_curvature="intrinsic curvature unasserted",
                       gauss="intrinsic curvature unasserted")
    done = {}

    def run(checks, *data):
        for name, check in checks.items():
            tol = tols.get(TOLERANCE_KEYS[name])
            if name not in skipped:
                done[name] = (check(*data) if tol is None
                              else check(*data, tol=tol))

    # the metric checks run before the principal field exists, so it is not
    # held while their curvature tensors take the run's peak memory
    run({"intrinsic_curvature": check_intrinsic_curvature,
         "g0_flat": check_g0_flat}, fb, grid)
    run({"gauss": check_gauss, "codazzi_c1": check_codazzi_c1,
         "codazzi_c2": check_codazzi_c2,
         "connection_nn": check_connection_formula},
        principal_field(fb, grid))
    reports = [done[name] for name in IDENTITIES if name in done]
    return reports, skipped
