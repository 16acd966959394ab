"""Residual checks for every identity the toolkit asserts: the Gauss
relation between principal normals, both Codazzi forms, the principal-frame
connection formula, intrinsic-curvature consistency, and flatness of the
comparison metric g0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engines
from .fields import grid_deriv, principal_field
from .principal import CLUSTER_REL_TOL, comparison_metric, third_fundamental_form

G0_FLAT_TOL = 1e-3
DERIVED_TOL = 1e-4   # identities that differentiate eigen-derived fields


@dataclass
class ResidualReport:
    identity: str
    max: float
    mean: float
    q50: float
    q90: float
    tolerance: float
    passed: bool
    points: int
    skipped: int
    engine: str
    vacuous: bool = False
    notes: str = ""
    residual_grid: object = None   # per-point residuals (NaN where skipped)
    grid_points: object = None

    def summary_line(self):
        verdict = "PASS" if self.passed else "FAIL"
        if self.vacuous:
            verdict = "PASS(vacuous)"
        return (f"{self.identity} {verdict} max={self.max:.3e} "
                f"tol={self.tolerance:.1e} points={self.points} "
                f"skipped={self.skipped}")


def residual_report(identity, residuals, tol, engine, grid_points=None,
                    notes=""):
    """Summarize per-point residuals over their finite entries; with none
    finite the report is a vacuous pass."""
    r = np.asarray(residuals, dtype=float)
    finite = r[np.isfinite(r)]
    skipped = int(r.size - finite.size)
    if finite.size == 0:
        return ResidualReport(identity, 0.0, 0.0, 0.0, 0.0, tol, True,
                              0, skipped, engine, vacuous=True, notes=notes,
                              residual_grid=r, grid_points=grid_points)
    return ResidualReport(
        identity, float(np.max(finite)), float(np.mean(finite)),
        float(np.quantile(finite, 0.5)), float(np.quantile(finite, 0.9)),
        tol, bool(np.max(finite) <= tol), int(finite.size), skipped, engine,
        notes=notes, residual_grid=r, grid_points=grid_points)


def _masked(res, mask):
    return np.where(mask, res, np.nan)


def _distinct_mask(pf):
    """Points where the n principal normals are pairwise distinct."""
    eta = pf.pb.eta
    n = pf.n
    scale = np.maximum(1.0, np.sqrt(pf.fb.sff_sq))
    ok = np.ones(scale.shape, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(eta[..., i, :] - eta[..., j, :], axis=-1)
            ok &= d > CLUSTER_REL_TOL * scale
    return ok


def check_gauss(pf, c, ctilde, tol=None):
    """|<eta_i, eta_j> - (c - ctilde)| over all pairs i != j.

    Implements the sign convention <eta_i, eta_j> = c - ctilde validated on
    the pseudosphere (k1 k2 = -1 = c - ctilde); see the repo notes.
    """
    if tol is None:
        tol = engines.DEFAULT_TOL[pf.engine]
    n = pf.n
    target = c - ctilde
    mask = pf.coherent & _distinct_mask(pf)
    worst = np.zeros(mask.shape)
    for i in range(n):
        for j in range(i + 1, n):
            ip = np.sum(pf.pb.eta[..., i, :] * pf.pb.eta[..., j, :], axis=-1)
            worst = np.maximum(worst, np.abs(ip - target))
    return residual_report("gauss", _masked(worst, mask), tol,
                           pf.engine, grid_points=pf.grid.points)


def check_codazzi_c1(pf, tol=DERIVED_TOL):
    """perp-derivative of eta_i along X_j vs <nabla_{X_i}X_i, X_j>(eta_i-eta_j)."""
    amb = pf.chart.ambient
    n = pf.n
    mask = pf.coherent & _distinct_mask(pf)
    worst = np.zeros(mask.shape)
    for i in range(n):
        scale = np.maximum(1.0, pf.pb.eta_sq[..., i])
        for j in range(n):
            if i == j:
                continue
            D = pf.directional(pf.pb.eta_cont[..., i, :],
                               pf.pb.X_chart[..., j, :])
            lhs = pf.fb.normal_project(D)
            gam = amb.inner(
                pf.directional(pf.pb.X_cont[..., i, :],
                               pf.pb.X_chart[..., i, :]),
                pf.pb.X_cont[..., j, :])
            rhs = gam[..., None] * (pf.pb.eta_cont[..., i, :]
                                    - pf.pb.eta_cont[..., j, :])
            diff = lhs - rhs
            r = np.sqrt(np.abs(amb.inner(diff, diff))) / scale
            worst = np.maximum(worst, r)
    return residual_report("codazzi_c1", _masked(worst, mask), tol,
                           pf.engine, grid_points=pf.grid.points)


def check_codazzi_c2(pf, tol=DERIVED_TOL):
    """<nabla_{X_l}X_j, X_i>(eta_i-eta_j) = <nabla_{X_j}X_l, X_i>(eta_i-eta_l)
    over distinct triples; vacuous for n = 2."""
    amb = pf.chart.ambient
    n = pf.n
    if n < 3:
        return ResidualReport("codazzi_c2", 0.0, 0.0, 0.0, 0.0, tol, True,
                              0, 0, pf.engine, vacuous=True,
                              notes="n < 3: no index triples")
    mask = pf.coherent & _distinct_mask(pf)
    worst = np.zeros(mask.shape)
    for i in range(n):
        scale = np.maximum(1.0, pf.pb.eta_sq[..., i])
        for j in range(n):
            for l in range(n):
                if len({i, j, l}) < 3:
                    continue
                glj = amb.inner(
                    pf.directional(pf.pb.X_cont[..., j, :],
                                   pf.pb.X_chart[..., l, :]),
                    pf.pb.X_cont[..., i, :])
                gjl = amb.inner(
                    pf.directional(pf.pb.X_cont[..., l, :],
                                   pf.pb.X_chart[..., j, :]),
                    pf.pb.X_cont[..., i, :])
                diff = glj[..., None] * (pf.pb.eta_cont[..., i, :]
                                         - pf.pb.eta_cont[..., j, :]) \
                    - gjl[..., None] * (pf.pb.eta_cont[..., i, :]
                                        - pf.pb.eta_cont[..., l, :])
                r = np.sqrt(np.abs(amb.inner(diff, diff))) / scale
                worst = np.maximum(worst, r)
    return residual_report("codazzi_c2", _masked(worst, mask), tol,
                           pf.engine, grid_points=pf.grid.points)


def check_connection_formula(pf, tol=DERIVED_TOL):
    """Gamma_ii^j = lambda_i X_j(1/lambda_i) (Lemma 1 in proof form)."""
    amb = pf.chart.ambient
    n = pf.n
    if pf.pb.lambdas is None:
        raise ValueError("connection formula needs lambdas: pass C > 0")
    mask = pf.coherent & _distinct_mask(pf)
    worst = np.zeros(mask.shape)
    lam = pf.pb.lambdas
    for i in range(n):
        gam_ii = pf.directional(pf.pb.X_cont[..., i, :],
                                pf.pb.X_chart[..., i, :])
        for j in range(n):
            if i == j:
                continue
            lhs = amb.inner(gam_ii, pf.pb.X_cont[..., j, :])
            rhs = lam[..., i] * pf.directional(1.0 / lam[..., i],
                                               pf.pb.X_chart[..., j, :])
            worst = np.maximum(worst, np.abs(lhs - rhs))
    return residual_report("connection_nn", _masked(worst, mask), tol,
                           pf.engine, grid_points=pf.grid.points)


# ---------------------------------------------------------------------------
# curvature of sampled metric fields

def christoffel_field(G, grid):
    """Christoffel symbols Gamma^k_{ij} of a sampled metric field."""
    n = G.shape[-1]
    Ginv = np.linalg.inv(G)
    dG = np.stack([grid_deriv(G, m, grid.spacing[m], grid.periodic[m])
                   for m in range(grid.ndim)], axis=-3)   # (..., m, i, j)
    # Gamma_{ij,l} = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
    low = 0.5 * (dG
                 + np.einsum("...jil->...ijl", dG)
                 - np.einsum("...lij->...ijl", dG))
    return np.einsum("...kl,...ijl->...ijk", Ginv, low)


def riemann_field(G, grid):
    """Fully lowered curvature tensor R_{ijkl} = <R(d_i,d_j)d_k, d_l> of a
    sampled metric field; NaN in the double stencil margin."""
    Gam = christoffel_field(G, grid)          # (..., i, j, k) = Gamma^k_{ij}
    dGam = np.stack([grid_deriv(Gam, m, grid.spacing[m], grid.periodic[m])
                     for m in range(grid.ndim)], axis=-4)  # (..., m, i, j, k)
    # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    #           + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}
    term1 = dGam                               # [..., i, j, k, l] = d_i Gamma^l_{jk}
    term2 = np.swapaxes(dGam, -4, -3)          # d_j Gamma^l_{ik}
    quad1 = np.einsum("...iml,...jkm->...ijkl", Gam, Gam)
    quad2 = np.einsum("...jml,...ikm->...ijkl", Gam, Gam)
    Rup = term1 - term2 + quad1 - quad2        # R^l_{kij} at [..., i, j, k, l]
    return np.einsum("...lm,...ijkl->...ijkm", G, Rup)


def constant_curvature_residual(G, grid, c):
    """Max |R_{ijkl} - c (g_ik g_jl - g_il g_jk)| / (1 + |g|^2) per point."""
    R = riemann_field(G, grid)
    # <R(X,Y)Z,W> = c(<Y,Z><X,W> - <X,Z><Y,W>)
    model = c * (np.einsum("...jk,...il->...ijkl", G, G)
                 - np.einsum("...ik,...jl->...ijkl", G, G))
    num = np.max(np.abs(R - model), axis=(-4, -3, -2, -1))
    scale = 1.0 + np.sum(G * G, axis=(-2, -1))
    return num / scale


def check_intrinsic_curvature(fb, grid, tol=None):
    """Sectional curvature of the induced metric (fb over the grid points)
    equals the asserted c."""
    chart, engine = fb.chart, fb.engine
    if tol is None:
        tol = max(engines.DEFAULT_TOL[engine], 100.0 * float(
            np.max(grid.spacing)) ** 4)
    if chart.c is None:
        raise ValueError(f"{chart.name} asserts no intrinsic curvature")
    res = constant_curvature_residual(fb.g, grid, chart.c)
    return residual_report("intrinsic_curvature", res, tol, engine,
                           grid_points=grid.points)


def check_g0_flat(fb, grid, C=None, tol=G0_FLAT_TOL, exploratory=False):
    """Lemma: g0 = C g + III (fb over the grid points) is flat.  Residual =
    max normalized |R0_{ijkl}|."""
    cm = comparison_metric(fb, third_fundamental_form(fb), C,
                           exploratory=exploratory)
    res = constant_curvature_residual(cm.g0, grid, 0.0)
    return residual_report("g0_flat", res, tol, fb.engine,
                           grid_points=grid.points)


def verify_chart(chart, grid, C=None, engine=None, seed=None, tols=None):
    """Run the full identity suite on a chart; returns a list of reports."""
    engine = engine or chart.engine
    tols = tols or {}
    C = C if C is not None else chart.C
    pf = principal_field(chart, grid, C=C if (C is not None and C > 0)
                         else None, engine=engine, seed=seed)
    reports = []
    if chart.c is not None:
        reports.append(check_intrinsic_curvature(
            pf.fb, grid, tol=tols.get("intrinsic")))
        reports.append(check_gauss(pf, chart.c, chart.ambient.curvature,
                                   tol=tols.get("gauss")))
    reports.append(check_codazzi_c1(pf, tol=tols.get("c1", DERIVED_TOL)))
    reports.append(check_codazzi_c2(pf, tol=tols.get("c2", DERIVED_TOL)))
    if C is not None and C > 0:
        reports.append(check_connection_formula(
            pf, tol=tols.get("nn", DERIVED_TOL)))
        reports.append(check_g0_flat(pf.fb, grid, C=C,
                                     tol=tols.get("g0", G0_FLAT_TOL)))
    return reports
