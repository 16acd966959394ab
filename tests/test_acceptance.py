"""Acceptance gate: the nine headline guarantees, each reported as a single
pass/fail line with its pinned tolerance.

Tolerances in this file are contractual; loosening one to make a run green
defeats the point of the gate.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import flatbundle
from flatbundle import catalog
from flatbundle.errors import HypothesisViolation
from flatbundle.fields import make_grid, principal_field
from flatbundle.flows import (build_flow_map, check_flow_identities,
                              commutator_residual, flow_points,
                              verify_principal_frame_property)
from flatbundle.fundamental import fundamental_batch
from flatbundle.growth import (ball_volume, distance_fields, fit_exponential,
                               growth_report, nearest_node,
                               reference_ball_volume)
from flatbundle.principal import principal_decomposition
from flatbundle.verifiers import (check_codazzi_c1, check_connection_formula,
                                  check_g0_flat, check_gauss,
                                  check_intrinsic_curvature)

PS_X0 = (math.asinh(1.0), math.pi)
DINI_X0 = (3.1, 0.75)


def report(capfd, num, ok, detail):
    """Emit exactly one pass/fail line per criterion on the live terminal
    (capture is suspended so the line survives pytest's fd capturing)."""
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} -- {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_gauss_identity_at_scale(capfd, pseudosphere):
    """Gauss identity on a 257^2 pseudosphere grid: AD residual <= 1e-8,
    FD residual <= 1e-4, both inside 10 seconds."""
    chart = pseudosphere.chart
    t0 = time.perf_counter()
    chart_ad = dataclasses.replace(chart, engine="ad")
    grid_ad = make_grid(chart_ad, 257)
    pf_ad = principal_field(fundamental_batch(chart_ad, grid_ad.points),
                            grid_ad)
    rep_ad = check_gauss(pf_ad, tol=1e-8)
    chart_fd = dataclasses.replace(chart, engine="fd")
    grid_fd = make_grid(chart_fd, 257)
    pf_fd = principal_field(fundamental_batch(chart_fd, grid_fd.points),
                            grid_fd)
    rep_fd = check_gauss(pf_fd, tol=1e-4)
    elapsed = time.perf_counter() - t0
    ok = rep_ad.passed and rep_fd.passed and elapsed <= 10.0
    report(capfd, 1, ok,
           f"gauss 257x257: ad max={rep_ad.max:.2e} (tol 1e-8), "
           f"fd max={rep_fd.max:.2e} (tol 1e-4), {elapsed:.1f}s (limit 10s)")


def test_criterion_2_codazzi_and_connection(capfd, pseudosphere, dini):
    """Codazzi (c1) and connection (nn) residuals <= 1e-4 on pseudosphere
    and Dini(1, 0.5) at 65^2, with refinement slope >= 3.5 (65 -> 129)."""
    worst = 0.0
    slopes = []
    for entry in (pseudosphere, dini):
        chart = entry.chart
        res_by_h = {}
        for res in (65, 129):
            grid = make_grid(chart, res)
            pf = principal_field(fundamental_batch(chart, grid.points), grid)
            c1 = check_codazzi_c1(pf).max
            nn = check_connection_formula(pf).max
            res_by_h[res] = (float(np.max(grid.spacing)), c1, nn)
        h1, c1a, nna = res_by_h[65]
        h2, c1b, nnb = res_by_h[129]
        worst = max(worst, c1a, nna)
        slopes.append(np.log(c1a / c1b) / np.log(h1 / h2))
        slopes.append(np.log(nna / nnb) / np.log(h1 / h2))
    ok = worst <= 1e-4 and min(slopes) >= 3.5
    report(capfd, 2, ok,
           f"c1/nn at 65^2 max={worst:.2e} (tol 1e-4), "
           f"refinement slope min={min(slopes):.2f} (need >= 3.5)")


def test_criterion_3_comparison_metric_flat(capfd, pseudosphere, dini, clifford):
    """g0 = C g + III is flat: residual <= 1e-3 on pseudosphere, Dini and
    the Clifford torus at t = pi/4, and <= 1e-8 on the Clifford torus."""
    vals = {}
    for entry, res, tol in ((pseudosphere, 65, 1e-3), (dini, 65, 1e-3),
                            (clifford, 33, 1e-8)):
        chart = entry.chart
        grid = make_grid(chart, res)
        fb = fundamental_batch(chart, grid.points)
        rep = check_g0_flat(fb, grid, tol=tol)
        vals[entry.chart.name] = (rep.max, tol, rep.passed)
    ok = all(p for _, _, p in vals.values())
    detail = ", ".join(f"{k} max={m:.2e} (tol {t:.0e})"
                       for k, (m, t, p) in vals.items())
    report(capfd, 3, ok, detail)


def test_criterion_4_principal_coordinates(capfd, pseudosphere, dini):
    """Flow coordinates on Dini: commutator <= 1e-4, one-parameter group
    law <= 1e-6 over 100 random (t, s) pairs, flow-map pullback g0 = I
    <= 1e-3, and round-trip error <= 1e-8 (both charts)."""
    chart = dini.chart
    comm = max(commutator_residual(chart, DINI_X0),
               commutator_residual(pseudosphere.chart, PS_X0))
    group = check_flow_identities(chart, DINI_X0, (-0.3, 0.3),
                                  n_pairs=100)["flow_group_law"]
    fm = build_flow_map(chart, DINI_X0, ((-0.25, 0.25),) * 2, 9)
    frame = verify_principal_frame_property(fm)
    pull = frame["pullback_identity"]
    rt = 0.0
    for entry, x0 in ((pseudosphere, PS_X0), (dini, DINI_X0)):
        for axis in range(2):
            U0 = np.asarray(x0, float)[None, :]
            y, refs = flow_points(entry.chart, U0, axis, 0.3)
            back, _ = flow_points(entry.chart, y, axis, -0.3, refs=refs)
            rt = max(rt, float(np.max(np.abs(back[0] - np.asarray(x0)))))
    ok = (comm <= 1e-4 and group.passed and group.max <= 1e-6
          and all(r.passed for r in frame.values()) and pull.max <= 1e-3
          and rt <= 1e-8)
    report(capfd, 4, ok,
           f"commutator={comm:.2e} (tol 1e-4), "
           f"group law max={group.max:.2e} over 100 pairs (tol 1e-6), "
           f"pullback max={pull.max:.2e} (tol 1e-3), "
           f"round trip={rt:.2e} (tol 1e-8)")


def test_criterion_5_inequality_chain(capfd, pseudosphere, dini):
    """Length, distance, ball-containment and volume-bound verdicts all
    pass at every tabulated radius, with margin above the documented
    stencil error budget, on pseudosphere and Dini."""
    details = []
    ok = True
    for entry, x0, radii in (
            (pseudosphere, PS_X0, (0.5, 0.75, 1.0, 1.25, 1.5)),
            (dini, DINI_X0, (0.3, 0.45, 0.6, 0.75, 0.9))):
        rep = growth_report(entry.chart, x0, radii, resolution=257)
        margins = [v.margin for v in rep.verdicts]
        budget = rep.stencil_overshoot
        good = (rep.chain_holds
                and all(v.margin > v.error_budget for v in rep.verdicts))
        ok &= good
        details.append(f"{entry.chart.name}: {len(rep.verdicts)} verdicts, "
                       f"min margin={min(margins):.3f} "
                       f"(budget {budget:.3f})")
    report(capfd, 5, ok, "; ".join(details))


def test_criterion_6_hyperbolic_oracle(capfd):
    """Band-model H^2: grid distances within 3% of
    arccosh(cosh x / cos y), ball areas within 2% of 2 pi (cosh r - 1)
    for r <= 3, and the reference-volume fit on [3, 6] gives the growth
    rate l within 10% of 1."""
    entry = catalog.get("hyperbolic_plane")
    chart = entry.chart
    grid = make_grid(chart, (321, 161))
    anchor = nearest_node(grid, (0.0, 0.0))
    df = distance_fields(
        grid, lambda U: {"g": fundamental_batch(chart, U).g}, anchor)["g"]
    X, Y = grid.points[..., 0], grid.points[..., 1]
    exact = np.arccosh(np.clip(np.cosh(X) / np.cos(Y), 1.0, None))
    mask = (exact > 0.2) & (exact <= 3.0)
    dist_err = float(np.max(np.abs(df.d[mask] - exact[mask]) / exact[mask]))

    fb = fundamental_batch(chart, grid.points)
    dens = np.sqrt(np.linalg.det(fb.g))
    vol_err = 0.0
    for r in (1.0, 2.0, 3.0):
        vol, truncated = ball_volume(df, dens, r)
        want = 2.0 * math.pi * (math.cosh(r) - 1.0)
        vol_err = max(vol_err, abs(vol - want) / want)
        assert not truncated

    rs = np.arange(0.5, 6.01, 0.25)
    _, ell, _ = fit_exponential(
        [(r, reference_ball_volume(-1.0, 2, r)) for r in rs],
        window=(3.0, 6.0))
    ok = dist_err <= 0.03 and vol_err <= 0.02 and abs(ell - 1.0) <= 0.1
    report(capfd, 6, ok,
           f"distance err={dist_err:.3%} (tol 3%), "
           f"ball area err={vol_err:.3%} (tol 2%), "
           f"fit l={ell:.4f} on [3,6] (within 10% of 1)")


def test_criterion_7_hypothesis_guards(capfd, sphere_control):
    """Controls violating the hypotheses are skipped, never crashed: the
    round sphere (C < 0, umbilic) and the C = 0 product torus, which runs
    in exploratory mode only."""
    checks = []
    try:
        growth_report(sphere_control.chart, (0.5, 0.2), (0.3, 0.6),
                      resolution=65)
        checks.append(("sphere growth refused", False))
    except HypothesisViolation:
        checks.append(("sphere growth refused", True))
    dec = principal_decomposition(
        fundamental_batch(sphere_control.chart, np.array([0.5, 0.2])))
    checks.append(("umbilic multiplicity guard", dec.s == 1))
    try:
        # asserting c = -1 gives the sphere the gap C = 1 the flows need
        fm = build_flow_map(dataclasses.replace(sphere_control.chart, c=-1.0),
                            (0.5, 0.2), ((-0.1, 0.1),) * 2, 5)
        verify_principal_frame_property(fm)
        checks.append(("umbilic frame check refused", False))
    except HypothesisViolation:
        checks.append(("umbilic frame check refused", True))

    torus = catalog.get("product_torus_r4")
    try:
        growth_report(torus.chart, (3.0, 3.0), (0.5, 1.0), resolution=65)
        checks.append(("C=0 refused without exploratory", False))
    except HypothesisViolation:
        checks.append(("C=0 refused without exploratory", True))
    rep = growth_report(torus.chart, (3.0, 3.0), (0.5, 1.0), resolution=65,
                        exploratory=True)
    checks.append(("C=0 exploratory runs, bound undefined",
                   all(math.isnan(row.bound) for row in rep.rows)
                   and {v.verdict for v in rep.verdicts} == {"skip"}))
    ok = all(c for _, c in checks)
    report(capfd, 7, ok, "; ".join(f"{name}: {'yes' if c else 'NO'}"
                            for name, c in checks))


def test_criterion_8_sine_gordon_surface(capfd):
    """The surface integrated from the 1-soliton matches the closed-form
    metric to 1e-3 and has constant curvature -1 to 1e-2."""
    entry = catalog.get("sine_gordon_surface")
    surf = entry.params["surface"]
    chart = entry.chart
    grid = make_grid(chart, 65)
    fb = fundamental_batch(chart, grid.points)
    metric_err = float(np.max(np.abs(fb.g - surf.expected_metric(grid.points))))
    rep = check_intrinsic_curvature(fb, grid, tol=1e-2)
    ok = metric_err <= 1e-3 and rep.passed
    report(capfd, 8, ok,
           f"metric err={metric_err:.2e} (tol 1e-3), "
           f"curvature residual={rep.max:.2e} (tol 1e-2), "
           f"sg residual={surf.sg_residual:.1e}, "
           f"monodromy={surf.monodromy_residual:.1e}")


def test_criterion_9_deterministic_outputs(capfd, tmp_path):
    """Identical config and seed give byte-identical CSV outputs."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[chart]\nname = pseudosphere\n[grid]\nresolution = 33\n"
        "[growth]\nx0 = %.17g, %.17g\nradii = 0.4, 0.8\nresolution = 65\n"
        % PS_X0)
    # an absolute package path, so the subprocess imports this checkout
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        flatbundle.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    blobs = []
    for sub in ("a", "b"):
        for cmd in ("growth", "verify"):
            proc = subprocess.run(
                [sys.executable, "-m", "flatbundle.cli", cmd,
                 "--config", str(cfg), "--out", str(tmp_path / sub)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        blobs.append(tuple(
            (tmp_path / sub / f).read_bytes()
            for f in ("growth.csv", "verify_gauss.csv", "growth_summary.txt")))
    ok = blobs[0] == blobs[1]
    report(capfd, 9, ok, "growth.csv, verify_gauss.csv, growth_summary.txt "
                  "byte-identical across reruns with identical config+seed")
