"""Command-line entry point and report emission.

Exit codes: 0 success or hypothesis-guarded skip, 1 identity failure,
2 usage/config error (a chart off its space-form model included),
3 numerical failure or any other error.  All emitted CSVs use 17
significant digits, '.' decimals and LF line endings, and every summary
records the engine, seed, grid and tolerances, so identical configs and
seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import catalog, engines
from .config import load_config
from .errors import (ConfigError, DomainError, FlatBundleError,
                     HypothesisViolation, ModelConsistencyError,
                     NumericalError)
from .fields import make_grid
from .flows import (build_flow_map, check_flow_identities,
                    commutator_residual, verify_principal_frame_property)
from .growth import default_resolution, growth_report
from .verifiers import verify_chart

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_G = "%.17g"


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _header(cfg, chart, grid, extra=()):
    """Summary header; grid is the per-axis resolution the run used."""
    lines = [
        f"chart = {chart.name}",
        f"engine = {chart.engine}",
        f"seed = {cfg.seed}",
        f"grid = {','.join(str(r) for r in grid)}",
        "tolerances = " + (",".join(
            f"{k}={cfg.tolerances[k]:g}" for k in sorted(cfg.tolerances))
            or "defaults"),
    ]
    lines.extend(extra)
    return lines


def _text(columns):
    """The value text of the (rows, k) column blocks side by side, one list
    per column, every value at 17 significant digits.  Each column formats
    each distinct bit pattern once (so 0.0 and -0.0 stay apart); the bytes
    are unchanged from formatting every row with one '%.17g,...' string."""
    cols = []
    for col in np.hstack(columns, dtype=float).T:
        keys, inv = np.unique(col.view(np.int64), return_inverse=True)
        text = list(map(_G.__mod__, keys.view(np.float64).tolist()))
        cols.append(np.array(text, dtype=object)[inv].tolist())
    return cols


def _csv(header, text):
    """CSV text: the header, then the column text of :func:`_text` joined
    row by row."""
    return "\n".join([",".join(header)]
                     + list(map(",".join, zip(*text)))) + "\n"


def _finish(out_dir, name, lines, code):
    """Write <name>_summary.txt, echo it and return the exit code."""
    text = "\n".join(lines)
    _write(os.path.join(out_dir, f"{name}_summary.txt"), text + "\n")
    print(text)
    return code


def _base_point(cfg, chart):
    """The configured x0, or the centre of the usable domain."""
    box = chart.usable_domain()
    if cfg.x0 is None:
        return tuple(0.5 * (lo + hi) for lo, hi in box)
    if len(cfg.x0) != chart.n or not chart.contains(cfg.x0):
        raise ConfigError(
            f"x0 = {','.join('%g' % x for x in cfg.x0)} must be {chart.n} "
            f"coordinates inside the usable domain "
            f"{', '.join('%g:%g' % b for b in box)} of {chart.name}")
    return cfg.x0


def run_verify(cfg, out_dir):
    chart = cfg.make_chart()
    grid = make_grid(chart, cfg.grid_resolution(chart.n))
    reports, skipped = verify_chart(chart, grid, tols=cfg.tolerances)
    lines = _header(cfg, chart, grid.shape)
    head = [f"u{k + 1}" for k in range(chart.n)] + ["residual"]
    pts = grid.points.reshape(-1, chart.n)
    pts_text = _text((pts,))                       # shared by every CSV
    for rep in reports:
        lines.append(rep.summary_line())
        if rep.residual_grid.size == len(pts):     # not a vacuous n < 3 c2
            _write(os.path.join(out_dir, f"verify_{rep.identity}.csv"),
                   _csv(head, pts_text
                        + _text((rep.residual_grid.reshape(-1, 1),))))
    lines.extend(f"{name} SKIPPED by hypothesis ({why})"
                 for name, why in skipped.items())
    failed = [r for r in reports if not r.passed]
    return _finish(out_dir, "verify", lines,
                   EXIT_FAILED if failed else EXIT_OK)


def run_growth(cfg, out_dir, strict=False):
    chart = cfg.make_chart()
    x0 = _base_point(cfg, chart)
    res = cfg.growth_resolution or default_resolution(chart.n)
    lines = _header(cfg, chart, (res,) * chart.n,
                    extra=[f"x0 = {','.join('%g' % x for x in x0)}"])
    try:
        rep = growth_report(chart, x0, cfg.radii, window=cfg.window,
                            resolution=res, seed=cfg.seed,
                            exploratory=cfg.exploratory)
    except HypothesisViolation as exc:
        lines.append(f"bound_chain SKIPPED by hypothesis ({exc})")
        return _finish(out_dir, "growth", lines, EXIT_OK)

    _write(os.path.join(out_dir, "growth.csv"),
           _csv(["r", "S", "psi", "vol", "bound", "ref_vol"],
                _text(([[row.r, row.S, row.psi, row.vol, row.bound,
                         row.ref_vol] for row in rep.rows],))))
    if rep.fit is not None:
        k, ell, r2 = rep.fit
        lines.append("fit S(r): k=%s ell=%s r2=%s window=%g:%g"
                     % (_G % k, _G % ell, _G % r2, *rep.fit_window))
    lines.append("stencil_overshoot = %.6g"
                 % rep.metadata["stencil_overshoot"])
    for v in rep.verdicts:
        lines.append(v.summary_line())
    for w in rep.warnings:
        lines.append(f"WARN {w}")
    bad = {"fail"} | ({"indeterminate"} if strict else set())
    failed = [v for v in rep.verdicts if v.verdict in bad]
    return _finish(out_dir, "growth", lines,
                   EXIT_FAILED if failed else EXIT_OK)


def run_coords(cfg, out_dir):
    chart = cfg.make_chart()
    n = chart.n
    x0 = _base_point(cfg, chart)
    lines = _header(cfg, chart, (cfg.flow_resolution,) * n,
                    extra=[f"x0 = {','.join('%g' % x for x in x0)}",
                           f"flow_step = {cfg.flow_step:g}"])
    kw = dict(step=cfg.flow_step)
    try:
        fm = build_flow_map(chart, x0, cfg.flow_box_for(n),
                            cfg.flow_resolution, **kw)
    except HypothesisViolation as exc:
        lines.append(f"principal_coordinates SKIPPED by hypothesis ({exc})")
        return _finish(out_dir, "coords", lines, EXIT_OK)
    head = [f"t{k + 1}" for k in range(n)] + [f"u{k + 1}" for k in range(n)]
    _write(os.path.join(out_dir, "coords.csv"),
           _csv(head, _text((fm.grid.points.reshape(-1, n),
                             fm.points.reshape(-1, n)))))
    for w in fm.warnings:
        lines.append(f"WARN {w}")

    failed = False
    comm = commutator_residual(chart, x0)
    comm_tol = 1e-4
    ok = comm <= comm_tol
    failed |= not ok
    lines.append(f"commutator {'PASS' if ok else 'FAIL'} max={comm:.3e} "
                 f"tol={comm_tol:.1e}")

    checks = check_flow_identities(chart, x0, cfg.t_range, n_pairs=cfg.pairs,
                                   seed=cfg.seed, **kw)
    group, rt = checks["flow_group_law"], checks["flow_round_trip"]
    failed |= not (group.passed and rt.passed)
    lines.append(group.summary_line())
    lines.append(f"{rt.identity} {'PASS' if rt.passed else 'FAIL'} "
                 f"max={rt.max:.3e} tol={rt.tolerance:.1e}")

    try:
        for rep in verify_principal_frame_property(fm).values():
            failed |= not rep.passed
            lines.append(rep.summary_line())
    except HypothesisViolation as exc:
        lines.append(f"principal_frame SKIPPED by hypothesis ({exc})")
    return _finish(out_dir, "coords", lines,
                   EXIT_FAILED if failed else EXIT_OK)


def run_catalog_list():
    rows = []
    for name in catalog.names():
        if name == "sine_gordon_surface":
            rows.append((name, 2, 1, "-1", "0",
                         "integrated from a sine-Gordon angle field"))
            continue
        e = catalog.get(name)
        rows.append((name, e.n, e.p,
                     "none" if e.c is None else "%g" % e.c,
                     "%g" % e.ctilde, e.notes.split(";")[0]))
    w = max(len(r[0]) for r in rows)
    print(f"{'name':{w}}  n  p  {'c':>6}  {'c~':>4}  notes")
    for name, n, p, c, ct, notes in rows:
        print(f"{name:{w}}  {n}  {p}  {c:>6}  {ct:>4}  {notes}")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="flatbundle",
        description="Verify curvature identities and measure second-"
                    "fundamental-form growth for immersions with flat "
                    "normal bundle.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_run(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to a run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--engine", choices=list(engines.ENGINES),
                       default=None, help="override the differentiation engine")
        p.add_argument("--seed", type=int, default=None,
                       help="override the run seed, which draws the coords "
                            "group-law pairs and the growth length-check "
                            "polylines (verify does not use it)")
        return p

    add_run("verify", "run the curvature-identity suite")
    add_run("growth", "tabulate ball growth and the bound chain").add_argument(
        "--strict", action="store_true",
        help="treat indeterminate verdicts as failures")
    add_run("coords", "build principal coordinates by flow composition")

    pc = sub.add_parser("catalog", help="inspect the example catalog")
    pc.add_argument("action", choices=["list"])
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        return run_catalog_list()
    try:
        cfg = load_config(args.config)
        if args.engine is not None:
            cfg.engine = args.engine
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = args.out or cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "growth":
            return run_growth(cfg, out_dir, strict=args.strict)
        runner = {"verify": run_verify, "coords": run_coords}[args.command]
        return runner(cfg, out_dir)
    except (ConfigError, FileNotFoundError, DomainError,
            ModelConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolation as exc:
        print(f"skipped by hypothesis: {exc}")
        return EXIT_OK
    except (NumericalError, FlatBundleError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:   # exit 1 is reserved for failed identities
        print(f"internal error: {type(exc).__name__}: "
              + " ".join(str(exc).split()), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
