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
import functools
import os
import sys

import numpy as np

from . import catalog, engines
from .config import load_config
from .errors import (ConfigError, DomainError, FlatBundleError,
                     HypothesisViolation, ModelConsistencyError)
from .fields import make_grid
from .flows import (build_flow_map, check_commutator, identity_chains,
                    verify_principal_frame_property)
from .growth import GrowthRow, default_resolution, growth_report
from .verifiers import verify_chart

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_G = "%.17g"
_W = 25      # bytes per CSV cell; the longest '%.17g' text has 24
_K = 240     # decimal exponents tabulated: -_K.._K


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


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


def _split(a):
    """Veltkamp's split of a into hi + lo == a, each with 26 bits."""
    c = 134217729.0 * a                                      # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """Tables read by :func:`_g17_values`.

    Row k + _K for each decimal exponent k = -_K.._K: 10**(16 - k) as
    hi + lo, two doubles each rounded correctly from an exact integer
    ratio, the two halves of hi, and the '%g' exponent text of k,
    NUL-padded to 5 bytes.

    Row k + 5 for k = -5..17, where k = -5 stands for every exponent below
    -4 and k = 17 for every one above 16: the '%.17g' text as _W slots,
    each slot's column in the source bytes of :func:`_g17_values`, and
    the least number of significant digits that keeps the slot."""
    hi, lo, exp, cols, need = [], [], b"", [], []
    for k in range(-_K, _K + 1):
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
        exp += (b"" if -4 <= k < 17 else b"e%+03d" % k).ljust(5, b"\0")
    for k in range(-5, 18):
        # sign, then z zeros (the '0.000' of a value below 1) and the 17
        # digits, with a '.' after the first n_int, then the exponent.  A
        # character past the '.' is kept when the digits reach it, and
        # the '.' when the character after it is kept
        fixed = -4 <= k < 17
        z = -k if fixed and k < 0 else 0
        n_int = k + 1 if fixed and k > 0 else 1
        chars = [17] * z + list(range(17))
        slot = [19, *chars[:n_int], 18, *chars[n_int:]]
        keep = [0] * (n_int + 1) + [j - z + 1 for j in
                                    (n_int, *range(n_int, z + 17))]
        if not fixed:
            slot += range(20, 25)
        cols.append((slot + [25] * _W)[:_W])
        need.append((keep + [0] * _W)[:_W])
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo),
            np.frombuffer(exp, np.uint8).reshape(-1, 5),
            np.array(cols, dtype=np.intp), np.array(need, dtype=np.int8))


def _g17_one(x):
    """'%.17g' % x, for a value the vectorized path leaves out."""
    return _G % x


def _g17_values(x):
    """(len(x), _W) uint8: the '%.17g' text of each value of the float
    array x, NUL-padded.  Values of one decimal exponent share a layout;
    in bit-pattern order (as :func:`_g17` passes each column) they form
    at most two runs per column, one per sign.

    With k = floor(log10|x|), corrected by one where the product leaves
    [1e16, 1e17), |x| * 10**(16 - k) = p + e to within about 1e-15:
    Dekker's exact product of |x| and hi, plus |x| * lo.  p >= 2**53 is
    an integer, so rounding p + e gives the 17 digits N.  Values that are
    0, inf, nan or outside [1e-230, 1e230], whose e is within 1e-6 of a
    half-integer (ties included), or whose p + e is not in
    [1e16, 1e17 - 0.5) are formatted one by one by :func:`_g17_one`."""
    hi, hi_h, hi_l, lo, exp, cols, need = _tables()
    a = np.abs(x)
    fast = (a >= 1e-230) & (a <= 1e230)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    p = a * hi[k + _K]
    k += p >= 1e17
    k -= p < 1e16
    i = k + _K
    p = a * hi[i]
    a_h, a_l = _split(a)
    e = ((a_h * hi_h[i] - p) + a_h * hi_l[i] + a_l * hi_h[i]
         + a_l * hi_l[i] + a * lo[i])
    f = np.floor(e)
    N = p.astype(np.int64) + f.astype(np.int64)          # floor(p + e)
    fast &= (np.abs(e - f - 0.5) > 1e-6) & (N >= 10**16)
    N += e - f > 0.5
    fast &= N < 10**17

    # source bytes per value: the 17 digits, '0', '.', the sign, the
    # exponent text and NUL
    src = np.zeros((len(x), 26), np.uint8)
    for c in range(16, -1, -1):
        q = N // 10
        src[:, c] = N - 10 * q + 48
        N = q
    sd = 17 - np.argmax(src[:, 16::-1] != 48, axis=1).astype(np.int8)
    src[:, 17:19] = np.frombuffer(b"0.", np.uint8)
    src[np.signbit(x), 19] = ord("-")
    src[:, 20:25] = exp[i]
    out = np.empty((len(x), _W), np.uint8)
    runs = np.flatnonzero(np.diff(i, prepend=-1))
    for s, t in zip(runs, [*runs[1:], len(x)]):
        j = min(max(k[s], -5), 17) + 5
        out[s:t] = (np.take(src[s:t], cols[j], axis=1)
                    * (need[j] <= sd[s:t, None]))
    for r in np.flatnonzero(~fast):
        text = _g17_one(float(x[r])).encode()
        out[r] = 0
        out[r, :len(text)] = list(text)
    return out


def _g17(block):
    """(rows, k, _W) uint8: the '%.17g' text of the (rows, k) float block,
    NUL-padded.  Each column formats each distinct bit pattern once (so
    0.0 and -0.0 stay apart)."""
    cols = [np.unique(col.view(np.int64), return_inverse=True)
            for col in np.asarray(block, dtype=float).T]
    text = _g17_values(np.concatenate([key for key, _ in cols])
                       .view(np.float64))
    start = np.cumsum([0] + [len(key) for key, _ in cols])
    return np.stack([text[inv + s] for (_, inv), s in zip(cols, start)],
                    axis=1)


def _csv(header, columns):
    """CSV bytes: the header, then the (rows, k) float column blocks side
    by side, each value as '%.17g' formats it.  A block may also be given
    as the text :func:`_g17` made of it, so that a block shared by several
    files is formatted once."""
    text = np.concatenate([c if c.dtype == np.uint8 else _g17(c)
                           for c in map(np.asarray, columns)], axis=1)
    cells = np.empty(text.shape[:2] + (_W + 1,), np.uint8)
    cells[..., :_W] = text
    cells[..., _W] = ord(",")
    cells[:, -1, _W] = ord("\n")
    return ((",".join(header) + "\n").encode()
            + cells.tobytes().translate(None, b"\0"))


def _skipped(name, why):
    return f"{name} SKIPPED by hypothesis ({why})"


def _finish(out_dir, name, lines, failed):
    """Write <name>_summary.txt, echo it and return the exit code: 1 if
    anything failed, else 0."""
    text = "\n".join(lines)
    _write(os.path.join(out_dir, f"{name}_summary.txt"),
           (text + "\n").encode())
    print(text)
    return EXIT_FAILED if failed else EXIT_OK


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
    pts_text = _g17(pts)                           # shared by every CSV
    for rep in reports:
        lines.append(rep.summary_line())
        if rep.residual_grid.size == len(pts):     # not a vacuous n < 3 c2
            _write(os.path.join(out_dir, f"verify_{rep.identity}.csv"),
                   _csv(head, (pts_text, rep.residual_grid.reshape(-1, 1))))
    lines.extend(_skipped(name, why) for name, why in skipped.items())
    return _finish(out_dir, "verify", lines,
                   any(not r.passed for r in reports))


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
        lines.append(_skipped("bound_chain", exc))
        return _finish(out_dir, "growth", lines, False)

    _write(os.path.join(out_dir, "growth.csv"),
           _csv(GrowthRow._fields, (rep.rows,)))
    if rep.fit is not None:
        lines.append("fit S(r): k=%s ell=%s r2=%s window=%g:%g"
                     % (*(_G % x for x in rep.fit), *rep.fit_window))
    lines.append("stencil_overshoot = %.6g" % rep.stencil_overshoot)
    lines.extend(v.summary_line() for v in rep.verdicts)
    lines.extend(f"WARN {w}" for w in rep.warnings)
    bad = {"fail"} | ({"indeterminate"} if strict else set())
    return _finish(out_dir, "growth", lines,
                   any(v.verdict in bad for v in rep.verdicts))


def run_coords(cfg, out_dir):
    chart = cfg.make_chart()
    n = chart.n
    x0 = _base_point(cfg, chart)
    lines = _header(cfg, chart, (cfg.flow_resolution,) * n,
                    extra=[f"x0 = {','.join('%g' % x for x in x0)}",
                           f"flow_step = {cfg.flow_step:g}"])
    # the identity flows share the map's flow_points call
    identities = identity_chains(chart, x0, cfg.t_range,
                                 np.random.default_rng(cfg.seed),
                                 n_pairs=cfg.pairs, step=cfg.flow_step)
    try:
        fm = build_flow_map(chart, x0, cfg.flow_box_for(n),
                            cfg.flow_resolution, step=cfg.flow_step,
                            beside=[identities])
    except HypothesisViolation as exc:
        lines.append(_skipped("principal_coordinates", exc))
        return _finish(out_dir, "coords", lines, False)
    head = [f"t{k + 1}" for k in range(n)] + [f"u{k + 1}" for k in range(n)]
    _write(os.path.join(out_dir, "coords.csv"),
           _csv(head, (fm.grid.points.reshape(-1, n),
                       fm.points.reshape(-1, n))))
    lines.extend(f"WARN {w}" for w in fm.warnings)

    # identities.result() raises an identity flow's error
    reports = [check_commutator(chart, x0), *identities.result().values()]
    skipped = []
    try:
        reports.extend(verify_principal_frame_property(fm).values())
    except HypothesisViolation as exc:
        skipped.append(_skipped("principal_frame", exc))
    lines.extend(rep.summary_line() for rep in reports)
    return _finish(out_dir, "coords", lines + skipped,
                   any(not r.passed for r in reports))


def run_catalog_list():
    w = max(map(len, catalog.names()))
    print(f"{'name':{w}}  n  p  {'c':>6}  {'c~':>4}  notes")
    for name in catalog.names():
        n, p, c, ct, notes = catalog.describe(name)
        c = "none" if c is None else "%g" % c
        print(f"{name:{w}}  {n}  {p}  {c:>6}  {'%g' % ct:>4}  "
              f"{notes.split(';')[0]}")
    return EXIT_OK


def _seed(text):
    """A --seed value: numpy's generators take non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {seed}")
    return seed


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
        p.add_argument("--seed", type=_seed, default=None,
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
        out_dir = cfg.out_dir if args.out is None else args.out
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir!r} cannot be "
                              f"created: {exc.strerror}") from None
        if args.command == "growth":
            return run_growth(cfg, out_dir, strict=args.strict)
        runner = {"verify": run_verify, "coords": run_coords}[args.command]
        return runner(cfg, out_dir)
    except (ConfigError, DomainError, ModelConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolation as exc:
        print(f"skipped by hypothesis: {exc}")
        return EXIT_OK
    except (FlatBundleError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:   # exit 1 is reserved for failed identities
        print(f"internal error: {type(exc).__name__}: "
              + " ".join(str(exc).split()), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
