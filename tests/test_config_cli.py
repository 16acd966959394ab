"""Config parsing, user expression charts, and the command-line interface
(exercised through subprocesses, the way users run it)."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import flatbundle
from flatbundle import cli
from flatbundle.config import RunConfig, parse_config
from flatbundle.errors import ConfigError
from flatbundle.exprchart import parse_chart, parse_expression
from flatbundle.fundamental import fundamental_batch

PS_EXPR = """
name     = my_pseudosphere
n        = 2
ambient  = euclidean 3
c        = -1
domain   = 0.3 : 3, 0 : 6.283185307179586
periodic = false, true
map      = sech(u1)*cos(u2), sech(u1)*sin(u2), u1 - tanh(u1)
"""


# absolute, so the subprocess imports this package whatever its cwd
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    flatbundle.__file__)))


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "flatbundle.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# config parsing

def test_minimal_config_defaults():
    cfg = parse_config("[chart]\nname = pseudosphere\n")
    assert cfg.chart_name == "pseudosphere"
    assert cfg.resolution == (65,)
    assert cfg.seed == 12345
    assert cfg.engine is None
    assert cfg.radii == (0.5, 0.75, 1.0, 1.25, 1.5)
    assert cfg.make_chart().name == "pseudosphere"


def test_full_config_round_trip():
    cfg = parse_config("""
[chart]
name = dini
a = 2
b = 0.25
[grid]
resolution = 33, 49
engine = fd
[tolerances]
c1 = 2e-4
[growth]
x0 = 3.0, 0.7
radii = 0.3, 0.6, 0.9
window = 0.4 : 0.9
flow_box = -0.2 : 0.2
flow_step = 0.01
exploratory = false
[output]
dir = results
""")
    assert cfg.chart_params == {"a": 2.0, "b": 0.25}
    assert cfg.grid_resolution(2) == (33, 49)
    assert cfg.engine == "fd"
    assert cfg.tolerances == {"c1": 2e-4}
    assert cfg.x0 == (3.0, 0.7)
    assert cfg.window == (0.4, 0.9)
    assert cfg.flow_box_for(2) == ((-0.2, 0.2), (-0.2, 0.2))
    assert cfg.out_dir == "results"


@pytest.mark.parametrize("text", [
    "[grid]\nresolution = 65\n",                          # no chart
    "[chart]\nname = pseudosphere\n[mystery]\nx = 1\n",   # unknown section
    "[chart]\nname = pseudosphere\n[grid]\nstep = 2\n",   # unknown key
    "[chart]\nname = a\nexpression = b\n",                # both sources
    "[chart]\nname = pseudosphere\n[grid]\nresolution = 5\n",
    "[chart]\nname = pseudosphere\n[grid]\nengine = exact\n",
    "[chart]\nname = pseudosphere\n[tolerances]\nc1 = -1\n",
    "[chart]\nname = pseudosphere\n[growth]\nradii = 1.0, 0.5\n",
    "[chart]\nname = pseudosphere\n[growth]\nwindow = 2 : 1\n",
    "[chart]\nname = pseudosphere\n[growth]\nflow_step = 0\n",
])
def test_config_rejections(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_unknown_chart_name_is_config_error():
    cfg = parse_config("[chart]\nname = klein_bottle\n")
    with pytest.raises(ConfigError):
        cfg.make_chart()


# ---------------------------------------------------------------------------
# expression charts

def test_expression_chart_matches_catalog(pseudosphere):
    chart = parse_chart(PS_EXPR)
    assert chart.name == "my_pseudosphere"
    assert chart.periodic == (False, True)
    pts = np.array([[0.9, 1.0], [2.0, 4.0]])
    np.testing.assert_allclose(chart.evaluate(pts),
                               pseudosphere.chart.evaluate(pts), atol=1e-15)
    # AD works through the compiled closures
    fb = fundamental_batch(chart, pts, engine="ad")
    fb_ref = fundamental_batch(pseudosphere.chart, pts)
    np.testing.assert_allclose(fb.g, fb_ref.g, atol=1e-14)
    np.testing.assert_allclose(fb.sff_sq, fb_ref.sff_sq, atol=1e-12)


def test_expression_constants_and_power():
    f = parse_expression("pi * u1**2 - e + cos(2*u2)", 2)
    assert f([2.0, 0.5]) == pytest.approx(
        math.pi * 4.0 - math.e + math.cos(1.0))


@pytest.mark.parametrize("expr", [
    "__import__('os').system('true')",
    "u1.real",
    "(lambda x: x)(u1)",
    "u1[0]",
    "open('x')",
    "u3 + 1",                       # undeclared coordinate for n = 2
    "sin(u1, u2)",                  # wrong arity
    "'abc'",
    "u1 if u2 else 0",
])
def test_expression_whitelist_rejections(expr):
    with pytest.raises(ConfigError):
        parse_expression(expr, 2)


@pytest.mark.parametrize("mutation", [
    ("map      = sech(u1)*cos(u2), sech(u1)*sin(u2)", None),  # wrong count
    ("ambient  = euclidean 3", "ambient = torus 3"),
    ("domain   = 0.3 : 3, 0 : 6.283185307179586", "domain = 3 : 0.3, 0 : 6"),
    ("n        = 2", "n = 0"),
    ("periodic = false, true", "periodic = maybe, true"),
])
def test_chart_file_rejections(mutation):
    old, new = mutation
    text = PS_EXPR.replace(old, new) if new else PS_EXPR.replace(
        "map      = sech(u1)*cos(u2), sech(u1)*sin(u2), u1 - tanh(u1)", old)
    with pytest.raises(ConfigError):
        parse_chart(text)


# ---------------------------------------------------------------------------
# CLI subprocess behavior

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "ps.ini").write_text(
        "[chart]\nname = pseudosphere\n"
        "[growth]\nx0 = %.17g, %.17g\nradii = 0.4, 0.8, 1.2\n"
        "resolution = 65\nflow_box = -0.25 : 0.25\nflow_resolution = 5\n"
        "t_range = -0.25 : 0.25\npairs = 20\n"
        % (math.asinh(1.0), math.pi))
    (d / "sphere.ini").write_text(
        "[chart]\nname = sphere_negative_control\n"
        "[grid]\nresolution = 33\n")
    (d / "expr.chart").write_text(PS_EXPR)
    (d / "expr.ini").write_text(
        "[chart]\nexpression = expr.chart\n[grid]\nresolution = 33\n")
    return d


def test_cli_verify_passes(workdir):
    code, out, err = run_cli("verify", "--config", "ps.ini", "--out", "v",
                             cwd=workdir)
    assert code == 0, err
    summary = (workdir / "v" / "verify_summary.txt").read_text()
    for ident in ("intrinsic_curvature", "gauss", "codazzi_c1",
                  "connection_nn", "g0_flat"):
        assert f"{ident} PASS" in summary
    assert "codazzi_c2 PASS(vacuous)" in summary
    assert "engine = ad" in summary
    assert (workdir / "v" / "verify_gauss.csv").exists()


def test_cli_growth_deterministic(workdir):
    for sub in ("g1", "g2"):
        code, out, err = run_cli("growth", "--config", "ps.ini",
                                 "--out", sub, cwd=workdir)
        assert code == 0, err
    a = (workdir / "g1" / "growth.csv").read_bytes()
    b = (workdir / "g2" / "growth.csv").read_bytes()
    assert a == b
    assert a.decode().splitlines()[0] == "r,S,psi,vol,bound,ref_vol"
    summary = (workdir / "g1" / "growth_summary.txt").read_text()
    assert "length_comparison PASS" in summary
    assert "distance_comparison PASS" in summary
    assert "volume_bound(r=1.2) PASS" in summary


def test_cli_coords_passes(workdir):
    code, out, err = run_cli("coords", "--config", "ps.ini", "--out", "c",
                             cwd=workdir)
    assert code == 0, err
    summary = (workdir / "c" / "coords_summary.txt").read_text()
    for line in ("commutator PASS", "flow_group_law PASS",
                 "flow_round_trip PASS", "frame_orthonormality PASS",
                 "pullback_identity PASS"):
        assert line in summary
    head = (workdir / "c" / "coords.csv").read_text().splitlines()[0]
    assert head == "t1,t2,u1,u2"


def test_cli_sphere_control_skips(workdir):
    for cmd in ("growth", "coords"):
        code, out, err = run_cli(cmd, "--config", "sphere.ini",
                                 "--out", f"s_{cmd}", cwd=workdir)
        assert code == 0, err
        assert "SKIPPED by hypothesis" in out


def test_cli_expression_chart(workdir):
    code, out, err = run_cli("verify", "--config", "expr.ini",
                             "--out", "e", cwd=workdir)
    assert code == 0, err
    assert "gauss PASS" in out


def test_cli_usage_errors(workdir):
    code, _, err = run_cli("verify", "--config", "nope.ini", cwd=workdir)
    assert code == 2
    (workdir / "bad.ini").write_text("[chart]\nname = klein_bottle\n")
    code, _, err = run_cli("verify", "--config", "bad.ini", cwd=workdir)
    assert code == 2
    assert "error:" in err
    (workdir / "evil.chart").write_text(
        PS_EXPR.replace("u1 - tanh(u1)", "__import__('os')"))
    (workdir / "evil.ini").write_text(
        "[chart]\nexpression = evil.chart\n")
    code, _, err = run_cli("verify", "--config", "evil.ini", cwd=workdir)
    assert code == 2


@pytest.mark.parametrize("command, text", [
    # x0 outside the usable domain: used to be clamped to the nearest node
    ("growth", "[chart]\nname = pseudosphere\n[growth]\nx0 = 9, 1\n"),
    # x0 with three coordinates on an n = 2 chart: used to be truncated
    ("growth", "[chart]\nname = pseudosphere\n[growth]\nx0 = 1, 1, 5\n"),
    # a single flow sample has no spacing: used to raise IndexError
    ("coords", "[chart]\nname = dini\n[growth]\nflow_resolution = 1\n"),
    # x0 outside the domain in coords: used to exit 3 as a numerical failure
    ("coords", "[chart]\nname = dini\n[growth]\nx0 = 99, 0.75\n"),
])
def test_cli_rejects_bad_base_point_and_flow_resolution(workdir, command,
                                                        text):
    (workdir / "probe.ini").write_text(text)
    code, out, err = run_cli(command, "--config", "probe.ini",
                             "--out", "probe", cwd=workdir)
    assert code == 2, (out, err)
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


def test_cli_radius_overflow_is_config_error(workdir):
    """sinh overflows in the hyperbolic reference volume: used to raise an
    uncaught OverflowError, exit 1."""
    (workdir / "big.ini").write_text(
        "[chart]\nname = pseudosphere\n"
        "[growth]\nradii = 1000, 2000\nresolution = 17\n")
    code, out, err = run_cli("growth", "--config", "big.ini",
                             "--out", "big", cwd=workdir)
    assert code == 2, (out, err)
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "radius 1000" in err
    assert "Traceback" not in err


def test_cli_unexpected_exception_exits_3(workdir, monkeypatch, capsys):
    def boom(cfg, out_dir):
        raise RuntimeError("unexpected\nbreakage")

    monkeypatch.setattr(cli, "run_verify", boom)
    code = cli.main(["verify", "--config", str(workdir / "ps.ini"),
                     "--out", str(workdir / "boom")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL == 3
    assert err == "internal error: RuntimeError: unexpected breakage\n"


def _csv_per_row(header, columns):
    rows = np.hstack(columns)
    fmt = ",".join(["%.17g"] * rows.shape[1])
    return "\n".join([",".join(header)]
                     + [fmt % tuple(r) for r in rows.tolist()]) + "\n"


def test_csv_matches_per_row_formatting():
    nan_payload = np.array([0x7FF8000000000123], dtype=np.int64).view(float)
    special = np.array([0.0, -0.0, np.nan, -np.nan, nan_payload[0], np.inf,
                        -np.inf, 5e-324, -2.5e-310, np.finfo(float).tiny,
                        np.finfo(float).max, 1.0, 0.1, 1.0 / 3.0])
    rng = np.random.default_rng(7)
    repeated = rng.choice(special, size=(200, 2))
    grid = np.repeat(np.linspace(-1.0, 1.0, 5), 40)[:, None]
    cases = [
        (["a", "b", "c"], (repeated, grid)),
        (["a"], (special[:, None],)),
        (["x", "y"], (special[None, :1], special[None, 1:2])),   # 1 row
        (["k%d" % i for i in range(special.size)], (special[None, :],)),
        (["t", "u"], (grid[:, :1].copy(), -grid)),
    ]
    for header, columns in cases:
        assert cli._csv(header, columns) == _csv_per_row(header, columns)
    # 0.0 and -0.0 stay distinct
    assert cli._csv(["z"], (np.array([[0.0], [-0.0]]),)) == "z\n0\n-0\n"


def test_cli_engine_and_seed_overrides(workdir):
    code, out, _ = run_cli("verify", "--config", "ps.ini", "--out", "fd",
                           "--engine", "fd", "--seed", "7", cwd=workdir)
    assert code == 0
    summary = (workdir / "fd" / "verify_summary.txt").read_text()
    assert "engine = fd" in summary
    assert "seed = 7" in summary


def test_cli_catalog_list(workdir):
    code, out, _ = run_cli("catalog", "list", cwd=workdir)
    assert code == 0
    for name in ("pseudosphere", "dini", "clifford_torus_s3",
                 "sine_gordon_surface"):
        assert name in out
