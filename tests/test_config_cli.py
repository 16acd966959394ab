"""Config parsing, user expression charts, and the command-line interface
(exercised through subprocesses, the way users run it)."""

import configparser
import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatbundle
from flatbundle import catalog, cli, config, engines, exprchart
from flatbundle import dual as dm
from flatbundle.config import RunConfig, parse_config
from flatbundle.errors import ConfigError
from flatbundle.exprchart import parse_chart, parse_expression
from flatbundle.fundamental import fundamental_batch
from flatbundle.growth import GrowthRow, growth_report
from flatbundle.verifiers import TOLERANCE_KEYS

PS_EXPR = """
name     = my_pseudosphere
n        = 2
ambient  = euclidean 3
c        = -1
domain   = 0.3 : 3, 0 : 6.283185307179586
periodic = false, true
map      = sech(u1)*cos(u2), sech(u1)*sin(u2), u1 - tanh(u1)
"""

CIRCLE_EXPR = """
name     = circle
n        = 1
ambient  = euclidean 2
c        = -1
domain   = 0 : 6.283185307179586
periodic = true
map      = cos(u1), sin(u1)
"""


# absolute, so the subprocess imports this package whatever its cwd
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    flatbundle.__file__)))


def _python(*args, cwd=None):
    """Run this interpreter on ``args`` with this package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*args, cwd=None):
    return _python("-m", "flatbundle.cli", *args, cwd=cwd)


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
    # non-finite flow and growth inputs: each used to exit 3
    "[chart]\nname = dini\n[growth]\nflow_step = nan\n",
    "[chart]\nname = dini\n[growth]\nflow_step = inf\n",
    "[chart]\nname = dini\n[growth]\nflow_box = nan : nan\n",
    "[chart]\nname = dini\n[growth]\nflow_box = -inf : inf\n",
    "[chart]\nname = dini\n[growth]\nflow_box = -0.2 : 0.2, 0.1 : nan\n",
    "[chart]\nname = dini\n[growth]\nflow_box = 0 : 0\n",
    "[chart]\nname = dini\n[growth]\nt_range = -inf : 0.2\n",
    "[chart]\nname = dini\n[growth]\nt_range = -1e-12 : 1e-12\n",
    "[chart]\nname = pseudosphere\n[growth]\nradii = 0.5, nan\n",
    "[chart]\nname = pseudosphere\n[growth]\nradii = 0.5, inf\n",
    "[chart]\nname = dini\n[growth]\nflow_resolution = 4\n",
])
def test_config_rejections(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_readme_full_example_names_every_config_key():
    """The README's full example sets exactly the keys of the config
    table, section by section: the [chart] keys are free, and each
    tolerance key is set on a line whose comment names its identity."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split(
        "Full example:\n\n```ini\n", 1)[1].split("```", 1)[0]
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    cp.read_string(block)
    assert cp.sections() == list(config._KEYS)
    for sec, keys in config._KEYS.items():
        if keys is not None:
            assert set(cp.options(sec)) == set(keys), sec
    for identity, key in TOLERANCE_KEYS.items():
        assert re.search(rf"^{key} = \S+ +# {identity}$", block,
                         re.MULTILINE), key
    cfg = parse_config(block)
    assert (cfg.chart_name, cfg.chart_params) == ("dini",
                                                  {"a": 1.0, "b": 0.5})
    assert set(cfg.tolerances) == set(TOLERANCE_KEYS.values())


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
    np.testing.assert_allclose(chart.jet(pts).value,
                               pseudosphere.chart.jet(pts).value, atol=1e-15)
    # AD works through the compiled closures
    fb = fundamental_batch(dataclasses.replace(chart, engine="ad"), pts)
    fb_ref = fundamental_batch(pseudosphere.chart, pts)
    np.testing.assert_allclose(fb.g, fb_ref.g, atol=1e-14)
    np.testing.assert_allclose(fb.sff_sq, fb_ref.sff_sq, atol=1e-12)


H3_EXPR = ("n = 3\nambient = euclidean 5\nc = -1\n"
           "domain = -3 : -0.7, 0 : 6.283185307179586, "
           "0 : 6.283185307179586\nperiodic = false, true, true\n"
           "map = exp(u1)*cos(u2), exp(u1)*sin(u2), exp(u1)*cos(u3), "
           "exp(u1)*sin(u3), sqrt(1 - 2*exp(2*u1)) - 0.5*log((1 + "
           "sqrt(1 - 2*exp(2*u1)))/(1 - sqrt(1 - 2*exp(2*u1))))\n")


def _h3_map(u):
    """The H3_EXPR map written by hand, operation by operation."""
    def root():
        return dm.sqrt(1.0 - 2.0 * dm.exp(2.0 * u[0]))
    return (dm.exp(u[0]) * dm.cos(u[1]), dm.exp(u[0]) * dm.sin(u[1]),
            dm.exp(u[0]) * dm.cos(u[2]), dm.exp(u[0]) * dm.sin(u[2]),
            root() - 0.5 * dm.log((1.0 + root()) / (1.0 - root())))


@pytest.mark.parametrize("engine", ["ad", "fd"])
def test_compiled_chart_is_the_hand_written_map(engine):
    """The H^3 in R^5 chart of the n = 3 runs, compiled from its expression
    file, gives the jet of the same map written with flatbundle.dual, bit
    for bit."""
    chart = dataclasses.replace(parse_chart(H3_EXPR), engine=engine)
    lo, hi = np.array(chart.usable_domain()).T
    U = lo + (hi - lo) * np.random.default_rng(7).uniform(0.1, 0.9, (4, 3, 3))
    got = chart.jet(U)
    want = engines.jet(_h3_map, U, 3, engine=engine,
                       h=chart.fd_step() if engine == "fd" else None)
    for attr in ("value", "first", "second"):
        np.testing.assert_array_equal(getattr(got, attr),
                                      getattr(want, attr))


def test_map_is_one_tuple_expression():
    """Outer parentheses and a trailing comma are Python tuple syntax."""
    base = parse_chart(PS_EXPR)
    pts = np.array([[0.9, 1.0], [2.0, 4.0]])
    for new in ("(sech(u1)*cos(u2), sech(u1)*sin(u2), u1 - tanh(u1))",
                "sech(u1)*cos(u2), sech(u1)*sin(u2), u1 - tanh(u1),"):
        chart = parse_chart(PS_EXPR.replace(
            "sech(u1)*cos(u2), sech(u1)*sin(u2), u1 - tanh(u1)", new))
        np.testing.assert_array_equal(chart.jet(pts).second,
                                      base.jet(pts).second)


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
    ("c        = -1", "c = nan"),          # C = nan passed the gap check
    ("c        = -1", "c = -inf"),
    ("ambient  = euclidean 3", "ambient = sphere inf 2"),
])
def test_chart_file_rejections(mutation):
    old, new = mutation
    text = PS_EXPR.replace(old, new) if new else PS_EXPR.replace(
        "map      = sech(u1)*cos(u2), sech(u1)*sin(u2), u1 - tanh(u1)", old)
    with pytest.raises(ConfigError):
        parse_chart(text)


def test_readme_chart_example_is_the_pseudosphere(pseudosphere):
    """The chart file shown under "User-defined charts" in the README parses
    to the catalog pseudosphere."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split(
        "### User-defined charts\n", 1)[1].split("```ini\n", 1)[1].split(
        "```", 1)[0]
    chart = parse_chart(block)
    assert (chart.n, chart.c, chart.periodic) == (2, -1.0, (False, True))
    pts = np.array([[0.9, 1.0], [2.0, 4.0]])
    np.testing.assert_allclose(chart.jet(pts).value,
                               pseudosphere.chart.jet(pts).value, atol=1e-15)
    fb, fb_ref = (fundamental_batch(c, pts)
                  for c in (chart, pseudosphere.chart))
    np.testing.assert_allclose(fb.g, fb_ref.g, atol=1e-14)
    np.testing.assert_allclose(fb.sff_sq, fb_ref.sff_sq, atol=1e-12)


# one malformed value for each key a user can get wrong: every [grid] and
# [growth] key, one catalog parameter and one [tolerances] key, and every
# chart-file key ([output] dir and a chart's name take any text)
MALFORMED_CONFIG = {
    ("chart", "a"): "x",
    ("grid", "resolution"): "33, 5",
    ("grid", "engine"): "exact",
    ("tolerances", "gauss"): "inf",
    ("growth", "x0"): "1, a",
    ("growth", "radii"): "1, 0.5",
    ("growth", "window"): "1",
    ("growth", "resolution"): "17.5",
    ("growth", "exploratory"): "maybe",
    ("growth", "flow_box"): "0 : 0",
    ("growth", "flow_resolution"): "4",
    ("growth", "flow_step"): "nan",
    ("growth", "t_range"): "0.3 : -0.3",
    ("growth", "pairs"): "0",
}
MALFORMED_CHART = {"n": "two", "ambient": "torus 3", "c": "nan",
                   "domain": "0.3 : 3, 0", "periodic": "maybe, true",
                   "map": "sech(u1"}


def test_every_key_has_a_malformed_example():
    assert set(MALFORMED_CONFIG) == {
        (sec, key) for sec in ("grid", "growth") for key in config._KEYS[sec]
    } | {("chart", "a"), ("tolerances", "gauss")}
    assert set(MALFORMED_CHART) | {"name"} == set(exprchart._CHART_KEYS)


def _exit_and_error(capsys, config_path, command="verify"):
    code = cli.main([command, "--config", str(config_path),
                     "--out", str(config_path.parent / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("section, key", sorted(MALFORMED_CONFIG))
def test_a_malformed_config_value_names_its_key(tmp_path, capsys, section,
                                                key):
    """A malformed [growth] or [grid] value used to exit 2 without naming
    its key: window = 1 printed "bad config value: not enough values to
    unpack (expected 2, got 1)"."""
    value = MALFORMED_CONFIG[section, key]
    head = "" if section == "chart" else f"[{section}]\n"
    (tmp_path / "bad.ini").write_text(
        f"[chart]\nname = dini\n{head}{key} = {value}\n")
    code, err = _exit_and_error(capsys, tmp_path / "bad.ini")
    assert code == 2, err
    assert err.startswith(f"error: [{section}] {key} = {value}: expected "), err
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("key", sorted(MALFORMED_CHART))
def test_a_malformed_chart_value_names_its_key(tmp_path, capsys, key):
    value = MALFORMED_CHART[key]
    (tmp_path / "bad.chart").write_text(re.sub(
        rf"^{key} *=.*$", f"{key} = {value}", PS_EXPR, flags=re.MULTILINE))
    (tmp_path / "bad.ini").write_text(
        f"[chart]\nexpression = {tmp_path / 'bad.chart'}\n")
    code, err = _exit_and_error(capsys, tmp_path / "bad.ini")
    assert code == 2, err
    assert err.startswith(f"error: {key} = {value}: "), err
    assert len(err.splitlines()) == 1, err


def test_an_oversized_map_constant_is_invalid_input():
    """An integer literal past the largest float used to exit 3 with
    "internal error: OverflowError: int too large to convert to float"."""
    with pytest.raises(ConfigError,
                       match=r"^map = .*: integer constant too large$"):
        parse_chart(PS_EXPR.replace("u1 - tanh(u1)", "u1 - 1" + "0" * 400))


def test_a_multi_line_config_value_is_named_on_one_line(tmp_path, capsys):
    (tmp_path / "bad.ini").write_text(
        "[chart]\nname = dini\n[growth]\nradii = 0.5,\n  x\n")
    code, err = _exit_and_error(capsys, tmp_path / "bad.ini")
    assert (code, err) == (
        2, "error: [growth] radii = 0.5, x: expected a finite positive "
           "number\n")


@pytest.mark.parametrize("ambient, chart_map", [
    ("euclidean 1", "u1"),
    ("sphere 1 1", "cos(u1), sin(u1)"),
])
def test_an_ambient_without_room_for_n_is_invalid_input(tmp_path, capsys,
                                                        ambient, chart_map):
    """An n = 2 chart in a 1-dimensional ambient had codimension -1:
    verify, growth and coords all exited 3 with "first fundamental form
    not positive definite"."""
    text = PS_EXPR.replace("euclidean 3", ambient).replace(
        "sech(u1)*cos(u2), sech(u1)*sin(u2), u1 - tanh(u1)", chart_map)
    kind = ambient.split()[0]
    message = (f"my_pseudosphere: ambient {kind} of dimension 1 has no room "
               "for n = 2")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_chart(text)
    (tmp_path / "small.chart").write_text(text)
    (tmp_path / "small.ini").write_text(
        f"[chart]\nexpression = {tmp_path / 'small.chart'}\n")
    for command in ("verify", "growth", "coords"):
        code, err = _exit_and_error(capsys, tmp_path / "small.ini", command)
        assert (code, err) == (2, f"error: {message}\n"), command


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
    (d / "circle.chart").write_text(CIRCLE_EXPR)
    (d / "nan.chart").write_text(PS_EXPR.replace("c        = -1",
                                                 "c        = nan"))
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
    lines = a.decode().splitlines()
    assert lines[0] == "r,S,psi,vol,bound,ref_vol"
    assert len(lines) == 1 + 3                      # one row per radius
    assert b"\r" not in a
    summary = (workdir / "g1" / "growth_summary.txt").read_text()
    assert "length_comparison PASS" in summary
    assert "distance_comparison PASS" in summary
    assert "volume_bound(r=1.2) PASS" in summary


def test_cli_growth_csv_rows_are_the_report_rows(workdir):
    """growth.csv's header is GrowthRow's fields, and its rows parse back
    to the rows growth_report makes from the same config."""
    code, _, err = run_cli("growth", "--config", "ps.ini", "--out", "rows",
                           cwd=workdir)
    assert code == 0, err
    lines = (workdir / "rows" / "growth.csv").read_text().splitlines()
    assert lines[0] == ",".join(GrowthRow._fields)
    cfg = config.load_config(str(workdir / "ps.ini"))
    rep = growth_report(cfg.make_chart(), cfg.x0, cfg.radii,
                        window=cfg.window, resolution=cfg.growth_resolution,
                        seed=cfg.seed, exploratory=cfg.exploratory)
    rows = [GrowthRow(*map(float, line.split(","))) for line in lines[1:]]
    np.testing.assert_array_equal(rows, rep.rows)


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


# The Veronese surface in S^4: C = 1 - 1/3 > 0, but its normal bundle is
# not flat, so the machinery that needs that hypothesis must not run.
VERONESE_EXPR = """
name    = veronese_expr
n       = 2
ambient = sphere 1 4
c       = 0.3333333333333333
domain  = 0.2 : 1.2, 0.2 : 1.0
map     = """ + ", ".join([
    "sqrt(3)*cos(u1)*cos(u2)*sin(u1)*cos(u2)",
    "sqrt(3)*cos(u1)*cos(u2)*sin(u2)",
    "sqrt(3)*sin(u1)*cos(u2)*sin(u2)",
    "sqrt(3)*((cos(u1)*cos(u2))**2 - (sin(u1)*cos(u2))**2)/2",
    "((cos(u1)*cos(u2))**2 + (sin(u1)*cos(u2))**2 - 2*sin(u2)**2)/2"]) + "\n"


def test_cli_coords_guards_flat_normal_bundle(tmp_path):
    (tmp_path / "ver.chart").write_text(VERONESE_EXPR)
    (tmp_path / "ver.ini").write_text(
        "[chart]\nexpression = ver.chart\n[grid]\nresolution = 17\n")
    code, out, err = run_cli("coords", "--config", "ver.ini", "--out", "c",
                             cwd=tmp_path)
    assert code == 0, err
    summary = (tmp_path / "c" / "coords_summary.txt").read_text()
    assert summary.splitlines()[-1].startswith(
        "principal_coordinates SKIPPED by hypothesis (normal bundle not "
        "flat, residual")
    assert not (tmp_path / "c" / "coords.csv").exists()


# Two circles of radius sqrt(2): |x|^2 = 4, so the image is off the
# unit S^3 its ambient names.
OFF_SPHERE_EXPR = """
name     = off_sphere
n        = 2
ambient  = sphere 1 3
c        = 0
domain   = 0 : 6.283185307179586, 0 : 6.283185307179586
periodic = true, true
map      = sqrt(2)*cos(u1), sqrt(2)*sin(u1), sqrt(2)*cos(u2), sqrt(2)*sin(u2)
"""


def test_cli_non_finite_domain_bound_is_invalid_input(tmp_path):
    """An infinite bound was accepted: verify warned from numpy and then
    failed on a NaN grid point."""
    (tmp_path / "inf.chart").write_text(
        PS_EXPR.replace("domain   = 0.3 : 3,", "domain   = 0.3 : inf,"))
    (tmp_path / "inf.ini").write_text(
        "[chart]\nexpression = inf.chart\n[grid]\nresolution = 17\n")
    code, out, err = run_cli("verify", "--config", "inf.ini", "--out", "o",
                             cwd=tmp_path)
    assert code == 2, (out, err)
    assert err == ("error: domain = 0.3 : inf, 0 : 6.283185307179586: "
                   "expected 'lo : hi' with finite lo < hi\n"), err
    for bad in ("-inf : 3", "0.3 : nan", "nan : nan"):
        with pytest.raises(ConfigError, match=re.escape(
                f"domain = {bad}, 0 : 6.283185307179586: expected 'lo : hi' "
                "with finite lo < hi")):
            parse_chart(PS_EXPR.replace("0.3 : 3", bad))


@pytest.mark.parametrize("command", ["verify", "growth", "coords"])
def test_cli_chart_off_its_model_is_invalid_input(tmp_path, command):
    """No pipeline checked the model: verify exited 1 on a Gauss FAIL,
    growth and coords exited 0 with every check passing."""
    (tmp_path / "off.chart").write_text(OFF_SPHERE_EXPR)
    (tmp_path / "off.ini").write_text(
        "[chart]\nexpression = off.chart\n[grid]\nresolution = 17\n"
        "[growth]\nresolution = 33\nflow_resolution = 5\n")
    code, out, err = run_cli(command, "--config", "off.ini", "--out", "o",
                             cwd=tmp_path)
    assert code == 2, (out, err)
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "off_sphere: model constraint residual" in err


def test_cli_verify_names_each_identity_once(tmp_path):
    (tmp_path / "v.ini").write_text(
        "[chart]\nname = veronese_r5\n[grid]\nresolution = 17\n")
    code, out, err = run_cli("verify", "--config", "v.ini", "--out", "v",
                             cwd=tmp_path)
    assert code == 0, err
    lines = (tmp_path / "v" / "verify_summary.txt").read_text().splitlines()
    for ident in ("intrinsic_curvature", "gauss", "codazzi_c1",
                  "codazzi_c2", "connection_nn", "g0_flat"):
        named = [ln for ln in lines if ln.split(" ")[0] == ident]
        assert len(named) == 1, (ident, named)
        assert named[0].startswith(
            f"{ident} SKIPPED by hypothesis (normal bundle not flat")


def test_cli_summaries_print_the_grid_they_used(tmp_path):
    """growth used to print the verify grid ([grid] resolution, 17,17
    here) whatever its own resolution, and coords printed it too, though
    it samples the flow grid."""
    (tmp_path / "g.ini").write_text(
        "[chart]\nname = pseudosphere\n[grid]\nresolution = 17\n"
        "[growth]\nradii = 0.4, 0.8\nresolution = 33\nflow_resolution = 5\n"
        "flow_box = -0.2 : 0.2\nt_range = -0.2 : 0.2\npairs = 4\n")
    for cmd, grid in (("growth", "33,33"), ("coords", "5,5")):
        code, out, err = run_cli(cmd, "--config", "g.ini", "--out", cmd,
                                 cwd=tmp_path)
        assert code == 0, err
        summary = (tmp_path / cmd / f"{cmd}_summary.txt").read_text()
        assert f"grid = {grid}" in summary.splitlines(), (cmd, summary)


def test_cli_refuses_an_engine_the_chart_cannot_use(tmp_path):
    """The sine-Gordon chart is a spline that only FD can differentiate:
    --engine ad used to exit 3 with a TypeError about HyperDual."""
    (tmp_path / "sg.ini").write_text(
        "[chart]\nname = sine_gordon_surface\n[grid]\nresolution = 17\n")
    code, out, err = run_cli("verify", "--config", "sg.ini", "--out", "sg",
                             "--engine", "ad", cwd=tmp_path)
    assert code == 2, (out, err)
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "sine_gordon_surface" in err and "supported: fd" in err


def _sine_gordon_ini(tmp_path, chart_lines):
    (tmp_path / "sg.ini").write_text(
        "[chart]\nname = sine_gordon_surface\n" + chart_lines
        + "\n[grid]\nresolution = 17\n")


def test_cli_sine_gordon_integer_parameters(tmp_path):
    """[chart] values arrive as floats: substeps = 4 used to exit 2 with
    "'float' object cannot be interpreted as an integer"."""
    _sine_gordon_ini(tmp_path, "resolution = 33\nsubsteps = 4")
    code, out, err = run_cli("verify", "--config", "sg.ini", "--out", "sg",
                             cwd=tmp_path)
    assert code == 0, err
    assert "gauss PASS" in out


@pytest.mark.parametrize("line, key", [
    ("resolution = 161.7", "resolution"),   # was truncated to 161
    ("resolution = 5", "resolution"),       # no quintic spline: exit 3
    ("substeps = 0", "substeps"),           # divide-by-zero warning
    ("substeps = 2.5", "substeps"),
    ("residual_tol = -1", "residual_tol"),  # exit 3
    ("residual_tol = nan", "residual_tol"),  # both guards off, exit 0
    ("domain = 1", "domain"),   # "'float' object is not subscriptable"
])
def test_cli_rejects_bad_sine_gordon_parameters(tmp_path, line, key):
    _sine_gordon_ini(tmp_path, line)
    code, out, err = run_cli("verify", "--config", "sg.ini", "--out", "sg",
                             cwd=tmp_path)
    assert code == 2, (out, err)
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert key in err


# scipy modules that no run needs: the quadrature, the convex hull and the
# spline are numpy code, and these came only with the modules that held them
UNUSED_SCIPY = ("scipy.integrate", "scipy.spatial", "scipy.interpolate",
                "scipy.optimize", "scipy.special")


def _loaded(modules):
    """Python source printing which of ``modules`` (or their submodules)
    are loaded."""
    return (f"print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            f"[p.split('.') for p in {modules!r}]))")


def test_cli_import_leaves_out_the_sine_gordon_chart(tmp_path):
    """The sine-Gordon integration loads only when a run asks for that
    chart, never with the CLI itself, and the CLI loads no scipy module
    that no run uses; a sine-Gordon verify (a numpy spline) loads neither
    scipy.interpolate nor scipy.optimize."""
    code, out, err = _python("-c", "import sys, flatbundle.cli; " + _loaded(
        ("flatbundle.sinegordon",) + UNUSED_SCIPY))
    assert code == 0, err
    assert out.strip() == "[]"
    (tmp_path / "sg.ini").write_text(
        "[chart]\nname = sine_gordon_surface\n[grid]\nresolution = 33\n")
    code, out, err = _python(
        "-c", "import sys, flatbundle.cli as cli; "
        "code = cli.main(['verify', '--config', 'sg.ini', '--out', 'sg']); "
        + _loaded(("scipy.interpolate", "scipy.optimize"))
        + "; sys.exit(code)", cwd=tmp_path)
    assert code == 0, err
    assert "gauss PASS" in out
    assert out.splitlines()[-1] == "[]"


def test_cli_commutator_stencil_near_the_domain_edge(tmp_path):
    """x0 lies in the usable domain, but the commutator stencil used to
    reach u1 = -1.619 past the declared -1.6: commutator FAIL, exit 1."""
    (tmp_path / "sg.ini").write_text(
        "[chart]\nname = sine_gordon_surface\n"
        "[growth]\nx0 = -1.59, -1.0\nflow_box = -0.002 : 0.002\n"
        "flow_resolution = 5\nt_range = -0.001 : 0.001\npairs = 5\n"
        "flow_step = 0.001\n")
    code, out, err = run_cli("coords", "--config", "sg.ini", "--out", "c",
                             cwd=tmp_path)
    assert code == 0, (out, err)
    assert "commutator PASS" in out
    # 1 - |O|/norm rounded below 0 here: max=-2.220e-16
    align = next(line for line in out.splitlines()
                 if line.startswith("frame_alignment"))
    assert float(align.split("max=")[1].split()[0]) >= 0.0, align


def test_cli_t_range_that_takes_no_step_is_invalid_input(tmp_path):
    """Both ends of t_range within 1e-9 flow steps of 0: no group-law or
    round-trip flow took a step, and coords printed flow_group_law PASS
    max=0.000e+00."""
    (tmp_path / "still.ini").write_text(
        "[chart]\nname = dini\n[growth]\nt_range = -1e-12 : 1e-12\n"
        "flow_resolution = 5\n")
    code, out, err = run_cli("coords", "--config", "still.ini", "--out", "c",
                             cwd=tmp_path)
    assert (code, out) == (2, ""), err
    assert err == ("error: t_range -1e-12 : 1e-12 lies within 1e-09 * "
                   "flow_step of 0, so no flow would take a step\n"), err
    assert not (tmp_path / "c").exists()


def test_cli_round_trip_domain_exit_is_a_numerical_failure(tmp_path):
    """The group-law pair drawn at seed 25 stays in the usable domain, but
    the round trip's axis-0 flow to t = 6 leaves it at t = 1.9: exit 3 with
    the flows' message, and no summary."""
    (tmp_path / "exit.ini").write_text(
        "[chart]\nname = dini\n"
        "[growth]\nx0 = 0.5, 0.75\nflow_box = -0.1 : 0.1\n"
        "flow_resolution = 5\nt_range = -0.01 : 6\npairs = 1\n")
    code, out, err = run_cli("coords", "--config", "exit.ini", "--out", "c",
                             "--seed", "25", cwd=tmp_path)
    assert (code, out) == (3, "")
    assert err == "numerical failure: flow left the usable domain of dini\n"
    assert (tmp_path / "c" / "coords.csv").exists()
    assert not (tmp_path / "c" / "coords_summary.txt").exists()


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
    # four samples leave the frame checks no interior node: they used to
    # pass vacuously with points=0
    ("coords", "[chart]\nname = dini\n[growth]\nflow_resolution = 4\n"),
    # a NaN step used to run the flows into 8 box shrinks, exit 3
    ("coords", "[chart]\nname = dini\n[growth]\nflow_step = nan\n"),
    # a NaN radius used to reach the anchor search, exit 3
    ("growth", "[chart]\nname = pseudosphere\n[growth]\nradii = 0.5, nan\n"),
    # x0 outside the domain in coords: used to exit 3 as a numerical failure
    ("coords", "[chart]\nname = dini\n[growth]\nx0 = 99, 0.75\n"),
    # NaN on the periodic axis: used to snap to node 0 and exit 0
    ("growth", "[chart]\nname = pseudosphere\n[growth]\nx0 = 1.85, nan\n"
               "resolution = 17\n"),
    # inf on the periodic axis: used to exit 3 (metric not positive definite)
    ("coords", "[chart]\nname = pseudosphere\n[growth]\nx0 = 1.85, inf\n"),
    # c = nan passed the gap check: exit 0 with "C = 0 (exploratory)"
    ("growth", "[chart]\nexpression = nan.chart\n[growth]\nresolution = 33\n"),
    # non-finite catalog parameters passed the factory checks: exit 3 with
    # "first fundamental form not positive definite"
    ("growth", "[chart]\nname = dini\na = nan\n"),
    ("growth", "[chart]\nname = dini\nb = inf\n"),
    ("growth", "[chart]\nname = product_torus_r4\nr1 = nan\n"),
    ("growth", "[chart]\nname = sphere_negative_control\nc = nan\n"),
    # a non-finite tolerance passed every residual: "gauss PASS ... tol=inf"
    ("verify", "[chart]\nname = pseudosphere\n[grid]\nresolution = 17\n"
               "[tolerances]\ngauss = inf\n"),
    ("verify", "[chart]\nname = pseudosphere\n[grid]\nresolution = 17\n"
               "[tolerances]\nc1 = 1e400\n"),
    # a 1-D chart: verify passed four identities with nothing compared, and
    # growth exited 3 from the stencil hull ("Need at least 2-D data")
    ("verify", "[chart]\nexpression = circle.chart\n[grid]\n"
               "resolution = 17\n"),
    ("growth", "[chart]\nexpression = circle.chart\n[growth]\n"
               "resolution = 17\n"),
])
def test_cli_rejects_bad_base_point_and_flow_resolution(workdir, command,
                                                        text):
    (workdir / "probe.ini").write_text(text)
    code, out, err = run_cli(command, "--config", "probe.ini",
                             "--out", "probe", cwd=workdir)
    assert code == 2, (out, err)
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("out, output", [
    # an existing file: used to exit 3 with FileExistsError
    ("afile", ""),
    # a directory below a file: used to exit 3 with NotADirectoryError
    ("afile/sub", ""),
    # an empty [output] dir: used to name no directory
    (None, "[output]\ndir =\n"),
    # an empty --out: used to write to the config's directory
    ("", ""),
])
def test_cli_unusable_output_directory_is_config_error(workdir, out, output):
    (workdir / "afile").write_text("")
    (workdir / "out.ini").write_text(
        "[chart]\nname = pseudosphere\n[grid]\nresolution = 17\n" + output)
    code, stdout, err = run_cli("verify", "--config", "out.ini",
                                *(() if out is None else ("--out", out)),
                                cwd=workdir)
    assert (code, stdout) == (2, ""), err
    assert err.startswith(f"error: output directory '{out or ''}' cannot "
                          f"be created: "), err
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("config, named", [
    ("adir", "config file 'adir'"),
    ("latin1.ini", "config file 'latin1.ini'"),
    ("chart_dir.ini", "chart file 'adir'"),
    ("chart_latin1.ini", "chart file 'latin1.chart'"),
    ("unbalanced.ini", "bad expression"),
    ("default.ini", "unknown sections: ['DEFAULT']"),
])
def test_cli_refused_input_file_is_config_error(workdir, config, named):
    """A config or chart file that is a directory or not UTF-8 text used to
    exit 3 with IsADirectoryError or UnicodeDecodeError; a map with an
    unbalanced parenthesis is refused by the parser; and configparser's
    [DEFAULT] section used to copy its keys into every section."""
    (workdir / "adir").mkdir(exist_ok=True)
    (workdir / "latin1.ini").write_bytes(b"[chart]\nname = caf\xe9\n")
    (workdir / "latin1.chart").write_bytes(
        PS_EXPR.replace("my_pseudosphere", "caf\xe9").encode("latin-1"))
    (workdir / "unbalanced.chart").write_text(
        PS_EXPR.replace("sech(u1)*sin(u2)", "sech(u1*sin(u2)"))
    (workdir / "default.ini").write_text(
        "[DEFAULT]\nresolution = 33\n[chart]\nname = dini\n[grid]\n"
        "[growth]\n")
    for name, chart in (("chart_dir", "adir"),
                        ("chart_latin1", "latin1.chart"),
                        ("unbalanced", "unbalanced.chart")):
        (workdir / f"{name}.ini").write_text(
            f"[chart]\nexpression = {chart}\n")
    code, out, err = run_cli("verify", "--config", config, "--out", "u",
                             cwd=workdir)
    assert (code, out) == (2, ""), err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert named in err, err


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


CLIFFORD_HALF_EXPR = """
name     = clifford_c_half
n        = 2
ambient  = sphere 1 3
c        = 0.5
domain   = 0 : 6.283185307179586, 0 : 6.283185307179586
periodic = true, true
map      = cos(u1)/sqrt(2), sin(u1)/sqrt(2), cos(u2)/sqrt(2), sin(u2)/sqrt(2)
"""


def test_cli_radius_beyond_the_sphere_diameter_is_config_error(workdir):
    """c = 0.5 makes the reference model a sphere of diameter
    pi / sqrt(0.5) = 4.44, which radius 5 exceeds: that used to exit 3
    with an internal ValueError."""
    (workdir / "half.chart").write_text(CLIFFORD_HALF_EXPR)
    (workdir / "far.ini").write_text(
        "[chart]\nexpression = half.chart\n"
        "[growth]\nradii = 1, 2, 3, 4, 5\nresolution = 17\n")
    code, out, err = run_cli("growth", "--config", "far.ini",
                             "--out", "far", cwd=workdir)
    assert (code, out) == (2, ""), err
    assert err == ("error: radius 5 exceeds the diameter 4.44288 of the "
                   "model sphere of curvature 0.5\n")


def test_cli_singleton_ball_volume_is_indeterminate(workdir):
    """A ball of radius 0.005 at 65^2 holds only the anchor node, so its
    volume sum is one cell: that used to FAIL against the bound and exit 1.
    It is indeterminate, like the ball containment on it, and only
    growth's --strict turns it into a failure; verify and coords refuse
    the flag."""
    (workdir / "tiny.ini").write_text(
        "[chart]\nname = pseudosphere\n"
        "[growth]\nresolution = 65\n"
        "x0 = 0.88137358701954305, 3.1415926535897931\n"
        "radii = 0.005, 0.5, 0.75, 1\n")
    code, out, err = run_cli("growth", "--config", "tiny.ini",
                             "--out", "tiny", cwd=workdir)
    assert code == 0, (out, err)
    assert "volume_bound(r=0.005) INDETERMINATE margin=nan " \
        "budget=2.616e-02 singleton ball\n" in out
    assert "volume_bound(r=0.5) PASS" in out
    code, out, err = run_cli("growth", "--strict", "--config", "tiny.ini",
                             "--out", "tiny", cwd=workdir)
    assert code == 1, (out, err)
    for command in ("verify", "coords"):
        code, _, err = run_cli(command, "--strict", "--config", "ps.ini",
                               cwd=workdir)
        assert code == 2 and "unrecognized arguments: --strict" in err


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
    bits = rng.integers(-2**63, 2**63 - 1, size=(20000, 2),
                        dtype=np.int64).view(float)
    tens = np.array([float("1e%d" % p) for p in range(-300, 301)])
    tens = np.stack([tens, np.nextafter(tens, np.inf),
                     np.nextafter(tens, -np.inf)], axis=1)
    edges = np.array([float(m + "e%d" % k) for k in (-5, -4, 16, 17)
                      for m in ("1", "1.5", "9.9999999999999999",
                                "9.87654321012345678")])
    ties = 2.0**50 + np.arange(-40, 40)[:, None] / 4
    cases = [
        (["a", "b", "c"], (repeated, grid)),
        (["a"], (special[:, None],)),
        (["x", "y"], (special[None, :1], special[None, 1:2])),   # 1 row
        (["k%d" % i for i in range(special.size)], (special[None, :],)),
        (["t", "u"], (grid[:, :1].copy(), -grid)),
        (["p", "q"], (bits,)),                # both signs, every exponent
        (["ten", "up", "down"], (tens,)),
        (["e", "-e"], (edges[:, None], -edges[:, None])),
        (["tie", "-tie"], (ties, -ties)),
        (["a", "b"], (np.empty((0, 2)),)),    # no rows
    ]
    for header, columns in cases:
        assert (cli._csv(header, columns)
                == _csv_per_row(header, columns).encode())
    # 0.0 and -0.0 stay distinct
    assert cli._csv(["z"], (np.array([[0.0], [-0.0]]),)) == b"z\n0\n-0\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_csv_matches_per_row_formatting_on_any_double(values):
    column = (np.array(values)[:, None],)
    assert cli._csv(["x"], column) == _csv_per_row(["x"], column).encode()


def test_csv_formats_finite_nonzero_values_in_bulk(tmp_path, monkeypatch):
    """Only 0, inf and nan reach the one-value fallback on a real verify
    run, so the vectorized digits are what the byte tests check."""
    seen = []
    one = cli._g17_one
    monkeypatch.setattr(cli, "_g17_one", lambda x: seen.append(x) or one(x))
    (tmp_path / "v.ini").write_text(
        "[chart]\nname = pseudosphere\n[grid]\nresolution = 33\n")
    assert cli.main(["verify", "--config", str(tmp_path / "v.ini"),
                     "--out", str(tmp_path / "v")]) == 0
    assert seen, "the residual margins hold nan"
    assert all(x == 0.0 or not math.isfinite(x) for x in seen), seen


def test_cli_engine_and_seed_overrides(workdir):
    code, out, _ = run_cli("verify", "--config", "ps.ini", "--out", "fd",
                           "--engine", "fd", "--seed", "7", cwd=workdir)
    assert code == 0
    summary = (workdir / "fd" / "verify_summary.txt").read_text()
    assert "engine = fd" in summary
    assert "seed = 7" in summary


def test_cli_negative_seed_is_usage_error(workdir):
    """numpy's generators take no negative seed: coords used to exit 3 on
    one, and verify to accept it.  Every run command refuses it at
    argument parsing, before the config is read."""
    for command in ("verify", "growth", "coords"):
        code, out, err = run_cli(command, "--config", "ps.ini", "--out",
                                 "neg", "--seed", "-1", cwd=workdir)
        assert (code, out) == (2, ""), (command, err)
        assert err.endswith(f"flatbundle {command}: error: argument --seed: "
                            f"seed must be a non-negative integer, got "
                            f"-1\n"), err
        assert not (workdir / "neg").exists()
    code, _, err = run_cli("verify", "--config", "ps.ini", "--seed", "x",
                           cwd=workdir)
    assert code == 2 and "argument --seed: invalid int value: 'x'" in err


def test_catalog_list_rows_are_the_entries(capsys):
    """Each `catalog list` row is what catalog.get declares for its entry.
    The listing reads catalog.describe, which does not integrate the
    sine-Gordon surface, so its row is checked here against a built entry."""
    assert cli.run_catalog_list() == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[0] for line in lines] == catalog.names()
    for line in lines:
        name, *cols = line.split(None, 5)
        e = catalog.get(name)
        ch = e.chart
        assert catalog.describe(name) == (ch.n, ch.codimension, ch.c,
                                          ch.ambient.curvature, e.notes)
        assert cols == [str(ch.n), str(ch.codimension),
                        "none" if ch.c is None else "%g" % ch.c,
                        "%g" % ch.ambient.curvature,
                        e.notes.split(";")[0]], name


def test_cli_catalog_list(workdir):
    code, out, _ = run_cli("catalog", "list", cwd=workdir)
    assert code == 0
    for name in ("pseudosphere", "dini", "clifford_torus_s3",
                 "sine_gordon_surface"):
        assert name in out
