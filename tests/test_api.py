"""Package-wide API decisions, checked on every function signature: the
curvature gap C and the differentiation engine are properties of the
chart, so no function takes them as arguments (the jet, which dispatches
on the engine, is the one exception).  The run seed only draws random
samples, so only the two sampled checks and the growth report that runs
one take it; the weights of the principal diagonalization are fixed.
Options that no caller sets are module constants, not parameters."""

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import sys

import flatbundle


def _functions():
    """(name, function) for every module-level function and every method
    (dunders aside) of a class defined in a flatbundle module."""
    for info in pkgutil.iter_modules(flatbundle.__path__):
        mod = importlib.import_module(f"flatbundle.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) \
                            and not attr.startswith("__"):
                        yield f"{info.name}.{name}.{attr}", member
            elif callable(obj):
                yield f"{info.name}.{name}", inspect.unwrap(obj)


def _taking(param):
    return sorted(name for name, fn in _functions()
                  if param in inspect.signature(fn).parameters)


def test_the_walk_sees_functions_and_methods():
    names = dict(_functions())
    for name in ("flows.build_flow_map", "growth._polyline_samples",
                 "principal._diag_weights", "charts.ImmersionChart.jet",
                 "fields.PrincipalField.along", "engines.jet"):
        assert name in names, name


def test_no_function_takes_a_curvature_gap():
    assert _taking("C") == []


def test_only_the_jet_takes_an_engine():
    assert _taking("engine") == ["engines.jet"]


def test_only_the_sampled_checks_take_a_seed():
    assert _taking("seed") == ["flows.check_flow_identities",
                               "growth.check_length_inequality",
                               "growth.growth_report"]
    assert _taking("rng_seed") == []


def test_no_option_that_no_caller_sets():
    names = dict(_functions())
    for name, param in (("growth.distance_fields", "overshoot"),
                        ("growth.growth_report", "n_test_curves"),
                        ("growth.check_length_inequality",
                         "samples_per_segment"),
                        ("principal.principal_decomposition", "cluster_tol"),
                        ("principal.joint_diagonalize", "tol"),
                        ("principal.joint_diagonalize", "max_sweeps"),
                        ("flows.commutator_residual", "h"),
                        ("charts.ImmersionChart.contains", "interior"),
                        ("fields.make_grid", "box"),
                        ("growth.check_length_inequality", "n_curves"),
                        ("sinegordon.sine_gordon_residual", "samples"),
                        ("principal.comparison_metric", "exploratory"),
                        ("verifiers.check_gauss", "c"),
                        ("verifiers.check_gauss", "ctilde")):
        assert param not in inspect.signature(names[name]).parameters, name


def test_the_chart_guard_cannot_be_switched_off():
    """ImmersionChart.jet is the one entry point to a chart's map, and it
    always checks the usable domain and the space-form model."""
    from flatbundle import charts, sinegordon
    assert _taking("interior_check") == []
    assert _taking("check") == []
    assert not hasattr(charts.ImmersionChart, "evaluate")
    assert not hasattr(sinegordon, "build_sine_gordon_entry")


def test_one_name_per_concept():
    """One fundamental batch, one flatness test, III read off the batch,
    one layout through the batch layer, one distance-field entry point,
    one curvature residual, one flow entry point, one time grid for the
    flow map, one stencil, on the grid, one CSV formatter, one walk over
    an expression, one evaluator of the FD stencil points and one value
    type per input rule: the duplicate names are gone."""
    from flatbundle import (catalog, cli, config, engines, exprchart, fields,
                            flows, fundamental, growth, principal, verifiers)
    for mod, name in ((fundamental, "metric_batch"),
                      (fundamental, "MetricBatch"),
                      (fundamental, "normal_bundle_is_flat"),
                      (fundamental, "flatness_verdict"),
                      (fundamental, "_COMPONENT_MAJOR"),
                      (principal, "third_fundamental_form"),
                      (principal, "_components"),
                      (growth, "_metric_pair"),
                      (growth, "distance_field"),
                      (growth, "induced_metric_fn"),
                      (verifiers, "_contract"),
                      (verifiers, "christoffel_field"),
                      (verifiers, "riemann_field"),
                      (flows, "integrate_flow"),
                      (flows, "_march_axis"),
                      (fields, "grid_deriv"),
                      (cli, "_text"),
                      (exprchart, "_check"),
                      (exprchart, "_split_top_level"),
                      (engines, "_shifted"),
                      (config, "_ints"), (config, "_floats"),
                      (config, "_interval"), (config, "_intervals"),
                      (config, "_bool"), (config, "_validate"),
                      (exprchart, "_parse_ambient")):
        assert not hasattr(mod, name), name
        assert not hasattr(flatbundle, name), name
    fb = fundamental.FundamentalBatch
    assert "position" not in {f.name for f in dataclasses.fields(fb)}
    assert not hasattr(fb, "shape_operators")
    assert principal._matmul is fundamental._matmul
    # one signed-permutation gauge: codes applied by principal_batch
    assert not hasattr(principal.PrincipalBatch, "regauge")
    for name in ("_alignment_matrices", "_signed_permutation"):
        assert not hasattr(fields, name), name
    assert flows._overlaps is fields._overlaps
    assert flows._signed_codes is fields._signed_codes
    # every grid derivative goes through Grid.deriv
    assert not hasattr(fields.PrincipalField, "dfield")
    assert not hasattr(fields.PrincipalField, "directional")
    assert not hasattr(fields.PrincipalField, "gradient")
    fm = {f.name for f in dataclasses.fields(flows.FlowMap)}
    assert "t_axes" not in fm and "grid" in fm
    assert not hasattr(flows.FlowMap, "t_spacing")
    # a catalog entry, a flow map and a principal field hold their chart,
    # not copies of its facts: entry.chart.n, not entry.n
    entry = catalog.CatalogEntry
    assert [f.name for f in dataclasses.fields(entry)] \
        == ["chart", "expected", "notes", "params"]
    for cls in (entry, flows.FlowMap, fields.PrincipalField):
        assert not [k for k, v in vars(cls).items()
                    if isinstance(v, property)], cls
    for name in ("name", "c", "ctilde", "n", "p"):
        assert not hasattr(entry, name), name
    assert not hasattr(flows.FlowMap, "n")
    assert not hasattr(fields.PrincipalField, "n")
    # growth.csv's columns are GrowthRow's fields, and the report holds
    # only what its readers read
    report = {f.name for f in dataclasses.fields(growth.GrowthReport)}
    assert not report & {"metadata", "chart_name", "x0", "C"}
    assert "truncated" not in growth.GrowthRow._fields


def _perfbench(name, monkeypatch):
    """The benchmark module perfbench/<name>.py, loaded read-only and
    importable by its own name for the rest of the test."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
        / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves(monkeypatch):
    """The benchmark's tracer (perfbench/tracer.py) binds package functions
    by name.  Loaded read-only here, without installing it, each of its
    targets must resolve, so renaming a traced function fails this test
    and not only the benchmark."""
    tracer = _perfbench("tracer", monkeypatch)
    assert len(tracer.TARGETS) > 0
    missing = []
    for _, mod_name, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(f"flatbundle.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_benchmark_workloads_pass_the_output_gate(tmp_path, monkeypatch):
    """Each benchmark workload config (perfbench/workloads.py), run through
    the CLI at the reference seed, passes the benchmark's own output gate
    (perfbench/checks.py): exit 0, the expected verdict lines, and every
    CSV matching the stored reference."""
    from flatbundle import cli
    workloads = _perfbench("workloads", monkeypatch)
    checks = _perfbench("checks", monkeypatch)
    for w in workloads.WORKLOADS.values():
        config, out = tmp_path / f"{w.name}.ini", tmp_path / w.name
        config.write_text(w.config, encoding="utf-8")
        rc = cli.main([w.command, "--config", str(config), "--out", str(out),
                       "--seed", str(workloads.REFERENCE_SEED)])
        assert checks.check_invocation(w, checks.load_reference(w), rc,
                                       str(out)) == [], w.name


def test_readme_library_example_runs(capsys):
    """The README's "Library example" block runs as written."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split(
        "## Library example\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "chain holds: True" in out
