"""Package-wide API decisions, checked on every function signature: the
curvature gap C and the differentiation engine are properties of the
chart, so no function takes them as arguments (the jet, which dispatches
on the engine, is the one exception)."""

import importlib
import inspect
import pkgutil

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
    for name in ("flows.build_flow_map", "growth._metric_pair",
                 "principal._diag_weights", "charts.ImmersionChart.jet",
                 "principal.PrincipalBatch.regauge", "engines.jet"):
        assert name in names, name


def test_no_function_takes_a_curvature_gap():
    assert _taking("C") == []


def test_only_the_jet_takes_an_engine():
    assert _taking("engine") == ["engines.jet"]
