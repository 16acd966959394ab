"""Layer tracing from outside the program, by rebinding.

`install` replaces each traced function with a wrapper in every
`flatbundle.*` namespace that holds it (modules import functions by name,
e.g. `from .fundamental import fundamental_batch`, so patching only the
defining module would miss most calls).  Methods are patched on their
class.  Each wrapper records a span (layer, start, end, parent span) and
bumps counters computed from the call's arguments and result.  Spans stay
in memory; `Tracer.report` aggregates them when the traced run ends.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

import numpy as np

MODULES = ("catalog", "charts", "cli", "config", "dual", "engines",
           "exprchart", "fields", "flows", "fundamental", "growth",
           "principal", "sinegordon", "verifiers")


def _points(arguments, name):
    return int(np.prod(np.shape(arguments[name])[:-1]))


class Tracer:
    def __init__(self):
        self.spans = []       # [layer, start, end, parent index]
        self.counts = {}
        self._stack = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, layer, fn, calls=None, hook=None, rss=None):
        """Return `fn` wrapped in a span of `layer`.

        calls : counter bumped by one per call, if given
        hook  : hook(tracer, arguments, result), arguments bound by name
        rss   : counter that accumulates the rise of peak RSS (MB) over
                the call
        """
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([layer, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            rss0 = _peak_rss_mb() if rss else 0.0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = t0
                self.spans[idx][2] = t1
            if calls:
                self.add(calls, 1)
            if rss:
                self.add(rss, _peak_rss_mb() - rss0)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, out)
            return out

        return traced

    def report(self):
        """Per-layer calls and self seconds, plus the counters."""
        child = [0.0] * len(self.spans)
        for layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layers = {}
        for (layer, t0, t1, _), c in zip(self.spans, child):
            agg = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - c
        return {"layers": layers, "counts": dict(self.counts),
                "spans": len(self.spans)}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# counters read at layer boundaries

def _jet_points(tr, a, out):
    tr.add("engines.jet.points", _points(a, "U"))


def _batch_points(tr, a, out):
    tr.add("fundamental.batch.points", _points(a, "U"))


def _incoherent(tr, a, out):
    tr.add("fields.incoherent_points", int(out.n_incoherent))


def _graph_edges(tr, a, out):
    edges = int(a["csgraph"].nnz)
    tr.counts["growth.graph.edges"] = max(
        tr.counts.get("growth.graph.edges", 0), edges)


def _anchor_snap(tr, a, out):
    x0 = np.asarray(a["x0"], dtype=float)
    node = np.array([ax[i] for ax, i in zip(a["grid"].axes, out)])
    snap = float(np.linalg.norm(x0[:node.size] - node))
    tr.counts["growth.anchor_snap"] = max(
        tr.counts.get("growth.anchor_snap", 0.0), snap)


def _truncated(tr, a, out):
    tr.add("growth.truncated_balls", int(bool(out[1])))


def _decomposition_points(tr, a, out):
    tr.add("flows.decomposition.points", _points(a, "U"))


def _box_shrinks(tr, a, out):
    tr.add("flows.box_shrinks", len(out.warnings))


# (layer, module, attribute, calls counter, hook, rss counter).  An
# attribute "Class.method" patches the method on the class.
TARGETS = (
    ("cli", "cli", "main", None, None, None),
    ("config.load", "config", "load_config", None, None, None),
    ("catalog.get", "catalog", "get", None, None, None),
    ("sinegordon.integrate", "sinegordon", "integrate_surface",
     None, None, None),
    ("engines.jet", "engines", "jet", "engines.jet.calls", _jet_points, None),
    ("fundamental.batch", "fundamental", "fundamental_batch",
     "fundamental.batch.calls", _batch_points, None),
    ("principal.batch", "principal", "principal_batch",
     "principal.batch.calls", None, None),
    ("principal.comparison_metric", "principal", "comparison_metric",
     "principal.comparison_metric.calls", None, None),
    ("principal.joint_diag", "principal", "joint_diagonalize",
     "principal.joint_diag.calls", None, None),
    ("fields.principal_field", "fields", "principal_field",
     None, _incoherent, None),
    ("verifiers.curvature", "verifiers", "constant_curvature_residual",
     None, None, None),
) + tuple(
    ("verifiers.checks", "verifiers", name, None, None, None)
    for name in ("verify_chart", "check_gauss", "check_codazzi_c1",
                 "check_codazzi_c2", "check_connection_formula",
                 "check_intrinsic_curvature", "check_g0_flat")
) + (
    ("growth.report", "growth", "growth_report", None, None, None),
    ("growth.report", "growth", "nearest_node", None, _anchor_snap, None),
    ("growth.distance_fields", "growth", "distance_fields", None, None,
     "growth.distance_fields.rss_growth_mb"),
    ("growth.dijkstra", "growth", "dijkstra", "growth.dijkstra.calls",
     _graph_edges, None),
    ("growth.path_max", "growth", "DistanceField.path_max", None, None, None),
    ("growth.length_check", "growth", "check_length_inequality",
     None, None, None),
    ("growth.balls", "growth", "ball_max_sff", None, None, None),
    ("growth.balls", "growth", "ball_volume", None, _truncated, None),
    ("growth.balls", "growth", "check_ball_containment", None, None, None),
    ("flows", "flows", "build_flow_map", None, _box_shrinks, None),
    ("flows", "flows", "flow_points", "flows.flow_points.calls", None, None),
    ("flows", "flows", "aligned_principal", "flows.decompositions",
     _decomposition_points, None),
    ("flows", "flows", "check_flow_identities", None, None, None),
    ("flows", "flows", "commutator_residual", None, None, None),
    ("flows", "flows", "verify_principal_frame_property", None, None, None),
)


def _traced_jet(tracer, jet):
    """engines.jet with its chart-map argument wrapped as `charts.map`."""
    def jet_with_map(chart_map, *args, **kwargs):
        return jet(tracer.wrap("charts.map", chart_map, "charts.map.calls"),
                   *args, **kwargs)
    return functools.wraps(jet)(jet_with_map)


def install(tracer):
    """Rebind every target in every `flatbundle.*` namespace.

    Returns the targets that were not found, so a renamed function shows
    up as missing instead of silently dropping out of the trace.
    """
    mods = [importlib.import_module(f"flatbundle.{m}") for m in MODULES]
    mods.append(sys.modules["flatbundle"])
    missing = []
    for layer, mod_name, attr, calls, hook, rss in TARGETS:
        owner = sys.modules[f"flatbundle.{mod_name}"]
        cls = None
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name, None)
            owner = cls
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        inner = _traced_jet(tracer, orig) if layer == "engines.jet" else orig
        wrapped = tracer.wrap(layer, inner, calls, hook, rss)
        if cls is not None:
            setattr(cls, attr, wrapped)
            continue
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
    return missing
