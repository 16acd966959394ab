"""User-defined charts from expression files.

The grammar is deliberately tiny: arithmetic (+ - * / ** and unary minus),
the whitelisted functions below, the coordinate names u1..un, and the
constants pi and e.  The map is parsed as one Python tuple expression
and compiled through the ``ast`` module in one walk that checks every node
against a strict whitelist — nothing else evaluates — and the compiled
closures call the hyper-dual math functions, so every user chart is
differentiable by the AD engine by construction.

File format (``#`` comments, ``key = value`` lines)::

    name     = my_surface          # optional
    n        = 2
    ambient  = euclidean 3         # or: sphere <c~> <m> / hyperbolic <c~> <m>
    c        = -1                  # intrinsic curvature, or "none"
    domain   = 0.3 : 3, 0 : 6.283185307179586
    periodic = false, true         # optional, default all false
    map      = sech(u1)*cos(u2), sech(u1)*sin(u2), u1 - tanh(u1)
"""

from __future__ import annotations

import ast
import math
import operator

from . import dual as dm
from .charts import ImmersionChart, euclidean, hyperbolic, sphere
from .errors import (ConfigError, boolean, each, integer, interval, naming,
                     none_or, read_text, real)

FUNCTIONS = {name: getattr(dm, name) for name in
             ("sin", "cos", "tan", "exp", "log", "sqrt",
              "sinh", "cosh", "tanh", "asin", "acos", "atan", "sech")}
CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}


def _compile(node, names):
    """Validate one whitelisted AST node and compile it into a closure
    over [u1, ..., un]."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left, right = _compile(node.left, names), _compile(node.right, names)
        return lambda u: op(left(u), right(u))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        operand = _compile(node.operand, names)
        if isinstance(node.op, ast.UAdd):
            return operand
        return lambda u: -operand(u)
    if isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name)
                or node.func.id not in FUNCTIONS
                or node.keywords or len(node.args) != 1):
            raise ValueError(
                f"only the single-argument functions "
                f"{sorted(FUNCTIONS)} are allowed")
        fn, arg = FUNCTIONS[node.func.id], _compile(node.args[0], names)
        return lambda u: fn(arg(u))
    if isinstance(node, ast.Name):
        if node.id in names:
            k = names[node.id]
            return lambda u: u[k]
        if node.id not in CONSTANTS:
            raise ValueError(f"unknown name {node.id!r}")
        value = CONSTANTS[node.id]
        return lambda u: value
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric constant {node.value!r}")
        try:
            value = float(node.value)
        except OverflowError:       # an integer literal past 1.8e308
            raise ValueError("integer constant too large") from None
        return lambda u: value
    raise ValueError(f"disallowed syntax {type(node).__name__}")


def _parse(text):
    try:
        return ast.parse(text.strip(), mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"bad expression: {exc.msg}") from None


def _components(text):
    """The map's component expressions: one Python tuple expression."""
    body = _parse(text)
    return body.elts if isinstance(body, ast.Tuple) else [body]


def parse_expression(text, n):
    """Compile one scalar expression into a closure over [u1, ..., un]."""
    with naming("expression", text):
        return _compile(_parse(text), {f"u{k + 1}": k for k in range(n)})


def _parse_kv(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


# ambient kind -> (model, the value types of its arguments)
_AMBIENTS = {"euclidean": (euclidean, integer()),
             "sphere": (sphere, real(), integer()),
             "hyperbolic": (hyperbolic, real(), integer())}


def _ambient(text):
    kind, *args = text.split() or [""]
    if len(_AMBIENTS.get(kind, ())) != 1 + len(args):
        raise ValueError("expected 'euclidean m', 'sphere c m' or "
                         "'hyperbolic c m'")
    model, *types = _AMBIENTS[kind]
    return model(*(parse(arg) for parse, arg in zip(types, args)))


# chart-file key -> value type.  n >= 2, the domain and periodic lengths
# and the room the ambient leaves for n are the chart's own checks.
_CHART_KEYS = {"name": str, "n": integer(), "ambient": _ambient,
               "c": none_or(real(finite=True)),
               "domain": each(interval(finite=True)),
               "periodic": each(boolean()), "map": _components}


def parse_chart(text):
    """Parse an expression-chart description into an ImmersionChart."""
    kv = _parse_kv(text)
    unknown = set(kv) - set(_CHART_KEYS)
    if unknown:
        raise ConfigError(f"unknown chart keys: {sorted(unknown)}")
    missing = {"n", "ambient", "map", "domain"} - set(kv)
    if missing:
        raise ConfigError(f"missing chart keys: {sorted(missing)}")
    values = {}
    for key, value in kv.items():
        with naming(key, value):
            values[key] = _CHART_KEYS[key](value)

    def chart_map(u):       # comps is compiled below, once n is checked
        return tuple(comp(u) for comp in comps)

    try:
        chart = ImmersionChart(values.get("name", "expression_chart"),
                               chart_map, values["n"], values["ambient"],
                               values.get("c"), values["domain"],
                               values.get("periodic"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    exprs, names = values["map"], {f"u{k + 1}": k for k in range(chart.n)}
    with naming("map", kv["map"]):
        if len(exprs) != chart.ambient.embedding_dimension:
            raise ValueError(f"{len(exprs)} components, ambient container "
                             f"has {chart.ambient.embedding_dimension}")
        comps = [_compile(e, names) for e in exprs]
    return chart


def load_chart(path):
    return parse_chart(read_text(path, "chart file"))
