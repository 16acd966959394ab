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
from .errors import ConfigError, read_text

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
            raise ConfigError(
                f"only the single-argument functions "
                f"{sorted(FUNCTIONS)} are allowed")
        fn, arg = FUNCTIONS[node.func.id], _compile(node.args[0], names)
        return lambda u: fn(arg(u))
    if isinstance(node, ast.Name):
        if node.id in names:
            k = names[node.id]
            return lambda u: u[k]
        if node.id not in CONSTANTS:
            raise ConfigError(f"unknown name {node.id!r} in expression")
        value = CONSTANTS[node.id]
        return lambda u: value
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric constant {node.value!r}")
        value = float(node.value)
        return lambda u: value
    raise ConfigError(
        f"disallowed syntax {type(node).__name__} in expression")


def _parse(text):
    try:
        return ast.parse(text.strip(), mode="eval").body
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {text!r}: {exc.msg}") from None


def parse_expression(text, n):
    """Compile one scalar expression into a closure over [u1, ..., un]."""
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


def _parse_ambient(text):
    parts = text.split()
    try:
        if parts[0] == "euclidean" and len(parts) == 2:
            return euclidean(int(parts[1]))
        if parts[0] == "sphere" and len(parts) == 3:
            return sphere(float(parts[1]), int(parts[2]))
        if parts[0] == "hyperbolic" and len(parts) == 3:
            return hyperbolic(float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad ambient {text!r}: {exc}") from None
    raise ConfigError(
        f"bad ambient {text!r}: expected 'euclidean m', 'sphere c m' or "
        "'hyperbolic c m'")


def parse_chart(text):
    """Parse an expression-chart description into an ImmersionChart."""
    kv = _parse_kv(text)
    required = {"n", "ambient", "map", "domain"}
    allowed = required | {"name", "c", "periodic"}
    unknown = set(kv) - allowed
    if unknown:
        raise ConfigError(f"unknown chart keys: {sorted(unknown)}")
    missing = required - set(kv)
    if missing:
        raise ConfigError(f"missing chart keys: {sorted(missing)}")

    try:
        n = int(kv["n"])
    except ValueError:
        raise ConfigError(f"bad n {kv['n']!r}") from None
    if n < 2:       # the chart's own check, worded as invalid input
        raise ConfigError(f"chart dimension n = {n}; the curvature "
                          "identities need n >= 2")
    ambient = _parse_ambient(kv["ambient"])

    body = _parse(kv["map"])
    exprs = body.elts if isinstance(body, ast.Tuple) else [body]
    if len(exprs) != ambient.embedding_dimension:
        raise ConfigError(
            f"map has {len(exprs)} components, ambient container has "
            f"{ambient.embedding_dimension}")
    names = {f"u{k + 1}": k for k in range(n)}
    comps = [_compile(e, names) for e in exprs]

    domain = []
    for part in map(str.strip, kv["domain"].split(",")):
        try:
            lo, hi = (float(x) for x in part.split(":"))
        except ValueError:
            raise ConfigError(f"bad domain interval {part!r}; "
                              "expected 'lo : hi'") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"non-finite domain interval {part!r}")
        if not lo < hi:
            raise ConfigError(f"empty domain interval {part!r}")
        domain.append((lo, hi))
    if len(domain) != n:
        raise ConfigError(f"domain has {len(domain)} intervals, n = {n}")

    periodic = (False,) * n
    if "periodic" in kv:
        vals = [p.strip().lower() for p in kv["periodic"].split(",")]
        if len(vals) != n or not all(v in ("true", "false") for v in vals):
            raise ConfigError(f"bad periodic spec {kv['periodic']!r}")
        periodic = tuple(v == "true" for v in vals)

    c = None
    if kv.get("c", "none").lower() != "none":
        try:
            c = float(kv["c"])
        except ValueError:
            c = math.nan
        if not math.isfinite(c):
            raise ConfigError(f"bad curvature {kv['c']!r}")

    def chart_map(u):
        return tuple(comp(u) for comp in comps)

    return ImmersionChart(kv.get("name", "expression_chart"), chart_map, n,
                          ambient, c, tuple(domain), periodic)


def load_chart(path):
    return parse_chart(read_text(path, "chart file"))
