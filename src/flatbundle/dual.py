"""Forward-mode automatic differentiation with hyper-dual numbers.

A :class:`HyperDual` carries a value together with two first-order
perturbation slots and one mixed second-order slot, so a single evaluation
of a closed-form map yields f, two directional derivatives and the mixed
second derivative exactly (to rounding).  Components may be floats or numpy
arrays of a common shape, which makes whole-grid evaluation a single pass.

The math functions at the bottom dispatch on type, so chart formulas
written with them run unchanged on floats, arrays and hyper-duals.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HyperDual", "seed", "sin", "cos", "tan", "exp", "log", "sqrt",
    "sinh", "cosh", "tanh", "sech", "atan", "asin", "acos",
]


class HyperDual:
    __slots__ = ("f", "e1", "e2", "e12")   # cheap to build: jets make many
    # ndarray <op> HyperDual is __r<op>__, not an object array of products
    __array_ufunc__ = None

    def __init__(self, f, e1=0.0, e2=0.0, e12=0.0):
        self.f, self.e1, self.e2, self.e12 = f, e1, e2, e12

    # -- arithmetic ------------------------------------------------------

    def __add__(self, o):
        if isinstance(o, HyperDual):
            return HyperDual(self.f + o.f, self.e1 + o.e1,
                             self.e2 + o.e2, self.e12 + o.e12)
        return HyperDual(self.f + o, self.e1, self.e2, self.e12)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.f, -self.e1, -self.e2, -self.e12)

    def __sub__(self, o):
        return self + (-o) if isinstance(o, HyperDual) else \
            HyperDual(self.f - o, self.e1, self.e2, self.e12)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, HyperDual):
            return HyperDual(
                self.f * o.f,
                self.f * o.e1 + self.e1 * o.f,
                self.f * o.e2 + self.e2 * o.f,
                self.f * o.e12 + self.e1 * o.e2 + self.e2 * o.e1
                + self.e12 * o.f,
            )
        return HyperDual(self.f * o, self.e1 * o, self.e2 * o, self.e12 * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, HyperDual):
            return self * o._reciprocal()
        return self * (1.0 / o)

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def _reciprocal(self):
        inv = 1.0 / self.f
        return _chain(self, inv, -inv * inv, 2.0 * inv * inv * inv)

    def __pow__(self, k):
        if isinstance(k, HyperDual):
            raise TypeError("hyper-dual exponents are not supported")
        v = self.f ** k
        return _chain(self, v, k * self.f ** (k - 1),
                      k * (k - 1) * self.f ** (k - 2))

    def __repr__(self):  # pragma: no cover
        return f"HyperDual({self.f!r}, {self.e1!r}, {self.e2!r}, {self.e12!r})"


def seed(value, d1=0.0, d2=0.0):
    """Lift ``value`` into a hyper-dual with the given perturbation seeds."""
    return HyperDual(value, d1, d2, 0.0)


def _chain(x: HyperDual, v, dv, d2v):
    """Apply a scalar function by its value and first two derivatives."""
    return HyperDual(v, dv * x.e1, dv * x.e2,
                     dv * x.e12 + d2v * x.e1 * x.e2)


def _unary(np_fn, dfn, d2fn):
    def wrapped(x):
        if isinstance(x, HyperDual):
            v = np_fn(x.f)
            return _chain(x, v, dfn(x.f, v), d2fn(x.f, v))
        return np_fn(x)
    wrapped.__name__ = np_fn.__name__
    return wrapped


sin = _unary(np.sin, lambda x, v: np.cos(x), lambda x, v: -v)
cos = _unary(np.cos, lambda x, v: -np.sin(x), lambda x, v: -v)
tan = _unary(np.tan, lambda x, v: 1.0 + v * v,
             lambda x, v: 2.0 * v * (1.0 + v * v))
exp = _unary(np.exp, lambda x, v: v, lambda x, v: v)
log = _unary(np.log, lambda x, v: 1.0 / x, lambda x, v: -1.0 / (x * x))
sqrt = _unary(np.sqrt, lambda x, v: 0.5 / v, lambda x, v: -0.25 / (v * x))
sinh = _unary(np.sinh, lambda x, v: np.cosh(x), lambda x, v: v)
cosh = _unary(np.cosh, lambda x, v: np.sinh(x), lambda x, v: v)
tanh = _unary(np.tanh, lambda x, v: 1.0 - v * v,
              lambda x, v: -2.0 * v * (1.0 - v * v))
atan = _unary(np.arctan, lambda x, v: 1.0 / (1.0 + x * x),
              lambda x, v: -2.0 * x / (1.0 + x * x) ** 2)
asin = _unary(np.arcsin, lambda x, v: 1.0 / np.sqrt(1.0 - x * x),
              lambda x, v: x / (1.0 - x * x) ** 1.5)
acos = _unary(np.arccos, lambda x, v: -1.0 / np.sqrt(1.0 - x * x),
              lambda x, v: -x / (1.0 - x * x) ** 1.5)


def sech(x):
    return 1.0 / cosh(x)
