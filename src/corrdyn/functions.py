"""Evaluable real functions on the sphere and test-function families.

The built-ins ``fn_zero``, ``fn_const(c)``, ``fn_re`` and ``fn_im`` also
carry an array form, ``f.on_charts(values, inverted)``: f at every point
given by chart value and flag, each value equal to f of that point bit for
bit, up to the sign of a zero.  ``fn_log_abs`` has none, since numpy's
``log`` rounds differently from ``math.log``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FamilyEmpty
from .sphere import SpherePoint, as_sphere_point, chart_unit_vectors

SphereFunction = Callable[[SpherePoint], float]

#: Clamp bound for the log-magnitude built-in near its poles.
LOG_ABS_CLAMP = 10.0


def fn_zero(_: SpherePoint) -> float:
    return 0.0


fn_zero.on_charts = lambda values, inverted: np.zeros(len(values))


def fn_const(c: float) -> SphereFunction:
    value = float(c)

    def f(_: SpherePoint) -> float:
        return value

    f.on_charts = lambda values, inverted: np.full(len(values), value)
    return f


def fn_re(p) -> float:
    """First embedding coordinate 2 Re(z) / (1 + |z|^2).

    Continuous on the whole sphere and equal to Re(z) on the unit circle.
    """
    return float(as_sphere_point(p).unit_vector()[0])


def fn_im(p) -> float:
    """Second embedding coordinate; equals Im(z) on the unit circle."""
    return float(as_sphere_point(p).unit_vector()[1])


fn_re.on_charts = lambda values, inverted: chart_unit_vectors(values, inverted)[:, 0]
fn_im.on_charts = lambda values, inverted: chart_unit_vectors(values, inverted)[:, 1]


def fn_log_abs(p) -> float:
    """log |z| clamped to +-LOG_ABS_CLAMP at the poles 0 and infinity."""
    p = as_sphere_point(p)
    m = p.magnitude()
    if m == 0.0:
        return -LOG_ABS_CLAMP
    if math.isinf(m):
        return LOG_ABS_CLAMP
    return max(-LOG_ABS_CLAMP, min(LOG_ABS_CLAMP, math.log(m)))


def named_function(spec: str) -> SphereFunction:
    """Resolve a function spec: zero, const:c, re, im, log_abs."""
    if spec == "zero":
        return fn_zero
    if spec == "re":
        return fn_re
    if spec == "im":
        return fn_im
    if spec == "log_abs":
        return fn_log_abs
    if spec.startswith("const:"):
        value = float(spec.split(":", 1)[1])
        if not math.isfinite(value):
            raise ValueError(f"function spec {spec!r} is not a finite constant")
        return fn_const(value)
    raise ValueError(f"unknown function spec {spec!r}")


@dataclass(frozen=True)
class TestFunctionFamily:
    """Finite family of bounded sphere functions with 2^-k weights."""

    functions: tuple[SphereFunction, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.functions) != len(self.names):
            raise ValueError("functions and names must align")

    def __len__(self):
        return len(self.functions)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(0.5 ** (k + 1) for k in range(len(self.functions)))

    def require_nonempty(self):
        if not self.functions:
            raise FamilyEmpty("test-function family is empty")


def _coord(i: int) -> SphereFunction:
    def f(p) -> float:
        return float(as_sphere_point(p).unit_vector()[i])
    return f


def _prod(i: int, j: int, scale: float) -> SphereFunction:
    def f(p) -> float:
        v = as_sphere_point(p).unit_vector()
        return scale * float(v[i] * v[j])
    return f


def _xx_minus_yy(p) -> float:
    v = as_sphere_point(p).unit_vector()
    return float(v[0] * v[0] - v[1] * v[1])


def _zz(p) -> float:
    v = as_sphere_point(p).unit_vector()
    return float(v[2] * v[2])


def default_test_family() -> TestFunctionFamily:
    """Eight low-order polynomials in the embedding coordinates, sup <= 1."""
    fns: Sequence[SphereFunction] = (
        _coord(0), _coord(1), _coord(2),
        _prod(0, 1, 2.0), _prod(1, 2, 2.0), _prod(2, 0, 2.0),
        _xx_minus_yy, _zz,
    )
    names = ("x", "y", "z", "2xy", "2yz", "2zx", "xx-yy", "zz")
    return TestFunctionFamily(tuple(fns), names)
