"""Real functions on the sphere and test-function families.

A sphere function takes the points as chart arrays, ``f(values,
inverted)`` with the chart values and flags of ``chart_values``, and
returns its value at every point as a float64 array.  Each built-in
equals, bit for bit up to the sign of a zero, the scalar formula on
``SpherePoint.unit_vector()`` or ``magnitude()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FamilyEmpty
from .sphere import chart_unit_vectors

SphereFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Clamp bound for the log-magnitude built-in near its poles.
LOG_ABS_CLAMP = 10.0


def fn_zero(values, inverted) -> np.ndarray:
    return np.zeros(len(values))


def fn_const(c: float) -> SphereFunction:
    value = float(c)

    def f(values, inverted) -> np.ndarray:
        return np.full(len(values), value)

    return f


def fn_re(values, inverted) -> np.ndarray:
    """First embedding coordinate 2 Re(z) / (1 + |z|^2).

    Continuous on the whole sphere and equal to Re(z) on the unit circle.
    """
    return chart_unit_vectors(values, inverted)[:, 0]


def fn_im(values, inverted) -> np.ndarray:
    """Second embedding coordinate; equals Im(z) on the unit circle."""
    return chart_unit_vectors(values, inverted)[:, 1]


def fn_log_abs(values, inverted) -> np.ndarray:
    """log |z| clamped to +-LOG_ABS_CLAMP at the poles 0 and infinity.

    |z| is the chart value's modulus, or its reciprocal in the reciprocal
    chart, as ``SpherePoint.magnitude`` has it.  Each distinct magnitude
    is one ``math.log``, since numpy's ``log`` rounds differently.
    """
    modulus = np.hypot(values.real, values.imag)
    with np.errstate(divide="ignore", over="ignore"):
        magnitude = np.where(inverted, 1.0 / modulus, modulus)
    distinct, which = np.unique(magnitude, return_inverse=True)
    logs = [math.log(m) if m > 0.0 else -math.inf for m in distinct.tolist()]
    return np.clip(np.array(logs, dtype=float), -LOG_ABS_CLAMP, LOG_ABS_CLAMP)[which]


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


def _z(values, inverted) -> np.ndarray:
    return chart_unit_vectors(values, inverted)[:, 2]


def _prod(i: int, j: int, scale: float) -> SphereFunction:
    def f(values, inverted) -> np.ndarray:
        v = chart_unit_vectors(values, inverted)
        return scale * (v[:, i] * v[:, j])
    return f


def _xx_minus_yy(values, inverted) -> np.ndarray:
    v = chart_unit_vectors(values, inverted)
    return v[:, 0] * v[:, 0] - v[:, 1] * v[:, 1]


def default_test_family() -> TestFunctionFamily:
    """Eight low-order polynomials in the embedding coordinates, sup <= 1."""
    fns: Sequence[SphereFunction] = (
        fn_re, fn_im, _z,
        _prod(0, 1, 2.0), _prod(1, 2, 2.0), _prod(2, 0, 2.0),
        _xx_minus_yy, _prod(2, 2, 1.0),
    )
    names = ("x", "y", "z", "2xy", "2yz", "2zx", "xx-yy", "zz")
    return TestFunctionFamily(tuple(fns), names)
