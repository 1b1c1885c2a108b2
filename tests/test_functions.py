import cmath
import math

import numpy as np
import pytest

import corrdyn.functions as functions_mod
from corrdyn.functions import (LOG_ABS_CLAMP, default_test_family, fn_const, fn_im,
                               fn_log_abs, fn_re, fn_zero, named_function)
from corrdyn.sphere import SpherePoint, chart_values


def stress_points() -> list[SpherePoint]:
    """Zeros of every sign in both charts, infinity, the unit circle, the
    axes, moduli 1e+-150 and random points of both charts."""
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    points = [SpherePoint.from_chart(z, inv) for z in zeros for inv in (False, True)]
    points += [SpherePoint.infinity(), SpherePoint.from_complex(0j)]
    for modulus in (1e-150, 1e-8, 0.5, 1.0, 2.0, 1e8, 1e150):
        for k in range(8):
            points.append(SpherePoint.from_complex(modulus * cmath.exp(2j * math.pi * k / 8)))
        for z in (modulus, -modulus, complex(0.0, modulus), complex(-0.0, -modulus)):
            points.append(SpherePoint.from_complex(z))
            points.append(SpherePoint.from_reciprocal(z))
    rng = np.random.default_rng(23)
    z = (rng.normal(size=400) + 1j * rng.normal(size=400)) * 10.0 ** rng.uniform(-6, 6, 400)
    points += [SpherePoint.from_complex(x) for x in z.tolist()]
    points += [SpherePoint.from_reciprocal(x) for x in z[:100].tolist()]
    return points


def log_abs_oracle(p: SpherePoint) -> float:
    m = p.magnitude()
    if m == 0.0:
        return -LOG_ABS_CLAMP
    if math.isinf(m):
        return LOG_ABS_CLAMP
    return max(-LOG_ABS_CLAMP, min(LOG_ABS_CLAMP, math.log(m)))


def coordinate(k):
    return lambda p: float(p.unit_vector()[k])


def product(i, j, scale):
    return lambda p: scale * float(p.unit_vector()[i] * p.unit_vector()[j])


def xx_minus_yy(p) -> float:
    v = p.unit_vector()
    return float(v[0] * v[0] - v[1] * v[1])


#: Each function with its scalar formula on unit_vector() or magnitude().
CASES = {"zero": (fn_zero, lambda p: 0.0),
         "const:0.25": (fn_const(0.25), lambda p: 0.25),
         "const:-3.5": (fn_const(-3.5), lambda p: -3.5),
         "named const:0.25": (named_function("const:0.25"), lambda p: 0.25),
         "re": (fn_re, coordinate(0)),
         "im": (fn_im, coordinate(1)),
         "log_abs": (fn_log_abs, log_abs_oracle),
         "named log_abs": (named_function("log_abs"), log_abs_oracle)}
FAMILY_ORACLES = {"x": coordinate(0), "y": coordinate(1), "z": coordinate(2),
                  "2xy": product(0, 1, 2.0), "2yz": product(1, 2, 2.0),
                  "2zx": product(2, 0, 2.0),
                  "xx-yy": xx_minus_yy,
                  "zz": product(2, 2, 1.0)}
FAMILY = default_test_family()
assert FAMILY.names == tuple(FAMILY_ORACLES)
for name, f in zip(FAMILY.names, FAMILY.functions):
    CASES[f"family {name}"] = (f, FAMILY_ORACLES[name])


@pytest.mark.parametrize("name", CASES)
def test_chart_form_equals_scalar_form(name):
    f, oracle = CASES[name]
    points = stress_points()
    assert any(p.inverted for p in points) and any(not p.inverted for p in points)
    got = f(*chart_values(points))
    want = np.array([oracle(p) for p in points], dtype=float)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)
    # Bits differ only in the sign of a zero, which no Birkhoff sum sees:
    # the sums start at +0.0, and x + (+-0.0) has the bits of x for every x
    # but -0.0, which a sum from +0.0 never reaches.
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert (got[differ] == 0.0).all()
    assert np.array_equal((0.0 + got).view(np.uint64), (0.0 + want).view(np.uint64))
    empty = f(*chart_values([]))
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_log_abs_takes_one_math_log_per_magnitude(monkeypatch):
    # numpy's log rounds differently, so every value is math.log's; points
    # of one magnitude, in either chart, share one call; 0 takes none.
    logs = []
    real_log = math.log

    def counted(x):
        logs.append(x)
        return real_log(x)

    points = [SpherePoint.from_complex(z) for z in (0.5, -0.5, 0.5j, 2.0, -2.0, 3.0, 0.0)]
    points.append(SpherePoint.infinity())
    monkeypatch.setattr(functions_mod.math, "log", counted)
    got = fn_log_abs(*chart_values(points))
    assert sorted(logs) == [0.5, 2.0, 3.0, math.inf]
    assert got.tolist() == [real_log(0.5)] * 3 + [real_log(2.0)] * 2 + [real_log(3.0),
                                                                         -LOG_ABS_CLAMP,
                                                                         LOG_ABS_CLAMP]
