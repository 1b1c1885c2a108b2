import cmath
import math

import numpy as np
import pytest

from corrdyn.functions import fn_const, fn_im, fn_log_abs, fn_re, fn_zero, named_function
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


BUILTINS = {"zero": fn_zero, "const:0.25": fn_const(0.25), "const:-3.5": fn_const(-3.5),
            "named const:0.25": named_function("const:0.25"), "re": fn_re, "im": fn_im}


@pytest.mark.parametrize("name", BUILTINS)
def test_chart_form_equals_scalar_form(name):
    f = BUILTINS[name]
    points = stress_points()
    assert any(p.inverted for p in points) and any(not p.inverted for p in points)
    got = f.on_charts(*chart_values(points))
    want = np.array([f(p) for p in points], dtype=float)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)
    # Bits differ only in the sign of a zero, which no Birkhoff sum sees:
    # the sums start at +0.0, and x + (+-0.0) has the bits of x for every x
    # but -0.0, which a sum from +0.0 never reaches.
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert (got[differ] == 0.0).all()
    assert np.array_equal((0.0 + got).view(np.uint64), (0.0 + want).view(np.uint64))


def test_log_abs_has_no_chart_form():
    # numpy's log rounds differently from math.log, so log_abs stays scalar.
    assert not hasattr(fn_log_abs, "on_charts")
    assert not hasattr(named_function("log_abs"), "on_charts")
