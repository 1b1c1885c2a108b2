import cmath
import json
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from corrdyn import correspondence, sphere
from corrdyn.cli import main as cli_main
from corrdyn.datasets import BUNDLED, bundled_correspondence, bundled_text
from corrdyn.errors import InvalidComponent, NonConvergence
from corrdyn.grid import SphereGrid
from corrdyn.pullback import pullback_iterate
from corrdyn.sphere import (BivarPoly, SpherePoint, _reciprocal, chart_unit_vectors,
                            chart_values, complex_charts, roots, sph_dist,
                            stacked_roots)


def random_points(rng, n):
    pts = []
    for _ in range(n):
        z = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
        pts.append(SpherePoint.from_complex(z))
    return pts


def assert_stacked_rows_bit_identical(comp, direction, points):
    """``coeffs_in_<direction>_charts`` rows equal the scalar rows bit for bit."""
    scalar = np.array([getattr(comp, f"coeffs_in_{direction}")(x) for x in points])
    stack = getattr(comp, f"coeffs_in_{direction}_charts")(*chart_values(points))
    assert stack.shape == scalar.shape
    assert stack.tobytes() == scalar.tobytes()


def points_in_both_charts(rng, n):
    """n random points in each chart, then 0, infinity and 1."""
    pts = random_points(rng, 2 * n)
    pts = ([p for p in pts if not p.inverted][:n] + [p for p in pts if p.inverted][:n])
    assert sum(p.inverted for p in pts) == n
    return pts + [SpherePoint.from_complex(0.0), SpherePoint.infinity(),
                  SpherePoint.from_complex(1.0)]


class TestSpherePoint:
    def test_canonical_chart(self):
        p = SpherePoint.from_complex(3.0 + 4.0j)
        assert p.inverted
        assert abs(p.value) <= 1.0
        npt.assert_allclose(p.to_complex(), 3.0 + 4.0j, rtol=1e-15)

    def test_infinity(self):
        p = SpherePoint.infinity()
        assert p.is_infinity
        assert p.magnitude() == math.inf
        with pytest.raises(OverflowError):
            p.to_complex()

    def test_reciprocal_constructor_matches_direct(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = complex(rng.normal(), rng.normal())
            if z == 0:
                continue
            direct = SpherePoint.from_complex(z)
            recip = SpherePoint.from_reciprocal(1.0 / z)
            assert sph_dist(direct, recip) < 1e-12

    def test_unit_vectors_match_scalar(self):
        # Enough points that x * x and pow(x, 2) differ in the last bit
        # for a few squared moduli (3 rows of these would differ).
        rng = np.random.default_rng(18)
        pts = points_in_both_charts(rng, 10000)
        pts += [SpherePoint.from_complex(z) for z in (1e-300, -1j, 1e-8 - 1e-8j)]
        pts += [SpherePoint.from_reciprocal(z) for z in (1e-300, -1.0, 0.5j)]
        got = chart_unit_vectors(*chart_values(pts))
        assert got.shape == (len(pts), 3)
        # Equal as numbers (a zero may differ in sign), bit for bit otherwise.
        assert np.array_equal(got, np.array([p.unit_vector() for p in pts]))
        assert chart_unit_vectors(*chart_values([])).shape == (0, 3)

    def test_unit_vector_round_trip(self):
        rng = np.random.default_rng(8)
        for p in random_points(rng, 200) + [SpherePoint.infinity()]:
            v = p.unit_vector()
            npt.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)
            q = SpherePoint.from_unit_vector(v)
            assert sph_dist(p, q) < 1e-12


class TestSphDist:
    def test_identity(self):
        assert sph_dist(0.0, 0.0) == 0.0

    def test_zero_to_infinity(self):
        assert sph_dist(SpherePoint.from_complex(0.0), SpherePoint.infinity()) == pytest.approx(2.0, abs=1e-15)

    def test_equatorial_antipodes(self):
        assert sph_dist(1.0, -1.0) == pytest.approx(2.0, abs=1e-15)

    def test_formula_against_direct_evaluation(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            z = complex(rng.normal(), rng.normal())
            w = complex(rng.normal(), rng.normal())
            expected = 2.0 * abs(z - w) / math.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))
            assert sph_dist(z, w) == pytest.approx(expected, abs=1e-13)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(10)
        pts = random_points(rng, 60) + [SpherePoint.infinity()]
        idx = rng.integers(0, len(pts), size=(10_000, 3))
        for i, j, k in idx:
            p, q, r = pts[i], pts[j], pts[k]
            dpq = sph_dist(p, q)
            assert dpq == sph_dist(q, p)
            assert 0.0 <= dpq <= 2.0
            assert dpq <= sph_dist(p, r) + sph_dist(r, q) + 1e-12

    def test_chart_consistency_near_switch(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            m1 = rng.uniform(0.5, 2.0)
            m2 = rng.uniform(0.5, 2.0)
            z = m1 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            w = m2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            d_direct = sph_dist(SpherePoint.from_complex(z), SpherePoint.from_complex(w))
            d_recip = sph_dist(SpherePoint.from_reciprocal(1 / z), SpherePoint.from_reciprocal(1 / w))
            assert d_direct == pytest.approx(d_recip, abs=1e-12)


def chart_edge_points():
    """Zero and infinity with signed zeros, both charts on |z| = 1, tiny
    and huge moduli, and NaN values."""
    nan = math.nan
    points = [SpherePoint.from_complex(z) for z in
              (0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               1.0, -1.0, 1j, -1j, cmath.exp(0.7j), 1e-300, -1e-300j, 1e300, -1e300j,
               complex(1e300, 1e-300), complex(nan, 0.0), complex(0.5, nan))]
    points += [SpherePoint.from_reciprocal(w) for w in
               (0.0, complex(-0.0, -0.0), 1.0, -1j, cmath.exp(-2.1j), 1e-300, complex(nan, nan))]
    points += [SpherePoint.infinity()]
    return points


class TestChartSphDist:
    """sph_dist on chart arrays against the scalar sph_dist, to the bit."""

    @staticmethod
    def check(ps, qs):
        got = sph_dist(chart_values(ps), chart_values(qs))
        want = np.array([sph_dist(p, q) for p, q in zip(ps, qs)])
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        return got

    def test_random_pairs(self):
        rng = np.random.default_rng(12)
        k = 20_000
        modulus = 10.0 ** np.concatenate([rng.uniform(-3, 3, k // 2),
                                          rng.uniform(-300, 300, k // 4),
                                          rng.normal(0.0, 1e-15, k - 3 * k // 4)])
        z = modulus * np.exp(1j * rng.uniform(-math.pi, math.pi, k))
        ps = [SpherePoint.from_complex(v) for v in z.tolist()]
        qs = [ps[i] for i in rng.permutation(k)]
        self.check(ps, qs)

    def test_edge_points(self):
        edges = chart_edge_points()
        ps = [p for p in edges for _ in edges]
        qs = [q for _ in edges for q in edges]
        got = self.check(ps, qs)
        nan_rows = [k for k, (p, q) in enumerate(zip(ps, qs))
                    if cmath.isnan(p.value) or cmath.isnan(q.value)]
        assert nan_rows and (got[nan_rows] == 2.0).all()

    def test_two_dimensional_and_empty(self):
        rng = np.random.default_rng(13)
        ps = random_points(rng, 12)
        qs = random_points(rng, 12)
        values, inverted = chart_values(ps)
        others, flags = chart_values(qs)
        got = sph_dist((values.reshape(3, 4), inverted.reshape(3, 4)),
                       (others.reshape(3, 4), flags.reshape(3, 4)))
        assert got.shape == (3, 4)
        assert got.ravel().tolist() == [sph_dist(p, q) for p, q in zip(ps, qs)]
        assert sph_dist(chart_values([]), chart_values([])).shape == (0,)


def poly_from_roots(root_list):
    """Ascending coefficients of prod (z - r), an independent construction."""
    coeffs = np.array([1.0 + 0j])
    for r in root_list:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0j]))
    return coeffs


def match_multisets(expected, got, tol):
    """Greedy optimal matching of two root multisets; returns max distance."""
    exp = []
    for p, m in expected:
        exp.extend([p] * m)
    out = []
    for p, m in got:
        out.extend([p] * m)
    assert len(exp) == len(out)
    used = [False] * len(out)
    worst = 0.0
    for p in exp:
        best, best_d = None, math.inf
        for i, q in enumerate(out):
            if used[i]:
                continue
            d = sph_dist(p, q)
            if d < best_d:
                best, best_d = i, d
        used[best] = True
        worst = max(worst, best_d)
    assert worst <= tol, f"worst root mismatch {worst}"
    return worst


class TestRoots:
    def test_quadratic_factorable(self):
        got = roots([-4.0, 0.0, 1.0])
        match_multisets([(SpherePoint.from_complex(2), 1), (SpherePoint.from_complex(-2), 1)], got, 1e-12)

    def test_double_root_at_zero(self):
        got = roots([0.0, 0.0, 1.0])
        assert len(got) == 1
        point, mult = got[0]
        assert mult == 2
        assert sph_dist(point, SpherePoint.from_complex(0)) == 0.0

    def test_roots_of_unity(self):
        got = roots([-1.0, 0.0, 0.0, 1.0])
        expected = [(SpherePoint.from_complex(np.exp(2j * np.pi * k / 3)), 1) for k in range(3)]
        match_multisets(expected, got, 1e-10)

    def test_degree_drop_reports_infinity(self):
        # Formal degree 3 with negligible top coefficients: one finite root.
        got = roots([1.0, 1.0, 0.0, 0.0])
        inf_mult = sum(m for p, m in got if p.is_infinity)
        assert inf_mult == 2
        finite = [(p, m) for p, m in got if not p.is_infinity]
        match_multisets([(SpherePoint.from_complex(-1.0), 1)], finite, 1e-12)

    def test_identically_zero_rejected(self):
        with pytest.raises(ValueError):
            roots([0.0, 0.0])

    def test_random_root_sets_match(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            d = int(rng.integers(1, 13))
            rts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(d)]
            coeffs = poly_from_roots(rts) * complex(rng.normal(), rng.normal())
            got = roots(coeffs)
            expected = [(SpherePoint.from_complex(r), 1) for r in rts]
            match_multisets(expected, got, 1e-8)

    def test_multiple_roots_merge(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if abs(a - b) < 0.3:
                continue
            coeffs = poly_from_roots([a, a, b])
            got = roots(coeffs)
            mults = sorted(m for _, m in got)
            assert mults == [1, 2]
            match_multisets([(SpherePoint.from_complex(a), 2), (SpherePoint.from_complex(b), 1)], got, 1e-7)

    def test_small_roots_survive_large_companions(self):
        # Constant coefficients far below the leading scale still encode
        # genuine roots; they must not collapse to an exact zero.
        small = [2e-3, -1.5e-3 + 1e-3j, 8e-4 - 2.1e-3j]
        large = [3.0, -2.5j, 2.0 + 2.0j, -1.7 + 0.4j]
        got = roots(poly_from_roots(small + large))
        expected = [(SpherePoint.from_complex(r), 1) for r in small + large]
        match_multisets(expected, got, 1e-9)
        assert all(not p.is_infinity and p.to_complex() != 0 for p, _ in got)

    def test_scale_invariance(self):
        rng = np.random.default_rng(56)
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        base = roots(coeffs)
        scaled = roots(coeffs * 1e8)
        match_multisets(base, scaled, 1e-9)
        tiny = roots(coeffs * 1e-8)
        match_multisets(base, tiny, 1e-9)

    def test_unreachable_tolerance_raises(self):
        from corrdyn.errors import NonConvergence
        rng = np.random.default_rng(55)
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        with pytest.raises(NonConvergence):
            roots(coeffs, tol=1e-30)

    @pytest.mark.parametrize("c0", [1e-40, 1e-60, 1e-300])
    def test_tiny_roots_rescaled(self, c0):
        # z^3 = c0 stalls the iteration near 1e-14, where its stop test is
        # absolute; the solve for z / s, s a power of two, finds the roots.
        coeffs = [-c0, 0.0, 0.0, 1.0]
        got = roots(coeffs)
        assert [m for _, m in got] == [1, 1, 1]
        for k, (p, _) in enumerate(got):
            r = p.to_complex()
            assert abs(abs(r) / c0 ** (1 / 3) - 1.0) < 1e-12
            assert abs(r ** 3 - c0) <= 1e-12 * (c0 + abs(r) ** 3)
            assert all(sph_dist(p, q) > 0.5 * abs(r) for q, _ in got[k + 1:])

    def test_unscalable_tiny_roots_raise(self):
        from corrdyn.errors import NonConvergence
        # Roots near 1e-200 need s^3 near 1e-600, below the double range.
        with pytest.raises(NonConvergence):
            roots([1e-300, 0.0, 0.0, 1e300])

    @pytest.mark.parametrize("coeffs,want", [
        ([1e-200, 0.0, 1e-200], [(1j, 1), (-1j, 1)]),
        ([1e160, 0.0, 1e160], [(1j, 1), (-1j, 1)]),
        ([1e300, 2e300, 1e300], [(-1.0, 2)]),
        ([1e-320, 2e-320, 1e-320], [(-1.0, 2)]),
        ([1e308] * 4, [(1j, 1), (-1.0, 1), (-1j, 1)]),
        ([1e-310] * 4, [(1j, 1), (-1.0, 1), (-1j, 1)]),
        # 1e308 (0.3 - z + z^2 + 0.5 z^3)
        ([3e307, -1e308, 1e308, 5e307],
         [(r, 1) for r in np.roots([0.5, 1.0, -1.0, 0.3]).tolist()]),
    ])
    def test_coefficients_at_the_ends_of_the_double_range(self, coeffs, want):
        # Unscaled, the discriminant or the Horner sums over- or underflow:
        # these gave a double root at 0, NaN roots or NonConvergence.
        match_multisets([(SpherePoint.from_complex(r), m) for r, m in want],
                        roots(coeffs), 1e-12)

    def test_power_of_two_scaling_keeps_every_bit(self):
        rng = np.random.default_rng(57)
        for _ in range(150):
            deg = int(rng.integers(1, 9))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            if deg >= 2 and rng.random() < 0.3:  # a double root
                double = rng.normal(size=deg - 1).tolist()
                c = poly_from_roots(double + double[:1])
            if rng.random() < 0.3:
                c = c.real + 0j
            base = [(p.inverted, m) for p, m in roots(c)]
            bits = np.array([p.value for p, _ in roots(c)]).view(float).tobytes()
            for j in rng.integers(-900, 901, size=4).tolist():
                got = roots(np.ldexp(c.view(float), j).view(complex))
                assert [(p.inverted, m) for p, m in got] == base, (c, j)
                assert np.array([p.value for p, _ in got]).view(float).tobytes() == bits

    def test_residual_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            d = int(rng.integers(2, 10))
            coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            got = roots(coeffs, tol=1e-12)
            for p, _ in got:
                if p.is_infinity:
                    continue
                r = p.to_complex()
                val = abs(sum(c * r ** k for k, c in enumerate(coeffs)))
                scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(coeffs))
                assert val <= 1e-11 * scale


def same_bits(got, want):
    """Equal complex numbers with equal signs of their zero parts."""
    return (got == want and math.copysign(1.0, got.real) == math.copysign(1.0, want.real)
            and math.copysign(1.0, got.imag) == math.copysign(1.0, want.imag))


def two_branch_reciprocal(z):
    """Reference copy of ``_reciprocal`` as it was: both branches of
    ``_Py_c_quot`` for every value, then one of them picked per value."""
    re, im = z.real, z.imag
    with np.errstate(all="ignore"):
        ratio = im / re
        denom = re + im * ratio
        by_re = (1.0 + 0.0 * ratio) / denom, (0.0 - 1.0 * ratio) / denom
        ratio = re / im
        denom = re * ratio + im
        by_im = (ratio + 0.0) / denom, (0.0 * ratio - 1.0) / denom
    wide = np.abs(re) >= np.abs(im)
    out = np.empty_like(z)
    out.real = np.where(wide, by_re[0], by_im[0])
    out.imag = np.where(wide, by_re[1], by_im[1])
    return out


class TestComplexCharts:
    """complex_charts and _reciprocal against SpherePoint and Python's 1/z."""

    def test_reciprocal_equals_two_branch_form(self):
        # Random arrays seeded with signed zeros, infinities, extreme and
        # subnormal parts, and |re| = |im|, where the branch flips.
        rng = np.random.default_rng(23)
        special = np.array([0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, 1e-300,
                            -1e-300, 5e-324, -5e-324, 1.0, -1.0, 0.5])
        for _ in range(3000):
            n = int(rng.integers(1, 40))
            parts = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-5, 6, size=(2, n))
            pick = rng.random((2, n)) < 0.3
            parts[pick] = rng.choice(special, pick.sum())
            tie = rng.random(n) < 0.1
            parts[1, tie] = parts[0, tie] * rng.choice([1.0, -1.0], tie.sum())
            z = parts[0] + 0j
            z.imag = parts[1]
            assert np.array_equal(_reciprocal(z).view(np.int64),
                                  two_branch_reciprocal(z).view(np.int64)), z

    def check(self, zs):
        values, inverted = complex_charts(np.array(zs, dtype=complex))
        for z, value, flag in zip(zs, values.tolist(), inverted.tolist()):
            point = SpherePoint(z)
            assert flag == point.inverted, z
            assert same_bits(value, point.value), z

    def test_random_points(self):
        rng = np.random.default_rng(19)
        mod = 10.0 ** rng.uniform(-3.0, 6.0, 4000)
        self.check((mod * np.exp(1j * rng.uniform(-math.pi, math.pi, 4000))).tolist())

    def test_modulus_just_above_one(self):
        rng = np.random.default_rng(20)
        unit = np.exp(1j * rng.uniform(-math.pi, math.pi, 500))
        zs = [complex(u) * (1.0 + k * 2.0 ** -52) for u in unit for k in range(-2, 4)]
        zs += [1.0, -1.0, 1j, complex(math.nextafter(1.0, 2.0), 0.0),
               complex(-0.0, -math.nextafter(1.0, 2.0)),
               complex(math.sqrt(0.5), math.sqrt(0.5)),
               complex(math.nextafter(math.sqrt(0.5), 1.0), math.sqrt(0.5))]
        self.check(zs)

    def test_signed_zero_parts(self):
        zs = [complex(re, im) for re in (0.0, -0.0) for y in (1.5, 3.0, 1e5, 1e300)
              for im in (y, -y)]
        zs += [complex(re, im) for im in (0.0, -0.0) for y in (1.5, 7.0, 1e300)
               for re in (y, -y)]
        self.check(zs)

    def test_huge_and_tiny_parts(self):
        zs = [complex(1e300, 1e300), complex(1e308, -1e308), complex(-1e308, 5e-324),
              complex(5.0, 1e-300), complex(1e-310, -7.0), complex(-3.0, 2e-308),
              complex(1e-300, 1e-300), complex(-4e-320, 0.0), 1e-300j]
        self.check(zs)
        tiny = [complex(1e-300, 1e-300), complex(-2e-300, 5e-301), complex(0.0, -1e-305),
                complex(3e-310, 0.0), complex(-1e-200, -0.0)]
        got = _reciprocal(np.array(tiny)).tolist()
        for z, value in zip(tiny, got):
            assert same_bits(value, 1.0 / z), z


class TestRootsMany:
    """stacked_roots against the scalar roots, row by row: a row it passes
    holds the scalar roots, all simple; every other row is left to
    ``roots``."""

    def passed(self, stack, tol=1e-12):
        rows, z, ok = stacked_roots(np.asarray(stack, dtype=complex), tol)
        return dict(zip(rows[ok].tolist(), z[ok].tolist()))

    def check_rows(self, stack, tol=1e-9):
        passed = self.passed(stack)
        for k, found in passed.items():
            expected = roots(stack[k])
            assert [m for _, m in expected] == [1] * len(found)
            match_multisets(expected, [(SpherePoint(r), 1) for r in found], tol)
        return passed

    @pytest.mark.parametrize("deg", [1, 2, 3, 5])
    def test_random_rows_match_scalar(self, deg):
        rng = np.random.default_rng(70 + deg)
        stack = rng.normal(size=(200, deg + 1)) + 1j * rng.normal(size=(200, deg + 1))
        stack *= 10.0 ** rng.uniform(-6, 6, size=(200, 1))
        assert len(self.check_rows(stack)) >= 190

    def test_fallback_rows_match_scalar(self):
        rows = [
            [0.0, 0.0, 1.0],             # double root at 0, zero constant term
            [-1.0, 2.0, -1.0],           # double root at 1
            [1.0, 1.0, 1e-14],           # degree drop: a root at infinity
            [0.0, -4.0, 1.0],            # exact-zero constant term
            [1.0, 0.0, 1.0],             # roots +-i, stacked
            [-1.0, 0.0, 1.0],            # root -1 on the argument cut
            [3.0, -1.0, 0.5],            # generic, stacked
        ]
        assert sorted(self.check_rows(np.array(rows, dtype=complex))) == [4, 6]

    def test_degree_one_zero_rows_take_the_closed_form(self):
        # c_0 = 0 gives the root 0 and an exact c_1 = 0 the root infinity,
        # charted with the bits of the scalar roots; a leading coefficient
        # near the degree-drop cutoff is still left to ``roots``.
        stack = np.array([[0.0, 3.0], [complex(-0.0, -0.0), -1j], [2.0, 0.0],
                          [complex(5e-324, -1.0), complex(-0.0, 0.0)], [0.0, 5e-324],
                          [1.0, 1e-13], [0.0, 0.0], [0.5, -2.0]], dtype=complex)
        rows, z, ok = stacked_roots(stack, 1e-12)
        assert rows[ok].tolist() == [0, 1, 2, 3, 4, 7]
        values, inverted = complex_charts(z[ok, 0])
        for k, value, flag in zip(rows[ok].tolist(), values.tolist(), inverted.tolist()):
            [(point, m)] = roots(stack[k])
            assert m == 1 and flag == point.inverted and same_bits(value, point.value), k
        assert SpherePoint.from_chart(values[2], inverted[2]) == SpherePoint.infinity()

    def test_all_zero_row_rejected_like_roots(self):
        stack = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert list(self.passed(stack)) == [0]
        with pytest.raises(ValueError):
            roots(stack[1])

    def test_residual_bound(self):
        rng = np.random.default_rng(15)
        stack = rng.normal(size=(100, 4)) + 1j * rng.normal(size=(100, 4))
        passed = self.passed(stack)
        assert len(passed) >= 95
        for k, found in passed.items():
            for r in found:
                val = abs(sum(c * r ** j for j, c in enumerate(stack[k])))
                scale = sum(abs(c) * abs(r) ** j for j, c in enumerate(stack[k]))
                assert val <= 1e-11 * scale

    def test_empty_stack(self):
        rows, z, ok = stacked_roots(np.zeros((0, 4), dtype=complex), 1e-12)
        assert len(rows) == len(z) == len(ok) == 0


def match_one_to_one(expected, found, rel):
    """Match every expected root to its own nearest found root, each within
    rel relative to the expected root's magnitude (or to 1 below it)."""
    left = list(found)
    for r in expected:
        k = min(range(len(left)), key=lambda i: abs(left[i] - r))
        assert abs(left[k] - r) <= rel * max(1.0, abs(r)), (r, left[k])
        del left[k]
    assert not left


def close_root_stack(rng, deg, gap, rows):
    """Monic rows of degree deg with roots 0 and 1 gap apart, the rest
    random: the known roots and the ascending coefficients."""
    known = rng.normal(size=(rows, deg)) + 1j * rng.normal(size=(rows, deg))
    known[:, 1] = known[:, 0] + gap * np.exp(2j * np.pi * rng.uniform(size=rows))
    return known, np.array([np.poly(r)[::-1] for r in known])


class TestStackedAberth:
    """The Aberth-Ehrlich iteration of stacked_roots, against known roots
    and against ``np.roots`` as an independent oracle."""

    @pytest.mark.parametrize("deg", [2, 3, 4, 5, 6])
    def test_binomials_in_both_charts(self, deg, monkeypatch):
        # z^d = y, written in the plain chart (c_0 = -y, c_d = 1) and in the
        # reciprocal one (c_0 = 1, c_d = -1/y).  A binomial row starts at
        # its roots, so one step must do, as a cap of one step shows.
        monkeypatch.setattr(sphere, "_ABERTH_MAX_ITER", 1)
        # y = 2^(e d) u, so its roots are 2^e times those of u, exactly; 2^(k d)
        # is near 1e300.
        k = 996 // deg
        ys = [(0, 0.3 - 0.4j), (0, -0.5 + 0.1j), (0, 5.0 + 2.0j), (0, -7j),
              (-k, cmath.exp(0.3j)), (k, cmath.exp(-2j))]
        stack = np.zeros((2 * len(ys), deg + 1), dtype=complex)
        for row, (e, u) in enumerate(ys):
            y = math.ldexp(1.0, e * deg) * u
            stack[2 * row, [0, -1]] = -y, 1.0
            stack[2 * row + 1, [0, -1]] = 1.0, -1.0 / y
        rows, z, ok = stacked_roots(stack, 1e-12)
        # |y| = 1e300 drops a degree in both charts, which is left to roots.
        assert rows.tolist() == list(range(10))
        # The roots of z^d = 1e-300 lie within the cluster radius of each
        # other, so those rows are left to roots too.
        assert ok.tolist() == [True] * 8 + [False] * 2
        with np.errstate(all="ignore"):
            z, done = sphere._aberth(stack[rows], sphere._binomial_starts(stack[rows]),
                                     1e-12)
        assert done.all()
        for row, found in zip(rows.tolist(), z.tolist()):
            e, u = ys[row // 2]
            radius = math.ldexp(abs(u) ** (1.0 / deg), e)
            exact = [radius * cmath.exp(1j * (cmath.phase(u) + 2 * math.pi * j) / deg)
                     for j in range(deg)]
            match_one_to_one(exact, found, 1e-14 * min(1.0, radius))

    @pytest.mark.parametrize("deg", [2, 3, 4, 5, 6, 7, 8])
    def test_random_rows_match_np_roots(self, deg):
        rng = np.random.default_rng(230 + deg)
        stack = rng.normal(size=(300, deg + 1)) + 1j * rng.normal(size=(300, deg + 1))
        stack *= 10.0 ** rng.uniform(-6, 6, size=(300, 1))
        rows, z, ok = stacked_roots(stack, 1e-12)
        assert ok.sum() >= 290
        for k, found in zip(rows[ok].tolist(), z[ok].tolist()):
            match_one_to_one(np.roots(stack[k][::-1]).tolist(), found, 1e-10)

    @pytest.mark.parametrize("deg", [2, 3, 5])
    @pytest.mark.parametrize("gap", [1e-3, 1e-4])
    def test_close_roots_match_known_roots(self, deg, gap):
        # A stop on the residual alone leaves roots this close far off; the
        # step rule must carry them to the accuracy the coefficients allow.
        known, stack = close_root_stack(np.random.default_rng(int(deg / gap)), deg, gap,
                                        200)
        rows, z, ok = stacked_roots(stack, 1e-12)
        assert ok.sum() >= 198
        for k, found in zip(rows[ok].tolist(), z[ok].tolist()):
            match_one_to_one(known[k].tolist(), found, 1e-12 / gap)

    def test_rows_that_do_not_converge_fail(self, monkeypatch):
        rng = np.random.default_rng(23)
        stack = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
        assert stacked_roots(stack, 1e-12)[2].all()
        monkeypatch.setattr(sphere, "_ABERTH_MAX_ITER", 2)
        rows, z, ok = stacked_roots(stack, 1e-12)
        assert len(rows) == 50 and not ok.any()

    @pytest.mark.parametrize("deg", [2, 3, 5, 8])
    def test_row_alone_equals_row_in_stack(self, deg):
        # Random rows, rows with coefficients spread over 1e+-6, rows with
        # close roots, which reach the plateau rule, and two rows whose
        # Horner sums overflow, which fail; from the binomial starts and
        # from random ones.
        rng = np.random.default_rng(240 + deg)
        spread = rng.normal(size=(60, deg + 1)) + 1j * rng.normal(size=(60, deg + 1))
        spread *= 10.0 ** rng.uniform(-6, 6, size=(60, deg + 1))
        stack = np.concatenate([
            rng.normal(size=(70, deg + 1)) + 1j * rng.normal(size=(70, deg + 1)),
            spread, close_root_stack(rng, deg, 1e-6, 70)[1],
            np.full((2, deg + 1), 1e308)])
        for starts in (sphere._binomial_starts(stack),
                       rng.normal(size=(202, deg)) + 1j * rng.normal(size=(202, deg))):
            with np.errstate(all="ignore"):
                z, done = sphere._aberth(stack, starts, 1e-12)
                assert done.tolist() == [True] * 200 + [False] * 2
                for k in range(202):
                    alone, done_alone = sphere._aberth(stack[k:k + 1], starts[k:k + 1],
                                                       1e-12)
                    assert alone.tobytes() == z[k:k + 1].tobytes(), k
                    assert done_alone[0] == done[k], k

    def test_roots_raises_when_the_iteration_fails(self):
        # Horner overflows at every start, so the iteration fails the row.
        # The loop this one replaced jittered the non-finite steps and
        # returned its start circle.
        c = np.full(4, 1e308, dtype=complex)
        start = np.exp(2j * np.pi * np.arange(3) / 3)[None]
        with np.errstate(all="ignore"):
            assert not sphere._aberth(c[None], start, 1e-12)[1].any()
        # ``roots`` scales those coefficients to 0.556 and solves them; these
        # span more than the double range, so no power of two brings every
        # Horner sum into it, and the rescaled retry is out of range too.
        with pytest.raises(NonConvergence, match="backward error nan"):
            roots([5e-324, 0.0, 0.0, 1e308])

    def test_no_runtime_warning(self):
        # The inputs of the tests above: 1 / (z_i - z_j) divides by zero on
        # its diagonal, and huge or tiny rows overflow or underflow.
        rng = np.random.default_rng(25)
        stacks = [close_root_stack(rng, deg, 1e-4, 20)[1] for deg in (2, 3, 5)]
        for deg in range(2, 9):
            stack = rng.normal(size=(20, deg + 1)) + 1j * rng.normal(size=(20, deg + 1))
            stacks.append(stack * 10.0 ** rng.uniform(-6, 6, size=(20, 1)))
            y = math.ldexp(1.0, 996) * np.exp(1j * rng.uniform(0, 7, size=4))
            binomials = np.zeros((12, deg + 1), dtype=complex)
            binomials[:4, 0], binomials[:4, -1] = -y, 1.0
            binomials[4:8, 0], binomials[4:8, -1] = 1.0 / y, 1.0
            binomials[8:, 0], binomials[8:, -1] = 1.0, -1.0 / y
            stacks.append(binomials)
        stacks.append(np.full((1, 4), 1e308, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for stack in stacks:
                stacked_roots(stack, 1e-12)
                for row in stack:
                    try:
                        roots(row)
                    except NonConvergence:
                        pass

    def test_pullback_makes_no_eigvals_call(self, monkeypatch, corr_non_binomial):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for corr in (corr_non_binomial, bundled_correspondence("z2_plus_z3")):
            levels = pullback_iterate(corr, 0.5 + 0.3j, n=4, cap=512, seed=1,
                                      grid=SphereGrid(400))
            assert len(levels) == 5
            assert abs(float(levels[-1].weights.sum()) - 1.0) < 1e-9

    def test_non_binomial_fibers_match_scalar(self, corr_non_binomial):
        corr = corr_non_binomial
        rng = np.random.default_rng(5)
        points = random_points(rng, 200) + [SpherePoint.from_complex(0.5)]
        owner, _, values, inverted, component, _ = corr.fiber_arrays(
            *chart_values(points), backward=True)
        for k, p in enumerate(points):
            fiber = corr.backward_images(p)
            mine = (owner == k).nonzero()[0]
            assert component[mine].tolist() == [b.component for b in fiber.branches]
            got = [SpherePoint.from_chart(v, i) for v, i in
                   zip(values[mine].tolist(), inverted[mine].tolist())]
            for a, b in zip(got, (br.point for br in fiber.branches)):
                assert sph_dist(a, b) <= 1e-12

    def test_scalar_fallbacks_of_the_spectral_bench(self, tmp_path, monkeypatch):
        # The ruelle config of the spectral-z2_plus_z3 bench workload at
        # seeds 1-20.  Every row the stacked solver declines costs a scalar
        # roots call, so these counts pin how many it declines.
        counts = {"roots": 0, "declined": 0}

        def counted_roots(coeffs):
            counts["roots"] += 1
            return roots(coeffs)

        def counted_stacked(c, tol):
            out = stacked_roots(c, tol)
            counts["declined"] += int((~out[2]).sum())
            return out

        monkeypatch.setattr(correspondence, "roots", counted_roots)
        monkeypatch.setattr(correspondence, "stacked_roots", counted_stacked)
        (tmp_path / "z2_plus_z3.corr").write_text(bundled_text("z2_plus_z3"))
        config = tmp_path / "spectral.json"
        config.write_text(json.dumps({
            "correspondence": "z2_plus_z3.corr", "n_cells": 2000,
            "ruelle": {"f": "zero", "tol": 1e-10, "depth": 2, "n_max": 40,
                       "convergence_g": "re",
                       "pullback": {"start": [0.5, 0.3], "levels": 6, "cap": 1024}}}))
        for seed in range(1, 21):
            assert cli_main(["ruelle", "--config", str(config), "--seed", str(seed),
                             "--out", str(tmp_path / f"out{seed}")]) == 0
        assert counts == {"roots": 93, "declined": 53}


class TestBivarPoly:
    def test_degrees_read_off_table(self):
        # P(z, w) = w - z^2
        table = np.zeros((3, 2), dtype=complex)
        table[0, 1] = 1.0
        table[2, 0] = -1.0
        p = BivarPoly(table)
        assert (p.deg_z, p.deg_w) == (2, 1)

    def test_rejects_degenerate_bidegree(self):
        with pytest.raises(InvalidComponent):
            BivarPoly(np.array([[1.0, 1.0]], dtype=complex))  # deg_z = 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf),
                                     complex(math.nan, 1.0)])
    def test_rejects_non_finite_table(self, bad):
        table = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        table[1, 1] = bad
        with pytest.raises(InvalidComponent, match="coefficients must be finite"):
            BivarPoly(table)

    def test_rejects_bad_multiplicity(self):
        table = np.zeros((2, 2), dtype=complex)
        table[1, 1] = 1.0
        with pytest.raises(InvalidComponent):
            BivarPoly(table, multiplicity=0)

    def test_fiber_coefficients_match_direct_expansion(self):
        rng = np.random.default_rng(15)
        table = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        p = BivarPoly(table)
        x = complex(0.3, -0.4)
        cw = p.coeffs_in_w(SpherePoint.from_complex(x))
        expected = np.array([sum(table[a, b] * x ** a for a in range(3)) for b in range(4)])
        npt.assert_allclose(cw, expected, atol=1e-14)

    def test_stacked_fiber_coefficients_match_scalar(self):
        rng = np.random.default_rng(16)
        p = BivarPoly(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
        points = random_points(rng, 50) + [SpherePoint.infinity(),
                                           SpherePoint.from_complex(0.0)]
        stack = p.coeffs_in_z_charts(*chart_values(points))
        assert stack.shape == (len(points), p.deg_z + 1)
        for y, row in zip(points, stack):
            npt.assert_allclose(row, p.coeffs_in_z(y), rtol=1e-14, atol=1e-14)
        assert p.coeffs_in_z_charts(*chart_values([])).shape == (0, p.deg_z + 1)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_stacked_forward_coefficients_bit_identical(self, name):
        rng = np.random.default_rng(19)
        points = points_in_both_charts(rng, 100)
        for comp in bundled_correspondence(name).components:
            assert_stacked_rows_bit_identical(comp, "w", points)
            assert comp.coeffs_in_w_charts(*chart_values([])).shape == (0, comp.deg_w + 1)

    def test_stacked_forward_coefficients_complex_table(self):
        rng = np.random.default_rng(20)
        p = BivarPoly(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
        assert_stacked_rows_bit_identical(p, "w", points_in_both_charts(rng, 100))

    @pytest.mark.parametrize("name", BUNDLED)
    def test_stacked_backward_coefficients_bit_identical(self, name):
        rng = np.random.default_rng(21)
        points = points_in_both_charts(rng, 100)
        for comp in bundled_correspondence(name).components:
            assert_stacked_rows_bit_identical(comp, "z", points)

    def test_stacked_backward_coefficients_complex_table(self):
        rng = np.random.default_rng(22)
        p = BivarPoly(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
        assert_stacked_rows_bit_identical(p, "z", points_in_both_charts(rng, 1000))

    def test_incidence_residual_zero_on_curve(self):
        table = np.zeros((3, 2), dtype=complex)
        table[0, 1] = 1.0
        table[2, 0] = -1.0  # w = z^2
        p = BivarPoly(table)
        for z in [0.5 + 0.1j, 2.0 - 1.0j, -3.0 + 0.2j]:
            res = p.incidence_residual(SpherePoint.from_complex(z), SpherePoint.from_complex(z * z))
            assert res < 1e-14
        assert p.incidence_residual(SpherePoint.infinity(), SpherePoint.infinity()) < 1e-14
        off = p.incidence_residual(SpherePoint.from_complex(1.0), SpherePoint.from_complex(2.0))
        assert off > 1e-3
