import cmath
import math

import numpy as np
import pytest

from corrdyn import correspondence
from corrdyn.correspondence import (EXPANSIVITY_MARGIN, Correspondence,
                                    ExpansivityResult, expansivity_probe,
                                    parse_correspondence)
from corrdyn.datasets import BUNDLED, bundled_correspondence
from corrdyn.errors import (InsufficientPairs, InvalidComponent, NonConvergence,
                            ParseError)
from corrdyn.sphere import (DEFAULT_ROOT_TOL, BivarPoly, SpherePoint, as_sphere_point,
                            chart_values, roots, sph_dist, stacked_roots)


def fiber_count(fiber):
    return sum(b.multiplicity for b in fiber.branches)


def closest(fiber, z):
    target = SpherePoint.from_complex(z) if not isinstance(z, SpherePoint) else z
    return min(sph_dist(b.point, target) for b in fiber.branches)


class TestLoading:
    def test_z2_degrees(self, corr_z2):
        d_fwd, d_top, per = corr_z2.degrees()
        assert (d_fwd, d_top) == (1, 2)
        assert per == [(1, 2, 1)]

    def test_two_component_degrees(self, corr_z2z3):
        d_fwd, d_top, per = corr_z2z3.degrees()
        assert (d_fwd, d_top) == (2, 5)
        assert per == [(1, 2, 1), (1, 3, 1)]

    def test_mobius_degrees(self, corr_mobius):
        d_fwd, d_top, _ = corr_mobius.degrees()
        assert (d_fwd, d_top) == (1, 1)

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_correspondence("# only comments\n")

    def test_invalid_component(self):
        # Constant in z: projection cannot be surjective.
        with pytest.raises(InvalidComponent):
            parse_correspondence("1\n0 1 1 0\n0 0 -1 0\n")

    @pytest.mark.parametrize("entry", ["0 0 nan 0", "0 0 0 inf", "2 0 -inf 0",
                                       "0 0 1 nan"])
    def test_non_finite_coefficient_names_its_line(self, entry):
        with pytest.raises(ParseError, match="^line 4: coefficient is not finite"):
            parse_correspondence(f"1\n0 1 1 0\n2 0 -1 0\n{entry}\n")

    def test_bad_multiplicity_line(self):
        with pytest.raises(ParseError):
            parse_correspondence("x\n0 1 1 0\n1 0 -1 0\n")

    def test_multiplicity_scales_degrees(self):
        corr = parse_correspondence("3\n0 1 1 0\n2 0 -1 0\n")
        assert corr.degrees()[:2] == (3, 6)

    def test_component_multiplicity_repeats_contribution(self):
        corr = parse_correspondence("2\n0 1 1 0\n2 0 -1 0\n")
        fib = corr.backward_images(4.0)
        assert fiber_count(fib) == 4
        # Two geometric preimages, each counted twice.
        assert sorted(b.multiplicity for b in fib.branches) == [2, 2]
        from corrdyn.paths import enumerate_forward_paths
        paths, _ = enumerate_forward_paths(corr, 3.0, 2, cap=64, seed=None)
        assert len(paths) == 4  # d_fwd = 2 spawns two slots per step
        assert {p.branches for p in paths} == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_degrees_match_fiber_counts(self, corr_z2z3):
        # Fiber-count oracle at random generic points.
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = SpherePoint.from_complex(complex(rng.normal(), rng.normal()))
            assert fiber_count(corr_z2z3.forward_images(x)) == corr_z2z3.d_fwd
            assert fiber_count(corr_z2z3.backward_images(x)) == corr_z2z3.d_top


class TestImages:
    def test_forward_square(self, corr_z2):
        fib = corr_z2.forward_images(2.0)
        assert fiber_count(fib) == 1
        assert closest(fib, 4.0) < 1e-12

    def test_forward_two_components(self, corr_z2z3):
        fib = corr_z2z3.forward_images(2.0)
        by_comp = {b.component: b.point for b in fib.branches}
        assert sph_dist(by_comp[1], SpherePoint.from_complex(4.0)) < 1e-12
        assert sph_dist(by_comp[2], SpherePoint.from_complex(8.0)) < 1e-12

    def test_forward_at_infinity(self, corr_z2):
        fib = corr_z2.forward_images(SpherePoint.infinity())
        assert fiber_count(fib) == 1
        assert fib.branches[0].point.is_infinity

    def test_backward_square_roots(self, corr_z2):
        fib = corr_z2.backward_images(4.0)
        assert fiber_count(fib) == 2
        assert closest(fib, 2.0) < 1e-12
        assert closest(fib, -2.0) < 1e-12

    def test_backward_critical_fiber(self, corr_z2):
        fib = corr_z2.backward_images(0.0)
        assert fiber_count(fib) == 2
        assert len(fib.branches) == 1
        assert fib.branches[0].multiplicity == 2
        assert fib.degenerate

    def test_backward_roots_of_unity(self, corr_z2z3):
        # Oracle: square roots of 1 plus cube roots of 1.
        fib = corr_z2z3.backward_images(1.0)
        assert fiber_count(fib) == 5
        comp1 = [b.point for b in fib.branches if b.component == 1]
        comp2 = [b.point for b in fib.branches if b.component == 2]
        for target in (1.0, -1.0):
            assert min(sph_dist(p, SpherePoint.from_complex(target)) for p in comp1) < 1e-10
        for k in range(3):
            target = cmath.exp(2j * cmath.pi * k / 3)
            assert min(sph_dist(p, SpherePoint.from_complex(target)) for p in comp2) < 1e-10

    def test_backward_preimage_of_infinity(self, corr_z2):
        fib = corr_z2.backward_images(SpherePoint.infinity())
        assert fiber_count(fib) == 2
        assert all(b.point.is_infinity for b in fib.branches)

    def test_branch_indices_are_slots(self, corr_z2):
        fib = corr_z2.backward_images(4.0)
        slots = sorted(b.branch_index for b in fib.branches)
        assert slots == [1, 2]

    def test_adjoint_fiber_identity(self, corr_z2z3):
        # Multiplicity of y in the forward fiber of x equals the
        # multiplicity of x in the backward fiber of y, generically.
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 1000:
            x = SpherePoint.from_complex(complex(rng.normal(), rng.normal()))
            fwd = corr_z2z3.forward_images(x)
            for b in fwd.branches:
                back = corr_z2z3.backward_images(b.point)
                m_back = sum(bb.multiplicity for bb in back.branches
                             if bb.component == b.component and sph_dist(bb.point, x) < 1e-7)
                assert m_back == b.multiplicity
                checked += 1

    def test_generic_fiber_cardinality(self, corr_z2z3):
        rng = np.random.default_rng(33)
        flagged = 0
        for _ in range(100):
            x = SpherePoint.from_complex(complex(rng.normal(scale=3), rng.normal(scale=3)))
            f = corr_z2z3.forward_images(x)
            b = corr_z2z3.backward_images(x)
            assert fiber_count(f) == corr_z2z3.d_fwd
            assert fiber_count(b) == corr_z2z3.d_top
            flagged += f.degenerate or b.degenerate
        assert flagged <= 1

    def test_chart_covariance(self, corr_z2z3):
        # Conjugating the correspondence by z -> 1/z must invert its fibers.
        inverted_components = []
        for comp in corr_z2z3.components:
            table = comp.table[::-1, ::-1].copy()
            inverted_components.append(BivarPoly(table, comp.multiplicity))
        from corrdyn.correspondence import Correspondence
        inv_corr = Correspondence(inverted_components)
        rng = np.random.default_rng(34)
        for _ in range(40):
            z = complex(rng.normal(), rng.normal())
            if abs(z) < 0.1:
                continue
            fib = corr_z2z3.forward_images(SpherePoint.from_complex(z))
            fib_inv = inv_corr.forward_images(SpherePoint.from_reciprocal(z))
            for b in fib.branches:
                mirrored = (SpherePoint.from_reciprocal(b.point.to_complex())
                            if not b.point.is_infinity else SpherePoint.from_complex(0.0))
                assert min(sph_dist(bb.point, mirrored) for bb in fib_inv.branches
                           if bb.component == b.component) < 1e-8


def same_fibers(many, scalar, tol=1e-9):
    """Batched and scalar fibers agree slot by slot."""
    assert len(many) == len(scalar)
    for fa, fb in zip(many, scalar):
        assert fa.degenerate == fb.degenerate
        assert ([(b.component, b.branch_index, b.multiplicity) for b in fa.branches]
                == [(b.component, b.branch_index, b.multiplicity) for b in fb.branches])
        for a, b in zip(fa.branches, fb.branches):
            assert sph_dist(a.point, b.point) <= tol


def vanishing_case(corr_z2):
    """z2 plus the component (w - 1)(z - 2), whose backward fiber is z = 2
    over every y but 1, where its fiber polynomial vanishes."""
    table = np.array([[2.0, -2.0], [-1.0, 1.0]], dtype=complex)
    return Correspondence(corr_z2.components + [BivarPoly(table)])


def mixed_degree_case(transposed=False):
    """A correspondence of fiber degrees 2 and 3, the first component with
    multiplicity 2 and complex coefficients, the second with real ones,
    and points in both charts.  At the real points the real component has
    real roots, arguments 0 or pi, and falls back to the scalar roots,
    while the complex one passes the stacked solver.  ``transposed``
    swaps z and w, so the backward fibers have these degrees."""
    rng = np.random.default_rng(41)
    tables = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)),
              rng.normal(size=(3, 4))]
    corr = Correspondence([BivarPoly(t.T if transposed else t, multiplicity=m)
                           for t, m in zip(tables, (2, 1))])
    inside = (rng.uniform(0.0, 0.99, 200)
              * np.exp(1j * rng.uniform(-math.pi, math.pi, 200))).tolist()
    points = ([SpherePoint.from_complex(z) for z in inside[:100]]
              + [SpherePoint.from_reciprocal(z) for z in inside[100:]])
    points += [SpherePoint.from_complex(x) for x in (0.5, -0.5, 0.25, -0.75, 1.0, -1.0)]
    points += [SpherePoint.from_complex(0.0), SpherePoint.infinity()]
    return corr, points


def mixed_rows(corr, points, backward):
    """Rows where the first component passes the stacked solver and the
    second does not."""
    charts = chart_values(points)
    passed = []
    for comp in corr.components:
        coeffs = (comp.coeffs_in_z_charts(*charts) if backward
                  else comp.coeffs_in_w_charts(*charts))
        rows, _, ok = stacked_roots(coeffs, DEFAULT_ROOT_TOL)
        passed.append(np.isin(np.arange(len(points)), rows[ok]))
    first, second = passed
    return np.nonzero(first & ~second)[0].tolist()


def counting_scalar_roots(monkeypatch):
    """A list that grows by one at each scalar ``roots`` call of
    ``fiber_arrays``."""
    calls = []
    monkeypatch.setattr(correspondence, "roots",
                        lambda coeffs: calls.append(1) or roots(coeffs))
    return calls


def fiber_arrays_of(corr, points, backward):
    return corr.fiber_arrays(*chart_values(points), backward=backward)


def assert_arrays_match(arrays, fibers, tol=0.0):
    """fiber_arrays output against a fiber list: owner, multiplicity,
    component and slot exactly, and the points to the bit (signed zeros
    included) or, for tol > 0, within tol."""
    owner, mult, root_values, root_inverted, component, slot = arrays
    branches = [(k, b) for k, fiber in enumerate(fibers) for b in fiber.branches]
    assert owner.tolist() == [k for k, _ in branches]
    assert mult.tolist() == [b.multiplicity for _, b in branches]
    assert component.tolist() == [b.component for _, b in branches]
    assert slot.tolist() == [b.branch_index for _, b in branches]
    if tol:
        for v, i, (_, b) in zip(root_values.tolist(), root_inverted.tolist(), branches):
            assert sph_dist(SpherePoint.from_chart(v, i), b.point) <= tol
        return
    assert root_inverted.tolist() == [b.point.inverted for _, b in branches]
    want = np.array([b.point.value for _, b in branches], dtype=complex)
    assert np.array_equal(root_values, want)
    assert np.array_equal(np.signbit(root_values.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(root_values.imag), np.signbit(want.imag))


class TestBackwardImagesMany:
    """Batched backward images, fiber_arrays(backward=True), against the
    scalar backward_images."""

    def check(self, corr, points):
        arrays = fiber_arrays_of(corr, points, backward=True)
        assert_arrays_match(arrays, [corr.backward_images(p) for p in points],
                            tol=1e-9)
        return arrays

    @pytest.mark.parametrize("name", ["corr_z2", "corr_z3", "corr_z2z3"])
    def test_matches_scalar_fibers(self, name, request):
        corr = request.getfixturevalue(name)
        rng = np.random.default_rng(37)
        points = [SpherePoint.from_complex(complex(rng.normal(), rng.normal()))
                  for _ in range(150)]
        points += [SpherePoint.from_reciprocal(complex(rng.normal(), rng.normal()) / 4)
                   for _ in range(150)]
        assert any(p.inverted for p in points) and not all(p.inverted for p in points)
        points += [SpherePoint.from_complex(0.0), SpherePoint.infinity(),
                   SpherePoint.from_complex(1.0)]
        self.check(corr, points)

    def test_fallback_fibers(self, corr_z2):
        # Double root at 0 and a degree drop at infinity go to scalar roots.
        owner, mult, values, inverted, _, _ = self.check(
            corr_z2, [0.0, SpherePoint.infinity(), 4.0])
        assert corr_z2.backward_images(0.0).degenerate
        assert mult[owner == 0].tolist() == [2]
        assert (values[owner == 1] == 0).all() and inverted[owner == 1].all()

    def test_vanishing_fiber_polynomial(self, corr_z2):
        # (w - 1)(z - 2): over y = 1 the fiber polynomial in z is zero.
        corr = vanishing_case(corr_z2)
        owner, _, _, _, component, _ = self.check(
            corr, [1.0, 3.0, SpherePoint.infinity()])
        assert corr.backward_images(1.0).degenerate
        assert set(component[owner == 0].tolist()) == {1}
        assert set(component[owner == 1].tolist()) == {1, 2}

    def test_empty_batch(self, corr_z2z3):
        arrays = self.check(corr_z2z3, [])
        assert len(arrays) == 6 and all(len(a) == 0 for a in arrays)


class TestBackwardFiberArrays:
    """fiber_arrays, backward, against the row_fibers oracle, to the bit."""

    def check(self, corr, points, row_fibers):
        assert_arrays_match(fiber_arrays_of(corr, points, backward=True),
                            row_fibers(corr, points))

    @pytest.mark.parametrize("name", BUNDLED)
    def test_identical_to_fibers(self, name, monkeypatch, row_fibers):
        corr = bundled_correspondence(name)
        rng = np.random.default_rng(39)
        inside = (rng.uniform(0.0, 0.99, 200)
                  * np.exp(1j * rng.uniform(-math.pi, math.pi, 200))).tolist()
        points = ([SpherePoint.from_complex(z) for z in inside[:100]]
                  + [SpherePoint.from_reciprocal(z) for z in inside[100:]])
        # Real and imaginary axes, signed zeros included: root arguments
        # at pi, and roots whose real or imaginary part may be a zero.
        axes = [0.5, -0.5, 0.25, -0.75, 1.0, -1.0, complex(-0.0, 0.5),
                complex(0.0, -0.5), complex(-0.5, -0.0), complex(-0.0, -0.0)]
        points += [SpherePoint.from_complex(z) for z in axes]
        points += [SpherePoint.from_reciprocal(z) for z in axes]
        # Zero, infinity, near degree drops and exact-zero constant terms.
        points += [SpherePoint.from_complex(0.0), SpherePoint.infinity(),
                   SpherePoint.from_reciprocal(1e-13), SpherePoint.from_reciprocal(-3e-12j),
                   SpherePoint.from_complex(1e-24), SpherePoint.from_complex(-1e-9j)]
        scalar = counting_scalar_roots(monkeypatch)
        fiber_arrays_of(corr, points, backward=True)
        monkeypatch.undo()
        # Both stacked and scalar roots occur.
        assert 0 < len(scalar) < len(points)
        self.check(corr, points, row_fibers)

    def test_vanishing_fiber_polynomial(self, corr_z2, row_fibers):
        # (w - 1)(z - 2): over y = 1 the second component's fiber is empty.
        corr = vanishing_case(corr_z2)
        self.check(corr, [3.0, 1.0, 0.5j, SpherePoint.infinity()], row_fibers)

    def test_higher_degrees_and_mixed_rows(self, row_fibers):
        corr, points = mixed_degree_case(transposed=True)
        assert len(mixed_rows(corr, points, backward=True)) >= 2
        self.check(corr, points, row_fibers)
        same_fibers(row_fibers(corr, points),
                    [corr.backward_images(p) for p in points])

    def test_empty_batch(self, corr_z2z3):
        arrays = fiber_arrays_of(corr_z2z3, [], backward=True)
        assert len(arrays) == 6 and all(len(a) == 0 for a in arrays)


class TestForwardImagesMany:
    """fiber_arrays, forward, against the scalar forward fibers."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_identical_to_scalar_fibers(self, name):
        corr = bundled_correspondence(name)
        rng = np.random.default_rng(38)
        inside = (rng.uniform(0.0, 0.99, 300)
                  * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))).tolist()
        points = ([SpherePoint.from_complex(z) for z in inside[:150]]
                  + [SpherePoint.from_reciprocal(z) for z in inside[150:]])
        assert sum(p.inverted for p in points) == 150
        points += [SpherePoint.from_complex(0.0), SpherePoint.infinity(),
                   SpherePoint.from_complex(1.0)]
        # Identical point values, not merely close ones.
        assert_arrays_match(fiber_arrays_of(corr, points, backward=False),
                            [corr.forward_images(p) for p in points])

    def test_zero_constant_row_falls_back(self, corr_pair, monkeypatch):
        # w = 2z over z = 0 has an exact-zero constant term; the degree-1
        # closed form of stacked_roots takes it (root +0j), so no row falls
        # back to the scalar roots and the arrays are the scalar fibers'.
        scalar = counting_scalar_roots(monkeypatch)
        arrays = fiber_arrays_of(corr_pair, [0.0, 0.5], backward=False)
        monkeypatch.undo()
        assert len(scalar) == 0
        assert_arrays_match(arrays, [corr_pair.forward_images(0.0),
                                     corr_pair.forward_images(0.5)])
        owner, _, root_values, _, component, _ = arrays
        assert owner.tolist() == [0, 0, 1, 1]
        assert component.tolist() == [1, 2, 1, 2]
        assert root_values[:2].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("name", ["z2", "z2_plus_z3"])
    def test_zero_and_infinity_rows_in_closed_form(self, name, row_fibers, monkeypatch):
        # Over 0 each degree-1 fiber polynomial has c_0 = 0 (root 0), over
        # infinity an exact c_1 = 0 (root infinity): both are solved in
        # closed form, with the bits of the scalar fibers.
        corr = bundled_correspondence(name)
        points = [SpherePoint.from_complex(0.0), SpherePoint.infinity(),
                  SpherePoint.from_complex(0.5)]
        scalar = counting_scalar_roots(monkeypatch)
        arrays = fiber_arrays_of(corr, points, backward=False)
        monkeypatch.undo()
        assert len(scalar) == 0
        assert_arrays_match(arrays, row_fibers(corr, points, backward=False))
        assert_arrays_match(arrays, [corr.forward_images(p) for p in points])
        owner, _, root_values, root_inverted, _, _ = arrays
        assert [SpherePoint.from_chart(v, i) for v, i in
                zip(root_values[owner < 2].tolist(), root_inverted[owner < 2].tolist())] \
            == [SpherePoint.from_complex(0.0)] * corr.n_components \
            + [SpherePoint.infinity()] * corr.n_components

    @pytest.mark.parametrize("backward", [False, True])
    def test_non_convergence_names_the_row(self, backward, monkeypatch):
        # The scalar roots of a declined row fail: the error names the
        # direction, the component and the point, and keeps the iterations.
        corr, points = mixed_degree_case(transposed=backward)
        k = mixed_rows(corr, points, backward)[0]
        target = (corr.components[1].coeffs_in_z_charts if backward
                  else corr.components[1].coeffs_in_w_charts)(*chart_values([points[k]]))[0]

        def failing(coeffs):
            if np.array_equal(coeffs, target):
                raise NonConvergence("stalled", iterations=17)
            return roots(coeffs)

        monkeypatch.setattr(correspondence, "roots", failing)
        with pytest.raises(NonConvergence) as caught:
            fiber_arrays_of(corr, points, backward=backward)
        direction = "backward" if backward else "forward"
        assert str(caught.value) == (
            f"{direction} fiber of component 2 over the point with chart value "
            f"{points[k].value!r} and flag {points[k].inverted}: stalled")
        assert caught.value.iterations == 17

    def test_empty_batch(self, corr_pair):
        arrays = fiber_arrays_of(corr_pair, [], backward=False)
        assert len(arrays) == 6 and all(len(a) == 0 for a in arrays)

    def test_higher_degrees_and_mixed_rows(self):
        corr, points = mixed_degree_case()
        mixed = mixed_rows(corr, points, backward=False)
        assert len(mixed) >= 2
        arrays = fiber_arrays_of(corr, points, backward=False)
        scalar = [corr.forward_images(p) for p in points]
        # Stacked roots equal the scalar ones up to rounding, in the same
        # canonical order, with the same slots: a component of multiplicity
        # m takes slots 1, 1 + m, ...
        assert_arrays_match(arrays, scalar, tol=1e-9)
        owner, _, root_values, root_inverted, component, _ = arrays
        # A component that falls back has the scalar bits.
        for k in mixed:
            rows = (owner == k) & (component == 2)
            assert [SpherePoint.from_chart(v, i) for v, i in
                    zip(root_values[rows].tolist(), root_inverted[rows].tolist())] == \
                [b.point for b in scalar[k].branches if b.component == 2]


def random_multiple_case(seed):
    """Two components of forward degree 2 or 3, the first of multiplicity
    2 with an integer table whose fibers over 0 are a multiple root at 0
    both ways, the second with a complex or a real table; and points in
    both charts, on the axes and at the ends of the range."""
    rng = np.random.default_rng(seed)
    shapes = [(int(rng.integers(3, 5)), int(rng.integers(3, 5))) for _ in range(2)]
    first = rng.integers(-1, 2, size=shapes[0]).astype(float)
    first[0, :-1] = first[:-1, 0] = 0.0  # P(0, w) = w^deg_w, P(z, 0) = z^deg_z
    first[-1, 0] = first[0, -1] = 1.0
    second = rng.normal(size=shapes[1])
    if seed % 2:
        second = second + 1j * rng.normal(size=shapes[1])
    corr = Correspondence([BivarPoly(first, multiplicity=2), BivarPoly(second)])
    inside = (rng.uniform(0.0, 0.99, 40)
              * np.exp(1j * rng.uniform(-math.pi, math.pi, 40))).tolist()
    points = ([SpherePoint.from_complex(z) for z in inside[:20]]
              + [SpherePoint.from_reciprocal(z) for z in inside[20:]])
    points += [SpherePoint.from_complex(z) for z in
               (0.0, 1.0, -1.0, 1j, -1j, 0.5, -0.5, 1e-20, 1e13)]
    points += [SpherePoint.infinity(), SpherePoint.from_reciprocal(2.0)]
    return corr, points


class TestRandomFiberArrays:
    """fiber_arrays of random correspondences with a multiplicity-2
    component and forward degree above 1, both ways."""

    @pytest.mark.parametrize("backward", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_oracle_and_points_alone(self, seed, backward, monkeypatch,
                                                row_fibers):
        corr, points = random_multiple_case(seed)
        scalar = counting_scalar_roots(monkeypatch)
        arrays = fiber_arrays_of(corr, points, backward=backward)
        monkeypatch.undo()
        owner, mult, _, _, component, _ = arrays
        # Stacked and scalar roots occur, and so do multiple roots.
        assert 0 < len(scalar) < len(points)
        assert (mult[component == 1] > 2).any()
        assert_arrays_match(arrays, row_fibers(corr, points, backward=backward))
        for k, p in enumerate(points):
            alone = fiber_arrays_of(corr, [p], backward=backward)
            rows = owner == k
            assert alone[0].tolist() == [0] * int(rows.sum())
            for got, want in zip(alone[1:], arrays[1:]):
                assert got.dtype == want.dtype
                assert got.tobytes() == want[rows].tobytes()


#: 2 (w - z^2) + (w - z^3): linear in w, the first component of
#: multiplicity 2, tables of different shapes.
LINEAR_MULTIPLE_TEXT = "2\n0 1 1 0\n2 0 -1 0\n\n1\n0 1 1 0\n3 0 -1 0\n"


def linear_points():
    """Points in both charts, on the axes with signed zeros, at 0 and
    infinity, and over 1/1e-20, where z2's forward fiber polynomial has
    c_1 = 1e-40, under the 2 tol margin of the stacked solver."""
    rng = np.random.default_rng(43)
    inside = (rng.uniform(0.0, 0.99, 40)
              * np.exp(1j * rng.uniform(-math.pi, math.pi, 40))).tolist()
    points = ([SpherePoint.from_complex(z) for z in inside[:20]]
              + [SpherePoint.from_reciprocal(z) for z in inside[20:]])
    axes = [0.5, -0.5, 1.0, -1.0, complex(-0.0, 0.5), complex(-0.5, -0.0),
            complex(-0.0, -0.0)]
    points += [SpherePoint.from_complex(z) for z in axes]
    points += [SpherePoint.from_reciprocal(z) for z in axes]
    points += [SpherePoint.from_complex(0.0), SpherePoint.infinity(),
               SpherePoint.from_reciprocal(1e-20), SpherePoint.from_reciprocal(1e-13),
               SpherePoint.from_complex(1e-20)]
    return points


def count_calls(monkeypatch, name):
    """A list that grows by one at each call of ``correspondence.<name>``."""
    calls, real = [], getattr(correspondence, name)
    monkeypatch.setattr(correspondence, name,
                        lambda *args: calls.append(1) or real(*args))
    return calls


class TestLinearFiberStack:
    """fiber_arrays of correspondences whose components all have degree 1
    in the solved variable: one stack of every component over every point,
    against the scalar fibers, to the bit."""

    def check(self, corr, points, row_fibers):
        arrays = fiber_arrays_of(corr, points, backward=False)
        assert_arrays_match(arrays, [corr.forward_images(p) for p in points])
        assert_arrays_match(arrays, row_fibers(corr, points, backward=False))
        return arrays

    def test_multiplicity_two_component(self, row_fibers):
        corr = parse_correspondence(LINEAR_MULTIPLE_TEXT)
        _, mult, _, _, component, slot = self.check(corr, linear_points(), row_fibers)
        assert mult[component == 1].tolist() == [2] * int((component == 1).sum())
        assert mult[component == 2].tolist() == [1] * int((component == 2).sum())
        assert set(slot.tolist()) == {1}

    @pytest.mark.parametrize("name,products", [
        ("mobius", 1), ("z2", 1), ("mobius_pair", 1), ("z2_plus_z3", 2)])
    def test_one_stack_of_every_component(self, name, products, monkeypatch, row_fibers):
        # Tables of one shape side by side give one coefficient product;
        # z2_plus_z3's (3, 2) and (4, 2) tables take one each.  Either way
        # one stacked solve takes every component.
        corr = bundled_correspondence(name)
        charts = count_calls(monkeypatch, "_chart_product")
        solves = count_calls(monkeypatch, "stacked_roots")
        arrays = fiber_arrays_of(corr, linear_points(), backward=False)
        monkeypatch.undo()
        assert (len(charts), len(solves)) == (products, 1)
        for got, want in zip(arrays, self.check(corr, linear_points(), row_fibers)):
            assert got.tobytes() == want.tobytes()

    def test_declined_row_takes_scalar_roots(self, corr_z2, monkeypatch, row_fibers):
        points = [SpherePoint.from_complex(0.5), SpherePoint.from_reciprocal(1e-20),
                  SpherePoint.from_complex(2j)]
        coeffs = corr_z2.components[0].coeffs_in_w_charts(*chart_values(points))
        assert coeffs[1].tolist() == [-1.0, 1e-40]
        scalar = counting_scalar_roots(monkeypatch)
        arrays = fiber_arrays_of(corr_z2, points, backward=False)
        monkeypatch.undo()
        assert len(scalar) == 1
        for got, want in zip(arrays, self.check(corr_z2, points, row_fibers)):
            assert got.tobytes() == want.tobytes()
        _, _, root_values, root_inverted, _, _ = arrays
        assert SpherePoint.from_chart(root_values[1], root_inverted[1]).is_infinity

    def test_vanishing_component(self, corr_z2, row_fibers):
        # (w - 1)(z - 2): over x = 2 the second component's fiber
        # polynomial in w is zero, so that point has one branch.
        corr = vanishing_case(corr_z2)
        points = [SpherePoint.from_complex(2.0), SpherePoint.from_complex(3.0),
                  SpherePoint.infinity()]
        owner, _, _, _, component, _ = self.check(corr, points, row_fibers)
        assert owner.tolist() == [0, 1, 1, 2, 2]
        assert component.tolist() == [1, 1, 2, 1, 2]

    def test_non_convergence_names_the_component_and_point(self, corr_z2z3, monkeypatch):
        points = [SpherePoint.from_complex(0.5), SpherePoint.from_complex(0.25j),
                  SpherePoint.from_reciprocal(1e-20), SpherePoint.from_complex(3.0)]
        target = corr_z2z3.components[1].coeffs_in_w_charts(*chart_values(points[2:3]))[0]

        def failing(coeffs):
            if np.array_equal(coeffs, target):
                raise NonConvergence("stalled", iterations=17)
            return roots(coeffs)

        monkeypatch.setattr(correspondence, "roots", failing)
        with pytest.raises(NonConvergence) as caught:
            fiber_arrays_of(corr_z2z3, points, backward=False)
        assert str(caught.value) == (
            "forward fiber of component 2 over the point with chart value "
            "(1e-20+0j) and flag True: stalled")
        assert caught.value.iterations == 17

    @pytest.mark.parametrize("name", BUNDLED)
    def test_points_alone_give_their_rows(self, name):
        corr = bundled_correspondence(name)
        assert all(comp.deg_w == 1 for comp in corr.components)
        points = linear_points()
        arrays = fiber_arrays_of(corr, points, backward=False)
        owner = arrays[0]
        for k, p in enumerate(points):
            alone = fiber_arrays_of(corr, [p], backward=False)
            rows = owner == k
            assert alone[0].tolist() == [0] * int(rows.sum())
            for got, want in zip(alone[1:], arrays[1:]):
                assert got.dtype == want.dtype
                assert got.tobytes() == want[rows].tobytes()


class TestFixedPoints:
    def test_square_map_fixed_points(self, corr_z2):
        pts = corr_z2.fixed_points()
        # z^2 = z on the sphere: 0, 1 and infinity.
        total = sum(m for _, m in pts)
        assert total == 3
        for target in (SpherePoint.from_complex(0.0), SpherePoint.from_complex(1.0),
                       SpherePoint.infinity()):
            assert min(sph_dist(p, target) for p, _ in pts) < 1e-10


def object_loop_probe(corr, region, row_fibers):
    """Reference copy of expansivity_probe's branch loop over fiber
    objects, as it was before the probe read fiber arrays, on the pairs of
    distinct points: (lambda estimate, worst ratio, pairs used)."""
    pairs = []
    for x0, y0 in region:
        x0, y0 = as_sphere_point(x0), as_sphere_point(y0)
        d = sph_dist(x0, y0)
        if d > 0.0:
            pairs.append((x0, y0, d))
    worst = 0.0
    fibers_x = row_fibers(corr, [x0 for x0, _, _ in pairs])
    fibers_y = row_fibers(corr, [y0 for _, y0, _ in pairs])
    for (_, _, d), fx, fy in zip(pairs, fibers_x, fibers_y):
        by_symbol = {}
        for b in fy.branches:
            by_symbol.setdefault(b.component, []).append(b.point)
        for b in fx.branches:
            candidates = by_symbol.get(b.component, [])
            if not candidates:
                continue
            best = min(sph_dist(b.point, q) for q in candidates)
            worst = max(worst, best / d)
    return (math.inf if worst == 0.0 else 1.0 / worst), worst, len(pairs)


def two_call_probe(corr, region):
    """Reference copy of expansivity_probe as it was, with one
    ``fiber_arrays`` call for the x points and another for the y points."""
    pairs = []
    for x0, y0 in region:
        x0, y0 = as_sphere_point(x0), as_sphere_point(y0)
        d = sph_dist(x0, y0)
        if d > 0.0:
            pairs.append((x0, y0, d))
    xs = corr.fiber_arrays(*chart_values([x0 for x0, _, _ in pairs]), backward=True)
    ys = corr.fiber_arrays(*chart_values([y0 for _, y0, _ in pairs]), backward=True)
    width = corr.n_components + 1
    key_x, key_y = xs[0] * width + xs[4], ys[0] * width + ys[4]
    lo = np.searchsorted(key_y, key_x, side="left")
    count = np.searchsorted(key_y, key_x, side="right") - lo
    first = np.cumsum(count) - count
    xi = np.repeat(np.arange(len(key_x)), count)
    yj = np.arange(count.sum()) + np.repeat(lo - first, count)
    worst = 0.0
    if len(xi):
        dist = sph_dist((xs[2][xi], xs[3][xi]), (ys[2][yj], ys[3][yj]))
        has = count > 0
        best = np.minimum.reduceat(dist, first[has])
        gaps = np.array([d for _, _, d in pairs])
        worst = float((best / gaps[xs[0][has]]).max())
    if worst == 0.0:
        return ExpansivityResult(True, math.inf, len(pairs), 0.0)
    lam = 1.0 / worst
    return ExpansivityResult(lam > 1.0 + EXPANSIVITY_MARGIN, lam, len(pairs), worst)


class TestExpansivity:
    def circle_pairs(self, rng, n, gap=1e-3):
        pairs = []
        for _ in range(n):
            theta = rng.uniform(0, 2 * math.pi)
            x = cmath.exp(1j * theta)
            y = cmath.exp(1j * (theta + gap))
            pairs.append((SpherePoint.from_complex(x), SpherePoint.from_complex(y)))
        return pairs

    def test_square_map_is_expansive(self, corr_z2):
        # Oracle: |d sqrt / dz| = 1/2 on the unit circle, so lambda = 2.
        rng = np.random.default_rng(35)
        res = expansivity_probe(corr_z2, self.circle_pairs(rng, 100))
        assert res.is_expansive
        assert abs(res.lambda_estimate - 2.0) < 0.2

    def test_rotation_is_not_expansive(self, corr_mobius):
        rng = np.random.default_rng(36)
        res = expansivity_probe(corr_mobius, self.circle_pairs(rng, 50))
        assert not res.is_expansive
        assert abs(res.lambda_estimate - 1.0) < 0.05

    def check_object_loop(self, corr, region, row_fibers):
        res = expansivity_probe(corr, region)
        want = object_loop_probe(corr, region, row_fibers)
        assert (res.lambda_estimate, res.worst_ratio, res.pairs_used) == want
        return res

    @pytest.mark.parametrize("name", ["corr_z2", "corr_z2z3"])
    @pytest.mark.parametrize("gap", [1e-3, 0.3])
    def test_equals_object_loop(self, name, gap, request, row_fibers):
        # The wide gap makes other branches, of either component, near
        # rivals of the matching one.
        corr = request.getfixturevalue(name)
        region = self.circle_pairs(np.random.default_rng(43), 80, gap=gap)
        res = self.check_object_loop(corr, region, row_fibers)
        assert res.pairs_used == 80 and math.isfinite(res.lambda_estimate)

    def test_branches_without_candidates_skipped(self, corr_z2, row_fibers):
        # Over y0 = 1 the second component has no branch, so the x0
        # branch z = 2 of that component has no candidate and is skipped;
        # matched against the first component's branches +-1 instead, it
        # would set the worst ratio.
        corr = vanishing_case(corr_z2)
        region = [(SpherePoint.from_complex(1.0 + 0.01 * cmath.exp(0.4j * k)),
                   SpherePoint.from_complex(1.0)) for k in range(8)]
        region += self.circle_pairs(np.random.default_rng(44), 8)
        res = self.check_object_loop(corr, region, row_fibers)
        assert res.pairs_used == 16 and res.worst_ratio < 1.0

    def test_identical_preimages(self, row_fibers):
        # z (w - 1): every backward fiber off y = 1 is z = 0, so every
        # branch matches exactly.
        corr = Correspondence([BivarPoly(np.array([[0.0, 0.0], [-1.0, 1.0]]))])
        region = self.circle_pairs(np.random.default_rng(45), 6, gap=0.01)
        res = self.check_object_loop(corr, region, row_fibers)
        assert res.is_expansive and res.worst_ratio == 0.0
        assert res.lambda_estimate == math.inf

    @pytest.mark.parametrize("name", ["corr_z2", "corr_z3", "corr_z2z3",
                                      "corr_non_binomial"])
    @pytest.mark.parametrize("gap", [1e-3, 0.3])
    def test_equals_two_call_probe(self, name, gap, request):
        # Near and far pairs of random points in both charts, one pair at
        # distance zero (dropped) and one with infinity.
        corr = request.getfixturevalue(name)
        rng = np.random.default_rng(48)
        region = [(x, x * cmath.exp(1j * gap)) for x in
                  (10.0 ** rng.uniform(-1.5, 1.5, 60)
                   * np.exp(1j * rng.uniform(-math.pi, math.pi, 60))).tolist()]
        region += [(0.5 + 0.3j, 0.5 + 0.3j), (SpherePoint.infinity(), 40.0)]
        res = expansivity_probe(corr, region)
        assert res == two_call_probe(corr, region)
        assert res.pairs_used == 61

    def test_single_point_region(self, corr_z2):
        p = SpherePoint.from_complex(1.0)
        with pytest.raises(InsufficientPairs):
            expansivity_probe(corr_z2, [(p, p)])

    def test_every_pair_of_distinct_points_is_used(self, corr_z2, row_fibers):
        # Pairs at distance zero are dropped, however given; every other
        # pair is used, far ones (sqrt 2 and 2 apart) too.
        p = SpherePoint.from_complex(0.5)
        region = [(p, p), (0.5, 0.5 + 0j), (SpherePoint.infinity(), math.inf)]
        region += self.circle_pairs(np.random.default_rng(47), 5, gap=1e-3)
        region += [(1.0, 1.0j), (0.0, SpherePoint.infinity())]
        assert sph_dist(0.0, SpherePoint.infinity()) == 2.0
        res = self.check_object_loop(corr_z2, region, row_fibers)
        assert res.pairs_used == 7
        with pytest.raises(InsufficientPairs, match="no pair of distinct points"):
            expansivity_probe(corr_z2, region[:3])
        with pytest.raises(InsufficientPairs):
            expansivity_probe(corr_z2, [])
