import math

import numpy as np
import pytest

from corrdyn.correspondence import Correspondence, Fiber
from corrdyn.errors import (DegenerateStart, DegreeConditionError, IndexOutOfRange,
                            NotConverged)
from corrdyn.grid import SphereGrid
from corrdyn.measures import SphereMeasure, measure_distance
from corrdyn.paths import shift
from corrdyn.pullback import (MAX_RESAMPLE, check_backward_invariance, ds_support,
                              invariant_forward_paths, pullback_iterate)
from corrdyn.sphere import SpherePoint, sph_dist


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(1000)


@pytest.fixture(scope="module")
def z2_levels(grid, corr_z2):
    return pullback_iterate(corr_z2, 0.5 + 0.3j, n=12, cap=8192, seed=41, grid=grid)


def circle_mass(measure, tol=0.1):
    total = 0.0
    for idx in np.nonzero(measure.weights)[0]:
        c = measure.grid.cell_center(int(idx))
        if abs(c.magnitude() - 1.0) < tol:
            total += measure.weights[idx]
    return total


class TestPullback:
    def test_requires_degree_gap(self, grid, corr_mobius):
        with pytest.raises(DegreeConditionError):
            pullback_iterate(corr_mobius, 0.4, n=3, cap=8192, seed=None, grid=grid)

    def test_mass_conservation(self, z2_levels):
        for level in z2_levels:
            assert level.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_mass_conservation_with_critical_fiber(self, grid, corr_z2):
        # Start near zero: early fibers pass close to the critical point.
        levels = pullback_iterate(corr_z2, 1e-4 + 0j, n=6, cap=4096, seed=43,
                                  grid=grid)
        for level in levels:
            assert level.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_equidistribution_radii(self, grid, corr_z2, z2_levels):
        # Oracle: k-th preimages of x0 sit at radius |x0|^(1/2^k).
        final = z2_levels[-1]
        expected_radius = abs(0.5 + 0.3j) ** (1.0 / 2 ** 12)
        assert abs(expected_radius - 1.0) < 1e-3
        # Cell centers sit up to half a band height off the circle.
        band = math.sqrt(4 * math.pi / grid.n_cells)
        assert circle_mass(final, tol=band) >= 0.99

    def test_start_independence(self, grid, corr_z2, z2_levels):
        other = pullback_iterate(corr_z2, -0.4 + 0.8j, n=12, cap=8192, seed=44,
                                 grid=grid)
        assert measure_distance(z2_levels[-1], other[-1]) <= 0.02

    def test_convergence_certificate(self, z2_levels):
        gaps = [measure_distance(a, b) for a, b in zip(z2_levels, z2_levels[1:])]
        assert gaps[-1] <= 0.01
        # Eventually non-increasing: compare the late-stage tail.
        for a, b in zip(gaps[6:], gaps[7:]):
            assert b <= a + 0.01

    def test_degenerate_start_resampled(self, grid, corr_z2):
        # Backward fiber of 0 is the double root at 0; the start must move.
        levels = pullback_iterate(corr_z2, 0.0, n=4, cap=512, seed=45, grid=grid)
        assert levels[0].weights.sum() == pytest.approx(1.0, abs=1e-12)
        cell_zero = grid.cell_index(SpherePoint.from_complex(0.0))
        assert levels[-1].weights[cell_zero] < 0.5

    def test_persistently_degenerate_start_raises(self, grid, corr_z2, monkeypatch):
        # The start and each of its MAX_RESAMPLE re-samples get one fiber.
        starts = []

        def degenerate(self, y):
            starts.append(y)
            return Fiber((), degenerate=True)
        monkeypatch.setattr(Correspondence, "backward_images", degenerate)
        with pytest.raises(DegenerateStart,
                           match=f"no generic start found after {MAX_RESAMPLE} re-samples"):
            pullback_iterate(corr_z2, 0.5 + 0.3j, n=4, cap=8192, seed=3, grid=grid)
        assert len(starts) == 1 + MAX_RESAMPLE
        assert len({(p.value, p.inverted) for p in starts}) == len(starts)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected_before_any_solve(self, grid, corr_z2, cap,
                                                     monkeypatch):
        # A cap of 0 died in the thinning with a ZeroDivisionError.
        def refuse(*args, **kwargs):
            raise AssertionError("a fiber was solved before the cap check")

        monkeypatch.setattr(Correspondence, "backward_images", refuse)
        monkeypatch.setattr(Correspondence, "fiber_arrays", refuse)
        with pytest.raises(ValueError, match=f"cap must be at least 1, got {cap}"):
            pullback_iterate(corr_z2, 0.5 + 0.3j, n=4, cap=cap, seed=3, grid=grid)

    def test_thinning_respects_cap_and_mass(self, grid, corr_z2):
        levels = pullback_iterate(corr_z2, 0.7 + 0.1j, n=9, cap=100, seed=46,
                                  grid=grid)
        for level in levels:
            assert level.weights.sum() == pytest.approx(1.0, abs=1e-10)


def list_thin(points, weights, cap, rng):
    """Reference copy of the list form of the systematic thinning."""
    perm = rng.permutation(len(points))
    total = float(weights.sum())
    targets = (rng.uniform(0.0, 1.0) + np.arange(cap)) / cap * total
    cum = np.cumsum(weights[perm])
    idx = np.minimum(np.searchsorted(cum, targets, side="right"), len(points) - 1)
    return [points[int(perm[i])] for i in idx], np.full(cap, total / cap)


def scalar_levels(corr, x0, n, cap, seed, grid, fibers=None):
    """Reference copy of the pullback level loop: one scalar fiber per
    particle (or the ``fibers`` of each level's point list) and one scalar
    cell lookup per particle."""
    fibers = fibers or (lambda points: [corr.backward_images(p) for p in points])

    def measure(points, weights):
        w = np.zeros(grid.n_cells)
        for p, wt in zip(points, weights):
            w[grid.cell_index(p)] += wt
        return w

    rng = np.random.default_rng(seed)
    points = [SpherePoint.from_complex(x0)]
    assert not corr.backward_images(points[0]).degenerate
    weights = np.array([1.0])
    levels = [measure(points, weights)]
    for _ in range(n):
        nxt_points, nxt_weights = [], []
        for w, fiber in zip(weights, fibers(points)):
            for b in fiber.branches:
                nxt_points.append(b.point)
                nxt_weights.append(w * b.multiplicity / corr.d_top)
        points, weights = nxt_points, np.asarray(nxt_weights)
        if len(points) > cap:
            points, weights = list_thin(points, weights, cap, rng)
        levels.append(measure(points, weights))
    return levels


class TestBatchedLevels:
    @pytest.mark.parametrize("name,n", [("corr_z2", 9), ("corr_z3", 6),
                                        ("corr_z2z3", 5)])
    def test_level_weights_identical_to_scalar_loop(self, grid, name, n, request):
        corr = request.getfixturevalue(name)
        cap = 300  # below d_top^n, so every run thins its deepest levels
        levels = pullback_iterate(corr, 0.5 + 0.3j, n=n, cap=cap, seed=47, grid=grid)
        reference = scalar_levels(corr, 0.5 + 0.3j, n, cap, 47, grid)
        assert corr.d_top ** n > cap
        assert len(levels) == len(reference)
        for level, ref in zip(levels, reference):
            assert np.array_equal(level.weights, ref)

    @pytest.mark.parametrize("name,n,start,cap", [
        # Real preimages of a real start give roots at argument pi, which
        # the scalar root fallback solves.
        ("corr_z2", 9, 0.5 + 0j, 300),
        ("corr_z2z3", 5, 0.5 + 0j, 300),
        # 3^4 = 81 particles at the deepest level: no level is thinned.
        ("corr_z3", 4, 0.5 + 0.3j, 100),
    ])
    def test_real_start_and_unthinned_levels(self, grid, name, n, start, cap,
                                             request, row_fibers):
        # The reference solves each level with the row_fibers oracle: the
        # scalar solver's real roots can differ from the stacked solver's
        # in the sign of a tiny imaginary part, and a real point sits on a
        # sector boundary, so the two solvers can bin it differently.
        corr = request.getfixturevalue(name)
        levels = pullback_iterate(corr, start, n=n, cap=cap, seed=48, grid=grid)
        reference = scalar_levels(corr, start, n, cap, 48, grid,
                                  fibers=lambda points: row_fibers(corr, points))
        assert (corr.d_top ** n > cap) == (start.imag == 0)
        assert len(levels) == len(reference)
        for level, ref in zip(levels, reference):
            assert np.array_equal(level.weights, ref)


class TestSupport:
    def test_band_support(self, grid, z2_levels):
        result = ds_support(z2_levels, threshold=0.5, cert_bound=0.05)
        assert result.certificate <= 0.05
        assert result.core <= result.cells
        band = math.sqrt(4 * math.pi / grid.n_cells)
        for cell in result.cells:
            c = grid.cell_center(cell)
            assert abs(c.magnitude() - 1.0) < 6 * band

    def test_uniform_threshold_zero(self, grid):
        uniform = SphereMeasure.uniform(grid)
        result = ds_support([uniform, uniform], threshold=0.0, cert_bound=0.05)
        assert result.cells == frozenset(range(grid.n_cells))

    def test_not_converged(self, grid):
        a = SphereMeasure.dirac(grid, SpherePoint.from_complex(0.0))
        b = SphereMeasure.dirac(grid, SpherePoint.infinity())
        with pytest.raises(NotConverged):
            ds_support([a, b], threshold=0.5, cert_bound=0.05)

    @pytest.mark.parametrize("key", ["threshold", "cert_bound"])
    def test_nan_bound_rejected(self, grid, key):
        # Nothing compares above NaN: a NaN cert_bound let these levels,
        # 2 apart, pass the gate, and a NaN threshold gave an empty core.
        a = SphereMeasure.dirac(grid, SpherePoint.from_complex(0.0))
        b = SphereMeasure.dirac(grid, SpherePoint.infinity())
        with pytest.raises(ValueError, match=f"{key} must be a number, got nan"):
            ds_support([a, b], **{"threshold": 0.5, "cert_bound": 0.05, key: math.nan})


def object_loop_invariance(corr, omega, grid, samples, seed, row_fibers):
    """Reference copy of check_backward_invariance's loop over fiber
    objects, as it was before the check read fiber arrays: (violations,
    total), one scalar cell lookup per branch point."""
    rng = np.random.default_rng(seed)
    dilated = grid.dilate(omega)
    cells = sorted(omega)
    picks = rng.integers(0, len(cells), size=samples)
    starts = [grid.cell_center(cells[int(pick)]) for pick in picks]
    violations = total = 0
    for fiber in row_fibers(corr, starts):
        for b in fiber.branches:
            total += 1
            if grid.cell_index(b.point) not in dilated:
                violations += 1
    return violations, total


class TestBackwardInvariance:
    @pytest.mark.parametrize("name,where,samples,seed", [
        ("corr_z2", "support", 64, 47), ("corr_z2z3", "support", 40, 50),
        # A lone cell off the circle: its preimages fall outside.
        ("corr_z2", "far", 16, 48)])
    def test_counts_equal_object_loop(self, grid, z2_levels, name, where, samples,
                                      seed, request, row_fibers):
        corr = request.getfixturevalue(name)
        omega = (ds_support(z2_levels, threshold=0.5,
                            cert_bound=0.05).cells if where == "support"
                 else {grid.cell_index(SpherePoint.from_complex(4.0))})
        report = check_backward_invariance(corr, omega, grid, samples=samples,
                                           seed=seed)
        want = object_loop_invariance(corr, omega, grid, samples, seed, row_fibers)
        assert (report.violations, report.total) == want
        assert (report.violations > 0) == (where == "far")

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_must_be_positive(self, grid, corr_z2, samples):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            check_backward_invariance(corr_z2, {0}, grid, samples=samples, seed=None)

    def test_cells_outside_the_grid(self, grid, corr_z2):
        with pytest.raises(IndexOutOfRange):
            check_backward_invariance(corr_z2, [grid.n_cells], grid, samples=8,
                                      seed=None)

    def test_circle_band_passes(self, grid, corr_z2, z2_levels):
        result = ds_support(z2_levels, threshold=0.5, cert_bound=0.05)
        report = check_backward_invariance(corr_z2, result.cells, grid,
                                           samples=64, seed=47)
        assert report.passed

    def test_off_circle_cell_fails(self, grid, corr_z2):
        # Preimages of a radius-4 point sit at radius 2, far outside the
        # dilation ring of a single off-circle cell.
        cell = grid.cell_index(SpherePoint.from_complex(4.0))
        report = check_backward_invariance(corr_z2, {cell}, grid, samples=16,
                                           seed=48)
        assert not report.passed
        assert report.violations > 0

    def test_whole_sphere_trivially_passes(self, grid, corr_z2):
        report = check_backward_invariance(corr_z2, range(grid.n_cells), grid,
                                           samples=16, seed=49)
        assert report.passed


class TestInvariantPaths:
    def test_doubling_stays_on_circle(self, grid, corr_z2, z2_levels):
        result = ds_support(z2_levels, threshold=0.5, cert_bound=0.05)
        x0 = SpherePoint.from_complex(np.exp(1j * 0.83))
        paths = invariant_forward_paths(corr_z2, result.cells, x0, n=10,
                                        cap=8, seed=50, grid=grid)
        assert len(paths) >= 1
        for p in paths:
            for point in p.points:
                assert abs(point.magnitude() - 1.0) < 0.05

    def test_isolated_cell_has_no_invariant_path(self, grid, corr_z2):
        cell = grid.cell_index(SpherePoint.from_complex(0.5))
        x0 = grid.cell_center(cell)
        paths = invariant_forward_paths(corr_z2, {cell}, x0, n=6, cap=8,
                                        seed=51, grid=grid)
        assert paths == []

    def test_whole_sphere_gives_full_tree(self, grid, corr_pair):
        omega = frozenset(range(grid.n_cells))
        paths = invariant_forward_paths(corr_pair, omega, 0.3, n=4, cap=1000,
                                        seed=52, grid=grid)
        assert len(paths) == 2 ** 4

    def test_shift_of_invariant_path_still_qualifies(self, grid, corr_z2, z2_levels):
        result = ds_support(z2_levels, threshold=0.5, cert_bound=0.05)
        x0 = SpherePoint.from_complex(np.exp(1j * 2.2))
        paths = invariant_forward_paths(corr_z2, result.cells, x0, n=8, cap=4,
                                        seed=53, grid=grid)
        dilated = grid.dilate(result.cells)
        for p in paths:
            assert all(grid.cell_index(q) in dilated for q in shift(p).points)

    @pytest.mark.parametrize("n,cap,message", [
        # A negative depth is never reached: the search ran without end.
        (-1, 8, "n must be >= 0, got -1"),
        # No path at all is the signal of an under-approximated omega.
        (4, 0, "cap must be at least 1, got 0"),
        (4, -2, "cap must be at least 1, got -2")])
    def test_depth_and_cap_checked_before_the_search(self, grid, corr_z2z3, n, cap,
                                                     message, monkeypatch):
        def refuse(self, x):
            raise AssertionError("forward fiber solved")

        monkeypatch.setattr(Correspondence, "forward_images", refuse)
        circle = {grid.cell_index(SpherePoint.from_complex(np.exp(1j * t)))
                  for t in np.linspace(0.0, 2.0 * np.pi, 2000)}
        x0 = SpherePoint.from_complex(np.exp(0.3j))
        with pytest.raises(ValueError, match=message):
            invariant_forward_paths(corr_z2z3, circle, x0, n=n, cap=cap, seed=54,
                                    grid=grid)
