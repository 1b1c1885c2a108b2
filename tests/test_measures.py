import itertools
import math

import numpy as np
import pytest

from corrdyn.correspondence import parse_correspondence
from corrdyn.errors import (IndexOutOfRange, NoValidCandidates, NotAPartition,
                            PushforwardMismatch)
from corrdyn.functions import (TestFunctionFamily as FunctionFamily,
                               default_test_family, fn_zero)
from corrdyn.grid import SphereGrid
from corrdyn.measures import (InvarianceReport, PathMeasure, SphereMeasure,
                              SpherePartition, VariationalEntry,
                              check_shift_invariance,
                              empirical_invariant_measure, intermediate_entropy,
                              join, joined_lift_masses,
                              measure_distance, measure_entropy,
                              partition_entropy, pushforward, total_variation,
                              variational_check)
from corrdyn.paths import ForwardPath, enumerate_forward_paths
from corrdyn.sphere import SpherePoint

IFS_PAIR_TEXT = """
# contracting pair w = z/2 and w = (z+1)/2
1
0 1 1 0
1 0 -0.5 0

1
0 1 1 0
1 0 -0.5 0
0 0 -0.5 0
"""


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(200)


@pytest.fixture(scope="module")
def corr_ifs():
    return parse_correspondence(IFS_PAIR_TEXT)


def sp(z):
    return SpherePoint.from_complex(z)


def bernoulli_cylinders(grid, cell, depth, p=0.5):
    """Exact Bernoulli symbol weights pinned at one position cell."""
    out = {}
    for word in itertools.product((1, 2), repeat=depth):
        w = 1.0
        for s in word:
            w *= p if s == 2 else (1.0 - p)
        out[tuple((cell, s) for s in word)] = w
    return out


def infinity_cell(grid):
    return grid.cell_index(SpherePoint.infinity())


class TestSphereMeasure:
    def test_mass_validation(self, grid):
        with pytest.raises(ValueError):
            SphereMeasure(grid, np.full(grid.n_cells, 1.0))

    def test_dirac_and_uniform(self, grid):
        d = SphereMeasure.dirac(grid, sp(0.5))
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-15)
        u = SphereMeasure.uniform(grid)
        assert u.integrate(lambda p: 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, grid, bad):
        with pytest.raises(ValueError):
            SphereMeasure(grid, np.full(grid.n_cells, bad))
        w = np.full(grid.n_cells, 1.0 / grid.n_cells)
        w[3] = bad
        with pytest.raises(ValueError):
            SphereMeasure(grid, w)


class TestPathMeasure:
    def test_from_paths_folds_paths_into_words(self, grid):
        a = ForwardPath((sp(2.0), sp(4.0), sp(16.0)), (1, 2), (1, 1))
        b = ForwardPath((sp(0.5), sp(0.25), sp(0.0625)), (2, 2), (1, 1))
        mu = PathMeasure.from_paths(grid, [a, b, a], [0.5, 0.3, 0.2])
        cell = grid.cell_index
        word_a = ((cell(sp(2.0)), 1), (cell(sp(4.0)), 2))
        word_b = ((cell(sp(0.5)), 2), (cell(sp(0.25)), 2))
        assert mu.depth == 2
        assert mu.cylinders == {word_a: 0.5 + 0.2, word_b: 0.3}

    def test_from_paths_checks(self, grid):
        a = ForwardPath((sp(2.0), sp(4.0)), (1,), (1,))
        longer = ForwardPath((sp(2.0), sp(4.0), sp(16.0)), (1, 1), (1, 1))
        with pytest.raises(ValueError):
            PathMeasure.from_paths(grid, [])
        with pytest.raises(ValueError):
            PathMeasure.from_paths(grid, [a, longer])
        with pytest.raises(ValueError):
            PathMeasure.from_paths(grid, [a], [0.5, 0.5])
        with pytest.raises(ValueError):
            PathMeasure.from_paths(grid, [a, a], [1.5, -0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_cylinder_weights(self, grid, bad):
        with pytest.raises(ValueError):
            PathMeasure.from_cylinders(grid, {((0, 1),): bad})
        with pytest.raises(ValueError):
            PathMeasure.from_cylinders(grid, {((0, 1),): 1.0, ((1, 1),): bad})
        a = ForwardPath((sp(2.0), sp(4.0)), (1,), (1,))
        with pytest.raises(ValueError):
            PathMeasure.from_paths(grid, [a], [bad])

    def test_pushforward_stops_before_depth(self, grid):
        path = ForwardPath((sp(2.0), sp(4.0), sp(16.0)), (1, 1), (1, 1))
        mu = PathMeasure.from_paths(grid, [path])
        assert pushforward(mu, 1).weights[grid.cell_index(sp(4.0))] == 1.0
        with pytest.raises(IndexOutOfRange):
            pushforward(mu, mu.depth)


class TestPushforward:
    def test_dirac_path(self, grid):
        path = ForwardPath((sp(2.0), sp(4.0), sp(16.0)), (1, 1), (1, 1))
        mu = PathMeasure.from_paths(grid, [path])
        nu = pushforward(mu, 0)
        assert nu.weights[grid.cell_index(sp(2.0))] == 1.0
        with pytest.raises(IndexOutOfRange):
            pushforward(mu, 3)

    def test_invariant_cylinders_have_stationary_marginals(self, grid):
        cyl = bernoulli_cylinders(grid, infinity_cell(grid), depth=3)
        mu = PathMeasure.from_cylinders(grid, cyl)
        nu0 = pushforward(mu, 0)
        nu1 = pushforward(mu, 1)
        assert total_variation(nu0, nu1) < 1e-14

    def test_ifs_marginal_matches_kernel_stationary_vector(self, corr_ifs):
        # Oracle: build the two-map cell kernel directly from the maps and
        # power-iterate it with numpy.
        fine = SphereGrid(800)
        mu = empirical_invariant_measure(corr_ifs, 0.3, n_burn=50, n_keep=20000,
                                         depth=2, seed=3, grid=fine)
        nu = pushforward(mu, 0)
        maps = [lambda z: 0.5 * z, lambda z: 0.5 * (z + 1.0)]
        kernel = np.zeros((fine.n_cells, fine.n_cells))
        for idx in range(fine.n_cells):
            c = fine.cell_center(idx)
            if c.is_infinity:
                continue
            z = c.to_complex()
            for m in maps:
                kernel[idx, fine.cell_index(sp(m(z)))] += 0.5
        vec = np.full(fine.n_cells, 1.0 / fine.n_cells)
        for _ in range(400):
            vec = vec @ kernel
            s = vec.sum()
            if s > 0:
                vec /= s
        oracle = SphereMeasure(fine, vec)
        assert measure_distance(nu, oracle) < 0.05


class TestMeasureDistance:
    def test_identical(self, grid):
        u = SphereMeasure.uniform(grid)
        assert measure_distance(u, u) == 0.0

    def test_antipodal_diracs_single_function(self, grid):
        north = SphereMeasure.dirac(grid, SpherePoint.infinity())
        south = SphereMeasure.dirac(grid, sp(0.0))
        f = lambda p: 0.5 * float(np.linalg.norm(p.unit_vector() - np.array([0, 0, 1.0])))
        fam = FunctionFamily((f,), ("halfdist",))
        got = measure_distance(north, south, fam)
        fn = north.integrate(f)
        fs = south.integrate(f)
        assert got == pytest.approx(0.5 * abs(fn - fs), abs=1e-15)

    def test_empty_family_rejected(self, grid):
        from corrdyn.errors import FamilyEmpty
        u = SphereMeasure.uniform(grid)
        with pytest.raises(FamilyEmpty):
            measure_distance(u, u, FunctionFamily((), ()))

    def test_matches_direct_summation(self):
        grid = SphereGrid(100)
        rng = np.random.default_rng(51)
        w = rng.random(grid.n_cells)
        w /= w.sum()
        m1 = SphereMeasure(grid, w)
        m2 = SphereMeasure.dirac(grid, sp(0.3 + 0.2j))
        fam = default_test_family()
        expected = 0.0
        for k, f in enumerate(fam.functions):
            s1 = sum(w[i] * f(grid.cell_center(i)) for i in range(grid.n_cells))
            s2 = f(grid.cell_center(grid.cell_index(sp(0.3 + 0.2j))))
            expected += 0.5 ** (k + 1) * abs(s1 - s2)
        assert measure_distance(m1, m2) == pytest.approx(expected, abs=1e-14)


class TestEmpiricalMeasure:
    def test_mobius_pair_bernoulli_weights(self, grid, corr_pair):
        mu = empirical_invariant_measure(corr_pair, 1.0, n_burn=100, n_keep=20000,
                                         depth=2, seed=7, grid=grid)
        # Symbol pair marginals should be near the uniform Bernoulli 1/4.
        sym_mass = {}
        for key, w in mu.cylinders.items():
            word = tuple(s for _, s in key)
            sym_mass[word] = sym_mass.get(word, 0.0) + w
        for word in itertools.product((1, 2), repeat=2):
            assert sym_mass[word] == pytest.approx(0.25, abs=0.02)

    def test_square_map_concentrates_on_circle(self, grid, corr_z2):
        # Doubling dynamics: a short window keeps the float orbit pinned to
        # the unit circle before the radial drift blows up.
        x0 = sp(np.exp(1j * 0.7381))
        mu = empirical_invariant_measure(corr_z2, x0, n_burn=3, n_keep=25,
                                         depth=1, seed=11, grid=grid)
        nu = pushforward(mu, 0)
        mass_near = 0.0
        for idx in np.nonzero(nu.weights)[0]:
            c = grid.cell_center(int(idx))
            if abs(c.magnitude() - 1.0) < 0.2:
                mass_near += nu.weights[idx]
        assert mass_near > 0.99

    def test_degenerate_retry_stays_in_chart(self):
        # (z - 2)(w - z): the forward fiber of 2 collapses, every other
        # point is fixed.  The retry nudge must move 2 by about 1e-9 in its
        # own (reciprocal) chart, not jump to 1/2.
        corr = parse_correspondence("1\n1 1 1 0\n2 0 -1 0\n0 1 -2 0\n1 0 2 0\n")
        grid = SphereGrid(400)
        mu = empirical_invariant_measure(corr, 2.0, n_burn=5, n_keep=20,
                                         depth=1, seed=0, grid=grid)
        nu = pushforward(mu, 0)
        # 2 sits on a sector boundary, so allow the neighbouring cells.
        near = grid.dilate({grid.cell_index(sp(2.0))})
        assert sum(nu.weights[c] for c in near) == pytest.approx(1.0)

    def test_precondition(self, grid, corr_pair):
        with pytest.raises(ValueError):
            empirical_invariant_measure(corr_pair, 1.0, n_burn=0, n_keep=1,
                                        depth=2, grid=grid)


class TestShiftInvariance:
    def test_exact_bernoulli(self, grid):
        mu = PathMeasure.from_cylinders(grid, bernoulli_cylinders(grid, 3, 3))
        report = check_shift_invariance(mu, tol=1e-12)
        assert isinstance(report, InvarianceReport)
        assert report.defect == 0.0
        assert report.passed

    def test_hand_perturbed_weights(self, grid):
        cyl = bernoulli_cylinders(grid, 3, 2)
        cyl[((3, 1), (3, 2))] += 0.01
        total = sum(cyl.values())
        cyl = {k: v / total for k, v in cyl.items()}
        report = check_shift_invariance(PathMeasure.from_cylinders(grid, cyl), tol=1e-3)
        assert report.defect >= 0.005
        assert not report.passed

    def test_empirical_defect_small(self, grid, corr_pair):
        mu = empirical_invariant_measure(corr_pair, 1.0, n_burn=100, n_keep=20000,
                                         depth=3, seed=13, grid=grid)
        report = check_shift_invariance(mu, tol=0.02)
        assert report.passed

    def test_stationarity_of_pushforwards(self, grid, corr_ifs):
        mu = empirical_invariant_measure(corr_ifs, 0.2, n_burn=100, n_keep=20000,
                                         depth=2, seed=17, grid=grid)
        defect = check_shift_invariance(mu, tol=0.02).defect
        gap = measure_distance(pushforward(mu, 0), pushforward(mu, 1))
        assert gap <= 10.0 * max(defect, 1e-4)


class TestPartitions:
    def test_partition_entropy_closed_forms(self, grid):
        parts = SpherePartition.sectors(grid, 1, 4)
        # Uniform over the 4 sector masses would need equal masses; build
        # a measure charging one cell per sector equally.
        w = np.zeros(grid.n_cells)
        for group in parts.cells:
            w[min(group)] = 0.25
        m = SphereMeasure(grid, w)
        assert partition_entropy(m, parts) == pytest.approx(math.log(4), abs=1e-12)
        dirac = SphereMeasure.dirac(grid, sp(0.4))
        assert partition_entropy(dirac, SpherePartition.trivial(grid)) == 0.0

    def test_half_quarter_quarter(self, grid):
        parts = SpherePartition.sectors(grid, 1, 4)
        w = np.zeros(grid.n_cells)
        masses = [0.5, 0.25, 0.25, 0.0]
        for group, m in zip(parts.cells, masses):
            w[min(group)] = m
        h = partition_entropy(SphereMeasure(grid, w), parts)
        assert h == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_join_idempotent_and_identity(self, grid):
        p = SpherePartition.sectors(grid, 2, 2)
        assert join(p, p).size == p.size
        assert join(p, SpherePartition.trivial(grid)).size == p.size

    def test_join_general_position(self, grid):
        a = SpherePartition.sectors(grid, 2, 1)
        b = SpherePartition.sectors(grid, 1, 2)
        j = join(a, b)
        assert j.size <= 4
        # Exhaustive: every joint cell is an intersection of parents.
        for group in j.cells:
            assert any(group <= ga for ga in a.cells)
            assert any(group <= gb for gb in b.cells)

    def test_join_monotone_entropy(self, grid):
        rng = np.random.default_rng(53)
        w = rng.random(grid.n_cells)
        w /= w.sum()
        m = SphereMeasure(grid, w)
        a = SpherePartition.sectors(grid, 3, 1)
        b = SpherePartition.sectors(grid, 1, 3)
        hj = partition_entropy(m, join(a, b))
        assert hj >= partition_entropy(m, a) - 1e-12
        assert hj >= partition_entropy(m, b) - 1e-12

    def test_not_a_partition(self, grid):
        with pytest.raises(NotAPartition):
            SpherePartition(grid, (frozenset({0, 1}),), ("incomplete",))

    def test_lifted_partition_sizes(self, grid):
        # A depth-1 cylinder measure charging every (cell group, symbol)
        # pair has one lifted mass per pair.
        trivial = SpherePartition.trivial(grid)
        two = SpherePartition.sectors(grid, 1, 2)
        for q, n_symbols in ((trivial, 2), (two, 1), (two, 2)):
            words = [((min(group), s),) for group in q.cells
                     for s in range(1, n_symbols + 1)]
            mu = PathMeasure.from_cylinders(
                grid, {w: 1.0 / len(words) for w in words})
            assert len(joined_lift_masses(mu, q, 1)) == q.size * n_symbols

    def test_lift_occupancies_match_brute_classification(self, grid, corr_pair):
        paths, _ = enumerate_forward_paths(corr_pair, 0.25, 2, cap=16)
        mu = PathMeasure.from_paths(grid, paths)
        q = SpherePartition.sectors(grid, 1, 2)
        masses = sorted(joined_lift_masses(mu, q, 1))
        label = q.label_of_cell()
        brute = {}
        for p in paths:
            key = (int(label[grid.cell_index(p.points[0])]), p.symbols[0])
            brute[key] = brute.get(key, 0.0) + 1.0 / len(paths)
        np.testing.assert_allclose(masses, sorted(brute.values()), atol=1e-12)


class TestEntropies:
    def test_full_shift_rate_is_log2(self, grid):
        mu = PathMeasure.from_cylinders(grid, bernoulli_cylinders(grid, infinity_cell(grid), 4))
        nu = pushforward(mu, 0)
        h = intermediate_entropy(nu, mu, [SpherePartition.trivial(grid)], n_max=4)
        assert h == pytest.approx(math.log(2), abs=1e-12)

    def test_dirac_path_rate_zero(self, grid):
        path = ForwardPath((sp(0.0), sp(0.0), sp(0.0)), (1, 1), (1, 1))
        mu = PathMeasure.from_paths(grid, [path])
        nu = pushforward(mu, 0)
        h = intermediate_entropy(nu, mu, [SpherePartition.sectors(grid, 2, 2)], n_max=2)
        assert h == 0.0

    def test_single_symbol_multi_start_rate_zero(self, grid, corr_mobius):
        # Randomness only in the start point: increments must vanish.
        starts = [np.exp(1j * t) for t in (0.1, 1.3, 2.9, 4.2)]
        paths = []
        for s in starts:
            got, _ = enumerate_forward_paths(corr_mobius, s, 3)
            paths.extend(got)
        mu = PathMeasure.from_paths(grid, paths)
        nu = pushforward(mu, 0)
        h = intermediate_entropy(nu, mu, [SpherePartition.sectors(grid, 1, 8)],
                                 n_max=3)
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_rate_increments_non_increasing_for_bernoulli(self, grid):
        from corrdyn.measures import entropy_rate_sequence
        mu = PathMeasure.from_cylinders(
            grid, bernoulli_cylinders(grid, infinity_cell(grid), 5, p=0.3))
        hs = entropy_rate_sequence(mu, SpherePartition.trivial(grid), 5)
        increments = [hs[0]] + [b - a for a, b in zip(hs, hs[1:])]
        for a, b in zip(increments, increments[1:]):
            assert b <= a + 1e-10

    def test_pushforward_mismatch_raises(self, grid):
        mu = PathMeasure.from_cylinders(grid, bernoulli_cylinders(grid, infinity_cell(grid), 3))
        wrong = SphereMeasure.dirac(grid, sp(0.0))
        with pytest.raises(PushforwardMismatch):
            intermediate_entropy(wrong, mu, [SpherePartition.trivial(grid)], 3)

    def test_measure_entropy_full_shift(self, grid):
        mu = PathMeasure.from_cylinders(grid, bernoulli_cylinders(grid, infinity_cell(grid), 4))
        nu = pushforward(mu, 0)
        h = measure_entropy(nu, [mu], [SpherePartition.trivial(grid)], 4)
        assert h == pytest.approx(math.log(2), abs=1e-12)

    def test_measure_entropy_no_candidates(self, grid):
        nu = SphereMeasure.dirac(grid, sp(0.0))
        with pytest.raises(NoValidCandidates):
            measure_entropy(nu, [], [SpherePartition.trivial(grid)], 3)

    def test_convexity_of_pushforward(self, grid):
        c1 = bernoulli_cylinders(grid, infinity_cell(grid), 3, p=0.5)
        c2 = bernoulli_cylinders(grid, infinity_cell(grid), 3, p=0.2)
        lam = 0.3
        mix = {k: lam * c1.get(k, 0.0) + (1 - lam) * c2.get(k, 0.0)
               for k in set(c1) | set(c2)}
        mu_mix = PathMeasure.from_cylinders(grid, mix)
        pf_mix = pushforward(mu_mix, 0)
        pf1 = pushforward(PathMeasure.from_cylinders(grid, c1), 0)
        pf2 = pushforward(PathMeasure.from_cylinders(grid, c2), 0)
        blend = lam * pf1.weights + (1 - lam) * pf2.weights
        np.testing.assert_allclose(pf_mix.weights, blend, atol=1e-12)


class TestVariational:
    def test_full_shift_gap_near_zero(self, grid):
        mu = PathMeasure.from_cylinders(grid, bernoulli_cylinders(grid, infinity_cell(grid), 4))
        nu = pushforward(mu, 0)
        entry = VariationalEntry("bernoulli", nu, (mu,))
        report = variational_check(fn_zero, [entry], math.log(2), n_max=4)
        assert report.all_within
        assert abs(report.best_gap) < 1e-9

    def test_constant_shifts_value(self, grid):
        mu = PathMeasure.from_cylinders(grid, bernoulli_cylinders(grid, infinity_cell(grid), 3))
        nu = pushforward(mu, 0)
        entry = VariationalEntry("bernoulli", nu, (mu,))
        base = variational_check(fn_zero, [entry], 2.0, n_max=3)
        shifted = variational_check(lambda p: 0.4, [entry], 2.0, n_max=3)
        assert shifted.rows[0].value == pytest.approx(base.rows[0].value + 0.4, abs=1e-12)

    def test_dirac_at_fixed_point(self, grid):
        path = ForwardPath((sp(0.0), sp(0.0)), (1,), (1,))
        mu = PathMeasure.from_paths(grid, [path])
        nu = pushforward(mu, 0)
        entry = VariationalEntry("dirac0", nu, (mu,))
        report = variational_check(fn_zero, [entry], math.log(2), n_max=1)
        assert report.rows[0].value == 0.0
        assert report.rows[0].within
