import functools
import itertools
import math
import operator
import struct

import numpy as np
import pytest

from corrdyn import measures as measures_mod
from corrdyn import transfer as transfer_mod
from corrdyn.correspondence import parse_correspondence
from corrdyn.datasets import bundled_correspondence
from corrdyn.errors import (IndexOutOfRange, NoValidCandidates, NotAPartition,
                            PushforwardMismatch, TrajectoryEscape)
from corrdyn.functions import (TestFunctionFamily as FunctionFamily,
                               default_test_family, fn_zero, named_function)
from corrdyn.grid import SphereGrid
from corrdyn.measures import (InvarianceReport, PathMeasure, SphereMeasure,
                              SpherePartition, VariationalEntry,
                              check_shift_invariance,
                              empirical_invariant_measure, entropy_rate_sequence,
                              intermediate_entropy, join, joined_lift_masses,
                              measure_distance, measure_entropy,
                              partition_entropy, pushforward, total_variation,
                              variational_check)
from corrdyn.paths import ForwardPath, enumerate_forward_paths
from corrdyn.pullback import ds_support, pullback_iterate
from corrdyn.sphere import SpherePoint, as_sphere_point, chart_unit_vectors, chart_values
from corrdyn.transfer import (ActiveGrid, GridFunction, TransferKernel,
                              adjoint_fixed_point, normalize, power_iteration)

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


def at(f, point) -> float:
    """f at one point."""
    return float(f(*chart_values([point]))[0])


def sparse_measures(grid, seed, count):
    """Random measures on a few hundred cells of the grid, their weights
    of mixed size, and Diracs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = np.zeros(grid.n_cells)
        cells = rng.choice(grid.n_cells, size=int(rng.integers(1, 300)), replace=False)
        w[cells] = rng.random(len(cells)) * 10.0 ** rng.uniform(-8, 0, len(cells))
        out.append(SphereMeasure(grid, w / w.sum()))
    out.append(SphereMeasure.dirac(grid, sp(0.3 + 0.2j)))
    out.append(SphereMeasure.dirac(grid, SpherePoint.infinity()))
    return out


#: Every built-in and every default test function.
ALL_FUNCTIONS = ([named_function(name) for name in ("zero", "const:-0.7", "re", "im",
                                                     "log_abs")]
                 + list(default_test_family().functions))


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
        assert u.integrate(lambda values, inverted: np.ones(len(values))) == \
            pytest.approx(1.0, abs=1e-12)

    def test_integrate_is_the_in_order_scalar_fold(self):
        grid = SphereGrid(2000)
        for m in sparse_measures(grid, 5, 6):
            for f in ALL_FUNCTIONS:
                want = 0.0
                for idx in np.nonzero(m.weights)[0]:
                    want += m.weights[idx] * at(f, grid.cell_center(int(idx)))
                got = m.integrate(f)
                assert type(got) is float
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_zero_integral_is_plus_zero(self, grid):
        # A sum from +0.0 never reaches -0.0; numpy's sum of -0.0 terms does.
        u = SphereMeasure.uniform(grid)
        got = u.integrate(lambda values, inverted: np.full(len(values), -0.0))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

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
        assert mu.words.tolist() == [[list(p) for p in w] for w in (word_a, word_b)]
        assert mu.weights.tolist() == [0.5 + 0.2, 0.3]

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

    def test_from_cylinders_needs_a_word(self, grid):
        with pytest.raises(ValueError):
            PathMeasure.from_cylinders(grid, {})

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
        def f(values, inverted):
            return 0.5 * np.linalg.norm(chart_unit_vectors(values, inverted)
                                        - np.array([0, 0, 1.0]), axis=1)
        fam = FunctionFamily((f,), ("halfdist",))
        got = measure_distance(north, south, fam)
        fn = north.integrate(f)
        fs = south.integrate(f)
        assert got == pytest.approx(0.5 * abs(fn - fs), abs=1e-15)

    def test_is_the_sum_of_integral_gaps(self):
        # One call of each test function on both supports joined gives
        # the bits of two integrals per function.
        calls = []

        def counted(f):
            def g(values, inverted):
                calls.append(len(values))
                return f(values, inverted)
            return g

        fam = default_test_family()
        counting = FunctionFamily(tuple(counted(f) for f in fam.functions), fam.names)
        measures = sparse_measures(SphereGrid(2000), 6, 3)
        for m1, m2 in itertools.product(measures, repeat=2):
            want = 0.0
            for weight, f in zip(fam.weights, fam.functions):
                want += weight * abs(m1.integrate(f) - m2.integrate(f))
            calls.clear()
            assert measure_distance(m1, m2, counting) == want
            support = np.count_nonzero(m1.weights) + np.count_nonzero(m2.weights)
            assert calls == [support] * len(fam)

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
            s1 = sum(w[i] * at(f, grid.cell_center(i)) for i in range(grid.n_cells))
            s2 = at(f, grid.cell_center(grid.cell_index(sp(0.3 + 0.2j))))
            expected += 0.5 ** (k + 1) * abs(s1 - s2)
        assert measure_distance(m1, m2) == pytest.approx(expected, abs=1e-14)


class TestEmpiricalMeasure:
    def test_mobius_pair_bernoulli_weights(self, grid, corr_pair):
        mu = empirical_invariant_measure(corr_pair, 1.0, n_burn=100, n_keep=20000,
                                         depth=2, seed=7, grid=grid)
        # Symbol pair marginals should be near the uniform Bernoulli 1/4.
        sym_mass = {}
        for key, w in zip(mu.words.tolist(), mu.weights):
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
                                        depth=2, grid=grid, seed=None)

    @pytest.mark.parametrize("n_burn", [-1, -3, -300])
    def test_negative_burn_in_rejected(self, grid, corr_z2, n_burn):
        # A negative start would wrap the window to the end of the walk.
        with pytest.raises(ValueError, match=f"n_burn must be >= 0, got {n_burn}"):
            empirical_invariant_measure(corr_z2, 0.5 + 0.3j, n_burn=n_burn,
                                        n_keep=200, depth=4, grid=grid, seed=None)


#: Walk starts: the README start, the fixed points 0 and infinity of the
#: power maps, the real axis (where signed zeros occur) and a start in the
#: reciprocal chart.
WALK_STARTS = (0.5 + 0.3j, 0.0, SpherePoint.infinity(), -0.5, 2 - 1j)
BUNDLED = ("mobius", "z2", "z3", "z2_plus_z3", "mobius_pair")
DEGENERATE_TEXT = "1\n1 1 1 0\n2 0 -1 0\n0 1 -2 0\n1 0 2 0\n"


def point_bits(point):
    v = point.value
    return struct.pack("<dd?", v.real, v.imag, point.inverted)


def count_calls(monkeypatch, obj, name):
    """Count the calls of obj.name from here on; returns a one-item list."""
    calls = [0]
    fn = getattr(obj, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(obj, name, counted)
    return calls


class TestWalkMemo:
    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("n_cells", [400, 2000])
    def test_matches_walk_solving_every_step(self, name, n_cells):
        corr = bundled_correspondence(name)
        grid = SphereGrid(n_cells)
        for x0 in WALK_STARTS:
            for seed in (0, 3):
                mu = empirical_invariant_measure(corr, x0, n_burn=20, n_keep=400,
                                                 depth=4, seed=seed, grid=grid)
                assert_same_cylinders(
                    mu, ref_empirical(corr, x0, 20, 400, 4, seed, grid))

    def test_degenerate_retry(self):
        # (z - 2)(w - z): the fiber of 2 is retried from a nudged point, and
        # the retried slots stand for 2.
        corr = parse_correspondence(DEGENERATE_TEXT)
        grid = SphereGrid(400)
        for seed in (0, 3):
            mu = empirical_invariant_measure(corr, 2.0, n_burn=5, n_keep=20,
                                             depth=2, seed=seed, grid=grid)
            assert_same_cylinders(mu, ref_empirical(corr, 2.0, 5, 20, 2, seed, grid))

    def test_repeated_points_are_solved_once(self, monkeypatch):
        # In floating point the README z2 walk falls onto an attracting
        # fixed point: its 5,054 steps visit 12 distinct points.
        corr = bundled_correspondence("z2")
        grid = SphereGrid(2000)
        points, _, _ = ref_walk(corr, 0.5 + 0.3j, 5054, 0, grid)
        fibers = count_calls(monkeypatch, corr, "forward_images")
        lookups = count_calls(monkeypatch, grid, "cell_index")
        empirical_invariant_measure(corr, 0.5 + 0.3j, n_burn=50, n_keep=5000,
                                    depth=4, seed=0, grid=grid)
        # The last point's fiber is never solved.
        assert fibers[0] == len({point_bits(p) for p in points[:-1]}) == 12
        assert lookups[0] == len({point_bits(p) for p in points})

    def test_walk_without_repeats_makes_the_same_calls(self, monkeypatch):
        corr = bundled_correspondence("mobius")
        grid = SphereGrid(2000)
        fibers = count_calls(monkeypatch, corr, "forward_images")
        lookups = count_calls(monkeypatch, grid, "cell_index")
        points, _, _ = ref_walk(corr, 0.5 + 0.3j, 1054, 0, grid)
        assert len({point_bits(p) for p in points}) == len(points)
        solving_every_step = (fibers[0], lookups[0])
        fibers[0] = lookups[0] = 0
        empirical_invariant_measure(corr, 0.5 + 0.3j, n_burn=50, n_keep=1000,
                                    depth=4, seed=0, grid=grid)
        assert (fibers[0], lookups[0]) == solving_every_step == (1054, 1055)

    @pytest.mark.parametrize("name,draws", [("z2", 0), ("z2_plus_z3", 1054),
                                            ("mobius_pair", 1054)])
    def test_single_slot_steps_draw_nothing(self, monkeypatch, name, draws):
        # z2 is single-valued, so no step of its walk draws; the two-graph
        # correspondences draw once a step.
        made = []
        real = np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self.rng, self.draws = real(seed), 0

            def integers(self, *args, **kwargs):
                self.draws += 1
                return self.rng.integers(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: made.append(Counted(seed)) or made[-1])
        empirical_invariant_measure(bundled_correspondence(name), 0.5 + 0.3j,
                                    n_burn=50, n_keep=1000, depth=4, seed=0,
                                    grid=SphereGrid(400))
        assert [rng.draws for rng in made] == [draws]

    def test_fiber_solves_stop_at_the_first_repeat(self, monkeypatch):
        # The README z2 walk reaches 0, whose one slot is 0, at step 11 and
        # repeats it at step 12, where the walk stops instead of running on
        # to step 5,054.
        corr = bundled_correspondence("z2")
        grid = SphereGrid(2000)
        points, _, _ = ref_walk(corr, 0.5 + 0.3j, 5054, 0, grid)
        seen = [point_bits(p) for p in points]
        repeat = next(t for t in range(len(seen)) if seen[t] in seen[:t])
        assert repeat == 12
        fibers = count_calls(monkeypatch, corr, "forward_images")
        keys = count_calls(monkeypatch, measures_mod, "_point_bits")
        empirical_invariant_measure(corr, 0.5 + 0.3j, n_burn=50, n_keep=5000,
                                    depth=4, seed=0, grid=grid)
        assert fibers[0] == repeat
        assert keys[0] == repeat + 1

    def test_one_slot_draw_leaves_the_generator(self):
        # What makes skipping it exact: integers(1) is 0 and draws nothing.
        rng = np.random.default_rng(5)
        for k in range(50):
            rng.integers(k % 4 + 1)
            state = rng.bit_generator.state
            assert rng.integers(1) == 0
            assert rng.bit_generator.state == state


def dict_group(keys):
    """Oracle of ``_group``: a dict fold over the rows, in input order."""
    ids_of, ids, first = {}, [], []
    for k, row in enumerate(keys.reshape(len(keys), math.prod(keys.shape[1:])).tolist()):
        row = tuple(row)
        if row not in ids_of:
            ids_of[row] = len(first)
            first.append(k)
        ids.append(ids_of[row])
    return ids, first


class TestGroup:
    @pytest.mark.parametrize("shape,high", [
        ((0, 3, 2), 5), ((1, 3, 2), 5), ((1,), 5), ((40,), 6), ((40, 1), 3),
        ((30, 0, 2), 5), ((200, 3), 2), ((5000, 4, 2), 3), ((20000, 6, 2), 2)])
    def test_matches_dict_fold(self, shape, high):
        rng = np.random.default_rng(sum(shape))
        for low in (0, -high):
            keys = rng.integers(low, high, size=shape)
            ids, first = measures_mod._group(keys)
            want_ids, want_first = dict_group(keys)
            assert ids.tolist() == want_ids
            assert first.tolist() == want_first

    def test_wide_and_negative_keys(self):
        rng = np.random.default_rng(71)
        keys = rng.choice(np.array([-2 ** 62, -1, 0, 1, 2 ** 62]), size=(3000, 5))
        ids, first = measures_mod._group(keys)
        assert (ids.tolist(), first.tolist()) == dict_group(keys)


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
        for g in range(parts.size):
            w[np.flatnonzero(parts.label == g)[0]] = 0.25
        m = SphereMeasure(grid, w)
        assert partition_entropy(m, parts) == pytest.approx(math.log(4), abs=1e-12)
        dirac = SphereMeasure.dirac(grid, sp(0.4))
        assert partition_entropy(dirac, SpherePartition.trivial(grid)) == 0.0

    def test_half_quarter_quarter(self, grid):
        parts = SpherePartition.sectors(grid, 1, 4)
        w = np.zeros(grid.n_cells)
        masses = [0.5, 0.25, 0.25, 0.0]
        for g, m in enumerate(masses):
            w[np.flatnonzero(parts.label == g)[0]] = m
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
        for g in range(j.size):
            assert len(set(a.label[j.label == g])) == 1
            assert len(set(b.label[j.label == g])) == 1

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

    @pytest.mark.parametrize("n_z,n_phi,name", [(0, 4, "n_z"), (-2, 4, "n_z"),
                                                (2, 0, "n_phi"), (1, -1, "n_phi")])
    def test_sectors_need_one_slab_and_sector(self, grid, n_z, n_phi, name):
        # n_phi = 0 divided by zero; n_z < 1 named groups after slab -1 or -3.
        count = n_z if name == "n_z" else n_phi
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got {count}"):
            SpherePartition.sectors(grid, n_z, n_phi)

    def test_not_a_partition(self, grid):
        with pytest.raises(NotAPartition):
            SpherePartition(grid, np.zeros(2, dtype=int), ("incomplete",))
        with pytest.raises(NotAPartition):
            SpherePartition(grid, np.ones(grid.n_cells, dtype=int), ("one",))

    def test_lifted_partition_sizes(self, grid):
        # A depth-1 cylinder measure charging every (cell group, symbol)
        # pair has one lifted mass per pair.
        trivial = SpherePartition.trivial(grid)
        two = SpherePartition.sectors(grid, 1, 2)
        for q, n_symbols in ((trivial, 2), (two, 1), (two, 2)):
            words = [((int(np.flatnonzero(q.label == g)[0]), s),)
                     for g in range(q.size) for s in range(1, n_symbols + 1)]
            mu = PathMeasure.from_cylinders(
                grid, {w: 1.0 / len(words) for w in words})
            assert len(joined_lift_masses(mu, q, 1)) == q.size * n_symbols

    def test_lift_occupancies_match_brute_classification(self, grid, corr_pair):
        paths, _ = enumerate_forward_paths(corr_pair, 0.25, 2, cap=16, seed=None)
        mu = PathMeasure.from_paths(grid, paths)
        q = SpherePartition.sectors(grid, 1, 2)
        masses = sorted(joined_lift_masses(mu, q, 1))
        label = q.label
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
            got, _ = enumerate_forward_paths(corr_mobius, s, 3, cap=4096, seed=None)
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

    @pytest.mark.parametrize("n_max", [0, -2])
    def test_no_depth_rejected(self, grid, n_max):
        # No partition would give a rate, and the entropy would read 0.
        mu = PathMeasure.from_cylinders(grid, bernoulli_cylinders(grid, infinity_cell(grid), 4))
        nu = pushforward(mu, 0)
        with pytest.raises(ValueError, match=f"n_max must be at least 1, got {n_max}"):
            intermediate_entropy(nu, mu, [SpherePartition.trivial(grid)], n_max)
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            variational_check(fn_zero, [VariationalEntry("shift", nu, (mu,))],
                              math.log(2), n_max=n_max,
                              partitions=[SpherePartition.trivial(grid)], slack=0.05)

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
        report = variational_check(fn_zero, [entry], math.log(2), n_max=4,
                                   partitions=[SpherePartition.trivial(grid)], slack=0.05)
        assert report.all_within
        assert abs(report.best_gap) < 1e-9

    def test_constant_shifts_value(self, grid):
        mu = PathMeasure.from_cylinders(grid, bernoulli_cylinders(grid, infinity_cell(grid), 3))
        nu = pushforward(mu, 0)
        entry = VariationalEntry("bernoulli", nu, (mu,))
        base = variational_check(fn_zero, [entry], 2.0, n_max=3,
                                 partitions=[SpherePartition.trivial(grid)], slack=0.05)
        shifted = variational_check(lambda values, inverted: np.full(len(values), 0.4),
                                    [entry], 2.0, n_max=3,
                                    partitions=[SpherePartition.trivial(grid)],
                                    slack=0.05)
        assert shifted.rows[0].value == pytest.approx(base.rows[0].value + 0.4, abs=1e-12)

    def test_dirac_at_fixed_point(self, grid):
        path = ForwardPath((sp(0.0), sp(0.0)), (1,), (1,))
        mu = PathMeasure.from_paths(grid, [path])
        nu = pushforward(mu, 0)
        entry = VariationalEntry("dirac0", nu, (mu,))
        report = variational_check(fn_zero, [entry], math.log(2), n_max=1,
                                   partitions=[SpherePartition.trivial(grid)], slack=0.05)
        assert report.rows[0].value == 0.0
        assert report.rows[0].within


# ---------------------------------------------------------------------------
# Reference folds: the dict-of-tuples and frozenset forms of the measure
# code, kept as the oracle for the array forms.  Word order and weights
# must agree exactly, not to a tolerance.
# ---------------------------------------------------------------------------


def ref_from_paths(grid, paths, w):
    cylinders = {}
    for path, weight in zip(paths, w):
        key = tuple((grid.cell_index(path.points[p]), path.symbols[p])
                    for p in range(path.length))
        cylinders[key] = cylinders.get(key, 0.0) + float(weight)
    return cylinders


def ref_walk(corr, x0, steps, seed, grid):
    """The walk of ``empirical_invariant_measure`` solving every step:
    (points, cells, symbols)."""
    rng = np.random.default_rng(seed)
    point = as_sphere_point(x0)
    points = [point]
    cells = [grid.cell_index(point)]
    symbols = []
    for _ in range(steps):
        fiber = corr.forward_images(point)
        slots = [b for b in fiber.branches for _ in range(b.multiplicity)]
        retries = 0
        while not slots and retries < 3:
            point = SpherePoint(point.value + complex(1e-9, 1e-9), point.inverted)
            fiber = corr.forward_images(point)
            slots = [b for b in fiber.branches for _ in range(b.multiplicity)]
            retries += 1
        if not slots:
            raise TrajectoryEscape("forward fiber collapsed persistently")
        pick = slots[int(rng.integers(len(slots)))]
        point = pick.point
        points.append(point)
        symbols.append(pick.component)
        cells.append(grid.cell_index(point))
    return points, cells, symbols


def ref_empirical(corr, x0, n_burn, n_keep, depth, seed, grid):
    _, cells, symbols = ref_walk(corr, x0, n_burn + n_keep + depth, seed, grid)
    counts = {}
    for p in range(n_burn, n_burn + n_keep):
        key = tuple((cells[p + i], symbols[p + i]) for i in range(depth))
        counts[key] = counts.get(key, 0.0) + 1.0
    total = float(sum(counts.values()))
    return {k: v / total for k, v in counts.items()}


def ref_chain_cylinders(active, kernel, weights, nu, depth, prune=1e-15):
    order = np.argsort(kernel.src, kind="stable")
    bounds = np.searchsorted(kernel.src[order], np.arange(active.n_active + 1))
    row_entries = {i: order[bounds[i]:bounds[i + 1]] for i in range(active.n_active)}
    chains = [((i,), (), float(nu[i])) for i in range(active.n_active)
              if nu[i] > prune]
    for _ in range(depth):
        nxt = []
        for positions, syms, w in chains:
            for e in row_entries[positions[0]]:
                w2 = w * (kernel.mult[e] * weights[e])
                if w2 <= prune:
                    continue
                nxt.append(((int(kernel.tgt[e]),) + positions,
                            (int(kernel.comp[e]),) + syms, w2))
        chains = nxt
    cylinders = {}
    for positions, syms, w in chains:
        key = tuple((active.cells[positions[i]], syms[i]) for i in range(depth))
        cylinders[key] = cylinders.get(key, 0.0) + w
    total = functools.reduce(operator.add, cylinders.values(), 0.0)
    return {k: v / total for k, v in cylinders.items()}


def ref_marginal(cylinders, n):
    out = {}
    for key, w in cylinders.items():
        out[key[:n]] = out.get(key[:n], 0.0) + w
    return out


def ref_shift_defect(cylinders):
    heads, tails = {}, {}
    for key, w in cylinders.items():
        heads[key[:-1]] = heads.get(key[:-1], 0.0) + w
        tails[key[1:]] = tails.get(key[1:], 0.0) + w
    defect = 0.0
    for key in set(heads) | set(tails):
        defect = max(defect, abs(heads.get(key, 0.0) - tails.get(key, 0.0)))
    return defect


def ref_sectors(grid, n_z, n_phi):
    groups = {}
    for idx in range(grid.n_cells):
        theta, phi = grid.cell_center_angles(idx)
        z = math.cos(theta)
        zi = min(int((1.0 - z) / 2.0 * n_z), n_z - 1)
        pi = min(int(phi / (2.0 * math.pi) * n_phi), n_phi - 1)
        groups.setdefault((zi, pi), set()).add(idx)
    keys = sorted(groups)
    return ([frozenset(groups[k]) for k in keys],
            [f"z{zi}p{pi}" for zi, pi in keys])


def ref_sector_labels(angles, n_z, n_phi):
    """Scalar ``SpherePartition.sectors`` from each cell center's (theta,
    phi): (labels, names)."""
    keys = []
    for theta, phi in angles:
        z = math.cos(theta)
        zi = min(int((1.0 - z) / 2.0 * n_z), n_z - 1)
        pi = min(int(phi / (2.0 * math.pi) * n_phi), n_phi - 1)
        keys.append(zi * n_phi + pi)
    used, label = np.unique(keys, return_inverse=True)
    return label.tolist(), [f"z{k // n_phi}p{k % n_phi}" for k in used.tolist()]


def ref_join(a, b):
    cells, labels = [], []
    for ga, la in zip(*a):
        for gb, lb in zip(*b):
            if ga & gb:
                cells.append(ga & gb)
                labels.append(f"{la}&{lb}")
    return cells, labels


def ref_lift_masses(cylinders, groups, n):
    label = {c: i for i, group in enumerate(groups) for c in group}
    out = {}
    for key, w in ref_marginal(cylinders, n).items():
        word = tuple((label[c], s) for c, s in key)
        out[word] = out.get(word, 0.0) + w
    return list(out.values())


def ref_shannon(masses):
    h = 0.0
    for m in masses:
        if m > 0.0:
            h -= m * math.log(m)
    return h


def assert_same_cylinders(mu, cylinders):
    assert [tuple(map(tuple, word)) for word in mu.words.tolist()] == list(cylinders)
    assert mu.weights.tolist() == list(cylinders.values())


def partition_groups(q):
    return [frozenset(np.flatnonzero(q.label == g).tolist()) for g in range(q.size)]


def reference_partitions(grid):
    """(array partition, frozenset groups) pairs over trivial, sector and
    joined partitions."""
    out = [(SpherePartition.trivial(grid), [frozenset(range(grid.n_cells))])]
    for n_z, n_phi in ((1, 8), (2, 16), (2, 4), (5, 3)):
        out.append((SpherePartition.sectors(grid, n_z, n_phi),
                    ref_sectors(grid, n_z, n_phi)[0]))
    a, b = ref_sectors(grid, 3, 1), ref_sectors(grid, 1, 3)
    out.append((join(SpherePartition.sectors(grid, 3, 1),
                     SpherePartition.sectors(grid, 1, 3)), ref_join(a, b)[0]))
    return out


def assert_same_entropies(mu, cylinders):
    assert check_shift_invariance(mu, 1.0).defect == ref_shift_defect(cylinders)
    for r in range(mu.depth):
        ref = np.zeros(mu.grid.n_cells)
        for key, w in cylinders.items():
            ref[key[r][0]] += w
        assert pushforward(mu, r).weights.tolist() == ref.tolist()
    for q, groups in reference_partitions(mu.grid):
        masses = [ref_lift_masses(cylinders, groups, n)
                  for n in range(1, mu.depth + 1)]
        for n, ref in enumerate(masses, start=1):
            assert joined_lift_masses(mu, q, n) == ref
        assert entropy_rate_sequence(mu, q, mu.depth) == [ref_shannon(m) for m in masses]


def random_path_measure(grid, rng, k, depth, n_cells, n_symbols):
    """Distinct random words over a few cells spread on the grid, so that
    prefixes and label words collide, with random weights."""
    cells = rng.choice(grid.n_cells, size=n_cells, replace=False)
    words = np.stack([cells[rng.integers(n_cells, size=(k, depth))],
                      rng.integers(1, n_symbols + 1, size=(k, depth))], axis=2)
    words = words[np.sort(np.unique(words.reshape(k, -1), axis=0,
                                    return_index=True)[1])]
    weights = rng.random(len(words))
    return PathMeasure(grid, words, weights / weights.sum())


@functools.lru_cache(maxsize=None)
def spectral_setup(name, f_label):
    corr = bundled_correspondence(name)
    grid = SphereGrid(800)
    levels = pullback_iterate(corr, 0.5 + 0.3j, n=10, cap=2048, seed=0, grid=grid)
    active = ActiveGrid(grid, ds_support(levels, threshold=0.5, cert_bound=0.05).core)
    kernel = TransferKernel(corr, active)
    f = GridFunction.from_callable(active, named_function(f_label))
    return kernel, f, power_iteration(kernel, f, tol=1e-10, seed=0, max_iter=2000,
                                      expansivity=None)


class TestArrayFoldExactness:
    @pytest.mark.parametrize("name", ["z2", "z3", "z2_plus_z3"])
    @pytest.mark.parametrize("f_label", ["zero", "re"])
    def test_adjoint_mu0(self, name, f_label):
        kernel, f, spectral = spectral_setup(name, f_label)
        norm = normalize(f, spectral, kernel)
        nu, _, _ = transfer_mod._stationary(kernel, norm.weights,
                                            np.full(f.active.n_active, 1.0),
                                            1e-10, transfer_mod.ADJOINT_MAX_ITER)
        for depth in range(1, 5):
            adj = adjoint_fixed_point(kernel, f, spectral, tol=1e-10, seed=0, depth=depth)
            ref = ref_chain_cylinders(f.active, kernel, norm.weights, nu, depth)
            assert_same_cylinders(adj.mu0, ref)
            if depth <= 3:
                assert_same_entropies(adj.mu0, ref)

    @pytest.mark.parametrize("name,x0,depth,n_keep", [
        ("mobius_pair", 1.0, 3, 3000),
        ("z2_plus_z3", 0.5 + 0.3j, 4, 2000),
        ("z3", 0.3 + 0.1j, 2, 500),
    ])
    def test_empirical(self, grid, name, x0, depth, n_keep):
        corr = bundled_correspondence(name)
        mu = empirical_invariant_measure(corr, x0, n_burn=20, n_keep=n_keep,
                                         depth=depth, seed=5, grid=grid)
        ref = ref_empirical(corr, x0, 20, n_keep, depth, 5, grid)
        assert_same_cylinders(mu, ref)
        assert_same_entropies(mu, ref)

    @pytest.mark.parametrize("name,start,depth", [
        ("mobius_pair", 0.25, 4),
        ("z2_plus_z3", 0.5 + 0.3j, 3),
        ("z2", 1.0, 3),
    ])
    def test_from_paths(self, grid, name, start, depth):
        paths, _ = enumerate_forward_paths(bundled_correspondence(name), start,
                                           depth, cap=256, seed=None)
        paths = list(paths)
        # Repeats, and the fixed points 0 and infinity of the squaring map.
        paths = paths + paths[::3]
        if name == "z2":
            inf = SpherePoint.infinity()
            paths += [ForwardPath((p,) * (depth + 1), (1,) * depth, (1,) * depth)
                      for p in (sp(0.0), inf, sp(0.0))]
        w = np.random.default_rng(depth).random(len(paths))
        w /= w.sum()
        mu = PathMeasure.from_paths(grid, paths, w)
        ref = ref_from_paths(grid, paths, w)
        assert_same_cylinders(mu, ref)
        assert_same_entropies(mu, ref)

    @pytest.mark.parametrize("k,depth,n_cells,n_symbols", [
        (1, 1, 1, 1), (50, 3, 4, 2), (2000, 5, 12, 2), (4000, 6, 40, 3)])
    def test_entropy_rates_grown_by_depth(self, grid, k, depth, n_cells, n_symbols):
        rng = np.random.default_rng(k + depth)
        mu = random_path_measure(grid, rng, k, depth, n_cells, n_symbols)
        for q in (SpherePartition.trivial(grid), SpherePartition.sectors(grid, 1, 8),
                  SpherePartition.sectors(grid, 2, 16)):
            want = [measures_mod._shannon(joined_lift_masses(mu, q, n))
                    for n in range(1, depth + 1)]
            assert entropy_rate_sequence(mu, q, depth) == want
            assert entropy_rate_sequence(mu, q, depth + 3) == want
            assert entropy_rate_sequence(mu, q, depth - 1) == want[:-1]

    @pytest.mark.parametrize("sizes", [range(1, 60), (100, 400, 401),
                                       (1000, 2000, 2001), (4096,), (8000,)])
    def test_sectors_match_scalar_copy(self, sizes):
        for n_cells in sizes:
            grid = SphereGrid(n_cells)
            angles = [grid.cell_center_angles(idx) for idx in range(n_cells)]
            for n_z in (1, 2, 3, 4, 7):
                for n_phi in (1, 2, 4, 5, 8, 16):
                    q = SpherePartition.sectors(grid, n_z, n_phi)
                    labels, names = ref_sector_labels(angles, n_z, n_phi)
                    assert q.label.tolist() == labels
                    assert list(q.names) == names

    @pytest.mark.parametrize("n_cells", [200, 2000])
    def test_sectors_and_join(self, n_cells):
        grid = SphereGrid(n_cells)
        for shape_a, shape_b in (((1, 8), (2, 16)), ((3, 1), (1, 3)),
                                 ((2, 4), (2, 4)), ((4, 7), (3, 5))):
            ref_a, ref_b = ref_sectors(grid, *shape_a), ref_sectors(grid, *shape_b)
            a = SpherePartition.sectors(grid, *shape_a)
            b = SpherePartition.sectors(grid, *shape_b)
            for q, (groups, names) in ((a, ref_a), (b, ref_b),
                                       (join(a, b), ref_join(ref_a, ref_b))):
                assert partition_groups(q) == groups
                assert list(q.names) == names


#: (z - 1)(w - z^2) + (z + 1)(w + z): two slots, w = z^2 and w = -z,
#: except at z = 1 and z = -1, where one graph collapses and leaves the
#: other alone.  A walk from i draws between i and -i until it lands on -1
#: and then cycles 1 -> -1 -> 1 on one slot, by the two graphs in turn.
ONE_SLOT_CYCLE_TEXT = ("1\n1 1 1 0\n3 0 -1 0\n0 1 -1 0\n2 0 1 0\n\n"
                       "1\n1 1 1 0\n2 0 1 0\n0 1 1 0\n1 0 1 0\n")


def uncut_empirical(corr, x0, n_burn, n_keep, depth, seed, grid):
    """``empirical_invariant_measure`` as it was before a walk stopped at
    its first deterministic repeat: the memo walk runs every step."""
    rng = np.random.default_rng(seed)
    steps = n_burn + n_keep + depth
    memo = {}
    point = as_sphere_point(x0)
    entry = memo[measures_mod._point_bits(point)] = [None, grid.cell_index(point)]
    cells = [entry[1]]
    symbols = []
    for _ in range(steps):
        if entry[0] is None:
            entry[0] = measures_mod._forward_slots(corr, point)
        slots = entry[0]
        pick = slots[int(rng.integers(len(slots)))] if len(slots) > 1 else slots[0]
        point = pick.point
        symbols.append(pick.component)
        key = measures_mod._point_bits(point)
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = [None, grid.cell_index(point)]
        cells.append(entry[1])
    window = np.arange(n_burn, n_burn + n_keep)[:, None] + np.arange(depth)
    words = np.stack([np.array(cells)[window], np.array(symbols)[window]], axis=2)
    ids, first = measures_mod._group(words)
    return PathMeasure(grid, words[first], np.bincount(ids) / float(n_keep))


def assert_same_measure(mu, want):
    assert mu.words.dtype == want.words.dtype
    assert mu.words.tolist() == want.words.tolist()
    assert mu.weights.tolist() == want.weights.tolist()


class TestWalkCut:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_matches_the_uncut_walk(self, name):
        # README sizes, from the README start, -0.5 and infinity.
        corr = bundled_correspondence(name)
        grid = SphereGrid(2000)
        for x0 in (0.5 + 0.3j, -0.5, SpherePoint.infinity()):
            for seed in (0, 1):
                assert_same_measure(
                    empirical_invariant_measure(corr, x0, n_burn=50, n_keep=5000,
                                                depth=4, seed=seed, grid=grid),
                    uncut_empirical(corr, x0, 50, 5000, 4, seed, grid))

    @pytest.mark.parametrize("seed", [0, 1, 4, 5])
    def test_draws_then_a_one_slot_cycle(self, seed, monkeypatch):
        corr = parse_correspondence(ONE_SLOT_CYCLE_TEXT)
        grid = SphereGrid(400)
        points, _, symbols = ref_walk(corr, 1j, 200, seed, grid)
        assert [p.to_complex() for p in points[-2:]] in ([1, -1], [-1, 1])
        assert len({point_bits(p) for p in points[-4:]}) == 2
        assert sorted(symbols[-2:]) == [1, 2]
        for n_burn, n_keep, depth in ((50, 5000, 4), (0, 3, 3), (3, 2, 1), (2, 7, 2)):
            keys = count_calls(monkeypatch, measures_mod, "_point_bits")
            mu = empirical_invariant_measure(corr, 1j, n_burn, n_keep, depth,
                                             seed=seed, grid=grid)
            assert keys[0] <= 12
            monkeypatch.undo()
            assert_same_measure(mu, uncut_empirical(corr, 1j, n_burn, n_keep, depth,
                                                    seed, grid))

    def test_repeats_after_a_draw_run_on(self, monkeypatch):
        # mobius_pair falls onto infinity, whose two slots are both
        # infinity: every step draws, so the walk never stops early.
        corr = bundled_correspondence("mobius_pair")
        keys = count_calls(monkeypatch, measures_mod, "_point_bits")
        empirical_invariant_measure(corr, 0.5 + 0.3j, n_burn=50, n_keep=1000, depth=4,
                                    seed=0, grid=SphereGrid(400))
        assert keys[0] == 1 + 1054
