import cmath
import itertools
import math

import numpy as np
import pytest

import corrdyn.paths as paths_mod
from corrdyn.correspondence import parse_correspondence
from corrdyn.datasets import bundled_correspondence
from corrdyn.errors import EmptyPath, IndexOutOfRange, LengthMismatch
from corrdyn.functions import fn_re
from corrdyn.paths import (ForwardPath, PathBatch, enumerate_backward_paths,
                           enumerate_forward_paths, path_metric,
                           project_point, project_symbol, separated_subset,
                           shift, spanning_subset)
import corrdyn.pressure as pressure_mod
from corrdyn.pressure import circle_starts, pressure_estimate
from corrdyn.sphere import SpherePoint, as_sphere_point, chart_values, sph_dist


def sp(z):
    return SpherePoint.from_complex(z)


def make_path(points, symbols=None, branches=None):
    pts = tuple(sp(p) for p in points)
    n = len(pts) - 1
    symbols = tuple(symbols or [1] * n)
    branches = tuple(branches or [1] * n)
    return ForwardPath(pts, symbols, branches)


class TestEnumeration:
    def test_square_map_single_orbit(self, corr_z2):
        paths, truncated = enumerate_forward_paths(corr_z2, 2.0, 2, cap=4096, seed=None)
        assert not truncated
        assert len(paths) == 1
        got = [p.to_complex() for p in paths[0].points]
        np.testing.assert_allclose(got, [2.0, 4.0, 16.0], rtol=1e-12)
        assert paths[0].symbols == (1, 1)

    def test_depth_zero(self, corr_z2):
        paths, _ = enumerate_forward_paths(corr_z2, 3.0, 0, cap=4096, seed=None)
        assert len(paths) == 1
        assert paths[0].length == 0

    def test_mobius_pair_symbol_tree(self, corr_pair):
        # Oracle: apply the two maps directly through nested loops.
        maps = [lambda z: z + 1, lambda z: 2 * z]
        expected = {}
        for w in itertools.product((0, 1), repeat=2):
            z, orbit = 0.0, [0.0]
            for s in w:
                z = maps[s](z)
                orbit.append(z)
            expected[tuple(s + 1 for s in w)] = orbit
        paths, truncated = enumerate_forward_paths(corr_pair, 0.0, 2, cap=4096, seed=None)
        assert not truncated
        assert len(paths) == 4
        for path in paths:
            orbit = expected[path.symbols]
            for got, want in zip(path.points, orbit):
                assert sph_dist(got, sp(want)) < 1e-10

    def test_symbol_count_is_m_to_the_n(self, corr_pair):
        for n in range(0, 9):
            paths, truncated = enumerate_forward_paths(corr_pair, 0.5, n, cap=300,
                                                       seed=None)
            assert not truncated
            assert len(paths) == 2 ** n

    def test_permissibility_of_enumerated_paths(self, corr_z2z3):
        for enumerate_paths in (enumerate_forward_paths, enumerate_backward_paths):
            paths, _ = enumerate_paths(corr_z2z3, 0.7 + 0.2j, 3, cap=64, seed=None)
            assert paths
            for p in paths:
                for r in range(p.length):
                    assert corr_z2z3.incidence_residual(
                        p.points[r], p.points[r + 1], p.symbols[r]) <= 1e-8

    def test_backward_tree_of_square_map(self, corr_z2):
        # Oracle: the two-level square-root tree built by hand.
        paths, truncated = enumerate_backward_paths(corr_z2, 16.0, 2, cap=4096, seed=None)
        assert not truncated
        assert len(paths) == 4
        starts = sorted((p.points[0].to_complex() for p in paths),
                        key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        expected = sorted([2.0 + 0j, -2.0 + 0j, 2.0j, -2.0j],
                          key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        np.testing.assert_allclose(starts, expected, atol=1e-9)
        for p in paths:
            mid = p.points[1].to_complex()
            assert abs(mid - 4.0) < 1e-9 or abs(mid + 4.0) < 1e-9

    def test_backward_critical_fiber_multiplicity(self, corr_z2):
        paths, _ = enumerate_backward_paths(corr_z2, 0.0, 1, cap=4096, seed=None)
        assert len(paths) == 2
        assert all(sph_dist(p.points[0], sp(0)) < 1e-12 for p in paths)
        assert {p.branches[0] for p in paths} == {1, 2}

    def test_backward_mobius_single_path(self, corr_mobius):
        paths, _ = enumerate_backward_paths(corr_mobius, 0.3 + 0.4j, 5, cap=4096,
                                            seed=None)
        assert len(paths) == 1

    def test_cap_thins_uniformly(self, corr_pair):
        paths, truncated = enumerate_forward_paths(corr_pair, 0.0, 6, cap=17, seed=5)
        assert truncated
        assert len(paths) == 17
        again, _ = enumerate_forward_paths(corr_pair, 0.0, 6, cap=17, seed=5)
        assert [p.symbols for p in paths] == [p.symbols for p in again]


def level_rng(seed, depth):
    """The generator that thins a level at depth: from seed and depth, or
    unseeded for a seed of None."""
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng([*(seed if isinstance(seed, list) else [seed]), depth])


def scalar_enumerate(corr, start, n, cap, seed, backward):
    """The level loop with one scalar fiber per path, as the oracle."""
    images = corr.backward_images if backward else corr.forward_images
    end = 0 if backward else -1
    level = [ForwardPath((as_sphere_point(start),), (), ())]
    truncated = False
    for depth in range(1, n + 1):
        nxt = [child for path in level
               for child in path.children(images(path.points[end]), backward)]
        if len(nxt) > cap:
            idx = level_rng(seed, depth).choice(len(nxt), size=cap, replace=False)
            nxt = [nxt[int(i)] for i in sorted(idx)]
            truncated = True
        level = nxt
    return level, truncated


def count_batches(monkeypatch, corr):
    """Record the batch size of every ``corr.fiber_arrays`` call, and count
    the scalar fibers."""
    sizes, scalar = [], []
    real = corr.fiber_arrays

    def counted(values, inverted, backward):
        sizes.append(len(values))
        return real(values, inverted, backward)

    monkeypatch.setattr(corr, "fiber_arrays", counted)
    for method in ("forward_images", "backward_images"):
        images = getattr(corr, method)
        monkeypatch.setattr(corr, method, lambda x, images=images:
                            scalar.append(1) or images(x))
    return sizes, scalar


class TestBatchedLevels:
    @pytest.mark.parametrize("name,start,n,cap", [
        ("corr_pair", 0.3 + 0.2j, 8, 40), ("corr_pair", 0.0, 6, 17),
        ("corr_z2z3", 0.7 + 0.2j, 6, 25), ("corr_z2", 0.9 + 0.3j, 7, 4)])
    def test_forward_identical_to_scalar_loop(self, name, start, n, cap, request):
        corr = request.getfixturevalue(name)
        got = enumerate_forward_paths(corr, start, n, cap=cap, seed=[5, 1])
        want, truncated = scalar_enumerate(corr, start, n, cap, [5, 1], False)
        # Point values included: ForwardPath and SpherePoint compare exactly.
        assert list(got.paths) == want
        assert got.truncated == truncated == (corr.d_fwd > 1)

    @pytest.mark.parametrize("name,n,cap", [("corr_z2", 6, 20), ("corr_z3", 4, 30),
                                            ("corr_z2z3", 4, 60)])
    def test_backward_matches_scalar_loop(self, name, n, cap, request):
        corr = request.getfixturevalue(name)
        got = enumerate_backward_paths(corr, 0.5 + 0.3j, n, cap=cap, seed=9)
        want, truncated = scalar_enumerate(corr, 0.5 + 0.3j, n, cap, 9, True)
        assert got.truncated and truncated
        assert len(got.paths) == len(want) == cap
        for p, q in zip(got.paths, want):
            assert (p.symbols, p.branches) == (q.symbols, q.branches)
            assert max(sph_dist(a, b) for a, b in zip(p.points, q.points)) <= 1e-12

    def test_every_level_is_one_batch(self, monkeypatch):
        corr_pair = bundled_correspondence("mobius_pair")
        corr_z2 = bundled_correspondence("z2")
        pair_batches, pair_scalar = count_batches(monkeypatch, corr_pair)
        z2_batches, z2_scalar = count_batches(monkeypatch, corr_z2)
        enumerate_forward_paths(corr_pair, 0.3, 4, cap=4096, seed=None)
        enumerate_forward_paths(corr_z2, 0.3, 4, cap=4096, seed=None)
        enumerate_backward_paths(corr_z2, 0.3, 3, cap=4096, seed=None)
        grow = enumerate_forward_paths(corr_pair, PathBatch.from_starts([0.1, 0.2, 0.3]),
                                       2, cap=4096, seed=None)
        # Every level, the start included, is one batch, however narrow,
        # and no fiber is solved point by point.
        assert pair_batches == [1, 2, 4, 8, 3, 6]
        assert z2_batches == [1, 1, 1, 1, 1, 2, 4]
        assert len(grow.paths) == 12
        assert not pair_scalar and not z2_scalar

    @pytest.mark.parametrize("name", ["corr_mobius", "corr_z2", "corr_z3", "corr_z2z3",
                                      "corr_pair"])
    @pytest.mark.parametrize("backward", [False, True])
    def test_start_level_matches_scalar_fibers(self, name, backward, request):
        corr = request.getfixturevalue(name)
        starts = [0.0, SpherePoint.infinity(), -0.5, 0.5 + 0.3j] + circle_points(6, 4)
        grow = enumerate_backward_paths if backward else enumerate_forward_paths
        got = grow(corr, PathBatch.from_starts(starts), 1, cap=4096, seed=None)
        want = [p for start in starts
                for p in scalar_enumerate(corr, start, 1, 4096, None, backward)[0]]
        assert len(got.paths) == len(want)
        if backward:
            assert [(p.symbols, p.branches) for p in got.paths] == \
                [(p.symbols, p.branches) for p in want]
            for p, q in zip(got.paths, want):
                assert max(sph_dist(a, b) for a, b in zip(p.points, q.points)) <= 1e-12
        else:
            # Point values included: ForwardPath and SpherePoint compare exactly.
            assert list(got.paths) == want

    @pytest.mark.parametrize("enumerate_paths", [enumerate_forward_paths,
                                                 enumerate_backward_paths])
    def test_depth_zero_solves_no_fiber(self, monkeypatch, enumerate_paths):
        corr_pair = bundled_correspondence("mobius_pair")
        for method in ("forward_images", "backward_images", "fiber_arrays"):
            monkeypatch.setattr(corr_pair, method, None)
        paths, truncated = enumerate_paths(corr_pair, 0.25, 0, cap=4096, seed=None)
        assert list(paths) == [ForwardPath((sp(0.25),), (), ())]
        assert not truncated


class TestLevelGrowth:
    @pytest.mark.parametrize("name,start,n,k,cap", [
        ("corr_pair", 0.3 + 0.2j, 3, 4, 4096), ("corr_pair", 0.3 + 0.2j, 4, 3, 20),
        ("corr_z2z3", 0.7 + 0.2j, 2, 3, 4096), ("corr_z2", 0.9 + 0.3j, 3, 5, 4)])
    def test_grown_level_equals_deeper_enumeration(self, name, start, n, k, cap,
                                                   request):
        corr = request.getfixturevalue(name)
        level, truncated = enumerate_forward_paths(corr, start, n, cap=cap, seed=[7, n])
        assert not truncated
        # A batch takes one seed per tree.
        grown = enumerate_forward_paths(corr, level, k, cap=cap, seed=[[7, n + k]])
        deep = enumerate_forward_paths(corr, start, n + k, cap=cap, seed=[7, n + k])
        # Thinning in the new levels draws from the same seed and depths.
        assert grown.truncated == deep.truncated == (name == "corr_pair" and cap == 20)
        assert list(grown.paths) == list(deep.paths)

    @pytest.mark.parametrize("name,backward,m,k,cap", [
        ("corr_pair", False, 6, 3, 20), ("corr_pair", True, 5, 3, 12),
        ("corr_z3", True, 4, 2, 20), ("corr_z2z3", False, 6, 2, 24)])
    def test_thinned_level_grows_on(self, name, backward, m, k, cap, request):
        # Every tree holds cap paths at depths m - 1 and m + k - 1, each with
        # two or more children, so it is thinned at two or more levels on
        # each side of depth m.  The grown batch still equals the deeper
        # enumeration row for row: a thinned level draws from its tree's
        # seed and depth alone.
        corr = request.getfixturevalue(name)
        grow = enumerate_backward_paths if backward else enumerate_forward_paths
        starts = PathBatch.from_starts(circle_points(4, 23) + [0.5 + 0.3j])
        seeds = [[11, i] for i in range(5)]
        level = grow(corr, starts, m, cap=cap, seed=seeds).paths
        grown = grow(corr, level, k, cap=cap, seed=seeds).paths
        deep = grow(corr, starts, m + k, cap=cap, seed=seeds).paths
        for depth in (m - 1, m + k - 1):
            before = grow(corr, starts, depth, cap=cap, seed=seeds).paths
            assert before.thinned.all() and (np.bincount(before.tree) == cap).all()
        for field in ("values", "inverted", "symbols", "branches", "tree", "thinned"):
            assert np.array_equal(getattr(grown, field), getattr(deep, field)), field
        assert np.array_equal(deep.values[:, :m + 1] if not backward
                              else deep.values[:, k:],
                              level.values[grown.origin])

    def test_growing_by_zero_keeps_the_level(self, corr_pair):
        level, _ = enumerate_forward_paths(corr_pair, 0.25, 3, cap=4096, seed=None)
        assert enumerate_forward_paths(corr_pair, level, 0, cap=4096,
                                       seed=None) == (level, False)

    def test_unequal_lengths_rejected(self, corr_pair):
        with pytest.raises(LengthMismatch):
            enumerate_forward_paths(corr_pair, [make_path([0.1]), make_path([0.1, 0.2])],
                                    1, cap=4096, seed=None)

    def test_grown_levels_are_one_batch(self, monkeypatch):
        corr_pair = bundled_correspondence("mobius_pair")
        corr_z2 = bundled_correspondence("z2")
        pair_level, _ = enumerate_forward_paths(corr_pair, 0.3, 0, cap=4096, seed=None)
        z2_level, _ = enumerate_forward_paths(corr_z2, 0.3, 2, cap=4096, seed=None)
        pair_batches, pair_scalar = count_batches(monkeypatch, corr_pair)
        z2_batches, z2_scalar = count_batches(monkeypatch, corr_z2)
        enumerate_forward_paths(corr_pair, pair_level, 3, cap=4096, seed=None)
        enumerate_forward_paths(corr_z2, z2_level, 3, cap=4096, seed=None)
        # A level of starts is batched like any later level.
        assert pair_batches == [1, 2, 4] and not pair_scalar
        assert z2_batches == [1, 1, 1] and not z2_scalar


class TestTreeBatches:
    """Several trees grown together against the scalar loop, tree by tree."""

    @pytest.mark.parametrize("name,n,cap,backward", [
        ("corr_pair", 6, 20, False), ("corr_z2z3", 4, 30, False),
        ("corr_z2", 5, 4096, False), ("corr_z2", 4, 6, True),
        ("corr_z2z3", 3, 40, True)])
    def test_trees_match_scalar_loops(self, name, n, cap, backward, request):
        corr = request.getfixturevalue(name)
        starts = circle_points(5, 21) + [0.0, SpherePoint.infinity()]
        seeds = [[9, i] for i in range(len(starts))]
        grow = enumerate_backward_paths if backward else enumerate_forward_paths
        got = grow(corr, PathBatch.from_starts(starts), n, cap=cap, seed=seeds)
        want, cut = [], []
        for start, seed in zip(starts, seeds):
            paths, truncated = scalar_enumerate(corr, start, n, cap, seed, backward)
            want.extend(paths)
            cut.append(truncated)
        assert got.paths.tree.tolist() == sorted(got.paths.tree.tolist())
        if backward:
            # The stacked backward roots equal the scalar ones up to rounding.
            assert [(p.symbols, p.branches) for p in got.paths] == \
                [(p.symbols, p.branches) for p in want]
        else:
            assert list(got.paths) == want
        assert got.paths.thinned.tolist() == cut
        assert got.truncated == any(cut)

    def test_seed_count_checked(self, corr_pair):
        batch = PathBatch.from_starts([0.1, 0.2])
        with pytest.raises(ValueError, match="one seed per tree"):
            enumerate_forward_paths(corr_pair, batch, 2, seed=[1, 2, 3], cap=4096)

    @pytest.mark.parametrize("name,schedule,start_points,cap", [
        ("corr_pair", [(6, 0.05), (4, 0.05), (8, 0.05), (4, 0.1)], 7, 20),
        ("corr_z2z3", [(5, 0.05), (3, 0.05), (7, 0.05), (3, 0.1)], 6, 24),
        ("corr_z2", [(4, 0.05), (8, 0.05), (12, 0.05)], 30, 4096)])
    def test_pressure_pools_match_scalar_loops(self, name, schedule, start_points,
                                               cap, request, monkeypatch):
        # The pools of pressure_estimate, whose trees grow together from
        # depth to depth, thinned or not, against each start enumerated on
        # its own.
        corr = request.getfixturevalue(name)
        seed = 4
        pools = {}
        real = pressure_mod.separated_subset

        def recorded(paths, eps, weight=None):
            pools[paths.length] = (list(paths), bool(paths.thinned.any()))
            return real(paths, eps, weight=weight)

        monkeypatch.setattr(pressure_mod, "separated_subset", recorded)
        starts = circle_starts(start_points, seed, radius=1.0)
        report = pressure_estimate(corr, fn_re, schedule, starts, seed=seed, cap=cap)
        for n in sorted(pools):
            want, cut = [], False
            for i, start in enumerate(starts):
                paths, truncated = scalar_enumerate(corr, start, n, cap,
                                                    [seed, 1, i], False)
                want.extend(paths)
                cut = cut or truncated
            assert pools[n] == (want, cut)
        if name == "corr_pair":
            assert [r.truncated for r in report.rows] == [True, False, True, False]


class TestMetric:
    def test_identical_paths(self):
        p = make_path([1.0, 2.0, 4.0])
        assert path_metric(p, p) == 0.0

    def test_symbol_difference_alone(self):
        p = make_path([0.0, 1.0], symbols=[1])
        q = make_path([0.0, 1.0], symbols=[2])
        assert path_metric(p, q) == 0.5

    def test_initial_point_dominates(self):
        a, b = 0.0, 0.3047607330384463  # sph_dist(a, b) = 0.3 up to rounding
        d = sph_dist(sp(a), sp(b))
        p = make_path([a, 1.0])
        q = make_path([b, 1.0])
        assert path_metric(p, q) == pytest.approx(d, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            path_metric(make_path([0.0, 1.0]), make_path([0.0, 1.0, 2.0]))

    def test_metric_axioms_on_random_paths(self):
        rng = np.random.default_rng(41)
        paths = []
        for _ in range(40):
            pts = [complex(rng.normal(), rng.normal()) for _ in range(4)]
            syms = [int(rng.integers(1, 3)) for _ in range(3)]
            paths.append(make_path(pts, symbols=syms))
        idx = rng.integers(0, len(paths), size=(1000, 3))
        for i, j, k in idx:
            p, q, r = paths[i], paths[j], paths[k]
            assert path_metric(p, q) == path_metric(q, p)
            assert path_metric(p, q) <= path_metric(p, r) + path_metric(r, q) + 1e-12


class TestShiftAndProjections:
    def test_shift_drops_head(self, corr_z2):
        paths, _ = enumerate_forward_paths(corr_z2, 2.0, 2, cap=4096, seed=None)
        shifted = shift(paths[0])
        np.testing.assert_allclose([p.to_complex() for p in shifted.points],
                                   [4.0, 16.0], rtol=1e-12)
        assert shifted.symbols == (1,)

    def test_iterated_shift_exhausts(self):
        p = make_path([1.0, 2.0, 3.0, 4.0])
        for _ in range(3):
            p = shift(p)
        assert p.length == 0
        with pytest.raises(EmptyPath):
            shift(p)

    def test_shift_projection_intertwining(self, corr_z2z3):
        paths, _ = enumerate_forward_paths(corr_z2z3, 0.4 + 0.1j, 3, cap=16, seed=None)
        for p in paths:
            q = shift(p)
            for r in range(q.length + 1):
                assert project_point(q, r) == project_point(p, r + 1)

    def test_projection_bounds(self):
        p = make_path([1.0, 2.0], symbols=[1])
        assert project_point(p, 0) == sp(1.0)
        assert project_symbol(p, 1) == 1
        with pytest.raises(IndexOutOfRange):
            project_point(p, 2)
        with pytest.raises(IndexOutOfRange):
            project_symbol(p, 0)


class TestFamilies:
    def test_identical_paths_collapse(self):
        p = make_path([0.0, 1.0])
        assert len(separated_subset([p, p], eps=0.1)) == 1

    def test_symbol_distinct_paths_survive(self):
        p = make_path([0.0, 1.0], symbols=[1])
        q = make_path([0.0, 1.0], symbols=[2])
        assert len(separated_subset([p, q], eps=0.9)) == 2

    def test_all_symbol_words_survive(self, corr_pair):
        for n in range(1, 7):
            paths, _ = enumerate_forward_paths(corr_pair, 0.0, n, cap=200, seed=None)
            fam = [paths[i] for i in separated_subset(paths, eps=0.5)]
            assert len(fam) == 2 ** n
            # Oracle: re-verify pairwise separation by the raw definition.
            for a, b in itertools.combinations(fam, 2):
                sep = a.symbols != b.symbols or any(
                    sph_dist(a.points[r], b.points[r]) > 0.5
                    for r in range(n + 1))
                assert sep

    def test_weight_order_prefers_heavy(self):
        p = make_path([0.0, 0.0])
        q = make_path([1e-6, 1e-6])
        fam = separated_subset([p, q], eps=0.1,
                               weight=[abs(path.points[0].value) + 1 for path in (p, q)])
        assert fam == [1]

    def test_spanning_singleton(self):
        p = make_path([0.0, 1.0])
        assert spanning_subset([p], eps=0.1) == [0]

    def test_spanning_merges_close_paths(self):
        p = make_path([0.0, 1.0])
        q = make_path([0.01, 1.01])
        assert len(spanning_subset([p, q], eps=0.25)) == 1

    def test_spanning_respects_symbols(self):
        p = make_path([0.0, 1.0], symbols=[1])
        q = make_path([0.0, 1.0], symbols=[2])
        assert len(spanning_subset([p, q], eps=0.25)) == 2

    def test_spanning_net_on_circle(self, corr_z2):
        eps = 0.3
        starts = [cmath.exp(1j * t) for t in np.linspace(0, 2 * np.pi, 60, endpoint=False)]
        paths = []
        for s in starts:
            got, _ = enumerate_forward_paths(corr_z2, s, 1, cap=4096, seed=None)
            paths.extend(got)
        cover = [paths[i] for i in spanning_subset(paths, eps=eps)]
        # Oracle: greedy eps-packing of the start points.
        packed = []
        for s in starts:
            if all(sph_dist(sp(s), sp(t)) > eps for t in packed):
                packed.append(s)
        assert len(cover) >= len(packed) // 4
        # Every input path must be covered by the family.
        for p in paths:
            assert any(c.symbols == p.symbols and all(
                sph_dist(c.points[r], p.points[r]) < eps for r in range(2))
                for c in cover)

    def test_separated_family_spans_its_input(self, corr_pair):
        # Duality: whatever greedy separation rejects is eps-close to an
        # admitted path with the same symbols.
        for n in range(1, 4):
            paths, _ = enumerate_forward_paths(corr_pair, 0.25, n, cap=64, seed=None)
            doubled = list(paths) * 2
            fam = [doubled[i] for i in separated_subset(doubled, eps=0.4)]
            for p in doubled:
                assert any(a.symbols == p.symbols and all(
                    sph_dist(a.points[r], p.points[r]) <= 0.4
                    for r in range(n + 1)) for a in fam)


# ---------------------------------------------------------------------------
# Exactness of the indexed families against the all-pairs greedy loops
# ---------------------------------------------------------------------------


def _pair_far(p, q, eps):
    # Looked up on the module so that a counting wrapper sees these calls.
    return any(paths_mod.sph_dist(a, b) > eps for a, b in zip(p.points, q.points))


def _pair_close(p, q, eps):
    return all(paths_mod.sph_dist(a, b) < eps for a, b in zip(p.points, q.points))


def oracle_separated(paths, eps, weight=None):
    """Greedy separated family, each candidate tested against every
    admitted path; the admitted indices in admission order."""
    order = range(len(paths))
    if weight is not None:
        order = sorted(order, key=lambda i: -weight[i])
    admitted = []
    for i in order:
        cand = paths[i]
        if all(cand.symbols != paths[a].symbols or _pair_far(cand, paths[a], eps)
               for a in admitted):
            admitted.append(i)
    return admitted


def oracle_spanning(paths, eps, weight=None):
    """Greedy spanning family, each candidate tested against every
    admitted path; the admitted indices in admission order."""
    order = range(len(paths))
    if weight is not None:
        order = sorted(order, key=lambda i: weight[i])
    admitted = []
    for i in order:
        cand = paths[i]
        if not any(paths[a].symbols == cand.symbols and _pair_close(paths[a], cand, eps)
                   for a in admitted):
            admitted.append(i)
    return admitted


def re_weight(path):
    return sum(fn_re(*chart_values(path.points[:path.length])).tolist())


def assert_same_families(paths, eps, weight=None):
    """Both families of the list and of its batch against the oracles,
    weight a function of the path."""
    weights = None if weight is None else [weight(p) for p in paths]
    for fast, slow in ((separated_subset, oracle_separated),
                       (spanning_subset, oracle_spanning)):
        want = slow(paths, eps, weight=weights)
        assert fast(paths, eps, weight=weights) == want
        assert fast(PathBatch.from_paths(paths), eps, weight=weights) == want


def forward_pool(corr, starts, n, cap=4096):
    pool = []
    for i, s in enumerate(starts):
        pool.extend(enumerate_forward_paths(corr, s, n, cap=cap, seed=[3, i]).paths)
    return pool


def circle_points(k, seed):
    """k points at random angles on the unit circle, from stream ``seed``."""
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=k)
    return [SpherePoint.from_complex(np.exp(1j * a)) for a in angles]


def path_from_unit_vectors(vectors, symbols=None):
    pts = tuple(SpherePoint.from_unit_vector(v) for v in vectors)
    n = len(pts) - 1
    return ForwardPath(pts, tuple(symbols or [1] * n), (1,) * n)


class TestFamilyIndexExactness:
    @pytest.mark.parametrize("eps", [0.02, 0.05, 0.2, 0.6])
    def test_mobius_pair_many_words(self, corr_pair, eps):
        pool = forward_pool(corr_pair, circle_points(6, 11) + [0.0, 0.5j], 6)
        assert len({p.symbols for p in pool}) == 64
        assert_same_families(pool, eps)
        assert_same_families(pool, eps, weight=re_weight)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.3])
    def test_z2_circle_one_word(self, corr_z2, eps):
        pool = forward_pool(corr_z2, circle_points(150, 12), 6)
        assert len({p.symbols for p in pool}) == 1
        assert_same_families(pool, eps)
        assert_same_families(pool, eps, weight=re_weight)

    @pytest.mark.parametrize("eps", [0.03, 0.1])
    def test_z2_plus_z3_weighted_by_re(self, corr_z2z3, eps):
        pool = forward_pool(corr_z2z3, circle_points(10, 13), 3, cap=200)
        assert_same_families(pool, eps, weight=re_weight)
        assert_same_families(pool, eps)

    @pytest.mark.parametrize("eps", [1e-9, 0.1, 1.0])
    def test_paths_at_zero_and_infinity(self, eps):
        inf = SpherePoint.infinity()
        ends = [sp(0), inf, sp(1e-12), SpherePoint.from_reciprocal(1e-12),
                sp(1e-3), SpherePoint.from_reciprocal(-1e-3), sp(1), sp(-1j)]
        pool = [ForwardPath((start, end), (sym,), (1,))
                for start in (sp(0), inf) for end in ends for sym in (1, 2)]
        assert_same_families(pool, eps)
        assert_same_families(pool, eps, weight=lambda p: abs(p.points[1].value))

    def test_duplicated_paths(self, corr_pair, corr_z2):
        for corr in (corr_pair, corr_z2):
            pool = forward_pool(corr, circle_points(20, 14), 4, cap=64)
            doubled = pool + pool[::-1] + pool[:5]
            assert_same_families(doubled, 0.05)
            assert_same_families(doubled, 0.05, weight=re_weight)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_last_points_on_cube_boundaries(self, m):
        # Points 0, which the cubes hold, whose unit-vector coordinates are
        # exact multiples of 2 eps, each with neighbours at chordal
        # distances just below and above eps on both sides of the boundary.
        base = [np.array(v, dtype=float) for v in
                ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                 [0.0, 0.0, -1.0], [0.6, 0.8, 0.0], [0.0, 0.6, -0.8])]
        eps = 0.3 / m
        start = np.array([0.0, 0.0, -1.0])
        ends = []
        for u in base:
            ends.append(u)
            for axis in range(3):
                for step in (-1.0, 1.0):
                    for scale in (1.0 - 1e-9, 1.0, 1.0 + 1e-9, 0.5, 2.0):
                        v = u.copy()
                        v[axis] += step * scale * eps
                        ends.append(v / np.linalg.norm(v))
        pool = [path_from_unit_vectors([v, start]) for v in ends]
        assert any(x != 0 and x % (2 * eps) == 0
                   for p in pool for x in p.points[0].unit_vector())
        assert_same_families(pool, eps)
        assert_same_families(pool, eps, weight=lambda p: p.points[0].unit_vector()[0])

    @pytest.mark.parametrize("eps", [1e-6, 0.01, 0.05, 0.3])
    def test_keys_of_close_pairs_are_adjacent(self, eps):
        # First points 0 within rounding of a cube face, second ones at
        # most eps away (chordal) in a random tangent direction.
        rng = np.random.default_rng(int(eps * 1e6) + 17)
        side = eps + paths_mod._CUBE_SLACK
        start = np.array([0.0, 0.0, -1.0])
        pairs = []
        while len(pairs) < 400:
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            axis = int(rng.integers(3))
            face = (math.floor(u[axis] / side) + int(rng.integers(2))) * side
            if abs(face) >= 0.99:
                continue
            u[axis] = face + rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.0, 1e-15)
            rest = [i for i in range(3) if i != axis]
            u[rest] *= math.sqrt(1.0 - u[axis] ** 2) / np.linalg.norm(u[rest])
            t = rng.normal(size=3)
            t -= t.dot(u) * u
            t /= np.linalg.norm(t)
            angle = rng.uniform(0.0, 1.0) * 2.0 * math.asin(eps / 2.0)
            v = math.cos(angle) * u + math.sin(angle) * t
            pairs.append((path_from_unit_vectors([u, start]),
                          path_from_unit_vectors([v, start])))
        flat = [p for pair in pairs for p in pair]
        keys = [tuple(c) for c in paths_mod._cubes(PathBatch.from_paths(flat), eps).tolist()]
        # The batched cubes are the floors of the scalar unit vectors.
        assert keys == [tuple(math.floor(x / side) for x in p.points[0].unit_vector())
                        for p in flat]
        checked = crossed = 0
        for (p, q), cp, cq in zip(pairs, keys[::2], keys[1::2]):
            if sph_dist(p.points[0], q.points[0]) <= eps:
                checked += 1
                crossed += cp != cq
                assert max(abs(a - b) for a, b in zip(cp, cq)) <= 1
        assert checked > 350 and crossed > 100

    @pytest.mark.parametrize("eps", [2.0, 2.5, 1e6])
    def test_eps_at_least_two(self, corr_z2, eps):
        pool = forward_pool(corr_z2, circle_points(30, 15) + [0.0, 2.0, 1e9], 3)
        pool += [make_path([0.0, 0.0, 0.0, 0.0]), make_path([0.0, 1.0, 1.0, 1e300])]
        assert_same_families(pool, eps)
        assert_same_families(pool, eps, weight=re_weight)

    def test_index_prunes_pair_tests(self, corr_z2, monkeypatch):
        # 200 circle starts on z2 (one symbol word), n = 8, eps = 0.05.
        pool = forward_pool(corr_z2, circle_points(200, 0), 8)
        weights = [re_weight(p) for p in pool]
        computed = 0
        real = paths_mod.sph_dist

        def counted(p, q):
            # Distances computed: one per scalar call, the array size of a
            # batched one.
            nonlocal computed
            computed += len(p[0]) if isinstance(p, tuple) else 1
            return real(p, q)

        monkeypatch.setattr(paths_mod, "sph_dist", counted)

        def count(runs):
            nonlocal computed
            computed = 0
            for fam in runs:
                fam(pool, 0.05, weight=weights)
            return computed

        fast = count((separated_subset, spanning_subset))
        slow = count((oracle_separated, oracle_spanning))
        assert 0 < fast <= slow / 4

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf, -math.inf])
    def test_bad_eps_rejected(self, eps):
        p = make_path([0.0, 1.0])
        for fam in (separated_subset, spanning_subset):
            with pytest.raises(ValueError, match="eps"):
                fam([p], eps)
            with pytest.raises(ValueError, match="eps"):
                fam([], eps)


# ---------------------------------------------------------------------------
# The levers of the families: the greedy walk and the pairs kept per eps
# ---------------------------------------------------------------------------


def loop_greedy(order, i, j):
    """The greedy walk over every row of order, each admitted unless a row
    admitted before it is paired with it."""
    ends = np.concatenate([i, j])
    by_end = np.argsort(ends, kind="stable")
    bounds = np.searchsorted(ends[by_end], np.arange(len(order) + 1)).tolist()
    partners = np.concatenate([j, i])[by_end].tolist()
    blocked = bytearray(len(order))
    admitted = []
    for k in order.tolist():
        if not blocked[k]:
            admitted.append(k)
            for m in partners[bounds[k]:bounds[k + 1]]:
                blocked[m] = 1
    return admitted


def pair_sets(rng, n):
    """(name, i, j) of pair sets on n rows."""
    rows = np.arange(n)
    none = np.zeros(0, dtype=np.int64)
    i = rng.integers(0, n, size=3 * n)
    j = rng.integers(0, n, size=3 * n)
    i, j = i[i < j], j[i < j]
    perm = rng.permutation(n)
    yield "no pairs", none, none
    yield "every row paired", rows[0::2][:n // 2], rows[1::2][:n // 2]
    yield "all pairs", *np.triu_indices(n, 1)
    yield "random", i, j
    yield "duplicated both ways", np.concatenate([i, j, i]), np.concatenate([j, i, j])
    yield "chain", perm[:-1], perm[1:]
    yield "star", np.full(n - 1, perm[0]), perm[1:]
    yield "few", i[:3], j[:3]


@pytest.mark.parametrize("n", [1, 2, 7, 60, 500])
def test_greedy_equals_loop_over_every_row(n):
    rng = np.random.default_rng(n)
    for name, i, j in pair_sets(rng, n):
        for order in (np.arange(n), np.arange(n)[::-1].copy(), rng.permutation(n)):
            want = loop_greedy(order, i, j)
            got = paths_mod._greedy(order, i, j)
            assert got == want, name
            assert type(got) is list and all(type(k) is int for k in got)


def count_pair_distances(monkeypatch):
    counted = [0]
    real = paths_mod.sph_dist

    def counting(p, q):
        counted[0] += 1
        return real(p, q)

    monkeypatch.setattr(paths_mod, "sph_dist", counting)
    return counted


class TestPairsKeptPerEps:
    @pytest.fixture()
    def pool(self, corr_pair):
        return forward_pool(corr_pair, circle_points(12, 16), 5, cap=64)

    @pytest.mark.parametrize("first, second", [(separated_subset, spanning_subset),
                                               (spanning_subset, separated_subset)])
    def test_second_family_reuses_the_pairs(self, pool, first, second, monkeypatch):
        weights = np.array([re_weight(p) for p in pool])
        want = {fam: fam(PathBatch.from_paths(pool), 0.3, weight=weights)
                for fam in (first, second)}
        counted = count_pair_distances(monkeypatch)
        batch = PathBatch.from_paths(pool)
        assert first(batch, 0.3, weight=weights) == want[first]
        assert counted[0] > 0
        searched = counted[0]
        assert second(batch, 0.3, weight=weights) == want[second]
        assert counted[0] == searched
        assert list(batch._pairs) == [0.3]

    def test_eps_values_never_share_pairs(self, pool):
        batch = PathBatch.from_paths(pool)
        weights = np.array([re_weight(p) for p in pool])
        for eps in (0.2, 0.6, 0.2, 0.6):
            for fam in (separated_subset, spanning_subset):
                fresh = PathBatch.from_paths(pool)
                assert fam(batch, eps, weight=weights) == fam(fresh, eps, weight=weights)
        assert sorted(batch._pairs) == [0.2, 0.6]
        small, large = batch._pairs[0.2], batch._pairs[0.6]
        assert 0 < len(small[0]) < len(large[0])
        for a, b in zip(small, paths_mod._close_pairs(PathBatch.from_paths(pool), 0.2)):
            assert np.array_equal(a, b)

    def test_batches_do_not_share_pairs(self, pool):
        one, other = PathBatch.from_paths(pool), PathBatch.from_paths(pool[::2])
        separated_subset(one, 0.3)
        assert other._pairs == {} and one._pairs is not other._pairs


# ---------------------------------------------------------------------------
# Close pairs inherited from the batch a batch was grown from
# ---------------------------------------------------------------------------

#: w^2 = z plus twice w = z^2: every fiber has siblings that share a word,
#: two that differ in point and two equal ones of the multiplicity-2 graph.
SIBLING_WORDS_TEXT = "1\n0 2 1 0\n1 0 -1 0\n\n2\n0 1 1 0\n2 0 -1 0\n"


def pair_map(pairs):
    """{(min, max): worst bits} of (i, j, worst) arrays."""
    i, j, worst = pairs
    return {(min(a, b), max(a, b)): w.hex()
            for a, b, w in zip(i.tolist(), j.tolist(), worst.tolist())}


def spy_pair_searches(monkeypatch):
    """Names of the pair searches run from here on, in order."""
    runs = []
    for name in ("_cube_pairs", "_inherited_pairs"):
        real = getattr(paths_mod, name)

        def spied(*args, _real=real, _name=name):
            runs.append(_name)
            return _real(*args)
        monkeypatch.setattr(paths_mod, name, spied)
    return runs


def grown_pool(corr, starts, m, k, eps_up, cap=4096):
    """A depth-m pool of the starts whose pairs are searched at each
    eps_up, grown k more levels."""
    source = enumerate_forward_paths(corr, PathBatch.from_starts(starts), m, cap=cap,
                                     seed=[None] * len(starts)).paths
    for eps in eps_up:
        paths_mod._close_pairs(source, eps)
    return source, enumerate_forward_paths(corr, source, k, cap=cap,
                                           seed=[None] * len(starts)).paths


def assert_inherits_cube_pairs(grown, eps, monkeypatch):
    """grown's pairs at eps come from its source, equal the cube search's
    on a copy, and give the same families; returns the pair map."""
    copy = PathBatch(grown.values, grown.inverted, grown.symbols, grown.branches,
                     grown.tree, grown.thinned)
    want = paths_mod._cube_pairs(copy, eps)
    runs = spy_pair_searches(monkeypatch)
    got = paths_mod._close_pairs(grown, eps)
    assert runs == ["_inherited_pairs"]
    assert pair_map(got) == pair_map(want)
    weight = np.array([re_weight(p) for p in grown])
    for fam in (separated_subset, spanning_subset):
        assert fam(grown, eps, weight=weight) == fam(copy, eps, weight=weight)
        assert fam(grown, eps) == fam(copy, eps)
    monkeypatch.undo()
    return pair_map(got)


def sibling_count(grown, pairs):
    return sum(grown.origin[a] == grown.origin[b] for a, b in pairs)


class TestInheritedPairs:
    @pytest.mark.parametrize("name,starts,m,k,eps", [
        ("z2", 300, 4, 4, 0.05), ("z2", 300, 3, 5, 0.2),
        ("z2_plus_z3", 60, 2, 2, 0.05), ("z2_plus_z3", 24, 2, 3, 0.5),
        ("mobius_pair", 8, 4, 4, 0.05), ("mobius_pair", 8, 3, 3, 0.5)])
    def test_grown_pools(self, name, starts, m, k, eps, monkeypatch):
        corr = bundled_correspondence(name)
        _, grown = grown_pool(corr, circle_points(starts, 40), m, k, [eps])
        pairs = assert_inherits_cube_pairs(grown, eps, monkeypatch)
        assert len(pairs) > sibling_count(grown, pairs)

    @pytest.mark.parametrize("eps", [0.05, 0.6, 1.5])
    def test_siblings_that_share_a_word(self, eps, monkeypatch):
        corr = parse_correspondence(SIBLING_WORDS_TEXT)
        _, grown = grown_pool(corr, circle_points(5, 41) + [sp(0.3)], 2, 2, [eps],
                              cap=200)
        pairs = assert_inherits_cube_pairs(grown, eps, monkeypatch)
        # Equal siblings of the multiplicity-2 graph are always close, and
        # so are some siblings with distinct points.
        assert any(grown.values[a, -1] == grown.values[b, -1] and
                   grown.origin[a] == grown.origin[b] for a, b in pairs)
        assert any(grown.values[a, -1] != grown.values[b, -1] and
                   grown.origin[a] == grown.origin[b] for a, b in pairs)

    @pytest.mark.parametrize("name,eps,up", [("mobius_pair", 0.05, 0.2),
                                             ("mobius_pair", 0.1, 0.5),
                                             ("z2", 0.05, 0.2)])
    def test_pairs_at_a_larger_eps(self, name, eps, up, monkeypatch):
        # mobius_pair contracts near infinity, so pairs farther than eps in
        # their ancestors may be within eps on the new points.
        corr = bundled_correspondence(name)
        source, grown = grown_pool(corr, circle_points(40 if corr.d_fwd > 1 else 400, 42),
                                   3, 3, [up])
        assert list(grown._origin_pairs) == [up]
        pairs = assert_inherits_cube_pairs(grown, eps, monkeypatch)
        dropped = source._pairs[up][2] > eps
        assert dropped.any() and len(pairs) > 0

    def test_smallest_larger_eps_is_used(self, corr_pair, monkeypatch):
        _, grown = grown_pool(corr_pair, circle_points(20, 43), 3, 2, [0.5, 0.1, 0.02])
        used = []
        real = paths_mod._inherited_pairs
        monkeypatch.setattr(paths_mod, "_inherited_pairs",
                            lambda batch, eps, i, j, worst, m:
                            used.append(len(i)) or real(batch, eps, i, j, worst, m))
        paths_mod._close_pairs(grown, 0.05)
        assert used == [len(grown._origin_pairs[0.1][0])]

    def test_zero_pair_source(self, monkeypatch):
        corr = parse_correspondence(SIBLING_WORDS_TEXT)
        source, grown = grown_pool(corr, [sp(0.4 + 0.2j)], 0, 3, [0.05])
        assert len(source._pairs[0.05][0]) == 0
        pairs = assert_inherits_cube_pairs(grown, 0.05, monkeypatch)
        assert len(pairs) == sibling_count(grown, pairs) > 0

    def test_source_without_pairs_takes_the_cube_search(self, corr_pair, monkeypatch):
        _, grown = grown_pool(corr_pair, circle_points(8, 44), 3, 2, [])
        runs = spy_pair_searches(monkeypatch)
        paths_mod._close_pairs(grown, 0.05)
        assert runs == ["_cube_pairs"]

    def test_smaller_eps_only_takes_the_cube_search(self, corr_pair, monkeypatch):
        _, grown = grown_pool(corr_pair, circle_points(8, 45), 3, 2, [0.05])
        runs = spy_pair_searches(monkeypatch)
        paths_mod._close_pairs(grown, 0.1)
        assert runs == ["_cube_pairs"]

    def test_backward_growth_takes_the_cube_search(self, corr_z2, monkeypatch):
        starts = PathBatch.from_starts(circle_points(30, 46))
        source = enumerate_backward_paths(corr_z2, starts, 2, seed=[None] * 30,
                                          cap=4096).paths
        paths_mod._close_pairs(source, 0.5)
        grown = enumerate_backward_paths(corr_z2, source, 2, seed=[None] * 30,
                                         cap=4096).paths
        assert grown._origin_pairs == {}
        runs = spy_pair_searches(monkeypatch)
        got = paths_mod._close_pairs(grown, 0.5)
        assert runs == ["_cube_pairs"]
        assert len(got[0]) > 0

    def test_pressure_pools(self, corr_pair, monkeypatch):
        # Depth 3 is searched over cubes; 5 grows from 3 and inherits, and
        # so do 6, thinned at cap 40, and 8, grown from the thinned 6.
        runs = spy_pair_searches(monkeypatch)
        report = pressure_estimate(corr_pair, fn_re, [(3, 0.1), (5, 0.05), (6, 0.05),
                                                      (8, 0.05)],
                                   circle_starts(6, 2, radius=1.0), seed=2, cap=40)
        assert [r.truncated for r in report.rows] == [False, False, True, True]
        assert runs == ["_cube_pairs", "_inherited_pairs", "_inherited_pairs",
                        "_inherited_pairs"]
