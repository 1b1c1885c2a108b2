import math

import numpy as np
import pytest

import corrdyn.pressure as pressure_mod
from corrdyn.correspondence import parse_correspondence
from corrdyn.errors import ScheduleEmpty
from corrdyn.functions import fn_const, fn_log_abs, fn_re, fn_zero
from corrdyn.paths import enumerate_forward_paths, separated_subset, spanning_subset
from corrdyn.grid import SphereGrid
from corrdyn.pressure import PressureRow, circle_starts, grid_starts, pressure_estimate
from corrdyn.sphere import SpherePoint, chart_values


def single_start(z):
    return [SpherePoint.from_complex(z)]


def at(f, point) -> float:
    """f at one point."""
    return float(f(*chart_values([point]))[0])


class TestBasics:
    def test_empty_schedule(self, corr_mobius):
        with pytest.raises(ScheduleEmpty):
            pressure_estimate(corr_mobius, fn_zero, [], single_start(0.3), seed=0, cap=4096)

    def test_mobius_zero_pressure(self, corr_mobius):
        report = pressure_estimate(corr_mobius, fn_zero, [(4, 0.1), (8, 0.1)],
                                   single_start(0.3 + 0.2j), seed=1, cap=4096)
        assert report.pressure == 0.0

    def test_mobius_constant_potential(self, corr_mobius):
        c = 0.8125  # exactly representable
        report = pressure_estimate(corr_mobius, fn_const(c), [(4, 0.1), (8, 0.1)],
                                   single_start(0.3 + 0.2j), seed=1, cap=4096)
        assert report.pressure == pytest.approx(c, abs=1e-13)

    def test_report_shape(self, corr_pair):
        report = pressure_estimate(corr_pair, fn_zero, [(2, 0.1), (4, 0.1), (4, 0.05)],
                                   single_start(0.25), seed=2, cap=64)
        assert len(report.rows) == 3
        assert report.n_starts == 1


class TestEntropyBenchmarks:
    def test_full_shift_entropy_exact(self, corr_pair):
        report = pressure_estimate(corr_pair, fn_zero, [(4, 0.05), (8, 0.05)],
                                   single_start(0.25), seed=3, cap=512)
        assert report.pressure == pytest.approx(math.log(2), abs=1e-12)

    def test_square_map_circle_doubling(self, corr_z2):
        # Oracle: count pairwise (n, eps)-separated circle starts directly
        # in angle space, using the exact doubling of arc distances.
        n, eps = 8, 0.05
        seed = 4
        rng = np.random.default_rng([seed, 0])
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=256))
        kept: list[float] = []
        for a in angles:
            ok = True
            for b in kept:
                sep = False
                for r in range(n + 1):
                    d = abs((2.0 ** r * (a - b) + np.pi) % (2 * np.pi) - np.pi)
                    if 2.0 * math.sin(min(d, math.pi) / 2.0) > eps:
                        sep = True
                        break
                if not sep:
                    ok = False
                    break
            if ok:
                kept.append(a)
        oracle = math.log(len(kept)) / n

        report = pressure_estimate(corr_z2, fn_zero, [(n, eps)],
                                   circle_starts(256, seed, radius=1.0), seed=seed,
                                   cap=4096)
        assert report.pressure == pytest.approx(oracle, abs=0.05)
        assert abs(report.pressure - math.log(2)) < 0.1

    def test_monotone_in_eps(self, corr_z2):
        report = pressure_estimate(corr_z2, fn_zero, [(4, 0.02), (4, 0.05), (4, 0.2)],
                                   circle_starts(128, 5, radius=1.0), seed=5, cap=4096)
        by_eps = sorted(report.rows, key=lambda r: r.eps)
        for a, b in zip(by_eps, by_eps[1:]):
            assert b.sep_value <= a.sep_value + 1e-12

    def test_sandwich_on_rows(self, corr_z2, corr_pair):
        for corr, starts in ((corr_z2, circle_starts(64, 6, radius=1.0)),
                             (corr_pair, single_start(0.25))):
            report = pressure_estimate(corr, fn_zero, [(4, 0.05), (6, 0.05)], starts,
                                       seed=6, cap=4096)
            for row in report.rows:
                assert row.sandwich_ok


class TestShiftLaw:
    def test_constant_shift_identity(self, corr_z2):
        schedule = [(4, 0.05), (6, 0.05)]
        starts = circle_starts(96, 7, radius=1.0)
        base = pressure_estimate(corr_z2, fn_zero, schedule, starts, seed=7, cap=4096)
        shifted = pressure_estimate(corr_z2, fn_const(0.7), schedule, starts, seed=7,
                                    cap=4096)
        assert shifted.pressure - base.pressure == pytest.approx(0.7, abs=1e-10)
        for r0, r1 in zip(base.rows, shifted.rows):
            assert r1.sep_value - r0.sep_value == pytest.approx(0.7, abs=1e-10)
            assert r1.n_separated == r0.n_separated

    def test_seed_reproducibility(self, corr_z2):
        a = pressure_estimate(corr_z2, fn_re, [(4, 0.05)],
                              circle_starts(50, 8, radius=1.0), seed=8, cap=4096)
        b = pressure_estimate(corr_z2, fn_re, [(4, 0.05)],
                              circle_starts(50, 8, radius=1.0), seed=8, cap=4096)
        assert a.pressure == b.pressure
        assert a.rows == b.rows


class TestStartValidation:
    @pytest.mark.parametrize("count", [0, -3])
    def test_too_few_start_points(self, count):
        for draw in (lambda: circle_starts(count, 0, radius=1.0),
                     lambda: grid_starts(SphereGrid(400), count, 0)):
            with pytest.raises(ValueError,
                               match=f"start_points must be at least 1, got {count}"):
                draw()

    def test_empty_start_list(self, corr_z2):
        with pytest.raises(ValueError, match="at least one start point"):
            pressure_estimate(corr_z2, fn_zero, [(4, 0.05)], [], seed=0, cap=4096)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.2, math.nan)])
    def test_start_without_finite_chart_value(self, corr_z2, z):
        starts = single_start(0.3) + single_start(z)
        with pytest.raises(ValueError, match="no finite chart value"):
            pressure_estimate(corr_z2, fn_zero, [(4, 0.05)], starts, seed=0, cap=4096)

    def test_point_at_infinity_is_a_start(self, corr_z2):
        report = pressure_estimate(corr_z2, fn_zero, [(2, 0.05)],
                                   [SpherePoint.infinity()], seed=0, cap=4096)
        assert report.rows[0].n_paths == 1

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_circle_radius_must_be_finite(self, radius):
        with pytest.raises(ValueError, match=repr(radius)):
            circle_starts(4, 0, radius)


class TestStartDraws:
    """Start draws read the stream [seed, 0], on which the CLI's output
    bytes depend."""

    def test_circle_starts(self):
        angles = np.random.default_rng([9, 0]).uniform(0.0, 2.0 * np.pi, size=5)
        want = [SpherePoint.from_complex(2.5 * np.exp(1j * a)) for a in angles]
        got = circle_starts(5, 9, radius=2.5)
        assert [(p.value, p.inverted) for p in got] == [(p.value, p.inverted) for p in want]
        assert circle_starts(5, 9, radius=1.0) != circle_starts(5, 10, radius=1.0)

    def test_grid_starts(self):
        grid = SphereGrid(400)
        cells = np.random.default_rng([9, 0]).integers(0, grid.n_cells, size=5)
        assert grid_starts(grid, 5, 9) == [grid.cell_center(int(i)) for i in cells]


def parent_rows(corr, f, schedule, starts, seed, cap):
    """The per-row loop that ``pressure_estimate`` ran before schedule-wide
    pools: every distinct depth enumerated from every start with seed
    [seed, 1, i], and each weight summed over all n points.

    Returns the rows and, per row, the pool and its weights.  The builtin
    ``sum`` of that loop is spelled as the left-to-right fold it is on
    Python 3.10 and 3.11; 3.12 made float ``sum`` compensated.
    """
    pools, rows, seen = {}, [], []
    for n, eps in schedule:
        if n not in pools:
            paths, truncated = [], False
            for i, x0 in enumerate(starts):
                got, was_cut = enumerate_forward_paths(corr, x0, n, cap=cap,
                                                       seed=[seed, 1, i])
                paths.extend(got)
                truncated = truncated or was_cut
            weights = []
            for p in paths:
                w = 0
                for r in range(n):
                    w = w + at(f, p.points[r])
                weights.append(w)
            pools[n] = (paths, weights, truncated)
        paths, weights, truncated = pools[n]
        sep = separated_subset(paths, eps, weight=weights)
        span = spanning_subset(paths, eps, weight=weights)
        rows.append(PressureRow(
            n, eps, pressure_mod._logsumexp([weights[i] for i in sep]) / n,
            pressure_mod._logsumexp([weights[i] for i in span]) / n, len(paths),
            len(sep), len(span), truncated))
        seen.append((paths, weights))
    return rows, seen


def record_pools(monkeypatch):
    """The pool and weights of every separated family that
    ``pressure_estimate`` computes, keyed by (depth, eps)."""
    pools = {}
    real = pressure_mod.separated_subset

    def recorded(paths, eps, weight=None):
        pools[paths.length, eps] = (list(paths), weight.tolist())
        return real(paths, eps, weight=weight)

    monkeypatch.setattr(pressure_mod, "separated_subset", recorded)
    return pools


class TestSchedulePools:
    """Schedule-wide pools against the per-row loop, to the last bit."""

    def run_both(self, monkeypatch, corr, f, schedule, start_points, seed, cap,
                 starts=None):
        starts = starts or circle_starts(start_points, seed, radius=1.0)
        want_rows, want_pools = parent_rows(corr, f, schedule, starts, seed, cap)
        got_pools = record_pools(monkeypatch)
        report = pressure_estimate(corr, f, schedule, starts, seed=seed, cap=cap)
        assert list(report.rows) == want_rows
        assert len(got_pools) == len(want_pools) == len(schedule)
        for row, (want_paths, want_weights) in zip(schedule, want_pools):
            paths, weights = got_pools[row]
            # ForwardPath equality compares points exactly, and lists keep order.
            assert paths == want_paths
            assert weights == want_weights
        return report

    def test_z2_re(self, corr_z2, monkeypatch):
        self.run_both(monkeypatch, corr_z2, fn_re,
                      [(4, 0.05), (8, 0.05), (12, 0.05)], 40, 3, 4096)

    def test_z2_plus_z3_re(self, corr_z2z3, monkeypatch):
        report = self.run_both(monkeypatch, corr_z2z3, fn_re,
                               [(3, 0.05), (1, 0.05), (5, 0.1), (3, 0.1)], 5, 4, 4096)
        assert not report.truncated

    def test_mobius_pair_truncated_unsorted(self, corr_pair, monkeypatch):
        schedule = [(6, 0.05), (4, 0.05), (8, 0.05), (4, 0.1)]
        report = self.run_both(monkeypatch, corr_pair, fn_zero, schedule, 7, 5, 20)
        # The depth-4 pools are whole; 6 and 8 are thinned, and 8 grows
        # on from the thinned 6.
        assert [r.truncated for r in report.rows] == [True, False, True, False]

    def test_one_depth(self, corr_pair, monkeypatch):
        self.run_both(monkeypatch, corr_pair, fn_re, [(5, 0.05), (5, 0.2)], 3, 6, 4096)

    def test_mobius_pair_thinned_then_started_again(self, corr_pair, monkeypatch):
        # Depth 3 is whole, 5 grows from it and is thinned, and 6 and 8
        # grow on from 5; their weights are all carried sums.
        schedule = [(3, 0.05), (5, 0.05), (6, 0.1), (8, 0.05)]
        report = self.run_both(monkeypatch, corr_pair, fn_re, schedule, 6, 2, 20)
        assert [r.truncated for r in report.rows] == [False, True, True, True]

    def test_some_trees_start_again(self, monkeypatch):
        # mobius_pair with its first graph times (z - 1/2): the fiber of 1/2
        # loses that branch, so the tree of the start 1/2 is half the size
        # of the others.  With cap 20 it is whole at depth 5, where the
        # others are thinned, and all of them grow on to depth 6 alike.
        corr = parse_correspondence("1\n1 1 1 0\n2 0 -1 0\n1 0 -0.5 0\n0 1 -0.5 0\n"
                                    "0 0 0.5 0\n\n1\n0 1 1 0\n1 0 -2 0\n")
        self.run_both(monkeypatch, corr, fn_re, [(4, 0.05), (5, 0.05), (6, 0.05)],
                      4, 1, 20,
                      starts=single_start(0.5) + circle_starts(3, 1, radius=1.0))


@pytest.mark.parametrize("fixture,schedule,start_points,cap", [
    ("corr_pair", [(3, 0.05), (5, 0.05), (6, 0.1), (8, 0.05)], 6, 20),
    ("corr_z2z3", [(5, 0.05), (3, 0.05), (8, 0.05), (6, 0.1)], 6, 24)])
def test_thinned_pools_are_nested(fixture, schedule, start_points, cap, request,
                                  monkeypatch):
    # Every path of a depth's pool, cut to its first prev + 1 points, is a
    # path of the pool at the depth prev before it, thinned trees included.
    pools = {}
    real = pressure_mod.separated_subset

    def recorded(paths, eps, weight=None):
        pools[paths.length] = paths
        return real(paths, eps, weight=weight)

    monkeypatch.setattr(pressure_mod, "separated_subset", recorded)
    pressure_estimate(request.getfixturevalue(fixture), fn_re, schedule,
                      circle_starts(start_points, 5, radius=1.0), seed=5, cap=cap)
    depths = sorted(pools)
    assert sum(pools[n].thinned.any() for n in depths[:-1]) >= 2

    def rows(pool, m):
        return {(t, p.points[:m + 1], p.symbols[:m], p.branches[:m])
                for t, p in zip(pool.tree.tolist(), pool)}

    for prev, n in zip(depths, depths[1:]):
        assert rows(pools[n], prev) <= rows(pools[prev], prev)


def test_each_new_column_is_evaluated_once(corr_z2):
    # Each depth of 4, 8, 12 adds four columns of 500 circle starts' z2
    # orbits: 500 * 12 points evaluated, not 500 * (4 + 8 + 12).
    calls = [0]

    def counted(values, inverted):
        calls[0] += len(values)
        return fn_re(values, inverted)

    pressure_estimate(corr_z2, counted, [(4, 0.05), (8, 0.05), (12, 0.05)],
                      circle_starts(500, 801, radius=1.0), seed=801, cap=4096)
    assert calls[0] == 6000


def test_logsumexp_is_a_left_fold():
    # Terms of mixed size, where a compensated sum (math.fsum, or the
    # float sum builtin of Python 3.12 on) rounds differently.
    rng = np.random.default_rng(67)
    differs = 0
    for size in (1, 2, 3, 10, 100, 1000):
        for _ in range(20):
            values = (rng.normal(size=size) * rng.choice([1e-3, 1.0, 30.0])).tolist()
            m = max(values)
            total = 0.0
            for v in values:
                total = total + math.exp(v - m)
            assert pressure_mod._logsumexp(values) == m + math.log(total)
            differs += total != math.fsum(math.exp(v - m) for v in values)
    assert differs > 0


def test_logsumexp_ties_are_a_left_fold(monkeypatch):
    # Tied and all-equal terms share one exp each; the fold stays in order.
    exps = []

    def counted(x):
        exps.append(x)
        return real_exp(x)

    real_exp = math.exp
    rng = np.random.default_rng(71)
    cases = [[0.0], [0.0] * 7, [-2.5] * 1000, [1.0, -1.0, 1.0, -1.0, 0.3, 1.0],
             [1e-300, 0.0, -0.0, 1e-300]]
    for _ in range(30):
        pool = rng.normal(size=5) * rng.choice([1e-3, 1.0, 30.0])
        cases.append(rng.choice(pool, size=int(rng.integers(1, 400))).tolist())
    for values in cases:
        m = max(values)
        total = 0.0
        for v in values:
            total = total + math.exp(v - m)
        want = m + math.log(total)
        for given in (values, np.array(values)):
            exps.clear()
            with monkeypatch.context() as patch:
                # numpy's exp rounds differently, so every term is math.exp's.
                patch.setattr(pressure_mod.math, "exp", counted)
                got = pressure_mod._logsumexp(given)
            assert len(exps) == len(set(exps)) == len({v - m for v in values})
            assert type(got) is float
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def rows_and_weights(monkeypatch, corr, f, schedule, start_points, seed, cap):
    """The rows of ``pressure_estimate`` and the weights of each (n, eps)
    pool."""
    weights = {}

    def recorded(paths, eps, weight=None):
        weights[paths.length, eps] = weight.copy()
        return separated_subset(paths, eps, weight=weight)

    monkeypatch.setattr(pressure_mod, "separated_subset", recorded)
    report = pressure_estimate(corr, f, schedule,
                               circle_starts(start_points, seed, radius=1.0),
                               seed=seed, cap=cap)
    return report.rows, weights


def pointwise(f):
    """f evaluated one point at a time."""
    def g(values, inverted):
        return np.array([f(values[k:k + 1], inverted[k:k + 1])[0]
                         for k in range(len(values))], dtype=float)
    return g


POOL_CASES = {
    "z2": ("corr_z2", [(4, 0.05), (8, 0.05), (12, 0.05)], 60, 3, 4096),
    "z2_plus_z3": ("corr_z2z3", [(3, 0.05), (1, 0.05), (4, 0.1), (3, 0.1)], 5, 4, 4096),
    # Depth 3 is whole, 5 grows from it and is thinned, 6 and 8 grow on.
    "mobius_pair thinned": ("corr_pair", [(3, 0.05), (5, 0.05), (6, 0.1), (8, 0.05)],
                            6, 2, 20),
}


@pytest.mark.parametrize("f", [fn_re, fn_const(0.25), fn_log_abs],
                         ids=["re", "const:0.25", "log_abs"])
@pytest.mark.parametrize("case", POOL_CASES)
def test_chart_forms_give_the_scalar_rows(case, f, request, monkeypatch):
    fixture, schedule, start_points, seed, cap = POOL_CASES[case]
    corr = request.getfixturevalue(fixture)
    rest = (schedule, start_points, seed, cap)
    # Whole columns at a time give the bits of one point at a time.
    want_rows, want_weights = rows_and_weights(monkeypatch, corr, pointwise(f), *rest)
    rows, weights = rows_and_weights(monkeypatch, corr, f, *rest)
    assert rows == want_rows
    assert weights.keys() == want_weights.keys()
    for key, w in weights.items():
        assert np.array_equal(w.view(np.uint64), want_weights[key].view(np.uint64))
