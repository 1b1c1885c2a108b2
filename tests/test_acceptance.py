"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time

import numpy as np
import pytest

from corrdyn.cli import RunConfig, cmd_pipeline
from corrdyn.datasets import bundled_correspondence, bundled_text
from corrdyn.functions import fn_const, fn_re, fn_zero
from corrdyn.grid import SphereGrid
from corrdyn.measures import (PathMeasure, SphereMeasure, SpherePartition,
                              VariationalEntry, check_shift_invariance,
                              empirical_invariant_measure,
                              intermediate_entropy, join, measure_distance,
                              partition_entropy, pushforward, total_variation,
                              variational_check)
from corrdyn.paths import ForwardPath, path_metric
from corrdyn.pressure import circle_starts, pressure_estimate
from corrdyn.pullback import ds_support, invariant_forward_paths, pullback_iterate
from corrdyn.sphere import SpherePoint, sph_dist
from corrdyn.transfer import (ActiveGrid, GridFunction, TransferKernel,
                              adjoint_fixed_point, convergence_check,
                              lifted_consistency_check, normalize,
                              power_iteration)


def sp(z):
    return SpherePoint.from_complex(z)


def ok(criterion, text):
    print(f"[criterion {criterion:>2}] PASS: {text}")


ENTROPY_SCHEDULE = [(2, 0.05), (4, 0.05), (6, 0.05), (8, 0.05)]


@pytest.fixture(scope="module")
def z2_stack(corr_z2):
    """Shared transfer pipeline for the squaring map."""
    grid = SphereGrid(2000)
    levels = pullback_iterate(corr_z2, 0.5 + 0.3j, n=12, cap=8192, seed=101,
                              grid=grid)
    support = ds_support(levels, threshold=0.5, cert_bound=0.05)
    active = ActiveGrid(grid, support.core)
    kernel = TransferKernel(corr_z2, active, support.cells)
    f0 = GridFunction.constant(active, 0.0)
    spectral = power_iteration(kernel, f0, tol=1e-11, seed=1, max_iter=2000)
    return grid, active, kernel, f0, spectral


def test_criterion_01_degrees(tmp_path):
    t0 = time.monotonic()
    expected = {"mobius": (1, 1), "z2": (1, 2), "z3": (1, 3),
                "z2_plus_z3": (2, 5)}
    for name, degs in expected.items():
        (tmp_path / f"{name}.corr").write_text(bundled_text(name))
        config = RunConfig({"correspondence": f"{name}.corr",
                            "out": str(tmp_path / f"out_{name}")},
                           base_dir=tmp_path)
        report = cmd_pipeline(config, "degrees")
        assert (report["d_fwd"], report["d_top"]) == degs
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    ok(1, f"bundled degrees (1,1) (1,2) (1,3) (2,5) in {elapsed:.2f}s")


def test_criterion_02_equidistribution(corr_z2):
    t0 = time.monotonic()
    grid = SphereGrid(10_000)
    finals = []
    for start, seed in ((0.5 + 0.3j, 7), (-0.4 + 0.8j, 8)):
        levels = pullback_iterate(corr_z2, start, n=12, cap=8192, seed=seed,
                                  grid=grid)
        final = levels[-1]
        near = 0.0
        for idx in np.nonzero(final.weights)[0]:
            u = grid.cell_center(int(idx)).unit_vector()
            s = math.hypot(u[0], u[1])
            d_circle = np.linalg.norm(u - np.array([u[0] / s, u[1] / s, 0.0]))
            if d_circle <= 0.05:
                near += final.weights[idx]
        assert near >= 0.99
        finals.append(final)
    gap = measure_distance(finals[0], finals[1])
    assert gap <= 0.02
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    ok(2, f"99% of pullback mass within 0.05 of the circle, "
          f"start gap {gap:.4f}, {elapsed:.1f}s")


def test_criterion_03_entropy(corr_z2, corr_pair, corr_mobius):
    t0 = time.monotonic()
    r_z2 = pressure_estimate(corr_z2, fn_zero, ENTROPY_SCHEDULE,
                             circle_starts(256, 11, radius=1.0), seed=11, cap=4096)
    assert math.log(2) - 0.1 <= r_z2.pressure <= math.log(2) + 0.1

    one_start = [sp(0.25)]
    r_pair = pressure_estimate(corr_pair, fn_zero, ENTROPY_SCHEDULE, one_start,
                               seed=11, cap=512)
    assert abs(r_pair.pressure - math.log(2)) <= 0.05

    r_mob = pressure_estimate(corr_mobius, fn_zero, ENTROPY_SCHEDULE, one_start,
                              seed=11, cap=4096)
    assert abs(r_mob.pressure) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    ok(3, f"entropies z2={r_z2.pressure:.3f} pair={r_pair.pressure:.4f} "
          f"mobius={r_mob.pressure:.1e}, {elapsed:.1f}s")


def test_criterion_04_pressure_shift_law(corr_z2):
    starts = circle_starts(256, 11, radius=1.0)
    base = pressure_estimate(corr_z2, fn_zero, ENTROPY_SCHEDULE, starts, seed=11,
                             cap=4096)
    shifted = pressure_estimate(corr_z2, fn_const(0.7), ENTROPY_SCHEDULE, starts, seed=11,
                                cap=4096)
    gap = shifted.pressure - base.pressure
    assert abs(gap - 0.7) <= 1e-10
    ok(4, f"pressure(f=0.7) - entropy = {gap:.12f}")


def test_criterion_05_ruelle_spectra(corr_z2, corr_z3, z2_stack):
    grid, active, kernel, f0, spectral = z2_stack
    # Time a full stand-alone z2 case: pullback, support, kernel, spectra.
    t0 = time.monotonic()
    levels2 = pullback_iterate(corr_z2, 0.5 + 0.3j, n=12, cap=8192, seed=103,
                               grid=grid)
    support2 = ds_support(levels2, threshold=0.5, cert_bound=0.05)
    active2 = ActiveGrid(grid, support2.core)
    spec2 = power_iteration(TransferKernel(corr_z2, active2, support2.cells),
                            GridFunction.constant(active2, 0.0), tol=1e-11, seed=1,
                            max_iter=2000)
    t_z2 = time.monotonic() - t0
    assert abs(spec2.lam - 2.0) <= 1e-6
    assert abs(spectral.lam - 2.0) <= 1e-6
    rel_var = (spectral.h.values.max() - spectral.h.values.min())
    assert rel_var <= 1e-6

    t0 = time.monotonic()
    levels3 = pullback_iterate(corr_z3, 0.5 + 0.3j, n=9, cap=4096, seed=102,
                               grid=grid)
    support3 = ds_support(levels3, threshold=0.5, cert_bound=0.05)
    active3 = ActiveGrid(grid, support3.core)
    f3 = GridFunction.constant(active3, 0.0)
    spec3 = power_iteration(TransferKernel(corr_z3, active3, support3.cells), f3,
                            tol=1e-11, seed=2, max_iter=2000)
    assert abs(spec3.lam - 3.0) <= 1e-6
    assert spec3.h.values.max() - spec3.h.values.min() <= 1e-6
    t_z3 = time.monotonic() - t0
    assert t_z2 < 10.0 and t_z3 < 10.0

    c = 0.4
    fc = GridFunction.constant(active, c)
    spec_c = power_iteration(kernel, fc, tol=1e-11, seed=1, max_iter=2000)
    assert abs(spec_c.lam - math.exp(c) * spectral.lam) <= 1e-8
    ok(5, f"lambda(z2)={spectral.lam:.9f} lambda(z3)={spec3.lam:.9f} "
          f"lambda(f=c)/lambda(0)=e^c to 1e-8; {t_z2:.1f}s / {t_z3:.1f}s")


def test_criterion_06_normalization(corr_z2, z2_stack):
    grid, active, kernel, f0, spectral = z2_stack
    worst = 0.0
    for f in (f0, GridFunction.from_callable(active, fn_re)):
        spec = power_iteration(kernel, f, tol=1e-11, seed=1, max_iter=2000)
        weights = normalize(f, spec, kernel)
        worst = max(worst, float(np.abs(weights.row_sums - 1.0).max()))
    assert worst <= 1e-8
    ok(6, f"normalized branch-weight row sums within {worst:.2e} of 1")


def test_criterion_07_fixed_point_measure(corr_z2, z2_stack):
    grid, active, kernel, f0, spectral = z2_stack
    tol = 1e-11
    norm = normalize(f0, spectral, kernel)
    adj_a = adjoint_fixed_point(kernel, norm, tol=tol, seed=5, depth=2)
    adj_b = adjoint_fixed_point(kernel, norm, tol=tol, seed=6, depth=2)
    support = [c for c in active.cells if adj_a.nu.weights[c] > 0]
    uniform = np.zeros(grid.n_cells)
    uniform[support] = 1.0 / len(support)
    tv_uniform = total_variation(adj_a.nu, SphereMeasure(grid, uniform))
    assert tv_uniform <= 0.02
    assert adj_a.unique
    assert total_variation(adj_a.nu, adj_b.nu) <= 10.0 * tol

    g = GridFunction.from_callable(active, fn_re)
    conv = convergence_check(kernel, f0, g, spectral, adj_a.nu, n_max=40)
    assert conv.errors[-1] < 1e-6
    for a, b in zip(conv.errors, conv.errors[1:]):
        assert b <= a + 1e-12
    ok(7, f"nu within {tv_uniform:.3%} TV of uniform, starts agree, "
          f"e_40={conv.errors[-1]:.1e} monotone")


def test_criterion_08_lifted_operator_identity(corr_z2, z2_stack):
    grid, active, kernel, f0, spectral = z2_stack
    rng = np.random.default_rng(21)
    paths = []
    k = 0
    while len(paths) < 100:
        x0 = sp(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        paths.extend(invariant_forward_paths(corr_z2, active.cells, x0, n=5,
                                             cap=4, seed=22 + k, grid=grid))
        k += 1
    paths = paths[:100]
    f_re = GridFunction.from_callable(active, fn_re)
    worst = 0.0
    for i in range(100):
        g = GridFunction(active, rng.normal(size=active.n_active))
        f = f0 if i % 2 == 0 else f_re
        worst = max(worst, lifted_consistency_check(corr_z2, f, g, paths))
    assert worst <= 1e-12
    ok(8, f"lifted operator identity discrepancy {worst:.1e} over "
          f"100 g x {len(paths)} paths")


def test_criterion_09_pushforward_stationarity(corr_pair):
    grid = SphereGrid(400)
    checked = 0
    for seed, n_keep in ((31, 20000), (32, 20000)):
        mu = empirical_invariant_measure(corr_pair, 1.0, n_burn=100,
                                         n_keep=n_keep, depth=3, seed=seed,
                                         grid=grid)
        defect = check_shift_invariance(mu, tol=0.02).defect
        if defect > 0.02:
            continue
        gap = measure_distance(pushforward(mu, 0), pushforward(mu, 1))
        assert gap <= 0.05
        checked += 1
    assert checked >= 1
    ok(9, f"push-forward stationarity holds on {checked} empirical measures")


def bernoulli_at_cell(cell, depth, p=0.5):
    out = {}
    for word in itertools.product((1, 2), repeat=depth):
        w = 1.0
        for s in word:
            w *= p if s == 2 else 1.0 - p
        out[tuple((cell, s) for s in word)] = w
    return out


def test_criterion_10_full_shift_consistency(corr_pair):
    grid = SphereGrid(400)
    cell = grid.cell_index(SpherePoint.infinity())
    depth = 4
    mu = PathMeasure.from_cylinders(grid, bernoulli_at_cell(cell, depth))
    nu = pushforward(mu, 0)
    rate = intermediate_entropy(nu, mu, [SpherePartition.trivial(grid)],
                                n_max=depth)
    assert abs(rate - math.log(2)) <= 0.05
    # Direct cylinder entropy rate of the shift from symbol marginals.
    def symbol_entropy(n):
        mass = {}
        for key, w in zip(mu.words.tolist(), mu.weights):
            word = tuple(s for _, s in key[:n])
            mass[word] = mass.get(word, 0.0) + w
        return -sum(v * math.log(v) for v in mass.values() if v > 0)
    direct = symbol_entropy(depth) - symbol_entropy(depth - 1)
    assert abs(rate - direct) <= 0.02
    ok(10, f"full-shift rate {rate:.6f} matches direct rate {direct:.6f}")


def _z2_entries(corr_z2, grid, active, kernel, f0, spectral):
    entries = []
    for label, z in (("fixed_0", 0.0), ("fixed_inf", None)):
        point = SpherePoint.infinity() if z is None else sp(z)
        path = ForwardPath((point,) * 7, (1,) * 6, (1,) * 6)
        mu = PathMeasure.from_paths(grid, [path])
        entries.append(VariationalEntry(label, pushforward(mu, 0), (mu,)))
    # Even mixture of the two fixed-point orbits.
    p0 = ForwardPath((sp(0.0),) * 7, (1,) * 6, (1,) * 6)
    p1 = ForwardPath((SpherePoint.infinity(),) * 7, (1,) * 6, (1,) * 6)
    mu_mix = PathMeasure.from_paths(grid, [p0, p1])
    entries.append(VariationalEntry("mix", pushforward(mu_mix, 0), (mu_mix,)))
    # The period-two cycle of the squaring map.
    a, b = np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)
    cyc_a = ForwardPath(tuple(sp(a if i % 2 == 0 else b) for i in range(7)),
                        (1,) * 6, (1,) * 6)
    cyc_b = ForwardPath(tuple(sp(b if i % 2 == 0 else a) for i in range(7)),
                        (1,) * 6, (1,) * 6)
    mu_cyc = PathMeasure.from_paths(grid, [cyc_a, cyc_b])
    entries.append(VariationalEntry("cycle2", pushforward(mu_cyc, 0), (mu_cyc,)))
    # Equilibrium candidate from the adjoint fixed point at depth 6.
    norm = normalize(f0, spectral, kernel)
    adj = adjoint_fixed_point(kernel, norm, tol=1e-10, seed=9, depth=6)
    entries.append(VariationalEntry("adjoint", adj.nu, (adj.mu0,)))
    return entries


def _pair_entries(grid):
    cell = grid.cell_index(SpherePoint.infinity())
    entries = []
    for p in (0.5, 0.3, 0.7, 0.9, 0.1):
        mu = PathMeasure.from_cylinders(grid, bernoulli_at_cell(cell, 4, p))
        entries.append(VariationalEntry(f"bernoulli_{p}", pushforward(mu, 0), (mu,)))
    return entries


def test_criterion_11_variational_inequality(corr_z2, corr_pair, z2_stack):
    grid, active, kernel, f0, spectral = z2_stack
    slack = 0.05
    partitions = [SpherePartition.trivial(grid),
                  SpherePartition.sectors(grid, 1, 2),
                  SpherePartition.sectors(grid, 1, 8),
                  SpherePartition.sectors(grid, 2, 16)]
    z2_entries = _z2_entries(corr_z2, grid, active, kernel, f0, spectral)
    pair_entries = _pair_entries(grid)
    pair_grid_partitions = [SpherePartition.trivial(grid)]

    bernoulli_gap = None
    for f, f_fn in (("zero", fn_zero), ("re", fn_re)):
        pr_z2 = pressure_estimate(corr_z2, f_fn, ENTROPY_SCHEDULE,
                                  circle_starts(256, 11, radius=1.0), seed=11, cap=4096)
        rep = variational_check(f_fn, z2_entries, pr_z2.pressure,
                                partitions=partitions, n_max=6, slack=slack)
        assert rep.all_within, [(r.label, r.value, rep.pressure) for r in rep.rows]
        assert len(rep.rows) >= 5

        pr_pair = pressure_estimate(corr_pair, f_fn, ENTROPY_SCHEDULE,
                                    [sp(0.25)], seed=11, cap=512)
        rep_pair = variational_check(f_fn, pair_entries, pr_pair.pressure,
                                     partitions=pair_grid_partitions,
                                     n_max=4, slack=slack)
        assert rep_pair.all_within
        assert len(rep_pair.rows) >= 5
        if f == "zero":
            for row in rep_pair.rows:
                if row.label == "bernoulli_0.5":
                    bernoulli_gap = row.gap
    assert bernoulli_gap is not None and abs(bernoulli_gap) <= 0.05
    ok(11, f"variational rows within slack on both benchmarks; "
           f"full-shift Bernoulli gap {bernoulli_gap:.2e}")


def test_criterion_12_metric_and_mass_suites(corr_z2):
    rng = np.random.default_rng(71)
    pts = [sp(complex(rng.normal(scale=2), rng.normal(scale=2)))
           for _ in range(60)] + [SpherePoint.infinity()]
    for i, j, k in rng.integers(0, len(pts), size=(10_000, 3)):
        p, q, r = pts[i], pts[j], pts[k]
        assert sph_dist(p, q) == sph_dist(q, p)
        assert sph_dist(p, q) <= sph_dist(p, r) + sph_dist(r, q) + 1e-12

    paths = []
    for _ in range(40):
        points = tuple(sp(complex(rng.normal(), rng.normal())) for _ in range(4))
        symbols = tuple(int(s) for s in rng.integers(1, 3, size=3))
        paths.append(ForwardPath(points, symbols, (1, 1, 1)))
    for i, j, k in rng.integers(0, len(paths), size=(10_000, 3)):
        p, q, r = paths[i], paths[j], paths[k]
        assert path_metric(p, q) == path_metric(q, p)
        assert path_metric(p, q) <= path_metric(p, r) + path_metric(r, q) + 1e-12

    grid = SphereGrid(300)
    w = rng.random(grid.n_cells)
    m = SphereMeasure(grid, w / w.sum())
    a = SpherePartition.sectors(grid, 3, 1)
    b = SpherePartition.sectors(grid, 1, 4)
    hj = partition_entropy(m, join(a, b))
    assert hj >= partition_entropy(m, a) - 1e-12
    assert hj >= partition_entropy(m, b) - 1e-12

    levels = pullback_iterate(corr_z2, 0.4 + 0.5j, n=10, cap=2048, seed=72,
                              grid=grid)
    for level in levels:
        assert abs(level.weights.sum() - 1.0) <= 1e-10
    assert abs(m.weights.sum() - 1.0) <= 1e-10
    ok(12, "metric axioms, join monotonicity and mass conservation clean")
