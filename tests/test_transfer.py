import functools
import math
import operator
from types import SimpleNamespace

import numpy as np
import pytest

from corrdyn import transfer as transfer_mod
from corrdyn.correspondence import expansivity_probe, parse_correspondence
from corrdyn.datasets import BUNDLED, bundled_correspondence
from corrdyn.errors import (NonPositiveEigenfunction, PreimageOutsideSupport)
from corrdyn.functions import fn_re
from corrdyn.grid import SphereGrid
from corrdyn.measures import check_shift_invariance, pushforward, total_variation
from corrdyn.pullback import ds_support, invariant_forward_paths, pullback_iterate
from corrdyn.sphere import SpherePoint
from corrdyn.transfer import (ActiveGrid, GridFunction, TransferKernel,
                              adjoint_fixed_point, convergence_check,
                              holder_norm, lifted_consistency_check, normalize,
                              power_iteration)


def pipeline_active(grid, corr, x0=0.5 + 0.3j, n=12, cap=8192, seed=41):
    """Operator domain from the pullback pipeline: the support core.

    The one-ring dilation stays a clamping buffer; putting the fattening
    itself into the domain would add spurious closed classes on either
    side of the invariant circle.
    """
    levels = pullback_iterate(corr, x0, n=n, cap=cap, seed=seed, grid=grid)
    support = ds_support(levels, threshold=0.5, cert_bound=0.05)
    return ActiveGrid(grid, support.core)


def dense_transition(kernel, weights):
    """The normalized backward kernel as a dense matrix, folded from the
    kernel's edges."""
    n = kernel.active.n_active
    p = np.zeros((n, n))
    np.add.at(p, (kernel.src, kernel.tgt), kernel.mult * weights)
    return p


#: 2 (w^2 - z^3) + (w - z^2 - z): a component of multiplicity two.
MULTIPLICITY_TWO = "2\n0 2 1 0\n3 0 -1 0\n\n1\n0 1 1 0\n2 0 -1 0\n1 0 -1 0\n"


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(2000)


@pytest.fixture(scope="module")
def active(grid, corr_z2):
    return pipeline_active(grid, corr_z2)


@pytest.fixture(scope="module")
def kernel_z2(corr_z2, active):
    return TransferKernel(corr_z2, active)


@pytest.fixture(scope="module")
def spectral_z2(corr_z2, active, kernel_z2):
    f = GridFunction.constant(active, 0.0)
    return power_iteration(kernel_z2, f, tol=1e-11, seed=1, max_iter=2000,
                           expansivity=None)


class TestApply:
    def test_counting_identity(self, corr_z2, active, kernel_z2):
        f = GridFunction.constant(active, 0.0)
        g = GridFunction.constant(active, 1.0)
        out = GridFunction(active, kernel_z2.apply(f.values, g.values))
        np.testing.assert_allclose(out.values, 2.0, atol=1e-12)

    def test_constant_weight(self, corr_z2, active, kernel_z2):
        c = 0.3
        f = GridFunction.constant(active, c)
        g = GridFunction.constant(active, 1.0)
        out = GridFunction(active, kernel_z2.apply(f.values, g.values))
        np.testing.assert_allclose(out.values, 2.0 * math.exp(c), rtol=1e-12)

    def test_indicator_matches_branch_enumeration(self, corr_z2, active, kernel_z2):
        # Oracle: direct backward-branch sums per active center.
        target = active.n_active // 3
        g = GridFunction(active, np.eye(active.n_active)[target])
        f = GridFunction.from_callable(active, fn_re)
        out = GridFunction(active, kernel_z2.apply(f.values, g.values))
        for i, center in enumerate(active.centers):
            expected = 0.0
            for b in corr_z2.backward_images(center).branches:
                pos = active.position_of_point(b.point)
                if pos == target:
                    expected += b.multiplicity * math.exp(f.values[pos])
            assert out.values[i] == pytest.approx(expected, abs=1e-12)

    def test_linearity_and_positivity(self, corr_z2, active, kernel_z2):
        rng = np.random.default_rng(61)
        f = GridFunction.from_callable(active, fn_re)
        g1 = GridFunction(active, rng.normal(size=active.n_active))
        g2 = GridFunction(active, rng.normal(size=active.n_active))
        a, b = 0.7, -1.3
        combo = GridFunction(active, a * g1.values + b * g2.values)
        def op(g):
            return GridFunction(active, kernel_z2.apply(f.values, g.values)).values

        lhs = op(combo)
        rhs = a * op(g1) + b * op(g2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        pos = GridFunction(active, np.abs(g1.values))
        assert op(pos).min() >= 0.0

    def test_preimage_outside_support(self, grid, corr_z2):
        # A lone cell far from the circle: preimages land well outside.
        cell = grid.cell_index(SpherePoint.from_complex(9.0))
        with pytest.raises(PreimageOutsideSupport):
            TransferKernel(corr_z2, ActiveGrid(grid, [cell]))


def object_loop_kernel(corr, active, row_fibers):
    """Reference copy of the kernel's edge loop over one fiber object per
    active center, as it was before the kernel read fiber arrays: the
    edge arrays and the number of preimages clamped from the ring."""
    grid = active.grid
    dilated = grid.dilate(active.cells)
    src, tgt, mult, comp = [], [], [], []
    clamped = 0
    for i, fiber in enumerate(row_fibers(corr, active.centers)):
        for b in fiber.branches:
            cell = grid.cell_index(b.point)
            if cell in active.position:
                j = active.position[cell]
            elif cell in dilated:
                j = active.position_of_point(b.point)
                clamped += 1
            else:
                raise PreimageOutsideSupport(
                    f"preimage of cell {active.cells[i]} lands in cell "
                    f"{cell}, beyond the dilation ring")
            src.append(i)
            tgt.append(j)
            mult.append(b.multiplicity)
            comp.append(b.component)
    edges = (np.asarray(src), np.asarray(tgt), np.asarray(mult, dtype=float),
             np.asarray(comp))
    return edges, clamped


class TestKernelEdges:
    @pytest.mark.parametrize("name", ["corr_z2", "corr_z2z3"])
    def test_edges_equal_object_loop(self, grid, name, request, row_fibers):
        # The spectral benchmark's pullback: its support core leaves some
        # preimages in the dilation ring, so they are clamped.
        corr = request.getfixturevalue(name)
        active = pipeline_active(grid, corr, n=6, cap=1024)
        kernel = TransferKernel(corr, active)
        edges, clamped = object_loop_kernel(corr, active, row_fibers)
        assert clamped > 0
        for got, want in zip((kernel.src, kernel.tgt, kernel.mult, kernel.comp),
                             edges):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", [*BUNDLED, "multiplicity_two"])
    def test_edges_run_by_source(self, name):
        # ``_chain_cylinders`` reads each cell's edges as one run.
        corr = (parse_correspondence(MULTIPLICITY_TWO) if name == "multiplicity_two"
                else bundled_correspondence(name))
        small = SphereGrid(300)
        kernel = TransferKernel(corr, ActiveGrid(small, range(small.n_cells)))
        assert kernel.mult.sum() == corr.d_top * small.n_cells
        assert (np.diff(kernel.src) >= 0).all()

    @pytest.mark.parametrize("name", ["corr_z2", "corr_z2z3"])
    def test_outside_support_message(self, grid, name, request, row_fibers):
        corr = request.getfixturevalue(name)
        active = ActiveGrid(grid, [grid.cell_index(SpherePoint.from_complex(9.0))])
        with pytest.raises(PreimageOutsideSupport) as want:
            object_loop_kernel(corr, active, row_fibers)
        with pytest.raises(PreimageOutsideSupport) as got:
            TransferKernel(corr, active)
        assert str(got.value) == str(want.value)


class TestHolder:
    def test_constant_function(self, active):
        f = GridFunction.constant(active, 1.7)
        report = holder_norm(f, lam=2.0, k_max=6)
        assert report.omegas == (0.0,) * 6
        assert report.alpha_norm == pytest.approx(1.7)
        assert report.is_member

    def test_lipschitz_bound_for_re(self, active):
        # Exhaustive pair scan: |Re z - Re w| <= chordal distance on the
        # circle, so omega_k <= 2^-(k-1) plus the cell-center slack.
        f = GridFunction.from_callable(active, fn_re)
        report = holder_norm(f, lam=2.0, k_max=12)
        for k, omega in enumerate(report.omegas, start=1):
            assert omega <= 2.0 ** (-(k - 1)) + 1e-12
        for a, b in zip(report.omegas, report.omegas[1:]):
            assert b <= a
        assert report.alpha_norm >= report.sup_norm

    def test_scale_count_precondition(self, active):
        f = GridFunction.constant(active, 0.0)
        with pytest.raises(ValueError):
            holder_norm(f, lam=2.0, k_max=0)

    def test_nan_lam_rejected(self):
        # A NaN lam fails every comparison, so "lam <= 1" let it through.
        ramp = GridFunction(ActiveGrid(SphereGrid(400), range(50)), np.arange(50.0))
        with pytest.raises(ValueError, match="lam must exceed 1, got nan"):
            holder_norm(ramp, lam=math.nan, k_max=3)
        for lam in (1.0, 0.5, -math.inf):
            with pytest.raises(ValueError):
                holder_norm(ramp, lam=lam, k_max=3)
        # An infinite lam stays accepted: every scale past the first is 0.
        report = holder_norm(ramp, lam=math.inf, k_max=3)
        assert report.omegas[1:] == (0.0, 0.0) and report.alpha == 0.0

    def test_alpha_norm_is_a_left_fold(self, grid):
        # The moduli are added in order from 0; a compensated sum (the
        # float sum builtin from Python 3.12 on) rounds some cases apart.
        rng = np.random.default_rng(71)
        compensated_differs = 0
        for _ in range(20):
            active = ActiveGrid(grid, rng.choice(grid.n_cells, size=80, replace=False))
            f = GridFunction(active, rng.normal(size=active.n_active))
            report = holder_norm(f, lam=float(rng.uniform(1.05, 1.3)), k_max=12)
            fold = functools.reduce(operator.add, report.omegas, 0.0)
            assert report.alpha_norm == fold + report.sup_norm
            compensated_differs += math.fsum(report.omegas) != fold
        assert compensated_differs

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_row_blocks_match_all_pairs(self, grid, monkeypatch, block):
        # Oracle: the moduli from the full N x N x 3 difference array.
        monkeypatch.setattr(transfer_mod, "_HOLDER_BLOCK", block)
        rng = np.random.default_rng(61)
        for size in (1, 2, 79, 300):
            active = ActiveGrid(grid, rng.choice(grid.n_cells, size=size, replace=False))
            f = GridFunction(active, rng.normal(size=active.n_active))
            lam = float(rng.uniform(1.5, 4.0))
            vecs = active._center_vectors
            dist = np.linalg.norm(vecs[:, None, :] - vecs[None, :, :], axis=2)
            gap = np.abs(f.values[:, None] - f.values[None, :])
            want = []
            for k in range(1, 13):
                mask = dist <= lam ** (-(k - 1))
                want.append(float(gap[mask].max()) if mask.any() else 0.0)
            assert holder_norm(f, lam=lam, k_max=12).omegas == tuple(want)


class TestPowerIteration:
    def test_doubling_eigenvalue(self, spectral_z2):
        assert spectral_z2.lam == pytest.approx(2.0, abs=1e-6)
        h = spectral_z2.h.values
        assert h.max() == pytest.approx(1.0)
        assert h.min() >= 1.0 - 1e-6
        assert spectral_z2.residual <= 1e-11 * spectral_z2.lam

    def test_tripling_eigenvalue(self, corr_z3, grid):
        active = pipeline_active(grid, corr_z3, n=9, cap=4096, seed=42)
        f = GridFunction.constant(active, 0.0)
        spec = power_iteration(TransferKernel(corr_z3, active), f, tol=1e-11, seed=2,
                               max_iter=2000, expansivity=None)
        assert spec.lam == pytest.approx(3.0, abs=1e-6)
        assert spec.h.values.min() >= 1.0 - 1e-6

    def test_constant_potential_scales_eigenvalue(self, corr_z2, active, kernel_z2,
                                                  spectral_z2):
        c = 0.4
        f = GridFunction.constant(active, c)
        spec = power_iteration(kernel_z2, f, tol=1e-11, seed=1, max_iter=2000,
                               expansivity=None)
        assert spec.lam == pytest.approx(math.exp(c) * spectral_z2.lam, rel=1e-8)
        np.testing.assert_allclose(spec.h.values, spectral_z2.h.values, atol=1e-8)

    @pytest.mark.parametrize("f_label", ["zero", "re"])
    def test_one_apply_per_step(self, active, kernel_z2, f_label, monkeypatch):
        # Oracle: the loop that applied the operator twice a step, to the
        # iterate and again for the residual.
        f = (GridFunction.constant(active, 0.0) if f_label == "zero"
             else GridFunction.from_callable(active, fn_re))

        def two_applies(kernel, f, tol, max_iter, seed):
            rng = np.random.default_rng(seed)
            g = rng.uniform(0.5, 1.5, size=f.active.n_active)
            lam_prev, residuals = None, []
            for iteration in range(1, max_iter + 1):
                kg = kernel.apply(f.values, g)
                lam = float(kg.max())
                g_next = kg / lam
                residual = float(np.abs(kernel.apply(f.values, g_next)
                                        - lam * g_next).max())
                residuals.append(residual)
                if (lam_prev is not None
                        and abs(lam - lam_prev) < tol * max(1.0, lam)
                        and residual < tol * lam):
                    tail = [residuals[i + 1] / residuals[i]
                            for i in range(len(residuals) - 4, len(residuals) - 1)
                            if residuals[i] > 0]
                    return (lam, g_next / g_next.max(), iteration, residual,
                            float(np.median(tail)))
                lam_prev = lam
                g = g_next

        want = two_applies(kernel_z2, f, 1e-11, 2000, 9)
        calls = []
        apply = kernel_z2.apply
        monkeypatch.setattr(kernel_z2, "apply",
                            lambda *args: calls.append(1) or apply(*args))
        spec = power_iteration(kernel_z2, f, tol=1e-11, seed=9, max_iter=2000,
                               expansivity=None)
        assert len(calls) == spec.iterations + 1
        assert spec.lam == want[0]
        assert spec.h.values.tobytes() == want[1].tobytes()
        assert (spec.iterations, spec.residual, spec.gap_estimate) == want[2:]

    def test_grid_refinement_stability(self, corr_z2):
        lams = []
        for n_cells in (1000, 2000):
            act = pipeline_active(SphereGrid(n_cells), corr_z2)
            f = GridFunction.from_callable(act, fn_re)
            lams.append(power_iteration(TransferKernel(corr_z2, act), f,
                                       tol=1e-10, seed=3, max_iter=2000,
                                       expansivity=None).lam)
        assert abs(lams[1] - lams[0]) <= 0.01 * lams[0]


class TestNormalize:
    def test_doubling_weights_are_half(self, corr_z2, active, kernel_z2, spectral_z2):
        f = GridFunction.constant(active, 0.0)
        norm = normalize(f, spectral_z2, kernel_z2)
        np.testing.assert_allclose(norm.weights, 0.5, atol=1e-6)
        np.testing.assert_allclose(norm.row_sums, 1.0, atol=1e-8)

    def test_row_sums_for_smooth_potential(self, corr_z2, active, kernel_z2):
        f = GridFunction.from_callable(active, fn_re)
        spec = power_iteration(kernel_z2, f, tol=1e-11, seed=4, max_iter=2000,
                               expansivity=None)
        norm = normalize(f, spec, kernel_z2)
        assert np.abs(norm.row_sums - 1.0).max() <= 1e-8

    def test_nonpositive_eigenfunction_rejected(self, corr_z2, active, kernel_z2,
                                                spectral_z2):
        from corrdyn.transfer import SpectralResult
        bad_h = GridFunction(active, spectral_z2.h.values - 1.0)
        bad = SpectralResult(spectral_z2.lam, bad_h, 1, 0.0, None)
        f = GridFunction.constant(active, 0.0)
        with pytest.raises(NonPositiveEigenfunction):
            normalize(f, bad, kernel_z2)


@pytest.mark.parametrize("tol,max_iter,message", [
    (-1.0, 10, "tol must be positive and finite, got -1.0"),
    (0.0, 10, "tol must be positive and finite, got 0.0"),
    (math.nan, 10, "tol must be positive and finite, got nan"),
    (math.inf, 10, "tol must be positive and finite, got inf"),
    (1e-10, 0, "max_iter must be at least 1, got 0")])
def test_iteration_bounds_rejected(active, kernel_z2, spectral_z2, tol, max_iter,
                                   message):
    # Such a tol or max_iter ran every step, then raised NonConvergence.
    f = GridFunction.constant(active, 0.0)
    with pytest.raises(ValueError, match=message):
        power_iteration(kernel_z2, f, tol=tol, max_iter=max_iter, seed=0,
                        expansivity=None)
    if max_iter >= 1:  # the adjoint's step bound is ADJOINT_MAX_ITER
        with pytest.raises(ValueError, match=message):
            adjoint_fixed_point(kernel_z2, f, spectral_z2, tol=tol, seed=0, depth=1)


class TestAdjoint:
    def test_doubling_stationary_is_arc_length(self, corr_z2, active, kernel_z2,
                                               spectral_z2):
        f = GridFunction.constant(active, 0.0)
        adj = adjoint_fixed_point(kernel_z2, f, spectral_z2, tol=1e-10,
                                  seed=5, depth=2)
        assert adj.unique
        # Oracle: inverse iteration of the doubling map equidistributes by
        # arc length, so nu should be uniform over the cells it charges.
        support = [c for c in active.cells if adj.nu.weights[c] > 1e-6]
        uniform = np.zeros(adj.nu.grid.n_cells)
        uniform[support] = 1.0 / len(support)
        from corrdyn.measures import SphereMeasure
        tv = total_variation(adj.nu, SphereMeasure(adj.nu.grid, uniform))
        assert tv <= 0.02
        # mu0 is shift invariant and pushes forward to nu.
        report = check_shift_invariance(adj.mu0, tol=1e-9)
        assert report.passed
        tv0 = total_variation(pushforward(adj.mu0, 0), adj.nu)
        assert tv0 <= 1e-9

    def test_two_seeds_agree(self, corr_z2, active, kernel_z2, spectral_z2):
        f = GridFunction.constant(active, 0.0)
        a = adjoint_fixed_point(kernel_z2, f, spectral_z2, tol=1e-10, seed=6, depth=1)
        b = adjoint_fixed_point(kernel_z2, f, spectral_z2, tol=1e-10, seed=7, depth=1)
        assert total_variation(a.nu, b.nu) <= 1e-8

    def test_stationarity_against_matrix_oracle(self, corr_z2, active, kernel_z2):
        # Oracle: solve for the stationary vector with a dense eigensolve.
        f = GridFunction.from_callable(active, fn_re)
        spec = power_iteration(kernel_z2, f, tol=1e-11, seed=8, max_iter=2000,
                               expansivity=None)
        p = dense_transition(kernel_z2, normalize(f, spec, kernel_z2).weights)
        adj = adjoint_fixed_point(kernel_z2, f, spec, tol=1e-12, seed=8, depth=1)
        vals, vecs = np.linalg.eig(p.T)
        lead = np.argmin(np.abs(vals - 1.0))
        v = np.real(vecs[:, lead])
        v = np.abs(v) / np.abs(v).sum()
        nu_active = np.array([adj.nu.weights[c] for c in active.cells])
        assert np.abs(nu_active - v).sum() <= 1e-7


class TestConvergence:
    def test_eigenfunction_input_is_fixed(self, corr_z2, active, kernel_z2,
                                          spectral_z2):
        f = GridFunction.constant(active, 0.0)
        adj = adjoint_fixed_point(kernel_z2, f, spectral_z2, tol=1e-10, seed=9, depth=1)
        report = convergence_check(kernel_z2, f, spectral_z2.h, spectral_z2,
                                   adj.nu, n_max=10)
        assert max(report.errors) <= 1e-8

    def test_re_decays_geometrically(self, corr_z2, active, kernel_z2, spectral_z2):
        f = GridFunction.constant(active, 0.0)
        adj = adjoint_fixed_point(kernel_z2, f, spectral_z2, tol=1e-11, seed=10, depth=1)
        g = GridFunction.from_callable(active, fn_re)
        report = convergence_check(kernel_z2, f, g, spectral_z2, adj.nu,
                                   n_max=40)
        assert abs(report.constant) <= 0.05  # arc-length symmetry
        assert report.errors[-1] <= 1e-6
        for a, b in zip(report.errors, report.errors[1:]):
            assert b <= a + 1e-12

    def test_constants_are_exact_for_zero_potential(self, corr_z2, active,
                                                    kernel_z2, spectral_z2):
        f = GridFunction.constant(active, 0.0)
        adj = adjoint_fixed_point(kernel_z2, f, spectral_z2, tol=1e-10, seed=11, depth=1)
        g = GridFunction.constant(active, 1.0)
        report = convergence_check(kernel_z2, f, g, spectral_z2, adj.nu,
                                   n_max=10)
        assert max(report.errors) <= 1e-6


    @pytest.mark.parametrize("n_max", [0, -1])
    def test_no_iterate_rejected(self, active, kernel_z2, spectral_z2, n_max):
        f = GridFunction.constant(active, 0.0)
        adj = adjoint_fixed_point(kernel_z2, f, spectral_z2, tol=1e-10, seed=9, depth=1)
        with pytest.raises(ValueError, match=f"n_max must be at least 1, got {n_max}"):
            convergence_check(kernel_z2, f, spectral_z2.h, spectral_z2, adj.nu,
                              n_max=n_max)


class TestChainFold:
    """The cylinder weights of the stationary chain are divided by a left
    fold of the word sums, in word order, not by a compensated sum."""

    @staticmethod
    def self_loops(nu):
        # One self-loop of weight 1 per cell: each cell is one depth-1 word
        # whose sum is its nu.
        n = len(nu)
        active = ActiveGrid(SphereGrid(400), range(n))
        kernel = SimpleNamespace(src=np.arange(n), tgt=np.arange(n), mult=np.ones(n),
                                 comp=np.ones(n, dtype=np.int64))
        return transfer_mod._chain_cylinders(active, kernel, np.ones(n), nu, 1)

    def test_tenths(self):
        tenths = [0.1] * 10
        total = functools.reduce(operator.add, tenths, 0.0)
        assert total != math.fsum(tenths)
        assert self.self_loops(np.array(tenths)).weights.tolist() == [0.1 / total] * 10

    def test_random_sums(self):
        rng = np.random.default_rng(5)
        compensated_differs = 0
        for size in (3, 17, 100, 399):
            nu = rng.uniform(0.5, 1.5, size=size) / size
            total = functools.reduce(operator.add, nu.tolist(), 0.0)
            want = [v / total for v in nu.tolist()]
            assert self.self_loops(nu).weights.tolist() == want
            compensated_differs += math.fsum(nu.tolist()) != total
        assert compensated_differs


class TestLiftedConsistency:
    def test_identity_for_unit_g(self, grid, corr_z2, active):
        f = GridFunction.constant(active, 0.0)
        g = GridFunction.constant(active, 1.0)
        x0 = SpherePoint.from_complex(np.exp(1j * 1.1))
        paths = invariant_forward_paths(corr_z2, active.cells, x0, n=5, cap=4,
                                        seed=12, grid=grid)
        assert lifted_consistency_check(corr_z2, f, g, paths) == 0.0

    def test_random_g_discrepancy_floats_only(self, grid, corr_z2, active):
        rng = np.random.default_rng(62)
        starts = [SpherePoint.from_complex(np.exp(1j * t))
                  for t in rng.uniform(0, 2 * np.pi, size=20)]
        paths = []
        for s in starts:
            paths.extend(invariant_forward_paths(corr_z2, active.cells, s, n=4,
                                                 cap=5, seed=13, grid=grid))
        worst = 0.0
        for _ in range(20):
            g = GridFunction(active, rng.normal(size=active.n_active))
            f = GridFunction(active, 0.2 * rng.normal(size=active.n_active))
            worst = max(worst, lifted_consistency_check(corr_z2, f, g, paths))
        assert worst <= 1e-12

    def test_constant_potential_common_factor(self, grid, corr_z2, active):
        g = GridFunction.constant(active, 1.0)
        x0 = SpherePoint.from_complex(np.exp(2.2j))
        paths = invariant_forward_paths(corr_z2, active.cells, x0, n=4, cap=4,
                                        seed=15, grid=grid)
        f = GridFunction.constant(active, 0.9)
        assert lifted_consistency_check(corr_z2, f, g, paths) <= 1e-12


class TestSymbolPairSystem:
    def test_doubly_uniform_kernel_at_the_invariant_locus(self, grid, corr_pair):
        # The two-symbol system sits at the common fixed point at
        # infinity; the normalized kernel has equal branch weights and
        # the adjoint stationary law matches an explicit dense solve.
        active = ActiveGrid(grid, [grid.cell_index(SpherePoint.infinity())])
        kernel = TransferKernel(corr_pair, active)
        f = GridFunction.constant(active, 0.0)
        spec = power_iteration(kernel, f, tol=1e-11, seed=30, max_iter=2000,
                               expansivity=None)
        assert spec.lam == pytest.approx(2.0, abs=1e-6)
        norm = normalize(f, spec, kernel)
        np.testing.assert_allclose(norm.row_sums, 1.0, atol=1e-8)
        adj = adjoint_fixed_point(kernel, f, spec, tol=1e-12, seed=31, depth=2)
        # Both symbols carry weight 1/2 under mu0.
        sym_mass = {1: 0.0, 2: 0.0}
        for key, w in zip(adj.mu0.words.tolist(), adj.mu0.weights):
            sym_mass[key[0][1]] += w
        assert sym_mass[1] == pytest.approx(0.5, abs=1e-8)
        assert sym_mass[2] == pytest.approx(0.5, abs=1e-8)
        # Explicit kernel solve oracle for the stationary vector.
        p = dense_transition(kernel, norm.weights)
        vals, vecs = np.linalg.eig(p.T)
        lead = np.argmin(np.abs(vals - 1.0))
        v = np.abs(np.real(vecs[:, lead]))
        v /= v.sum()
        nu_active = np.array([adj.nu.weights[c] for c in active.cells])
        assert np.abs(nu_active - v).sum() <= 1e-7


class TestExpansivityGate:
    def test_warns_on_non_expansive_input(self, grid, corr_mobius, region_probe):
        # A rigid rotation of the circle: the operator is computable but
        # the spectral conclusions are not guaranteed; a warning fires.
        band = grid.band_of_z(0.0)
        start = int(grid.band_start[band])
        cells = range(start, start + int(grid.band_counts[band]))
        active = ActiveGrid(grid, cells)
        pairs = [(active.centers[i], active.centers[i + 1]) for i in range(10)]
        probe = region_probe(corr_mobius, pairs)
        assert not probe.is_expansive
        f = GridFunction.constant(active, 0.0)
        # The rotation kernel is a permutation: no spectral gap, so the
        # iteration stalls after the promised warning.
        from corrdyn.errors import NonConvergence
        with pytest.warns(UserWarning):
            with pytest.raises(NonConvergence):
                power_iteration(TransferKernel(corr_mobius, active), f,
                                tol=1e-10, max_iter=200, seed=4,
                                expansivity=probe)


class TestProbeOnKernelRows:
    @pytest.mark.parametrize("name", ["corr_z2", "corr_z3", "corr_z2z3",
                                      "corr_non_binomial"])
    def test_equals_probe_on_fresh_solve(self, name, request, region_probe):
        # The active grid of a real pullback, each center paired with the
        # next and with a random one (some with itself, dropped).  The z3
        # and z2_plus_z3 grids hold the center at phi = pi, whose z^3 row
        # the stacked solver declines.  The non-binomial kernel raises
        # PreimageOutsideSupport on every pullback tried, so its rows are
        # the ``fiber_arrays`` a kernel keeps.
        corr = request.getfixturevalue(name)
        grid = SphereGrid(400)
        levels = pullback_iterate(corr, 0.5 + 0.3j, n=6, cap=1024, seed=0, grid=grid)
        active = ActiveGrid(grid, ds_support(levels, threshold=0.5,
                                             cert_bound=0.05).core)
        if name == "corr_non_binomial":
            owner, _, values, inverted, comp, _ = corr.fiber_arrays(*active.charts,
                                                                    backward=True)
            fibers = (owner, values, inverted, comp)
        else:
            fibers = TransferKernel(corr, active).fibers
        n = active.n_active
        rng = np.random.default_rng(7)
        first = np.concatenate([np.arange(n), rng.integers(n, size=n)])
        second = np.concatenate([(np.arange(n) + 1) % n, rng.integers(n, size=n)])
        res = expansivity_probe(active.charts, fibers, (first, second))
        region = [(active.centers[i], active.centers[j])
                  for i, j in zip(first.tolist(), second.tolist())]
        assert res == region_probe(corr, region)
        assert res.pairs_used == 2 * n - int((first == second).sum())
        if name in ("corr_z3", "corr_z2z3"):
            assert math.pi in [grid.cell_center_angles(c)[1] for c in active.cells]


class TestPipelineIntegration:
    def test_support_from_pullback_feeds_kernel(self, corr_z2):
        grid = SphereGrid(1000)
        levels = pullback_iterate(corr_z2, 0.6 + 0.2j, n=12, cap=8192, seed=16,
                                  grid=grid)
        support = ds_support(levels, threshold=0.5, cert_bound=0.05)
        active = ActiveGrid(grid, support.core)
        f = GridFunction.constant(active, 0.0)
        spec = power_iteration(TransferKernel(corr_z2, active), f, tol=1e-10, seed=17,
                               max_iter=2000, expansivity=None)
        assert spec.lam == pytest.approx(2.0, abs=1e-6)
        assert spec.h.values.min() >= 1.0 - 1e-6
