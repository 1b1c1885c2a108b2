"""Ruelle transfer operator on the active-cell approximation of the
invariant support.

The operator acts on functions over the active cells: (L_f g)(x) sums
exp(f(y)) g(y) over the backward branches y of x, counted with
multiplicity, with every preimage clamped to its nearest active cell.
Preimages beyond the one-ring dilation of the active set abort kernel
construction, since they mean the support approximation is not backward
invariant.  Power iteration extracts the maximal eigenvalue and positive
eigenfunction, the normalized branch weights define a backward Markov
kernel, and the stationary law of that kernel is the fixed point of the
adjoint operator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence, ExpansivityResult
from .errors import (NonConvergence, NonPositiveEigenfunction,
                     PreimageOutsideSupport)
from .functions import SphereFunction
from .grid import SphereGrid
from .measures import PathMeasure, SphereMeasure, _group
from .paths import ForwardPath
from .sphere import SpherePoint, as_sphere_point, chart_values


class ActiveGrid:
    """Sorted active-cell subset of a sphere grid with nearest-cell lookup."""

    def __init__(self, grid: SphereGrid, cells):
        self.grid = grid
        self.cells = tuple(sorted(int(c) for c in set(cells)))
        if not self.cells:
            raise ValueError("active cell set is empty")
        self.position = {c: i for i, c in enumerate(self.cells)}
        self.centers = [grid.cell_center(c) for c in self.cells]
        #: Chart values and flags of the centers, as ``chart_values`` gives them.
        self.charts = chart_values(self.centers)
        self._center_vectors = np.array([p.unit_vector() for p in self.centers])

    @property
    def n_active(self) -> int:
        return len(self.cells)

    def position_of_point(self, point) -> int:
        """Active position of the point's cell, or of the nearest active
        cell center when the cell itself is inactive."""
        point = as_sphere_point(point)
        cell = self.grid.cell_index(point)
        pos = self.position.get(cell)
        if pos is not None:
            return pos
        gaps = np.linalg.norm(self._center_vectors - point.unit_vector(), axis=1)
        return int(np.argmin(gaps))


@dataclass
class GridFunction:
    """Real values over the active cells."""

    active: ActiveGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.active.n_active,):
            raise ValueError("values do not match the active cell count")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        self.values = v

    @classmethod
    def constant(cls, active: ActiveGrid, c: float) -> "GridFunction":
        return cls(active, np.full(active.n_active, float(c)))

    @classmethod
    def from_callable(cls, active: ActiveGrid, f: SphereFunction) -> "GridFunction":
        """f at the active cell centers."""
        return cls(active, f(*active.charts))

    def value_at(self, point) -> float:
        return float(self.values[self.active.position_of_point(point)])

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


class TransferKernel:
    """Backward-branch table over the active cells of one correspondence."""

    def __init__(self, corr: Correspondence, active: ActiveGrid):
        self.corr = corr
        self.active = active
        grid = active.grid
        dilated = grid.dilate(active.cells)
        src, mult, values, inverted, comp, _ = corr.fiber_arrays(
            *active.charts, backward=True)
        tgt = []
        for i, value, flag in zip(src.tolist(), values.tolist(), inverted.tolist()):
            point = SpherePoint.from_chart(value, flag)
            cell = grid.cell_index(point)
            if cell in active.position:
                tgt.append(active.position[cell])
            elif cell in dilated:
                tgt.append(active.position_of_point(point))
            else:
                raise PreimageOutsideSupport(
                    f"preimage of cell {active.cells[i]} lands in cell "
                    f"{cell}, beyond the dilation ring")
        self.src = src
        self.tgt = np.asarray(tgt)
        self.mult = mult.astype(float)
        self.comp = comp

    def edge_weights(self, f_values: np.ndarray) -> np.ndarray:
        """exp(f) on each edge, f read at the edge's target cell: the weight
        both ``apply`` and ``normalize`` give a branch."""
        return np.exp(f_values[self.tgt])

    def apply(self, f_values: np.ndarray, g_values: np.ndarray) -> np.ndarray:
        terms = self.mult * self.edge_weights(f_values) * g_values[self.tgt]
        return np.bincount(self.src, weights=terms, minlength=self.active.n_active)


# ---------------------------------------------------------------------------
# Hoelder diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderReport:
    lam: float
    alpha: float
    omegas: tuple[float, ...]
    sup_norm: float
    alpha_norm: float
    is_member: bool


#: Active centers per row block of ``holder_norm``'s pair distances.
_HOLDER_BLOCK = 256

#: Bound on the last oscillation modulus for Hoelder membership.
HOLDER_TAIL_TOL = 1e-3


def holder_norm(f: GridFunction, lam: float, k_max: int) -> HolderReport:
    """Oscillation moduli of f at the scales lam^-(k-1), k = 1 .. k_max.

    omega_k is the largest |f(x) - f(y)| over active-center pairs within
    distance lam^-(k-1); membership requires the last modulus to sit
    below HOLDER_TAIL_TOL.  The pairs are taken in blocks of
    ``_HOLDER_BLOCK`` rows, so memory stays linear in the active set.
    """
    if not lam > 1.0:
        raise ValueError(f"lam must exceed 1, got {lam}")
    if k_max < 1:
        raise ValueError("need at least one scale")
    vecs, values = f.active._center_vectors, f.values
    radii = [lam ** (-(k - 1)) for k in range(1, k_max + 1)]
    # Every gap is >= 0, so a scale without pairs keeps omega 0.
    best = np.zeros(k_max)
    for lo in range(0, len(vecs), _HOLDER_BLOCK):
        rows = slice(lo, lo + _HOLDER_BLOCK)
        dist = np.linalg.norm(vecs[rows, None, :] - vecs[None, :, :], axis=2)
        gap = np.abs(values[rows, None] - values[None, :])
        for k, radius in enumerate(radii):
            mask = dist <= radius
            if mask.any():
                best[k] = np.maximum(best[k], gap[mask].max())
    omegas = best.tolist()
    sup = f.sup_norm()
    # An in-order fold: the float ``sum`` builtin is compensated from
    # Python 3.12 on.
    alpha_norm = float(np.cumsum(omegas)[-1]) + sup
    return HolderReport(lam, 1.0 / lam, tuple(omegas), sup, alpha_norm,
                        omegas[-1] <= HOLDER_TAIL_TOL)


# ---------------------------------------------------------------------------
# Spectral data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralResult:
    lam: float
    h: GridFunction
    iterations: int
    residual: float
    gap_estimate: float | None


def _check_iteration(tol: float, max_iter: int) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def power_iteration(kernel: TransferKernel, f: GridFunction, tol: float,
                    max_iter: int, seed: int | None,
                    expansivity: ExpansivityResult | None) -> SpectralResult:
    """Maximal eigenvalue and positive eigenfunction of the operator.

    Iterates g <- L_f g / sup|L_f g| from a strictly positive random
    start; converged once successive eigenvalue estimates differ by less
    than tol (relative) and the sup-norm eigen-residual is below
    tol * lam.
    """
    _check_iteration(tol, max_iter)
    if expansivity is not None and not expansivity.is_expansive:
        warnings.warn(
            "correspondence fails the expansivity probe; spectral "
            "conclusions may not hold", stacklevel=2)
    rng = np.random.default_rng(seed)
    # L g of the current iterate, taken over from the last residual.
    kg = kernel.apply(f.values, rng.uniform(0.5, 1.5, size=f.active.n_active))
    lam_prev = None
    residuals = []
    for iteration in range(1, max_iter + 1):
        lam = float(kg.max())
        if lam <= 0 or not np.isfinite(lam):
            raise NonConvergence("operator iterate lost positivity",
                                 iterations=iteration)
        g_next = kg / lam
        kg = kernel.apply(f.values, g_next)
        residual = float(np.abs(kg - lam * g_next).max())
        residuals.append(residual)
        if (lam_prev is not None
                and abs(lam - lam_prev) < tol * max(1.0, lam)
                and residual < tol * lam):
            gap = None
            if len(residuals) >= 4 and residuals[-2] > 0:
                tail = [residuals[i + 1] / residuals[i]
                        for i in range(len(residuals) - 4, len(residuals) - 1)
                        if residuals[i] > 0]
                gap = float(np.median(tail)) if tail else None
            h = GridFunction(f.active, g_next / g_next.max())
            return SpectralResult(lam, h, iteration, residual, gap)
        lam_prev = lam
    raise NonConvergence(
        f"power iteration did not reach tol {tol} in {max_iter} steps",
        iterations=max_iter)


@dataclass(frozen=True)
class NormalizedWeights:
    """Branch weights exp(f(y)) h(y) / (lam h(x)), summing to one per cell."""

    weights: np.ndarray
    row_sums: np.ndarray


def normalize(f: GridFunction, spectral: SpectralResult,
              kernel: TransferKernel) -> NormalizedWeights:
    """Branch-weight table of the normalized operator, the grid form of
    the statement that the normalized transfer of 1 is 1."""
    h = spectral.h.values
    if h.min() <= 0.0:
        raise NonPositiveEigenfunction(
            f"eigenfunction minimum {h.min()} is not positive")
    w = (kernel.edge_weights(f.values) * h[kernel.tgt]
         / (spectral.lam * h[kernel.src]))
    sums = np.bincount(kernel.src, weights=kernel.mult * w,
                       minlength=f.active.n_active)
    return NormalizedWeights(w, sums)


# ---------------------------------------------------------------------------
# Adjoint fixed point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjointResult:
    nu: SphereMeasure
    mu0: PathMeasure
    iterations: int
    l1_residual: float
    unique: bool


def _stationary(kernel: TransferKernel, weights: np.ndarray, start: np.ndarray,
                tol: float, max_iter: int):
    """Fixed law of the backward chain whose edges are the kernel's, with
    the normalized branch weights: each step moves every cell's mass along
    its edges.  Iterated until the error bound is below tol.

    The L1 change per step only bounds the distance to the fixed point by
    change * rho / (1 - rho), so the contraction factor rho is estimated
    from successive changes and folded into the stopping rule.
    """
    moved = kernel.mult * weights
    v = start / start.sum()
    prev_gap = None
    for iteration in range(1, max_iter + 1):
        nxt = np.bincount(kernel.tgt, weights=v[kernel.src] * moved,
                          minlength=len(v))
        s = nxt.sum()
        if s <= 0:
            raise NonConvergence("kernel lost mass", iterations=iteration)
        nxt /= s
        gap = float(np.abs(nxt - v).sum())
        v = nxt
        if gap == 0.0:
            return v, iteration, gap
        if prev_gap is not None and prev_gap > 0:
            rho = min(gap / prev_gap, 1.0 - 1e-4)
            if gap * rho / (1.0 - rho) < tol:
                return v, iteration, gap
        prev_gap = gap
    raise NonConvergence(f"adjoint iteration did not reach tol {tol}",
                         iterations=max_iter)


#: Steps of each stationary-law iteration before ``adjoint_fixed_point``
#: raises NonConvergence.
ADJOINT_MAX_ITER = 5000

#: Cylinder weight at or below which ``_chain_cylinders`` drops a chain.
CYLINDER_PRUNE = 1e-15


def _chain_cylinders(active: ActiveGrid, kernel: TransferKernel,
                     weights: np.ndarray, nu: np.ndarray, depth: int) -> PathMeasure:
    """Exact depth-D cylinder weights of the stationary backward chain.

    Each level extends every chain, in order, by the edges of its head
    cell, in edge order, dropping extensions at or below ``CYLINDER_PRUNE``.
    The kernel lists its edges by source cell, so each cell's edges are
    one run.
    """
    bounds = np.searchsorted(kernel.src, np.arange(active.n_active + 1))
    starts = np.nonzero(nu > CYLINDER_PRUNE)[0]
    positions = starts[:, None]
    symbols = np.zeros((len(starts), 0), dtype=np.int64)
    w = nu[starts]
    for _ in range(depth):
        head = positions[:, 0]
        counts = bounds[head + 1] - bounds[head]
        parent = np.repeat(np.arange(len(head)), counts)
        offset = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
        e = bounds[head][parent] + offset
        w_next = w[parent] * (kernel.mult[e] * weights[e])
        keep = w_next > CYLINDER_PRUNE
        parent, e, w = parent[keep], e[keep], w_next[keep]
        positions = np.column_stack([kernel.tgt[e], positions[parent]])
        symbols = np.column_stack([kernel.comp[e], symbols[parent]])
    words = np.stack([np.asarray(active.cells)[positions[:, :depth]], symbols], axis=2)
    ids, first = _group(words)
    sums = np.bincount(ids, weights=w)
    # A running total in word order, not numpy's pairwise sum nor the
    # float ``sum`` builtin (compensated from Python 3.12 on), so the
    # weights keep their last bits.
    return PathMeasure(active.grid, words[first], sums / np.cumsum(sums)[-1])


def adjoint_fixed_point(kernel: TransferKernel, f: GridFunction,
                        spectral: SpectralResult, tol: float, seed: int | None,
                        depth: int) -> AdjointResult:
    """Stationary measure of the normalized backward kernel and the
    induced cylinder path measure.

    nu is the unique fixed point of the adjoint normalized operator on
    the active cells; mu0 records depth-D words of (cell, symbol) pairs
    generated by the stationary chain, so its position marginals all
    equal nu.  Two random starts are compared; disagreement beyond
    10 * tol flags non-uniqueness.
    """
    _check_iteration(tol, ADJOINT_MAX_ITER)
    norm = normalize(f, spectral, kernel)
    n = f.active.n_active
    rng = np.random.default_rng(seed)
    v1, it1, gap1 = _stationary(kernel, norm.weights, np.full(n, 1.0), tol,
                                ADJOINT_MAX_ITER)
    v2, _, _ = _stationary(kernel, norm.weights, rng.uniform(0.1, 1.0, size=n), tol,
                           ADJOINT_MAX_ITER)
    unique = float(np.abs(v1 - v2).sum()) <= 10.0 * tol

    grid = f.active.grid
    w = np.zeros(grid.n_cells)
    w[list(f.active.cells)] = v1
    w /= w.sum()
    nu = SphereMeasure(grid, w)
    mu0 = _chain_cylinders(f.active, kernel, norm.weights, v1, depth)
    return AdjointResult(nu, mu0, it1, gap1, unique)


# ---------------------------------------------------------------------------
# Convergence of normalized iterates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    errors: tuple[float, ...]
    rate: float | None
    constant: float


def convergence_check(kernel: TransferKernel, f: GridFunction, g: GridFunction,
                      spectral: SpectralResult, nu: SphereMeasure,
                      n_max: int) -> ConvergenceReport:
    """Sup-norm distance of lam^-n L_f^n g from its limit h * integral of
    g/h against nu, for n = 1 .. n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    h = spectral.h.values
    nu_active = nu.weights[list(f.active.cells)]
    nu_active = nu_active / nu_active.sum()
    constant = float(np.sum(nu_active * g.values / h))
    target = constant * h
    errors = []
    current = g.values.copy()
    for _ in range(n_max):
        current = kernel.apply(f.values, current) / spectral.lam
        errors.append(float(np.abs(current - target).max()))
    # Estimate the geometric rate from the decaying stretch only; once
    # the error floors out at rounding level the ratios are meaningless.
    floor = 1e3 * min(errors) + 1e-300
    decaying = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)
                if errors[i] > floor and errors[i + 1] > 0]
    rate = float(np.median(decaying)) if decaying else None
    return ConvergenceReport(tuple(errors), rate, constant)


def lifted_consistency_check(corr: Correspondence, f: GridFunction,
                             g: GridFunction, paths: list[ForwardPath]) -> float:
    """Maximal gap between the path-space operator applied to the lift of
    g and the base operator value at the path start.

    The path-space side enumerates every one-step backward extension of
    each given path as an explicit path object and sums exp(F) G over
    them; the base side sums the weighted backward multiset directly.
    Both depend only on the starting coordinate, so the gap is pure
    floating noise.
    """
    worst = 0.0
    for path in paths:
        x0 = path.points[0]
        fiber = corr.backward_images(x0)
        lifted = 0.0
        for ext in path.children(fiber, backward=True):
            y = ext.points[0]
            lifted += math.exp(f.value_at(y)) * g.value_at(y)
        base = 0.0
        for b in fiber.branches:
            base += b.multiplicity * math.exp(f.value_at(b.point)) * g.value_at(b.point)
        worst = max(worst, abs(lifted - base))
    return worst
