"""Pullback equidistribution measures and their support.

Iterating backward images of a generic start point and spreading mass by
multiplicity over each level of the preimage tree produces measures that
converge weak-star to the equidistribution (Dinh-Sibony) measure of a
correspondence with d_top > d_fwd.  The support approximation feeds the
transfer-operator machinery: it is the active cell set, dilated by one
grid ring as a buffer for the invariance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence
from .errors import (DegenerateStart, DegreeConditionError, NotConverged)
from .grid import SphereGrid
from .measures import SphereMeasure, measure_distance
from .paths import ForwardPath
from .sphere import as_sphere_point, chart_values

#: Allowed violation fraction in the backward-invariance check.
INVARIANCE_BUDGET = 0.01

#: Re-samples of a start whose backward fiber is degenerate before
#: ``pullback_iterate`` gives up.
MAX_RESAMPLE = 10

#: Radius of the disk around the start that re-samples are drawn from.
RESAMPLE_RADIUS = 0.1


def _systematic_thin(weights: np.ndarray, cap: int, rng: np.random.Generator):
    """Unbiased thinning to cap equal-weight particles: the kept particle
    indices and their weights.

    The particles are shuffled first: they arrive grouped by parent, and a
    systematic stride aligned with the branching factor would otherwise
    keep picking the same branch of every parent.
    """
    perm = rng.permutation(len(weights))
    total = float(weights.sum())
    targets = (rng.uniform(0.0, 1.0) + np.arange(cap)) / cap * total
    cum = np.cumsum(weights[perm])
    idx = np.searchsorted(cum, targets, side="right")
    idx = np.minimum(idx, len(weights) - 1)
    return perm[idx], np.full(cap, total / cap)


def pullback_iterate(corr: Correspondence, x0, n: int, cap: int, seed: int | None,
                     grid: SphereGrid) -> list[SphereMeasure]:
    """Level measures of the backward preimage tree from x0.

    Level k spreads weight multiplicity / d_top^k over the k-th preimages.
    Requires d_top > d_fwd.  A start with a degenerate backward fiber is
    re-sampled from a small disk around x0 up to MAX_RESAMPLE times.
    Levels beyond cap particles are thinned by seeded systematic
    resampling, which preserves expected cell weights.  Particles are
    carried as chart values, chart flags and weights, and each level is
    solved by one ``fiber_arrays`` call.
    """
    if corr.d_top <= corr.d_fwd:
        raise DegreeConditionError(
            f"pullback needs d_top > d_fwd, got ({corr.d_top}, {corr.d_fwd})")
    if n < 1:
        raise ValueError("need at least one pullback level")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    rng = np.random.default_rng(seed)

    start = as_sphere_point(x0)
    attempts = 0
    while corr.backward_images(start).degenerate:
        attempts += 1
        if attempts > MAX_RESAMPLE:
            raise DegenerateStart(
                f"no generic start found after {MAX_RESAMPLE} re-samples")
        base = 0j if start.is_infinity else start.to_complex()
        jitter = RESAMPLE_RADIUS * rng.uniform(0.2, 1.0) * np.exp(
            1j * rng.uniform(0, 2 * np.pi))
        start = as_sphere_point(base + jitter)

    d_top = corr.d_top
    values = np.array([start.value])
    inverted = np.array([start.inverted])
    weights = np.array([1.0])
    levels = [SphereMeasure.from_particles(grid, values, inverted, weights)]
    for _ in range(n):
        owner, mult, values, inverted, _, _ = corr.fiber_arrays(values, inverted,
                                                              backward=True)
        weights = weights[owner] * mult / d_top
        if len(weights) > cap:
            keep, weights = _systematic_thin(weights, cap, rng)
            values, inverted = values[keep], inverted[keep]
        levels.append(SphereMeasure.from_particles(grid, values, inverted, weights))
    return levels


@dataclass(frozen=True)
class SupportResult:
    """Active-cell approximation of the measure support."""

    cells: frozenset[int]
    core: frozenset[int]
    certificate: float


def check_support_bounds(threshold: float, cert_bound: float) -> None:
    """ValueError for a NaN threshold or cert_bound of ``ds_support``: no
    mass exceeds a NaN cutoff and no certificate exceeds a NaN bound, so
    NotConverged could never fire."""
    for name, value in (("threshold", threshold), ("cert_bound", cert_bound)):
        if math.isnan(value):
            raise ValueError(f"{name} must be a number, got {value!r}")


def ds_support(levels: list[SphereMeasure], threshold: float,
               cert_bound: float) -> SupportResult:
    """Cells carrying final-level mass above threshold / N, one-ring dilated.

    The weak-star gap between the last two levels is the convergence
    certificate; exceeding cert_bound raises NotConverged.
    """
    check_support_bounds(threshold, cert_bound)
    if len(levels) < 2:
        raise ValueError("need at least two levels")
    certificate = measure_distance(levels[-2], levels[-1])
    if certificate > cert_bound:
        raise NotConverged(
            f"last levels differ by {certificate:.4f} > {cert_bound}")
    final = levels[-1]
    grid = final.grid
    cutoff = threshold / grid.n_cells
    core = frozenset(int(i) for i in np.nonzero(final.weights > cutoff)[0])
    return SupportResult(grid.dilate(core), core, certificate)


@dataclass(frozen=True)
class BackwardInvarianceReport:
    violations: int
    total: int
    passed: bool


def check_backward_invariance(corr: Correspondence, omega, grid: SphereGrid,
                              samples: int, seed: int | None) -> BackwardInvarianceReport:
    """Sample omega cells and test that all backward images stay inside
    the one-ring dilation of omega."""
    omega = frozenset(omega)
    if not omega:
        raise ValueError("omega is empty")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    inside = np.zeros(grid.n_cells, dtype=bool)
    inside[list(grid.dilate(omega))] = True
    cells = sorted(omega)
    picks = rng.integers(0, len(cells), size=samples)
    starts = [grid.cell_center(cells[int(pick)]) for pick in picks]
    _, _, values, inverted, _, _ = corr.fiber_arrays(*chart_values(starts),
                                                     backward=True)
    total = len(values)
    violations = int(np.count_nonzero(~inside[grid.cell_index_charts(values, inverted)]))
    passed = total > 0 and violations <= INVARIANCE_BUDGET * total
    return BackwardInvarianceReport(violations, total, passed)


def invariant_forward_paths(corr: Correspondence, omega, x0, n: int, cap: int,
                            seed: int | None, grid: SphereGrid) -> list[ForwardPath]:
    """Depth-first search for forward paths staying inside omega.

    Branches are pruned as soon as a point leaves the one-ring dilation
    of omega.  Returns up to cap depth-n paths; an empty list signals
    that omega may under-approximate the invariant support.  Raises
    ValueError for n < 0, which no path reaches, and cap < 1, whose empty
    list would give that signal falsely.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    omega = frozenset(omega)
    start = as_sphere_point(x0)
    if grid.cell_index(start) not in omega:
        raise ValueError("start cell is not inside omega")
    dilated = grid.dilate(omega)
    rng = np.random.default_rng(seed)

    found: list[ForwardPath] = []
    stack = [ForwardPath((start,), (), ())]
    while stack and len(found) < cap:
        path = stack.pop()
        if path.length == n:
            found.append(path)
            continue
        fiber = corr.forward_images(path.points[-1])
        children = [child for child in path.children(fiber)
                    if grid.cell_index(child.points[-1]) in dilated]
        order = rng.permutation(len(children))
        for i in order:
            stack.append(children[int(i)])
    return found

