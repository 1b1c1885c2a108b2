"""Topological pressure and entropy estimation from weighted path families.

The double limit in the pressure definition is replaced by a finite
(n, eps) schedule.  Forward paths are enumerated from a fixed sample of
start points to each depth of the schedule, and for each row a greedy
descending-weight separated family approximates the supremum from below,
and a greedy ascending-weight cover approximates the spanning infimum.
Path weights are Birkhoff products
exp(sum of f over the first n points); the terminal point carries no
weight.  All sums are accumulated in log space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correspondence import Correspondence
from .errors import ScheduleEmpty
from .functions import SphereFunction
from .grid import SphereGrid
from .paths import PathBatch, enumerate_forward_paths, separated_subset, spanning_subset
from .sphere import SpherePoint, as_sphere_point

#: Allowed excess of the spanning column over the separated column.
SANDWICH_SLACK = 0.02


def _logsumexp(values) -> float:
    """log of the sum of exp(values), its terms added one by one from the
    left: the float ``sum`` builtin is compensated from Python 3.12 on, so
    it would round differently between versions.  Each distinct term is
    one ``math.exp`` (numpy's ``exp`` rounds differently), and the fold is
    ``np.cumsum``, which adds in order."""
    values = np.asarray(values, dtype=float)
    m = values.max()
    distinct, which = np.unique(values - m, return_inverse=True)
    terms = np.array([math.exp(v) for v in distinct.tolist()])[which]
    return float(m) + math.log(np.cumsum(terms)[-1])


def _start_rng(k: int, seed: int | None) -> np.random.Generator:
    """The generator of a start draw, stream ``[seed, 0]``, for k >= 1."""
    if k < 1:
        raise ValueError(f"start_points must be at least 1, got {k!r}")
    return np.random.default_rng(None if seed is None else [seed, 0])


def grid_starts(grid: SphereGrid, k: int, seed: int | None) -> list[SpherePoint]:
    """k start points: the centers of random cells of an equal-area grid."""
    idx = _start_rng(k, seed).integers(0, grid.n_cells, size=k)
    return [grid.cell_center(int(i)) for i in idx]


def circle_starts(k: int, seed: int | None, radius: float) -> list[SpherePoint]:
    """k start points at uniformly random angles on the circle |z| = radius."""
    if not math.isfinite(radius):
        raise ValueError(f"circle radius must be finite, got {radius!r}")
    angles = _start_rng(k, seed).uniform(0.0, 2.0 * np.pi, size=k)
    return [SpherePoint.from_complex(radius * np.exp(1j * a)) for a in angles]


def check_schedule(schedule: Sequence[tuple[int, float]]) -> list[tuple[int, float]]:
    """The (n, eps) rows as ints and floats: ScheduleEmpty if there is none,
    ValueError for n < 1 or an eps that is not positive and finite."""
    schedule = [(int(n), float(eps)) for n, eps in schedule]
    if not schedule:
        raise ScheduleEmpty("schedule must contain at least one (n, eps) row")
    for n, eps in schedule:
        if n < 1 or not 0 < eps < math.inf:
            raise ValueError(f"invalid schedule row ({n}, {eps}): need n >= 1 "
                             f"and a positive finite eps")
    return schedule


@dataclass(frozen=True)
class PressureRow:
    n: int
    eps: float
    sep_value: float
    span_value: float
    n_paths: int
    n_separated: int
    n_spanning: int
    truncated: bool

    @property
    def sandwich_ok(self) -> bool:
        return self.span_value <= self.sep_value + SANDWICH_SLACK


@dataclass(frozen=True)
class PressureReport:
    rows: tuple[PressureRow, ...]
    pressure: float
    n_starts: int

    @property
    def truncated(self) -> bool:
        return any(r.truncated for r in self.rows)


def _birkhoff(f: SphereFunction, values: np.ndarray, inverted: np.ndarray,
              weight: np.ndarray) -> np.ndarray:
    """weight plus the sums of f over the columns of values and inverted,
    added left to right, one whole column at a time."""
    for r in range(values.shape[1]):
        weight = weight + f(values[:, r], inverted[:, r])
    return weight


def _depth_pools(corr: Correspondence, f: SphereFunction, starts: list[SpherePoint],
                 depths: list[int], cap: int, seed):
    """(n, pool, weights) at each depth, ascending; a pool holds the paths
    of every start's tree, start by start.  Each pool is the one before it
    (at first, the starts), thinned or not, grown to depth n with seed
    ``[seed, 1, i]`` for tree i, so its close pairs carry on to the grown
    pool (``paths._close_pairs``).  A grown path's weight is its ancestor's
    weight plus f over points prev..n-1, the same additions in the same
    order as a sum from point 0."""
    pool = PathBatch.from_starts(starts)
    weight, prev = np.zeros(len(starts)), 0
    seeds = [None if seed is None else [seed, 1, i] for i in range(len(starts))]
    for n in depths:
        pool = enumerate_forward_paths(corr, pool, n - prev, cap=cap, seed=seeds).paths
        weight = _birkhoff(f, pool.values[:, prev:n], pool.inverted[:, prev:n],
                           weight[pool.origin])
        yield n, pool, weight
        prev = n


def pressure_estimate(corr: Correspondence, f: SphereFunction,
                      schedule: Sequence[tuple[int, float]],
                      starts: Sequence[SpherePoint], seed: int | None,
                      cap: int) -> PressureReport:
    """Estimate the pressure of f along an (n, eps) schedule from the trees
    of the given starts; the entropy is the pressure of ``fn_zero``.

    The headline value is the separated-family number at the largest n of
    the smallest eps.  Identical starts and seeds reproduce the exact path
    pools, so constant shifts of f shift the estimate exactly.

    The trees of all starts are grown together, through the distinct
    depths of the schedule in ascending order (``_depth_pools``), and each
    depth's rows are computed as soon as its pool is ready.  Since the
    enumerator draws the subsample of a thinned level from the tree's seed
    and the level's depth alone, this gives the same pools, to the last
    bit, thinned trees included, as enumerating every depth from every
    start with seed ``[seed, 1, i]``; each pool is nested in the one before
    it.  The weights are the sums of f over each path's first n points,
    added left to right; a grown tree carries its sums on from the depth
    before, so f is evaluated once per new column.  Rows are reported in
    schedule order.

    Raises ValueError for an empty start list or a start without a finite
    chart value.
    """
    schedule = check_schedule(schedule)
    starts = [as_sphere_point(x) for x in starts]
    if not starts:
        raise ValueError("need at least one start point")
    for x in starts:
        if not cmath.isfinite(x.value):
            raise ValueError(f"start point {x!r} has no finite chart value")

    rows = {}
    for n, pool, logw in _depth_pools(corr, f, starts,
                                      sorted({n for n, _ in schedule}), cap, seed):
        if not len(pool):
            continue
        for k, (row_n, eps) in enumerate(schedule):
            if row_n == n:
                sep = separated_subset(pool, eps, weight=logw)
                span = spanning_subset(pool, eps, weight=logw)
                rows[k] = PressureRow(n, eps, _logsumexp(logw[sep]) / n,
                                      _logsumexp(logw[span]) / n, len(pool),
                                      len(sep), len(span), bool(pool.thinned.any()))
    for k, (n, _) in enumerate(schedule):
        if k not in rows:
            raise ValueError(f"no admissible paths at depth {n}")
    rows = [rows[k] for k in range(len(schedule))]

    eps_min = min(eps for _, eps in schedule)
    at_min = [r for r in rows if r.eps == eps_min]
    n_max = max(r.n for r in at_min)
    pressure = max(r.sep_value for r in at_min if r.n == n_max)
    return PressureReport(tuple(rows), pressure, len(starts))
