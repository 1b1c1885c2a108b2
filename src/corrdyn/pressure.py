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


def circle_starts(k: int, seed: int | None, radius: float = 1.0) -> list[SpherePoint]:
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


def _next_pool(corr: Correspondence, f: SphereFunction, roots: PathBatch,
               pool: PathBatch | None, weight: np.ndarray | None, n: int, prev: int,
               cap: int, seeds: list) -> tuple[PathBatch, np.ndarray]:
    """The depth-n pool of every tree and its weights, the sums of f over
    each path's first n points.  The depth-prev pool is grown by n - prev
    levels, except for the trees it holds thinned (or all trees, when
    there is none yet), which grow from their start again; when no tree
    starts again, the pool itself is grown, so that its close pairs carry
    on to the grown pool (``paths._close_pairs``).  A grown path's
    weight is its ancestor's depth-prev weight plus f over points
    prev..n-1, the same additions in the same order as a sum from point 0.
    The two groups are merged tree by tree; a tree's paths keep their
    order."""
    again = np.ones(len(roots), dtype=bool) if pool is None else pool.thinned
    parts = []
    if not again.all():
        kept = ~again[pool.tree]
        grows = pool if not again.any() else pool.of_trees(~again)
        grown = enumerate_forward_paths(corr, grows, n - prev, cap=cap, seed=seeds).paths
        parts.append((grown, _birkhoff(f, grown.values[:, prev:n], grown.inverted[:, prev:n],
                                       weight[kept][grown.origin])))
    if again.any():
        fresh = enumerate_forward_paths(corr, roots.of_trees(again), n,
                                        cap=cap, seed=seeds).paths
        parts.append((fresh, _birkhoff(f, fresh.values[:, :n], fresh.inverted[:, :n],
                                       np.zeros(len(fresh)))))
    if len(parts) == 1:
        return parts[0]
    tree = np.concatenate([p.tree for p, _ in parts])
    order = np.argsort(tree, kind="stable")

    def joined(name):
        return np.concatenate([getattr(p, name) for p, _ in parts])[order]

    return (PathBatch(joined("values"), joined("inverted"), joined("symbols"),
                      joined("branches"), tree[order],
                      parts[0][0].thinned | parts[1][0].thinned),
            np.concatenate([w for _, w in parts])[order])


def _depth_pools(corr: Correspondence, f: SphereFunction, starts: list[SpherePoint],
                 depths: list[int], cap: int, seed):
    """(n, pool, weights) at each depth, ascending; a pool holds the paths
    of every start's tree, start by start (``_next_pool``).  Tree i has
    seed ``[seed, 1, i, n]`` at depth n, whether it grows on or starts
    again."""
    roots = PathBatch.from_starts(starts)
    pool, weight, prev = None, None, 0
    for n in depths:
        seeds = [None if seed is None else [seed, 1, i, n] for i in range(len(starts))]
        pool, weight = _next_pool(corr, f, roots, pool, weight, n, prev, cap, seeds)
        yield n, pool, weight
        prev = n


def pressure_estimate(corr: Correspondence, f: SphereFunction,
                      schedule: Sequence[tuple[int, float]],
                      starts: Sequence[SpherePoint], seed: int | None = 0,
                      cap: int = 4096) -> PressureReport:
    """Estimate the pressure of f along an (n, eps) schedule from the trees
    of the given starts; the entropy is the pressure of ``fn_zero``.

    The headline value is the separated-family number at the largest n of
    the smallest eps.  Identical starts and seeds reproduce the exact path
    pools, so constant shifts of f shift the estimate exactly.

    The trees of all starts are grown together, through the distinct
    depths of the schedule in ascending order (``_depth_pools``), and each
    depth's rows are computed as soon as its pool is ready.  Since the
    enumerator draws random numbers only when it thins a tree, this gives
    the same pools, to the last bit, as enumerating every depth from every
    start with seed ``[seed, 1, i, n]``.  The weights are the sums of f over
    each path's first n points, added left to right; a grown tree carries
    its sums on from the depth before, so f is evaluated once per new
    column.  Rows are reported in schedule order.

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
