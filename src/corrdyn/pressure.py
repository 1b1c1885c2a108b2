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
from typing import Callable, Sequence

import numpy as np

from .correspondence import Correspondence
from .errors import ScheduleEmpty
from .functions import SphereFunction, fn_zero
from .grid import SphereGrid
from .paths import ForwardPath, enumerate_forward_paths, separated_subset, spanning_subset
from .sphere import SpherePoint, as_sphere_point

#: Allowed excess of the spanning column over the separated column.
SANDWICH_SLACK = 0.02


def _logsumexp(values: Sequence[float]) -> float:
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def grid_start_sampler(grid: SphereGrid) -> Callable:
    """Uniform start points: random cells of an equal-area grid."""

    def sample(rng: np.random.Generator, k: int) -> list[SpherePoint]:
        idx = rng.integers(0, grid.n_cells, size=k)
        return [grid.cell_center(int(i)) for i in idx]

    return sample


def circle_start_sampler(radius: float = 1.0) -> Callable:
    """Start points at uniformly random angles on a circle |z| = radius."""
    if not math.isfinite(radius):
        raise ValueError(f"circle radius must be finite, got {radius!r}")

    def sample(rng: np.random.Generator, k: int) -> list[SpherePoint]:
        angles = rng.uniform(0.0, 2.0 * np.pi, size=k)
        return [SpherePoint.from_complex(radius * np.exp(1j * a)) for a in angles]

    return sample


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
    seed: int | None
    n_starts: int
    cap: int
    f_label: str

    @property
    def truncated(self) -> bool:
        return any(r.truncated for r in self.rows)


def _row_values(paths: list[ForwardPath], logw: dict[int, float], n: int,
                eps: float):
    weight = lambda p: logw[id(p)]
    sep = separated_subset(paths, eps, weight=weight)
    span = spanning_subset(paths, eps, weight=weight)
    sep_value = _logsumexp([logw[id(p)] for p in sep]) / n
    span_value = _logsumexp([logw[id(p)] for p in span]) / n
    return sep, span, sep_value, span_value


def _birkhoff(f: SphereFunction, p: ForwardPath, weight, lo: int, hi: int):
    """weight plus f at points lo..hi-1 of p, added left to right."""
    for r in range(lo, hi):
        weight = weight + f(p.points[r])
    return weight


def _start_pools(corr: Correspondence, f: SphereFunction, x0: SpherePoint,
                 depths: list[int], cap: int, seed) -> list[tuple]:
    """(paths, log-weights, truncated) of one start at each depth, ascending.

    The first depth is enumerated from x0; each later one grows the
    previous pool, unless that pool was thinned: it then holds only a
    subsample, and the depth is enumerated from x0 again.  Seeds are
    ``seed + [depth]`` either way.  A grown path carries its ancestor's
    weight, keyed by the (symbols, branches) prefix, which is unique
    within one start's tree, and adds f at its new points.
    """
    pools = []
    level, logw, truncated, prev = None, None, True, 0
    for n in depths:
        child_seed = None if seed is None else [*seed, n]
        if truncated:
            level, truncated = enumerate_forward_paths(corr, x0, n, cap=cap,
                                                       seed=child_seed)
            logw = [_birkhoff(f, p, 0, 0, n) for p in level]
        else:
            ancestor = {(p.symbols, p.branches): w for p, w in zip(level, logw)}
            level, truncated = enumerate_forward_paths(corr, level, n - prev,
                                                       cap=cap, seed=child_seed)
            logw = [_birkhoff(f, p, ancestor[p.symbols[:prev], p.branches[:prev]],
                              prev, n) for p in level]
        pools.append((level, logw, truncated))
        prev = n
    return pools


def pressure_estimate(corr: Correspondence, f: SphereFunction,
                      schedule: Sequence[tuple[int, float]],
                      start_points: int = 64, seed: int | None = 0,
                      starts: Sequence[SpherePoint] | None = None,
                      start_sampler: Callable | None = None,
                      cap: int = 4096, grid: SphereGrid | None = None,
                      f_label: str = "custom") -> PressureReport:
    """Estimate the topological pressure of f along an (n, eps) schedule.

    The headline value is the separated-family number at the largest n of
    the smallest eps.  Identical seeds reproduce the exact start sample
    and path pools, so constant shifts of f shift the estimate exactly.

    Each start's path tree is grown once through the distinct depths of
    the schedule, in ascending order, and each pool's weights are carried
    down the tree from the shallower pool (see ``_start_pools``).  Since
    the enumerator draws random numbers only when it thins a level, this
    gives the same pools and weights, to the last bit, as enumerating
    every depth from the start with seed ``[seed, 1, i, n]``.  Rows are
    reported in schedule order.

    Raises ValueError for fewer than one start point or a start without
    a finite chart value.
    """
    schedule = [(int(n), float(eps)) for n, eps in schedule]
    if not schedule:
        raise ScheduleEmpty("schedule must contain at least one (n, eps) row")
    for n, eps in schedule:
        if n < 1 or not 0 < eps < math.inf:
            raise ValueError(f"invalid schedule row ({n}, {eps}): need n >= 1 "
                             f"and a positive finite eps")

    if starts is None:
        if start_points < 1:
            raise ValueError(f"start_points must be at least 1, got {start_points!r}")
        sampler = start_sampler or grid_start_sampler(grid or SphereGrid(400))
        rng_starts = np.random.default_rng(None if seed is None else [seed, 0])
        starts = sampler(rng_starts, start_points)
    starts = [as_sphere_point(x) for x in starts]
    if not starts:
        raise ValueError("need at least one start point")
    for x in starts:
        if not cmath.isfinite(x.value):
            raise ValueError(f"start point {x!r} has no finite chart value")

    depths = sorted({n for n, _ in schedule})
    pools = {n: [] for n in depths}
    truncated = dict.fromkeys(depths, False)
    logw: dict[int, float] = {}
    for i, x0 in enumerate(starts):
        start_seed = None if seed is None else [seed, 1, i]
        grown = _start_pools(corr, f, x0, depths, cap, start_seed)
        for n, (got, weights, cut) in zip(depths, grown):
            pools[n].extend(got)
            logw.update(zip(map(id, got), weights))
            truncated[n] = truncated[n] or cut

    rows = []
    for n, eps in schedule:
        if not pools[n]:
            raise ValueError(f"no admissible paths at depth {n}")
        sep, span, sep_value, span_value = _row_values(pools[n], logw, n, eps)
        rows.append(PressureRow(n, eps, sep_value, span_value, len(pools[n]),
                                len(sep), len(span), truncated[n]))

    eps_min = min(eps for _, eps in schedule)
    at_min = [r for r in rows if r.eps == eps_min]
    n_max = max(r.n for r in at_min)
    pressure = max(r.sep_value for r in at_min if r.n == n_max)
    return PressureReport(tuple(rows), pressure, seed, len(starts), cap, f_label)


def entropy_estimate(corr: Correspondence,
                     schedule: Sequence[tuple[int, float]],
                     start_points: int = 64, seed: int | None = 0,
                     **kwargs) -> PressureReport:
    """Topological entropy: pressure of the zero function."""
    kwargs.setdefault("f_label", "zero")
    return pressure_estimate(corr, fn_zero, schedule, start_points, seed,
                             **kwargs)
