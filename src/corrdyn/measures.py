"""Measures on the sphere and on path space, partitions, and entropies.

Sphere measures are weight vectors on a fixed equal-area grid.  Path
measures are depth-D cylinder weights on words of (cell, symbol) pairs,
where the pair at position p records the grid cell of the p-th point and
the component symbol of the following step; words are integer array
rows.  A partition labels every grid cell with its group.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence
from .errors import (IndexOutOfRange, NoValidCandidates, NotAPartition,
                     PushforwardMismatch, TrajectoryEscape)
from .functions import SphereFunction, TestFunctionFamily, default_test_family
from .grid import SphereGrid
from .sphere import SpherePoint, as_sphere_point, chart_values

MASS_TOL = 1e-12

#: Largest ``measure_distance`` between a candidate path measure's
#: push-forward and nu for the candidate to count in the entropies.
PUSHFORWARD_TOL = 0.05


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group ids of the equal rows of a (K, ...) integer array, numbered
    by first appearance, and each group's first row.  With ``np.bincount``
    in input order this is, to the last bit, a dict fold keyed by row.

    One stable ``np.lexsort`` ranks the rows; equal rows are then
    adjacent, in input order, so a group starts wherever a row differs
    from the one before it, and its first row is where it starts.
    """
    flat = keys.reshape(len(keys), math.prod(keys.shape[1:]))
    order = np.lexsort(flat.T[::-1]) if flat.shape[1] else np.arange(len(flat))
    ranked = flat[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[starts]
    by_first = np.argsort(first)
    renumber = np.empty_like(by_first)
    renumber[by_first] = np.arange(len(by_first))
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = renumber[np.cumsum(starts) - 1]
    return ids, first[by_first]


def _fold(terms: np.ndarray):
    """The sums along the last axis of nonempty terms, added in order
    from +0.0, as a float loop adds them.  ``np.cumsum`` adds in order
    from the first term, which differs from a sum from +0.0 only in the
    sign of a zero, and a sum from +0.0 is never -0.0, so ``+ 0.0``
    gives its bits."""
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


@dataclass
class SphereMeasure:
    """Nonnegative cell weights with total mass one."""

    grid: SphereGrid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.grid.n_cells,):
            raise ValueError("weight vector does not match the grid")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if w.min() < -MASS_TOL:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"total mass {w.sum()} is not 1")
        self.weights = np.maximum(w, 0.0)

    @classmethod
    def from_particles(cls, grid: SphereGrid, values: np.ndarray,
                       inverted: np.ndarray, weights: np.ndarray) -> "SphereMeasure":
        """Accumulate particles, given by chart value, chart flag and
        weight, into cells, in particle order."""
        cells = grid.cell_index_charts(values, inverted)
        return cls(grid, np.bincount(cells, weights=weights,
                                     minlength=grid.n_cells))

    @classmethod
    def dirac(cls, grid: SphereGrid, point) -> "SphereMeasure":
        w = np.zeros(grid.n_cells)
        w[grid.cell_index(point)] = 1.0
        return cls(grid, w)

    @classmethod
    def uniform(cls, grid: SphereGrid) -> "SphereMeasure":
        return cls(grid, np.full(grid.n_cells, 1.0 / grid.n_cells))

    def _support_charts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero weights, in cell order, and the chart values and
        flags of their cell centers."""
        cells = np.nonzero(self.weights)[0]
        return (self.weights[cells],
                *chart_values(self.grid.cell_center(c) for c in cells.tolist()))

    def integrate(self, f: SphereFunction) -> float:
        """The sum of weight times f over the cell centers of the support,
        f evaluated once on all of them."""
        weights, values, inverted = self._support_charts()
        return float(_fold(weights * f(values, inverted)))


def total_variation(m1: SphereMeasure, m2: SphereMeasure) -> float:
    if m1.grid is not m2.grid and m1.grid.n_cells != m2.grid.n_cells:
        raise ValueError("measures live on different grids")
    return 0.5 * float(np.abs(m1.weights - m2.weights).sum())


@dataclass
class PathMeasure:
    """Probability measure on depth-D cylinder words of forward paths:
    ``words[k]`` is a distinct (D, 2) word of (cell, symbol) pairs and
    ``weights[k]`` its mass."""

    grid: SphereGrid
    words: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        words = np.asarray(self.words, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        if words.ndim != 3 or words.shape[1] < 1 or words.shape[2] != 2:
            raise ValueError("words must be a (K, depth >= 1, 2) array")
        if w.shape != (len(words),):
            raise ValueError("weights do not match the words")
        if not np.isfinite(w).all():
            raise ValueError("cylinder weights must be finite")
        if abs(w.sum() - 1.0) > 1e-9 or w.min() < 0:
            raise ValueError("cylinder weights must be a probability vector")
        self.words = words
        self.weights = w

    @property
    def depth(self) -> int:
        return self.words.shape[1]

    @classmethod
    def from_paths(cls, grid: SphereGrid, paths, weights=None) -> "PathMeasure":
        """Weighted length-n paths, folded into their depth-n words; paths
        with the same word add their weights."""
        paths = list(paths)
        if not paths:
            raise ValueError("no paths given")
        if weights is None:
            weights = np.full(len(paths), 1.0 / len(paths))
        w = np.asarray(weights, dtype=float)
        if len(w) != len(paths):
            raise ValueError("weights do not match paths")
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("path weights must be a probability vector")
        depth = paths[0].length
        if any(p.length != depth for p in paths):
            raise ValueError("support paths must share one length")
        cells = grid.cell_index_charts(*chart_values(
            p.points[i] for p in paths for i in range(depth)))
        symbols = np.array([p.symbols for p in paths], dtype=np.int64)
        words = np.stack([cells.reshape(len(paths), depth), symbols], axis=2)
        ids, first = _group(words)
        return cls(grid, words[first], np.bincount(ids, weights=w))

    @classmethod
    def from_cylinders(cls, grid: SphereGrid, cylinders) -> "PathMeasure":
        """Measure from a {word: weight} mapping of (cell, symbol) tuples."""
        cylinders = dict(cylinders)
        if not cylinders:
            raise ValueError("no cylinders given")
        return cls(grid, np.array(list(cylinders), dtype=np.int64),
                   np.array(list(cylinders.values()), dtype=float))


def pushforward(mu: PathMeasure, r: int) -> SphereMeasure:
    """Sphere marginal of the r-th path position."""
    if not 0 <= r < mu.depth:
        raise IndexOutOfRange(f"position {r} outside cylinder depth {mu.depth}")
    return SphereMeasure(mu.grid, np.bincount(mu.words[:, r, 0], weights=mu.weights,
                                              minlength=mu.grid.n_cells))


def measure_distance(m1: SphereMeasure, m2: SphereMeasure,
                     fam: TestFunctionFamily | None = None) -> float:
    """Weighted test-function gap, compatible with weak-star convergence."""
    if fam is None:
        fam = default_test_family()
    fam.require_nonempty()
    w1, values1, inverted1 = m1._support_charts()
    w2, values2, inverted2 = m2._support_charts()
    values = np.concatenate((values1, values2))
    inverted = np.concatenate((inverted1, inverted2))
    at = np.array([f(values, inverted) for f in fam.functions])
    gaps = np.abs(_fold(w1 * at[:, :len(w1)]) - _fold(w2 * at[:, len(w1):]))
    total = 0.0
    for weight, gap in zip(fam.weights, gaps.tolist()):
        total += weight * gap
    return total


# ---------------------------------------------------------------------------
# Empirical invariant measures and shift invariance
# ---------------------------------------------------------------------------


_POINT_BITS = struct.Struct("<dd?")


def _point_bits(point: SpherePoint) -> bytes:
    """The IEEE bits of a point's chart value, signed zeros apart, and its
    chart flag: equal keys give the same fiber and the same cell."""
    return _POINT_BITS.pack(point.value.real, point.value.imag, point.inverted)


def _forward_slots(corr: Correspondence, point: SpherePoint) -> list:
    """The forward fiber of point, one entry per branch slot; a degenerate
    fiber is retried up to three times from a nudged point."""
    fiber = corr.forward_images(point)
    slots = [b for b in fiber.branches for _ in range(b.multiplicity)]
    retries = 0
    while not slots and retries < 3:
        # Degenerate fiber: nudge the point and retry.
        point = SpherePoint(point.value + complex(1e-9, 1e-9), point.inverted)
        fiber = corr.forward_images(point)
        slots = [b for b in fiber.branches for _ in range(b.multiplicity)]
        retries += 1
    if not slots:
        raise TrajectoryEscape("forward fiber collapsed persistently")
    return slots


def empirical_invariant_measure(corr: Correspondence, x0, n_burn: int,
                                n_keep: int, depth: int, seed: int | None,
                                grid: SphereGrid) -> PathMeasure:
    """Birkhoff average of depth-D cylinder occupations along one random
    forward trajectory with uniformly chosen branches.

    The output is in cylinder form and approximately shift invariant with
    an O(n_keep^-1/2) defect.  Each distinct point (by ``_point_bits``)
    has its fiber solved and its cell looked up once per call; a repeat
    reuses them, and the generator draws are those of solving every step.
    A walk that returns to a point first seen at step s, having drawn no
    branch since s (every fiber on the way had one slot), repeats steps
    s.. from then on; the rest of it is filled in by period, with no
    further solves, lookups or draws.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_keep < depth:
        raise ValueError("n_keep must be at least the cylinder depth")
    if n_burn < 0:
        raise ValueError(f"n_burn must be >= 0, got {n_burn}")
    rng = np.random.default_rng(seed)
    steps = n_burn + n_keep + depth

    # Memo of this walk, keyed by each point's exact bits: [slots, cell,
    # first step], slots filled when the point's fiber is first needed.
    memo: dict[bytes, list] = {}
    point = as_sphere_point(x0)
    entry = memo[_point_bits(point)] = [None, grid.cell_index(point), 0]
    cells = [entry[1]]
    symbols: list[int] = []
    drawn = -1  # the last step whose point's fiber drew a branch
    for t in range(1, steps + 1):
        if entry[0] is None:
            entry[0] = _forward_slots(corr, point)
        slots = entry[0]
        # integers(1) returns 0 and leaves the generator as it was, so a
        # single slot is taken without it.
        if len(slots) > 1:
            pick, drawn = slots[int(rng.integers(len(slots)))], t - 1
        else:
            pick = slots[0]
        point = pick.point
        symbols.append(pick.component)
        key = _point_bits(point)
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = [None, grid.cell_index(point), t]
        elif drawn < entry[2]:
            # Back at the point of step s with no draw since: the walk
            # repeats steps s..t-1 from here on.
            s = entry[2]
            cycle = s + (np.arange(t, steps + 1) - s) % (t - s)
            cells = np.concatenate([cells, np.array(cells)[cycle]])
            symbols = np.concatenate([symbols, np.array(symbols)[cycle[:-1]]])
            break
        cells.append(entry[1])

    window = np.arange(n_burn, n_burn + n_keep)[:, None] + np.arange(depth)
    words = np.stack([np.array(cells)[window], np.array(symbols)[window]], axis=2)
    ids, first = _group(words)
    return PathMeasure(grid, words[first], np.bincount(ids) / float(n_keep))


@dataclass(frozen=True)
class InvarianceReport:
    defect: float
    passed: bool


def check_shift_invariance(mu: PathMeasure, tol: float) -> InvarianceReport:
    """Compare mass of depth-(D-1) cylinders with their shift preimages."""
    k = len(mu.words)
    ids, first = _group(np.concatenate([mu.words[:, :-1], mu.words[:, 1:]]))
    heads = np.bincount(ids[:k], weights=mu.weights, minlength=len(first))
    tails = np.bincount(ids[k:], weights=mu.weights, minlength=len(first))
    defect = float(np.abs(heads - tails).max())
    return InvarianceReport(defect, defect <= tol)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@dataclass
class SpherePartition:
    """Grouping of grid cells: ``label[c]`` is the group of cell c and
    ``names[g]`` the name of group g.  One label per cell makes the groups
    disjoint and exhaustive."""

    grid: SphereGrid
    label: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        label = np.asarray(self.label, dtype=np.int64)
        if label.shape != (self.grid.n_cells,):
            raise NotAPartition("need one label per grid cell")
        if label.min() < 0 or label.max() >= len(self.names):
            raise NotAPartition("labels must index the group names")
        self.label = label

    @property
    def size(self) -> int:
        return len(self.names)

    @classmethod
    def trivial(cls, grid: SphereGrid) -> "SpherePartition":
        return cls(grid, np.zeros(grid.n_cells, dtype=np.int64), ("all",))

    @classmethod
    def sectors(cls, grid: SphereGrid, n_z: int, n_phi: int) -> "SpherePartition":
        """Partition by z-slabs and longitude sectors of the cell centers,
        the nonempty (slab, sector) groups in sorted order.

        A band's slab comes from its center height by scalar ``acos`` and
        ``cos``; the sector of each cell center's longitude takes only
        + * / in numpy, which round as Python floats do.  Raises ValueError
        for fewer than one slab or sector.
        """
        for name, count in (("n_z", n_z), ("n_phi", n_phi)):
            if count < 1:
                raise ValueError(f"{name} must be at least 1, got {count}")
        slab = [min(int((1.0 - math.cos(math.acos(max(-1.0, min(1.0, zc)))))
                        / 2.0 * n_z), n_z - 1)
                for zc in (0.5 * (grid.band_z[:-1] + grid.band_z[1:])).tolist()]
        band = np.repeat(np.arange(grid.n_bands), grid.band_counts)
        sector = np.arange(grid.n_cells) - grid.band_start[band]
        phi = (sector + 0.5) * (2.0 * math.pi) / grid.band_counts[band]
        sector_of = np.minimum((phi / (2.0 * math.pi) * n_phi).astype(np.int64),
                               n_phi - 1)
        keys = np.array(slab, dtype=np.int64)[band] * n_phi + sector_of
        used, label = np.unique(keys, return_inverse=True)
        return cls(grid, label,
                   tuple(f"z{k // n_phi}p{k % n_phi}" for k in used.tolist()))


def join(a: SpherePartition, b: SpherePartition) -> SpherePartition:
    """Common refinement: all nonempty pairwise intersections, in sorted
    order of the (a group, b group) pairs."""
    if a.grid is not b.grid and a.grid.n_cells != b.grid.n_cells:
        raise NotAPartition("partitions live on different grids")
    used, label = np.unique(a.label * b.size + b.label, return_inverse=True)
    names = tuple(f"{a.names[k // b.size]}&{b.names[k % b.size]}"
                  for k in used.tolist())
    return SpherePartition(a.grid, label, names)


def partition_entropy(mu: SphereMeasure, partition: SpherePartition) -> float:
    """Shannon entropy of the measure over the partition, 0 log 0 = 0."""
    if partition.grid.n_cells != mu.grid.n_cells:
        raise NotAPartition("partition does not match the measure grid")
    return _shannon(np.bincount(partition.label, weights=mu.weights,
                                minlength=partition.size))


def _shannon(masses) -> float:
    h = 0.0
    for m in masses:
        if m > 0.0:
            h -= m * math.log(m)
    return h


# ---------------------------------------------------------------------------
# Intermediate and measure-theoretic entropy
# ---------------------------------------------------------------------------


def joined_lift_masses(mu: PathMeasure, q: SpherePartition, n: int) -> list[float]:
    """Masses of the n-fold join of the lifted partition under mu: the
    depth-n word masses, then grouped by the labels of their cells."""
    if n < 0 or n > mu.depth:
        raise IndexOutOfRange(f"marginal depth {n} outside [0, {mu.depth}]")
    ids, first = _group(mu.words[:, :n])
    masses = np.bincount(ids, weights=mu.weights)
    lifted = mu.words[first, :n]
    lifted[..., 0] = q.label[lifted[..., 0]]
    ids, _ = _group(lifted)
    return np.bincount(ids, weights=masses).tolist()


def entropy_rate_sequence(mu: PathMeasure, q: SpherePartition, n_max: int) -> list[float]:
    """H_n of joined lifted partitions for n = 1 .. min(n_max, depth).

    The masses are those of ``joined_lift_masses``, grown one depth at a
    time: a word's depth-n group is the group of (its depth n-1 group,
    cell, symbol), and its label word's group that of (its depth n-1 label
    group, cell label, symbol).  Both are numbered by first appearance, as
    ``joined_lift_masses`` numbers them, and summed in the same order.
    """
    n_eff = min(n_max, mu.depth)
    words = labels = np.zeros(len(mu.words), dtype=np.int64)
    out = []
    for n in range(n_eff):
        cell, symbol = mu.words[:, n, 0], mu.words[:, n, 1]
        words, first = _group(np.stack([words, cell, symbol], axis=1))
        labels, _ = _group(np.stack([labels, q.label[cell], symbol], axis=1))
        masses = np.bincount(words, weights=mu.weights)
        out.append(_shannon(np.bincount(labels[first], weights=masses).tolist()))
    return out


def intermediate_entropy(nu: SphereMeasure, mu: PathMeasure, partitions,
                         n_max: int) -> float:
    """Entropy rate of lifted position-and-symbol words, maxed over a
    refining partition schedule.

    The rate uses the increment H_n - H_(n-1) at the deepest available n,
    which converges faster than H_n / n and vanishes exactly for measures
    whose randomness sits entirely in the starting position.  Raises
    ValueError for n_max below 1, which would leave no rate at all.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    gap = measure_distance(pushforward(mu, 0), nu)
    if gap > PUSHFORWARD_TOL:
        raise PushforwardMismatch(
            f"push-forward differs from nu by {gap:.4f} > {PUSHFORWARD_TOL}")
    best = 0.0
    for q in partitions:
        hs = entropy_rate_sequence(mu, q, n_max)
        rate = hs[-1] - hs[-2] if len(hs) >= 2 else hs[0]
        best = max(best, rate)
    return best


def measure_entropy(nu: SphereMeasure, candidate_mus, partitions, n_max: int) -> float:
    """Lower bound for the entropy of nu: max of the intermediate entropy
    over candidate path measures pushing forward to nu."""
    best = None
    for mu in candidate_mus:
        try:
            value = intermediate_entropy(nu, mu, partitions, n_max)
        except PushforwardMismatch:
            continue
        best = value if best is None else max(best, value)
    if best is None:
        raise NoValidCandidates("no candidate satisfies the push-forward constraint")
    return best


# ---------------------------------------------------------------------------
# Variational inequality report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationalEntry:
    label: str
    nu: SphereMeasure
    candidates: tuple[PathMeasure, ...]


@dataclass(frozen=True)
class VariationalRow:
    label: str
    entropy: float
    integral: float
    value: float
    gap: float
    within: bool


@dataclass(frozen=True)
class VariationalReport:
    pressure: float
    rows: tuple[VariationalRow, ...]

    @property
    def all_within(self) -> bool:
        return all(r.within for r in self.rows)

    @property
    def best_value(self) -> float:
        return max(r.value for r in self.rows)

    @property
    def best_gap(self) -> float:
        return min(r.gap for r in self.rows)


def variational_check(f: SphereFunction, nu_list, pressure: float, partitions,
                      n_max: int, slack: float) -> VariationalReport:
    """Report entropy + integral against the pressure estimate for each nu.

    Every row should satisfy value <= pressure + slack; the report also
    exposes the smallest gap as the variational lower-bound quality.
    """
    rows = []
    for entry in nu_list:
        h = measure_entropy(entry.nu, entry.candidates, partitions, n_max)
        integral = entry.nu.integrate(f)
        value = h + integral
        gap = pressure - value
        rows.append(VariationalRow(entry.label, h, integral, value, gap,
                                   value <= pressure + slack))
    return VariationalReport(pressure, tuple(rows))
