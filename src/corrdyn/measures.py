"""Measures on the sphere and on path space, partitions, and entropies.

Sphere measures are weight vectors on a fixed equal-area grid.  Path
measures are depth-D cylinder weights on words of (cell, symbol) pairs,
where the pair at position p records the grid cell of the p-th point and
the component symbol of the following step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence
from .errors import (IndexOutOfRange, NoValidCandidates, NotAPartition,
                     PushforwardMismatch, TrajectoryEscape)
from .functions import SphereFunction, TestFunctionFamily, default_test_family
from .grid import SphereGrid
from .sphere import SpherePoint, as_sphere_point

MASS_TOL = 1e-12

CylinderKey = tuple[tuple[int, int], ...]


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
    def from_particles(cls, grid: SphereGrid, particles) -> "SphereMeasure":
        """Accumulate (point, weight) pairs into cells, in particle order."""
        pairs = list(particles)
        cells = grid.cell_index_many([point for point, _ in pairs])
        w = np.bincount(cells, weights=[float(weight) for _, weight in pairs],
                        minlength=grid.n_cells)
        return cls(grid, w)

    @classmethod
    def dirac(cls, grid: SphereGrid, point) -> "SphereMeasure":
        w = np.zeros(grid.n_cells)
        w[grid.cell_index(point)] = 1.0
        return cls(grid, w)

    @classmethod
    def uniform(cls, grid: SphereGrid) -> "SphereMeasure":
        return cls(grid, np.full(grid.n_cells, 1.0 / grid.n_cells))

    def integrate(self, f: SphereFunction) -> float:
        total = 0.0
        for idx in np.nonzero(self.weights)[0]:
            total += self.weights[idx] * f(self.grid.cell_center(int(idx)))
        return total

    def support_cells(self, threshold: float = 0.0) -> frozenset[int]:
        return frozenset(int(i) for i in np.nonzero(self.weights > threshold)[0])


def total_variation(m1: SphereMeasure, m2: SphereMeasure) -> float:
    if m1.grid is not m2.grid and m1.grid.n_cells != m2.grid.n_cells:
        raise ValueError("measures live on different grids")
    return 0.5 * float(np.abs(m1.weights - m2.weights).sum())


@dataclass
class PathMeasure:
    """Probability measure on depth-D cylinder words of forward paths."""

    grid: SphereGrid
    cylinders: dict[CylinderKey, float]
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("path measure needs depth >= 1")
        weights = list(self.cylinders.values())
        if not all(math.isfinite(w) for w in weights):
            raise ValueError("cylinder weights must be finite")
        if abs(sum(weights) - 1.0) > 1e-9 or min(weights) < 0:
            raise ValueError("cylinder weights must be a probability vector")
        for key in self.cylinders:
            if len(key) != self.depth:
                raise ValueError("cylinder word length differs from depth")

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
        cylinders: dict[CylinderKey, float] = {}
        for path, weight in zip(paths, w):
            key = tuple((grid.cell_index(path.points[p]), path.symbols[p])
                        for p in range(depth))
            cylinders[key] = cylinders.get(key, 0.0) + float(weight)
        return cls(grid, cylinders, depth)

    @classmethod
    def from_cylinders(cls, grid: SphereGrid, cylinders) -> "PathMeasure":
        cylinders = dict(cylinders)
        return cls(grid, cylinders, len(next(iter(cylinders))))

    def marginal(self, n: int) -> dict[CylinderKey, float]:
        """Cylinder weights of the first n (cell, symbol) pairs."""
        if n < 0 or n > self.depth:
            raise IndexOutOfRange(f"marginal depth {n} outside [0, {self.depth}]")
        out: dict[CylinderKey, float] = {}
        for key, w in self.cylinders.items():
            head = key[:n]
            out[head] = out.get(head, 0.0) + w
        return out


def pushforward(mu: PathMeasure, r: int) -> SphereMeasure:
    """Sphere marginal of the r-th path position."""
    if not 0 <= r < mu.depth:
        raise IndexOutOfRange(f"position {r} outside cylinder depth {mu.depth}")
    w = np.zeros(mu.grid.n_cells)
    for key, weight in mu.cylinders.items():
        w[key[r][0]] += weight
    return SphereMeasure(mu.grid, w)


def measure_distance(m1: SphereMeasure, m2: SphereMeasure,
                     fam: TestFunctionFamily | None = None) -> float:
    """Weighted test-function gap, compatible with weak-star convergence."""
    if fam is None:
        fam = default_test_family()
    fam.require_nonempty()
    total = 0.0
    for weight, f in zip(fam.weights, fam.functions):
        total += weight * abs(m1.integrate(f) - m2.integrate(f))
    return total


# ---------------------------------------------------------------------------
# Empirical invariant measures and shift invariance
# ---------------------------------------------------------------------------


def empirical_invariant_measure(corr: Correspondence, x0, n_burn: int,
                                n_keep: int, depth: int,
                                seed: int | None = None,
                                grid: SphereGrid | None = None) -> PathMeasure:
    """Birkhoff average of depth-D cylinder occupations along one random
    forward trajectory with uniformly chosen branches.

    The output is in cylinder form and approximately shift invariant with
    an O(n_keep^-1/2) defect.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_keep < depth:
        raise ValueError("n_keep must be at least the cylinder depth")
    grid = grid or SphereGrid(400)
    rng = np.random.default_rng(seed)
    steps = n_burn + n_keep + depth

    point = as_sphere_point(x0)
    cells = [grid.cell_index(point)]
    symbols: list[int] = []
    for _ in range(steps):
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
        pick = slots[int(rng.integers(len(slots)))]
        point = pick.point
        symbols.append(pick.component)
        cells.append(grid.cell_index(point))

    counts: dict[CylinderKey, float] = {}
    for p in range(n_burn, n_burn + n_keep):
        key = tuple((cells[p + i], symbols[p + i]) for i in range(depth))
        counts[key] = counts.get(key, 0.0) + 1.0
    total = float(sum(counts.values()))
    cylinders = {k: v / total for k, v in counts.items()}
    return PathMeasure.from_cylinders(grid, cylinders)


@dataclass(frozen=True)
class InvarianceReport:
    defect: float
    tol: float
    passed: bool
    n_cylinders: int


def check_shift_invariance(mu: PathMeasure, tol: float) -> InvarianceReport:
    """Compare mass of depth-(D-1) cylinders with their shift preimages."""
    heads: dict[CylinderKey, float] = {}
    tails: dict[CylinderKey, float] = {}
    for key, w in mu.cylinders.items():
        head = key[:-1]
        tail = key[1:]
        heads[head] = heads.get(head, 0.0) + w
        tails[tail] = tails.get(tail, 0.0) + w
    defect = 0.0
    for key in set(heads) | set(tails):
        defect = max(defect, abs(heads.get(key, 0.0) - tails.get(key, 0.0)))
    return InvarianceReport(defect, tol, defect <= tol, len(mu.cylinders))


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpherePartition:
    """Disjoint exhaustive grouping of grid cells."""

    grid: SphereGrid
    cells: tuple[frozenset[int], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.cells) != len(self.labels):
            raise NotAPartition("labels must align with cells")
        seen: set[int] = set()
        count = 0
        for group in self.cells:
            count += len(group)
            seen.update(group)
        if count != len(seen) or seen != set(range(self.grid.n_cells)):
            raise NotAPartition("cells must be disjoint and cover the grid")

    @property
    def size(self) -> int:
        return len(self.cells)

    def label_of_cell(self) -> np.ndarray:
        out = np.empty(self.grid.n_cells, dtype=int)
        for i, group in enumerate(self.cells):
            for c in group:
                out[c] = i
        return out

    @classmethod
    def trivial(cls, grid: SphereGrid) -> "SpherePartition":
        return cls(grid, (frozenset(range(grid.n_cells)),), ("all",))

    @classmethod
    def sectors(cls, grid: SphereGrid, n_z: int, n_phi: int) -> "SpherePartition":
        """Partition by z-slabs and longitude sectors of the cell centers."""
        groups: dict[tuple[int, int], set[int]] = {}
        for idx in range(grid.n_cells):
            theta, phi = grid.cell_center_angles(idx)
            z = math.cos(theta)
            zi = min(int((1.0 - z) / 2.0 * n_z), n_z - 1)
            pi = min(int(phi / (2.0 * math.pi) * n_phi), n_phi - 1)
            groups.setdefault((zi, pi), set()).add(idx)
        keys = sorted(groups)
        return cls(grid,
                   tuple(frozenset(groups[k]) for k in keys),
                   tuple(f"z{zi}p{pi}" for zi, pi in keys))


def join(a: SpherePartition, b: SpherePartition) -> SpherePartition:
    """Common refinement: all nonempty pairwise intersections."""
    if a.grid is not b.grid and a.grid.n_cells != b.grid.n_cells:
        raise NotAPartition("partitions live on different grids")
    cells = []
    labels = []
    for i, ga in enumerate(a.cells):
        for j, gb in enumerate(b.cells):
            inter = ga & gb
            if inter:
                cells.append(inter)
                labels.append(f"{a.labels[i]}&{b.labels[j]}")
    return SpherePartition(a.grid, tuple(cells), tuple(labels))


def partition_entropy(mu: SphereMeasure, partition: SpherePartition) -> float:
    """Shannon entropy of the measure over the partition, 0 log 0 = 0."""
    if partition.grid.n_cells != mu.grid.n_cells:
        raise NotAPartition("partition does not match the measure grid")
    masses = np.bincount(partition.label_of_cell(), weights=mu.weights,
                         minlength=partition.size)
    if abs(masses.sum() - 1.0) > 1e-9:
        raise NotAPartition("partition does not exhaust the measure")
    return _shannon(masses)


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
    """Masses of the n-fold join of the lifted partition under mu."""
    label = q.label_of_cell()
    out: dict[tuple, float] = {}
    for key, w in mu.marginal(n).items():
        word = tuple((int(label[c]), s) for c, s in key)
        out[word] = out.get(word, 0.0) + w
    return list(out.values())


def entropy_rate_sequence(mu: PathMeasure, q: SpherePartition, n_max: int) -> list[float]:
    """H_n of joined lifted partitions for n = 1 .. min(n_max, depth)."""
    n_eff = min(n_max, mu.depth)
    return [_shannon(joined_lift_masses(mu, q, n)) for n in range(1, n_eff + 1)]


def intermediate_entropy(nu: SphereMeasure, mu: PathMeasure, partitions,
                         n_max: int, pf_tol: float = 0.05) -> float:
    """Entropy rate of lifted position-and-symbol words, maxed over a
    refining partition schedule.

    The rate uses the increment H_n - H_(n-1) at the deepest available n,
    which converges faster than H_n / n and vanishes exactly for measures
    whose randomness sits entirely in the starting position.
    """
    gap = measure_distance(pushforward(mu, 0), nu)
    if gap > pf_tol:
        raise PushforwardMismatch(
            f"push-forward differs from nu by {gap:.4f} > {pf_tol}")
    best = 0.0
    for q in partitions:
        hs = entropy_rate_sequence(mu, q, n_max)
        if not hs:
            continue
        rate = hs[-1] - hs[-2] if len(hs) >= 2 else hs[0]
        best = max(best, rate)
    return best


def measure_entropy(nu: SphereMeasure, candidate_mus, partitions, n_max: int,
                    pf_tol: float = 0.05) -> float:
    """Lower bound for the entropy of nu: max of the intermediate entropy
    over candidate path measures pushing forward to nu."""
    best = None
    for mu in candidate_mus:
        try:
            value = intermediate_entropy(nu, mu, partitions, n_max, pf_tol)
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
    slack: float
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


def variational_check(f: SphereFunction, nu_list, pressure_report,
                      partitions=None, n_max: int = 6,
                      slack: float = 0.05, pf_tol: float = 0.05) -> VariationalReport:
    """Report entropy + integral against the pressure estimate for each nu.

    Every row should satisfy value <= pressure + slack; the report also
    exposes the smallest gap as the variational lower-bound quality.
    """
    pressure = float(getattr(pressure_report, "pressure", pressure_report))
    rows = []
    for entry in nu_list:
        if partitions is None:
            parts = [SpherePartition.trivial(entry.nu.grid)]
        else:
            parts = partitions
        h = measure_entropy(entry.nu, entry.candidates, parts, n_max, pf_tol)
        integral = entry.nu.integrate(f)
        value = h + integral
        gap = pressure - value
        rows.append(VariationalRow(entry.label, h, integral, value, gap,
                                   value <= pressure + slack))
    return VariationalReport(pressure, slack, tuple(rows))
