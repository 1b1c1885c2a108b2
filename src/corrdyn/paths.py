"""Permissible iteration paths of a correspondence.

A path of length n records n+1 sphere points, the n component symbols
labelling each step, and n branch slots.  Points are ordered oldest
first, so symbols[i] always labels the incidence between points[i] and
points[i+1].  A backward path from y0 is a permissible path ending at y0
and uses the same type and layout.  branches[i] is the slot, inside the
fiber the enumerator expanded, of the point it added at step i: points[i+1]
in the forward fiber of points[i], or points[i] in the backward fiber of
points[i+1].

A ``ForwardPath`` holds one path as objects.  A ``PathBatch`` holds a pool
of equal-length paths as arrays, each row tagged with the tree (the
start) it grew from; its rows index and iterate as ``ForwardPath``s.  The
enumerators grow every tree of a batch together, one ``fiber_arrays``
call per level, the level of starts included, and the separated and
spanning families are computed from batched pair distances (``sph_dist``
on chart arrays).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .correspondence import Correspondence, Fiber
from .errors import EmptyPath, IndexOutOfRange, LengthMismatch
from .sphere import SpherePoint, chart_unit_vectors, chart_values, sph_dist


@dataclass(frozen=True)
class ForwardPath:
    points: tuple[SpherePoint, ...]
    symbols: tuple[int, ...]
    branches: tuple[int, ...]

    def __post_init__(self):
        n = len(self.points) - 1
        if n < 0 or len(self.symbols) != n or len(self.branches) != n:
            raise LengthMismatch(
                f"need n+1 points and n symbols/branches, got "
                f"{len(self.points)}/{len(self.symbols)}/{len(self.branches)}")

    @property
    def length(self) -> int:
        return len(self.points) - 1

    def children(self, fiber: Fiber, backward: bool = False) -> Iterator["ForwardPath"]:
        """One-step extensions across fiber, one per branch slot in fiber
        order: appended after the last point, or, when backward, prepended
        before the first.  A fiber point of multiplicity m spawns m
        children carrying consecutive slots."""
        for b in fiber.branches:
            for j in range(b.multiplicity):
                if backward:
                    yield ForwardPath((b.point,) + self.points,
                                      (b.component,) + self.symbols,
                                      (b.branch_index + j,) + self.branches)
                else:
                    yield ForwardPath(self.points + (b.point,),
                                      self.symbols + (b.component,),
                                      self.branches + (b.branch_index + j,))


@dataclass(frozen=True, eq=False)
class PathBatch:
    """Equal-length paths as arrays, one row per path.

    ``values`` and ``inverted`` are the (N, n+1) chart values and flags of
    the points, ``symbols`` and ``branches`` the (N, n) steps, ``tree`` the
    start each path grew from and ``thinned`` (one entry per tree) whether
    the tree's paths are a thinned subsample.  A batch that an enumerator
    grew by at least one level also has ``origin``: the row of each path's
    ancestor in the batch it was grown from.  The close pairs of the batch
    are kept per eps once computed (``_close_pairs``), so that both greedy
    families of one batch share them.  A batch grown forward also keeps,
    in ``_origin_pairs``, the pairs its source batch had computed by then
    (eps -> (i, j, worst, source length)), but not the source itself; its
    own close pairs are then found among the children of those pairs.
    """

    values: np.ndarray
    inverted: np.ndarray
    symbols: np.ndarray
    branches: np.ndarray
    tree: np.ndarray
    thinned: np.ndarray
    origin: np.ndarray | None = None
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _origin_pairs: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    @classmethod
    def from_starts(cls, starts) -> "PathBatch":
        """One length-0 path, and one tree, per start point."""
        values, inverted = chart_values(starts)
        steps = np.zeros((len(values), 0), dtype=np.int64)
        return cls(values[:, None], inverted[:, None], steps, steps,
                   np.arange(len(values)), np.zeros(len(values), dtype=bool))

    @classmethod
    def from_paths(cls, paths) -> "PathBatch":
        """Equal-length paths as one tree."""
        paths = list(paths)
        n = paths[0].length if paths else 0
        if any(p.length != n for p in paths):
            raise LengthMismatch("all paths must share one length")
        values, inverted = chart_values(x for p in paths for x in p.points)

        def steps(rows):
            return np.array(rows, dtype=np.int64).reshape(len(paths), n)

        return cls(values.reshape(len(paths), n + 1), inverted.reshape(len(paths), n + 1),
                   steps([p.symbols for p in paths]), steps([p.branches for p in paths]),
                   np.zeros(len(paths), dtype=np.int64), np.zeros(1, dtype=bool))

    @property
    def length(self) -> int:
        return self.values.shape[1] - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> ForwardPath:
        k = operator.index(k)
        points = tuple(map(SpherePoint.from_chart, self.values[k].tolist(),
                           self.inverted[k].tolist()))
        return ForwardPath(points, tuple(self.symbols[k].tolist()),
                           tuple(self.branches[k].tolist()))

    def __iter__(self):
        return (self[k] for k in range(len(self)))


class Enumeration(NamedTuple):
    paths: PathBatch
    truncated: bool


def _thin(tree: np.ndarray, cap: int, seeds, depth: int, thinned: np.ndarray):
    """Rows kept of the level at depth: all of them, except that every tree
    with more than cap rows keeps a uniform subsample of cap, its rows
    sorted(rng.choice(count, cap, replace=False)) with a generator made
    from the tree's seed and depth: ``default_rng([*seed, depth])``, or
    ``[seed, depth]`` for an int seed, and an unseeded one for None."""
    counts = np.bincount(tree, minlength=len(thinned))
    over = np.nonzero(counts > cap)[0].tolist()
    if not over:
        return slice(None)
    by_tree = np.argsort(tree, kind="stable")
    first = np.cumsum(counts) - counts
    keep = np.ones(len(tree), dtype=bool)
    for t in over:
        seed = None if seeds[t] is None else [*np.atleast_1d(seeds[t]).tolist(), depth]
        rows = by_tree[first[t]:first[t] + counts[t]]
        keep[rows] = False
        pick = np.random.default_rng(seed).choice(int(counts[t]), size=cap, replace=False)
        keep[rows[np.sort(pick)]] = True
        thinned[t] = True
    return keep


def _grow(corr: Correspondence, batch: PathBatch, n: int, cap: int, seeds,
          backward: bool) -> PathBatch:
    """Breadth-first growth of every tree of batch by n levels.

    Every level, the starts included, is one ``fiber_arrays`` call across
    all trees.  A fiber point of multiplicity m spawns m children carrying
    consecutive slots, appended after the last point, or, when backward,
    prepended before the first.  A tree whose level outgrows ``cap`` is
    thinned (``_thin``), so untruncated trees do not depend on their seeds.
    A thinned level draws from the tree's seed and the level's depth
    alone, so growing a batch, thinned or not, by k more levels gives, path
    for path, the level k deeper that its starts and seeds enumerate to.
    Each level keeps only its new column and its parent rows; the paths
    are gathered once, at the end, column by column, and the rows of batch
    they grew from are the ``origin`` of the result.  A forward result
    also keeps the close pairs batch holds (``PathBatch._origin_pairs``).
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    if n == 0:
        return batch
    end = 0 if backward else -1
    values, inverted = batch.values[:, end], batch.inverted[:, end]
    tree, thinned = batch.tree, batch.thinned.copy()
    levels = []
    for depth in range(batch.length + 1, batch.length + n + 1):
        owner, mult, values, inverted, component, slot = corr.fiber_arrays(
            values, inverted, backward)
        point = np.repeat(np.arange(len(mult)), mult)
        branch = np.repeat(slot - np.cumsum(mult) + mult, mult) + np.arange(len(point))
        parent = owner[point]
        keep = _thin(tree[parent], cap, seeds, depth, thinned)
        point, branch, parent = point[keep], branch[keep], parent[keep]
        tree = tree[parent]
        values, inverted = values[point], inverted[point]
        levels.append((parent, values, inverted, component[point], branch))

    old = (batch.values, batch.inverted, batch.symbols, batch.branches)
    joined = [np.empty((len(tree), a.shape[1] + n), dtype=a.dtype) for a in old]
    rows = np.arange(len(tree))
    for step in reversed(range(n)):
        parent, *new = levels.pop()
        at = n - 1 - step if backward else batch.length + step
        for a, column, k in zip(joined, new, (at + (not backward),) * 2 + (at,) * 2):
            a[:, k] = column[rows]
        rows = parent[rows]
    for a, column in zip(joined, old):
        if backward:
            a[:, n:] = column[rows]
        else:
            a[:, :column.shape[1]] = column[rows]
    grown = PathBatch(*joined, tree, thinned, rows)
    if not backward:
        grown._origin_pairs.update((eps, (*pairs, batch.length))
                                   for eps, pairs in batch._pairs.items())
    return grown


def _enumerate(corr: Correspondence, x0, n: int, cap: int, seed,
               backward: bool) -> Enumeration:
    if isinstance(x0, (PathBatch, list)):
        batch = x0 if isinstance(x0, PathBatch) else PathBatch.from_paths(x0)
        seeds = [None] * len(batch.thinned) if seed is None else list(seed)
        if len(seeds) != len(batch.thinned):
            raise ValueError(f"need one seed per tree: {len(batch.thinned)} trees, "
                             f"{len(seeds)} seeds")
    else:
        batch, seeds = PathBatch.from_starts([x0]), [seed]
    grown = _grow(corr, batch, n, cap, seeds, backward)
    return Enumeration(grown, bool(grown.thinned.any()))


def enumerate_forward_paths(corr: Correspondence, x0, n: int, cap: int,
                            seed) -> Enumeration:
    """All forward paths from x0 up to depth n, breadth first, thinned to
    at most cap per level.

    x0 may also be a ``PathBatch`` (or a list of equal-length paths, one
    tree), a level of earlier calls: every tree is then grown n further
    levels, thinned to at most cap per tree, and seed, if given, holds one
    seed per tree.  A depth-m level of x grown by k levels gives the depth
    m + k paths of x under the same seed, path for path and in the same
    order, whether or not a tree is thinned on the way, since each thinned
    level draws from its tree's seed and its depth (``_thin``).
    ``truncated`` tells whether any tree is thinned.
    """
    return _enumerate(corr, x0, n, cap, seed, backward=False)


def enumerate_backward_paths(corr: Correspondence, y0, n: int, cap: int,
                             seed) -> Enumeration:
    """All backward paths ending at y0 up to depth n, breadth first,
    thinned to at most cap per level; y0 may be a batch, as for
    ``enumerate_forward_paths``."""
    return _enumerate(corr, y0, n, cap, seed, backward=True)


# ---------------------------------------------------------------------------
# Metric, shift and projections
# ---------------------------------------------------------------------------


def path_metric(p: ForwardPath, q: ForwardPath) -> float:
    """Weighted sup metric on equal-length paths.

    max over r of 2^-r * sph_dist at coordinate r, joined with 2^-r for
    every symbol mismatch at step r.
    """
    if p.length != q.length:
        raise LengthMismatch(f"paths have lengths {p.length} and {q.length}")
    best = 0.0
    for r in range(p.length + 1):
        best = max(best, sph_dist(p.points[r], q.points[r]) / (1 << r))
    for r in range(1, p.length + 1):
        if p.symbols[r - 1] != q.symbols[r - 1]:
            best = max(best, 1.0 / (1 << r))
    return best


def shift(p: ForwardPath) -> ForwardPath:
    """Drop the initial point, first symbol and first branch."""
    if p.length < 1:
        raise EmptyPath("cannot shift a length-0 path")
    return ForwardPath(p.points[1:], p.symbols[1:], p.branches[1:])


def project_point(p, r: int) -> SpherePoint:
    if not 0 <= r <= p.length:
        raise IndexOutOfRange(f"point index {r} outside [0, {p.length}]")
    return p.points[r]


def project_symbol(p, r: int) -> int:
    if not 1 <= r <= p.length:
        raise IndexOutOfRange(f"symbol index {r} outside [1, {p.length}]")
    return p.symbols[r - 1]


# ---------------------------------------------------------------------------
# Separated and spanning families
# ---------------------------------------------------------------------------


#: Widening of the cubes beyond eps, so that rounding in the unit vectors
#: and in sph_dist cannot undercut the margin even for tiny eps.
_CUBE_SLACK = 1e-12

#: Odd multiplier of the cube and word keys (unsigned, wrapping).
_MIX = 0x9E3779B97F4A7C15

#: Key offsets of the 13 cubes after a cube in lexicographic order; the
#: other 13 neighbours come before it.
_NEIGHBOUR_OFFSETS = np.array(
    [(d0 * _MIX * _MIX + d1 * _MIX + d2) % 2 ** 64
     for d0, d1, d2 in itertools.product((-1, 0, 1), repeat=3) if (d0, d1, d2) > (0, 0, 0)],
    dtype=np.uint64)


def _family_input(paths, eps: float, weight):
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    batch = paths if isinstance(paths, PathBatch) else PathBatch.from_paths(paths)
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        if weight.shape != (len(batch),):
            raise LengthMismatch(f"need one weight per path, got {weight.shape} "
                                 f"for {len(batch)} paths")
    return batch, weight


def _cubes(batch: PathBatch, eps: float) -> np.ndarray:
    """The eps-cube (side eps plus slack) holding each path's point 0: the
    floor of its unit vector over the side, as (N, 3) integers."""
    vectors = chart_unit_vectors(batch.values[:, 0], batch.inverted[:, 0])
    return np.floor(vectors / (eps + _CUBE_SLACK)).astype(np.int64)


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """(p, q) for every p and every q in lo[p]..hi[p] - 1."""
    count = hi - lo
    p = np.repeat(np.arange(len(lo)), count)
    return p, np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(p))


def _close_pairs(batch: PathBatch, eps: float):
    """(i, j, worst) of every pair of paths with one symbol word and every
    coordinate within eps, worst their largest coordinate distance.

    A batch grown forward from a source that holds its pairs at some
    eps' >= eps takes them from there (``_inherited_pairs``), thinned trees
    included, since every grown path's ancestor is a row of the source; any
    other batch, from the eps-cubes of its points 0 (``_cube_pairs``).  Both
    give the same set of pairs, and the greedy families depend on that
    set alone.  The result is kept on the batch, by eps.
    """
    if eps not in batch._pairs:
        above = [e for e in batch._origin_pairs if e >= eps]
        batch._pairs[eps] = (_inherited_pairs(batch, eps, *batch._origin_pairs[min(above)])
                             if above else _cube_pairs(batch, eps))
    return batch._pairs[eps]


def _cube_pairs(batch: PathBatch, eps: float):
    """``_close_pairs`` by a search over eps-cubes.

    Chordal distance is the Euclidean distance of unit vectors, so paths
    whose points 0 lie in non-adjacent cubes (``_cubes``) are more than
    eps apart there.  The candidates are therefore the pairs of the same
    or adjacent cubes, found by sorting a key that mixes cube and word in
    wrapping unsigned arithmetic.  Equal cubes and words give equal keys,
    and a neighbour's key is the key plus a fixed offset; keys that
    collide only add candidates, which the exact word test drops.  The
    candidates are then kept coordinate by coordinate, from point 0, while
    ``sph_dist`` <= eps.
    """
    with np.errstate(over="ignore"):
        key = np.zeros(len(batch), dtype=np.uint64)
        for column in batch.symbols.T:
            key = key * np.uint64(_MIX) + column.astype(np.uint64)
        for column in _cubes(batch, eps).T:
            key = key * np.uint64(_MIX) + column.astype(np.uint64)
        by_key = np.argsort(key, kind="stable")
        ranked = key[by_key]
        # Partners of the path at each sorted position: those after it with
        # its own key, and all of each following neighbour cube.  The
        # queries stay (nearly) sorted, which searchsorted is fast on.
        position = np.arange(len(batch))
        pairs = [_ranges(position + 1, np.searchsorted(ranked, ranked, "right"))]
        for offset in _NEIGHBOUR_OFFSETS:
            shifted = ranked + offset
            pairs.append(_ranges(np.searchsorted(ranked, shifted, "left"),
                                 np.searchsorted(ranked, shifted, "right")))
    i = by_key[np.concatenate([p for p, _ in pairs])]
    j = by_key[np.concatenate([q for _, q in pairs])]
    same = np.ones(len(i), dtype=bool)
    for column in batch.symbols.T:
        same &= column[i] == column[j]
    i, j = i[same], j[same]
    return _within(batch, eps, i, j, np.zeros(len(i)), 0)


def _inherited_pairs(batch: PathBatch, eps: float, up_i: np.ndarray, up_j: np.ndarray,
                     up_worst: np.ndarray, m: int):
    """``_close_pairs`` of a batch grown forward from a length-m source,
    from the source's pairs (up_i, up_j, up_worst) at some eps' >= eps.

    Two paths agree on points 0..m and steps 0..m-1 exactly when their
    ancestors do, so a close pair is two children of one ancestor or a
    child of each end of an ancestor pair whose worst is at most eps, with
    one word on the new steps.  Those are found by a join on (ancestor,
    new-step word): the rows are sorted into groups by that key, every
    pair within a group is a candidate, and each ancestor pair matches the
    groups of its first end with the groups of the same word of its
    second.  The candidates are then kept coordinate by coordinate from
    point m + 1, with the ancestor's worst (0 for siblings) as the start of
    their running maximum.
    """
    new = batch.symbols[:, m:]
    by_word = np.lexsort(new.T[::-1])
    opens = np.ones(len(batch), dtype=bool)
    opens[1:] = (new[by_word[1:]] != new[by_word[:-1]]).any(axis=1)
    word = np.empty(len(batch), dtype=np.int64)
    word[by_word] = np.cumsum(opens) - 1
    width = int(opens.sum()) + 1
    key = batch.origin * width + word
    by_key = np.argsort(key, kind="stable")
    ranked = key[by_key]
    first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    end = np.r_[first[1:], len(ranked)]
    group_key = ranked[first]

    siblings = _ranges(np.arange(len(ranked)) + 1, np.searchsorted(ranked, ranked, "right"))
    close = up_worst <= eps
    up_i, up_j, up_worst = up_i[close], up_j[close], up_worst[close]
    origin = batch.origin[by_key[first]]
    pair, group = _ranges(np.searchsorted(origin, up_i, "left"),
                          np.searchsorted(origin, up_i, "right"))
    wanted = group_key[group] + (up_j[pair] - up_i[pair]) * width
    partner = np.minimum(np.searchsorted(group_key, wanted), len(group_key) - 1)
    match = group_key[partner] == wanted
    pair, group, partner = pair[match], group[match], partner[match]
    size = end[partner] - first[partner]
    count = (end[group] - first[group]) * size
    product = np.repeat(np.arange(len(pair)), count)
    step = np.arange(len(product)) - np.repeat(np.cumsum(count) - count, count)
    i = by_key[np.concatenate([siblings[0], first[group][product] + step // size[product]])]
    j = by_key[np.concatenate([siblings[1], first[partner][product] + step % size[product]])]
    worst = np.concatenate([np.zeros(len(siblings[0])), up_worst[pair][product]])
    return _within(batch, eps, i, j, worst, m + 1)


def _within(batch: PathBatch, eps: float, i: np.ndarray, j: np.ndarray,
            worst: np.ndarray, r0: int):
    """The pairs (i, j) that stay within eps at every point from r0 on,
    with the running maximum of their distances, from worst."""
    for r in range(r0, batch.length + 1):
        d = sph_dist((batch.values[i, r], batch.inverted[i, r]),
                     (batch.values[j, r], batch.inverted[j, r]))
        close = d <= eps
        i, j, worst = i[close], j[close], np.maximum(worst[close], d[close])
    return i, j, worst


def _greedy(order: np.ndarray, i: np.ndarray, j: np.ndarray) -> list[int]:
    """Rows of order admitted one by one, each unless it is paired, as
    (i, j) or (j, i), with a row admitted before it.

    Only a row that ends a pair can be blocked or block another, so only
    those rows are walked, in the order given; the rest are admitted."""
    ends = np.concatenate([i, j])
    by_end = np.argsort(ends, kind="stable")
    bounds = np.searchsorted(ends[by_end], np.arange(len(order) + 1)).tolist()
    partners = np.concatenate([j, i])[by_end].tolist()
    paired = np.zeros(len(order), dtype=bool)
    paired[ends] = True
    blocked = bytearray(len(order))
    for k in order[paired[order]].tolist():
        if not blocked[k]:
            for m in partners[bounds[k]:bounds[k + 1]]:
                blocked[m] = 1
    blocked = np.frombuffer(blocked, dtype=bool)
    return order[~blocked[order]].tolist()


def separated_subset(paths, eps: float, weight=None) -> list[int]:
    """Greedy maximal separated family, heaviest paths first.

    paths is a ``PathBatch`` or a list of equal-length paths, weight None
    or one value per path; the result is the admitted row indices in
    admission order.  A candidate is admitted unless an admitted path has
    its symbol word and stays within eps at every coordinate.  The
    descending-weight greedy order (ties in index order) makes the family
    a reproducible lower bound for the supremum of the weight sum over all
    separated families of the input.
    """
    batch, weight = _family_input(paths, eps, weight)
    order = (np.arange(len(batch)) if weight is None
             else np.argsort(-weight, kind="stable"))
    i, j, _ = _close_pairs(batch, eps)
    return _greedy(order, i, j)


def spanning_subset(paths, eps: float, weight=None) -> list[int]:
    """Greedy cover of the input at scale eps, lightest paths first.

    Takes and returns what ``separated_subset`` does.  A path is admitted
    unless an already admitted path with the identical symbol word stays
    strictly within eps at every coordinate; the result eps-spans the
    whole input.
    """
    batch, weight = _family_input(paths, eps, weight)
    order = (np.arange(len(batch)) if weight is None
             else np.argsort(weight, kind="stable"))
    i, j, worst = _close_pairs(batch, eps)
    covers = worst < eps
    return _greedy(order, i[covers], j[covers])
