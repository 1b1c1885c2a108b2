"""Permissible iteration paths of a correspondence.

A path of length n records n+1 sphere points, the n component symbols
labelling each step, and n branch slots.  Points are ordered oldest
first, so symbols[i] always labels the incidence between points[i] and
points[i+1].  A backward path from y0 is a permissible path ending at y0
and uses the same type and layout.  branches[i] is the slot, inside the
fiber the enumerator expanded, of the point it added at step i: points[i+1]
in the forward fiber of points[i], or points[i] in the backward fiber of
points[i+1].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .correspondence import Correspondence, Fiber
from .errors import EmptyPath, IndexOutOfRange, LengthMismatch
from .sphere import (SpherePoint, as_sphere_point, chart_unit_vectors, chart_values,
                     sph_dist)


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

    def max_incidence_residual(self, corr: Correspondence) -> float:
        worst = 0.0
        for r in range(self.length):
            res = corr.incidence_residual(self.points[r], self.points[r + 1],
                                          self.symbols[r])
            worst = max(worst, res)
        return worst

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


class Enumeration(NamedTuple):
    paths: list
    truncated: bool


def _thin(items: list, cap: int, rng: np.random.Generator) -> list:
    if len(items) <= cap:
        return items
    idx = rng.choice(len(items), size=cap, replace=False)
    return [items[int(i)] for i in sorted(idx)]


def _enumerate(corr: Correspondence, level: list[ForwardPath], n: int, cap: int,
               seed: int | None, backward: bool) -> Enumeration:
    """Breadth-first growth of level, a list of equal-length paths, by n
    levels.

    A level of several paths has all its fibers solved in one
    ``*_images_many`` call; a one-path level (a start, and every level
    of a single-branch map) takes the scalar fiber, which is cheaper for
    one point.  Whenever a level outgrows ``cap`` it is thinned to a
    seeded uniform subsample and the result is flagged truncated.  The
    generator is drawn from only when a level is thinned, so untruncated
    levels do not depend on the seed.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    if backward:
        images, images_many = corr.backward_images, corr.backward_images_many
    else:
        images, images_many = corr.forward_images, corr.forward_images_many
    end = 0 if backward else -1
    rng = np.random.default_rng(seed)
    truncated = False
    for _ in range(n):
        ends = [path.points[end] for path in level]
        fibers = [images(ends[0])] if len(ends) == 1 else images_many(ends)
        nxt = [child for path, fiber in zip(level, fibers)
               for child in path.children(fiber, backward)]
        if len(nxt) > cap:
            nxt = _thin(nxt, cap, rng)
            truncated = True
        level = nxt
    return Enumeration(level, truncated)


def _start_level(start) -> list[ForwardPath]:
    return [ForwardPath((as_sphere_point(start),), (), ())]


def enumerate_forward_paths(corr: Correspondence, x0, n: int, cap: int = 4096,
                            seed: int | None = None) -> Enumeration:
    """All forward paths from x0 up to depth n, breadth first, thinned to
    at most cap per level.

    x0 may also be a list of equal-length forward paths, a level of an
    earlier call: it is then grown n further levels.  An untruncated
    depth-m level of x grown by k levels gives the depth m + k paths of x
    under the same seed, path for path and in the same order.
    """
    if isinstance(x0, list):
        if any(p.length != x0[0].length for p in x0):
            raise LengthMismatch("all paths of a level must share one length")
        level = x0
    else:
        level = _start_level(x0)
    return _enumerate(corr, level, n, cap, seed, backward=False)


def enumerate_backward_paths(corr: Correspondence, y0, n: int, cap: int = 4096,
                             seed: int | None = None) -> Enumeration:
    """All backward paths ending at y0 up to depth n, breadth first,
    thinned to at most cap per level."""
    return _enumerate(corr, _start_level(y0), n, cap, seed, backward=True)


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


def _is_separated(p: ForwardPath, q: ForwardPath, eps: float) -> bool:
    """Some coordinate farther than eps, or some symbol differs."""
    if p.symbols != q.symbols:
        return True
    for r in range(p.length + 1):
        if sph_dist(p.points[r], q.points[r]) > eps:
            return True
    return False


def _covers(p: ForwardPath, q: ForwardPath, eps: float) -> bool:
    """Same symbol word and strictly within eps at every coordinate."""
    if p.symbols != q.symbols:
        return False
    for r in range(p.length + 1):
        if sph_dist(p.points[r], q.points[r]) >= eps:
            return False
    return True


def _check_family_input(paths: list[ForwardPath], eps: float):
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if paths and any(p.length != paths[0].length for p in paths):
        raise LengthMismatch("all paths must share one length")


#: Offsets of a cube and its 26 neighbours.
_NEIGHBOURHOOD = tuple(itertools.product((-1, 0, 1), repeat=3))

#: Widening of the index cubes beyond 2 eps, so that rounding in the unit
#: vectors and in sph_dist cannot undercut the margin even for tiny eps.
_CUBE_SLACK = 1e-12


class _FamilyIndex:
    """Admitted paths keyed by symbol word and the eps-cube of the last point.

    The cube is the floor of the last point's unit vector divided by
    side = 2 eps (plus rounding slack).  Chordal distance is the Euclidean
    distance of unit vectors, so two paths whose last points lie in
    non-adjacent cubes are more than 2 eps apart there: separated, and not
    covering.  Paths with different words are separated and not covering
    as well.  ``near`` therefore yields every admitted path whose pair
    test could fail, and the greedy decisions match the all-pairs loop.
    """

    def __init__(self, eps: float):
        self.side = 2.0 * eps + _CUBE_SLACK
        self.admitted: list[ForwardPath] = []
        self.words: dict[tuple[int, ...], dict[tuple[int, int, int], list]] = {}

    def keys(self, paths: list[ForwardPath]) -> list:
        """(symbol word, cube) of every path, the cubes from one array of
        last-point unit vectors."""
        vectors = chart_unit_vectors(*chart_values(p.points[-1] for p in paths))
        cubes = np.floor(vectors / self.side).astype(np.int64).tolist()
        return [(p.symbols, tuple(c)) for p, c in zip(paths, cubes)]

    def near(self, key):
        """Admitted paths of the key's word in its cube and the 26 around
        it, cube by cube in lexicographic order."""
        word, (i, j, k) = key
        cubes = self.words.get(word)
        if not cubes:
            return ()
        if len(cubes) < len(_NEIGHBOURHOOD):
            # Fewer occupied cubes than neighbours: test the occupied ones.
            hits = sorted(c for c in cubes if -1 <= c[0] - i <= 1
                          and -1 <= c[1] - j <= 1 and -1 <= c[2] - k <= 1)
        else:
            hits = [c for c in ((i + di, j + dj, k + dk)
                                for di, dj, dk in _NEIGHBOURHOOD) if c in cubes]
        return itertools.chain.from_iterable(cubes[c] for c in hits)

    def add(self, key, p: ForwardPath):
        word, cube = key
        self.words.setdefault(word, {}).setdefault(cube, []).append(p)
        self.admitted.append(p)


def separated_subset(paths: list[ForwardPath], eps: float,
                     weight: Callable[[ForwardPath], float] | None = None
                     ) -> list[ForwardPath]:
    """Greedy maximal separated family, heaviest paths first.

    The descending-weight greedy order makes the family a reproducible
    lower bound for the supremum of the weight sum over all separated
    families of the input.
    """
    _check_family_input(paths, eps)
    order = range(len(paths))
    if weight is not None:
        values = [weight(p) for p in paths]
        order = sorted(order, key=lambda i: -values[i])
    index = _FamilyIndex(eps)
    keys = index.keys(paths)
    for i in order:
        cand, key = paths[i], keys[i]
        if all(_is_separated(cand, a, eps) for a in index.near(key)):
            index.add(key, cand)
    return index.admitted


def spanning_subset(paths: list[ForwardPath], eps: float,
                    weight: Callable[[ForwardPath], float] | None = None
                    ) -> list[ForwardPath]:
    """Greedy cover of the input at scale eps, lightest paths first.

    A path is admitted unless an already admitted path with the identical
    symbol word stays strictly within eps at every coordinate; the result
    eps-spans the whole input.
    """
    _check_family_input(paths, eps)
    order = range(len(paths))
    if weight is not None:
        values = [weight(p) for p in paths]
        order = sorted(order, key=lambda i: values[i])
    index = _FamilyIndex(eps)
    keys = index.keys(paths)
    for i in order:
        cand, key = paths[i], keys[i]
        if not any(_covers(a, cand, eps) for a in index.near(key)):
            index.add(key, cand)
    return index.admitted
