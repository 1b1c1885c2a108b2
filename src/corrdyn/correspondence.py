"""Holomorphic correspondences: formal sums of bivariate components.

A correspondence is an ordered list of BivarPoly components with
multiplicities.  Forward images of x are the sphere roots of w -> P(x, w)
per component, backward images of y the roots of z -> P(z, y).  Root
counts on the sphere always match the formal fiber degree because missing
affine roots are reported at infinity, so the generic forward count is
d_fwd = sum m_t * deg_w(P_t) and the backward count d_top = sum m_t *
deg_z(P_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPairs, NonConvergence, ParseError
from .sphere import (DEFAULT_ROOT_TOL, BivarPoly, SpherePoint, _chart_product,
                     as_sphere_point, complex_charts, roots,
                     sph_dist, stacked_roots)

#: Residual bound under which a path step counts as incident.
INCIDENCE_TOL = 1e-8

#: Guard margin for the expansivity verdict.
EXPANSIVITY_MARGIN = 0.05


@dataclass(frozen=True)
class BranchPoint:
    """One point of a fiber, tagged with its component and branch slot.

    ``branch_index`` is the first of ``multiplicity`` consecutive branch
    slots occupied by this point inside its component; slots are numbered
    from 1 in canonical root order.
    """

    point: SpherePoint
    component: int
    branch_index: int
    multiplicity: int


@dataclass(frozen=True)
class Fiber:
    """A forward or backward image multiset with a degeneracy flag."""

    branches: tuple[BranchPoint, ...]
    degenerate: bool


def _canonical_key(point: SpherePoint):
    """Sort key (argument, modulus) in the computation chart, infinity last."""
    if point.is_infinity:
        return (1, 0.0, 0.0)
    v = point.value
    if point.inverted:
        arg = -math.atan2(v.imag, v.real)
        mod = 1.0 / abs(v)
    else:
        arg = math.atan2(v.imag, v.real)
        mod = abs(v)
    return (0, arg, mod)


def _declined_roots(coeffs: np.ndarray, t: int, value, flag, backward: bool):
    """``roots`` of the fiber polynomial coeffs of component t over the
    point of chart value and flag, a row ``stacked_roots`` declined; a
    ``NonConvergence`` names the direction, the component and the point."""
    try:
        return roots(coeffs)
    except NonConvergence as err:
        raise NonConvergence(
            f"{'backward' if backward else 'forward'} fiber of component "
            f"{t} over the point with chart value {complex(value)!r} and "
            f"flag {bool(flag)}: {err}", err.iterations) from err


@dataclass
class Correspondence:
    """A formal sum of bivariate polynomial components."""

    components: list[BivarPoly]

    def __post_init__(self):
        if not self.components:
            raise ParseError("correspondence needs at least one component")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def d_fwd(self) -> int:
        return sum(c.multiplicity * c.deg_w for c in self.components)

    @property
    def d_top(self) -> int:
        return sum(c.multiplicity * c.deg_z for c in self.components)

    def degrees(self):
        """(d_fwd, d_top, per-component (lambda_t, delta_t, m_t))."""
        per = [(c.deg_w, c.deg_z, c.multiplicity) for c in self.components]
        return self.d_fwd, self.d_top, per

    # -- fibers ------------------------------------------------------------

    def _assemble(self, root_lists) -> Fiber:
        """Fiber from one root list per component, None where the fiber
        polynomial vanishes identically (the whole component collapses,
        catastrophically non-generic).  Roots are sorted canonically and
        take consecutive branch slots, multiplicity times the component's."""
        branches: list[BranchPoint] = []
        degenerate = False
        for t, (comp, root_list) in enumerate(zip(self.components, root_lists),
                                              start=1):
            if root_list is None:
                degenerate = True
                continue
            if len(root_list) > 1:
                root_list.sort(key=lambda rm: _canonical_key(rm[0]))
            slot = 1
            for point, mult in root_list:
                if mult > 1:
                    degenerate = True
                total = mult * comp.multiplicity
                branches.append(BranchPoint(point, t, slot, total))
                slot += total
        return Fiber(tuple(branches), degenerate)

    def _fiber(self, coeff_fn, x: SpherePoint) -> Fiber:
        root_lists = []
        for comp in self.components:
            coeffs = coeff_fn(comp, x)
            root_lists.append(roots(coeffs) if np.abs(coeffs).max() else None)
        return self._assemble(root_lists)

    def forward_images(self, x) -> Fiber:
        """Fiber of w -> P_t(x, w) over every component, with multiplicity."""
        return self._fiber(BivarPoly.coeffs_in_w, as_sphere_point(x))

    def backward_images(self, y) -> Fiber:
        """Fiber of z -> P_t(z, y) over every component, with multiplicity."""
        return self._fiber(BivarPoly.coeffs_in_z, as_sphere_point(y))

    def fiber_arrays(self, values: np.ndarray, inverted: np.ndarray,
                     backward: bool) -> tuple[np.ndarray, ...]:
        """Forward, or backward, fibers of the points given by chart value
        and flag, flat, one entry per branch point in fiber order (by point,
        component, then ``_canonical_key``): (owner, mult, values, inverted,
        component, slot), its point's index, its multiplicity, chart value
        and flag, component and first branch slot.

        Each component solves every row by one ``stacked_roots`` call; a row
        it declines takes the scalar ``roots`` of its polynomial, none where
        that vanishes.  A root of multiplicity m in component t has
        multiplicity m m_t and first slot 1 + the multiplicities before it.
        When every component has degree 1 in the solved variable, all of
        them are solved as one stack (``_linear_fiber_arrays``).
        """
        degrees = [comp.deg_z if backward else comp.deg_w for comp in self.components]
        ends = np.cumsum(degrees)
        starts = ends - degrees
        n, width = len(values), int(ends[-1])
        if width == self.n_components:
            return self._linear_fiber_arrays(values, inverted, backward)
        # Every row's roots, padded: multiplicity 0 marks an empty place.
        found = np.zeros((n, width), dtype=complex)
        mult = np.zeros((n, width), dtype=np.int64)
        solved = []
        for comp, lo, hi in zip(self.components, starts.tolist(), ends.tolist()):
            coeffs = (comp.coeffs_in_z_charts(values, inverted) if backward
                      else comp.coeffs_in_w_charts(values, inverted))
            rows, z, ok = stacked_roots(coeffs, DEFAULT_ROOT_TOL)
            found[rows[ok], lo:hi] = z[ok]
            mult[rows[ok], lo:hi] = comp.multiplicity
            solved.append((lo, comp.multiplicity, coeffs))
        chart, flag = complex_charts(found)
        for t, (lo, m_t, coeffs) in enumerate(solved, start=1):
            for k in np.nonzero(mult[:, lo] == 0)[0].tolist():
                if not np.abs(coeffs[k]).max():
                    continue
                row = _declined_roots(coeffs[k], t, values[k], inverted[k], backward)
                for j, (point, m) in enumerate(row, start=lo):
                    chart[k, j], flag[k, j] = point.value, point.inverted
                    mult[k, j] = m * m_t

        # Canonical order in each component of degree 2 or more: argument in
        # the root's chart, negated in the reciprocal one, then modulus, with
        # infinity (4) and empty places (5) after every argument.
        order = np.tile(np.arange(width), (n, 1))
        if width > self.n_components:
            arg = np.arctan2(chart.imag, chart.real)
            arg = np.where(flag, np.where(chart == 0, 4.0, -arg), arg)
            arg[mult == 0] = 5.0
            with np.errstate(divide="ignore"):
                mod = np.hypot(chart.real, chart.imag)
                mod = np.where(flag, 1.0 / mod, mod)
            for lo, hi in zip(starts.tolist(), ends.tolist()):
                if hi - lo > 1:
                    order[:, lo:hi] = lo + np.lexsort((mod[:, lo:hi], arg[:, lo:hi]))
        flat = (order + width * np.arange(n)[:, None]).ravel()
        mult = mult.ravel()[flat].reshape(n, width)
        before = np.cumsum(mult, axis=1) - mult
        slot = 1 + before - np.repeat(before[:, starts], degrees, axis=1)
        keep = mult.ravel() > 0
        owner, place = np.divmod(np.flatnonzero(keep), width)
        component = np.repeat(np.arange(1, self.n_components + 1), degrees)[place]
        return (owner, mult.ravel()[keep], chart.ravel()[flat[keep]],
                flag.ravel()[flat[keep]], component, slot.ravel()[keep])

    def _linear_fiber_arrays(self, values: np.ndarray, inverted: np.ndarray,
                             backward: bool) -> tuple[np.ndarray, ...]:
        """``fiber_arrays`` of components that all have degree 1 in the
        solved variable, so each has one root, in slot 1, per point.

        Row r of one (points x components) coefficient stack is component
        r mod k + 1 over point r // k, of k components; the stack is one
        ``_chart_product`` of the tables side by side where they share a
        shape.  One ``stacked_roots`` call solves it, in the arithmetic of
        a call per component, and a row it declines takes the scalar
        ``roots``, none where its polynomial vanishes.
        """
        k = self.n_components
        tables = [comp.table.T if backward else comp.table for comp in self.components]
        if all(table.shape == tables[0].shape for table in tables):
            coeffs = _chart_product(values, inverted, np.hstack(tables))
        else:
            coeffs = np.stack([_chart_product(values, inverted, table)
                               for table in tables], axis=1)
        coeffs = coeffs.reshape(-1, 2)
        rows, z, ok = stacked_roots(coeffs, DEFAULT_ROOT_TOL)
        found = np.zeros(len(coeffs), dtype=complex)
        found[rows[ok]] = z[ok, 0]
        chart, flag = complex_charts(found)
        mult = np.full((len(values), k), [c.multiplicity for c in self.components]).ravel()
        declined = np.ones(len(coeffs), dtype=bool)
        declined[rows[ok]] = False
        for r in np.flatnonzero(declined).tolist():
            if not np.abs(coeffs[r]).max():
                mult[r] = 0
                continue
            [(point, m)] = _declined_roots(coeffs[r], r % k + 1, values[r // k],
                                           inverted[r // k], backward)
            chart[r], flag[r] = point.value, point.inverted
            mult[r] *= m
        keep = np.flatnonzero(mult)
        owner, component = np.divmod(keep, k)
        return (owner, mult[keep], chart[keep], flag[keep], component + 1,
                np.ones(len(keep), dtype=np.int64))

    def incidence_residual(self, x, y, component: int) -> float:
        return self.components[component - 1].incidence_residual(x, y)

    def fixed_points(self) -> list[tuple[SpherePoint, int]]:
        """Sphere solutions of P_t(z, z) = 0 over all components."""
        out = []
        for comp in self.components:
            d = comp.deg_z + comp.deg_w
            diag = np.zeros(d + 1, dtype=complex)
            for a in range(comp.deg_z + 1):
                for b in range(comp.deg_w + 1):
                    diag[a + b] += comp.table[a, b]
            if not np.abs(diag).max():
                continue
            out.extend(roots(diag))
        return out


# ---------------------------------------------------------------------------
# Correspondence document format
# ---------------------------------------------------------------------------
#
# One component per block, blocks separated by blank lines.  Inside a
# block: first data line is the multiplicity (positive integer), each
# further line is "a b re im" giving the coefficient of z^a w^b.
# Comments start with '#'.


def parse_correspondence(text: str) -> Correspondence:
    blocks: list[list[tuple[int, str]]] = [[]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append((lineno, line))
    if blocks and not blocks[-1]:
        blocks.pop()
    if not blocks:
        raise ParseError("document contains no components")

    components = []
    for block in blocks:
        lineno, head = block[0]
        try:
            mult = int(head)
        except ValueError:
            raise ParseError(f"expected integer multiplicity, got {head!r}", line=lineno)
        if mult < 1:
            raise ParseError("multiplicity must be >= 1", line=lineno)
        entries = []
        max_a = max_b = 0
        for lineno, line in block[1:]:
            parts = line.split()
            if len(parts) != 4:
                raise ParseError("expected 'a b re im'", line=lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
                re, im = float(parts[2]), float(parts[3])
            except ValueError:
                raise ParseError(f"bad coefficient entry {line!r}", line=lineno)
            if a < 0 or b < 0:
                raise ParseError("exponents must be nonnegative", line=lineno)
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ParseError(f"coefficient is not finite: {line!r}", line=lineno)
            entries.append((a, b, complex(re, im)))
            max_a, max_b = max(max_a, a), max(max_b, b)
        if not entries:
            raise ParseError("component has no coefficients", line=block[0][0])
        table = np.zeros((max_a + 1, max_b + 1), dtype=complex)
        for a, b, c in entries:
            table[a, b] += c
        components.append(BivarPoly(table, multiplicity=mult))
    return Correspondence(components)


# ---------------------------------------------------------------------------
# Expansivity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansivityResult:
    is_expansive: bool
    lambda_estimate: float
    pairs_used: int
    worst_ratio: float


def expansivity_probe(points, fibers, pairs) -> ExpansivityResult:
    """Estimate the backward contraction factor on a candidate support.

    points are the (values, inverted) chart arrays of a point set, fibers
    their backward fibers (owner, values, inverted, component) in the
    order of ``Correspondence.fiber_arrays``, and pairs two index arrays
    into the points.  For every pair (x0, y0) of distinct points
    (InsufficientPairs if there is none) and every backward branch of x0,
    the best-matching backward branch of y0 with the same component symbol
    is found; the worst best-match ratio d(preimages)/d(x0, y0) over all
    pairs and branches gives lambda_estimate as its reciprocal.  The
    verdict requires lambda_estimate > 1 + EXPANSIVITY_MARGIN.
    """
    values, inverted = points
    first, second = (np.asarray(idx, dtype=np.int64) for idx in pairs)
    gaps = sph_dist((values[first], inverted[first]), (values[second], inverted[second]))
    distinct = gaps > 0.0
    first, second, gaps = first[distinct], second[distinct], gaps[distinct]
    if not len(gaps):
        raise InsufficientPairs("no pair of distinct points")

    # Fibers run by owner, then by component, so the x branches of a pair
    # are one run of its first point, and the candidates of each, the
    # branches of the second point with its component, one run too.
    owner, branch_values, branch_inverted, comp = fibers
    bounds = np.searchsorted(owner, np.arange(len(values) + 1))
    n_x = bounds[first + 1] - bounds[first]
    pair = np.repeat(np.arange(len(gaps)), n_x)
    xi = np.arange(n_x.sum()) + np.repeat(bounds[first] - (np.cumsum(n_x) - n_x), n_x)
    width = int(comp.max(initial=0)) + 1
    key = owner * width + comp
    key_x = second[pair] * width + comp[xi]
    lo = np.searchsorted(key, key_x, side="left")
    count = np.searchsorted(key, key_x, side="right") - lo
    first_y = np.cumsum(count) - count
    xj = np.repeat(xi, count)
    yj = np.arange(count.sum()) + np.repeat(lo - first_y, count)
    worst = 0.0
    if len(xj):
        dist = sph_dist((branch_values[xj], branch_inverted[xj]),
                        (branch_values[yj], branch_inverted[yj]))
        has = count > 0
        best = np.minimum.reduceat(dist, first_y[has])
        worst = float((best / gaps[pair[has]]).max())
    if worst == 0.0:
        # Backward branches collapsed to exact matches; treat as strongly
        # contracting rather than dividing by zero.
        return ExpansivityResult(True, math.inf, len(gaps), 0.0)
    lam = 1.0 / worst
    return ExpansivityResult(lam > 1.0 + EXPANSIVITY_MARGIN, lam, len(gaps), worst)
