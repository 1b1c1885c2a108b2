"""Riemann-sphere geometry and complex polynomial root finding.

Points are kept in whichever affine chart has magnitude at most one: a
point z with |z| <= 1 is stored directly, anything larger (including the
point at infinity) is stored as w = 1/z in the reciprocal chart.  All
distances are chordal, computed from normalized homogeneous coordinates,
so no operation ever forms a large intermediate.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidComponent, NonConvergence

#: Magnitude at which representation flips to the reciprocal chart.
R_SWITCH = 1.0

#: Default relative root tolerance (relative to the max coefficient).
DEFAULT_ROOT_TOL = 1e-12

#: Multiplier turning the root tolerance into a cluster-merge radius.
CLUSTER_RADIUS_FACTOR = 1e3

#: Root arguments closer than this to -pi, pi or each other fail a row of
#: stacked_roots, so it goes to the scalar solver: rounding could flip its
#: root order.
_ARG_MARGIN = 1e-8

# Double precision cannot push a genuine multiple root cluster tighter
# than about sqrt(eps); detection must be at least this wide.
_CLUSTER_DETECT_FLOOR = 1e-7

# Seed of the initial-circle perturbation of ``roots``, fixed so that it
# is a pure function of its inputs.
_ROOTS_SEED = 810279

# Iteration cap of one ``_aberth`` call, from the circle of ``roots`` or
# the binomial starts of ``stacked_roots``.
_ABERTH_MAX_ITER = 400


class SpherePoint:
    """A point of the Riemann sphere in chart-safe canonical form.

    Exactly one chart is active: ``inverted=False`` stores the point z
    itself (|z| <= 1), ``inverted=True`` stores w with the point being
    1/w, and w = 0 encoding the point at infinity.
    """

    __slots__ = ("value", "inverted")

    def __init__(self, value: complex, inverted: bool = False):
        value = complex(value)
        if abs(value) > R_SWITCH:
            value = 1.0 / value
            inverted = not inverted
        self.value = value
        self.inverted = bool(inverted)

    @classmethod
    def from_complex(cls, z) -> "SpherePoint":
        return cls(complex(z), False)

    @classmethod
    def from_reciprocal(cls, w) -> "SpherePoint":
        """The point 1/w, with 1/0 meaning infinity."""
        return cls(complex(w), True)

    @classmethod
    def from_chart(cls, value: complex, inverted: bool) -> "SpherePoint":
        """The point stored as the chart value and flag given, taken as
        they are: for values that are already canonical."""
        point = cls.__new__(cls)
        point.value = value
        point.inverted = inverted
        return point

    @classmethod
    def infinity(cls) -> "SpherePoint":
        return cls(0j, True)

    @classmethod
    def from_unit_vector(cls, vec) -> "SpherePoint":
        x, y, z = float(vec[0]), float(vec[1]), float(vec[2])
        if z <= 0.0:
            return cls(complex(x, y) / (1.0 - z), False)
        return cls(complex(x, -y) / (1.0 + z), True)

    @property
    def is_infinity(self) -> bool:
        return self.inverted and self.value == 0

    def to_complex(self) -> complex:
        if self.inverted:
            if self.value == 0:
                raise OverflowError("point at infinity has no finite value")
            return 1.0 / self.value
        return self.value

    def magnitude(self) -> float:
        """|z|, with infinity mapped to math.inf."""
        if self.inverted:
            a = abs(self.value)
            return math.inf if a == 0 else 1.0 / a
        return abs(self.value)

    def homogeneous(self) -> tuple[complex, complex]:
        """Normalized homogeneous coordinates (a, b) with the point a/b."""
        norm = math.sqrt(1.0 + abs(self.value) ** 2)
        if self.inverted:
            return 1.0 / norm, self.value / norm
        return self.value / norm, 1.0 / norm

    def unit_vector(self) -> np.ndarray:
        """Embedding into the unit sphere of R^3."""
        v = self.value
        s = 1.0 + abs(v) ** 2
        if self.inverted:
            w = 2.0 * v.conjugate() / s
            return np.array([w.real, w.imag, (1.0 - abs(v) ** 2) / s])
        w = 2.0 * v / s
        return np.array([w.real, w.imag, (abs(v) ** 2 - 1.0) / s])

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            return NotImplemented
        return self.inverted == other.inverted and self.value == other.value

    def __hash__(self):
        return hash((self.inverted, self.value))

    def __repr__(self):
        if self.is_infinity:
            return "SpherePoint(inf)"
        if self.inverted:
            return f"SpherePoint(1/{self.value!r})"
        return f"SpherePoint({self.value!r})"


def as_sphere_point(x) -> SpherePoint:
    """Coerce a complex number or SpherePoint to a SpherePoint."""
    if isinstance(x, SpherePoint):
        return x
    return SpherePoint.from_complex(x)


def chart_values(points) -> tuple[np.ndarray, np.ndarray]:
    """Chart values and chart flags of a point sequence, as two arrays."""
    points = [as_sphere_point(p) for p in points]
    values = np.array([p.value for p in points], dtype=complex)
    inverted = np.array([p.inverted for p in points], dtype=bool)
    return values, inverted


def _reciprocal(z: np.ndarray) -> np.ndarray:
    """1 / z of nonzero finite z, with the operations of CPython's
    ``_Py_c_quot`` dividing 1 + 0j by z, so with its bits and signed
    zeros; numpy's complex division rounds differently."""
    re, im = z.real, z.imag
    # |re| >= |im| divides through by re, else by im: one ratio q / p and
    # one denominator p + q * ratio for both branches.
    wide = np.abs(re) >= np.abs(im)
    p, q = np.where(wide, re, im), np.where(wide, im, re)
    with np.errstate(all="ignore"):
        ratio = q / p
        denom = p + q * ratio
        zero = 0.0 * ratio
        out = np.empty_like(z)
        out.real = np.where(wide, 1.0 + zero, ratio + 0.0) / denom
        out.imag = np.where(wide, 0.0 - ratio, zero - 1.0) / denom
    return out


def complex_charts(z) -> tuple[np.ndarray, np.ndarray]:
    """Chart values and chart flags of finite complex numbers, bit for bit
    as ``SpherePoint(z)`` stores them: 1/z where |z| > 1."""
    values = np.array(z, dtype=complex)
    inverted = np.hypot(values.real, values.imag) > R_SWITCH
    values[inverted] = _reciprocal(values[inverted])
    return values, inverted


def chart_unit_vectors(values: np.ndarray, inverted: np.ndarray) -> np.ndarray:
    """``unit_vector`` of every point given by chart value and flag, as a
    (K, 3) array.

    The squared modulus goes through C ``pow`` (``float_power``), as the
    scalar method's ``abs(v) ** 2`` does, so each row equals
    ``unit_vector`` bit for bit, up to the sign of a zero coordinate.
    """
    a2 = np.float_power(np.hypot(values.real, values.imag), 2.0)
    s = 1.0 + a2
    out = np.empty((len(values), 3))
    out[:, 0] = 2.0 * values.real / s
    out[:, 1] = np.where(inverted, -2.0, 2.0) * values.imag / s
    out[:, 2] = np.where(inverted, 1.0 - a2, a2 - 1.0) / s
    return out


def _chart_homogeneous(values: np.ndarray, inverted: np.ndarray) -> tuple:
    """``homogeneous`` of every point given by chart value and flag, as the
    real and imaginary parts (ar, ai, br, bi) of both coordinates.

    The arithmetic is the scalar method's, operation for operation, in
    real doubles: a complex quotient by a real norm divides each part,
    and a real coordinate has imaginary part zero.
    """
    norm = np.float_power(np.hypot(values.real, values.imag), 2.0)
    norm += 1.0
    np.sqrt(norm, out=norm)
    re, im = values.real / norm, values.imag / norm
    unit = np.divide(1.0, norm, out=norm)
    return (np.where(inverted, unit, re), np.where(inverted, 0.0, im),
            np.where(inverted, re, unit), np.where(inverted, im, 0.0))


def sph_dist(p, q):
    """Chordal distance on the Riemann sphere, range [0, 2].

    Equals 2|z - w| / (sqrt(1+|z|^2) sqrt(1+|w|^2)) for finite points and
    extends continuously to infinity.  Exactly symmetric; satisfies the
    triangle inequality up to floating rounding.

    p and q may also be (values, inverted) pairs of equal-shape chart
    arrays; the distances are then returned elementwise, each equal to the
    scalar one bit for bit.  The cross term a1 b2 - a2 b1 is then formed in
    real arithmetic, as CPython's complex product does it (numpy's complex
    multiply may fuse operations), and ``fmin`` clamps a NaN to 2.0 as
    ``min`` does.
    """
    if isinstance(p, tuple):
        ar1, ai1, br1, bi1 = _chart_homogeneous(*p)
        ar2, ai2, br2, bi2 = _chart_homogeneous(*q)
        re = (ar1 * br2 - ai1 * bi2) - (ar2 * br1 - ai2 * bi1)
        im = (ar1 * bi2 + ai1 * br2) - (ar2 * bi1 + ai2 * br1)
        return np.fmin(2.0, 2.0 * np.hypot(re, im))
    p = as_sphere_point(p)
    q = as_sphere_point(q)
    a1, b1 = p.homogeneous()
    a2, b2 = q.homogeneous()
    return min(2.0, 2.0 * abs(a1 * b2 - a2 * b1))


# ---------------------------------------------------------------------------
# Univariate polynomial helpers (ascending coefficient order)
# ---------------------------------------------------------------------------


def _polyval(coeffs: np.ndarray, z):
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _polyder(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs)
    if n <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, n, dtype=float)


def _eval_scale(coeffs: np.ndarray, z) -> np.ndarray:
    """Sum_k |c_k| |z|^k, the natural backward-error scale at z."""
    az = np.abs(np.asarray(z, dtype=complex))
    out = np.zeros_like(az)
    for c in np.abs(coeffs)[::-1]:
        out = out * az + c
    return out


def _aberth(c: np.ndarray, z: np.ndarray, tol: float):
    """Aberth-Ehrlich iteration on every row of a (K, d+1) coefficient
    stack at once, from the (K, d) starts z; d >= 2, and each row has
    nonzero constant and leading terms.

    Each step runs on the rows still moving, and freezes a root once its
    step is at most 5e-15 (1 + |z|).  A row stops when every root is
    frozen, or once its largest step no longer shrinks (after 30 steps,
    at least a quarter of the largest step 11 steps before) while every
    root meets the residual bound.  Returns (z, done): the (K, d) roots
    and the rows that stopped so within ``_ABERTH_MAX_ITER`` steps with
    finite roots.  A row's roots do not depend on the other rows.
    """
    k_rows, width = c.shape
    deg = width - 1
    z = np.array(z, dtype=complex)
    done = np.zeros(k_rows, dtype=bool)

    # Working arrays of the rows still moving: their indices, roots,
    # coefficients as (d+1, n, 1) for the Horner helpers, moving roots
    # and largest steps of the last 12 iterations (slot it % 12).
    live = np.arange(k_rows)
    zl = z
    stack = c.T[:, :, None]
    dstack = stack[1:] * np.arange(1, width)[:, None, None]
    moving = np.ones((k_rows, deg), dtype=bool)
    hist = np.zeros((k_rows, 12))
    diag = np.arange(deg)
    for it in range(1, _ABERTH_MAX_ITER + 1):
        if not len(live):
            break
        newton = _polyval(stack, zl) / _polyval(dstack, zl)
        inv = 1.0 / (zl[:, :, None] - zl[:, None, :])
        inv[:, diag, diag] = 0.0
        step = np.where(moving, newton / (1.0 - newton * inv.sum(axis=2)), 0.0)
        zl = zl - step
        asteps = np.abs(step)
        moving = asteps > 5e-15 * (1.0 + np.abs(zl))
        m = asteps.max(axis=1)
        hist[:, it % 12] = m
        failed = ~np.isfinite(zl).all(axis=1)
        converged = ~moving.any(axis=1) & ~failed
        if it >= 30:
            flat = np.nonzero(~converged & ~failed
                              & (m >= 0.25 * hist[:, (it + 1) % 12]))[0]
            if len(flat):
                sub, zf = stack[:, flat], zl[flat]
                resid = np.abs(_polyval(sub, zf)) <= tol * np.maximum(
                    _eval_scale(sub, zf), 1e-300)
                converged[flat[resid.all(axis=1)]] = True
        stop = converged | failed
        if stop.any():
            z[live[stop]] = zl[stop]
            done[live[converged]] = True
            keep = ~stop
            live, zl, moving, hist = live[keep], zl[keep], moving[keep], hist[keep]
            stack, dstack = stack[:, keep], dstack[:, keep]
    z[live] = zl
    return z, done


def _circle_roots(c: np.ndarray, tol: float, rng: np.random.Generator):
    """The roots of a trimmed polynomial of degree >= 3 (ascending, with
    nonzero constant and leading terms) by ``_aberth`` from a randomly
    perturbed circle; raises NonConvergence unless every root meets the
    residual bound."""
    deg = len(c) - 1
    lead = abs(c[-1])
    cauchy = 1.0 + np.abs(c[:-1]).max() / lead
    radius = min(max((abs(c[0]) / lead) ** (1.0 / deg), 0.25), cauchy)
    # A fixed rotation offset breaks the symmetric stall configurations of
    # real polynomials.
    angles = 2.0 * np.pi * (np.arange(deg) + 0.3) / deg
    angles = angles + rng.uniform(-0.3, 0.3) + rng.uniform(-0.05, 0.05, deg)
    z = radius * np.exp(1j * angles) * (1.0 + rng.uniform(-0.02, 0.02, deg))
    z = _aberth(c[None], z[None], tol)[0][0]
    resid = np.abs(_polyval(c, z)) / np.maximum(_eval_scale(c, z), 1e-300)
    if not (resid <= tol).all():  # NaN roots fail too
        raise NonConvergence(f"root iteration stalled at backward error {resid.max():.3e}")
    return z


def _stable_quadratic(c0: complex, c1: complex, c2: complex):
    disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    u = -c1 + disc
    v = -c1 - disc
    q = u if abs(u) >= abs(v) else v
    if q == 0:
        r = -c1 / (2.0 * c2)
        return [r, r]
    return [q / (2.0 * c2), 2.0 * c0 / q]


def _derivative_chain(coeffs: np.ndarray, order: int):
    out = [np.array(coeffs, dtype=complex)]
    for _ in range(order):
        out.append(_polyder(out[-1]))
    return out


def _merge_clusters(points: list[complex], coeffs: np.ndarray, tol: float):
    """Collapse numerically coincident roots into multiple roots.

    Clusters are detected at max(CLUSTER_RADIUS_FACTOR*tol, 1e-7) relative
    radius, then validated: the cluster mean is refined on the (m-1)-th
    derivative, and all lower derivatives must vanish to tolerance.  A
    cluster that fails validation is kept split.
    """
    n = len(points)
    if n == 0:
        return []
    radius = max(CLUSTER_RADIUS_FACTOR * tol, _CLUSTER_DETECT_FLOOR)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            lim = radius * (1.0 + min(abs(points[i]), abs(points[j])))
            if abs(points[i] - points[j]) <= lim:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    dcoeffs = _polyder(coeffs)
    merged: list[tuple[complex, int]] = []
    for idx in groups.values():
        m = len(idx)
        if m == 1:
            r = points[idx[0]]
            # A single Newton polish step, kept only when it helps.
            dp = complex(_polyval(dcoeffs, r))
            if dp != 0:
                cand = r - complex(_polyval(coeffs, r)) / dp
                if abs(complex(_polyval(coeffs, cand))) <= abs(complex(_polyval(coeffs, r))):
                    r = cand
            merged.append((r, 1))
            continue
        chain = _derivative_chain(coeffs, m - 1)
        # The fold of ``sum``, from 0 and in order (the builtin is
        # compensated from Python 3.12 on).
        center = np.cumsum([0j] + [points[i] for i in idx])[-1] / m
        top = chain[m - 1]
        dtop = _polyder(top)
        for _ in range(25):
            dv = complex(_polyval(dtop, center))
            if dv == 0:
                break
            delta = complex(_polyval(top, center)) / dv
            center -= delta
            if abs(delta) <= 1e-16 * (1.0 + abs(center)):
                break
        eta = max(tol, 1e3 * np.finfo(float).eps)
        ok = True
        for k in range(m):
            scale = float(_eval_scale(chain[k], center))
            if abs(complex(_polyval(chain[k], center))) > eta * max(scale, 1e-300):
                ok = False
                break
        if ok:
            merged.append((center, m))
        else:
            merged.extend((points[i], 1) for i in idx)
    return merged


def roots(coeffs, tol: float = DEFAULT_ROOT_TOL):
    """All sphere roots of a univariate complex polynomial.

    Parameters
    ----------
    coeffs : sequence of complex
        Ascending coefficients c_0 ... c_d of the formal degree-d
        polynomial.  The formal degree is len(coeffs) - 1; if the leading
        coefficients are negligible the missing roots are reported at
        infinity.
    tol : float
        Relative tolerance: every returned finite root r satisfies
        |p(r)| <= tol * sum_k |c_k| |r|^k.

    Returns
    -------
    list of (SpherePoint, int)
        Root and multiplicity pairs; multiplicities sum to the formal
        degree.  Roots closer than about max(1e3*tol, 1e-7) are merged
        into a single multiple root when the derivatives agree.

    Raises
    ------
    ValueError
        If the polynomial is identically zero.
    NonConvergence
        If the simultaneous iteration cannot reach tol.
    """
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size == 0:
        raise ValueError("empty coefficient list")
    # Multiply by the power of two that centers the binary exponents of the
    # coefficients on 0, capped so that none overflows.  That is exact, so
    # the roots keep their bits, and no Horner sum or discriminant over- or
    # underflows at the ends of the double range.
    size = np.maximum(np.abs(c.real), np.abs(c.imag))
    exps = np.frexp(size[size > 0])[1]
    if exps.size:
        top = int(exps.max())
        shift = min(-((top + int(exps.min())) // 2), 1024 - top)
        c = np.ldexp(c.view(float), shift).view(complex)
    scale = float(np.abs(c).max())
    if scale == 0.0:
        raise ValueError("polynomial is identically zero")
    formal_degree = c.size - 1

    # Degree drop: negligible leading coefficients become roots at
    # infinity.  Safe on the sphere: a root pushed to infinity this way
    # has magnitude at least 1/tol, a chordal perturbation of order tol.
    actual = formal_degree
    while actual > 0 and abs(c[actual]) <= tol * scale:
        actual -= 1
    inf_mult = formal_degree - actual
    c = c[: actual + 1]

    # Only exact zero constant terms are stripped: near zero the chordal
    # metric is |z| itself, so even a coefficient far below the global
    # scale can encode a genuine root (small coefficients are usually
    # accurate in relative terms).  Noise-level constant terms produce
    # roots within rounding of zero, which the cluster merge absorbs.
    zero_mult = 0
    while zero_mult < actual and c[zero_mult] == 0.0:
        zero_mult += 1
    c = c[zero_mult:]
    deg = len(c) - 1

    out: list[tuple[SpherePoint, int]] = []
    if deg == 0:
        finite: list[tuple[complex, int]] = []
    elif deg == 1:
        finite = [(-c[0] / c[1], 1)]
    elif deg == 2:
        pair = _stable_quadratic(c[0], c[1], c[2])
        finite = _merge_clusters(pair, c, tol)
    else:
        rng = np.random.default_rng(_ROOTS_SEED)
        with np.errstate(all="ignore"):
            try:
                z = _circle_roots(c, tol, rng)
            except NonConvergence:
                # The stop test of _aberth is absolute near 0, so roots that
                # are all tiny stall there.  Solve again for u = z / s, with s
                # the power of two nearest |c_0 / c_d|^(1/d): scaling by s
                # changes the coefficients and the roots exactly.
                e = round((math.log2(abs(c[0])) - math.log2(abs(c[-1]))) / deg)
                if not -1022 <= e * deg <= 1023:
                    raise
                scaled = c * np.ldexp(1.0, e * np.arange(deg + 1))
                if not np.isfinite(scaled).all():
                    raise
                z = _circle_roots(scaled, tol, rng) * math.ldexp(1.0, e)
        finite = _merge_clusters(list(z), c, tol)

    if zero_mult:
        # Keep zero merged with any residual tiny root of the cofactor.
        absorbed = []
        for r, m in finite:
            if abs(r) <= max(CLUSTER_RADIUS_FACTOR * tol, _CLUSTER_DETECT_FLOOR):
                zero_mult += m
            else:
                absorbed.append((r, m))
        finite = absorbed
        out.append((SpherePoint.from_complex(0.0), zero_mult))
    out.extend((SpherePoint.from_complex(r), m) for r, m in finite)
    if inf_mult:
        out.append((SpherePoint.infinity(), inf_mult))
    return out


def _binomial_starts(c: np.ndarray) -> np.ndarray:
    """The roots of each row's binomial c_d z^d + c_0, as (K, d) starts of
    ``_aberth``: a binomial row stops after one step."""
    deg = c.shape[1] - 1
    # |c_0|^(1/d) / |c_d|^(1/d): the ratio |c_0 / c_d| itself can underflow.
    radius = np.abs(c[:, 0]) ** (1.0 / deg) / np.abs(c[:, -1]) ** (1.0 / deg)
    turn = (np.angle(-c[:, 0]) - np.angle(c[:, -1]))[:, None] + 2.0 * np.pi * np.arange(deg)
    return radius[:, None] * np.exp(1j * turn / deg)


def stacked_roots(c: np.ndarray, tol: float):
    """The stacked solver of a (K, d+1) coefficient stack, d >= 1.

    Returns (rows, roots, ok): the rows it takes, their (len(rows), d)
    roots and the rows among them whose roots pass.  It takes the rows
    with finite coefficients, a nonzero constant term and a leading one
    clear of the degree-drop cutoff of ``roots``; degree 1 also takes the
    rows with c_0 = 0 or c_1 = 0 but not both, all in closed form.  Higher
    degrees run one Aberth-Ehrlich iteration over every row at once
    (``_aberth`` from the roots of each row's binomial c_d z^d + c_0,
    capped at ``_ABERTH_MAX_ITER`` steps, where a row fails) and are
    polished by one vectorized Newton step, kept per root unless it raises
    |p|.  A row passes when its iteration stopped with finite roots, each
    meets the residual bound of ``roots``, |p(r)| <= tol * sum_k |c_k|
    |r|^k, no two lie within the cluster radius max(1e3*tol, 1e-7), and
    no argument lies within 1e-8 of pi or of another root's, where
    rounding could flip the canonical root order of a fiber.
    """
    deg = c.shape[1] - 1
    with np.errstate(all="ignore"):
        # Reduced column by column, several times faster than along rows.
        mag = np.abs(c).T
        finite = functools.reduce(np.logical_and, np.isfinite(c).T)
        # The factor 2 keeps rows near the degree-drop cutoff of ``roots``
        # on the scalar path, where that decision is made.
        clear = mag[-1] > 2.0 * tol * functools.reduce(np.maximum, mag)
        if deg == 1:
            # c_0 = 0 gives +0j as ``roots`` does (not the signed zero of
            # -c_0 / c_1), c_1 = 0 inf + 0j, which charts as infinity.
            zero = c == 0
            rows = np.nonzero(finite & (clear | (zero[:, 0] != zero[:, 1])))[0]
            if len(rows) < len(c):
                c, zero = c[rows], zero[rows]
            z = np.where(zero[:, 1:], complex(math.inf, 0.0),
                         np.where(zero[:, :1], 0j, -c[:, :1] / c[:, 1:]))
            return rows, z, np.isfinite(z[:, 0]) | zero[:, 1]
        rows = np.nonzero(finite & (c[:, 0] != 0) & clear)[0]
        c = c[rows]

        z, ok = _aberth(c, _binomial_starts(c), tol)
        # Coefficients as (d+1, K, 1), so the Horner helpers run on all rows.
        stack = c.T[:, :, None]
        p = _polyval(stack, z)
        cand = z - p / _polyval(stack[1:] * np.arange(1, deg + 1)[:, None, None], z)
        p_cand = _polyval(stack, cand)
        better = np.isfinite(cand) & (np.abs(p_cand) <= np.abs(p))
        z = np.where(better, cand, z)
        p = np.where(better, p_cand, p)

        ok &= (np.abs(p) <= tol * np.maximum(_eval_scale(stack, z), 1e-300)).all(axis=1)
        radius = max(CLUSTER_RADIUS_FACTOR * tol, _CLUSTER_DETECT_FLOOR)
        az = np.abs(z)
        close = (np.abs(z[:, :, None] - z[:, None, :])
                 <= radius * (1.0 + np.minimum(az[:, :, None], az[:, None, :])))
        close[:, np.arange(deg), np.arange(deg)] = False
        ok &= ~close.any(axis=(1, 2))
        # Fibers list roots by argument in (-pi, pi]; where that order hangs
        # on rounding, the scalar solver's roots decide it.
        arg = np.sort(np.angle(z), axis=1)
        ok &= (np.pi - np.abs(arg) > _ARG_MARGIN).all(axis=1)
        ok &= (np.diff(arg, axis=1) > _ARG_MARGIN).all(axis=1)
    return rows, z, ok


# ---------------------------------------------------------------------------
# Bivariate polynomials
# ---------------------------------------------------------------------------


def _chart_product(values: np.ndarray, inverted: np.ndarray,
                   table: np.ndarray) -> np.ndarray:
    """Sum over a of p_a table[a] for every point given by chart value and
    flag, one row per point, where p_a is x^a, or u^(d-a) in the
    reciprocal chart, d = len(table) - 1.

    Either way the common factor dropped is nonzero, so fiber polynomials
    built from these powers have unchanged roots.  The terms are added
    one table row at a time, in elementwise numpy over the points, so a
    point's row has the same bits however many points share the call.
    """
    pw = values ** np.arange(len(table))[:, None]
    pw = np.where(inverted, pw[::-1], pw)
    out = pw[0] * table[0][:, None]
    for a in range(1, len(table)):
        out += pw[a] * table[a][:, None]
    # Rows in C order: numpy may round a transcendental ufunc differently
    # on a contiguous and on a strided coefficient column, so the root
    # solver keeps the layout its bit-for-bit tests pin.
    return out.T.copy()


@dataclass(frozen=True)
class BivarPoly:
    """A bivariate polynomial component P(z, w) with a multiplicity.

    ``table[a, b]`` is the coefficient of z^a w^b.  Both partial degrees
    must be at least one and the declared leading rows must carry a
    nonzero entry, so each coordinate projection of the zero curve is
    surjective and every fiber is finite.
    """

    table: np.ndarray
    multiplicity: int = 1

    def __post_init__(self):
        table = np.asarray(self.table, dtype=complex)
        if table.ndim != 2:
            raise InvalidComponent("coefficient table must be 2-dimensional")
        if not np.isfinite(table).all():
            raise InvalidComponent("coefficients must be finite")
        # Trim trailing all-zero rows/columns so degrees are honest.
        while table.shape[0] > 1 and not table[-1, :].any():
            table = table[:-1, :]
        while table.shape[1] > 1 and not table[:, -1].any():
            table = table[:, :-1]
        object.__setattr__(self, "table", table)
        if self.multiplicity < 1:
            raise InvalidComponent("multiplicity must be a positive integer")
        if self.deg_z < 1 or self.deg_w < 1:
            raise InvalidComponent(
                f"component must have bidegree >= (1, 1), got "
                f"({self.deg_z}, {self.deg_w})")
        if not table[self.deg_z, :].any() or not table[:, self.deg_w].any():
            raise InvalidComponent("leading coefficient rows are zero")

    @property
    def deg_z(self) -> int:
        return self.table.shape[0] - 1

    @property
    def deg_w(self) -> int:
        return self.table.shape[1] - 1

    def coeffs_in_w(self, x: SpherePoint) -> np.ndarray:
        """Ascending coefficients of w -> P(x, w), scaled chart-safely."""
        return self.coeffs_in_w_charts(*chart_values([x]))[0]

    def coeffs_in_w_charts(self, values: np.ndarray,
                           inverted: np.ndarray) -> np.ndarray:
        """``coeffs_in_w`` of every point given by chart value and flag,
        stacked as a (K, deg_w+1) array."""
        return _chart_product(values, inverted, self.table)

    def coeffs_in_z(self, y: SpherePoint) -> np.ndarray:
        """Ascending coefficients of z -> P(z, y), scaled chart-safely."""
        return self.coeffs_in_z_charts(*chart_values([y]))[0]

    def coeffs_in_z_charts(self, values: np.ndarray,
                           inverted: np.ndarray) -> np.ndarray:
        """``coeffs_in_z`` of every point given by chart value and flag,
        stacked as a (K, deg_z+1) array."""
        return _chart_product(values, inverted, self.table.T)

    def incidence_residual(self, x, y) -> float:
        """Normalized |P(x, y)| in the charts of both points.

        Bounded by 1; a pair lies on the component when this is small.
        """
        value = _chart_product(*chart_values([y]), self.coeffs_in_w(x)[:, None])[0, 0]
        norm = float(np.abs(self.table).sum())
        return abs(value) / norm
