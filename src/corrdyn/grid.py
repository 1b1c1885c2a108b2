"""Equal-area partition of the Riemann sphere into grid cells.

The sphere is sliced into latitude bands whose z-extent is an exact
multiple of 2/N, and each band is split into equal-longitude sectors, so
every one of the N cells has spherical area exactly 4*pi/N.  Band sector
counts follow the local circumference, keeping cells roughly square.
Cells are indexed row-major: north cap first, sectors by increasing
longitude within each band.  A point on a band boundary belongs to the
band north of it, except on the top edge of the south cap, which belongs
to the cap; a point on a sector boundary belongs to the sector that
starts there (sector k covers longitudes [k, k+1) times the width).
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property

import numpy as np

from .errors import IndexOutOfRange
from .sphere import SpherePoint, as_sphere_point, chart_unit_vectors

_TWO_PI = 2.0 * math.pi

#: Margins of cell_index_charts, in height and in sector widths, inside
#: which a point goes to the scalar lookup.
_Z_MARGIN = 1e-12
_SECTOR_MARGIN = 1e-9


class SphereGrid:
    """Fixed equal-area cell partition used by all measure machinery."""

    def __init__(self, n_cells: int):
        if n_cells < 1:
            raise ValueError("n_cells must be positive")
        side = math.sqrt(4.0 * math.pi / n_cells)
        bands = []
        z_top = 1.0
        remaining = n_cells
        while remaining > 0:
            theta_top = math.acos(max(-1.0, min(1.0, z_top)))
            theta_probe = min(math.pi, theta_top + 0.5 * side)
            m = int(round(math.sqrt(math.pi * n_cells) * math.sin(theta_probe)))
            m = max(1, min(m, remaining))
            z_bot = z_top - 2.0 * m / n_cells
            bands.append((z_top, z_bot, m))
            z_top = z_bot
            remaining -= m
        # The exact-area budget guarantees the last boundary is -1 up to
        # accumulated rounding; pin it.
        z_top_last, _, m_last = bands[-1]
        bands[-1] = (z_top_last, -1.0, m_last)

        self.n_cells = n_cells
        self.band_counts = np.array([m for _, _, m in bands], dtype=int)
        self.band_z = np.array([bands[0][0]] + [b[1] for b in bands])
        self.band_start = np.concatenate(([0], np.cumsum(self.band_counts)))[:-1]
        self.n_bands = len(bands)
        #: Interior band boundaries, negated to increase: the band of a
        #: height counts those above it.
        self._above = (-self.band_z[1:-1]).tolist()
        #: Cell centers built so far, by cell index.
        self._centers: dict[int, SpherePoint] = {}

    # -- lookup ------------------------------------------------------------

    def band_of_z(self, z: float) -> int:
        """Band index of height z; boundaries go to the northern band, but
        the top edge of the south cap to the cap, unless the north cap is
        the band above it."""
        band = bisect.bisect_left(self._above, -z)
        return self.n_bands - 1 if band and z <= self.band_z[-2] else band

    def cell_index(self, point) -> int:
        point = as_sphere_point(point)
        x, y, z = point.unit_vector()
        band = self.band_of_z(z)
        m = int(self.band_counts[band])
        phi = math.atan2(y, x) % _TWO_PI
        sector = min(int(phi / (_TWO_PI / m)), m - 1)
        return int(self.band_start[band]) + sector

    def cell_index_charts(self, values: np.ndarray,
                          inverted: np.ndarray) -> np.ndarray:
        """``cell_index`` of every point given by chart value and flag.

        ``chart_unit_vectors`` gives the scalar unit vectors, but numpy's
        arctan2 may round differently from ``math.atan2``, so points
        within 1e-9 sector widths of a sector boundary are looked up by
        ``cell_index`` itself, and so, as a guard, are points within 1e-12
        of a band boundary in height and the poles, whose longitude is the
        sign of a zero; the rest are far enough from every boundary that
        the vectorized cell is the scalar one.
        """
        x, y, z = chart_unit_vectors(values, inverted).T
        above = np.array(self._above)
        band = np.searchsorted(above, -z)
        band[z <= self.band_z[-2]] = self.n_bands - 1
        band[z >= self.band_z[1]] = 0
        m = self.band_counts[band]
        frac = np.arctan2(y, x) % _TWO_PI / (_TWO_PI / m)
        cells = self.band_start[band] + np.minimum(frac.astype(int), m - 1)
        unsure = ((np.searchsorted(above, -z - _Z_MARGIN)
                   != np.searchsorted(above, -z + _Z_MARGIN))
                  | (np.abs(frac - np.rint(frac)) < _SECTOR_MARGIN)
                  | ((x == 0) & (y == 0)))
        for k in np.nonzero(unsure)[0]:
            cells[k] = self.cell_index(SpherePoint(values[k], inverted[k]))
        return cells

    def cell_band_sector(self, idx: int) -> tuple[int, int]:
        if not 0 <= idx < self.n_cells:
            raise IndexOutOfRange(f"cell index {idx} outside [0, {self.n_cells})")
        band = int(np.searchsorted(self.band_start, idx, side="right")) - 1
        return band, idx - int(self.band_start[band])

    def cell_center(self, idx: int) -> SpherePoint:
        """Center of cell idx, built on first use and kept by the grid."""
        center = self._centers.get(idx)
        if center is None:
            band, sector = self.cell_band_sector(idx)
            zc = 0.5 * (self.band_z[band] + self.band_z[band + 1])
            m = int(self.band_counts[band])
            phi = (sector + 0.5) * _TWO_PI / m
            s = math.sqrt(max(0.0, 1.0 - zc * zc))
            center = self._centers[idx] = SpherePoint.from_unit_vector(
                (s * math.cos(phi), s * math.sin(phi), zc))
        return center

    def _bands(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """The cells, read once into an array, and the band of each; a
        cell outside the grid raises IndexOutOfRange."""
        cells = np.fromiter(cells, dtype=np.int64)
        bad = cells[(cells < 0) | (cells >= self.n_cells)]
        if len(bad):
            raise IndexOutOfRange(f"cell index {bad[0]} outside [0, {self.n_cells})")
        return cells, np.searchsorted(self.band_start, cells, side="right") - 1

    def center_angles(self, cells) -> tuple[list[float], list[float]]:
        """Polar angles theta and longitudes phi of the cell centers."""
        cells, band = self._bands(cells)
        zc = 0.5 * (self.band_z[band] + self.band_z[band + 1])
        phi = (cells - self.band_start[band] + 0.5) * _TWO_PI / self.band_counts[band]
        return [math.acos(max(-1.0, min(1.0, z))) for z in zc.tolist()], phi.tolist()

    def cell_center_angles(self, idx: int) -> tuple[float, float]:
        """(theta, phi) of the cell center, theta the polar angle."""
        (theta,), (phi,) = self.center_angles((idx,))
        return theta, phi

    @cached_property
    def centers(self) -> list[SpherePoint]:
        return [self.cell_center(i) for i in range(self.n_cells)]

    # -- adjacency ---------------------------------------------------------

    def neighbors(self, idx: int) -> list[int]:
        """Cells sharing an edge or corner with idx (one grid ring)."""
        return sorted(self.dilate((idx,)) - {idx})

    def dilate(self, cells) -> frozenset[int]:
        """One-ring dilation of a cell set: each cell with its sectors on
        either side and the sectors of the bands above and below whose
        longitudes meet its own, widened by 1e-12."""
        cells, band = self._bands(cells)
        start, m = self.band_start[band], self.band_counts[band]
        sector = cells - start
        # A band of one sector is its own neighbour on either side.
        ring = [cells, start + (sector - 1) % m, start + (sector + 1) % m]
        width = _TWO_PI / m
        lo, hi = sector * width, (sector + 1) * width
        for other in (band - 1, band + 1):
            inside = (other >= 0) & (other < self.n_bands)
            other = other[inside]
            mo = self.band_counts[other]
            width = _TWO_PI / mo
            first = np.floor((lo[inside] - 1e-12) / width).astype(np.int64)
            last = np.floor((hi[inside] + 1e-12) / width).astype(np.int64)
            count = last - first + 1
            k = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
            ring.append(np.repeat(self.band_start[other], count)
                        + k % np.repeat(mo, count))
        return frozenset(np.unique(np.concatenate(ring)).tolist())

    def __repr__(self):
        return f"SphereGrid(n_cells={self.n_cells}, n_bands={self.n_bands})"
