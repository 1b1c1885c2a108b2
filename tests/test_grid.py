import math

import numpy as np
import pytest

from corrdyn.errors import IndexOutOfRange
from corrdyn.grid import SphereGrid
from corrdyn.sphere import SpherePoint, chart_values, sph_dist
from corrdyn.transfer import ActiveGrid


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(400)


def test_cell_budget_is_exact(grid):
    assert grid.band_counts.sum() == grid.n_cells
    assert grid.band_z[0] == 1.0
    assert grid.band_z[-1] == -1.0
    # Band z-extents are exact multiples of 2/N, so all cells share one area.
    extents = grid.band_z[:-1] - grid.band_z[1:]
    np.testing.assert_allclose(extents, 2.0 * grid.band_counts / grid.n_cells, atol=1e-12)


def test_lookup_inverts_center(grid):
    for idx in range(grid.n_cells):
        assert grid.cell_index(grid.cell_center(idx)) == idx


def test_kept_centers_are_the_built_ones():
    # A grid keeps each center it builds; a kept center has the bits of a
    # freshly built one, and the angles agree with it.
    grid = SphereGrid(401)
    for idx in range(grid.n_cells):
        band, sector = grid.cell_band_sector(idx)
        zc = 0.5 * (grid.band_z[band] + grid.band_z[band + 1])
        phi = (sector + 0.5) * 2.0 * math.pi / int(grid.band_counts[band])
        s = math.sqrt(max(0.0, 1.0 - zc * zc))
        built = SpherePoint.from_unit_vector(
            (s * math.cos(phi), s * math.sin(phi), zc))
        first = grid.cell_center(idx)
        assert grid.cell_center(idx) is first
        assert (first.value, first.inverted) == (built.value, built.inverted)
        assert math.copysign(1.0, first.value.imag) == math.copysign(1.0, built.value.imag)
        assert grid.centers[idx] is first


@pytest.mark.parametrize("n_cells", [1, 2, 401, 2000])
def test_center_angles_equal_the_scalar_formula(n_cells):
    # The angles of spectral.csv and final_level.csv, to the bit.
    grid = SphereGrid(n_cells)
    want = []
    for idx in range(n_cells):
        band, sector = grid.cell_band_sector(idx)
        zc = 0.5 * (grid.band_z[band] + grid.band_z[band + 1])
        phi = (sector + 0.5) * 2.0 * math.pi / int(grid.band_counts[band])
        want.append((math.acos(max(-1.0, min(1.0, zc))), phi))
    theta, phi = grid.center_angles(iter(range(n_cells)))
    assert list(zip(theta, phi)) == want
    assert [grid.cell_center_angles(idx) for idx in range(n_cells)] == want
    assert grid.center_angles([]) == ([], [])


def test_poles_land_in_caps(grid):
    assert grid.cell_index(SpherePoint.infinity()) == 0
    south = grid.cell_index(SpherePoint.from_complex(0.0))
    band, _ = grid.cell_band_sector(south)
    assert band == grid.n_bands - 1


def test_random_points_near_their_centers(grid):
    rng = np.random.default_rng(21)
    diam = 4.0 * math.sqrt(4.0 * math.pi / grid.n_cells)
    for _ in range(500):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = SpherePoint.from_unit_vector(v)
        c = grid.cell_center(grid.cell_index(p))
        assert sph_dist(p, c) < diam


def test_neighbors_symmetric_and_local(grid):
    rng = np.random.default_rng(22)
    for idx in rng.integers(0, grid.n_cells, size=60):
        idx = int(idx)
        for nb in grid.neighbors(idx):
            assert idx in grid.neighbors(nb)
            d = sph_dist(grid.cell_center(idx), grid.cell_center(nb))
            assert d < 5.0 * math.sqrt(4.0 * math.pi / grid.n_cells)


def test_dilate_adds_a_ring(grid):
    cell = grid.cell_index(SpherePoint.from_complex(1.0))
    dil = grid.dilate({cell})
    assert cell in dil
    assert len(dil) > 1


def loop_neighbors(grid, idx):
    """Reference copy of ``neighbors`` as a loop over one cell's ring:
    its sectors on either side, and the sectors of the bands above and
    below that meet its longitudes widened by 1e-12."""
    band, sector = grid.cell_band_sector(idx)
    m = int(grid.band_counts[band])
    out = set()
    if m > 1:
        out.add(int(grid.band_start[band]) + (sector - 1) % m)
        out.add(int(grid.band_start[band]) + (sector + 1) % m)
    lo, hi = sector * (2.0 * math.pi / m), (sector + 1) * (2.0 * math.pi / m)
    for other in (band - 1, band + 1):
        if other < 0 or other >= grid.n_bands:
            continue
        mo = int(grid.band_counts[other])
        width = 2.0 * math.pi / mo
        for k in range(math.floor((lo - 1e-12) / width),
                       math.floor((hi + 1e-12) / width) + 1):
            out.add(int(grid.band_start[other]) + k % mo)
    out.discard(idx)
    return sorted(out)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 400, 2000, 4000])
def test_dilate_is_the_union_of_loop_rings(n):
    g = SphereGrid(n)
    rings = [loop_neighbors(g, idx) for idx in range(n)]
    assert [g.neighbors(idx) for idx in range(n)] == rings
    rng = np.random.default_rng(n)
    for size in (0, 1, min(2, n), n // 3, n):
        cells = rng.choice(n, size=size, replace=False).tolist()
        assert g.dilate(cells) == set(cells).union(*(rings[c] for c in cells))


def test_dilate_reads_its_argument_once(grid):
    # A one-shot iterator was read twice, so its ring was lost.
    ring = grid.dilate({5})
    assert len(ring) == 8
    assert grid.dilate(c for c in [5]) == ring
    assert grid.dilate(iter([5])) == ring
    assert grid.dilate(set()) == frozenset()
    with pytest.raises(IndexOutOfRange, match="cell index 400 outside"):
        grid.dilate(c for c in [5, 400])


def test_tiny_grid():
    g = SphereGrid(2)
    assert g.n_cells == 2
    assert g.cell_index(SpherePoint.infinity()) == 0


def boundary_points(grid):
    """Points on every sector boundary at mid-band height and on every band
    boundary at mid-sector longitude (up to the rounding of the chart)."""
    out = []
    for band in range(grid.n_bands):
        m = int(grid.band_counts[band])
        width = 2.0 * math.pi / m
        z_mid = 0.5 * (grid.band_z[band] + grid.band_z[band + 1])
        for sector in range(m):
            for z, phi in ((z_mid, sector * width),
                           (grid.band_z[band], (sector + 0.5) * width)):
                s = math.sqrt(max(0.0, 1.0 - z * z))
                out.append(SpherePoint.from_unit_vector(
                    (s * math.cos(phi), s * math.sin(phi), z)))
    return out


@pytest.mark.parametrize("n_cells", [1, 2, 12, 400, 2000])
def test_cell_index_charts_matches_scalar(n_cells):
    g = SphereGrid(n_cells)
    rng = np.random.default_rng(23)
    points = [SpherePoint.from_complex(complex(rng.normal(), rng.normal()))
              for _ in range(2000)]
    points += [SpherePoint.from_reciprocal(complex(rng.normal(), rng.normal()) / 3)
               for _ in range(2000)]
    points += [SpherePoint.from_complex(0.0), SpherePoint.infinity(),
               SpherePoint.from_complex(-0.0 - 0.0j),
               SpherePoint.from_unit_vector((-0.0, 0.0, 1.0))]
    points += g.centers + boundary_points(g)
    many = g.cell_index_charts(*chart_values(points))
    assert many.dtype.kind == "i"
    assert many.tolist() == [g.cell_index(p) for p in points]
    assert g.cell_index_charts(*chart_values([])).tolist() == []


def test_boundary_rule():
    # A sector boundary belongs to the sector that starts there: in band 7
    # of SphereGrid(2000) (44 sectors) phi = pi/2 is phi / width = 11.0.
    g = SphereGrid(2000)
    band = 7
    m = int(g.band_counts[band])
    assert m == 44
    z = 0.5 * (g.band_z[band] + g.band_z[band + 1])
    s = math.sqrt(1.0 - z * z)
    p = SpherePoint.from_unit_vector((s * math.cos(math.pi / 2), s * math.sin(math.pi / 2), z))
    x, y, _ = p.unit_vector()
    assert (math.atan2(y, x) % (2.0 * math.pi)) / (2.0 * math.pi / m) == 11.0
    assert g.cell_index(p) == int(g.band_start[band]) + 11 == 158
    assert g.cell_index_charts(*chart_values([p])).tolist() == [158]
    # Every point whose longitude lands exactly on a sector boundary k
    # goes to sector k.
    checked = 0
    for q in boundary_points(g):
        x, y, zq = q.unit_vector()
        b = g.band_of_z(zq)
        m = int(g.band_counts[b])
        frac = (math.atan2(y, x) % (2.0 * math.pi)) / (2.0 * math.pi / m)
        if frac == int(frac) and m > 1:
            expected = int(g.band_start[b]) + int(frac) % m
            assert g.cell_index(q) == expected
            assert g.cell_index_charts(*chart_values([q])).tolist() == [expected]
            checked += 1
    assert checked > 100
    # A band boundary belongs to the band north of it, except the top of
    # the south cap, which belongs to the cap.
    for k in range(1, g.n_bands - 1):
        assert g.band_of_z(g.band_z[k]) == k - 1
    assert g.band_of_z(g.band_z[-2]) == g.n_bands - 1
    interior = {float(z): k for k, z in enumerate(g.band_z[1:-1], start=1)}
    on_band_edge = 0
    for q in boundary_points(g):
        k = interior.get(float(q.unit_vector()[2]))
        if k is not None:
            band = k - 1 if k < g.n_bands - 1 else k
            cell = g.cell_index(q)
            assert g.cell_band_sector(cell)[0] == band
            assert g.cell_index_charts(*chart_values([q])).tolist() == [cell]
            on_band_edge += 1
    assert on_band_edge > 100


def loop_band_of_z(g, z):
    """Band of height z by a hand-written binary search over band_z, with
    both caps clamped first, the north cap's first."""
    if z >= g.band_z[1]:
        return 0
    if z <= g.band_z[-2]:
        return g.n_bands - 1
    lo, hi = 0, g.n_bands - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if z >= g.band_z[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("n_cells", [1, 2, 3, 7, 50, 400, 800, 2000, 8000])
def test_band_of_z_matches_binary_search(n_cells):
    # Every boundary and both its neighbours, the poles, the equator and
    # random heights.  On 7 cells the north cap borders the south cap,
    # whose top edge stays north.
    g = SphereGrid(n_cells)
    rng = np.random.default_rng(n_cells)
    heights = rng.uniform(-1.0, 1.0, 2000).tolist() + [-1.0, 1.0, 0.0, -0.0]
    for z in g.band_z.tolist():
        heights += [z, math.nextafter(z, 2.0), math.nextafter(z, -2.0)]
    assert [g.band_of_z(z) for z in heights] == [loop_band_of_z(g, z) for z in heights]


@pytest.mark.parametrize("idx", [-1, 400])
def test_cell_index_out_of_range(grid, idx):
    # Unchecked, -1 fell in band -1 and an index past the end in a sector
    # past the last band's end.
    assert grid.n_cells == 400
    for lookup in (grid.cell_center, grid.cell_center_angles, grid.neighbors,
                   lambda cell: ActiveGrid(grid, [0, cell])):
        with pytest.raises(IndexOutOfRange, match=f"cell index {idx} outside"):
            lookup(idx)
