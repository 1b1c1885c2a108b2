import numpy as np
import pytest

from corrdyn.correspondence import BranchPoint, Fiber, parse_correspondence
from corrdyn.datasets import bundled_correspondence
from corrdyn.sphere import DEFAULT_ROOT_TOL, SpherePoint, chart_values, stacked_roots


@pytest.fixture(scope="session")
def corr_z2():
    return bundled_correspondence("z2")


@pytest.fixture(scope="session")
def corr_z3():
    return bundled_correspondence("z3")


@pytest.fixture(scope="session")
def corr_mobius():
    return bundled_correspondence("mobius")


@pytest.fixture(scope="session")
def corr_pair():
    return bundled_correspondence("mobius_pair")


@pytest.fixture(scope="session")
def corr_z2z3():
    return bundled_correspondence("z2_plus_z3")


#: (w - z^3 + 0.5 z) + (w - z^2 - z): backward fibers of degree 3 and 2 that
#: are not binomials, so stacked_roots iterates on them.
NON_BINOMIAL = """\
1
0 1 1 0
3 0 -1 0
1 0 0.5 0

1
0 1 1 0
2 0 -1 0
1 0 -1 0
"""


@pytest.fixture(scope="session")
def corr_non_binomial():
    return parse_correspondence(NON_BINOMIAL)


@pytest.fixture(scope="session")
def row_fibers():
    """Bit-exact oracle of batched fibers, backward by default: one
    ``Fiber`` per point, each point solved alone.  A component whose row
    ``stacked_roots`` passes takes those roots in argument order, charted
    as ``SpherePoint`` charts them, with slots 1, 1 + m_t, ...; any other
    component takes its branches of the scalar fiber (``backward_images``
    or ``forward_images``), whose roots ``_canonical_key`` orders."""
    def fibers(corr, points, backward=True):
        scalar = corr.backward_images if backward else corr.forward_images
        out = []
        for p in points:
            branches, whole = [], None
            for t, comp in enumerate(corr.components, start=1):
                charts = chart_values([p])
                coeffs = (comp.coeffs_in_z_charts(*charts) if backward
                          else comp.coeffs_in_w_charts(*charts))
                _, z, ok = stacked_roots(coeffs, DEFAULT_ROOT_TOL)
                if ok.any():
                    z = z[0][np.argsort(np.angle(z[0]))]
                    m = comp.multiplicity
                    branches += [BranchPoint(SpherePoint(r), t, 1 + j * m, m)
                                 for j, r in enumerate(z.tolist())]
                    continue
                whole = whole or scalar(p)
                branches += [b for b in whole.branches if b.component == t]
            out.append(Fiber(tuple(branches), bool(whole and whole.degenerate)))
        return out
    return fibers
