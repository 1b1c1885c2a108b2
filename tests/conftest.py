import pytest

from corrdyn.datasets import bundled_correspondence
from corrdyn.sphere import chart_values


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


@pytest.fixture(scope="session")
def row_fibers():
    """Bit-exact oracle of the batched backward fibers: one ``Fiber`` per
    point, ``_row_fiber`` of each row of one ``_stacked`` call."""
    def fibers(corr, points):
        stacked = corr._stacked(*chart_values(points), backward=True)
        return [corr._row_fiber(stacked, k) for k in range(len(points))]
    return fibers
