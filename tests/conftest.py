import pytest

from zdspectra.graph import build_bipartite, build_graph
from zdspectra.spectra import eigen_bundle


@pytest.fixture(scope="session")
def graphs():
    """Memoized graph builder shared across the whole run.

    The cache is exposed so the property-suite test can sweep the degree
    and cell-size laws over every graph the session constructed.
    """
    cache = {}

    def get(m, n, role="full"):
        key = (m, n, role)
        if key not in cache:
            builder = build_graph if role == "full" else build_bipartite
            cache[key] = builder(m, n)
        return cache[key]

    get.cache = cache
    return get


@pytest.fixture(scope="session")
def reports(graphs):
    """Memoized dense spectral reports, shared by every test that reads a cell."""
    cache = {}

    def get(m, n, role="full"):
        key = (m, n, role)
        if key not in cache:
            cache[key] = eigen_bundle(graphs(m, n, role))
        return cache[key]

    return get


def dense_grid(limit=3000):
    """(m, n) cells from the verification grid whose full graph fits densely."""
    return [
        (m, n)
        for m in range(2, 5)
        for n in range(2, 7)
        if m**n - (m - 1) ** n - 1 <= limit
    ]
