import pytest

from phylorank.exactcount import CountTable


@pytest.fixture(scope="session")
def table_k2():
    """Fully dual-verified table for k=2 through n=64."""
    return CountTable(2, 64)


@pytest.fixture(scope="session")
def table_k3():
    return CountTable(3, 64)


@pytest.fixture(scope="session")
def table_k4():
    return CountTable(4, 64)


@pytest.fixture(scope="session")
def big_table_k2():
    """Table for the large-n acceptance runs: closed forms to 2001, each
    checked against its convolution identity at every n."""
    return CountTable(2, 2001)


@pytest.fixture(scope="session")
def table_k2_1001():
    """Table for sampling at the benchmark's size, n = 1001."""
    return CountTable(2, 1001)
