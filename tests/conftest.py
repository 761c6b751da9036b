import itertools
import time

import pytest

from latintrav.blocks import verify_hit_theorem


def pytest_addoption(parser):
    parser.addoption("--runlong", action="store_true", default=False,
                     help="run the long verification tests (minutes)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runlong"):
        return
    skip = pytest.mark.skip(reason="needs --runlong")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


def naive_transversals(grid):
    """Oracle: raw permutation scan, independent of the search engine."""
    n = len(grid)
    return [perm for perm in itertools.permutations(range(n))
            if len({grid[r][perm[r]] for r in range(n)}) == n]


@pytest.fixture
def oracle():
    return naive_transversals


@pytest.fixture(scope="session")
def hit_theorem_m5():
    """verify_hit_theorem(5) and its wall time in seconds, computed once per session."""
    t0 = time.perf_counter()
    check = verify_hit_theorem(5)
    return check, time.perf_counter() - t0
