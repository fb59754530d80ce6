import pytest

from polaris.catalog import build_preset

from oracles import oracle_points_and_lines


@pytest.fixture(scope="session")
def space():
    """Memoized preset builder shared across the whole test session."""
    def get(name):
        return build_preset(name)
    return get


@pytest.fixture(scope="session")
def preset_oracle():
    """The brute-force points and lines of each preset's form, built once
    per session: `oracle_points_and_lines` takes seconds on H4_4."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = oracle_points_and_lines(build_preset(name).form)
        return cache[name]
    return get
