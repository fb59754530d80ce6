import pytest

from polaris import catalog
from polaris.catalog import build_preset, preset_text
from polaris.specfile import build_space_from_spec, parse_spec

from oracles import oracle_points_and_lines


@pytest.fixture(scope="session")
def space():
    """Memoized preset builder shared across the whole test session."""
    def get(name):
        return build_preset(name)
    return get


@pytest.fixture
def fresh_space():
    """Builds a space afresh, bypassing catalog's space cache, so that no
    other test has touched it: a preset by name, under `label` if given,
    or the 16-point grid Q+(3,3), which has no preset and which only
    forced exhaustive mode walks."""
    def get(name, label=None):
        if name == "Qp3_3":
            return build_space_from_spec(catalog._family_spec("Qp", 3, 3), cap=2000)
        return build_space_from_spec(parse_spec(preset_text(name)), label=label or name)
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
