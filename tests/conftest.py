from functools import cache

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


# spaces past the presets, as (family, n, q) of `catalog._family_spec`:
# larger q and up to 280 points reach branches that no preset does
BATTERY = {"H3_9": ("H", 3, 9), "W3_4": ("W", 3, 4), "Q4_4": ("Q", 4, 4),
           "Qm5_3": ("Qm", 5, 3), "W3_5": ("W", 3, 5), "Q4_5": ("Q", 4, 5)}


@cache
def _battery_space(name):
    return build_space_from_spec(catalog._family_spec(*BATTERY[name]), cap=2000, label=name)


@pytest.fixture(scope="session")
def battery():
    """Builds a space of the family battery by name, once per session."""
    return _battery_space


@pytest.fixture(scope="session", params=sorted(catalog.PRESETS) + sorted(BATTERY))
def every_space(request):
    """Each preset, then each space of the family battery, in turn."""
    if request.param in BATTERY:
        return _battery_space(request.param)
    return build_preset(request.param)
