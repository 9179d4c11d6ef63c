import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # Derandomized, so that every run of the suite draws the same examples.
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
    settings.load_profile("tier1")

from corridor_kit.fixture import fixture_document
from corridor_kit.reduction import reduce_document
from corridor_kit.runner import run_matrix
from corridor_kit.scenarios import enumerate_scenarios, load_categories, subset_categories

HORIZONS = [2030, 2035, 2040, 2045, 2050]
EPSILONS = [0.02, 0.05, 0.10]

MINI_KEEP = {
    "ccs": ["a", "c"],
    "biomass": ["b"],
    "imports": ["a", "b"],
    "electrolyser": ["a", "b"],
    "transport": ["b"],
    "weather": ["a"],
}

BASE_ID = "ccs-b_biomass-b_imports-a_electrolyser-b_transport-b_weather-a"


@pytest.fixture(scope="session")
def fixture_doc():
    return fixture_document()


@pytest.fixture(scope="session")
def doc8(fixture_doc):
    return reduce_document(fixture_doc, 8)


@pytest.fixture(scope="session")
def categories():
    return load_categories()


@pytest.fixture(scope="session")
def scenario_index(categories):
    return {s.id: s for s in enumerate_scenarios(categories)}


@pytest.fixture(scope="session")
def base_scenario(scenario_index):
    return scenario_index[BASE_ID]


@pytest.fixture(scope="session")
def mini_categories(categories):
    return subset_categories(categories, MINI_KEEP)


@pytest.fixture(scope="session")
def mini_matrix(doc8, mini_categories, tmp_path_factory):
    """The 8-scenario fixture matrix (3 slack levels, 5 horizons), run once."""
    scenarios = enumerate_scenarios(mini_categories)
    out_dir = tmp_path_factory.mktemp("mini_store")
    # At jobs=1 the process time is the matrix's whole CPU time; next to the
    # wall time it shows how much of the wall went to other load on the host.
    start, cpu_start = time.perf_counter(), time.process_time()
    records, store = run_matrix(doc8, scenarios, EPSILONS, HORIZONS, jobs=1, out_dir=out_dir)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return {
        "records": records,
        "store": store,
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "scenarios": scenarios,
        "horizons": HORIZONS,
        "epsilons": EPSILONS,
    }
