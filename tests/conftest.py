import json
import pathlib

import pytest

from dmap import sim
from dmap.crypto import KEYED_HASH, sha256

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
FIXTURE_DIR = REPO_ROOT / "fixtures"

SCENARIO_NAMES = ("honest_majority", "majority_capture", "market_suite",
                  "key_reuse")


def load_scenario_config(name: str) -> sim.ScenarioConfig:
    with open(SCENARIO_DIR / f"{name}.json", encoding="utf-8") as fh:
        return sim.ScenarioConfig.from_dict(json.load(fh))


@pytest.fixture(scope="session")
def scheme():
    return KEYED_HASH


@pytest.fixture
def keypair(scheme):
    return scheme.generate_keypair(sha256(b"test-keypair"))


@pytest.fixture(scope="session")
def finished_worlds():
    """Each bundled scenario run to completion, shared across tests."""
    worlds = {}
    for name in SCENARIO_NAMES:
        world = sim.World(load_scenario_config(name))
        metrics = world.run()
        worlds[name] = (world, metrics)
    return worlds
