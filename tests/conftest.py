import collections
import json
import pathlib

import pytest

from dmap import sim
from dmap.crypto import KEYED_HASH, SignatureScheme, sha256

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
FIXTURE_DIR = REPO_ROOT / "fixtures"

SCENARIO_NAMES = ("honest_majority", "majority_capture", "market_suite",
                  "key_reuse")


class CountingScheme(SignatureScheme):
    """Keyed-hash scheme that counts verify calls per public key, and
    keypairs generated."""

    name = "counting"

    def __init__(self):
        self.verified = collections.Counter()
        self.keygens = 0

    def generate_keypair(self, seed):
        self.keygens += 1
        return KEYED_HASH.generate_keypair(seed)

    def sign(self, key, message):
        return KEYED_HASH.sign(key, message)

    def verify(self, public, message, signature):
        self.verified[public] += 1
        return KEYED_HASH.verify(public, message, signature)

    def verify_calls(self) -> int:
        return sum(self.verified.values())


def pytest_runtest_teardown(item):
    # Hypothesis's pytest plugin turns a failed property test's falsifying
    # examples into a source patch when it reports the teardown. Where
    # libcst is installed, that imports it, and libcst 1.0 warns on
    # import: under `-W error` the run ends in an INTERNALERROR that hides
    # the falsifying example. The examples are already printed with the
    # failure; only the patch is dropped. Excluding Hypothesis's explain
    # phase does not help: it imports no libcst
    vars(item).pop("_hypothesis_failing_examples", None)


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
