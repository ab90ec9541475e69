"""The protocol's decisions do not depend on the signature scheme.

Each case runs under keyed hash and under Ed25519 and must give equal
metrics and an equal number of txs in each block of every ledger. Under
Ed25519 with two or more CPUs, batches of eight or more verifies are
split with the helper process; pinned to one CPU, every verify runs in
this process, so running this file both ways covers both paths.
"""

import functools

import pytest

from dmap import sim
from dmap.crypto import ED25519
from tests.test_report_pin import CASES, _finished

CROSS_CASES = ["honest_majority", "majority_capture", "market_suite", "key_reuse",
               "honest_majority_merge"]


@functools.lru_cache(maxsize=None)
def _ed25519_run(case: str) -> tuple[sim.World, dict]:
    world = sim.World(sim.ScenarioConfig.from_dict(CASES[case]()), ED25519)
    return world, world.run()


def _decisions(world: sim.World, metrics: dict) -> tuple[dict, dict]:
    return metrics, {region: [len(block.txs) for block in ledger.blocks]
                     for region, ledger in world.ledgers.items()}


@pytest.mark.parametrize("case", CROSS_CASES)
def test_keyed_hash_and_ed25519_decide_alike(case):
    keyed = _decisions(*_finished(case))
    # some ledger chains a block past genesis, so there are shapes to compare
    assert any(len(shape) > 1 for shape in keyed[1].values())
    assert _decisions(*_ed25519_run(case)) == keyed
