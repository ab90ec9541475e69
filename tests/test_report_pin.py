"""Golden pin of the run report bytes.

Each case runs a scenario to completion and hashes exactly the bytes
`cli.emit_report` would write. A change that alters any chained byte,
metric or invariant result changes a digest; a refactor must reproduce
them, and a deliberate behaviour change must re-pin with its reason
stated in CHANGES.md.
"""

import json

import pytest

from dmap import cli, sim
from dmap.crypto import sha256
from tests.conftest import SCENARIO_DIR


def _scenario_dict(name: str) -> dict:
    with open(SCENARIO_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _partial_final_window(delta_ms: int) -> dict:
    # the duration ends inside a window, so run() closes that window after
    # the last step: at +2.3 s its aggregates are all lone and rejected, at
    # -2.7 s every region chains a block and stores records
    d = _scenario_dict("honest_majority")
    d["duration_ms"] += delta_ms
    return d


def _miner_m3() -> dict:
    # two-member aggregates fall short of m and are rejected
    d = _scenario_dict("honest_majority")
    d["miner_m"] = 3
    return d


def _vehicles_200() -> dict:
    d = _scenario_dict("honest_majority")
    d["vehicles"]["count"] = 200
    return d


CASES = {
    "honest_majority": lambda: _scenario_dict("honest_majority"),
    "majority_capture": lambda: _scenario_dict("majority_capture"),
    "market_suite": lambda: _scenario_dict("market_suite"),
    "key_reuse": lambda: _scenario_dict("key_reuse"),
    "honest_majority_partial_final_window": lambda: _partial_final_window(2_300),
    "honest_majority_partial_final_window_chained":
        lambda: _partial_final_window(-2_700),
    "honest_majority_miner_m3": _miner_m3,
    "honest_majority_200_vehicles": _vehicles_200,
}

PINNED = {
    "honest_majority":
        "3e416d5e4c5c8cf47a050061c1076bda02914641b3123cd808d9817e22edfe53",
    "majority_capture":
        "4c204e2c8f3d0ee03bea0fc1d2ab3aed900cf3435bb2bde9bd6c32e5cab06cc5",
    "market_suite":
        "83199a93de7fad2847be6b3285b2cfe02de2ff7e3b8c6a7b1ea3722066296521",
    "key_reuse":
        "8e3eebb0ce6fa384be62c972b4a6443b307901ad1fd46960bfdd92af915db0fc",
    "honest_majority_partial_final_window":
        "eb43c6501f60cbcf585e4a735e3d860a7707fb534b217a17c1c5003ba2972c8c",
    "honest_majority_partial_final_window_chained":
        "b63bf4b70a2670799afbe1467abc8ffc7fd5855e59813f363ca14e45dc663449",
    "honest_majority_miner_m3":
        "00f15797c9316a8031c6cd98f302500172f27a45c3b01ceef33e338725018130",
    "honest_majority_200_vehicles":
        "e2a7c3c266c8637f8af62f5572ef4b79d578cbdd6550daaf3283eb58a6b008c0",
}


def report_digest(scenario: dict) -> str:
    world = sim.World(sim.ScenarioConfig.from_dict(scenario))
    metrics = world.run()
    report = cli.build_run_report(world, metrics)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return sha256(text.encode("utf-8")).hex()


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_report_digest_pinned(case):
    assert report_digest(CASES[case]()) == PINNED[case]
