"""Golden pins of the run report bytes and of the final world state.

Each case runs a scenario to completion. `PINNED` hashes exactly the
bytes `cli.emit_report` would write; `PINNED_STATE` is the
`World.state_digest()` after `run()`, which covers every vehicle's x, y,
heading, speed, key counter and association bit for bit, where the
report sees positions only through handover counts and chained bytes.
A change that alters any chained byte, metric, invariant result or
vehicle state changes a digest; a refactor must reproduce them, and a
deliberate behaviour change must re-pin with its reason stated in
CHANGES.md.
"""

import functools
import json

import pytest

from dmap import cli, sim
from dmap.crypto import ED25519, KEYED_HASH, sha256
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


def _replay_stale() -> dict:
    # the only case whose adversaries replay a captured payload, so the
    # replay path's stale drops reach both pins
    d = _scenario_dict("honest_majority")
    d["adversary"] = {"fraction": 0.2, "strategy": {"type": "ReplayStale"}}
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
    "honest_majority_replay_stale": _replay_stale,
    "honest_majority_ed25519": lambda: _scenario_dict("honest_majority"),
}

# cases run under a scheme other than the default keyed-hash one; the
# Ed25519 case pins the signing and verification paths of the real scheme
SCHEMES = {"honest_majority_ed25519": ED25519}

PINNED = {
    "honest_majority":
        "3e416d5e4c5c8cf47a050061c1076bda02914641b3123cd808d9817e22edfe53",
    "majority_capture":
        "5dbeed62234f632502975b70c01a8ad50e96fb2479f1165d5a87cdd24a3ebbc6",
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
    "honest_majority_replay_stale":
        "9024b796861b757b83dcb9fb600b2ac9fb6c25e53050c2f158c8ed04e9e47cbe",
    "honest_majority_ed25519":
        "7ef08227a1ea819b2ab8210a99799c53388416eaa2f6326ce88ae3606098f7f2",
}


PINNED_STATE = {
    "honest_majority":
        "5bc06ab105fc76c5eac0198acdb2572796744b32936ebef0cf30ef9941faa269",
    "majority_capture":
        "cb2b3d2447ea57c92170867bbc6484f4a75f1f976d7f2ed52f747f598ab85f21",
    "market_suite":
        "9a33786601bf80b75ef0cb3539a635b0734d3ce5c0259f478e2e1fda8e79bb65",
    "key_reuse":
        "038ae512e5006c54bdf2e3c81ab81d28df3ab1e8916c2e46ed1debfeb98d51c2",
    "honest_majority_partial_final_window":
        "5041c0ca71ff331b4b1b2aa266d89c6dc20ad23f742cb5330f59295f03908a97",
    "honest_majority_partial_final_window_chained":
        "ac12e0a625fc3aa4909dc009dc9074e3005482f7908e835110d79f4b7dcc9234",
    "honest_majority_miner_m3":
        "56eb25bd72b680778fddcaec577d016892e7d9b6b5ed9c868bd611d3a701c832",
    "honest_majority_200_vehicles":
        "296ac6153301cb018f38a9fd66c11efa36b19ed0c8f96dadeeb940b05dd0f346",
    "honest_majority_replay_stale":
        "3a9f3134e8e7410f610ebc5eea32124e547bd50ec84aa50d27fadb0f82060309",
    "honest_majority_ed25519":
        "32cfe6bbcd1798d4ceaca34a225ed9be513485d4e5439ea40c20d99a318673b3",
}


@functools.lru_cache(maxsize=None)
def _finished(case: str) -> tuple[sim.World, dict]:
    # both tables read the same finished world, so each case runs once
    world = sim.World(sim.ScenarioConfig.from_dict(CASES[case]()),
                      SCHEMES.get(case, KEYED_HASH))
    return world, world.run()


def report_digest(case: str) -> str:
    world, metrics = _finished(case)
    report = cli.build_run_report(world, metrics)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return sha256(text.encode("utf-8")).hex()


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_report_digest_pinned(case):
    assert report_digest(case) == PINNED[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_state_digest_pinned(case):
    assert _finished(case)[0].state_digest().hex() == PINNED_STATE[case]
