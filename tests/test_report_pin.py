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

import copy
import functools
import json

import pytest

from dmap import cli, edge, sim
from dmap.crypto import ED25519, KEYED_HASH, sha256
from dmap.txmodel import METERS_PER_DEGREE
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


def _merge() -> dict:
    # a second RoadDamage event 20 m east of r0_c0's, inside eps_distance_m
    # (50 m): reports of the two are compatible but not byte-identical, so
    # clusters join two payload groups, a medoid is chosen among them and
    # the smaller group is counted rejected
    d = _scenario_dict("honest_majority")
    second = copy.deepcopy(d["ground_truth_events"][0])
    second["loc"]["lon"] += 20.0 / METERS_PER_DEGREE
    d["ground_truth_events"].append(second)
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
    "honest_majority_merge": _merge,
}

# cases run under a scheme other than the default keyed-hash one; the
# Ed25519 case pins the signing and verification paths of the real scheme
SCHEMES = {"honest_majority_ed25519": ED25519}

PINNED = {
    "honest_majority":
        "6dfb80a858ef4f7d06228bb9631737d790bc6ad02075e1112e07c20598c465ba",
    "majority_capture":
        "ea8d22cb7d15c7f79713bf7a9a9eb29e51e13582afe3d4a8b40dd4c85bf0f539",
    "market_suite":
        "ef5315322d8e5238b5337f463d473b660f2480bf0d252964128c95316758b531",
    "key_reuse":
        "28b0a2bbef973a252c054e05f0dc95d7dd18ff88bc0d5ef56017668803f18887",
    "honest_majority_partial_final_window":
        "c4267df3b39e3c57047d45e2351adc70e09e2069b6cae3e79ba8924f26f440c1",
    "honest_majority_partial_final_window_chained":
        "286f2698b5301652491b41e5979a54debba386c421a80a9970efd520f4db4621",
    "honest_majority_miner_m3":
        "d179b11558ccbe8e0a3586b6ab30a5ea0fd7d235eef7d22c90cb487e9e56673d",
    "honest_majority_200_vehicles":
        "5c5d61f220ece5827f8d44204fb3386539587d899d531f8526de61d4bc0de17a",
    "honest_majority_replay_stale":
        "eb50442af1adb978b97e4ad465cc3094a03ba1cb56f3bee1da32cf0d10a04f04",
    "honest_majority_ed25519":
        "b7be3b18dca3360f55f0181d820dd25d7d9859c747d2d71ccbc7e0efe8a61b5b",
    "honest_majority_merge":
        "e6a1679200cd417d5271a9d84a002de6b4bb05ea8480f1571c57c8be46eddb66",
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
    "honest_majority_merge":
        "3769cc5249d820b1d508f8393b611cf434c9a5c59f01815898fedd349a4f8f0f",
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


def test_merge_case_joins_payload_groups(monkeypatch):
    # no other case has a cluster of two payload groups, so only this one
    # reaches the union of groups and the medoid's choice among payloads
    sizes = []
    real = edge.cluster_reports

    def recorded(reports, policy):
        clusters = real(reports, policy)
        sizes.extend(len(c.groups) for c in clusters)
        return clusters

    monkeypatch.setattr(edge, "cluster_reports", recorded)
    metrics = sim.World(sim.ScenarioConfig.from_dict(_merge())).run()
    assert max(sizes) >= 2
    assert metrics["global"]["rejected_reports"] > 0


def test_each_closed_window_holds_one_timestamp(monkeypatch):
    # the window is neighbour monitoring's one time bound: `ingest` drops a
    # report stamped outside it and vehicles report at its first tick only,
    # so compatibility reads kind and distance alone. A run that reports
    # twice in one window fails here, and has to bound time on purpose.
    stamps = []
    real = edge.close_window

    def recorded(scheme, rsi, policy):
        stamps.append({r.timestamp for r in rsi.window.reports})
        return real(scheme, rsi, policy)

    monkeypatch.setattr(edge, "close_window", recorded)
    for case in sorted(CASES):
        stamps.clear()
        sim.World(sim.ScenarioConfig.from_dict(CASES[case]()),
                  SCHEMES.get(case, KEYED_HASH)).run()
        # an empty window holds no timestamp; some window holds reports
        assert max(map(len, stamps)) == 1, case
