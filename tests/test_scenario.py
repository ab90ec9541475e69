"""Every scenario parser's refusal, pinned as the whole exit-65 message.

Each case edits one field of `scenarios/market_suite.json` (a 2x2 grid,
16 vehicles, a 60 s run and an eight-action market script) and expects
`str(ConfigError)` in full: the field's path, a colon, and the reason.
"""

import json
import re

import pytest

from dmap.scenario import ConfigError, ScenarioConfig
from tests.conftest import SCENARIO_DIR

DELETE = object()  # the edit that removes the field

KINDS = "must be one of ('create_contract', 'access', 'data_request')"
U64 = "must be an integer in [0, 18446744073709551616)"
VEHICLE = "must be an integer in [0, 16)"

CASES = [
    ("", [5], "scenario: must be an object"),
    ("seed", "5", f"seed: {U64}"),
    ("seed", -1, f"seed: {U64}"),
    ("grid", 5, "grid: must be an object"),
    ("grid", DELETE, "grid: missing"),
    ("grid.rows", DELETE, "grid.rows: missing"),
    ("grid.rows", 0, "grid.rows: must be an integer in [1, inf)"),
    ("grid.cols", True, "grid.cols: must be an integer in [1, inf)"),
    ("grid.cell_size_m", 0, "grid.cell_size_m: must be a positive number"),
    ("vehicles.count", -1, "vehicles.count: must be an integer in [0, inf)"),
    ("vehicles.speed_min_mps", -1, "vehicles.speed_min_mps: must be non-negative"),
    ("vehicles.speed_max_mps", "x", "vehicles.speed_max_mps: must be a number"),
    ("vehicles.speed_max_mps", 0.1, "vehicles.speed: need 0 <= min <= max"),
    ("duration_ms", 0, "duration_ms: must be an integer in [1, inf)"),
    ("window_ms", 5050, "window_ms: must be a positive multiple of 100"),
    ("consistency.eps_distance_m", -1,
     "consistency.eps_distance_m: must be a positive number"),
    ("consistency", DELETE, "consistency: missing"),
    ("consistency.min_corroboration", 1,
     "consistency.min_corroboration: must be an integer in [2, inf)"),
    ("miner_m", 0, "miner_m: must be an integer in [1, inf)"),
    ("sensing_radius_m", 0, "sensing_radius_m: must be a positive number"),
    ("ground_truth_events", 5, "ground_truth_events: must be a list"),
    ("ground_truth_events[0]", 5, "ground_truth_events[0]: must be an object"),
    ("ground_truth_events[0].kind", DELETE, "ground_truth_events[0].kind: missing"),
    ("ground_truth_events[0].active_ms", DELETE,
     "ground_truth_events[0].active_ms: missing"),
    ("ground_truth_events[0].loc", DELETE, "ground_truth_events[0].loc: missing"),
    ("ground_truth_events[0].loc", 5, "ground_truth_events[0].loc: must be an object"),
    ("ground_truth_events[0].loc.lat", "a",
     "ground_truth_events[0].loc.lat: must be a number"),
    ("ground_truth_events[0].loc", {"lat": 91, "lon": 0},
     "ground_truth_events[0].loc: latitude out of range: 91000000"),
    ("ground_truth_events[0].loc", {"lat": 0, "lon": 181},
     "ground_truth_events[0].loc: longitude out of range: 181000000"),
    ("ground_truth_events[0].loc", {"lat": 1e308, "lon": 0},
     "ground_truth_events[0].loc: cannot convert float infinity to integer"),
    ("ground_truth_events[0].kind", "Nope",
     "ground_truth_events[0].kind.name: must name an event kind"),
    ("ground_truth_events[0].kind", 5, "ground_truth_events[0].kind: must be an object"),
    ("ground_truth_events[0].kind", {"name": "RoadDamage", "speed_kmh": 5},
     "ground_truth_events[0].kind: speed only valid for TrafficSpeed"),
    ("ground_truth_events[0].kind", {"speed_kmh": 5},
     "ground_truth_events[0].kind.name: missing"),
    ("ground_truth_events[0].kind", {"name": "TrafficSpeed", "speed_kmh": 2**32},
     "ground_truth_events[0].kind.speed_kmh: must be an integer in [0, 4294967296)"),
    ("ground_truth_events[0].active_ms", [5, 5],
     "ground_truth_events[0].active_ms: expected [start, end], 0 <= start < end"),
    ("adversary", 5, "adversary: must be an object"),
    ("adversary.fraction", 2, "adversary.fraction: must be a number in [0, 1]"),
    ("adversary.strategy", 5, "adversary.strategy: must be an object"),
    ("adversary.strategy.type", "Nope", "adversary.strategy.type: must be one of "
     "('FabricateEvent', 'SuppressReports', 'ReplayStale')"),
    ("adversary", {"fraction": 0.5, "strategy": {"type": "FabricateEvent"}},
     "adversary.strategy: FabricateEvent needs kind and loc"),
    ("adversary.strategy", {"type": "FabricateEvent", "kind": "Nope"},
     "adversary.strategy.kind.name: must name an event kind"),
    ("adversary.strategy", {"type": "FabricateEvent", "loc": {"lat": 91, "lon": 0}},
     "adversary.strategy.loc: latitude out of range: 91000000"),
    ("key_reuse_vehicles", "ab", "key_reuse_vehicles: must be a list"),
    ("key_reuse_vehicles", [0, "x"], f"key_reuse_vehicles: {VEHICLE}"),
    ("market_script", 5, "market_script: must be a list"),
    ("market_script[0]", 5, f"market_script[0].action: {KINDS}"),
    ("market_script[0].action", "bogus", f"market_script[0].action: {KINDS}"),
    ("market_script[0].time_ms", "x", "market_script[0].time_ms: must be a number"),
    ("market_script[0].owner_vehicle", 1_000_000,
     f"market_script[0].owner_vehicle: {VEHICLE}"),
    ("market_script[0].grantee_sp", DELETE, "market_script[0].grantee_sp: missing"),
    ("market_script[0].timespan", [5, 5],
     "market_script[0].timespan: expected [start, end], 0 <= start < end"),
    ("market_script[0].scope", 5, "market_script[0].scope: must be an object"),
    ("market_script[0].scope.regions", ["r0_c0", "r9_c9"],
     "market_script[0].scope.regions: must name a grid region"),
    ("market_script[0].scope.regions", ["r00_c0"],
     "market_script[0].scope.regions: must name a grid region"),
    ("market_script[0].scope.regions", 5, "market_script[0].scope.regions: must be a list"),
    ("market_script[0].scope.period", [60_000, 0],
     "market_script[0].scope.period: expected [start, end], 0 <= start <= end"),
    ("market_script[0].scope.kinds", ["Nope"],
     "market_script[0].scope.kinds: must name an event kind"),
    ("market_script[0].price", -1, f"market_script[0].price: {U64}"),
    ("market_script[1].requester_sp", 7,
     "market_script[1].requester_sp: must be a string of valid Unicode"),
    ("market_script[1].query", DELETE, "market_script[1].query: missing"),
    ("market_script[1].grant", 5, "market_script[1].grant: must be an object"),
    ("market_script[1].grant.contract_index", 9,
     "market_script[1].grant.contract_index: only 1 contracts exist by tick 150"),
    ("market_script[1].grant.contract_index", -1,
     f"market_script[1].grant.contract_index: {U64}"),
    ("market_script[6].grant.owner_sig_vehicle", 16,
     f"market_script[6].grant.owner_sig_vehicle: {VEHICLE}"),
    ("market_script[4].sp", 5, "market_script[4].sp: must be a string of valid Unicode"),
    ("market_script[4].area", "x",
     "market_script[4].area: expected [[lat, lon], [lat, lon]] in degrees"),
    ("market_script[4].area", [[91, 0], [92, 1]],
     "market_script[4].area: latitude out of range: 91000000"),
    ("market_script[4].area", [[1, 1], [0, 0]],
     "market_script[4].area: the first corner must lie south-west of the second"),
    ("market_script[4].period", [60_000, 0],
     "market_script[4].period: expected [start, end], 0 <= start <= end"),
    ("market_script[4].target_regions", [],
     "market_script[4].target_regions: must be a non-empty list"),
    ("market_script[4].target_regions", ["r5_c0"],
     "market_script[4].target_regions: must name a grid region"),
    ("market_script[4].auto_grant_vehicles", [16],
     f"market_script[4].auto_grant_vehicles: {VEHICLE}"),
    ("market_script[4].auto_grant_vehicles", "ab",
     "market_script[4].auto_grant_vehicles: must be a list"),
    # lengths that put a location's cell, or the grid's width, past the
    # largest float
    ("grid.cell_size_m", 1e-320,
     "grid.cell_size_m: must be at least 1.115e-301, or a location's cell is infinite"),
    ("consistency.eps_distance_m", 5e-324,
     "consistency.eps_distance_m: must be at least 1.115e-301, "
     "or a location's cell is infinite"),
    ("grid.cell_size_m", 1e308,
     "grid.cell_size_m: must be at most 8.988e+307, or the grid is infinitely wide"),
    ("grid", {"rows": 10**400, "cols": 1, "cell_size_m": 1.0},
     "grid.cell_size_m: must be at most 0, or the grid is infinitely wide"),
]


def edited_suite(path, value):
    """market_suite with the field at `path` ("a.b[2].c") set to `value`;
    the empty path stands for the whole scenario."""
    doc = json.loads((SCENARIO_DIR / "market_suite.json").read_text())
    if not path:
        return value
    keys = [int(k[1:-1]) if k.startswith("[") else k
            for k in re.findall(r"[^.\[\]]+|\[\d+\]", path)]
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if value is DELETE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return doc


@pytest.mark.parametrize("path, value, message", CASES,
                         ids=[f"{path or 'scenario'}-{i}" for i, (path, _, _) in enumerate(CASES)])
def test_refusal_message_in_full(path, value, message):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(edited_suite(path, value))
    assert str(exc.value) == message


def test_unedited_suite_is_accepted():
    # so that each refusal above comes from its edit
    ScenarioConfig.from_dict(edited_suite("seed", 5))  # market_suite's own seed
