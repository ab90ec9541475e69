import collections
import copy
import dataclasses
import importlib.util
import json
import math
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmap import cli, encoding, sim, txmodel
from dmap.crypto import KEYED_HASH, SCHEMES, sha256, verify_certificate
from dmap.encoding import canonical_encode
from dmap.ledger import _link, append_admitted, check_ledger, validate_chain
from dmap.market import AccessResult, build_access_tx, create_contract
from dmap.scenario import ConfigError, ScenarioConfig
from dmap.sim import Delivery, InvariantViolation, World
from dmap.txmodel import (
    GRANT_CONTRACT_REF,
    GRANT_OWNER_SIG,
    ROAD_DAMAGE,
    AccessTransaction,
    GeoPoint,
    Grant,
    RsiTransaction,
    Scope,
    build_data_tx,
    build_rsi_tx,
    data_tx_triple,
    member_triples,
)
from tests.conftest import (
    REPO_ROOT,
    SCENARIO_DIR,
    SCENARIO_NAMES,
    CountingScheme,
    load_scenario_config,
)
from tests.test_txmodel import key

scheme = KEYED_HASH


def minimal_dict(**overrides):
    d = {
        "seed": 1,
        "grid": {"rows": 2, "cols": 2, "cell_size_m": 500.0},
        "vehicles": {"count": 4, "speed_min_mps": 5.0, "speed_max_mps": 15.0},
        "duration_ms": 10_000,
        "window_ms": 5000,
        "consistency": {"eps_distance_m": 50.0, "min_corroboration": 2},
    }
    d.update(overrides)
    return d


def _ed25519_events():
    """The scenario of perfbench's ed25519_events workload, seed 1."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    return workloads.ed25519_events(1).scenario


def _market_suite_traffic_speed():
    with open(SCENARIO_DIR / "market_suite.json", encoding="utf-8") as fh:
        d = json.load(fh)
    d["ground_truth_events"][0]["kind"] = {"name": "TrafficSpeed", "speed_kmh": 50}
    d["adversary"] = {"fraction": 0.25, "strategy": {
        "type": "FabricateEvent", "kind": {"name": "TrafficSpeed", "speed_kmh": 30},
        "loc": d["ground_truth_events"][1]["loc"]}}
    return d


def _key_paths(node, path=()):
    """The path of every object key and list index in a JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    paths = set()
    for key, child in items:
        paths |= {path + (key,)} | _key_paths(child, path + (key,))
    return paths


class TestScenarioConfig:
    def test_from_dict_minimal(self):
        cfg = ScenarioConfig.from_dict(minimal_dict())
        assert cfg.rows == 2 and cfg.cols == 2
        assert cfg.miner_m == 2  # default

    def test_adversary_fraction_out_of_range(self):
        bad = minimal_dict(adversary={"fraction": 1.5})
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(bad)
        assert exc.value.field == "adversary.fraction"

    @pytest.mark.parametrize("path, value", [
        (path, value)
        for path in ("seed", "grid.rows", "grid.cols", "vehicles.count",
                     "duration_ms", "window_ms",
                     "consistency.min_corroboration", "miner_m")
        for value in ("5", 5.0, True, None)
    ] + [
        ("ground_truth_events[0].kind.speed_kmh", -1),
        ("market_script[1].timespan", [0, 2**64]),
        ("market_script[1].price", 2**64),
        ("market_script[2].grant.contract_index", True),
    ] + [
        (path, value)
        for path in ("grid.cell_size_m", "vehicles.speed_min_mps",
                     "vehicles.speed_max_mps", "consistency.eps_distance_m",
                     "sensing_radius_m", "adversary.fraction")
        for value in ("5", False, None, float("nan"), float("inf"))
    ] + [
        ("ground_truth_events[0].active_ms", "x"),
        ("key_reuse_vehicles", "ab"),
        ("adversary.strategy", 5),
        ("adversary", 5),
        ("market_script[0].action", "bogus"),
        ("market_script[0].time_ms", "x"),
        ("market_script[0].time_ms", True),
        ("market_script[0].time_ms", float("nan")),
        pytest.param("grid.cell_size_m", 10**400, id="grid.cell_size_m-10**400"),
        pytest.param("market_script[0].time_ms", 10**400,
                     id="market_script[0].time_ms-10**400"),
        ("grid", 5),
        ("consistency", None),
        ("vehicles", [1]),
        ("ground_truth_events[0]", 5),
        ("ground_truth_events[0].kind", 5),
        ("ground_truth_events[0].loc.lat", "a"),
        ("ground_truth_events[0].loc.lon", float("nan")),
        pytest.param("ground_truth_events[0].loc.lat", 10**400,
                     id="ground_truth_events[0].loc.lat-10**400"),
        ("ground_truth_events[0].kind.speed_kmh", "fast"),
        ("ground_truth_events[0].kind.speed_kmh", 2**32),
        ("market_script[0].sp", 5),
        ("market_script[0].area", "x"),
        ("market_script[0].area", [[0.0, 0.0]]),
        ("market_script[0].area", [[0.0, "a"], [0.001, 0.001]]),
        ("market_script[0].area", [[91.0, 0.0], [0.001, 0.001]]),
        ("market_script[0].auto_grant_vehicles", [4]),
        ("market_script[0].auto_grant_vehicles", "ab"),
        ("market_script[1].owner_vehicle", "zero"),
        ("market_script[1].owner_vehicle", 4),
        ("market_script[1].owner_vehicle", -1),
        ("market_script[1].grantee_sp", None),
        ("market_script[2].requester_sp", 7),
        ("market_script[2].grant.owner_sig_vehicle", True),
        ("market_script[2].grant.owner_sig_vehicle", 4),
    ])
    def test_mistyped_field_names_field(self, path, value):
        d = minimal_dict(
            adversary={"fraction": 0.0},
            ground_truth_events=[{"loc": {"lat": 0.001, "lon": 0.001},
                                  "kind": {"name": "TrafficSpeed",
                                           "speed_kmh": 30},
                                  "active_ms": [0, 10_000]}],
            market_script=[{"time_ms": 0, "action": "data_request",
                            "sp": "sp1", "area": [[0.0, 0.0], [0.001, 0.001]],
                            "auto_grant_vehicles": [3]},
                           {"time_ms": 0, "action": "create_contract",
                            "owner_vehicle": 0, "grantee_sp": "sp1",
                            "timespan": [0, 10_000], "scope": {}},
                           {"time_ms": 0, "action": "access",
                            "requester_sp": "sp1",
                            "grant": {"owner_sig_vehicle": 1}, "query": {}}])
        ScenarioConfig.from_dict(copy.deepcopy(d))
        *sections, name = path.split(".")
        container = d
        for section in sections:
            section, _, index = section.partition("[")
            container = container[section]
            if index:
                container = container[int(index.rstrip("]"))]
        name, _, index = name.partition("[")
        if index:
            container = container[name]
            name = int(index.rstrip("]"))
        container[name] = value
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(d)
        assert exc.value.field == path

    @pytest.mark.parametrize("lat", [91.0, 1e308])
    def test_out_of_range_loc_names_loc(self, lat):
        # 1e308 degrees overflows the conversion to micro-degrees
        d = minimal_dict(ground_truth_events=[{
            "loc": {"lat": lat, "lon": 0.0}, "kind": "RoadDamage",
            "active_ms": [0, 10_000]}])
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(d)
        assert exc.value.field == "ground_truth_events[0].loc"

    def test_any_json_value_anywhere_gives_config_or_config_error(self):
        base = minimal_dict(
            miner_m=2, sensing_radius_m=100.0, key_reuse_vehicles=[0],
            adversary={"fraction": 0.5, "strategy": {
                "type": "FabricateEvent",
                "kind": {"name": "TrafficSpeed", "speed_kmh": 30},
                "loc": {"lat": 0.001, "lon": 0.001}}},
            ground_truth_events=[{"loc": {"lat": 0.001, "lon": 0.001},
                                  "kind": "RoadDamage",
                                  "active_ms": [0, 10_000]}],
            # one action of each kind, with every optional field set
            market_script=[{"time_ms": 0, "action": "data_request",
                            "sp": "sp1", "area": [[0.0, 0.0], [0.001, 0.001]],
                            "period": [0, 10_000], "target_regions": ["r0_c0"],
                            "auto_grant_vehicles": [1]},
                           {"time_ms": 0, "action": "create_contract",
                            "owner_vehicle": 0, "grantee_sp": "sp1",
                            "timespan": [0, 10_000], "price": 3,
                            "scope": {"regions": ["r0_c0"], "period": [0, 10_000],
                                      "kinds": ["RoadDamage"]}},
                           {"time_ms": 5000, "action": "access",
                            "requester_sp": "sp1",
                            "grant": {"contract_index": 1, "owner_sig_vehicle": 2},
                            "query": {"regions": ["r0_c0"], "period": [0, 5000],
                                      "kinds": ["RoadDamage"]}}])
        ScenarioConfig.from_dict(base)
        paths = []

        def walk(node, path):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, child in items:
                paths.append(path + (key,))
                walk(child, path + (key,))

        walk(base, ())
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.just(10**400) | st.text(max_size=8),
            lambda inner: (st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=8), inner,
                                             max_size=3)),
            max_leaves=6)

        @settings(max_examples=200, derandomize=True, deadline=None,
                  database=None)
        @given(path=st.sampled_from(paths), value=json_values)
        def check(path, value):
            d = copy.deepcopy(base)
            container = d
            for key in path[:-1]:
                container = container[key]
            container[path[-1]] = value
            try:
                ScenarioConfig.from_dict(d)
            except ConfigError:
                pass

        check()

    def test_missing_grid_names_field(self):
        d = minimal_dict()
        del d["grid"]
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(d)
        assert exc.value.field == "grid"

    def test_window_not_tick_aligned(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(minimal_dict(window_ms=5050))
        assert exc.value.field == "window_ms"

    def test_min_corroboration_below_two(self):
        d = minimal_dict()
        d["consistency"]["min_corroboration"] = 1
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(d)
        assert exc.value.field == "consistency.min_corroboration"

    def test_fabricate_needs_kind_and_loc(self):
        bad = minimal_dict(adversary={"fraction": 0.5,
                                      "strategy": {"type": "FabricateEvent"}})
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(bad)
        assert exc.value.field == "adversary.strategy"

    def test_unknown_key_reuse_vehicle(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(minimal_dict(key_reuse_vehicles=[99]))
        assert exc.value.field == "key_reuse_vehicles"

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_bundled_scenarios_round_trip(self, name):
        cfg = load_scenario_config(name)
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_bundled_scenarios_keep_only_keys_a_run_reads(self, name):
        # only key paths are compared: coordinates come back rounded to
        # micro-degrees
        with open(SCENARIO_DIR / f"{name}.json", encoding="utf-8") as fh:
            d = json.load(fh)
        written = _key_paths(ScenarioConfig.from_dict(d).to_dict())
        assert _key_paths(d) - written == set()

    def test_event_region_key_is_not_read(self):
        # a region that is not the one the location lies in changes nothing
        def report(event):
            world = World(ScenarioConfig.from_dict(
                minimal_dict(ground_truth_events=[event])))
            return cli.build_run_report(world, world.run())

        event = {"loc": {"lat": 0.001, "lon": 0.001}, "kind": "RoadDamage",
                 "active_ms": [0, 10_000]}
        with_region = report({"region": "r1_c1", **event})
        assert "region" not in with_region["scenario"]["ground_truth_events"][0]
        assert with_region == report(event)

    def test_consistency_eps_time_key_is_not_read(self):
        # the window is the one time bound; older files carry this key
        def report(consistency):
            world = World(ScenarioConfig.from_dict(minimal_dict(
                consistency=consistency, ground_truth_events=[event])))
            return cli.build_run_report(world, world.run())

        event = {"loc": {"lat": 0.001, "lon": 0.001}, "kind": "RoadDamage",
                 "active_ms": [0, 10_000]}
        consistency = {"eps_distance_m": 50.0, "min_corroboration": 2}
        with_key = report({"eps_time_ms": 1, **consistency})
        assert "eps_time_ms" not in with_key["scenario"]["consistency"]
        assert with_key == report(consistency)

    @pytest.mark.parametrize("make", [_ed25519_events, _market_suite_traffic_speed],
                             ids=["ed25519_events", "market_suite_traffic_speed"])
    def test_round_trip_keeps_traffic_speed(self, make):
        cfg = ScenarioConfig.from_dict(make())
        assert any(ev.kind.speed_kmh for ev in cfg.ground_truth_events)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_json_serializable(self):
        cfg = load_scenario_config("majority_capture")
        json.dumps(cfg.to_dict())


class TestWorldConstruction:
    def test_grid_yields_one_ledger_and_directory_per_region(self):
        world = World(ScenarioConfig.from_dict(minimal_dict()))
        assert sorted(world.ledgers) == ["r0_c0", "r0_c1", "r1_c0", "r1_c1"]
        assert sorted(world.rule_table.directories) == sorted(world.ledgers)

    def test_every_rsi_certified_under_the_ca(self):
        world = World(ScenarioConfig.from_dict(minimal_dict()))
        for region, rsi in world.rsis.items():
            cert = world.policy.cert_registry[rsi.key.public]
            assert cert.region_id == region
            assert verify_certificate(scheme, world.ca.public, cert)

    def test_adversary_count_rounds(self):
        d = minimal_dict(adversary={
            "fraction": 0.5,
            "strategy": {"type": "FabricateEvent", "kind": "RoadDamage",
                         "loc": {"lat": 0.001, "lon": 0.001}}})
        world = World(ScenarioConfig.from_dict(d))
        assert sum(not v.honest for v in world.vehicles) == 2

    def test_vehicles_start_inside_grid(self):
        world = World(ScenarioConfig.from_dict(minimal_dict()))
        for v in world.vehicles:
            assert 0 <= v.x <= 1000 and 0 <= v.y <= 1000
            assert v.assoc_region in world.rsis


class TestVehicleKeys:
    @pytest.mark.parametrize("name, keygens", [
        ("honest_majority", 11),  # the CA, 9 RSIs and the rule table
        ("market_suite", 6),
        ("key_reuse", 4),  # the reused key is made up front
    ])
    def test_world_derives_no_vehicle_key_up_front(self, name, keygens):
        counting = CountingScheme()
        World(load_scenario_config(name), counting)
        assert counting.keygens == keygens

    def test_only_trading_vehicles_derive_a_grant_key(self):
        world = World(load_scenario_config("market_suite"))
        world.run()
        assert [v.vid for v in world.vehicles if "grant_key" in vars(v)] == [0, 1]

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_grant_key_is_the_master_seed_derivation(self, scheme_name):
        keys = SCHEMES[scheme_name]
        world = World(ScenarioConfig.from_dict(minimal_dict()), keys)
        for v in world.vehicles:
            master = sha256(b"dmap/vehicle-master" + struct.pack(">QQ", 1, v.vid))
            assert v.grant_key == keys.generate_keypair(master + b"/grant")
            assert v.grant_key is v.grant_key

    def test_first_key_signed_the_first_report(self):
        world = World(load_scenario_config("market_suite"))
        assert all(v.first_key is None for v in world.vehicles)
        world.run()
        first_pk = {}
        for d in world.delivery_log:
            first_pk.setdefault(d.vid, d.tx.pk)
        assert len(first_pk) > 1
        for v in world.vehicles:
            if v.vid in first_pk:
                assert v.first_key.public == first_pk[v.vid]
                assert v.first_key is v.first_key
            else:
                assert v.first_key is None

    def test_key_reuse_vehicle_has_no_first_key(self):
        world = World(load_scenario_config("key_reuse"))
        world.run()
        reused = world.vehicles[0]
        assert any(d.vid == 0 for d in world.delivery_log)
        assert reused.first_key is None
        assert world.vehicles[1].first_key is not None


class TestDeterminism:
    def test_identical_seeds_identical_metrics(self):
        cfg = load_scenario_config("honest_majority")
        m1 = World(cfg).run()
        m2 = World(cfg).run()
        assert m1 == m2

    def test_state_digest_tracks_step_by_step(self):
        cfg = load_scenario_config("honest_majority")
        a, b = World(cfg), World(cfg)
        for _ in range(120):
            a.step()
            b.step()
            assert a.state_digest() == b.state_digest()

    def test_different_seed_different_trajectory(self):
        cfg = load_scenario_config("honest_majority")
        other = ScenarioConfig.from_dict({**cfg.to_dict(), "seed": cfg.seed + 1})
        a, b = World(cfg), World(other)
        assert a.state_digest() != b.state_digest()


class TestScenarioOutcomes:
    def test_honest_majority_blocks_all_fabrication(self, finished_worlds):
        _, metrics = finished_worlds["honest_majority"]
        g = metrics["global"]
        assert g["false_data_injected"] > 0
        assert g["false_data_chained"] == 0
        assert g["detection_rate"] == 1.0

    def test_majority_capture_admits_false_data(self, finished_worlds):
        _, metrics = finished_worlds["majority_capture"]
        g = metrics["global"]
        assert g["false_data_chained"] > 0
        assert g["detection_rate"] < 1.0

    def test_majority_capture_counts_chained_reports(self, finished_worlds):
        # all 42 fabricated reports are chained, as the members of 6
        # aggregates: detection is counted in reports, not aggregates
        world, metrics = finished_worlds["majority_capture"]
        g = metrics["global"]
        assert g["false_data_chained"] == g["false_data_injected"] == 42
        assert g["detection_rate"] == 0.0
        false_aggregates = [tx for ledger in world.ledgers.values()
                            for tx in ledger.all_txs()
                            if isinstance(tx, RsiTransaction)
                            and not world._payload_matches_truth(tx.payload)]
        assert len(false_aggregates) == 6

    def test_market_suite_grants_and_denies(self, finished_worlds):
        _, metrics = finished_worlds["market_suite"]
        g = metrics["global"]
        assert g["access_granted"] > 0
        assert g["access_denied"] > 0
        assert g["unauthorized_served"] == 0

    def test_key_reuse_is_flagged(self, finished_worlds):
        _, metrics = finished_worlds["key_reuse"]
        assert metrics["global"]["linkability_violations"] > 0

    def test_fresh_keys_leave_no_linkability(self, finished_worlds):
        for name in ("honest_majority", "majority_capture", "market_suite"):
            _, metrics = finished_worlds[name]
            assert metrics["global"]["linkability_violations"] == 0, name

    def test_all_invariants_pass_in_every_scenario(self, finished_worlds):
        for name, (world, _) in finished_worlds.items():
            for inv, status in world.invariant_results.items():
                assert status == "ok", f"{name}: {inv}"

    def test_per_region_stats_cover_every_region(self, finished_worlds):
        world, metrics = finished_worlds["honest_majority"]
        assert sorted(metrics["per_region"]) == sorted(world.ledgers)


class TestLinkabilityDetector:
    def make_world(self):
        return World(ScenarioConfig.from_dict(minimal_dict()))

    def deliver(self, world, vid, keypair, ts):
        tx = build_data_tx(scheme, keypair, GeoPoint(1000, 1000),
                           ROAD_DAMAGE, ts)
        world.delivery_log.append(Delivery(0, "r0_c0", vid, tx, False))

    def test_reused_key_counts_extra_uses(self):
        world = self.make_world()
        k = key("reused")
        for ts in (0, 100, 200):
            self.deliver(world, 0, k, ts)
        assert world.compute_linkability() == 2

    def test_fresh_keys_count_nothing(self):
        world = self.make_world()
        for i in range(5):
            self.deliver(world, 0, key(f"fresh{i}"), i * 100)
        assert world.compute_linkability() == 0

    def test_distinct_vehicles_never_cross_count(self):
        # one key from two vehicles is no reuse by either of them
        world = self.make_world()
        k = key("shared")
        self.deliver(world, 0, k, 0)
        self.deliver(world, 1, k, 0)
        assert world.compute_linkability() == 0


class TestConservation:
    def test_every_delivered_report_is_accounted_for(self, finished_worlds):
        for name, (world, metrics) in finished_worlds.items():
            for region, stats in metrics["per_region"].items():
                consumed = (stats["trusted_members"] + stats["lone_members"]
                            + stats["rejected_reports"] + stats["sig_rejects"]
                            + stats["stale"]
                            + len(world.rsis[region].window.reports))
                assert stats["reports_sent"] == consumed, (name, region)


class TestHandover:
    def test_moving_vehicles_hand_over_and_reassociate(self):
        d = minimal_dict(duration_ms=30_000)
        d["vehicles"] = {"count": 10, "speed_min_mps": 20.0,
                         "speed_max_mps": 30.0}
        world = World(ScenarioConfig.from_dict(d))
        world.run()
        assert world.handover_count > 0
        # after every boundary, association matches physical region or is
        # one window behind via a pending handover
        for v in world.vehicles:
            assert v.assoc_region in world.rsis

    @pytest.mark.parametrize("turn, path", [
        (math.pi, ["r0_c0", "r0_c1", "r0_c0"]),
        (0.0, ["r0_c0", "r0_c1", "r0_c2"]),
    ], ids=["A_B_A", "A_B_C"])
    def test_soft_handover_applies_at_the_window_boundary(self, turn, path):
        # one vehicle at 3 m a tick crosses from r0_c0 into r0_c1 at the
        # second tick and turns to `turn` there: back west into r0_c0, or
        # on east into r0_c2 within the first window
        mid = 50.0 / txmodel.METERS_PER_DEGREE
        d = minimal_dict(
            grid={"rows": 1, "cols": 3, "cell_size_m": 100.0},
            vehicles={"count": 1, "speed_min_mps": 30.0, "speed_max_mps": 30.0},
            sensing_radius_m=500.0,
            ground_truth_events=[{"loc": {"lat": mid, "lon": 3 * mid},
                                  "kind": "RoadDamage", "active_ms": [0, 10_000]}])
        world = World(ScenarioConfig.from_dict(d))
        v = world.vehicles[0]
        _place(world, v, 95.0, 50.0, heading=0.0)
        v.rng = _Headings(turn, turn)
        regions = [v.region]
        while world.clock_ms < 4900:
            world.step()
            if v.region != regions[-1]:
                regions.append(v.region)
            assert v.assoc_region == "r0_c0", world.clock_ms
        assert regions == path
        target = path[-1]
        world.step()  # the window boundary
        assert (v.region, v.assoc_region) == (target, target)
        world.step()  # the second window's emit
        assert [(d.window_id, d.region) for d in world.delivery_log] == [
            (0, "r0_c0"), (1, target)]

    def test_cached_step_and_cell_stay_exact(self, monkeypatch):
        world = World(_fast_honest_majority())
        x_bounces, y_bounces = _assert_moves_exact(world, monkeypatch)
        assert x_bounces and y_bounces and world.handover_count

    @pytest.mark.parametrize("case", ["near_axis", "stopped", "cell_137_3",
                                      "on_boundaries"])
    def test_lagging_positions_stay_exact(self, case, monkeypatch):
        world = _MOVEMENT_CASES[case]()
        _assert_moves_exact(world, monkeypatch)

    def test_move_phase_steps_few_vehicle_ticks(self):
        cfg = dataclasses.replace(load_scenario_config("honest_majority"),
                                  vehicle_count=600)
        world = World(cfg)

        class CountingBuckets(dict):
            """The due buckets, counting the vehicles `_move_phase` steps."""

            stepped = 0

            def pop(self, tick, default=None):
                due = super().pop(tick, default)
                self.stepped += len(due or ())
                return due

        world._due = buckets = CountingBuckets(world._due)
        world.run()
        ticks = cfg.duration_ms // sim.TICK_MS
        assert buckets.stepped >= cfg.vehicle_count  # the first tick
        assert buckets.stepped <= 0.1 * cfg.vehicle_count * ticks


def _reference_tick(world, ref, pending):
    """Move every vehicle of `ref` one tick, as the simulator did when it
    stepped every vehicle every tick; returns the handovers made. A
    handover sets `pending[vid]` to the region that serves the vehicle
    from the next window boundary, or to None if its region serves it
    already."""
    cfg = world.config
    width = cfg.cols * cfg.cell_size_m
    height = cfg.rows * cfg.cell_size_m
    handovers = 0
    for v in ref:
        x = v.x + v.step_x
        y = v.y + v.step_y
        if x < 0 or x > width:
            x = min(max(x, 0.0), width)
            v.turn(math.pi - v.heading)
        if y < 0 or y > height:
            y = min(max(y, 0.0), height)
            v.turn(-v.heading)
        v.x = x
        v.y = y
        region = world._region(x, y)
        if region != v.region:
            v.region = region
            v.turn(v.rng.uniform(0.0, 2 * math.pi))
            handovers += 1
            pending[v.vid] = None if region == v.assoc_region else region
    return handovers


def _moving_state(v):
    return (v.heading.hex(), v.step_x.hex(), v.step_y.hex(), v.region,
            v.assoc_region)


def _assert_moves_exact(world, monkeypatch, digest_every=7):
    """Step `world` to its duration beside a reference that steps every
    vehicle every tick, and check after every step that each vehicle's
    lagging x and y are the reference's at the vehicle's tick, bit for bit,
    and that its heading, step, region and association are the
    reference's now. Each emit must see every vehicle caught up, and so
    must `state_digest()` (called every `digest_every` steps, so lags of
    several ticks occur too) and the end of `run()`. Trigonometry may run
    only on a turn. Returns how many vehicle-ticks ended on a vertical
    wall and on a horizontal one."""
    cfg = world.config
    dt = sim.TICK_MS / 1000.0
    width, height = cfg.cols * cfg.cell_size_m, cfg.rows * cfg.cell_size_m
    ref = copy.deepcopy(world.vehicles)
    history = [[(v.x, v.y) for v in ref]]  # the reference's x, y at each tick
    pending = {}  # vid -> the region it moves to at the next boundary
    calls = collections.Counter()
    real_emit = world._emit_phase

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def cos(self, a):
            calls["trig"] += 1
            return math.cos(a)

        def sin(self, a):
            calls["trig"] += 1
            return math.sin(a)

    def assert_caught_up(tick):
        for v in world.vehicles:
            x, y = history[tick][v.vid]
            assert (v.tick, v.x.hex(), v.y.hex()) == (tick, x.hex(), y.hex()), v.vid

    def checked_emit():
        assert_caught_up(world.clock_ms // sim.TICK_MS)
        real_emit()

    monkeypatch.setattr(world, "_emit_phase", checked_emit)
    monkeypatch.setattr(sim, "math", CountingMath())
    window_ticks = cfg.window_ms // sim.TICK_MS
    handovers = x_bounces = y_bounces = 0
    while world.clock_ms < cfg.duration_ms:
        calls.clear()
        world.step()
        trig = calls["trig"]
        tick = world.clock_ms // sim.TICK_MS
        before = [v.heading for v in ref]
        handovers += _reference_tick(world, ref, pending)
        if tick % window_ticks == 0:
            for r in ref:
                r.assoc_region = pending.pop(r.vid, None) or r.assoc_region
        history.append([(v.x, v.y) for v in ref])
        if tick % digest_every == 0:
            world.state_digest()
            assert_caught_up(tick)
        turned = 0
        for v, r, heading in zip(world.vehicles, ref, before):
            turned += r.heading != heading
            x_bounces += r.x in (0.0, width)
            y_bounces += r.y in (0.0, height)
            x, y = history[v.tick][v.vid]
            assert (v.x.hex(), v.y.hex()) == (x.hex(), y.hex()), (tick, v.vid)
            assert _moving_state(v) == _moving_state(r), (tick, v.vid)
            assert v.step_x.hex() == (math.cos(v.heading) * v.speed * dt).hex()
            assert v.step_y.hex() == (math.sin(v.heading) * v.speed * dt).hex()
        assert world.handover_count == handovers
        # a turn refreshes both steps, at most three turns a tick
        assert trig <= 6 * turned
    world.run()
    assert_caught_up(len(history) - 1)
    return x_bounces, y_bounces


class _Headings:
    """A vehicle's random stream that gives each turn on a cell change the
    next of `headings`."""

    def __init__(self, *headings):
        self.headings = list(headings)

    def uniform(self, lo, hi):
        return self.headings.pop(0)


def _place(world, v, x, y, heading=None, speed=None):
    """Put `v` at (x, y), facing `heading`, before the first step."""
    if speed is not None:
        v.speed = speed
    v.x, v.y = x, y
    v.turn(v.heading if heading is None else heading)
    v.region = v.assoc_region = world._region(x, y)


def _fast_honest_majority(**changes):
    return dataclasses.replace(load_scenario_config("honest_majority"), **{
        "speed_min_mps": 20.0, "speed_max_mps": 40.0, "duration_ms": 20_000,
        **changes})


def _near_axis_world():
    # headings within 1e-13 rad of an axis at 2 m/s move across the axis by
    # under one float spacing a tick, so each addition rounds by a large
    # fraction of the step; each vehicle starts 1 to 100 spacings short of
    # the floor boundary at 140 m that it drifts towards
    cfg = _fast_honest_majority(vehicle_count=96)
    world = World(cfg)
    offsets = (1e-13, -1e-13, 8e-14, -8e-14, 6e-14, -6e-14)
    for v in world.vehicles:
        axis = v.vid % 4 * math.pi / 2
        heading = axis + offsets[v.vid // 4 % len(offsets)]
        spacings = (1, 5, 40, 100)[v.vid // 24]
        across = math.sin(heading) if v.vid % 2 == 0 else math.cos(heading)
        edge_pos = 140.0 - math.copysign(spacings * math.ulp(140.0), across)
        x, y = (70.0, edge_pos) if v.vid % 2 == 0 else (edge_pos, 70.0)
        _place(world, v, x, y, heading, speed=2.0)
    return world


def _on_boundaries_world():
    # every vehicle starts on a wall, a floor boundary or both, half of them
    # heading exactly along an axis
    cfg = _fast_honest_majority(vehicle_count=64)
    world = World(cfg)
    size = cfg.cell_size_m
    spots = (0.0, size, 2 * size, cfg.cols * size)
    for v in world.vehicles:
        x = spots[v.vid % 4]
        y = spots[v.vid // 4 % 4]
        heading = v.vid // 16 * math.pi / 2 if v.vid % 2 else None
        _place(world, v, x, y, heading)
    return world


_MOVEMENT_CASES = {
    "near_axis": _near_axis_world,
    "stopped": lambda: World(_fast_honest_majority(speed_min_mps=0.0,
                                                   speed_max_mps=0.0)),
    "cell_137_3": lambda: World(_fast_honest_majority(cell_size_m=137.3)),
    "on_boundaries": _on_boundaries_world,
}


class TestMarketScript:
    @pytest.mark.parametrize("time_ms, valid", [(24_900, False), (25_000, True)])
    def test_contract_index_counts_autogrants_from_their_boundary(
            self, time_ms, valid):
        # market_script[4] is a data_request at 20 s with one auto-grant
        # vehicle; its contract, index 1, is made at the 25 s boundary
        d = json.loads((SCENARIO_DIR / "market_suite.json").read_text())
        d["market_script"][5]["time_ms"] = time_ms
        if valid:
            ScenarioConfig.from_dict(d)
            return
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(d)
        assert exc.value.field == "market_script[5].grant.contract_index"

    def _suite_world_at_request(self, target_regions=None):
        """market_suite stepped until its data request is pending."""
        d = json.loads((SCENARIO_DIR / "market_suite.json").read_text())
        if target_regions is not None:
            d["market_script"][4]["target_regions"] = target_regions
        world = World(ScenarioConfig.from_dict(d))
        while not world._pending_autogrants:
            world.step()
        return world

    @pytest.mark.parametrize("fault", ["forged", "untargeted", "retargeted"])
    def test_autogrant_refused_grants_nothing(self, fault):
        if fault == "forged":
            world = self._suite_world_at_request()
            action, request = world._pending_autogrants[0]
            forged = dataclasses.replace(request, from_ms=request.from_ms + 1)
            world._pending_autogrants[0] = (action, forged)
        else:
            # vehicle 1 answers at the 25 s boundary; target every region
            # but the one that serves it then
            probe = self._suite_world_at_request()
            while probe.clock_ms < 25_000:
                probe.step()
            served = probe.vehicles[1].assoc_region
            world = self._suite_world_at_request(
                [r for r in sorted(probe.rsis) if r != served])
            if fault == "retargeted":
                # add the serving region after the SP signed
                action, request = world._pending_autogrants[0]
                retargeted = dataclasses.replace(
                    request, target_regions=tuple(sorted(probe.rsis)))
                world._pending_autogrants[0] = (action, retargeted)
        metrics = world.run()
        assert world.contracts_created[1] is None
        # the access at 30 s cites contract 1 and is denied; the other two
        # grants of market_suite stand
        assert metrics["global"]["access_granted"] == 2
        assert metrics["global"]["access_denied"] == 4
        assert all(v == "ok" for v in world.invariant_results.values())

    def test_same_tick_actions_fire_in_script_order(self):
        def contract(time_ms, price):
            return {"time_ms": time_ms, "action": "create_contract",
                    "owner_vehicle": 0, "grantee_sp": "sp1",
                    "timespan": [0, 10_000], "scope": {"period": [0, 10_000]},
                    "price": price}

        # 150 ms and 120 ms both first fall due at the 200 ms tick, where
        # script index, not time_ms, orders them
        world = World(ScenarioConfig.from_dict(minimal_dict(
            market_script=[contract(150, 1), contract(120, 2)])))
        world.step()
        world.step()
        assert world.contracts_created == []
        world.step()
        assert [c.price for c in world.contracts_created] == [1, 2]


def _rewrite_block_timestamp(world):
    ledger = world.ledgers["r0_c0"]
    ledger.blocks[1] = dataclasses.replace(
        ledger.blocks[1], timestamp=ledger.blocks[1].timestamp + 1)


def _link_flag0_aggregate(world):
    ledger = world.ledgers["r0_c0"]
    chained = next(tx for tx in ledger.all_txs()
                   if isinstance(tx, RsiTransaction))
    tx = build_rsi_tx(scheme, world.rsis["r0_c0"].key, chained.payload,
                      list(zip(chained.vehicle_pks, chained.vehicle_signs)),
                      flag=0)
    _link(ledger, [tx], world.clock_ms)


def _link_contract_on_two_ledgers(world):
    scope = Scope(region_ids=("r0_c0",), from_ms=0, to_ms=1000,
                  kind_codes=(ROAD_DAMAGE.code,))
    contract = create_contract(scheme, world.vehicles[0].grant_key,
                               world.sp_key("sp1").public, (0, 1000), scope, 0)
    for region in ("r0_c0", "r0_c1"):
        _link(world.ledgers[region], [contract], world.clock_ms)


def _add_unchained_record(world):
    directory = world.rule_table.directories["r0_c0"]
    directory.records.append(dataclasses.replace(
        directory.records[0], record_id=10_000, provenance=bytes(32)))


def _move_record_to_another_region(world):
    # the record's aggregate stays chained, but on r0_c0's ledger
    record = world.rule_table.directories["r0_c0"].records.pop()
    world.rule_table.directories["r0_c1"].records.append(record)


def _bump_reports_sent(world):
    world.rsis["r0_c0"].stats.reports_sent += 1


def _log_unchained_grant(world):
    record = world.rule_table.directories["r0_c0"].records[0]
    query = Scope(region_ids=("r0_c0",), from_ms=0,
                  to_ms=world.config.duration_ms,
                  kind_codes=(record.payload.event.code,))
    access_tx = build_access_tx(scheme, world.sp_key("sp1"), query,
                                Grant(kind=GRANT_CONTRACT_REF,
                                      contract_id=bytes(32)))
    world.granted_log.append((AccessResult(granted=True, records=[record],
                                           access_tx=access_tx),
                              world.clock_ms))


ALL_KINDS = tuple(range(len(txmodel.EventKind.CODE_NAMES)))


def _first_record(world):
    return world.rule_table.directories["r0_c0"].records[0]


def _query(world, to_ms=None, kinds=ALL_KINDS):
    """r0_c0 over the whole run, or up to `to_ms`, and `kinds`."""
    return Scope(("r0_c0",), 0, world.config.duration_ms if to_ms is None
                 else to_ms, kinds)


def _contract_grant(world):
    """A grant of a contract from vehicle 0 to sp1 over `_query`, chained
    on r0_c0 and ending just after the run."""
    contract = create_contract(scheme, world.vehicles[0].grant_key,
                               world.sp_key("sp1").public,
                               (0, world.clock_ms + 1), _query(world), 0)
    _link(world.ledgers["r0_c0"], [contract], world.clock_ms)
    return Grant(kind=GRANT_CONTRACT_REF, contract_id=contract.contract_id())


def _log_grant(world, grant, requester="sp1", chain=True, query=None,
               records=None, granted_at=None):
    """Log a grant served at the end of the run, of r0_c0's first record
    under `_query`, its access tx countersigned by the rule table and
    chained on r0_c0; each argument left out meets its audit clause."""
    tx = build_access_tx(scheme, world.sp_key(requester),
                         query or _query(world), grant)
    rt = world.rule_table.key
    approved = dataclasses.replace(
        tx, ruletable_pk=rt.public,
        ruletable_sign=scheme.sign(rt, tx.countersigned_message()))
    if chain:
        _link(world.ledgers["r0_c0"], [approved], world.clock_ms)
    result = AccessResult(granted=True, access_tx=approved, records=(
        [_first_record(world)] if records is None else records))
    world.granted_log.append(
        (result, world.clock_ms if granted_at is None else granted_at))


def _owner_grant(world):
    """A grant to sp1 over `_query`, signed by a key that owns no record."""
    owner = key("owns-no-record")
    msg = txmodel.grant_signing_bytes(world.sp_key("sp1").public,
                                      _query(world))
    return Grant(kind=GRANT_OWNER_SIG, owner_pk=owner.public,
                 owner_sign=scheme.sign(owner, msg))


def _log_grant_of_unchained_tx(world):
    _log_grant(world, _contract_grant(world), chain=False)


def _log_grant_to_another_sp(world):
    _log_grant(world, _contract_grant(world), requester="sp2")


def _log_grant_at_contract_end(world):
    _log_grant(world, _contract_grant(world), granted_at=world.clock_ms + 1)


def _log_record_of_another_region(world):
    _log_grant(world, _contract_grant(world),
               records=[world.rule_table.directories["r0_c1"].records[0]])


def _log_record_after_query_period(world):
    _log_grant(world, _contract_grant(world), query=_query(
        world, to_ms=_first_record(world).payload.timestamp))


def _log_record_of_another_kind(world):
    code = _first_record(world).payload.event.code
    _log_grant(world, _contract_grant(world), query=_query(
        world, kinds=tuple(c for c in ALL_KINDS if c != code)))


def _log_owner_grant_of_record_not_owned(world):
    _log_grant(world, _owner_grant(world))


def _forge_certificate(world):
    # the write path has memoised the genuine certificate
    pk = world.rsis["r0_c0"].key.public
    world.policy.cert_registry[pk] = dataclasses.replace(
        world.policy.cert_registry[pk], region_id="r9_c9")


def _forge_memoised_certificate(world):
    # a forged RSI certificate replaces the genuine one, and the write
    # path's memo is made to hold it, as if admission had accepted it
    pk = world.rsis["r0_c0"].key.public
    forged = dataclasses.replace(world.policy.cert_registry[pk],
                                 ca_signature=bytes(32))
    world.policy.cert_registry[pk] = forged
    world.policy.verified_certs.add((world.policy.ca_pk, forged))


def _forge_memoised_member(world):
    # an aggregate with a forged member signature is chained by the write
    # path, because its forged triple was planted in the window's memo as
    # if ingest had verified it; the sweep reads no memo
    ledger = world.ledgers["r0_c0"]
    chained = next(tx for tx in ledger.all_txs()
                   if isinstance(tx, RsiTransaction))
    signs = (bytes(len(chained.vehicle_signs[0])),) + chained.vehicle_signs[1:]
    forged = build_rsi_tx(scheme, world.rsis["r0_c0"].key, chained.payload,
                          list(zip(chained.vehicle_pks, signs)), flag=1)
    world.verified_reports.update(member_triples(
        forged.payload, zip(forged.vehicle_pks, forged.vehicle_signs)))
    block, = append_admitted(scheme, [(ledger, [forged])], world.clock_ms,
                             world.policy, world.verified_reports)
    assert block.txs == (forged,)


def _rewrite_chained_tx_in_place(world):
    # the block hash was computed from the tx's cached bytes, which a field
    # changed in place leaves stale; validate_chain compares them with a
    # fresh encoding
    ledger = world.ledgers["r0_c0"]
    tx = next(tx for tx in ledger.all_txs() if isinstance(tx, RsiTransaction))
    assert tx.wire and tx.digest
    object.__setattr__(tx, "rsi_sign", bytes(len(tx.rsi_sign)))
    assert not validate_chain(ledger).ok


SWEEP_TAMPERS = [  # (tamper, the check it fails, one check_ledger sees)
    (_rewrite_block_timestamp, "chain_valid", True),
    (_rewrite_chained_tx_in_place, "chain_valid", True),
    (_link_flag0_aggregate, "admission_sound", True),
    (_forge_certificate, "admission_sound", True),
    (_forge_memoised_certificate, "admission_sound", True),
    (_forge_memoised_member, "admission_sound", True),
    (_link_contract_on_two_ledgers, "ledger_isolation", False),
    (_add_unchained_record, "store_provenance", False),
    (_move_record_to_another_region, "store_provenance", False),
    (_bump_reports_sent, "conservation", False),
    (_log_unchained_grant, "unauthorized_served", False),
    # one per clause of `World.audit_access_log`, each failing it alone
    (_log_grant_of_unchained_tx, "unauthorized_served", False),
    (_log_grant_to_another_sp, "unauthorized_served", False),
    (_log_grant_at_contract_end, "unauthorized_served", False),
    (_log_record_of_another_region, "unauthorized_served", False),
    (_log_record_after_query_period, "unauthorized_served", False),
    (_log_record_of_another_kind, "unauthorized_served", False),
    (_log_owner_grant_of_record_not_owned, "unauthorized_served", False),
]


@pytest.mark.parametrize(
    "tamper, check, per_ledger", SWEEP_TAMPERS,
    ids=[f"{t.__name__.lstrip('_')}-{c}" for t, c, _ in SWEEP_TAMPERS])
def test_sweep_names_the_failed_check(finished_worlds, tamper, check,
                                      per_ledger):
    world = copy.deepcopy(finished_worlds["honest_majority"][0])
    tamper(world)
    with pytest.raises(InvariantViolation) as exc:
        world.sweep_invariants()
    assert str(exc.value).startswith(check)

    # the shared per-ledger check names the same fault on its own, and
    # passes the ledger when the fault is a world-level one
    def fail(name, ok, detail):
        if not ok:
            raise InvariantViolation(name)

    def check_r0_c0():
        check_ledger(world.scheme, world.ledgers["r0_c0"], world.policy, fail)

    if per_ledger:
        with pytest.raises(InvariantViolation) as exc:
            check_r0_c0()
        assert str(exc.value) == check
    else:
        check_r0_c0()


@pytest.mark.parametrize("grant", [_contract_grant, _owner_grant])
def test_audit_passes_a_grant_that_meets_every_clause(finished_worlds, grant):
    # what each audit tamper above changes is all that fails it; an owner
    # grant of no record needs no ownership
    world = copy.deepcopy(finished_worlds["honest_majority"][0])
    _log_grant(world, grant(world),
               records=[] if grant is _owner_grant else None)
    world.sweep_invariants()
    assert world.unauthorized_served == 0


def test_replaced_chained_aggregate_fails_chain_and_sweep(finished_worlds):
    # the forgery is built after the original's cached bytes and digest
    # were read; `replace` gives it none of them
    world = copy.deepcopy(finished_worlds["honest_majority"][0])
    ledger = world.ledgers["r0_c0"]
    height, block = next((h, b) for h, b in enumerate(ledger.blocks)
                         if b.txs and isinstance(b.txs[0], RsiTransaction))
    original = block.txs[0]
    assert original.wire and original.digest
    sig = bytearray(original.rsi_sign)
    sig[-1] ^= 0x01
    forged = dataclasses.replace(original, rsi_sign=bytes(sig))
    assert forged.wire == canonical_encode(forged) != original.wire
    ledger.blocks[height] = dataclasses.replace(
        block, txs=(forged,) + block.txs[1:])
    status = validate_chain(ledger)
    assert not status.ok and status.first_bad_height == height
    with pytest.raises(InvariantViolation) as exc:
        world.sweep_invariants()
    assert str(exc.value).startswith("chain_valid[r0_c0]")


def test_sweep_verifies_every_certificate(finished_worlds):
    # the write path has memoised every certificate; the sweep still
    # verifies one per chained aggregate and per chained access
    world = copy.deepcopy(finished_worlds["market_suite"][0])
    assert world.policy.verified_certs
    world.scheme = counting = CountingScheme()
    world.sweep_invariants()
    certified = sum(isinstance(tx, (RsiTransaction, AccessTransaction))
                    for ledger in world.ledgers.values()
                    for tx in ledger.all_txs())
    assert certified > 0
    assert counting.verified[world.ca.public] == certified


def test_sweep_verifies_every_requester_signature(finished_worlds):
    # the access path's admission answers the requester triple that
    # evaluate_access verified; the sweep still verifies each requester
    # signature once per chained access
    world = copy.deepcopy(finished_worlds["market_suite"][0])
    world.scheme = counting = CountingScheme()
    world.sweep_invariants()
    signed = collections.Counter(tx.requester_pk
                                 for ledger in world.ledgers.values()
                                 for tx in ledger.all_txs()
                                 if isinstance(tx, AccessTransaction))
    assert signed
    assert {pk: counting.verified[pk] for pk in signed} == signed


def test_write_path_verifies_each_report_about_once():
    # ingest verifies each report once; admission verifies no member that
    # its window's ingest verified, only one RSI signature per chained
    # aggregate and each certificate the memo lacks; aggregation adds no
    # verify. It measured 1.045 verifies per report
    d = json.loads((SCENARIO_DIR / "honest_majority.json").read_text())
    d["vehicles"]["count"] = 600
    counting = CountingScheme()
    world = World(ScenarioConfig.from_dict(d), counting)
    sweep = world.sweep_invariants
    before_sweep = []

    def counted_sweep():
        before_sweep.append(counting.verify_calls())
        return sweep()

    world.sweep_invariants = counted_sweep
    world.run()
    reports = sum(r.stats.reports_sent for r in world.rsis.values())
    assert before_sweep[0] / reports <= 1.1


def test_admission_verifies_only_what_it_chains(monkeypatch):
    # miners reject lone (flag-0) and under-corroborated aggregates on
    # their fields, and the members of the others verified at their
    # window's ingest: admission verifies one RSI signature per aggregate
    # it chains, plus each certificate the memo lacks, and no member
    counting = CountingScheme()
    world = World(load_scenario_config("honest_majority"), counting)
    authorities = {world.ca.public} | {r.key.public for r in world.rsis.values()}
    real = sim.append_admitted
    spent = collections.Counter()

    def counted(*args):
        before, memo = counting.verified.copy(), len(world.policy.verified_certs)
        blocks = real(*args)
        made = counting.verified - before
        spent["verify"] += sum(made.values())
        spent["members"] += sum(n for pk, n in made.items()
                                if pk not in authorities)
        spent["memo_misses"] += len(world.policy.verified_certs) - memo
        for block in blocks:
            for tx in block.txs if block is not None else ():
                spent["chained"] += 1
                spent["chained_members"] += len(tx.vehicle_pks)
        return blocks

    monkeypatch.setattr(sim, "append_admitted", counted)
    world.run()
    lone = sum(r.stats.lone_tx for r in world.rsis.values())
    assert lone > 0  # 117 on the bundled scenario
    assert spent["memo_misses"] > 0 and spent["chained_members"] > 0
    assert spent["members"] == 0
    assert spent["verify"] == spent["chained"] + spent["memo_misses"]


def test_verified_reports_live_for_one_window(monkeypatch):
    # admission is handed the verified triples of the window it closes,
    # every report of it on this scenario, and the World forgets them at
    # each close: the boundaries and run()'s last close, of a window that
    # the duration cuts short
    d = json.loads((SCENARIO_DIR / "honest_majority.json").read_text())
    d["duration_ms"] -= d["window_ms"] // 2
    world = World(ScenarioConfig.from_dict(d))
    real = sim.append_admitted
    handed = []

    def admitted(scheme, batches, ts, policy, verified):
        assert verified is world.verified_reports
        assert verified == {data_tx_triple(r.tx) for r in world.delivery_log
                            if r.window_id == world.window_index}
        handed.append(len(verified))
        return real(scheme, batches, ts, policy, verified)

    monkeypatch.setattr(sim, "append_admitted", admitted)
    cfg = world.config
    while world.clock_ms < cfg.duration_ms:
        world.step()
        if world.clock_ms % cfg.window_ms == 0:
            assert not world.verified_reports
    assert world.verified_reports
    world.run()
    assert not world.verified_reports
    assert len(handed) == math.ceil(cfg.duration_ms / cfg.window_ms)
    assert all(handed)


def test_each_aggregate_encoded_at_signing_and_in_sweep(monkeypatch):
    # signing encodes each aggregate once and seeds its `wire`; admission,
    # block hashes and the rule table's read of the chain use it, and the
    # sweep makes one fresh encoding of each chained aggregate. Counted:
    # the signing bytes, and every canonical encoding of an aggregate (the
    # sweep's, and `wire` of any aggregate not seeded by its signer)
    calls = collections.Counter()
    real_signing = txmodel.rsi_tx_signing_bytes
    real_encode = encoding.canonical_encode

    def counted_signing(*args):
        calls["encode"] += 1
        return real_signing(*args)

    def counted_encode(obj):
        calls["encode"] += isinstance(obj, RsiTransaction)
        return real_encode(obj)

    monkeypatch.setattr(txmodel, "rsi_tx_signing_bytes", counted_signing)
    monkeypatch.setattr(encoding, "canonical_encode", counted_encode)
    monkeypatch.setattr(sim, "canonical_encode", counted_encode)
    world = World(load_scenario_config("honest_majority"))
    world.run()
    signed = sum(r.stats.trusted_tx + r.stats.lone_tx
                 for r in world.rsis.values())
    chained = sum(isinstance(tx, RsiTransaction)
                  for ledger in world.ledgers.values()
                  for tx in ledger.all_txs())
    stored = sum(len(d.records) for d in world.rule_table.directories.values())
    assert stored > 0 and chained < signed
    assert calls["encode"] == signed + chained
