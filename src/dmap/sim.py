"""Deterministic discrete-event world: mobile vehicles over an RSI grid,
ground-truth events, adversary injection, the marketplace script, and
end-to-end metric computation.

Time is integer milliseconds in 100 ms ticks. Every random draw comes
from a counter-based stream keyed by (scenario seed, entity), so the full
state trajectory is a pure function of the scenario config. Vehicles
sample their surroundings at validation-window boundaries and sign each
report with a key freshly derived from their private master seed; the
world keeps the key-to-vehicle map as ground truth for the linkability
metric, and nothing linkable ever enters a protocol message.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field, replace
from typing import Any

from . import edge, txmodel
from .crypto import KEYED_HASH, KeyPair, SignatureScheme, issue_certificate, sha256
from .edge import ConsistencyPolicy, RegionStats, RsiState
from .ledger import Ledger, MinerPolicy, append_admitted, genesis, miner_admit, validate_chain
from .market import AccessResult, RuleTable, build_access_tx, build_data_request, create_contract
from .rng import CounterRng
from .txmodel import (
    DataTransaction,
    EventKind,
    GeoPoint,
    Grant,
    GRANT_CONTRACT_REF,
    GRANT_OWNER_SIG,
    Payload,
    RsiTransaction,
    Scope,
    SmartContract,
    build_data_tx,
    canonical_encode,
    distance_m,
)

TICK_MS = 100
TICK_S = TICK_MS / 1000.0

STRATEGY_FABRICATE = "FabricateEvent"
STRATEGY_SUPPRESS = "SuppressReports"
STRATEGY_REPLAY = "ReplayStale"
STRATEGIES = (STRATEGY_FABRICATE, STRATEGY_SUPPRESS, STRATEGY_REPLAY)
MARKET_ACTIONS = ("create_contract", "access", "data_request")


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str = "") -> None:
        self.field = field_name
        super().__init__(f"{field_name}: {message}" if message else field_name)


class InvariantViolation(RuntimeError):
    pass


def _geo_to_xy(loc: GeoPoint) -> tuple[float, float]:
    return (loc.lon_micro / 1e6 * txmodel.METERS_PER_DEGREE,
            loc.lat_micro / 1e6 * txmodel.METERS_PER_DEGREE)


def region_name(row: int, col: int) -> str:
    return f"r{row}_c{col}"


# --- configuration ----------------------------------------------------------

def _parse_kind(obj: Any, where: str) -> EventKind:
    if isinstance(obj, str):
        name, speed = obj, 0
    elif isinstance(obj, dict):
        name, speed = obj.get("name", ""), obj.get("speed_kmh", 0)
    else:
        raise ConfigError(where, "expected event kind name or object")
    if type(speed) is not int or not 0 <= speed < 2**32:
        raise ConfigError(f"{where}.speed_kmh", "must be an integer in [0, 2**32)")
    try:
        return EventKind.from_name(name, speed)
    except txmodel.RangeError as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_loc(obj: Any, where: str) -> GeoPoint:
    if not isinstance(obj, dict) or "lat" not in obj or "lon" not in obj:
        raise ConfigError(where, "expected {lat, lon}")
    for key in ("lat", "lon"):
        if not _is_number(obj[key]):
            raise ConfigError(f"{where}.{key}", "must be a number")
    try:
        # OverflowError: a magnitude so large that degrees * 1e6 is infinite
        loc = GeoPoint.from_degrees(obj["lat"], obj["lon"])
        loc.check_range()
    except (txmodel.RangeError, OverflowError) as exc:
        raise ConfigError(where, str(exc)) from exc
    return loc


@dataclass
class GroundTruthEvent:
    region: str
    loc: GeoPoint
    kind: EventKind
    start_ms: int
    end_ms: int


@dataclass
class AdversaryConfig:
    fraction: float = 0.0
    strategy: str = STRATEGY_FABRICATE
    fab_kind: EventKind | None = None
    fab_loc: GeoPoint | None = None


# (attribute, scenario field) pairs checked for type before any range check
_INT_FIELDS = (
    ("seed", "seed"), ("rows", "grid.rows"), ("cols", "grid.cols"),
    ("vehicle_count", "vehicles.count"), ("duration_ms", "duration_ms"),
    ("window_ms", "window_ms"), ("eps_time_ms", "consistency.eps_time_ms"),
    ("min_corroboration", "consistency.min_corroboration"),
    ("miner_m", "miner_m"),
)
_NUMBER_FIELDS = (
    ("cell_size_m", "grid.cell_size_m"),
    ("speed_min_mps", "vehicles.speed_min_mps"),
    ("speed_max_mps", "vehicles.speed_max_mps"),
    ("eps_distance_m", "consistency.eps_distance_m"),
    ("sensing_radius_m", "sensing_radius_m"),
)


def _is_number(value: Any) -> bool:
    # the range test also rejects JSON's NaN and Infinity, and integers too
    # large for the float arithmetic the simulation does with them
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _is_lat_lon(value: Any) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(_is_number(v) for v in value)
            and abs(value[0]) <= 90 and abs(value[1]) <= 180)


@dataclass
class ScenarioConfig:
    seed: int
    rows: int
    cols: int
    cell_size_m: float
    vehicle_count: int
    speed_min_mps: float
    speed_max_mps: float
    duration_ms: int
    window_ms: int
    eps_distance_m: float
    eps_time_ms: int
    min_corroboration: int
    miner_m: int
    sensing_radius_m: float
    ground_truth_events: list[GroundTruthEvent] = field(default_factory=list)
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    market_script: list[dict] = field(default_factory=list)
    key_reuse_vehicles: list[int] = field(default_factory=list)

    def validate(self) -> None:
        for attr, where in _INT_FIELDS:
            if type(getattr(self, attr)) is not int:
                raise ConfigError(where, "must be an integer")
        for attr, where in _NUMBER_FIELDS:
            if not _is_number(getattr(self, attr)):
                raise ConfigError(where, "must be a number")
        if not _is_number(self.adversary.fraction):
            raise ConfigError("adversary.fraction", "must be a number")
        if self.seed < 0:
            raise ConfigError("seed", "must be a non-negative integer")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("grid", "rows and cols must be >= 1")
        if self.cell_size_m <= 0:
            raise ConfigError("grid.cell_size_m", "must be positive")
        if self.vehicle_count < 0:
            raise ConfigError("vehicles.count", "must be non-negative")
        if self.speed_min_mps < 0 or self.speed_max_mps < self.speed_min_mps:
            raise ConfigError("vehicles.speed", "need 0 <= min <= max")
        if self.duration_ms <= 0:
            raise ConfigError("duration_ms", "must be positive")
        if self.window_ms <= 0 or self.window_ms % TICK_MS != 0:
            raise ConfigError("window_ms", f"must be a positive multiple of {TICK_MS}")
        if self.eps_distance_m <= 0:
            raise ConfigError("consistency.eps_distance_m", "must be positive")
        if self.eps_time_ms <= 0:
            raise ConfigError("consistency.eps_time_ms", "must be positive")
        if self.min_corroboration < 2:
            raise ConfigError("consistency.min_corroboration", "must be >= 2")
        if self.miner_m < 1:
            raise ConfigError("miner_m", "must be >= 1")
        if self.sensing_radius_m <= 0:
            raise ConfigError("sensing_radius_m", "must be positive")
        if not 0.0 <= self.adversary.fraction <= 1.0:
            raise ConfigError("adversary.fraction", "must be in [0, 1]")
        if self.adversary.strategy not in STRATEGIES:
            raise ConfigError("adversary.strategy",
                              f"must be one of {STRATEGIES}")
        if (self.adversary.strategy == STRATEGY_FABRICATE
                and self.adversary.fraction > 0
                and (self.adversary.fab_kind is None
                     or self.adversary.fab_loc is None)):
            raise ConfigError("adversary.strategy",
                              "FabricateEvent needs kind and loc")
        for i, ev in enumerate(self.ground_truth_events):
            if ev.start_ms < 0 or ev.end_ms <= ev.start_ms:
                raise ConfigError(f"ground_truth_events[{i}].active_ms",
                                  "need 0 <= start < end")
        for vid in self.key_reuse_vehicles:
            if type(vid) is not int or not 0 <= vid < self.vehicle_count:
                raise ConfigError("key_reuse_vehicles", f"unknown vehicle {vid!r}")
        for i, action in enumerate(self.market_script):
            if not isinstance(action, dict) or action.get("action") not in MARKET_ACTIONS:
                raise ConfigError(f"market_script[{i}].action",
                                  f"must be one of {MARKET_ACTIONS}")
            if not _is_number(action.get("time_ms", 0)):
                raise ConfigError(f"market_script[{i}].time_ms", "must be a number")
            self._validate_action(action, f"market_script[{i}]")

    def _validate_action(self, action: dict, where: str) -> None:
        """Check the fields that name a vehicle, an SP or an area.

        `grant.contract_index` is not checked: the contracts it may point
        at include those that autogrants create during the run.
        """
        def vehicle(value: Any, name: str) -> None:
            if type(value) is not int or not 0 <= value < self.vehicle_count:
                raise ConfigError(f"{where}.{name}",
                                  f"must be a vehicle index in [0, {self.vehicle_count})")

        def sp_name(name: str) -> None:
            if not isinstance(action.get(name), str):
                raise ConfigError(f"{where}.{name}", "must be a string")

        kind = action["action"]
        if kind == "create_contract":
            vehicle(action.get("owner_vehicle"), "owner_vehicle")
            sp_name("grantee_sp")
        elif kind == "access":
            sp_name("requester_sp")
            grant = action.get("grant", {})
            if isinstance(grant, dict) and "owner_sig_vehicle" in grant:
                vehicle(grant["owner_sig_vehicle"], "grant.owner_sig_vehicle")
        else:
            sp_name("sp")
            area = action.get("area")
            if not (isinstance(area, list) and len(area) == 2
                    and all(_is_lat_lon(corner) for corner in area)):
                raise ConfigError(f"{where}.area",
                                  "expected [[lat, lon], [lat, lon]] in degrees")
            autos = action.get("auto_grant_vehicles", [])
            if not isinstance(autos, list):
                raise ConfigError(f"{where}.auto_grant_vehicles", "must be a list")
            for vid in autos:
                vehicle(vid, "auto_grant_vehicles")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        def need(container: dict, key: str, where: str) -> Any:
            if key not in container:
                raise ConfigError(where, "missing")
            return container[key]

        def need_object(container: dict, key: str, where: str) -> dict:
            value = need(container, key, where)
            if not isinstance(value, dict):
                raise ConfigError(where, "must be an object")
            return value

        def need_list(key: str) -> list:
            value = d.get(key, [])
            if not isinstance(value, list):
                raise ConfigError(key, "must be a list")
            return list(value)

        if not isinstance(d, dict):
            raise ConfigError("scenario", "must be an object")
        grid = need_object(d, "grid", "grid")
        vehicles = need_object(d, "vehicles", "vehicles")
        consistency = need_object(d, "consistency", "consistency")
        adv_raw = d.get("adversary", {})
        if not isinstance(adv_raw, dict):
            raise ConfigError("adversary", "must be an object")
        strategy_raw = adv_raw.get("strategy", {"type": STRATEGY_FABRICATE})
        if isinstance(strategy_raw, str):
            strategy_raw = {"type": strategy_raw}
        if not isinstance(strategy_raw, dict):
            raise ConfigError("adversary.strategy", "expected a name or object")
        adv = AdversaryConfig(
            fraction=adv_raw.get("fraction", 0.0),
            strategy=strategy_raw.get("type", STRATEGY_FABRICATE),
            fab_kind=(_parse_kind(strategy_raw["kind"], "adversary.strategy.kind")
                      if "kind" in strategy_raw else None),
            fab_loc=(_parse_loc(strategy_raw["loc"], "adversary.strategy.loc")
                     if "loc" in strategy_raw else None),
        )
        events = []
        for i, ev in enumerate(need_list("ground_truth_events")):
            where = f"ground_truth_events[{i}]"
            if not isinstance(ev, dict):
                raise ConfigError(where, "must be an object")
            if not isinstance(ev.get("region", ""), str):
                raise ConfigError(f"{where}.region", "must be a string")
            active = need(ev, "active_ms", f"{where}.active_ms")
            if not (isinstance(active, list) and len(active) == 2
                    and all(type(t) is int for t in active)):
                raise ConfigError(f"{where}.active_ms",
                                  "expected [start_ms, end_ms] integers")
            events.append(GroundTruthEvent(
                region=ev.get("region", ""),
                loc=_parse_loc(need(ev, "loc", f"{where}.loc"), f"{where}.loc"),
                kind=_parse_kind(need(ev, "kind", f"{where}.kind"), f"{where}.kind"),
                start_ms=active[0], end_ms=active[1]))
        cfg = cls(
            seed=need(d, "seed", "seed"),
            rows=need(grid, "rows", "grid.rows"),
            cols=need(grid, "cols", "grid.cols"),
            cell_size_m=need(grid, "cell_size_m", "grid.cell_size_m"),
            vehicle_count=need(vehicles, "count", "vehicles.count"),
            speed_min_mps=need(vehicles, "speed_min_mps", "vehicles.speed_min_mps"),
            speed_max_mps=need(vehicles, "speed_max_mps", "vehicles.speed_max_mps"),
            duration_ms=need(d, "duration_ms", "duration_ms"),
            window_ms=need(d, "window_ms", "window_ms"),
            eps_distance_m=need(consistency, "eps_distance_m",
                                "consistency.eps_distance_m"),
            eps_time_ms=need(consistency, "eps_time_ms", "consistency.eps_time_ms"),
            min_corroboration=need(consistency, "min_corroboration",
                                   "consistency.min_corroboration"),
            miner_m=d.get("miner_m", 2),
            sensing_radius_m=d.get("sensing_radius_m", 100.0),
            ground_truth_events=events,
            adversary=adv,
            market_script=need_list("market_script"),
            key_reuse_vehicles=need_list("key_reuse_vehicles"),
        )
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        strategy: dict[str, Any] = {"type": self.adversary.strategy}
        if self.adversary.fab_kind is not None:
            strategy["kind"] = self.adversary.fab_kind.name
            if self.adversary.fab_kind.code == 2:
                strategy["kind"] = {"name": "TrafficSpeed",
                                    "speed_kmh": self.adversary.fab_kind.speed_kmh}
        if self.adversary.fab_loc is not None:
            strategy["loc"] = {"lat": self.adversary.fab_loc.lat_micro / 1e6,
                               "lon": self.adversary.fab_loc.lon_micro / 1e6}
        return {
            "seed": self.seed,
            "grid": {"rows": self.rows, "cols": self.cols,
                     "cell_size_m": self.cell_size_m},
            "vehicles": {"count": self.vehicle_count,
                         "speed_min_mps": self.speed_min_mps,
                         "speed_max_mps": self.speed_max_mps},
            "duration_ms": self.duration_ms,
            "window_ms": self.window_ms,
            "consistency": {"eps_distance_m": self.eps_distance_m,
                            "eps_time_ms": self.eps_time_ms,
                            "min_corroboration": self.min_corroboration},
            "miner_m": self.miner_m,
            "sensing_radius_m": self.sensing_radius_m,
            "ground_truth_events": [
                {"region": ev.region,
                 "loc": {"lat": ev.loc.lat_micro / 1e6,
                         "lon": ev.loc.lon_micro / 1e6},
                 "kind": ev.kind.name,
                 "active_ms": [ev.start_ms, ev.end_ms]}
                for ev in self.ground_truth_events
            ],
            "adversary": {"fraction": self.adversary.fraction,
                          "strategy": strategy},
            "market_script": self.market_script,
            "key_reuse_vehicles": list(self.key_reuse_vehicles),
        }


# --- world state -------------------------------------------------------------

@dataclass
class Vehicle:
    vid: int
    x: float
    y: float
    heading: float
    speed: float
    honest: bool
    master_seed: bytes
    grant_key: KeyPair
    rng: CounterRng
    assoc_region: str
    cell: tuple[int, int]  # World._cell(x, y), kept up to date by moves
    # raw x // cell_size_m and y // cell_size_m; the cell can change only
    # when one of them does
    floor_x: float
    floor_y: float
    pending_region: str | None = None
    key_counter: int = 0
    first_key: KeyPair | None = None  # signs owner-signature grants
    reuse_key: KeyPair | None = None
    replay_payload: Payload | None = None
    # the move of one tick, refreshed by `turn` whenever the heading changes
    step_x: float = field(init=False, repr=False, compare=False)
    step_y: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.turn(self.heading)

    def turn(self, heading: float) -> None:
        self.heading = heading
        self.step_x = math.cos(heading) * self.speed * TICK_S
        self.step_y = math.sin(heading) * self.speed * TICK_S

    def fresh_key(self, scheme: SignatureScheme) -> KeyPair:
        if self.reuse_key is not None:
            return self.reuse_key
        seed = sha256(self.master_seed + struct.pack(">Q", self.key_counter))
        self.key_counter += 1
        key = scheme.generate_keypair(seed)
        if self.first_key is None:
            self.first_key = key
        return key


@dataclass
class Delivery:
    window_id: int
    region: str
    vid: int
    tx: DataTransaction
    fabricated: bool


class World:
    def __init__(self, config: ScenarioConfig,
                 scheme: SignatureScheme = KEYED_HASH) -> None:
        config.validate()
        self.config = config
        self.scheme = scheme
        self.clock_ms = 0
        seed = config.seed

        self.ca = scheme.generate_keypair(
            sha256(b"dmap/ca" + struct.pack(">Q", seed)))
        self.policy = MinerPolicy(m=config.miner_m, ca_pk=self.ca.public)
        self.consistency = ConsistencyPolicy(
            eps_distance=config.eps_distance_m, eps_time=config.eps_time_ms,
            min_corroboration=config.min_corroboration)

        self.rsis: dict[str, RsiState] = {}
        self.ledgers: dict[str, Ledger] = {}
        for row in range(config.rows):
            for col in range(config.cols):
                region = region_name(row, col)
                key = scheme.generate_keypair(
                    sha256(b"dmap/rsi" + struct.pack(">Q", seed)
                           + region.encode()))
                cert = issue_certificate(scheme, self.ca, key.public, region)
                self.policy.cert_registry[key.public] = cert
                self.rsis[region] = RsiState.fresh(region, key, config.window_ms)
                self.ledgers[region] = genesis(region)

        rt_key = scheme.generate_keypair(
            sha256(b"dmap/ruletable" + struct.pack(">Q", seed)))
        rt_cert = issue_certificate(scheme, self.ca, rt_key.public, "ruletable")
        self.policy.cert_registry[rt_key.public] = rt_cert
        self.rule_table = RuleTable(scheme, rt_key, self.policy, self.ledgers)
        for region in sorted(self.rsis):
            self.rule_table.register_rsi_directory(
                self.policy.cert_registry[self.rsis[region].key.public])

        self.vehicles: list[Vehicle] = []
        n_adv = round(config.adversary.fraction * config.vehicle_count)
        width = config.cols * config.cell_size_m
        height = config.rows * config.cell_size_m
        for vid in range(config.vehicle_count):
            rng = CounterRng(seed, "vehicle", vid)
            master = sha256(b"dmap/vehicle-master"
                            + struct.pack(">QQ", seed, vid))
            grant_key = scheme.generate_keypair(master + b"/grant")
            x, y = rng.uniform(0.0, width), rng.uniform(0.0, height)
            cell = self._cell(x, y)
            v = Vehicle(vid=vid, x=x, y=y,
                        heading=rng.uniform(0.0, 2 * math.pi),
                        speed=rng.uniform(config.speed_min_mps,
                                          config.speed_max_mps),
                        honest=vid >= n_adv,
                        master_seed=master, grant_key=grant_key, rng=rng,
                        assoc_region=region_name(*cell), cell=cell,
                        floor_x=x // config.cell_size_m,
                        floor_y=y // config.cell_size_m)
            if vid in config.key_reuse_vehicles:
                v.reuse_key = scheme.generate_keypair(master + b"/reused")
            self.vehicles.append(v)

        self._events = [(ev, *_geo_to_xy(ev.loc))
                        for ev in config.ground_truth_events]
        self._fab_region: str | None = None
        if config.adversary.fab_loc is not None:
            self._fab_region = region_name(
                *self._cell(*_geo_to_xy(config.adversary.fab_loc)))

        self.window_index = 0
        self.delivery_log: list[Delivery] = []
        self.pk_owner: dict[bytes, int] = {}
        self.injected_false = 0
        self.handover_count = 0
        self.access_granted = 0
        self.access_denied = 0
        self.contracts_created: list[SmartContract] = []
        self.granted_log: list[tuple[AccessResult, int]] = []
        # (first due tick, action); the stable sort keeps script order
        # among actions due in the same tick
        self._script = sorted(
            ((max(math.ceil(a.get("time_ms", 0) / TICK_MS), 0), a)
             for a in config.market_script), key=lambda due_action: due_action[0])
        self._script_next = 0
        self._pending_autogrants: list[tuple[int, bytes, dict]] = []
        self._sp_keys: dict[str, KeyPair] = {}

    # -- identity helpers ----------------------------------------------------

    def sp_key(self, name: str) -> KeyPair:
        if name not in self._sp_keys:
            self._sp_keys[name] = self.scheme.generate_keypair(
                sha256(b"dmap/sp" + struct.pack(">Q", self.config.seed)
                       + name.encode()))
        return self._sp_keys[name]

    def state_digest(self) -> bytes:
        """Digest of the full observable state, for determinism checks."""
        h_parts = [struct.pack(">Q", self.clock_ms)]
        for v in self.vehicles:
            h_parts.append(struct.pack(">Qddddq", v.vid, v.x, v.y, v.heading,
                                       v.speed, v.key_counter))
            h_parts.append(v.assoc_region.encode())
        for region in sorted(self.ledgers):
            h_parts.append(self.ledgers[region].tip.block_hash)
        return sha256(b"".join(h_parts))

    # -- event loop ----------------------------------------------------------

    def _cell(self, x: float, y: float) -> tuple[int, int]:
        """Grid (row, col) of a position, clamped into the grid."""
        cfg = self.config
        row = min(int(y // cfg.cell_size_m), cfg.rows - 1)
        col = min(int(x // cfg.cell_size_m), cfg.cols - 1)
        return max(row, 0), max(col, 0)

    def _deliver(self, v: Vehicle, loc: GeoPoint, kind: EventKind, ts: int,
                 fabricated: bool = False) -> None:
        """Sign a report under a fresh key and send it to the serving RSI."""
        tx = build_data_tx(self.scheme, v.fresh_key(self.scheme), loc, kind, ts)
        self.pk_owner.setdefault(tx.pk, v.vid)
        region = v.assoc_region
        edge.ingest(self.scheme, self.rsis[region], tx, self.clock_ms)
        self.delivery_log.append(Delivery(self.window_index, region, v.vid,
                                          tx, fabricated))

    def _sensed(self, v: Vehicle, active: list[tuple[GroundTruthEvent, float, float]]
                ) -> list[GroundTruthEvent]:
        """Active events within the vehicle's sensing radius, in scenario order."""
        radius = self.config.sensing_radius_m
        return [ev for ev, ex, ey in active
                if math.hypot(v.x - ex, v.y - ey) <= radius]

    def _emit_phase(self) -> None:
        cfg = self.config
        ts = self.clock_ms
        active = [e for e in self._events if e[0].start_ms <= ts < e[0].end_ms]
        for v in self.vehicles:
            if v.honest:
                # corroborating reports must be byte-identical for the member
                # signatures to verify against the deduplicated payload, so
                # every sensing vehicle reports the event's own location
                for ev in self._sensed(v, active):
                    self._deliver(v, ev.loc, ev.kind, ts)
            elif cfg.adversary.strategy == STRATEGY_FABRICATE:
                self._emit_fabricated(v, ts)
            elif cfg.adversary.strategy == STRATEGY_REPLAY:
                self._emit_replay(v, ts, active)
            # SuppressReports: silence

    def _emit_fabricated(self, v: Vehicle, ts: int) -> None:
        cfg = self.config
        # fabricate only while served by the target locus's RSI, where the
        # claim is at least geographically plausible
        if self._fab_region is None or v.assoc_region != self._fab_region:
            return
        self.injected_false += 1
        self._deliver(v, cfg.adversary.fab_loc, cfg.adversary.fab_kind, ts,
                      fabricated=True)

    def _emit_replay(self, v: Vehicle, ts: int,
                     active: list[tuple[GroundTruthEvent, float, float]]) -> None:
        p = v.replay_payload
        if p is None:
            # capture phase: report the first sensed event honestly; every
            # later emit replays that same payload
            sensed = self._sensed(v, active)
            if not sensed:
                return
            p = v.replay_payload = Payload(sensed[0].loc, sensed[0].kind, ts)
        self._deliver(v, p.loc, p.event, p.timestamp)

    def _move_phase(self) -> None:
        """Move every vehicle one tick. Trigonometry runs only on a turn and
        `_cell` only when a raw floor changes; positions are the same floats
        as recomputing the step and the cell every tick."""
        cfg = self.config
        cell_size = cfg.cell_size_m
        width = cfg.cols * cell_size
        height = cfg.rows * cell_size
        pi = math.pi
        cell = self._cell
        for v in self.vehicles:
            x = v.x + v.step_x
            y = v.y + v.step_y
            if x < 0 or x > width:
                x = min(max(x, 0.0), width)
                v.turn(pi - v.heading)
            if y < 0 or y > height:
                y = min(max(y, 0.0), height)
                v.turn(-v.heading)
            v.x = x
            v.y = y
            floor_x = x // cell_size
            floor_y = y // cell_size
            if floor_x != v.floor_x or floor_y != v.floor_y:
                v.floor_x = floor_x
                v.floor_y = floor_y
                # at x == width or y == height the floor moves past the
                # last cell but the clamped cell stays: no handover
                after = cell(x, y)
                if after != v.cell:
                    v.cell = after
                    v.turn(v.rng.uniform(0.0, 2 * pi))
                    self.handover_count += 1
                    edge.handover(v, region_name(*after))

    def _close_region(self, region: str) -> None:
        """Close the region's window, chain what miners admit, store it."""
        txs = edge.close_window(self.scheme, self.rsis[region], self.consistency)
        block = append_admitted(self.scheme, self.ledgers[region], txs,
                                self.clock_ms, self.policy)
        if block is not None:
            for tx in block.txs:
                self.rule_table.store_record(tx)

    def _window_boundary(self) -> None:
        for region in sorted(self.rsis):
            self._close_region(region)
        for v in self.vehicles:
            if v.pending_region is not None:
                v.assoc_region = v.pending_region
                v.pending_region = None
        self.window_index += 1
        self._fire_autogrants()

    # -- marketplace script ---------------------------------------------------

    def _fire_market_actions(self) -> None:
        tick = self.clock_ms // TICK_MS
        script = self._script
        while self._script_next < len(script) and script[self._script_next][0] <= tick:
            _, action = script[self._script_next]
            self._script_next += 1
            self._run_action(action)

    def _parse_scope(self, obj: dict) -> Scope:
        period = obj.get("period", [0, self.config.duration_ms])
        kinds = obj.get("kinds")
        if kinds is None:
            codes = tuple(range(len(EventKind.CODE_NAMES)))
        else:
            codes = tuple(EventKind.CODE_NAMES.index(k) for k in kinds)
        return Scope(region_ids=tuple(obj.get("regions", sorted(self.rsis))),
                     from_ms=period[0], to_ms=period[1], kind_codes=codes)

    def _run_action(self, action: dict) -> None:
        kind = action.get("action")
        if kind == "create_contract":
            owner = self.vehicles[action["owner_vehicle"]]
            grantee = self.sp_key(action["grantee_sp"]).public
            contract = create_contract(
                self.scheme, owner.grant_key, grantee,
                tuple(action["timespan"]), self._parse_scope(action["scope"]),
                action.get("price", 0))
            self.rule_table.chain_contract(contract, self.clock_ms)
            self.contracts_created.append(contract)
        elif kind == "access":
            self._run_access(action)
        elif kind == "data_request":
            self._run_data_request(action)

    def _run_access(self, action: dict) -> None:
        sp = self.sp_key(action["requester_sp"])
        query = self._parse_scope(action["query"])
        g = action.get("grant", {})
        if "contract_index" in g:
            contract = self.contracts_created[g["contract_index"]]
            grant = Grant(kind=GRANT_CONTRACT_REF,
                          contract_id=contract.contract_id())
        elif "owner_sig_vehicle" in g:
            owner = self.vehicles[g["owner_sig_vehicle"]]
            key = owner.first_key or owner.grant_key
            sig = self.scheme.sign(
                key, txmodel.grant_signing_bytes(sp.public, query))
            grant = Grant(kind=GRANT_OWNER_SIG, owner_pk=key.public,
                          owner_sign=sig)
        else:
            # grantless probe: a contract reference that resolves to nothing
            grant = Grant(kind=GRANT_CONTRACT_REF, contract_id=b"\x00" * 32)
        access_tx = build_access_tx(self.scheme, sp, query, grant)
        result = self.rule_table.evaluate_access(access_tx, self.clock_ms)
        if result.granted:
            self.access_granted += 1
            self.granted_log.append((result, self.clock_ms))
        else:
            self.access_denied += 1

    def _run_data_request(self, action: dict) -> None:
        sp = self.sp_key(action["sp"])
        area = action["area"]
        period = action.get("period", [0, self.config.duration_ms])
        targets = action.get("target_regions", sorted(self.rsis))
        request = build_data_request(
            self.scheme, sp,
            GeoPoint.from_degrees(area[0][0], area[0][1]),
            GeoPoint.from_degrees(area[1][0], area[1][1]),
            period[0], period[1], targets)
        # vehicles in the target regions observe the request next window;
        # scripted owners respond by granting
        for vid in action.get("auto_grant_vehicles", []):
            self._pending_autogrants.append((vid, sp.public, {
                "period": period, "regions": targets,
                "request": request,
            }))

    def _fire_autogrants(self) -> None:
        pending, self._pending_autogrants = self._pending_autogrants, []
        for vid, sp_pk, info in pending:
            owner = self.vehicles[vid]
            scope = Scope(region_ids=tuple(info["regions"]),
                          from_ms=info["period"][0], to_ms=info["period"][1],
                          kind_codes=tuple(range(len(EventKind.CODE_NAMES))))
            contract = create_contract(
                self.scheme, owner.grant_key, sp_pk,
                (self.clock_ms, self.config.duration_ms + self.config.window_ms),
                scope, 0)
            self.rule_table.chain_contract(contract, self.clock_ms)
            self.contracts_created.append(contract)

    # -- main loop -------------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        if self.clock_ms >= cfg.duration_ms:
            return
        if self.clock_ms % cfg.window_ms == 0:
            self._emit_phase()
        self._fire_market_actions()
        self._move_phase()
        self.clock_ms += TICK_MS
        if self.clock_ms % cfg.window_ms == 0:
            self._window_boundary()

    def run(self) -> dict:
        """Step to the configured duration, sweep invariants, return metrics."""
        while self.clock_ms < self.config.duration_ms:
            self.step()
        for region in sorted(self.rsis):
            if self.rsis[region].window.reports:
                self._close_region(region)
        self.sweep_invariants()
        return self.compute_metrics()

    # -- metrics & sweeps -------------------------------------------------------

    def _payload_matches_truth(self, payload: Payload) -> bool:
        cfg = self.config
        for ev in cfg.ground_truth_events:
            if (payload.event == ev.kind
                    and ev.start_ms <= payload.timestamp < ev.end_ms
                    and distance_m(payload.loc, ev.loc) <= cfg.eps_distance_m):
                return True
        return False

    def compute_linkability(self) -> dict:
        """Count protocol-visible key reuse per vehicle (ground-truth map)."""
        per_vehicle: dict[int, dict[bytes, int]] = {}
        for d in self.delivery_log:
            vid = self.pk_owner[d.tx.pk]
            per_vehicle.setdefault(vid, {})
            per_vehicle[vid][d.tx.pk] = per_vehicle[vid].get(d.tx.pk, 0) + 1
        violations = {}
        total = 0
        for vid, pks in per_vehicle.items():
            v = sum(uses - 1 for uses in pks.values() if uses > 1)
            if v:
                violations[vid] = v
                total += v
        return {"linkability_violations": total,
                "per_vehicle": {str(k): violations[k] for k in sorted(violations)}}

    def audit_access_log(self, chained: dict[bytes, str],
                         contracts: dict[bytes, SmartContract]) -> int:
        """Independent replay of every grant; returns unauthorized_served.

        `chained` maps the SHA-256 of each chained tx's canonical encoding
        to its region; `contracts` maps each chained contract's id to it.
        """
        unauthorized = 0
        for result, granted_at in self.granted_log:
            tx = result.access_tx
            if sha256(canonical_encode(tx)) not in chained:
                unauthorized += len(result.records)
                continue
            ok = True
            if tx.grant.kind == GRANT_CONTRACT_REF:
                c = contracts.get(tx.grant.contract_id)
                ok = (c is not None and c.grantee_pk == tx.requester_pk
                      and c.start_ms <= granted_at < c.end_ms
                      and c.scope.contains_query(tx.query))
            elif tx.grant.kind == GRANT_OWNER_SIG:
                msg = txmodel.grant_signing_bytes(tx.requester_pk, tx.query)
                ok = self.scheme.verify(tx.grant.owner_pk, msg,
                                        tx.grant.owner_sign)
                ok = ok and all(tx.grant.owner_pk in r.owner_pks
                                for r in result.records)
            for r in result.records:
                if (r.region_id not in tx.query.region_ids
                        or not tx.query.from_ms <= r.payload.timestamp < tx.query.to_ms
                        or r.payload.event.code not in tx.query.kind_codes):
                    ok = False
            if not ok:
                unauthorized += max(len(result.records), 1)
        return unauthorized

    def compute_metrics(self) -> dict:
        """Run metrics; reads the counts that `sweep_invariants` kept."""
        per_region = {}
        totals = RegionStats()
        for region in sorted(self.rsis):
            stats = self.rsis[region].stats
            per_region[region] = stats.as_dict()
            for name, value in vars(stats).items():
                setattr(totals, name, getattr(totals, name) + value)
        false_chained = self.false_chained
        injected = self.injected_false
        detection = 1.0 if injected == 0 else 1.0 - false_chained / injected
        link = self.compute_linkability()
        global_metrics = dict(totals.as_dict())
        global_metrics.update({
            "false_data_chained": false_chained,
            "false_data_injected": injected,
            "detection_rate": detection,
            "linkability_violations": link["linkability_violations"],
            "access_granted": self.access_granted,
            "access_denied": self.access_denied,
            "unauthorized_served": self.unauthorized_served,
            "handovers": self.handover_count,
        })
        return {"global": global_metrics, "per_region": per_region}

    def sweep_invariants(self) -> dict[str, str]:
        """Post-run checks of every module-level invariant; raises on failure."""
        results: dict[str, str] = {}

        def check(name: str, ok: bool, detail: str = "") -> None:
            results[name] = "ok" if ok else f"FAIL {detail}".strip()
            if not ok:
                raise InvariantViolation(f"{name}: {detail}")

        for region in sorted(self.ledgers):
            status = validate_chain(self.ledgers[region])
            check(f"chain_valid[{region}]", status.ok,
                  f"first_bad_height={status.first_bad_height}")

        # one pass over every chained tx, in region order: the digest map
        # serves the isolation, provenance and grant checks. Admission is
        # replayed without the certificate memo, so every certificate of
        # every chained tx is verified here. Each tx is encoded afresh, and
        # the bytes its block hash was computed from must equal them.
        replay = replace(self.policy, verified_certs=None)
        region_of: dict[bytes, str] = {}
        contracts: dict[bytes, SmartContract] = {}
        isolated = True
        false_chained = 0
        for region in sorted(self.ledgers):
            for tx in self.ledgers[region].all_txs():
                fresh = canonical_encode(tx)
                check(f"chain_valid[{region}]", fresh == tx.wire,
                      "cached tx bytes differ from a fresh encoding")
                verdict = miner_admit(self.scheme, tx, replay, region)
                check(f"admission_sound[{region}]", verdict.accepted,
                      verdict.reason)
                digest = sha256(fresh)
                if region_of.setdefault(digest, region) != region:
                    isolated = False
                if isinstance(tx, RsiTransaction):
                    # cannot fail: admission rejects flag 0 and is checked
                    # first; kept as a check that does not rest on it
                    check(f"flag_sweep[{region}]", tx.flag == 1, "flag=0 chained")
                    if not self._payload_matches_truth(tx.payload):
                        false_chained += 1
                elif isinstance(tx, SmartContract):
                    contracts[digest] = tx
        results.setdefault("admission_sound", "ok")
        check("ledger_isolation", isolated)

        for region, directory in sorted(self.rule_table.directories.items()):
            for record in directory.records:
                check(f"store_provenance[{region}]",
                      record.provenance in region_of, "unchained record")

        for region in sorted(self.rsis):
            s = self.rsis[region].stats
            consumed = (s.trusted_members + s.lone_members + s.rejected_reports
                        + s.sig_rejects + s.stale
                        + len(self.rsis[region].window.reports))
            check(f"conservation[{region}]", s.reports_sent == consumed,
                  f"sent={s.reports_sent} consumed={consumed}")

        self.unauthorized_served = self.audit_access_log(region_of, contracts)
        check("unauthorized_served", self.unauthorized_served == 0)
        self.false_chained = false_chained
        self.invariant_results = results
        return results

