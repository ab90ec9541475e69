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

import functools
import math
import re
import struct
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import Any, Callable

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


def _advance(v: "Vehicle", ticks: int) -> tuple[float, float]:
    """The vehicle's x and y after `ticks` more moves of its current step:
    one addition per tick and axis, in order, as stepping tick by tick."""
    x, y = v.x, v.y
    step_x, step_y = v.step_x, v.step_y
    for _ in repeat(None, ticks):
        x += step_x
        y += step_y
    return x, y


def _ticks_inside(pos: float, step: float, floor: float, size: float,
                  wall: float, ulp: float) -> float:
    """How many ticks a vehicle at `pos`, moving `step` a tick, may go
    unchecked: each of those moves keeps `pos // size` at `floor` and `pos`
    inside [0, wall]. Infinite for a zero step.

    `d` is the distance to the floor boundary ahead, or to the wall when
    that is nearer, and `ulp` bounds the spacing of floats inside the grid.
    k additions of `step` travel at most k * (|step| + ulp/2), and `d` and
    the boundary are each off by at most ulp/2, so (d - 2 ulp) / (|step| +
    ulp) moves stay inside; one tick less covers the rounding of that
    division."""
    if step > 0:
        d = min((floor + 1) * size, wall) - pos
    elif step < 0:
        d = pos - floor * size
    else:
        return math.inf
    return max(int((d - 2 * ulp) / (abs(step) + ulp)) - 1, 0)


# --- configuration ----------------------------------------------------------
#
# A scenario is read through tables of (path, parser, default) rows, one
# row per field, in the order of the fields of the type the table makes.
# A parser takes (value, field name) and returns the typed value or raises
# ConfigError naming the field; a dotted path reads a nested object; a
# callable default is called for each value it supplies.

_REQUIRED = object()  # the default of a field that must be given
Parser = Callable[[Any, str], Any]


def _values(obj: Any, where: str, table: tuple) -> list[Any]:
    """The value of each row of `table` in the object `obj`, named `where`."""
    if not isinstance(obj, dict):
        raise ConfigError(where or "scenario", "must be an object")
    prefix = where + "." if where else ""
    return [parse(obj[path], prefix + path) if "." not in path and path in obj
            else _nested(obj, where, path, parse, default)
            for path, parse, default in table]


def _nested(obj: Any, where: str, path: str, parse: Parser, default: Any) -> Any:
    """The value of a row that `_values` did not find at the top of `obj`."""
    for key in path.split("."):
        if not isinstance(obj, dict):
            raise ConfigError(where, "must be an object")
        where = f"{where}.{key}" if where else key
        if key not in obj:
            if default is _REQUIRED:
                raise ConfigError(where, "missing")
            return default() if callable(default) else default
        obj = obj[key]
    return parse(obj, where)


def _object(table: tuple, build: Callable[..., Any]) -> Parser:
    """An object read by `table`; `build(where, *values)` makes its value."""
    return lambda value, where: build(where, *_values(value, where, table))


def _check(ok: Callable[[Any], bool], message: str) -> Parser:
    """A value that `ok` accepts; a `TypeError` from `ok` is a refusal."""
    def parse(value: Any, where: str) -> Any:
        try:
            if ok(value):
                return value
        except TypeError:
            pass
        raise ConfigError(where, message)
    parse.ok, parse.message = ok, message  # for `_list`
    return parse


def _list(item: Parser, nonempty: bool = False, indexed: bool = False) -> Parser:
    """A list of values that `item` parses, as a tuple. When `indexed`, each
    is named by its index; else `item` is a `_check` and the list is named."""
    def parse(value: Any, where: str) -> tuple:
        if not isinstance(value, list) or (nonempty and not value):
            raise ConfigError(where, f"must be a {'non-empty ' if nonempty else ''}list")
        if indexed:
            return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))
        try:
            if all(map(item.ok, value)):
                return tuple(value)
        except TypeError:
            pass
        raise ConfigError(where, item.message)
    return parse


def _is_number(value: Any) -> bool:
    # the range test also rejects JSON's NaN and Infinity, and integers too
    # large for the float arithmetic the simulation does with them
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _integer(lo: float = 0, hi: float = 2**64) -> Parser:
    """An integer in [lo, hi); times and prices go on the wire as u64."""
    return _check(lambda v: type(v) is int and lo <= v < hi,
                  f"must be an integer in [{lo}, {hi})")


def _interval(strict: bool) -> Parser:
    """[start, end] integer milliseconds in [0, 2**64), as a pair; start < end
    when `strict`, else start <= end."""
    check = _check(lambda v: type(v) is list and len(v) == 2 and type(v[0]) is int
                   and type(v[1]) is int and 0 <= v[0] <= v[1] - strict and v[1] < 2**64,
                   f"expected [start, end], 0 <= start {'<' if strict else '<='} end")
    return lambda value, where: tuple(check(value, where))


# SP names are encoded into key seeds, so a lone surrogate is refused
_string = _check(lambda v: isinstance(v, str) and v.encode(errors="ignore").decode() == v,
                 "must be a string of valid Unicode")
_NUMBER = _check(_is_number, "must be a number")
_POSITIVE = _check(lambda v: _is_number(v) and v > 0, "must be a positive number")
_KIND_NAME = _check(frozenset(EventKind.CODE_NAMES).__contains__, "must name an event kind")


def _geo(where: str, lat: float, lon: float) -> GeoPoint:
    try:
        # OverflowError: a magnitude so large that degrees * 1e6 is infinite
        loc = GeoPoint.from_degrees(lat, lon)
        loc.check_range()
    except (txmodel.RangeError, OverflowError) as exc:
        raise ConfigError(where, str(exc)) from exc
    return loc


_LOC = _object((("lat", _NUMBER, _REQUIRED), ("lon", _NUMBER, _REQUIRED)), _geo)


def _area(value: Any, where: str) -> tuple[GeoPoint, GeoPoint]:
    if not (type(value) is list and len(value) == 2 and all(
            type(c) is list and len(c) == 2 and all(map(_is_number, c)) for c in value)):
        raise ConfigError(where, "expected [[lat, lon], [lat, lon]] in degrees")
    low, high = (_geo(where, *corner) for corner in value)
    if low.lat_micro >= high.lat_micro or low.lon_micro >= high.lon_micro:
        raise ConfigError(where, "the first corner must lie south-west of the second")
    return low, high


_KIND_FIELDS = (("name", _KIND_NAME, _REQUIRED),
                ("speed_kmh", _integer(0, 2**32), 0))


def _kind(value: Any, where: str) -> EventKind:
    """An event kind: its name, or {name, speed_kmh} for TrafficSpeed."""
    name, speed = _values({"name": value} if isinstance(value, str) else value,
                          where, _KIND_FIELDS)
    if name != "TrafficSpeed" and speed:
        raise ConfigError(where, "speed only valid for TrafficSpeed")
    return EventKind(EventKind.CODE_NAMES.index(name), speed)


def _kind_value(kind: EventKind) -> str | dict:
    """The scenario value that `_kind` reads back as `kind`."""
    if kind.name == "TrafficSpeed":
        return {"name": kind.name, "speed_kmh": kind.speed_kmh}
    return kind.name


@dataclass
class GroundTruthEvent:
    region: str
    loc: GeoPoint
    kind: EventKind
    start_ms: int
    end_ms: int


@dataclass(frozen=True)
class AdversaryConfig:
    fraction: float = 0.0
    strategy: str = STRATEGY_FABRICATE
    fab_kind: EventKind | None = None
    fab_loc: GeoPoint | None = None


_ADVERSARY_FIELDS = (
    ("fraction", _check(lambda v: _is_number(v) and 0 <= v <= 1,
                        "must be a number in [0, 1]"), 0.0),
    ("strategy.type", _check(lambda v: v in STRATEGIES, f"must be one of {STRATEGIES}"),
     STRATEGY_FABRICATE),
    ("strategy.kind", _kind, None),
    ("strategy.loc", _LOC, None),
)
_EVENT = _object((
    ("region", _string, ""),
    ("loc", _LOC, _REQUIRED),
    ("kind", _kind, _REQUIRED),
    ("active_ms", _interval(strict=True), _REQUIRED),
), lambda where, region, loc, kind, active: GroundTruthEvent(region, loc, kind, *active))

# ScenarioConfig's fields that need no other to be checked; to_dict repeats
# the scalar ones as given
_SCALAR_FIELDS = (
    ("seed", _integer(), _REQUIRED),
    ("grid.rows", _integer(1, math.inf), _REQUIRED),
    ("grid.cols", _integer(1, math.inf), _REQUIRED),
    ("grid.cell_size_m", _POSITIVE, _REQUIRED),
    ("vehicles.count", _integer(0, math.inf), _REQUIRED),
    ("vehicles.speed_min_mps",
     _check(lambda v: _is_number(v) and v >= 0, "must be non-negative"), _REQUIRED),
    ("vehicles.speed_max_mps", _NUMBER, _REQUIRED),
    ("duration_ms", _integer(1, math.inf), _REQUIRED),
    ("window_ms", _check(lambda v: type(v) is int and v > 0 and v % TICK_MS == 0,
                         f"must be a positive multiple of {TICK_MS}"), _REQUIRED),
    ("consistency.eps_distance_m", _POSITIVE, _REQUIRED),
    ("consistency.eps_time_ms", _integer(1, math.inf), _REQUIRED),
    ("consistency.min_corroboration", _integer(2, math.inf), _REQUIRED),
    ("miner_m", _integer(1, math.inf), 2),
    ("sensing_radius_m", _POSITIVE, 100.0),
)
_CONFIG_FIELDS = _SCALAR_FIELDS + (
    ("ground_truth_events", _list(_EVENT, indexed=True), ()),
    ("adversary", _object(_ADVERSARY_FIELDS, lambda where, *f: AdversaryConfig(*f)),
     AdversaryConfig),
)


# --- market script ------------------------------------------------------------

@dataclass(frozen=True)
class MarketAction:
    tick: int  # the first tick at which the action is due
    raw: dict = field(compare=False, repr=False)  # the entry, for the report


@dataclass(frozen=True)
class CreateContract(MarketAction):
    owner_vehicle: int
    grantee_sp: str
    timespan: tuple[int, int]
    scope: Scope
    price: int


@dataclass(frozen=True)
class Access(MarketAction):
    """Cites `contract_index`, else a signature of `owner_sig_vehicle`."""

    requester_sp: str
    query: Scope
    contract_index: int | None
    owner_sig_vehicle: int | None


@dataclass(frozen=True)
class DataRequest(MarketAction):
    """The SP signs a `DataRequestTransaction` over the target regions. At
    the next window boundary each auto-grant vehicle checks the SP
    signature and that its serving region is a signed target; if both
    hold, it grants the SP a contract over the target regions and the
    period. The area is advertised only: no grant is scoped by it."""

    sp: str
    area: tuple[GeoPoint, GeoPoint]
    period: tuple[int, int]
    target_regions: tuple[str, ...]
    auto_grant_vehicles: tuple[int, ...]


def _fleet_fields(cfg: "ScenarioConfig") -> tuple:
    """The rows of `key_reuse_vehicles` and `market_script`, whose checks
    need the grid, the fleet and the run length of `cfg`."""
    vehicle = _integer(0, cfg.vehicle_count)

    @functools.cache
    def is_region(v: str) -> bool:
        m = re.fullmatch(r"r(0|[1-9][0-9]*)_c(0|[1-9][0-9]*)", v)
        return bool(m) and int(m[1]) < cfg.rows and int(m[2]) < cfg.cols

    region = _check(is_region, "must name a grid region")
    # every region, listed only when an action leaves its regions out
    regions = functools.cache(lambda: tuple(sorted(
        region_name(row, col) for row in range(cfg.rows) for col in range(cfg.cols))))
    scope = _object((
        ("regions", _list(region), regions),
        ("period", _interval(strict=False), (0, cfg.duration_ms)),
        ("kinds", _list(_KIND_NAME), EventKind.CODE_NAMES),
    ), lambda where, region_ids, period, kinds: Scope(
        region_ids, *period, tuple(map(EventKind.CODE_NAMES.index, kinds))))
    actions = {  # each table's first row gives the due time, the rest the fields
        "create_contract": (CreateContract, (
            ("time_ms", _NUMBER, 0),
            ("owner_vehicle", vehicle, _REQUIRED),
            ("grantee_sp", _string, _REQUIRED),
            ("timespan", _interval(strict=True), _REQUIRED),
            ("scope", scope, _REQUIRED),
            ("price", _integer(), 0))),
        "access": (Access, (
            ("time_ms", _NUMBER, 0),
            ("requester_sp", _string, _REQUIRED),
            ("query", scope, _REQUIRED),
            ("grant.contract_index", _integer(), None),
            ("grant.owner_sig_vehicle", vehicle, None))),
        "data_request": (DataRequest, (
            ("time_ms", _NUMBER, 0),
            ("sp", _string, _REQUIRED),
            ("area", _area, _REQUIRED),
            ("period", _interval(strict=False), (0, cfg.duration_ms)),
            ("target_regions", _list(region, nonempty=True), regions),
            ("auto_grant_vehicles", _list(vehicle), ()))),
    }

    def action(raw: Any, where: str) -> MarketAction:
        kind = raw.get("action") if isinstance(raw, dict) else None
        if not isinstance(kind, str) or kind not in actions:
            raise ConfigError(f"{where}.action", f"must be one of {tuple(actions)}")
        cls, table = actions[kind]
        time_ms, *values = _values(raw, where, table)
        return cls(max(math.ceil(time_ms / TICK_MS), 0), raw, *values)

    def script(value: Any, where: str) -> tuple[MarketAction, ...]:
        """The actions. A `grant.contract_index` must name a contract made
        before its access is due: one per `create_contract` due before it in
        script order, one per auto-grant vehicle of each `data_request` whose
        next window boundary is at or before its tick, granting or not."""
        parsed = _list(action, indexed=True)(value, where)
        window_ticks = cfg.window_ms // TICK_MS
        made = 0
        pending: list[tuple[int, int]] = []  # (boundary tick, contracts), in order
        for i in sorted(range(len(parsed)), key=lambda j: parsed[j].tick):
            act = parsed[i]
            while pending and pending[0][0] <= act.tick:
                made += pending.pop(0)[1]
            if isinstance(act, CreateContract):
                made += 1
            elif isinstance(act, DataRequest):
                boundary = (act.tick // window_ticks + 1) * window_ticks
                pending.append((boundary, len(act.auto_grant_vehicles)))
            elif act.contract_index is not None and act.contract_index >= made:
                raise ConfigError(f"{where}[{i}].grant.contract_index",
                                  f"only {made} contracts exist by tick {act.tick}")
        return parsed

    return (("key_reuse_vehicles", _list(vehicle), ()), ("market_script", script, ()))


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
    ground_truth_events: tuple[GroundTruthEvent, ...]
    adversary: AdversaryConfig
    key_reuse_vehicles: tuple[int, ...]
    market_script: tuple[MarketAction, ...]

    @classmethod
    def from_dict(cls, d: Any) -> "ScenarioConfig":
        """Parse a scenario, checking every field once; raises ConfigError
        naming the first field that is missing, mistyped or out of range."""
        cfg = cls(*_values(d, "", _CONFIG_FIELDS), (), ())
        if cfg.speed_max_mps < cfg.speed_min_mps:
            raise ConfigError("vehicles.speed", "need 0 <= min <= max")
        adv = cfg.adversary
        if (adv.strategy == STRATEGY_FABRICATE and adv.fraction > 0
                and (adv.fab_kind is None or adv.fab_loc is None)):
            raise ConfigError("adversary.strategy", "FabricateEvent needs kind and loc")
        cfg.key_reuse_vehicles, cfg.market_script = _values(d, "", _fleet_fields(cfg))
        return cfg

    def to_dict(self) -> dict:
        """The scenario as the run report repeats it, defaults filled in."""
        out: dict[str, Any] = {}
        for (path, _, _), attr in zip(_SCALAR_FIELDS, fields(self)):
            *parents, key = path.split(".")
            node = out
            for parent in parents:
                node = node.setdefault(parent, {})
            node[key] = getattr(self, attr.name)
        adv = self.adversary
        strategy: dict[str, Any] = {"type": adv.strategy}
        if adv.fab_kind is not None:
            strategy["kind"] = _kind_value(adv.fab_kind)
        if adv.fab_loc is not None:
            strategy["loc"] = {"lat": adv.fab_loc.lat_micro / 1e6,
                               "lon": adv.fab_loc.lon_micro / 1e6}
        out["adversary"] = {"fraction": adv.fraction, "strategy": strategy}
        out["ground_truth_events"] = [
            {"region": ev.region,
             "loc": {"lat": ev.loc.lat_micro / 1e6, "lon": ev.loc.lon_micro / 1e6},
             "kind": _kind_value(ev.kind),
             "active_ms": [ev.start_ms, ev.end_ms]}
            for ev in self.ground_truth_events]
        out["market_script"] = [action.raw for action in self.market_script]
        out["key_reuse_vehicles"] = list(self.key_reuse_vehicles)
        return out


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
    tick: int = 0  # the tick that x and y belong to; see World._move_phase
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
        # tick -> the vehicles `_move_phase` steps at that tick; the first
        # tick steps every vehicle and so schedules it
        self._due: dict[int, list[Vehicle]] = {0: self.vehicles[:]}

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
        # None stands for an auto-grant that granted nothing, so indexes hold
        self.contracts_created: list[SmartContract | None] = []
        self.granted_log: list[tuple[AccessResult, int]] = []
        # due order, last first, for popping; the stable sort keeps script
        # order among actions due in one tick
        self._script = sorted(config.market_script, key=lambda a: a.tick)[::-1]
        self._pending_autogrants: list[tuple[DataRequest, txmodel.DataRequestTransaction]] = []
        self._sp_keys: dict[str, KeyPair] = {}

    # -- identity helpers ----------------------------------------------------

    def sp_key(self, name: str) -> KeyPair:
        if name not in self._sp_keys:
            self._sp_keys[name] = self.scheme.generate_keypair(
                sha256(b"dmap/sp" + struct.pack(">Q", self.config.seed)
                       + name.encode()))
        return self._sp_keys[name]

    def state_digest(self) -> bytes:
        """Digest of the full observable state, for determinism checks.
        Catches every vehicle up to the current tick first."""
        self._catch_up()
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
        edge.ingest(self.scheme, self.rsis[region], tx)
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

    def _catch_up(self) -> None:
        """Bring every vehicle's x and y to the current tick."""
        tick = self.clock_ms // TICK_MS
        for v in self.vehicles:
            if v.tick != tick:
                v.x, v.y = _advance(v, tick - v.tick)
                v.tick = tick

    def _move_phase(self) -> None:
        """Step the vehicles due at this tick; the others lag behind.

        A vehicle is due at the first tick at which it may change floor or
        reach a wall (`_ticks_inside`). Until then its moves are plain
        additions, so it is left alone and `x`, `y` belong to `v.tick`: read
        them after `state_digest()`, or at an emit, which catches everyone up
        (`_catch_up`). A due vehicle makes its lagging additions, then this
        tick's, in order, so positions are the same floats as stepping every
        vehicle every tick. Trigonometry runs only on a turn and `_cell` only
        when a raw floor changes."""
        tick = self.clock_ms // TICK_MS
        due = self._due.pop(tick, None)
        if due is None:
            return
        buckets = self._due
        cfg = self.config
        cell_size = cfg.cell_size_m
        width = cfg.cols * cell_size
        height = cfg.rows * cell_size
        ulp = math.ulp(max(width, height))
        pi = math.pi
        cell = self._cell
        for v in due:
            x, y = _advance(v, tick + 1 - v.tick)
            if x < 0 or x > width:
                x = min(max(x, 0.0), width)
                v.turn(pi - v.heading)
            if y < 0 or y > height:
                y = min(max(y, 0.0), height)
                v.turn(-v.heading)
            v.x = x
            v.y = y
            v.tick = tick + 1
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
            wait = min(_ticks_inside(x, v.step_x, floor_x, cell_size, width, ulp),
                       _ticks_inside(y, v.step_y, floor_y, cell_size, height, ulp))
            if wait != math.inf:
                buckets.setdefault(tick + 1 + wait, []).append(v)

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
        while self._script and self._script[-1].tick * TICK_MS <= self.clock_ms:
            self._run_action(self._script.pop())

    def _run_action(self, action: MarketAction) -> None:
        if isinstance(action, CreateContract):
            self._chain_contract(create_contract(
                self.scheme, self.vehicles[action.owner_vehicle].grant_key,
                self.sp_key(action.grantee_sp).public, action.timespan,
                action.scope, action.price))
        elif isinstance(action, Access):
            self._run_access(action)
        else:
            # vehicles in the target regions observe the request next window
            request = build_data_request(self.scheme, self.sp_key(action.sp),
                                         *action.area, *action.period,
                                         action.target_regions)
            self._pending_autogrants.append((action, request))

    def _chain_contract(self, contract: SmartContract) -> None:
        self.rule_table.chain_contract(contract, self.clock_ms)
        self.contracts_created.append(contract)

    def _run_access(self, action: Access) -> None:
        sp = self.sp_key(action.requester_sp)
        if action.contract_index is None and action.owner_sig_vehicle is not None:
            owner = self.vehicles[action.owner_sig_vehicle]
            key = owner.first_key or owner.grant_key
            sig = self.scheme.sign(
                key, txmodel.grant_signing_bytes(sp.public, action.query))
            grant = Grant(kind=GRANT_OWNER_SIG, owner_pk=key.public,
                          owner_sign=sig)
        else:
            # no grant, or an auto-grant that granted nothing: an id of nothing
            contract = (None if action.contract_index is None
                        else self.contracts_created[action.contract_index])
            grant = Grant(kind=GRANT_CONTRACT_REF, contract_id=(
                b"\x00" * 32 if contract is None else contract.contract_id()))
        access_tx = build_access_tx(self.scheme, sp, action.query, grant)
        result = self.rule_table.evaluate_access(access_tx, self.clock_ms)
        if result.granted:
            self.access_granted += 1
            self.granted_log.append((result, self.clock_ms))
        else:
            self.access_denied += 1

    def _fire_autogrants(self) -> None:
        pending, self._pending_autogrants = self._pending_autogrants, []
        for action, request in pending:
            signed = self.scheme.verify(request.sp_pk, txmodel.data_request_signing_bytes(
                request.sp_pk, request.area_min, request.area_max, request.from_ms,
                request.to_ms, request.target_regions), request.sp_sign)
            scope = Scope(request.target_regions, request.from_ms, request.to_ms,
                          tuple(range(len(EventKind.CODE_NAMES))))
            for vid in action.auto_grant_vehicles:
                owner = self.vehicles[vid]
                if signed and owner.assoc_region in request.target_regions:
                    self._chain_contract(create_contract(
                        self.scheme, owner.grant_key, request.sp_pk,
                        (self.clock_ms, self.config.duration_ms + self.config.window_ms),
                        scope, 0))
                else:
                    self.contracts_created.append(None)

    # -- main loop -------------------------------------------------------------

    def step(self) -> None:
        """Advance the world one tick. Vehicles not due to move lag behind
        (see `_move_phase`); each emit catches them up first."""
        cfg = self.config
        if self.clock_ms >= cfg.duration_ms:
            return
        if self.clock_ms % cfg.window_ms == 0:
            self._catch_up()
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
        self._catch_up()
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
        # the bytes its block hash was computed from must equal them; that
        # check raises first, so the replay, which verifies slices of
        # `wire`, checks bytes equal to this fresh encoding.
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
                    # counted in reports, the unit of false_data_injected
                    if not self._payload_matches_truth(tx.payload):
                        false_chained += len(tx.vehicle_pks)
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

