"""The scenario format: the JSON object that configures one run, as typed,
checked values. Each field is declared once, next to its type, as
`_at(path, parser, default)`; `ScenarioConfig.from_dict` reads every field
by these declarations and `to_dict` writes each back at its path.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable

from . import txmodel
from .txmodel import EventKind, GeoPoint, Scope

TICK_MS = 100

STRATEGY_FABRICATE = "FabricateEvent"
STRATEGY_SUPPRESS = "SuppressReports"
STRATEGY_REPLAY = "ReplayStale"
STRATEGIES = (STRATEGY_FABRICATE, STRATEGY_SUPPRESS, STRATEGY_REPLAY)


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str) -> None:
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


def region_name(row: int, col: int) -> str:
    return f"r{row}_c{col}"


# --- reading -------------------------------------------------------------------
#
# A parser takes (value, field name, the config being read) and returns the
# typed value or raises ConfigError naming the field. The config's fields
# are read in the order they are declared, so a parser may look at the
# fields declared before its own. A dotted path reads a nested object; a
# callable default is called with the config for each value it supplies.

_REQUIRED = object()  # the default of a field that must be given
Parser = Callable[[Any, str, "ScenarioConfig"], Any]


def _at(path: str, parse: Parser, default: Any = _REQUIRED) -> Any:
    """Declare a dataclass field read from `path` by `parse`."""
    return field(metadata={"at": (path, parse, default)})


@functools.cache
def _rows(cls: type) -> tuple[tuple[str, str, Parser, Any], ...]:
    """(name, path, parser, default) of each declared field of `cls`."""
    return tuple((f.name, *f.metadata["at"]) for f in fields(cls) if "at" in f.metadata)


def _fill(values: dict, obj: Any, where: str, rows: tuple, cfg: ScenarioConfig) -> dict:
    """Store under each row's name its value in the object `obj`, named `where`."""
    if not isinstance(obj, dict):
        raise ConfigError(where or "scenario", "must be an object")
    prefix = where + "." if where else ""
    for name, path, parse, default in rows:
        values[name] = (parse(obj[path], prefix + path, cfg) if "." not in path and path in obj
                        else _walk(obj, where, path, parse, default, cfg))
    return values


def _walk(obj: Any, where: str, path: str, parse: Parser, default: Any,
            cfg: ScenarioConfig) -> Any:
    """The value of a row that `_fill` did not find at the top of `obj`."""
    for key in path.split("."):
        if not isinstance(obj, dict):
            raise ConfigError(where, "must be an object")
        where = f"{where}.{key}" if where else key
        if key not in obj:
            if default is _REQUIRED:
                raise ConfigError(where, "missing")
            return default(cfg) if callable(default) else default
        obj = obj[key]
    return parse(obj, where, cfg)


def _read(cls: type, obj: Any, where: str, cfg: ScenarioConfig) -> Any:
    """A `cls` read from the object `obj`, named `where`, by its declared fields."""
    return cls(**_fill({}, obj, where, _rows(cls), cfg))


def _check(ok: Callable[[Any], bool], message: str) -> Parser:
    """A value that `ok` accepts; a `TypeError` from `ok` is a refusal."""
    def parse(value: Any, where: str, cfg: ScenarioConfig) -> Any:
        try:
            if ok(value):
                return value
        except TypeError:
            pass
        raise ConfigError(where, message)
    return parse


def _list(item: Parser, nonempty: bool = False, indexed: bool = False) -> Parser:
    """A list of values that `item` parses, as a tuple. Each value is named
    by its index when `indexed`, else by the list's name."""
    def parse(value: Any, where: str, cfg: ScenarioConfig) -> tuple:
        if not isinstance(value, list) or (nonempty and not value):
            raise ConfigError(where, f"must be a {'non-empty ' if nonempty else ''}list")
        if indexed:
            return tuple([item(v, f"{where}[{i}]", cfg) for i, v in enumerate(value)])
        return tuple([item(v, where, cfg) for v in value])
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
    return lambda value, where, cfg: tuple(check(value, where, cfg))


# SP names are encoded into key seeds, so a lone surrogate is refused
_string = _check(lambda v: isinstance(v, str) and v.encode(errors="ignore").decode() == v,
                 "must be a string of valid Unicode")
_NUMBER = _check(_is_number, "must be a number")
_POSITIVE = _check(lambda v: _is_number(v) and v > 0, "must be a positive number")
_KIND_CODES = {name: code for code, name in enumerate(EventKind.CODE_NAMES)}
# the farthest a location lies from (0, 0) along either axis, in metres
_MAP_EXTENT_M = txmodel.MAX_LON_MICRO / 1e6 * txmodel.METERS_PER_DEGREE


def _cell_length(value: Any, where: str, cfg: ScenarioConfig) -> float:
    """A positive length in metres that cuts the map into cells: every
    location's coordinate divided by it (`txmodel.cell_of`, `World._region`)
    is finite."""
    if _MAP_EXTENT_M / _POSITIVE(value, where, cfg) > sys.float_info.max:
        least = _MAP_EXTENT_M / sys.float_info.max
        raise ConfigError(where, f"must be at least {least:.4g}, or a location's cell is infinite")
    return value


def _cell_size(value: Any, where: str, cfg: ScenarioConfig) -> float:
    """A cell length for which the grid's width and height are finite."""
    cells = max(cfg.rows, cfg.cols)  # an int, perhaps too large for a float
    most = sys.float_info.max / cells if cells <= sys.float_info.max else 0.0
    if _cell_length(value, where, cfg) > most:
        raise ConfigError(where, f"must be at most {most:.4g}, or the grid is infinitely wide")
    return value


def _kind_code(value: Any, where: str, cfg: ScenarioConfig) -> int:
    try:
        return _KIND_CODES[value]
    except (KeyError, TypeError):
        raise ConfigError(where, "must name an event kind") from None


def _geo(where: str, lat: float, lon: float) -> GeoPoint:
    try:
        # OverflowError: a magnitude so large that degrees * 1e6 is infinite
        loc = GeoPoint.from_degrees(lat, lon)
        loc.check_range()
    except (txmodel.RangeError, OverflowError) as exc:
        raise ConfigError(where, str(exc)) from exc
    return loc


_LOC = (("lat", "lat", _NUMBER, _REQUIRED), ("lon", "lon", _NUMBER, _REQUIRED))


def _loc(value: Any, where: str, cfg: ScenarioConfig) -> GeoPoint:
    return _geo(where, **_fill({}, value, where, _LOC, cfg))


def _area(value: Any, where: str, cfg: ScenarioConfig) -> tuple[GeoPoint, GeoPoint]:
    if not (type(value) is list and len(value) == 2 and all(
            type(c) is list and len(c) == 2 and all(map(_is_number, c)) for c in value)):
        raise ConfigError(where, "expected [[lat, lon], [lat, lon]] in degrees")
    low, high = (_geo(where, *corner) for corner in value)
    if low.lat_micro >= high.lat_micro or low.lon_micro >= high.lon_micro:
        raise ConfigError(where, "the first corner must lie south-west of the second")
    return low, high


_KIND = (("code", "name", _kind_code, _REQUIRED),
         ("speed_kmh", "speed_kmh", _integer(0, 2**32), 0))


def _kind(value: Any, where: str, cfg: ScenarioConfig) -> EventKind:
    """An event kind: its name, or {name, speed_kmh} for TrafficSpeed."""
    kind = _fill({}, {"name": value} if isinstance(value, str) else value, where, _KIND, cfg)
    try:
        return EventKind(kind["code"], kind["speed_kmh"])
    except txmodel.RangeError as exc:  # a speed given for a kind other than TrafficSpeed
        raise ConfigError(where, str(exc)) from exc


@dataclass
class GroundTruthEvent:
    loc: GeoPoint = _at("loc", _loc)
    kind: EventKind = _at("kind", _kind)
    active_ms: tuple[int, int] = _at("active_ms", _interval(strict=True))  # [start, end)


@dataclass(frozen=True)
class AdversaryConfig:
    fraction: float = _at("fraction", _check(lambda v: _is_number(v) and 0 <= v <= 1,
                                             "must be a number in [0, 1]"), 0.0)
    strategy: str = _at("strategy.type", _check(lambda v: v in STRATEGIES,
                                                f"must be one of {STRATEGIES}"),
                        STRATEGY_FABRICATE)
    fab_kind: EventKind | None = _at("strategy.kind", _kind, None)
    fab_loc: GeoPoint | None = _at("strategy.loc", _loc, None)


def _adversary(value: Any, where: str, cfg: ScenarioConfig) -> AdversaryConfig:
    adv = _read(AdversaryConfig, value, where, cfg)
    if (adv.strategy == STRATEGY_FABRICATE and adv.fraction > 0
            and (adv.fab_kind is None or adv.fab_loc is None)):
        raise ConfigError(f"{where}.strategy", "FabricateEvent needs kind and loc")
    return adv


# --- fleet and market script: checks that need the grid, the fleet or the run

def _speed_max(value: Any, where: str, cfg: ScenarioConfig) -> float:
    if _NUMBER(value, where, cfg) < cfg.speed_min_mps:
        raise ConfigError("vehicles.speed", "need 0 <= min <= max")
    return value


def _vehicle(value: Any, where: str, cfg: ScenarioConfig) -> int:
    if type(value) is int and 0 <= value < cfg.vehicle_count:
        return value
    raise ConfigError(where, f"must be an integer in [0, {cfg.vehicle_count})")


@functools.lru_cache(maxsize=1024)
def _cell_of(name: str) -> tuple[int, int] | None:
    """(row, col) of a region name, if it is one. No JSON integer, and so no
    grid size, has over 4,300 digits, nor does an index here."""
    m = re.fullmatch(r"r(0|[1-9][0-9]{0,4299})_c(0|[1-9][0-9]{0,4299})", name)
    return (int(m[1]), int(m[2])) if m else None


def _region(value: Any, where: str, cfg: ScenarioConfig) -> str:
    cell = isinstance(value, str) and _cell_of(value)
    if cell and cell[0] < cfg.rows and cell[1] < cfg.cols:
        return value
    raise ConfigError(where, "must name a grid region")


def _all_regions(cfg: ScenarioConfig) -> tuple[str, ...]:
    """Every region, for an action that leaves its regions out."""
    return tuple(sorted(region_name(r, c) for r in range(cfg.rows) for c in range(cfg.cols)))


def _whole_run(cfg: ScenarioConfig) -> tuple[int, int]:
    return 0, cfg.duration_ms


_SCOPE = (("regions", "regions", _list(_region), _all_regions),
          ("period", "period", _interval(strict=False), _whole_run),
          ("kinds", "kinds", _list(_kind_code), tuple(_KIND_CODES.values())))


def _scope(value: Any, where: str, cfg: ScenarioConfig) -> Scope:
    scope = _fill({}, value, where, _SCOPE, cfg)
    return Scope(scope["regions"], *scope["period"], scope["kinds"])


def _due_tick(value: Any, where: str, cfg: ScenarioConfig) -> int:
    return max(math.ceil(_NUMBER(value, where, cfg) / TICK_MS), 0)


@dataclass(frozen=True)
class MarketAction:
    tick: int = _at("time_ms", _due_tick, 0)  # the first tick at which the action is due
    raw: dict = field(compare=False, repr=False)  # the entry, for the report


@dataclass(frozen=True)
class CreateContract(MarketAction):
    owner_vehicle: int = _at("owner_vehicle", _vehicle)
    grantee_sp: str = _at("grantee_sp", _string)
    timespan: tuple[int, int] = _at("timespan", _interval(strict=True))
    scope: Scope = _at("scope", _scope)
    price: int = _at("price", _integer(), 0)


@dataclass(frozen=True)
class Access(MarketAction):
    """Cites `contract_index`, else a signature of `owner_sig_vehicle`."""

    requester_sp: str = _at("requester_sp", _string)
    query: Scope = _at("query", _scope)
    contract_index: int | None = _at("grant.contract_index", _integer(), None)
    owner_sig_vehicle: int | None = _at("grant.owner_sig_vehicle", _vehicle, None)


@dataclass(frozen=True)
class DataRequest(MarketAction):
    """The SP signs a `DataRequestTransaction` over the target regions. At
    the next window boundary each auto-grant vehicle checks the SP
    signature and that its serving region is a signed target; if both
    hold, it grants the SP a contract over the target regions and the
    period. The area is advertised only: no grant is scoped by it."""

    sp: str = _at("sp", _string)
    area: tuple[GeoPoint, GeoPoint] = _at("area", _area)
    period: tuple[int, int] = _at("period", _interval(strict=False), _whole_run)
    target_regions: tuple[str, ...] = _at("target_regions", _list(_region, nonempty=True),
                                          _all_regions)
    auto_grant_vehicles: tuple[int, ...] = _at("auto_grant_vehicles", _list(_vehicle), ())


_ACTIONS = {"create_contract": CreateContract, "access": Access, "data_request": DataRequest}


def _action(raw: Any, where: str, cfg: ScenarioConfig) -> MarketAction:
    kind = raw.get("action") if isinstance(raw, dict) else None
    if not isinstance(kind, str) or kind not in _ACTIONS:
        raise ConfigError(f"{where}.action", f"must be one of {tuple(_ACTIONS)}")
    cls = _ACTIONS[kind]
    return cls(**_fill({"raw": raw}, raw, where, _rows(cls), cfg))


def _script(value: Any, where: str, cfg: ScenarioConfig) -> tuple[MarketAction, ...]:
    """The actions. A `grant.contract_index` must name a contract made
    before its access is due: one per `create_contract` due before it in
    script order, one per auto-grant vehicle of each `data_request` whose
    next window boundary is at or before its tick, granting or not."""
    parsed = _list(_action, indexed=True)(value, where, cfg)
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


# --- the scenario ------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    seed: int = _at("seed", _integer())
    rows: int = _at("grid.rows", _integer(1, math.inf))
    cols: int = _at("grid.cols", _integer(1, math.inf))
    cell_size_m: float = _at("grid.cell_size_m", _cell_size)
    vehicle_count: int = _at("vehicles.count", _integer(0, math.inf))
    speed_min_mps: float = _at("vehicles.speed_min_mps", _check(
        lambda v: _is_number(v) and v >= 0, "must be non-negative"))
    speed_max_mps: float = _at("vehicles.speed_max_mps", _speed_max)
    duration_ms: int = _at("duration_ms", _integer(1, math.inf))
    window_ms: int = _at("window_ms", _check(
        lambda v: type(v) is int and v > 0 and v % TICK_MS == 0,
        f"must be a positive multiple of {TICK_MS}"))
    eps_distance_m: float = _at("consistency.eps_distance_m", _cell_length)
    min_corroboration: int = _at("consistency.min_corroboration", _integer(2, math.inf))
    miner_m: int = _at("miner_m", _integer(1, math.inf), 2)
    sensing_radius_m: float = _at("sensing_radius_m", _POSITIVE, 100.0)
    ground_truth_events: tuple[GroundTruthEvent, ...] = _at("ground_truth_events", _list(
        functools.partial(_read, GroundTruthEvent), indexed=True), ())
    adversary: AdversaryConfig = _at("adversary", _adversary,  # default: as `{}` reads
                                     AdversaryConfig(0.0, STRATEGY_FABRICATE, None, None))
    key_reuse_vehicles: tuple[int, ...] = _at("key_reuse_vehicles", _list(_vehicle), ())
    market_script: tuple[MarketAction, ...] = _at("market_script", _script, ())

    @classmethod
    def from_dict(cls, d: Any) -> ScenarioConfig:
        """Parse a scenario, checking every field once; raises ConfigError
        naming the first field that is missing, mistyped or out of range."""
        cfg = cls.__new__(cls)
        _fill(vars(cfg), d, "", _rows(cls), cfg)  # in place: parsers see what is read
        return cfg

    def to_dict(self) -> dict:
        """The scenario as the run report repeats it, defaults filled in."""
        return _render(self)


def _render(value: Any) -> Any:
    """The scenario value that reads back as `value`: a declared type as
    an object of its fields at their paths, fields that are None left out."""
    if isinstance(value, tuple):
        return [_render(v) for v in value]
    if isinstance(value, MarketAction):
        return value.raw
    if isinstance(value, GeoPoint):
        return {"lat": value.lat_micro / 1e6, "lon": value.lon_micro / 1e6}
    if isinstance(value, EventKind):
        if value.name == "TrafficSpeed":
            return {"name": value.name, "speed_kmh": value.speed_kmh}
        return value.name
    if not is_dataclass(value):
        return value
    out: dict[str, Any] = {}
    for name, path, _, _ in _rows(type(value)):
        if (item := getattr(value, name)) is not None:
            *parents, key = path.split(".")
            node = functools.reduce(lambda node, k: node.setdefault(k, {}), parents, out)
            node[key] = _render(item)
    return out
