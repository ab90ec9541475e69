"""Seeded workload generators for the dmap benchmark.

Each generator is a pure function of the seed: it returns the scenario
dict that ``ScenarioConfig.from_dict`` reads, the signature scheme name,
and the service-provider (SP) request list that the closed-loop SP phase
replays against the finished world. The program receives only these
inputs; nothing else about the run depends on the seed.

Why each workload exists (the per-layer metric map is in metric_map.json):

* ``dense_city``: 500 keyed-hash vehicles on the honest_majority grid
  (3x3 cells, 60 s, 10 % fabricators), so about 70 reports land in each
  region-window and are clustered all-pairs. Loads ``edge`` close and the
  per-tick ``sim`` movement; ledgers stay short.
* ``ed25519_events``: 100 Ed25519 vehicles for 90 s and six events per
  region in a fixed kind pattern, at 45 m sensing. Loads ``crypto`` and
  ``ledger.miner_admit``; about 40 % of reports are distinct payloads
  (dense_city: about 5 %) and neighbouring events of different kinds drive
  the conflict path of ``judge_clusters``.
* ``long_market``: the market_suite grid (2x2 cells) with 32 vehicles for
  600 simulated seconds and an access about every 5 s, then 1,000 SP
  requests. Ledgers grow long, so the ``market`` and ``ledger`` rescans
  dominate; ``edge`` sees about 6 reports per region-window.

Sizes keep one rep at 2 to 6 s, so that a 30 s run pools at least 100
window boundaries (for ``window_p90_ms``) and 1,000 SP requests (for
``access_p99_ms``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from dmap.market import DENY_NO_GRANT, DENY_SCOPE_EXCEEDED
from dmap.sim import region_name
from dmap.txmodel import METERS_PER_DEGREE, EventKind

KIND_CODES = tuple(range(len(EventKind.CODE_NAMES)))

# SP request mix: shares of query_availability reads and of grants that
# must be denied; the rest are valid contract-grant evaluate_access writes.
AVAILABILITY_SHARE = 0.15
BAD_GRANT_SHARE = 0.02

EXPECT_GRANTED = "granted"


@dataclass(frozen=True)
class SpRequest:
    """One SP-phase request, resolved against the finished world.

    ``kind`` is ``access`` or ``availability``. An access carries a query
    scope and the outcome it must get; ``unknown_contract`` makes its grant
    reference a contract that was never chained. An availability request
    carries an area in metres (x0, y0, x1, y1) and a period.
    """

    kind: str
    regions: tuple[str, ...] = ()
    period: tuple[int, int] = (0, 0)
    kinds: tuple[int, ...] = ()
    area_m: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    unknown_contract: bool = False
    expect: str = EXPECT_GRANTED


@dataclass(frozen=True)
class Workload:
    scenario: dict
    scheme: str
    requests: tuple[SpRequest, ...]


def _loc(x_m: float, y_m: float) -> dict:
    return {"lat": y_m / METERS_PER_DEGREE, "lon": x_m / METERS_PER_DEGREE}


def _base_scenario(seed: int, rows: int, cols: int, vehicles: int,
                   speed: tuple[float, float], duration_ms: int,
                   sensing_radius_m: float) -> dict:
    return {
        "seed": seed,
        "grid": {"rows": rows, "cols": cols, "cell_size_m": 140.0},
        "vehicles": {"count": vehicles, "speed_min_mps": speed[0],
                     "speed_max_mps": speed[1]},
        "duration_ms": duration_ms,
        "window_ms": 5000,
        "consistency": {"eps_distance_m": 50.0, "eps_time_ms": 2000,
                        "min_corroboration": 2},
        "miner_m": 2,
        "sensing_radius_m": sensing_radius_m,
        "ground_truth_events": [],
        "adversary": {"fraction": 0.0, "strategy": {"type": "SuppressReports"}},
        "market_script": [],
        "key_reuse_vehicles": [],
    }


def _regions(scenario: dict) -> list[str]:
    grid = scenario["grid"]
    return sorted(region_name(r, c) for r in range(grid["rows"])
                  for c in range(grid["cols"]))


# Every non-empty set of event kinds, so that each kind is queried equally often.
KIND_SETS = tuple(tuple(c for c in KIND_CODES if mask >> c & 1)
                  for mask in range(1, 1 << len(KIND_CODES)))


def _period(rng: random.Random, i: int, duration_ms: int,
            window_ms: int) -> tuple[int, int]:
    """Period of request ``i``: its length in windows cycles through every
    length; the seed picks only where it starts."""
    slots = duration_ms // window_ms
    length = 1 + (7 * i) % slots
    start = rng.randint(0, slots - length)
    return (start * window_ms, (start + length) * window_ms)


def _sp_requests(rng: random.Random, scenario: dict, n: int) -> tuple[SpRequest, ...]:
    """Exactly ``n`` requests in a fixed mix, shuffled by the seed.

    The shape of each request (how many regions, which kind set, how many
    windows, what share of the area) follows a fixed cycle, so every seed
    asks for the same amount of work; the seed picks which regions, where
    periods and areas lie, and the order.
    """
    regions = _regions(scenario)
    duration, window = scenario["duration_ms"], scenario["window_ms"]
    cell = scenario["grid"]["cell_size_m"]
    width = scenario["grid"]["cols"] * cell
    height = scenario["grid"]["rows"] * cell
    n_avail = round(AVAILABILITY_SHARE * n)
    n_bad = max(2, round(BAD_GRANT_SHARE * n))
    out: list[SpRequest] = []
    for i in range(n):
        if i < n_avail:
            share = 0.2 + 0.8 * ((0.618034 * i) % 1.0)
            w, h = width * share ** 0.5, height * share ** 0.5
            x0, y0 = rng.uniform(0.0, width - w), rng.uniform(0.0, height - h)
            # the whole duration: how much data an area holds, whatever
            # time bucket the store indexes it under
            out.append(SpRequest(kind="availability", period=(0, duration),
                                 area_m=(x0, y0, x0 + w, y0 + h)))
            continue
        size = 1 + i % len(regions)
        query = dict(regions=tuple(sorted(rng.sample(regions, size))),
                     period=_period(rng, i, duration, window),
                     kinds=KIND_SETS[i % len(KIND_SETS)])
        if i < n_avail + n_bad // 2:
            out.append(SpRequest(kind="access", unknown_contract=True,
                                 expect=DENY_NO_GRANT, **query))
        elif i < n_avail + n_bad:
            # the SP contract's scope ends at the duration
            query["period"] = (query["period"][0], duration + window)
            out.append(SpRequest(kind="access", expect=DENY_SCOPE_EXCEEDED,
                                 **query))
        else:
            out.append(SpRequest(kind="access", **query))
    rng.shuffle(out)
    return tuple(out)


def dense_city(seed: int) -> Workload:
    rng = random.Random(f"dense_city/{seed}")
    sc = _base_scenario(seed, 3, 3, 500, (0.5, 1.5), 60_000, 100.0)
    cell = sc["grid"]["cell_size_m"]
    for row in range(3):
        for col in range(3):
            x = (col + 0.5) * cell + rng.uniform(-10.0, 10.0)
            y = (row + 0.5) * cell + rng.uniform(-10.0, 10.0)
            sc["ground_truth_events"].append({
                "region": region_name(row, col), "loc": _loc(x, y),
                "kind": "RoadDamage", "active_ms": [0, sc["duration_ms"]]})
    sc["adversary"] = {"fraction": 0.1, "strategy": {
        "type": "FabricateEvent", "kind": "Clear",
        "loc": _loc(1.5 * cell, 1.5 * cell)}}
    return Workload(sc, "keyed-hash", _sp_requests(rng, sc, 1000))


def ed25519_events(seed: int) -> Workload:
    rng = random.Random(f"ed25519_events/{seed}")
    sc = _base_scenario(seed, 3, 3, 100, (0.5, 1.5), 90_000, 45.0)
    cell = sc["grid"]["cell_size_m"]
    # the kind pattern is fixed and the seed only permutes the kinds, so
    # which neighbours conflict does not depend on the seed
    perm = rng.sample(KIND_CODES, len(KIND_CODES))
    for row in range(3):
        for col in range(3):
            # six events on a 3x2 lattice, so neighbours sit about one
            # eps_distance apart and claim different kinds
            for i in range(3):
                for j in range(2):
                    x = (col + (i + 0.5) / 3) * cell + rng.uniform(-3.0, 3.0)
                    y = (row + (j + 0.5) / 2) * cell + rng.uniform(-3.0, 3.0)
                    code = perm[(i + 2 * j + row + col) % len(KIND_CODES)]
                    kind = (EventKind.CODE_NAMES[code] if code != 2 else
                            {"name": "TrafficSpeed",
                             "speed_kmh": rng.choice((10, 30, 50))})
                    sc["ground_truth_events"].append({
                        "region": region_name(row, col), "loc": _loc(x, y),
                        "kind": kind, "active_ms": [0, sc["duration_ms"]]})
    sc["adversary"] = {"fraction": 0.1, "strategy": {
        "type": "FabricateEvent", "kind": "Congestion",
        "loc": _loc(1.5 * cell, 1.5 * cell)}}
    return Workload(sc, "ed25519", _sp_requests(rng, sc, 500))


def long_market(seed: int) -> Workload:
    rng = random.Random(f"long_market/{seed}")
    # 70 m sensing keeps each vehicle's reports on its own cell's event, and
    # 32 vehicles make two or more reporters per region-window near certain,
    # so the record count (which sets the rescan cost) barely moves by seed
    sc = _base_scenario(seed, 2, 2, 32, (0.2, 1.0), 600_000, 70.0)
    cell = sc["grid"]["cell_size_m"]
    duration, window = sc["duration_ms"], sc["window_ms"]
    for row in range(2):
        for col in range(2):
            sc["ground_truth_events"].append({
                "region": region_name(row, col),
                "loc": _loc((col + 0.5) * cell, (row + 0.5) * cell),
                "kind": "RoadDamage", "active_ms": [0, duration]})
    regions = _regions(sc)
    script: list[dict] = [{
        "time_ms": window, "action": "create_contract", "owner_vehicle": 0,
        "grantee_sp": "sp1", "timespan": [window, duration + window],
        "scope": {"regions": regions, "period": [0, duration],
                  "kinds": list(EventKind.CODE_NAMES)},
        "price": 1}]
    for k in range(1, duration // window):
        t = k * window + rng.randint(1, window // 100 - 1) * 100
        # an access is chained on the ledger of its first query region;
        # rotating that region spreads the chained accesses evenly
        first = k % len(regions)
        rest = regions[first + 1:]
        query = {"regions": [regions[first],
                             *sorted(rng.sample(rest, rng.randint(0, len(rest))))],
                 "period": [0, t],
                 "kinds": [EventKind.CODE_NAMES[c] for c in KIND_SETS[k % len(KIND_SETS)]]}
        # every twentieth access is a grantless probe, which is denied
        grant = {} if k % 20 == 0 else {"contract_index": 0}
        script.append({"time_ms": t, "action": "access", "requester_sp": "sp1",
                       "grant": grant, "query": query})
    sc["market_script"] = script
    return Workload(sc, "keyed-hash", _sp_requests(rng, sc, 1000))


WORKLOADS = {w.__name__: w for w in (dense_city, ed25519_events, long_market)}
