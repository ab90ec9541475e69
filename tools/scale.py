"""Scale points of `World.run()`: wall time, phase split, verify counts
and the time of building the world, as JSON.

    python3 tools/scale.py --out BENCH_<n>.json [--repeats 3] [--points NAME ...]

Run from the repository root; the package is imported from ``src/``. Each
point builds a scenario from a bundled one, changing only the vehicle count
or the duration (and, on ``city_market_*``, the event intervals and the
market script), and names its signature scheme. ``World.run()`` runs
``--repeats`` times per point, round-robin: one run of every point, then
the next round, so a slow spell of a shared machine spreads over all
points instead of landing on one. A point records the median wall time,
every run's wall time, the median of each phase, and the signature
verifies made in each phase, measured by wrapping ``World`` methods and
the scheme from outside:

- ``emit``: ``_emit_phase`` (sensing and signing each tick's reports
  while one ``edge.ingest`` verifies them);
- ``move``: ``_move_phase`` and ``_catch_up`` (advancing vehicles);
- ``boundary``: ``_window_boundary`` (window close, admission, storage);
- ``sweep``: ``sweep_invariants``;
- ``other``: the rest of ``run()``.

A point's ``setup_s`` is the median raw seconds of building its
``World`` (``World(cfg, scheme)``: keys, certificates, rule table and
vehicles), timed before each run and not part of its wall time.

Verifies are counted by a ``SignatureScheme`` that wraps the point's
scheme, in every timed run (about 2 % of the 600-vehicle keyed-hash run,
8 alternating runs each way); they are deterministic, so the first
run's counts are recorded. A method the tree lacks counts 0, so the tool
also measures older trees. Each point records the rule table's
``records`` after its first run, and ``groups``, the number of distinct
places (record locations) among them, counted from ``records`` so that
every tree reads it the same way. The
``city_market_*`` points are ``honest_majority`` scaled in duration with
every event active throughout and an access each window, so their
records grow with the duration; ``market_suite``'s events end early.
After each run of a point scaled in duration, one read-only
``RuleTable.query_availability`` over the whole grid and the whole
duration is timed ``AVAILABILITY_CALLS`` times, after one untimed call;
the point's ``availability_s`` is the median over its runs of each run's
median call, in raw seconds (None on the other points). The file also
holds the fitted log-log slope of wall time over vehicles for each
scheme, of wall time and ``availability_s`` over duration for the
``market_suite_*`` points (``slope_over_duration``,
``availability_slope_over_duration``), and of each of
``CITY_MARKET_METRICS`` over duration for the ``city_market_*`` points
(``city_market_slopes_over_duration``), each slope None with fewer than
two points, the Python version and the probe time of
``perfbench/speed.py`` (seconds for a fixed pure-Python loop), so files
from different machines can be compared. Times are raw ``perf_counter``
seconds, except ``scaled_runs_s`` and their median ``scaled_run_s``. A
run is stepped as ``perfbench/run.py`` steps it: each ``World.step()`` and
then the rest of ``World.run()`` is timed, and a ``perfbench/speed.py``
``SpeedMeter`` scales each of those intervals by the probes taken around
it, one every ``SEGMENT_S`` of run time, so a speed change during a run is
seen. Probe time is not part of a run's wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from dmap import sim  # noqa: E402
from dmap.crypto import SCHEMES, SignatureScheme  # noqa: E402
from dmap.txmodel import METERS_PER_DEGREE, GeoPoint  # noqa: E402
from speed import SpeedMeter, _probe  # noqa: E402

PHASES = {  # phase -> the World methods whose time it sums
    "emit": ("_emit_phase",),
    "move": ("_move_phase", "_catch_up"),
    "boundary": ("_window_boundary",),
    "sweep": ("sweep_invariants",),
}


def _scenario(name: str) -> dict:
    with open(ROOT / "scenarios" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _vehicles(n: int) -> dict:
    d = _scenario("honest_majority")
    d["vehicles"]["count"] = n
    return d


def _duration(times: int) -> dict:
    d = _scenario("market_suite")
    d["duration_ms"] *= times
    return d


def _city_market(times: int) -> dict:
    """`honest_majority` over `times` of its duration, every event active
    for the whole run, one contract over everything and an access citing
    it at each window after the first, so records grow with duration."""
    d = _scenario("honest_majority")
    duration, window = d["duration_ms"] * times, d["window_ms"]
    d["duration_ms"] = duration
    for event in d["ground_truth_events"]:
        event["active_ms"] = [0, duration]
    d["market_script"] = [
        {"time_ms": window, "action": "create_contract", "owner_vehicle": 0,
         "grantee_sp": "sp1", "timespan": [window, duration + window],
         "scope": {}},
        *({"time_ms": t, "action": "access", "requester_sp": "sp1",
           "grant": {"contract_index": 0}, "query": {"period": [0, t]}}
          for t in range(2 * window, duration, window))]
    return d


POINTS = {  # name -> (scenario maker, vehicle count or None, scheme)
    "honest_majority_60": (lambda: _vehicles(60), 60, "keyed-hash"),
    "honest_majority_600": (lambda: _vehicles(600), 600, "keyed-hash"),
    "honest_majority_2000": (lambda: _vehicles(2000), 2000, "keyed-hash"),
    "honest_majority_6000": (lambda: _vehicles(6000), 6000, "keyed-hash"),
    "honest_majority_60_ed25519": (lambda: _vehicles(60), 60, "ed25519"),
    "honest_majority_600_ed25519": (lambda: _vehicles(600), 600, "ed25519"),
    "market_suite_1x": (lambda: _duration(1), None, "keyed-hash"),
    "market_suite_10x": (lambda: _duration(10), None, "keyed-hash"),
    "market_suite_30x": (lambda: _duration(30), None, "keyed-hash"),
    "city_market_1x": (lambda: _city_market(1), None, "keyed-hash"),
    "city_market_5x": (lambda: _city_market(5), None, "keyed-hash"),
    "city_market_20x": (lambda: _city_market(20), None, "keyed-hash"),
}
# the city_market slopes over duration, one per point field
CITY_MARKET_METRICS = ("run_s", "availability_s", "records", "groups")
ALL_PHASES = (*PHASES, "other")
AVAILABILITY_CALLS = 101


class PhaseVerifies(SignatureScheme):
    """`inner`, counting its verify calls by the phase that makes them."""

    def __init__(self, inner: SignatureScheme) -> None:
        self.inner = inner
        self.name = inner.name
        self.phase = "other"
        self.verifies = dict.fromkeys(ALL_PHASES, 0)

    def generate_keypair(self, seed):
        return self.inner.generate_keypair(seed)

    def sign(self, key, message):
        return self.inner.sign(key, message)

    def verify(self, public, message, signature):
        self.verifies[self.phase] += 1
        return self.inner.verify(public, message, signature)

    def verify_many(self, triples):
        # `inner` splits a batch as it would unwrapped. A list is counted
        # up front and passed on as a list, which older trees' Ed25519
        # `verify_many` needs; any other iterable is counted as `inner`
        # pulls it, so a batch that streams in while its triples are made
        # (the emit batch) counts in the phase that makes them
        if isinstance(triples, list):
            self.verifies[self.phase] += len(triples)
            return self.inner.verify_many(triples)
        return self.inner.verify_many(map(self._counted, triples))

    def _counted(self, triple):
        self.verifies[self.phase] += 1
        return triple


@contextlib.contextmanager
def _phase_clock(totals: dict[str, float], scheme: PhaseVerifies):
    """Wrap each phase's World methods to add their wall time to `totals`
    and to attribute `scheme`'s verifies to the phase."""
    originals = {}

    def timed(phase: str, method):
        def wrapper(*args, **kwargs):
            outer, scheme.phase = scheme.phase, phase
            t0 = perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                totals[phase] += perf_counter() - t0
                scheme.phase = outer
        return wrapper

    for phase, names in PHASES.items():
        totals[phase] = 0.0
        for name in names:
            if hasattr(sim.World, name):
                originals[name] = getattr(sim.World, name)
                setattr(sim.World, name, timed(phase, originals[name]))
    try:
        yield
    finally:
        for name, method in originals.items():
            setattr(sim.World, name, method)


def time_availability(world: sim.World) -> float:
    """Median seconds of one availability query over the whole grid and
    the whole duration of the finished `world`."""
    cfg = world.config
    lo = GeoPoint(0, 0)
    hi = GeoPoint.from_degrees(cfg.rows * cfg.cell_size_m / METERS_PER_DEGREE,
                               cfg.cols * cfg.cell_size_m / METERS_PER_DEGREE)
    query = world.rule_table.query_availability
    query(lo, hi, 0, cfg.duration_ms)
    times = []
    for _ in range(AVAILABILITY_CALLS):
        t0 = perf_counter()
        query(lo, hi, 0, cfg.duration_ms)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_once(cfg: sim.ScenarioConfig, scheme_name: str,
             availability: bool = False) -> dict:
    """One timed `World.run()`, stepped: the time of building its world,
    wall time, the same scaled step by step, phase split and verify
    counts; then, with `availability`, the time of one availability query
    (neither is part of the wall time)."""
    scheme = PhaseVerifies(SCHEMES[scheme_name])
    t0 = perf_counter()
    world = sim.World(cfg, scheme)
    setup = perf_counter() - t0
    phases: dict[str, float] = {}
    meter, scaled = SpeedMeter(), []
    wall = 0.0

    def timed(call):
        nonlocal wall
        t0 = perf_counter()
        result = call()
        seconds = perf_counter() - t0
        wall += seconds
        meter.add(seconds, scaled)
        return result

    with _phase_clock(phases, scheme):
        while world.clock_ms < cfg.duration_ms:
            timed(world.step)
        metrics = timed(world.run)
    meter.flush()
    phases["other"] = wall - sum(phases.values())
    directories = world.rule_table.directories.values()
    return {"setup": setup, "wall": wall, "scaled": math.fsum(scaled),
            "phases": phases, "verifies": scheme.verifies,
            "reports": metrics["global"]["reports_sent"],
            "records": sum(len(d.records) for d in directories),
            "groups": len({(r.payload.loc.lat_micro, r.payload.loc.lon_micro)
                           for d in directories for r in d.records}),
            "availability": time_availability(world) if availability else None}


def summarise(name: str, cfg: sim.ScenarioConfig, runs: list[dict]) -> dict:
    """One point's entry: medians over its runs, the first run's counts."""
    return {
        "name": name,
        "scheme": POINTS[name][2],
        "vehicles": cfg.vehicle_count,
        "duration_ms": cfg.duration_ms,
        "reports": runs[0]["reports"],
        "records": runs[0]["records"],
        "groups": runs[0]["groups"],
        "setup_s": statistics.median(r["setup"] for r in runs),
        "run_s": statistics.median(r["wall"] for r in runs),
        "runs_s": [r["wall"] for r in runs],
        "scaled_runs_s": [r["scaled"] for r in runs],
        "scaled_run_s": statistics.median(r["scaled"] for r in runs),
        "phases_s": {phase: statistics.median(r["phases"][phase] for r in runs)
                     for phase in ALL_PHASES},
        "verifies": runs[0]["verifies"],
        "availability_s": (None if runs[0]["availability"] is None else
                           statistics.median(r["availability"] for r in runs)),
    }


def measure(names: list[str], repeats: int) -> list[dict]:
    """Time every point `repeats` times, one round of all points at a time."""
    configs = {name: sim.ScenarioConfig.from_dict(POINTS[name][0]())
               for name in names}
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            runs[name].append(run_once(configs[name], POINTS[name][2],
                                       availability=POINTS[name][1] is None))
    return [summarise(name, configs[name], runs[name]) for name in names]


def slope(points: list[dict], axis: str, metric: str = "run_s") -> float | None:
    """Least-squares slope of log(p[metric]) over log(p[axis]); None with
    fewer than two points."""
    xy = [(math.log(p[axis]), math.log(p[metric])) for p in points]
    if len(xy) < 2:
        return None
    mx = statistics.fmean(x for x, _ in xy)
    my = statistics.fmean(y for _, y in xy)
    return (sum((x - mx) * (y - my) for x, y in xy)
            / sum((x - mx) ** 2 for x, _ in xy))


def report(names: list[str], repeats: int) -> dict:
    points = measure(names, repeats)
    by_scheme: dict[str, list[dict]] = {}
    for p in points:
        if POINTS[p["name"]][1] is not None:
            by_scheme.setdefault(p["scheme"], []).append(p)
    market, city = ([p for p in points if p["name"].startswith(family)]
                    for family in ("market_suite_", "city_market_"))
    return {
        "python": platform.python_version(),
        "probe_s": _probe(),
        "repeats": repeats,
        "slope_over_vehicles": {scheme: slope(ps, "vehicles")
                                for scheme, ps in by_scheme.items()},
        "slope_over_duration": slope(market, "duration_ms"),
        "availability_slope_over_duration": slope(
            market, "duration_ms", "availability_s"),
        "city_market_slopes_over_duration": {
            metric: slope(city, "duration_ms", metric)
            for metric in CITY_MARKET_METRICS},
        "points": points,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--points", nargs="+", choices=sorted(POINTS),
                    default=list(POINTS))
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    result = report(args.points, args.repeats)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for p in result["points"]:
        split = " ".join(f"{k}={v:.3f}" for k, v in p["phases_s"].items())
        print(f"{p['name']:<28} setup_ms={p['setup_s'] * 1e3:.2f} "
              f"run_s={p['run_s']:.3f} "
              f"scaled_run_s={p['scaled_run_s']:.3f}  {split}  "
              f"boundary_verifies={p['verifies']['boundary']}"
              + (f"  availability_us={p['availability_s'] * 1e6:.1f}"
                 if p["availability_s"] is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
