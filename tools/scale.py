"""Scale points of `World.run()`: wall time and phase split, as JSON.

    python3 tools/scale.py --out BENCH_<n>.json [--repeats 3] [--points NAME ...]

Run from the repository root; the package is imported from ``src/``. Each
point builds a scenario from a bundled one, changing only the vehicle count
or the duration, and times ``World.run()`` ``--repeats`` times under the
keyed-hash scheme. A point records the median wall time, every run's wall
time, and the median of each phase, measured by wrapping ``World`` methods
from outside:

- ``emit``: ``_emit_phase`` (sensing, signing and ``ingest`` of reports);
- ``move``: ``_move_phase`` and ``_catch_up`` (advancing vehicles);
- ``boundary``: ``_window_boundary`` (window close, admission, storage);
- ``sweep``: ``sweep_invariants``;
- ``other``: the rest of ``run()``.

A method the tree lacks counts 0, so the tool also measures older trees.
The file also holds the fitted log-log slope of wall time over vehicles,
the Python version and the probe time of ``perfbench/speed.py`` (seconds
for a fixed pure-Python loop), so files from different machines can be
compared. Times are raw ``perf_counter`` seconds, not scaled.
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
from speed import _probe  # noqa: E402

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


POINTS = {  # name -> (scenario maker, vehicle count or None)
    "honest_majority_60": (lambda: _vehicles(60), 60),
    "honest_majority_600": (lambda: _vehicles(600), 600),
    "honest_majority_2000": (lambda: _vehicles(2000), 2000),
    "market_suite_1x": (lambda: _duration(1), None),
    "market_suite_10x": (lambda: _duration(10), None),
}


@contextlib.contextmanager
def _phase_clock(totals: dict[str, float]):
    """Wrap each phase's World methods to add their wall time to `totals`."""
    originals = {}

    def timed(phase: str, method):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                totals[phase] += perf_counter() - t0
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


def measure(name: str, repeats: int) -> dict:
    """Time `World.run()` of one point `repeats` times."""
    make, _ = POINTS[name]
    cfg = sim.ScenarioConfig.from_dict(make())
    runs = []
    for _ in range(repeats):
        world = sim.World(cfg)
        phases: dict[str, float] = {}
        with _phase_clock(phases):
            t0 = perf_counter()
            metrics = world.run()
            wall = perf_counter() - t0
        phases["other"] = wall - sum(phases.values())
        runs.append((wall, phases, metrics["global"]["reports_sent"]))
    return {
        "name": name,
        "vehicles": cfg.vehicle_count,
        "duration_ms": cfg.duration_ms,
        "reports": runs[0][2],
        "run_s": statistics.median(wall for wall, _, _ in runs),
        "runs_s": [wall for wall, _, _ in runs],
        "phases_s": {phase: statistics.median(p[phase] for _, p, _ in runs)
                     for phase in (*PHASES, "other")},
    }


def slope(points: list[dict]) -> float | None:
    """Least-squares slope of log(run_s) over log(vehicles), over the
    vehicle-count points; None with fewer than two."""
    xy = [(math.log(p["vehicles"]), math.log(p["run_s"]))
          for p in points if POINTS[p["name"]][1] is not None]
    if len(xy) < 2:
        return None
    mx = statistics.fmean(x for x, _ in xy)
    my = statistics.fmean(y for _, y in xy)
    return (sum((x - mx) * (y - my) for x, y in xy)
            / sum((x - mx) ** 2 for x, _ in xy))


def report(names: list[str], repeats: int) -> dict:
    points = [measure(name, repeats) for name in names]
    return {
        "python": platform.python_version(),
        "probe_s": _probe(),
        "scheme": "keyed-hash",
        "repeats": repeats,
        "slope_over_vehicles": slope(points),
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
        print(f"{p['name']:<22} run_s={p['run_s']:.3f}  {split}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
