"""dmap benchmark: one seeded workload per process, through the public API.

    python3 perfbench/run.py --workload dense_city --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. Each
repetition ("rep") generates the workload from the seed, builds the
``World``, steps it to the scenario duration, calls ``World.run()`` (final
flush, invariant sweep, metrics), then runs the closed-loop service-
provider (SP) phase: one client issuing the workload's SP requests against
the finished world. Reps repeat until ``--seconds`` have passed and the
percentiles have enough samples.

Times are measured with ``perf_counter`` and scaled by the speed meter in
speed.py, which corrects for the host's speed drifting during a run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced reps and reports the per-layer metrics from the traced
ones; spans of the last traced rep go to ``.bench_out/``.

Every rep is checked: it fails if it raises (an ``InvariantViolation``
included), if ``unauthorized_served`` is not 0, or if its behaviour digest
differs from the reference (reference.json for the default seed, else the
first rep). An SP request fails if its grant/deny outcome, served record
set or availability answer differs from an independent recount. The last
stdout line is the JSON result; the lines before it are the report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import SpeedMeter
from stats import percentile, window_shape

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUPS_PER_REP = 3       # set-up-only samples before each timed rep
MIN_BOUNDARIES = 100     # window_p90_ms needs 10 samples beyond it
MIN_SP_REQUESTS = 1000   # access_p99_ms needs 10 samples beyond it
DEADLINE_S = 150.0       # start no rep after this, whatever the samples

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("run_s", "s"), ("reports_per_s", "1/s"),
    ("window_p50_ms", "ms"), ("window_p90_ms", "ms"),
    ("access_p50_ms", "ms"), ("access_p99_ms", "ms"),
    ("availability_p50_ms", "ms"), ("serve_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "dmap" / "__init__.py").is_file():
        die(f"no dmap package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))


@dataclass
class Rep:
    """One rep's intervals, in scaled seconds (see speed.py)."""

    setup_s: list[float] = field(default_factory=list)
    run_parts: list[float] = field(default_factory=list)  # steps + run() tail
    boundary_s: list[float] = field(default_factory=list)
    access_s: list[float] = field(default_factory=list)
    availability_s: list[float] = field(default_factory=list)
    sp_parts: list[float] = field(default_factory=list)   # client + server
    sp_requests: int = 0
    sp_failed: int = 0
    digest: str = ""
    unauthorized: int = 0
    inputs: dict = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return sum(self.run_parts)

    @property
    def sp_s(self) -> float:
        return sum(self.sp_parts)


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        from dmap import crypto, sim
        from workloads import WORKLOADS

        self.crypto, self.sim = crypto, sim
        self.make = WORKLOADS[workload]
        self.seed = seed
        self.meter = SpeedMeter()

    def setup(self, tracer=None):
        """Generate the inputs and build the World; returns raw seconds too."""
        t0 = perf_counter()
        wl = self.make(self.seed)
        cfg = self.sim.ScenarioConfig.from_dict(wl.scenario)
        scheme = self.crypto.SCHEMES[wl.scheme]
        if tracer is not None:
            scheme = tracer.scheme(scheme)
        world = self.sim.World(cfg, scheme)
        return wl, world, perf_counter() - t0

    def rep(self, tracer=None) -> Rep:
        phase = (tracer.phase if tracer is not None
                 else lambda name, trace_id: contextlib.nullcontext())
        meter = self.meter
        rep = Rep()
        with phase("bench.setup", "setup"):
            wl, world, seconds = self.setup(tracer)
            meter.add(seconds, rep.setup_s)
            meter.flush()
        window_ms = world.config.window_ms
        with phase("bench.run", "run"):
            while world.clock_ms < world.config.duration_ms:
                t0 = perf_counter()
                world.step()
                seconds = perf_counter() - t0
                if world.clock_ms % window_ms == 0:
                    meter.add(seconds, rep.run_parts, rep.boundary_s)
                else:
                    meter.add(seconds, rep.run_parts)
            if tracer is not None:
                tracer.trace_id = "tail"
            t0 = perf_counter()
            metrics = world.run()
            meter.add(perf_counter() - t0, rep.run_parts)
            meter.flush()
        rep.unauthorized = metrics["global"]["unauthorized_served"]
        with phase("bench.sp", "sp"):
            outcomes = self.serve(world, wl, rep, tracer)
        rep.digest = behaviour_digest(world, outcomes)
        rep.inputs = input_properties(world, metrics, wl)
        return rep

    def serve(self, world, wl, rep: Rep, tracer) -> list[str]:
        """Closed loop, one client: each request waits for the previous."""
        from dmap.market import build_access_tx, create_contract
        from dmap.txmodel import (GRANT_CONTRACT_REF, METERS_PER_DEGREE,
                                  GeoPoint, Grant, Scope)
        from workloads import EXPECT_GRANTED, KIND_CODES

        meter = self.meter
        rt = world.rule_table
        now = world.clock_ms
        t0 = perf_counter()
        sp = world.sp_key("perfbench-sp")
        scope = Scope(region_ids=tuple(sorted(world.ledgers)), from_ms=0,
                      to_ms=world.config.duration_ms, kind_codes=KIND_CODES)
        contract = create_contract(world.scheme, world.vehicles[0].grant_key,
                                   sp.public, (0, now + 1), scope, 0)
        rt.chain_contract(contract, now)
        grant = Grant(kind=GRANT_CONTRACT_REF, contract_id=contract.contract_id())
        meter.add(perf_counter() - t0, rep.sp_parts)
        unknown = Grant(kind=GRANT_CONTRACT_REF,
                        contract_id=self.crypto.sha256(b"perfbench/unknown"))
        # records do not change during the SP phase; this flat copy is the
        # independent recount every answer is checked against
        records = [(r.record_id, r.region_id, r.payload.timestamp,
                    r.payload.event.code, r.payload.loc.lat_micro,
                    r.payload.loc.lon_micro, r.size_bytes)
                   for d in rt.directories.values() for r in d.records]
        outcomes = []
        for i, req in enumerate(wl.requests):
            if tracer is not None:
                tracer.trace_id = f"sp{i}"
            if req.kind == "availability":
                t0 = perf_counter()
                x0, y0, x1, y1 = req.area_m
                lo = GeoPoint.from_degrees(y0 / METERS_PER_DEGREE, x0 / METERS_PER_DEGREE)
                hi = GeoPoint.from_degrees(y1 / METERS_PER_DEGREE, x1 / METERS_PER_DEGREE)
                t1 = perf_counter()
                got = rt.query_availability(lo, hi, *req.period)
                t2 = perf_counter()
                meter.add(t1 - t0, rep.sp_parts)
                meter.add(t2 - t1, rep.sp_parts, rep.availability_s)
                hits = [r for r in records
                        if lo.lat_micro <= r[4] <= hi.lat_micro
                        and lo.lon_micro <= r[5] <= hi.lon_micro
                        and req.period[0] <= r[2] < req.period[1]]
                ok = tuple(got) == (len(hits), sum(r[6] for r in hits))
            else:
                t0 = perf_counter()
                query = Scope(region_ids=req.regions, from_ms=req.period[0],
                              to_ms=req.period[1], kind_codes=req.kinds)
                tx = build_access_tx(world.scheme, sp, query,
                                     unknown if req.unknown_contract else grant)
                t1 = perf_counter()
                result = rt.evaluate_access(tx, now)
                t2 = perf_counter()
                meter.add(t1 - t0, rep.sp_parts)
                meter.add(t2 - t1, rep.sp_parts, rep.access_s)
                outcome = EXPECT_GRANTED if result.granted else result.reason
                outcomes.append(outcome)
                ok = outcome == req.expect
                if ok and result.granted:
                    want = sorted(r[0] for r in records
                                  if r[1] in req.regions and r[3] in req.kinds
                                  and req.period[0] <= r[2] < req.period[1])
                    ok = sorted(r.record_id for r in result.records) == want
            rep.sp_requests += 1
            rep.sp_failed += not ok
        meter.flush()
        return outcomes


def behaviour_digest(world, outcomes: list[str]) -> str:
    """SHA-256 over the sorted region -> tip hash map and the SP outcomes."""
    import hashlib

    h = hashlib.sha256()
    for region in sorted(world.ledgers):
        h.update(region.encode() + b"\0" + world.ledgers[region].tip.block_hash)
    h.update("\n".join(outcomes).encode())
    return h.hexdigest()


def input_properties(world, metrics: dict, wl) -> dict:
    """What the workload fed the program, so a later change can show it is unchanged."""
    per_window: dict[tuple, list] = {}
    for d in getattr(world, "delivery_log", None) or ():
        per_window.setdefault((d.window_id, d.region), []).append(d.tx)
    ratio, peak = window_shape([
        (len(txs), len({(t.loc, t.event, t.timestamp) for t in txs}))
        for txs in per_window.values()])
    mix: dict[str, int] = {}
    for req in wl.requests:
        key = req.kind if req.kind == "availability" else f"access:{req.expect}"
        mix[key] = mix.get(key, 0) + 1
    return {
        "reports_sent": metrics["global"]["reports_sent"],
        "distinct_payload_ratio": round(ratio, 4),
        "reports_per_window_max": peak,
        "blocks": sum(len(led.blocks) for led in world.ledgers.values()),
        "txs": sum(len(led.all_txs()) for led in world.ledgers.values()),
        "records": sum(len(d.records) for d in world.rule_table.directories.values()),
        "sp_mix": dict(sorted(mix.items())),
    }


class Runner:
    """Runs reps, checks each, and accounts attempted and failed operations."""

    def __init__(self, bench: Bench, reference: str | None) -> None:
        self.bench = bench
        self.reference = reference
        self.reps: list[Rep] = []
        self.attempted = 0
        self.failed = 0

    def run_rep(self, tracer=None) -> Rep | None:
        self.attempted += 1
        try:
            rep = self.bench.rep(tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if self.reference is None:
            self.reference = rep.digest
        self.attempted += rep.sp_requests
        self.failed += rep.sp_failed
        problems = []
        if rep.unauthorized:
            problems.append(f"unauthorized_served={rep.unauthorized}")
        if rep.digest != self.reference:
            problems.append(f"digest {rep.digest} != reference {self.reference}")
        if problems:
            print("perfbench: rep failed: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
        return rep


def end_to_end(runner: Runner, setups: list[float]) -> tuple[dict, dict]:
    reps = runner.reps
    run_s = [r.run_s for r in reps]
    boundary = [x * 1e3 for r in reps for x in r.boundary_s]
    access = [x * 1e3 for r in reps for x in r.access_s]
    avail = [x * 1e3 for r in reps for x in r.availability_s]
    reports = reps[0].inputs["reports_sent"]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "run_s": (statistics.median(run_s), len(run_s)),
        "reports_per_s": (statistics.median(reports / s for s in run_s), len(run_s)),
        "window_p50_ms": (percentile(boundary, 50), len(boundary)),
        "window_p90_ms": (percentile(boundary, 90), len(boundary)),
        "access_p50_ms": (percentile(access, 50), len(access)),
        "access_p99_ms": (percentile(access, 99), len(access)),
        "availability_p50_ms": (percentile(avail, 50), len(avail)),
        "serve_per_s": (statistics.median(r.sp_requests / r.sp_s for r in reps), len(reps)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, (v, _) in values.items()}
    counts = {k: n for k, (_, n) in values.items()}
    return metrics, counts


def enough_samples(reps: list[Rep]) -> bool:
    return (sum(len(r.boundary_s) for r in reps) >= MIN_BOUNDARIES
            and sum(len(r.access_s) for r in reps) >= MIN_SP_REQUESTS)


def measure(runner: Runner, seconds: float, t_process: float) -> list[float]:
    bench = runner.bench
    setups: list[float] = []
    start = perf_counter()
    while perf_counter() - t_process < DEADLINE_S:
        # extra set-ups before each rep spread the samples over the run
        for _ in range(SETUPS_PER_REP):
            bench.meter.add(bench.setup()[2], setups)
            bench.meter.flush()
        rep = runner.run_rep()
        if rep is not None:
            runner.reps.append(rep)
            setups.extend(rep.setup_s)
        if perf_counter() - start >= seconds and (
                enough_samples(runner.reps) or not runner.reps):
            break
    return setups


def measure_traced(runner: Runner, seconds: float, t_process: float):
    """Alternate untraced and traced reps; per-layer values per traced rep."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    traced: list[dict] = []
    overhead: list[float] = []
    start = perf_counter()
    while perf_counter() - t_process < DEADLINE_S:
        plain = runner.run_rep()
        tracer.reset()
        tracer.install()
        try:
            rep = runner.run_rep(tracer)
        finally:
            tracer.uninstall()
        if plain is not None and rep is not None:
            runner.reps.append(rep)
            traced.append(layers.per_layer(tracer, rep))
            overhead.append(rep.run_s / plain.run_s)
        if perf_counter() - start >= seconds:
            break
    return tracer, traced, overhead


def main(argv: list[str] | None = None) -> int:
    t_process = perf_counter()
    ref_file = json.loads((BENCH_DIR / "reference.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=ref_file["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        die("--seed must be non-negative")
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    reference = (ref_file["digests"].get(args.workload)
                 if args.seed == ref_file["default_seed"] else None)
    runner = Runner(Bench(args.workload, args.seed), reference)

    if args.trace:
        import layers

        tracer, traced, overhead = measure_traced(runner, args.seconds, t_process)
        metrics = layers.summarize(traced, overhead, tracer)
        report_traced(args, runner, metrics, tracer)
    else:
        setups = measure(runner, args.seconds, t_process)
        metrics, counts = end_to_end(runner, setups) if runner.reps else ({}, {})
        report_end_to_end(args, runner, metrics, counts)
    print(json.dumps({"correct": runner.failed == 0 and bool(runner.reps),
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


def report_header(args, runner: Runner) -> None:
    reps = runner.reps
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reps {len(reps)}")
    if reps:
        print(f"  inputs {json.dumps(reps[0].inputs, sort_keys=True)}")
        print(f"  per rep: boundaries {len(reps[0].boundary_s)}  sp requests "
              f"{reps[0].sp_requests}")
        print(f"  digest {reps[0].digest}  reference {runner.reference}")
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"  error_ratio {ratio:.6g} ({runner.failed}/{runner.attempted} "
          "operations: runs + SP requests)")


def report_end_to_end(args, runner: Runner, metrics: dict, counts: dict) -> None:
    report_header(args, runner)
    for name, m in metrics.items():
        print(f"  {name:<22}{m['value']:>14.6g} {m['unit']:<4} n={counts[name]}")


def report_traced(args, runner: Runner, metrics: dict, tracer) -> None:
    import layers

    report_header(args, runner)
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<34}{value:>14} {m['unit']}")
    for layer, share in layers.shares(tracer).items():
        print(f"  share {layer:<10}{share:7.1%} of traced self time")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    with path.open("w") as f:
        for span in tracer.spans:
            if span is not None:
                f.write(json.dumps(span) + "\n")
    print(f"  spans of the last traced rep: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
