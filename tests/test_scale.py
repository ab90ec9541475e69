"""Smoke test of tools/scale.py: the smallest points, and the file's schema."""

import importlib.util
import json
import subprocess
import sys

import pytest

from dmap.crypto import SignatureScheme
from tests.conftest import REPO_ROOT


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_point_writes_the_schema(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(REPO_ROOT / "tools" / "scale.py"),
                    "--out", str(out), "--repeats", "1",
                    "--points", "honest_majority_60", "market_suite_1x",
                    "city_market_1x"],
                   check=True, capture_output=True, timeout=120)
    result = json.loads(out.read_text())
    assert set(result) == {"python", "probe_s", "repeats",
                           "slope_over_vehicles", "slope_over_duration",
                           "availability_slope_over_duration",
                           "city_market_slopes_over_duration", "points"}
    assert result["probe_s"] > 0 and result["repeats"] == 1
    # one vehicle count per scheme, and one market_suite point
    assert result["slope_over_vehicles"] == {"keyed-hash": None}
    assert result["slope_over_duration"] is None
    assert result["availability_slope_over_duration"] is None
    assert result["city_market_slopes_over_duration"] == {
        "run_s": None, "availability_s": None, "records": None, "groups": None}
    point, market, city = result["points"]
    # only a point scaled by duration times an availability query
    assert point["availability_s"] is None
    assert market["name"] == "market_suite_1x"
    assert 0 < market["availability_s"] < market["run_s"]
    # a city_market point stores records in groups and times a query too
    assert city["name"] == "city_market_1x"
    assert 0 < city["availability_s"] < city["run_s"]
    assert all(0 < p["groups"] <= p["records"] for p in (point, market, city))
    assert all(set(p) == {"name", "scheme", "vehicles", "duration_ms",
                          "reports", "records", "groups", "setup_s", "run_s",
                          "runs_s", "scaled_runs_s", "scaled_run_s",
                          "phases_s", "verifies", "availability_s"}
               for p in (point, market, city))
    assert point["name"] == "honest_majority_60" and point["vehicles"] == 60
    assert point["scheme"] == "keyed-hash"
    assert point["reports"] > 0 and len(point["runs_s"]) == 1
    assert point["run_s"] == point["runs_s"][0] > 0
    assert point["scaled_run_s"] == point["scaled_runs_s"][0] > 0
    phases = {"emit", "move", "boundary", "sweep", "other"}
    assert set(point["phases_s"]) == phases
    assert all(point["phases_s"][p] > 0 for p in ("emit", "move", "boundary", "sweep"))
    assert abs(sum(point["phases_s"].values()) - point["run_s"]) < 1e-9
    # building the world is timed apart from the run
    assert 0 < point["setup_s"] < point["run_s"]
    # ingest verifies every report; the boundary admits and the sweep
    # re-verifies what was chained
    assert set(point["verifies"]) == phases
    assert point["verifies"]["emit"] >= point["reports"]
    assert point["verifies"]["boundary"] > 0 and point["verifies"]["sweep"] > 0


def test_each_step_is_scaled_by_the_probes_around_it(monkeypatch):
    # with every probe at half the nominal time, each step of the run
    # reads twice its raw time
    monkeypatch.setattr(sys, "path", list(sys.path))
    speed = _load("speed", REPO_ROOT / "perfbench" / "speed.py")
    monkeypatch.setitem(sys.modules, "speed", speed)
    scale = _load("scale_tool", REPO_ROOT / "tools" / "scale.py")
    probes = []

    def probe():
        probes.append(speed.NOMINAL_PROBE_S / 2)
        return probes[-1]

    monkeypatch.setattr(speed, "_probe", probe)
    make_scenario = scale.POINTS["honest_majority_60"][0]
    run = scale.run_once(scale.sim.ScenarioConfig.from_dict(make_scenario()),
                         "keyed-hash")
    assert len(probes) >= 2
    assert run["scaled"] == pytest.approx(2 * run["wall"])


def test_a_streamed_batch_counts_in_the_phase_that_pulls_it(monkeypatch):
    # the emit batch streams in while vehicles sign it, so each triple
    # counts in the phase current when the scheme pulls it; a list is
    # passed on as a list
    monkeypatch.setattr(sys, "path", list(sys.path))
    scale = _load("scale_tool", REPO_ROOT / "tools" / "scale.py")
    passed = []

    class Inner(SignatureScheme):
        def verify(self, public, message, signature):
            return True

        def verify_many(self, triples):
            passed.append(type(triples))
            return super().verify_many(triples)

    counting = scale.PhaseVerifies(Inner())
    triple = (b"key", b"message", b"signature")

    def stream():
        counting.phase = "emit"  # set once the scheme starts pulling
        yield triple
        yield triple

    assert counting.verify_many(stream()) == [True, True]
    counting.phase = "sweep"
    assert counting.verify_many([triple] * 3) == [True] * 3
    assert counting.verifies == {"emit": 2, "move": 0, "boundary": 0,
                                 "sweep": 3, "other": 0}
    assert passed[1] is list


def test_slope_over_duration_fits_the_market_suite_points(monkeypatch):
    # run_s grows as the square root of the duration on the market_suite
    # points and linearly on the city_market ones, availability_s as its
    # tenth root; the vehicle points do not enter the duration slopes
    monkeypatch.setattr(sys, "path", list(sys.path))
    scale = _load("scale_tool", REPO_ROOT / "tools" / "scale.py")
    times = {"honest_majority_60": 1, "market_suite_1x": 1,
             "market_suite_10x": 10, "market_suite_30x": 30,
             "city_market_1x": 1, "city_market_20x": 20}
    names = list(times)

    def measure(names, repeats):
        return [{"name": name, "scheme": "keyed-hash", "vehicles": 60,
                 "duration_ms": 1000 * times[name],
                 "run_s": 0.01 * times[name] ** (
                     1.0 if name.startswith("city") else 0.5),
                 "availability_s": 1e-5 * times[name] ** 0.1,
                 "records": 100 * times[name], "groups": 10}
                for name in names]

    monkeypatch.setattr(scale, "measure", measure)
    monkeypatch.setattr(scale, "_probe", lambda: 1.0)
    result = scale.report(names, 1)
    assert result["slope_over_duration"] == pytest.approx(0.5)
    assert result["availability_slope_over_duration"] == pytest.approx(0.1)
    assert result["city_market_slopes_over_duration"] == pytest.approx(
        {"run_s": 1.0, "availability_s": 0.1, "records": 1.0, "groups": 0.0})
    result = scale.report(names[:2], 1)
    assert result["slope_over_duration"] is None
    assert result["availability_slope_over_duration"] is None


def test_every_traced_name_resolves(monkeypatch):
    # a traced name that no longer resolves turns its per-layer metrics
    # into null, so a rename must update perfbench/tracer.py with it
    spec = importlib.util.spec_from_file_location(
        "tracer", REPO_ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # for its dataclasses
    spec.loader.exec_module(tracer)
    recorder = tracer.Tracer()
    try:
        recorder.install()
    finally:
        recorder.uninstall()
    assert recorder.absent == []
