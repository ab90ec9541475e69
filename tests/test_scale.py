"""Smoke test of tools/scale.py: the smallest point, and the file's schema."""

import importlib.util
import json
import subprocess
import sys

import pytest

from tests.conftest import REPO_ROOT


def _nominal_probe_s():
    spec = importlib.util.spec_from_file_location(
        "perfbench_speed", REPO_ROOT / "perfbench" / "speed.py")
    speed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(speed)
    return speed.NOMINAL_PROBE_S


def test_smallest_point_writes_the_schema(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(REPO_ROOT / "tools" / "scale.py"),
                    "--out", str(out), "--repeats", "1",
                    "--points", "honest_majority_60"],
                   check=True, capture_output=True, timeout=120)
    result = json.loads(out.read_text())
    assert set(result) == {"python", "probe_s", "repeats",
                           "slope_over_vehicles", "points"}
    assert result["probe_s"] > 0 and result["repeats"] == 1
    # one vehicle count per scheme
    assert result["slope_over_vehicles"] == {"keyed-hash": None}
    (point,) = result["points"]
    assert point["name"] == "honest_majority_60" and point["vehicles"] == 60
    assert point["scheme"] == "keyed-hash"
    assert point["reports"] > 0 and len(point["runs_s"]) == 1
    assert point["run_s"] == point["runs_s"][0] > 0
    # the mean of the probes taken right before and right after the run
    # scales it to the nominal speed
    ((before, after),) = point["probes_s"]
    assert before > 0 and after > 0
    assert point["scaled_run_s"] == pytest.approx(
        point["run_s"] * _nominal_probe_s() / ((before + after) / 2))
    phases = {"emit", "move", "boundary", "sweep", "other"}
    assert set(point["phases_s"]) == phases
    assert all(point["phases_s"][p] > 0 for p in ("emit", "move", "boundary", "sweep"))
    assert abs(sum(point["phases_s"].values()) - point["run_s"]) < 1e-9
    # ingest verifies every report; the boundary admits and the sweep
    # re-verifies what was chained
    assert set(point["verifies"]) == phases
    assert point["verifies"]["emit"] >= point["reports"]
    assert point["verifies"]["boundary"] > 0 and point["verifies"]["sweep"] > 0
