import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmap import cli, encoding
from dmap.encoding import DecodeError
from dmap.crypto import KEYED_HASH, ZERO_DIGEST, issue_certificate
from dmap.ledger import (
    Block,
    Ledger,
    MinerPolicy,
    append_block,
    check_ledger,
    dump_ledger,
    genesis,
    load_ledger,
    validate_chain,
)
from dmap.txmodel import Payload, ROAD_DAMAGE, build_rsi_tx
from tests.conftest import FIXTURE_DIR, SCENARIO_DIR, SCENARIO_NAMES
from tests.test_txmodel import key, make_members, sample_loc

scheme = KEYED_HASH


@pytest.fixture
def tiny_scenario(tmp_path):
    doc = {
        "seed": 4,
        "grid": {"rows": 1, "cols": 2, "cell_size_m": 500.0},
        "vehicles": {"count": 5, "speed_min_mps": 5.0, "speed_max_mps": 10.0},
        "duration_ms": 10_000,
        "window_ms": 5000,
        "consistency": {"eps_distance_m": 50.0, "min_corroboration": 2},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def make_dump(tmp_path, tamper=False):
    ca, rsi_key = key("ca"), key("rsi")
    cert = issue_certificate(scheme, ca, rsi_key.public, "r0_c0")
    policy = MinerPolicy(m=2, ca_pk=ca.public,
                         cert_registry={rsi_key.public: cert})
    ledger = genesis("r0_c0")
    for b in range(5):
        payload = Payload(sample_loc(), ROAD_DAMAGE, b * 100)
        tx = build_rsi_tx(scheme, rsi_key, payload,
                          make_members(payload, [f"a{b}", f"b{b}"]), flag=1)
        append_block(scheme, ledger, [tx], (b + 1) * 1000, policy)
    if tamper:
        victim = ledger.blocks[3]
        ledger.blocks[3] = Block.make(height=3, prev_hash=victim.prev_hash,
                                      timestamp=victim.timestamp + 1,
                                      txs=victim.txs)
    path = tmp_path / ("tampered.bin" if tamper else "good.bin")
    path.write_bytes(dump_ledger(ledger))
    return path


class TestRun:
    def test_exit_zero_and_report_shape(self, tiny_scenario, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["run", "--scenario", str(tiny_scenario),
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"scenario", "metrics", "ledgers", "invariants"}
        for entry in report["ledgers"].values():
            assert entry["tip_hash"] == entry["tip_hash"].lower()
            assert len(entry["tip_hash"]) == 64

    def test_repeat_run_byte_identical(self, tiny_scenario, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cli.main(["run", "--scenario", str(tiny_scenario), "--out", str(out1)])
        cli.main(["run", "--scenario", str(tiny_scenario), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides_file(self, tiny_scenario, tmp_path):
        out = tmp_path / "r.json"
        cli.main(["run", "--scenario", str(tiny_scenario), "--seed", "77",
                  "--out", str(out)])
        assert json.loads(out.read_text())["scenario"]["seed"] == 77

    def test_env_seed_applies_when_flag_absent(self, tiny_scenario, tmp_path,
                                               monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv("DMAP_SEED", "31")
        cli.main(["run", "--scenario", str(tiny_scenario), "--out", str(out)])
        assert json.loads(out.read_text())["scenario"]["seed"] == 31

    def test_seed_flag_beats_env(self, tiny_scenario, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv("DMAP_SEED", "31")
        cli.main(["run", "--scenario", str(tiny_scenario), "--seed", "8",
                  "--out", str(out)])
        assert json.loads(out.read_text())["scenario"]["seed"] == 8

    def test_missing_scenario_exits_64(self, tmp_path):
        assert cli.main(["run", "--scenario",
                         str(tmp_path / "nope.json")]) == 64

    def test_malformed_json_exits_65(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", "--scenario", str(path)]) == 65

    @pytest.mark.parametrize("text", [b'{"seed": "\xff"}', b'{"seed": 1' + b"1" * 5000 + b"}"],
                             ids=["bad_utf8", "5001_digit_integer"])
    def test_undecodable_json_exits_65(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        assert cli.main(["run", "--scenario", str(path)]) == 65
        assert "not valid JSON" in capsys.readouterr().err

    def test_overlong_region_index_exits_65(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "market_suite.json").read_text())
        doc["market_script"][0]["scope"]["regions"] = ["r" + "1" * 5000 + "_c0"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(path)]) == 65
        err = capsys.readouterr().err
        assert "market_script[0].scope.regions: must name a grid region" in err

    def test_bad_field_exits_65_naming_field(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "honest_majority.json").read_text())
        doc["adversary"]["fraction"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(path)]) == 65
        assert "adversary.fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("section, field, value", [
        ("grid", "rows", "3"),
        ("vehicles", "count", 60.5),
        ("", "seed", 2**64),
        ("ground_truth_events", "active_ms", "x"),
        ("adversary", "strategy", 5),
        ("", "key_reuse_vehicles", "ab"),
        ("", "market_script", [{"time_ms": 0, "action": "bogus"}]),
        ("", "adversary", 5),
        ("market_script", "time_ms", "x"),
        ("grid", "cell_size_m", float("nan")),
        ("", "grid", 5),
        ("", "consistency", None),
        ("ground_truth_events", "loc", {"lat": "a", "lon": 0}),
        ("market_script", "owner_vehicle", "zero"),
        ("market_script", "owner_vehicle", 16),
        ("market_script", "owner_vehicle", -1),
        ("market_script", "grantee_sp", 5),
        ("market_script[1]", "grant", 5),
        ("market_script[1]", "query.period", "x"),
        ("market_script", "timespan", "ab"),
        ("market_script", "price", -1),
        ("market_script", "price", "x"),
        ("market_script[1]", "query.kinds", ["Nope"]),
        ("market_script[1]", "query.regions", 5),
        ("market_script[4]", "target_regions", []),
        ("market_script[4]", "period", [60_000, 0]),
        ("market_script[1]", "grant.contract_index", 9),
        ("market_script", "scope.regions", ["r0_c0", "r9_c9"]),
    ])
    def test_mistyped_field_exits_65_naming_field(self, tmp_path, capsys,
                                                  section, field, value):
        doc = json.loads((SCENARIO_DIR / "market_suite.json").read_text())
        name, _, index = section.partition("[")
        container = doc[name] if name else doc
        if isinstance(container, list):
            container = container[int(index.rstrip("]") or 0)]
        *parents, leaf = field.split(".")
        for key in parents:
            container = container[key]
        container[leaf] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(path)]) == 65
        # list items are named with their index: ground_truth_events[0].active_ms
        err = capsys.readouterr().err
        assert ".".join(filter(None, (section, field))) in err.replace("[0]", "")

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "3"]])
    def test_non_object_scenario_exits_65(self, tmp_path, capsys, seed_args):
        path = tmp_path / "list.json"
        path.write_text("[5]")
        assert cli.main(["run", "--scenario", str(path), *seed_args]) == 65
        assert "not a JSON object" in capsys.readouterr().err

    def test_unexpected_run_error_exits_70(self, tiny_scenario, capsys,
                                           monkeypatch):
        # every scenario field is checked before the run, so only a bug in
        # the program reaches this exit; stand one in
        def broken(world):
            raise KeyError("bug")

        monkeypatch.setattr(cli.sim.World, "run", broken)
        assert cli.main(["run", "--scenario", str(tiny_scenario)]) == 70
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_mutated_market_script_never_exits_70(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "market_suite.json").read_text())
        doc["vehicles"]["count"] = 4
        doc["duration_ms"] = 45_000
        paths = []

        def walk(node, path):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, child in items:
                paths.append(path + (key,))
                walk(child, path + (key,))

        walk(doc["market_script"], ("market_script",))
        delete = object()
        values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8) | st.sampled_from(["r0_c1", "RoadDamage"]),
            lambda inner: (st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=8), inner,
                                             max_size=3)),
            max_leaves=4)
        out = tmp_path / "r.json"

        @settings(max_examples=60, derandomize=True, deadline=None,
                  database=None)
        @given(path=st.sampled_from(paths), value=values | st.just(delete))
        def check(path, value):
            d = json.loads(json.dumps(doc))
            container = d
            for key in path[:-1]:
                container = container[key]
            if value is delete:
                del container[path[-1]]
            else:
                container[path[-1]] = value
            scenario = tmp_path / "mutated.json"
            scenario.write_text(json.dumps(d))
            assert cli.main(["run", "--scenario", str(scenario),
                             "--out", str(out)]) in (0, 2, 65)

        check()

    def test_any_positive_length_or_speed_never_exits_70(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "honest_majority.json").read_text())
        doc["vehicles"]["count"] = 6
        doc["duration_ms"] = 10_000
        out = tmp_path / "r.json"
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

        @settings(max_examples=100, derandomize=True, deadline=None,
                  database=None)
        @given(cell=positive, eps=positive, radius=positive,
               speeds=st.tuples(positive, positive).map(sorted))
        def check(cell, eps, radius, speeds):
            d = json.loads(json.dumps(doc))
            d["grid"]["cell_size_m"] = cell
            d["consistency"]["eps_distance_m"] = eps
            d["sensing_radius_m"] = radius
            d["vehicles"]["speed_min_mps"], d["vehicles"]["speed_max_mps"] = speeds
            scenario = tmp_path / "extreme.json"
            scenario.write_text(json.dumps(d))
            assert cli.main(["run", "--scenario", str(scenario),
                             "--out", str(out)]) in (0, 2, 65)
            assert "Traceback" not in capsys.readouterr().err

        check()

    def test_non_integer_env_seed_exits_65(self, tiny_scenario, monkeypatch,
                                           capsys):
        monkeypatch.setenv("DMAP_SEED", "abc")
        assert cli.main(["run", "--scenario", str(tiny_scenario)]) == 65
        assert "DMAP_SEED" in capsys.readouterr().err

    def test_non_integer_seed_flag_exits_65(self, tiny_scenario, capsys):
        # checked as DMAP_SEED is, not by argparse, whose code 2 would read
        # as an invariant violation
        assert cli.main(["run", "--scenario", str(tiny_scenario),
                         "--seed", "abc"]) == 65
        err = capsys.readouterr().err
        assert "invalid --seed 'abc'" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run"], ["frob"], [], ["run", "--scenario", "s.json", "--bogus"],
        ["validate"]], ids=["no_scenario", "unknown_subcommand", "no_subcommand",
                            "unknown_option", "no_ledger"])
    def test_usage_error_exits_64(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: dmap") and "error:" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--help"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    def test_unwritable_out_exits_73(self, tiny_scenario, tmp_path):
        out = tmp_path / "missing-dir" / "report.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--scenario", str(tiny_scenario),
                      "--out", str(out)])
        assert exc.value.code == 73


class TestValidate:
    def test_intact_dump_exits_0(self, tmp_path, capsys):
        path = make_dump(tmp_path)
        assert cli.main(["validate", "--ledger", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_tampered_dump_exits_1_with_height(self, tmp_path, capsys):
        path = make_dump(tmp_path, tamper=True)
        assert cli.main(["validate", "--ledger", str(path)]) == 1
        assert "first_bad_height=4" in capsys.readouterr().out

    @pytest.mark.parametrize("height", [3, 5])
    def test_flipped_signature_byte_exits_1_at_its_height(self, tmp_path,
                                                          capsys, height):
        # the dump stores every block hash, so a block whose bytes changed
        # fails at its own height, the tip (height 5) included
        path = make_dump(tmp_path)
        data = bytearray(path.read_bytes())
        sig = load_ledger(bytes(data)).blocks[height].txs[0].rsi_sign
        assert data.count(sig) == 1
        data[data.index(sig) + len(sig) - 1] ^= 0x01
        path.write_bytes(bytes(data))
        assert cli.main(["validate", "--ledger", str(path)]) == 1
        assert f"first_bad_height={height}" in capsys.readouterr().out

    def test_any_edit_of_a_dump_gives_a_status_or_decode_error(
            self, finished_worlds, tmp_path, capsys):
        world, _ = finished_worlds["market_suite"]
        data = dump_ledger(world.ledgers["r0_c0"])
        path = tmp_path / "fuzzed.bin"
        edits = st.lists(st.tuples(
            st.sampled_from(("mutate", "delete", "insert")),
            st.integers(0, len(data) - 1), st.integers(0, 255)),
            min_size=1, max_size=4)

        @settings(max_examples=200, derandomize=True, deadline=None,
                  database=None)
        @given(edits=edits)
        def check(edits):
            fuzzed = bytearray(data)
            for op, at, value in edits:
                at %= len(fuzzed) + 1
                if op == "mutate" and at < len(fuzzed):
                    fuzzed[at] = value
                elif op == "delete" and at < len(fuzzed):
                    del fuzzed[at]
                elif op == "insert":
                    fuzzed.insert(at, value)
            try:
                validate_chain(load_ledger(bytes(fuzzed)))
            except DecodeError:
                pass
            path.write_bytes(bytes(fuzzed))
            capsys.readouterr()
            assert cli.main(["validate", "--ledger", str(path)]) in (0, 1)
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err

        check()

    @pytest.mark.parametrize("fault", ["no_blocks", "txs", "timestamp"])
    def test_bad_genesis_exits_1_at_height_0(self, tmp_path, capsys, fault):
        # a ledger starts with an empty block 0 at time 0; a replaced one
        # hashes correctly, so only the genesis rule catches it
        txs = load_ledger(make_dump(tmp_path).read_bytes()).blocks[1].txs
        blocks = {"no_blocks": [],
                  "txs": [Block.make(0, ZERO_DIGEST, 0, txs)],
                  "timestamp": [Block.make(0, ZERO_DIGEST, 1, ())]}[fault]
        path = tmp_path / "genesis.bin"
        path.write_bytes(dump_ledger(Ledger("r0_c0", blocks)))
        capsys.readouterr()
        assert cli.main(["validate", "--ledger", str(path)]) == 1
        assert "first_bad_height=0" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_dumped_ledgers_pass_the_shared_check(self, finished_worlds,
                                                  tmp_path, scenario):
        # decoded txs carry the bytes they were read from as `wire`, and
        # give the same digests
        world, _ = finished_worlds[scenario]

        def check(name, ok, detail):
            assert ok, f"{name}: {detail}"

        for region, ledger in sorted(world.ledgers.items()):
            path = tmp_path / f"{region}.bin"
            path.write_bytes(dump_ledger(ledger))
            restored = load_ledger(path.read_bytes())
            assert (check_ledger(world.scheme, restored, world.policy, check)
                    == check_ledger(world.scheme, ledger, world.policy, check))
            assert cli.main(["validate", "--ledger", str(path)]) == 0

    def test_validating_a_dump_encodes_each_tx_once(self, finished_worlds,
                                                    monkeypatch):
        # the block hash reads each decoded tx's `wire`, the bytes it was
        # read from; the fresh-encoding check is the one encode
        world, _ = finished_worlds["market_suite"]
        restored = load_ledger(dump_ledger(world.ledgers["r0_c0"]))
        real = encoding.canonical_encode
        calls = []

        def counted(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(encoding, "canonical_encode", counted)
        assert validate_chain(restored).ok
        assert calls == restored.all_txs()
        assert len(calls) == 16

    def test_garbage_file_exits_1(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a ledger at all")
        assert cli.main(["validate", "--ledger", str(path)]) == 1

    def test_missing_file_exits_64(self, tmp_path):
        assert cli.main(["validate", "--ledger",
                         str(tmp_path / "nope.bin")]) == 64


class TestEncodeFixtures:
    def test_output_matches_committed_corpus(self, tmp_path):
        out = tmp_path / "fix"
        assert cli.main(["encode-fixtures", "--out", str(out)]) == 0
        produced = sorted(p.name for p in out.iterdir())
        committed = sorted(p.name for p in FIXTURE_DIR.iterdir())
        assert produced == committed
        for name in produced:
            assert ((out / name).read_text() ==
                    (FIXTURE_DIR / name).read_text()), name


def test_module_invocation_smoke(tmp_path):
    path = make_dump(tmp_path)
    # the child imports the same dmap package as this process, also when
    # that one was found through pytest's own pythonpath setting
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    for module in ("dmap", "dmap.cli"):
        proc = subprocess.run([sys.executable, "-m", module,
                               "validate", "--ledger", str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, module
        assert "ok:" in proc.stdout, module
        assert "RuntimeWarning" not in proc.stderr, module
