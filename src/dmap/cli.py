"""Scenario runner and report emitter.

Subcommands:
  run             load a scenario JSON, run it, write the run report
  validate        chain-check a binary ledger dump
  encode-fixtures write the reference hex fixtures for the wire format

Exit codes: 0 success, 1 tampered ledger, 2 invariant violation during a
run, 64 missing/unreadable input or a usage error (unknown subcommand or
option, missing required option), 65 invalid scenario field, --seed or
DMAP_SEED, 70 internal bug only, 73 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import fixtures, sim
from .encoding import DecodeError, canonical_encode
from .ledger import load_ledger, validate_chain
from .scenario import ConfigError

EXIT_OK = 0
EXIT_TAMPERED = 1
EXIT_INVARIANT = 2
EXIT_NOINPUT = 64
EXIT_USAGE = 64
EXIT_BADCONFIG = 65
EXIT_SOFTWARE = 70
EXIT_CANTCREAT = 73


def build_run_report(world: sim.World, metrics: dict) -> dict:
    return {
        "scenario": world.config.to_dict(),
        "metrics": metrics,
        "ledgers": {
            region: {
                "height": world.ledgers[region].tip.height,
                "tip_hash": world.ledgers[region].tip.block_hash.hex(),
            }
            for region in sorted(world.ledgers)
        },
        "invariants": world.invariant_results,
    }


def emit_report(report: dict, path: str) -> None:
    # wall-clock time is reported on stderr, never in the file, so that
    # identical (config, seed) runs rewrite identical bytes
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CANTCREAT) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except ValueError as exc:  # also bad UTF-8, and integers of over 4,300 digits
        print(f"scenario is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_BADCONFIG
    if not isinstance(raw, dict):
        print("scenario is not a JSON object", file=sys.stderr)
        return EXIT_BADCONFIG

    name, seed = "--seed", args.seed
    if seed is None and "DMAP_SEED" in os.environ:
        name, seed = "DMAP_SEED", os.environ["DMAP_SEED"]
    if seed is not None:
        try:
            raw["seed"] = int(seed)
        except ValueError:
            print(f"invalid {name} {seed!r}: must be an integer", file=sys.stderr)
            return EXIT_BADCONFIG

    try:
        world = sim.World(sim.ScenarioConfig.from_dict(raw))
        started = time.monotonic()
        metrics = world.run()
    except ConfigError as exc:
        print(f"invalid scenario field {exc}", file=sys.stderr)
        return EXIT_BADCONFIG
    except sim.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:  # exit 1 means only a tampered ledger
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_SOFTWARE
    runtime_ms = round((time.monotonic() - started) * 1000)

    report = build_run_report(world, metrics)
    if args.out:
        emit_report(report, args.out)
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    print(f"run complete in {runtime_ms} ms; "
          f"detection_rate={metrics['global']['detection_rate']}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.ledger, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    try:
        ledger = load_ledger(data)
    except DecodeError as exc:
        print(f"not a valid ledger dump: {exc}", file=sys.stderr)
        return EXIT_TAMPERED
    status = validate_chain(ledger)
    if status.ok:
        print(f"ok: {len(ledger.blocks)} blocks, region {ledger.rsi_region}")
        return EXIT_OK
    print(f"tampered: first_bad_height={status.first_bad_height}")
    return EXIT_TAMPERED


def _cmd_encode_fixtures(args: argparse.Namespace) -> int:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    for name, obj in make_all_fixture_hex().items():
        path = os.path.join(args.out, f"{name}.hex")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(obj + "\n")
        except OSError as exc:
            print(f"cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_CANTCREAT
    print(f"wrote {len(fixtures.FIXTURE_NAMES)} fixtures to {args.out}")
    return EXIT_OK


def make_all_fixture_hex() -> dict[str, str]:
    return {name: canonical_encode(obj).hex()
            for name, obj in fixtures.make_fixture_objects().items()}


class _Parser(argparse.ArgumentParser):
    """Exits `EXIT_USAGE` on a usage error; argparse's own 2 is the code
    of an invariant violation here. Subcommand parsers are of this class
    too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dmap", description="vehicular data-sharing protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit the report")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    # an integer, checked by `_cmd_run` as DMAP_SEED is, so it exits 65
    p_run.add_argument("--seed", default=None,
                       help="override the scenario seed (env DMAP_SEED applies "
                            "when this flag is absent)")
    p_run.add_argument("--out", default=None, help="report output path")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="chain-check a ledger dump")
    p_val.add_argument("--ledger", required=True, help="binary dump path")
    p_val.set_defaults(func=_cmd_validate)

    p_fix = sub.add_parser("encode-fixtures",
                           help="write reference wire-format hex fixtures")
    p_fix.add_argument("--out", required=True, help="output directory")
    p_fix.set_defaults(func=_cmd_encode_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
