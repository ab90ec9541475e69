"""Per-layer metrics of one traced rep, and their summary over traced reps.

``*_s`` is self time in seconds (span time minus wrapped callees), counts
are exact, ``*_ms`` percentiles are over inclusive call durations. A
metric whose source function is absent from the program is ``None``
(printed as null), never 0; metric_map.json names the end-to-end metric
and workload each one should move.
"""

from __future__ import annotations

import statistics
import sys
from typing import Callable

from stats import percentile, window_shape
from tracer import TARGETS, Tracer


class _View:
    """Read access to one traced rep's stats and its input properties."""

    def __init__(self, tracer: Tracer, rep) -> None:
        self.stats = tracer.stats
        self.windows = tracer.windows
        self.inputs = rep.inputs

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_s if st else 0.0

    def nbytes(self, name: str) -> int:
        st = self.stats.get(name)
        return st.nbytes if st else 0

    def pct_ms(self, name: str, q: float) -> float | None:
        st = self.stats.get(name)
        if not st or not st.durations:
            return None
        return percentile(st.durations, q) * 1e3

    def ratio(self, num: float, den: float) -> float | None:
        return num / den if den else None

    def window_shape(self) -> tuple[float, int]:
        return window_shape(self.windows)


Value = Callable[[_View], "float | int | None"]

# name, unit, better, wrapped function it needs (None: always present), value
PER_LAYER: tuple[tuple[str, str, str, str | None, Value], ...] = (
    ("crypto.sign_calls", "count", "lower", None, lambda v: v.calls("crypto.sign")),
    ("crypto.sign_s", "s", "lower", None, lambda v: v.self_s("crypto.sign")),
    ("crypto.verify_calls", "count", "lower", None, lambda v: v.calls("crypto.verify")),
    ("crypto.verify_s", "s", "lower", None, lambda v: v.self_s("crypto.verify")),
    ("crypto.verify_per_report", "1/report", "lower", None,
     lambda v: v.ratio(v.calls("crypto.verify"), v.inputs["reports_sent"])),
    ("crypto.keygen_calls", "count", "lower", None, lambda v: v.calls("crypto.keygen")),
    ("crypto.keygen_s", "s", "lower", None, lambda v: v.self_s("crypto.keygen")),
    ("crypto.sha256_calls", "count", "lower", "crypto.sha256",
     lambda v: v.calls("crypto.sha256")),
    ("crypto.sha256_bytes", "bytes", "lower", "crypto.sha256",
     lambda v: v.nbytes("crypto.sha256")),
    ("encoding.encode_calls", "count", "lower", "encoding.encode",
     lambda v: v.calls("encoding.encode")),
    ("encoding.encode_bytes", "bytes", "lower", "encoding.encode",
     lambda v: v.nbytes("encoding.encode")),
    ("encoding.encode_s", "s", "lower", "encoding.encode",
     lambda v: v.self_s("encoding.encode")),
    ("txmodel.build_data_tx_s", "s", "lower", "txmodel.build_data_tx",
     lambda v: v.self_s("txmodel.build_data_tx")),
    ("txmodel.build_rsi_tx_s", "s", "lower", "txmodel.build_rsi_tx",
     lambda v: v.self_s("txmodel.build_rsi_tx")),
    ("txmodel.verify_data_tx_calls", "count", "lower", "txmodel.verify_data_tx",
     lambda v: v.calls("txmodel.verify_data_tx")),
    ("txmodel.verify_rsi_tx_calls", "count", "lower", "txmodel.verify_rsi_tx",
     lambda v: v.calls("txmodel.verify_rsi_tx")),
    ("txmodel.verify_rsi_tx_s", "s", "lower", "txmodel.verify_rsi_tx",
     lambda v: v.self_s("txmodel.verify_rsi_tx")),
    ("edge.ingest_calls", "count", "lower", "edge.ingest", lambda v: v.calls("edge.ingest")),
    ("edge.ingest_s", "s", "lower", "edge.ingest", lambda v: v.self_s("edge.ingest")),
    ("edge.close_window_calls", "count", "lower", "edge.close_window",
     lambda v: v.calls("edge.close_window")),
    ("edge.close_window_s", "s", "lower", "edge.close_window",
     lambda v: v.self_s("edge.close_window")),
    ("edge.close_window_p50_ms", "ms", "lower", "edge.close_window",
     lambda v: v.pct_ms("edge.close_window", 50)),
    ("edge.close_window_p90_ms", "ms", "lower", "edge.close_window",
     lambda v: v.pct_ms("edge.close_window", 90)),
    ("edge.cluster_reports_s", "s", "lower", "edge.cluster_reports",
     lambda v: v.self_s("edge.cluster_reports")),
    ("edge.judge_clusters_s", "s", "lower", "edge.judge_clusters",
     lambda v: v.self_s("edge.judge_clusters")),
    ("edge.clusters", "count", "lower", "edge.cluster_reports",
     lambda v: v.calls("edge.clusters")),
    ("edge.reports_per_window_max", "count", "lower", "edge.close_window",
     lambda v: v.window_shape()[1]),
    ("edge.distinct_payload_ratio", "ratio", "lower", "edge.close_window",
     lambda v: v.window_shape()[0]),
    ("ledger.miner_admit_calls", "count", "lower", "ledger.miner_admit",
     lambda v: v.calls("ledger.miner_admit")),
    ("ledger.miner_admit_s", "s", "lower", "ledger.miner_admit",
     lambda v: v.self_s("ledger.miner_admit")),
    ("ledger.admit_per_chained_tx", "ratio", "lower", "ledger.miner_admit",
     lambda v: v.ratio(v.calls("ledger.miner_admit"), v.inputs["txs"])),
    ("ledger.append_block_calls", "count", "lower", "ledger.append_block",
     lambda v: v.calls("ledger.append_block")),
    ("ledger.append_block_s", "s", "lower", "ledger.append_block",
     lambda v: v.self_s("ledger.append_block")),
    ("ledger.validate_chain_s", "s", "lower", "ledger.validate_chain",
     lambda v: v.self_s("ledger.validate_chain")),
    ("ledger.blocks", "count", "lower", None, lambda v: v.inputs["blocks"]),
    ("ledger.txs", "count", "lower", None, lambda v: v.inputs["txs"]),
    ("market.store_record_calls", "count", "lower", "market.store_record",
     lambda v: v.calls("market.store_record")),
    ("market.store_record_s", "s", "lower", "market.store_record",
     lambda v: v.self_s("market.store_record")),
    ("market.store_record_p90_ms", "ms", "lower", "market.store_record",
     lambda v: v.pct_ms("market.store_record", 90)),
    ("market.evaluate_access_calls", "count", "lower", "market.evaluate_access",
     lambda v: v.calls("market.evaluate_access")),
    ("market.evaluate_access_s", "s", "lower", "market.evaluate_access",
     lambda v: v.self_s("market.evaluate_access")),
    ("market.granted_ratio", "ratio", "higher", "market.evaluate_access",
     lambda v: v.ratio(v.calls("market.granted"), v.calls("market.evaluate_access"))),
    ("market.chain_contract_s", "s", "lower", "market.chain_contract",
     lambda v: v.self_s("market.chain_contract")),
    ("market.query_availability_s", "s", "lower", "market.query_availability",
     lambda v: v.self_s("market.query_availability")),
    ("market.records", "count", "lower", None, lambda v: v.inputs["records"]),
    ("sim.tick_p50_ms", "ms", "lower", "sim.step", lambda v: v.pct_ms("sim.step.tick", 50)),
    ("sim.emit_step_s", "s", "lower", "sim.step", lambda v: v.self_s("sim.step.emit")),
    ("sim.boundary_step_s", "s", "lower", "sim.step",
     lambda v: v.self_s("sim.step.boundary")),
    ("sim.sweep_s", "s", "lower", "sim.sweep", lambda v: v.self_s("sim.sweep")),
    ("sim.metrics_s", "s", "lower", "sim.metrics", lambda v: v.self_s("sim.metrics")),
)
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def per_layer(tracer: Tracer, rep) -> dict[str, float | int | None]:
    view = _View(tracer, rep)
    return {name: (None if need in tracer.absent else value(view))
            for name, _unit, _better, need, value in PER_LAYER}


def summarize(traced: list[dict], overhead: list[float],
              tracer: Tracer) -> dict[str, dict]:
    """Lower median of each metric over the traced reps; null stays null."""
    for name in tracer.absent:
        print(f"perfbench: note: {name} is absent from the program; "
              "its per-layer metrics are reported as null", file=sys.stderr)
    called = {key.rsplit(".", 1)[0] for key in tracer.stats} | set(tracer.stats)
    for name, *_ in TARGETS:
        if name not in tracer.absent and name not in called:
            print(f"perfbench: note: {name} exists but was never called "
                  "on this workload", file=sys.stderr)
    out = {}
    for name, unit, *_ in PER_LAYER:
        values = [rep[name] for rep in traced if rep[name] is not None]
        out[name] = {"value": statistics.median_low(values) if values else None,
                     "unit": unit}
    name, unit, _ = OVERHEAD
    out[name] = {"value": statistics.median_low(overhead) if overhead else None,
                 "unit": unit}
    return out


def shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of the last traced rep's summed self time."""
    by_layer: dict[str, float] = {}
    for key, st in tracer.stats.items():
        layer = key.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + st.self_s
    total = sum(by_layer.values()) or 1.0
    return {k: v / total for k, v in
            sorted(by_layer.items(), key=lambda kv: -kv[1])}
