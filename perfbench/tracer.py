"""Span recorder for the traced benchmark run.

The recorder times calls into each layer's public functions from outside
the program: ``install`` rebinds every binding of each listed function in
every loaded ``dmap`` module (``sim`` imports ``miner_admit``,
``append_block`` and others by name, so patching only the defining module
would miss those calls), and ``scheme`` wraps the signature scheme that
``World`` receives. ``uninstall`` puts the originals back.

Three recording modes keep the overhead proportionate to call rates:

* ``SPAN``: a span record (id, name, start, end, parent id, trace id) is
  kept in memory, plus per-name calls and self time;
* ``LEAF``: hot leaves (sign, verify, keygen, canonical encode) add calls
  and self time only, no span record;
* ``COUNT``: the hottest leaf (``sha256``) counts calls and bytes only.

Self time is a call's duration minus the time its wrapped callees took.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from dmap.crypto import SignatureScheme

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (stat name, module, attribute path, mode). A missing attribute is
# reported as absent and every metric derived from it as null.
TARGETS = (
    ("crypto.sha256", "dmap.crypto", "sha256", COUNT),
    ("encoding.encode", "dmap.encoding", "canonical_encode", LEAF),
    ("txmodel.build_data_tx", "dmap.txmodel", "build_data_tx", SPAN),
    ("txmodel.build_rsi_tx", "dmap.txmodel", "build_rsi_tx", SPAN),
    ("txmodel.verify_data_tx", "dmap.txmodel", "verify_data_tx", SPAN),
    ("txmodel.verify_rsi_tx", "dmap.txmodel", "verify_rsi_tx", SPAN),
    ("edge.ingest", "dmap.edge", "ingest", SPAN),
    ("edge.close_window", "dmap.edge", "close_window", SPAN),
    ("edge.cluster_reports", "dmap.edge", "cluster_reports", SPAN),
    ("edge.judge_clusters", "dmap.edge", "judge_clusters", SPAN),
    ("ledger.miner_admit", "dmap.ledger", "miner_admit", SPAN),
    ("ledger.append_block", "dmap.ledger", "append_block", SPAN),
    ("ledger.validate_chain", "dmap.ledger", "validate_chain", SPAN),
    ("market.store_record", "dmap.market", "RuleTable.store_record", SPAN),
    ("market.evaluate_access", "dmap.market", "RuleTable.evaluate_access", SPAN),
    ("market.chain_contract", "dmap.market", "RuleTable.chain_contract", SPAN),
    ("market.query_availability", "dmap.market", "RuleTable.query_availability", SPAN),
    ("sim.step", "dmap.sim", "World.step", SPAN),
    ("sim.sweep", "dmap.sim", "World.sweep_invariants", SPAN),
    ("sim.metrics", "dmap.sim", "World.compute_metrics", SPAN),
)
# names whose per-call durations are kept for percentiles
KEEP_DURATIONS = {"edge.close_window", "market.store_record", "sim.step.tick"}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    nbytes: int = 0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.absent: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple | None] = []
        # each frame: [child seconds, span id]; the root frame absorbs
        # top-level durations
        self._stack: list[list] = [[0.0, None]]
        self.windows: list[tuple[int, int]] = []  # (reports, distinct payloads)
        self.trace_id = "setup"

    def reset(self) -> None:
        """Forget everything recorded; installed wrappers keep working."""
        self.stats.clear()
        self.spans.clear()
        self._stack[:] = [[0.0, None]]
        self.windows.clear()
        self.trace_id = "setup"

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- timing core ----------------------------------------------------------

    def _timed(self, name: str, fn: Callable, record: bool,
               classify: Callable | None = None,
               before: Callable | None = None,
               after: Callable | None = None) -> Callable:
        frames = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                b0 = perf_counter()
                state = before(args)
                # observer time is tracer overhead, not the caller's work
                frames[-1][0] += perf_counter() - b0
            parent = frames[-1]
            span_id = len(spans) if record else None
            if record:
                spans.append(None)  # reserve the id in call order
            frame = [0.0, span_id]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                dur = t1 - t0
                parent[0] += dur
                label = classify(args, state) if classify is not None else name
                st = tracer.stat(label)
                st.calls += 1
                st.self_s += dur - frame[0]
                if label in KEEP_DURATIONS:
                    st.durations.append(dur)
                if record:
                    spans[span_id] = (span_id, label, t0, t1, parent[1],
                                      tracer.trace_id)
            if after is not None:
                a0 = perf_counter()
                after(args, result)
                parent[0] += perf_counter() - a0
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer.stat(name)
            st.calls += 1
            st.nbytes += len(args[0]) if args else 0
            return fn(*args, **kwargs)

        return wrapper

    def phase(self, name: str, trace_id: str) -> "_Phase":
        """Context manager for a benchmark-level span (setup, run, sp)."""
        return _Phase(self, name, trace_id)

    # -- hooks for functions whose metrics need their arguments -------------

    def _step_before(self, args: tuple) -> tuple[int, int]:
        world = args[0]
        self.trace_id = f"w{world.window_index}"
        return world.clock_ms, world.config.window_ms

    @staticmethod
    def _step_classify(args: tuple, state: tuple[int, int]) -> str:
        before, window_ms = state
        after = args[0].clock_ms
        if after != before and after % window_ms == 0:
            return "sim.step.boundary"
        if before % window_ms == 0:
            return "sim.step.emit"
        return "sim.step.tick"

    def _close_before(self, args: tuple) -> None:
        reports = args[1].window.reports
        distinct = {(r.loc, r.event, r.timestamp) for r in reports}
        self.windows.append((len(reports), len(distinct)))

    def _encode_after(self, args: tuple, result: bytes) -> None:
        self.stat("encoding.encode").nbytes += len(result)

    def _clusters_after(self, args: tuple, result: list) -> None:
        self.stat("edge.clusters").calls += len(result)

    def _access_after(self, args: tuple, result: Any) -> None:
        if result.granted:
            self.stat("market.granted").calls += 1

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every listed function in every loaded dmap module."""
        hooks = {
            "sim.step": dict(before=self._step_before,
                             classify=self._step_classify),
            "encoding.encode": dict(after=self._encode_after),
            "edge.close_window": dict(before=self._close_before),
            "edge.cluster_reports": dict(after=self._clusters_after),
            "market.evaluate_access": dict(after=self._access_after),
        }
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "dmap" or name.startswith("dmap.")) and m is not None]
        for name, module_name, attr_path, mode in TARGETS:
            *owner_path, attr = attr_path.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if mode == COUNT:
                wrapped = self._counted(name, original)
            else:
                wrapped = self._timed(name, original, mode == SPAN,
                                      **hooks.get(name, {}))
            if owner_path:
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def scheme(self, inner: SignatureScheme) -> SignatureScheme:
        """A SignatureScheme that delegates to ``inner`` through the recorder."""
        return _TracedScheme(inner, self)


class _TracedScheme(SignatureScheme):
    def __init__(self, inner: SignatureScheme, tracer: Tracer) -> None:
        self.name = inner.name
        self.generate_keypair = tracer._timed(
            "crypto.keygen", inner.generate_keypair, record=False)
        self.sign = tracer._timed("crypto.sign", inner.sign, record=False)
        self.verify = tracer._timed("crypto.verify", inner.verify, record=False)


class _Phase:
    def __init__(self, tracer: Tracer, name: str, trace_id: str) -> None:
        self.tracer, self.name, self.trace_id = tracer, name, trace_id

    def __enter__(self) -> "_Phase":
        t = self.tracer
        t.trace_id = self.trace_id
        self.span_id = len(t.spans)
        t.spans.append(None)
        self.frame = [0.0, self.span_id]
        t._stack.append(self.frame)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = perf_counter()
        t = self.tracer
        t._stack.pop()
        dur = t1 - self.t0
        t._stack[-1][0] += dur
        st = t.stat(self.name)
        st.calls += 1
        st.self_s += dur - self.frame[0]
        t.spans[self.span_id] = (self.span_id, self.name, self.t0, t1,
                                 t._stack[-1][1], self.trace_id)
