"""Deterministic discrete-event world: mobile vehicles over an RSI grid,
ground-truth events, adversary injection, the marketplace script, and
end-to-end metric computation.

Time is integer milliseconds in 100 ms ticks. Every random draw comes
from a counter-based stream keyed by (scenario seed, entity), so the full
state trajectory is a pure function of the scenario config. Vehicles
sample their surroundings at validation-window boundaries and sign each
report with a key freshly derived from their private master seed; the
linkability metric counts key reuse per vehicle from the world's own
delivery log, and nothing linkable ever enters a protocol message.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

from . import edge, txmodel
from .crypto import KEYED_HASH, KeyPair, SignatureScheme, issue_certificate, sha256
from .edge import ConsistencyPolicy, RegionStats, RsiState
from .encoding import canonical_encode
from .ledger import Ledger, MinerPolicy, append_admitted, check_ledger, genesis
from .market import AccessResult, RuleTable, build_access_tx, build_data_request, create_contract
from .rng import CounterRng
from .scenario import (STRATEGY_FABRICATE, STRATEGY_REPLAY, TICK_MS, Access, CreateContract,
                       DataRequest, GroundTruthEvent, MarketAction, ScenarioConfig, region_name)
from .txmodel import (
    DataTransaction,
    EventKind,
    GeoPoint,
    Grant,
    GRANT_CONTRACT_REF,
    GRANT_OWNER_SIG,
    Payload,
    RsiTransaction,
    Scope,
    SmartContract,
    build_data_tx,
    distance_m,
)

TICK_S = TICK_MS / 1000.0


class InvariantViolation(RuntimeError):
    pass


def _geo_to_xy(loc: GeoPoint) -> tuple[float, float]:
    return (loc.lon_micro / 1e6 * txmodel.METERS_PER_DEGREE,
            loc.lat_micro / 1e6 * txmodel.METERS_PER_DEGREE)


def _advance(v: "Vehicle", ticks: int) -> tuple[float, float]:
    """The vehicle's x and y after `ticks` more moves of its current step:
    one addition per tick and axis, in order, as stepping tick by tick."""
    x, y = v.x, v.y
    step_x, step_y = v.step_x, v.step_y
    for _ in repeat(None, ticks):
        x += step_x
        y += step_y
    return x, y


def _ticks_inside(pos: float, step: float, floor: float, size: float,
                  wall: float, ulp: float) -> float:
    """How many ticks a vehicle at `pos`, moving `step` a tick, may go
    unchecked: each of those moves keeps `pos // size` at `floor` and `pos`
    inside [0, wall]. Infinite for a zero step.

    `d` is the distance to the floor boundary ahead, or to the wall when
    that is nearer, and `ulp` bounds the spacing of floats inside the grid.
    k additions of `step` travel at most k * (|step| + ulp/2), and `d` and
    the boundary are each off by at most ulp/2, so (d - 2 ulp) / (|step| +
    ulp) moves stay inside; one tick less covers the rounding of that
    division."""
    if step > 0:
        d = min((floor + 1) * size, wall) - pos
    elif step < 0:
        d = pos - floor * size
    else:
        return math.inf
    return max(int((d - 2 * ulp) / (abs(step) + ulp)) - 1, 0)


# --- world state -------------------------------------------------------------

@dataclass
class Vehicle:
    vid: int
    x: float
    y: float
    heading: float
    speed: float
    honest: bool
    master_seed: bytes
    scheme: SignatureScheme  # derives the vehicle's keys
    rng: CounterRng
    assoc_region: str
    cell: tuple[int, int]  # World._cell(x, y), kept up to date by moves
    # raw x // cell_size_m and y // cell_size_m; the cell can change only
    # when one of them does
    floor_x: float
    floor_y: float
    pending_region: str | None = None
    key_counter: int = 0
    reuse_key: KeyPair | None = None  # signs every report when set
    replay_payload: Payload | None = None
    tick: int = 0  # the tick that x and y belong to; see World._move_phase
    # the move of one tick, refreshed by `turn` whenever the heading changes
    step_x: float = field(init=False, repr=False, compare=False)
    step_y: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.turn(self.heading)

    def turn(self, heading: float) -> None:
        self.heading = heading
        self.step_x = math.cos(heading) * self.speed * TICK_S
        self.step_y = math.sin(heading) * self.speed * TICK_S

    def _report_key(self, counter: int) -> KeyPair:
        return self.scheme.generate_keypair(
            sha256(self.master_seed + struct.pack(">Q", counter)))

    def fresh_key(self) -> KeyPair:
        if self.reuse_key is not None:
            return self.reuse_key
        self.key_counter += 1
        return self._report_key(self.key_counter - 1)

    @cached_property
    def grant_key(self) -> KeyPair:
        """The long-term key that signs the vehicle's contracts, derived
        when the vehicle first trades."""
        return self.scheme.generate_keypair(self.master_seed + b"/grant")

    @property
    def first_key(self) -> KeyPair | None:
        """The first report's key, which signs owner-signature grants;
        None before any report and for a vehicle that reuses one key."""
        return None if self.key_counter == 0 else self._first_report_key

    @cached_property
    def _first_report_key(self) -> KeyPair:
        return self._report_key(0)


@dataclass(slots=True)
class Delivery:
    window_id: int
    region: str
    vid: int
    tx: DataTransaction
    fabricated: bool


class World:
    def __init__(self, config: ScenarioConfig,
                 scheme: SignatureScheme = KEYED_HASH) -> None:
        self.config = config
        self.scheme = scheme
        self.clock_ms = 0
        seed = config.seed

        self.ca = scheme.generate_keypair(
            sha256(b"dmap/ca" + struct.pack(">Q", seed)))
        self.policy = MinerPolicy(m=config.miner_m, ca_pk=self.ca.public)
        self.consistency = ConsistencyPolicy(
            eps_distance=config.eps_distance_m, eps_time=config.eps_time_ms,
            min_corroboration=config.min_corroboration)

        self.rsis: dict[str, RsiState] = {}
        self.ledgers: dict[str, Ledger] = {}
        for row in range(config.rows):
            for col in range(config.cols):
                region = region_name(row, col)
                key = scheme.generate_keypair(
                    sha256(b"dmap/rsi" + struct.pack(">Q", seed)
                           + region.encode()))
                cert = issue_certificate(scheme, self.ca, key.public, region)
                self.policy.cert_registry[key.public] = cert
                self.rsis[region] = RsiState.fresh(region, key, config.window_ms)
                self.ledgers[region] = genesis(region)

        rt_key = scheme.generate_keypair(
            sha256(b"dmap/ruletable" + struct.pack(">Q", seed)))
        rt_cert = issue_certificate(scheme, self.ca, rt_key.public, "ruletable")
        self.policy.cert_registry[rt_key.public] = rt_cert
        self.rule_table = RuleTable(scheme, rt_key, self.policy, self.ledgers)
        for region in sorted(self.rsis):
            self.rule_table.register_rsi_directory(
                self.policy.cert_registry[self.rsis[region].key.public])

        self.vehicles: list[Vehicle] = []
        n_adv = round(config.adversary.fraction * config.vehicle_count)
        width = config.cols * config.cell_size_m
        height = config.rows * config.cell_size_m
        for vid in range(config.vehicle_count):
            rng = CounterRng(seed, "vehicle", vid)
            master = sha256(b"dmap/vehicle-master"
                            + struct.pack(">QQ", seed, vid))
            x, y = rng.uniform(0.0, width), rng.uniform(0.0, height)
            cell = self._cell(x, y)
            v = Vehicle(vid=vid, x=x, y=y,
                        heading=rng.uniform(0.0, 2 * math.pi),
                        speed=rng.uniform(config.speed_min_mps,
                                          config.speed_max_mps),
                        honest=vid >= n_adv,
                        master_seed=master, scheme=scheme, rng=rng,
                        assoc_region=region_name(*cell), cell=cell,
                        floor_x=x // config.cell_size_m,
                        floor_y=y // config.cell_size_m)
            if vid in config.key_reuse_vehicles:
                v.reuse_key = scheme.generate_keypair(master + b"/reused")
            self.vehicles.append(v)
        # tick -> the vehicles `_move_phase` steps at that tick; the first
        # tick steps every vehicle and so schedules it
        self._due: dict[int, list[Vehicle]] = {0: self.vehicles[:]}

        self._events = [(ev, *_geo_to_xy(ev.loc))
                        for ev in config.ground_truth_events]
        self._fab_region: str | None = None
        if config.adversary.fab_loc is not None:
            self._fab_region = region_name(
                *self._cell(*_geo_to_xy(config.adversary.fab_loc)))

        self.window_index = 0
        self.delivery_log: list[Delivery] = []
        self.injected_false = 0
        self.handover_count = 0
        self.access_granted = 0
        self.access_denied = 0
        # None stands for an auto-grant that granted nothing, so indexes hold
        self.contracts_created: list[SmartContract | None] = []
        self.granted_log: list[tuple[AccessResult, int]] = []
        # due order, last first, for popping; the stable sort keeps script
        # order among actions due in one tick
        self._script = sorted(config.market_script, key=lambda a: a.tick)[::-1]
        self._pending_autogrants: list[tuple[DataRequest, txmodel.DataRequestTransaction]] = []
        self._sp_keys: dict[str, KeyPair] = {}

    # -- identity helpers ----------------------------------------------------

    def sp_key(self, name: str) -> KeyPair:
        if name not in self._sp_keys:
            self._sp_keys[name] = self.scheme.generate_keypair(
                sha256(b"dmap/sp" + struct.pack(">Q", self.config.seed)
                       + name.encode()))
        return self._sp_keys[name]

    def state_digest(self) -> bytes:
        """Digest of the full observable state, for determinism checks.
        Catches every vehicle up to the current tick first."""
        self._catch_up()
        h_parts = [struct.pack(">Q", self.clock_ms)]
        for v in self.vehicles:
            h_parts.append(struct.pack(">Qddddq", v.vid, v.x, v.y, v.heading,
                                       v.speed, v.key_counter))
            h_parts.append(v.assoc_region.encode())
        for region in sorted(self.ledgers):
            h_parts.append(self.ledgers[region].tip.block_hash)
        return sha256(b"".join(h_parts))

    # -- event loop ----------------------------------------------------------

    def _cell(self, x: float, y: float) -> tuple[int, int]:
        """Grid (row, col) of a position, clamped into the grid."""
        cfg = self.config
        row = min(int(y // cfg.cell_size_m), cfg.rows - 1)
        col = min(int(x // cfg.cell_size_m), cfg.cols - 1)
        return max(row, 0), max(col, 0)

    def _deliver(self, v: Vehicle, loc: GeoPoint, kind: EventKind, ts: int,
                 fabricated: bool = False) -> None:
        """Sign a report under a fresh key and log it for the serving RSI,
        which `_emit_phase` sends it to."""
        tx = build_data_tx(self.scheme, v.fresh_key(), loc, kind, ts)
        self.delivery_log.append(Delivery(self.window_index, v.assoc_region,
                                          v.vid, tx, fabricated))

    def _sensed(self, v: Vehicle, active: list[tuple[GroundTruthEvent, float, float]]
                ) -> list[GroundTruthEvent]:
        """Active events within the vehicle's sensing radius, in scenario order."""
        radius = self.config.sensing_radius_m
        return [ev for ev, ex, ey in active
                if math.hypot(v.x - ex, v.y - ey) <= radius]

    def _emit_phase(self) -> None:
        """Every vehicle's reports of this tick, then their `ingest` in
        delivery order, the signatures verified as one batch."""
        cfg = self.config
        ts = self.clock_ms
        sent = len(self.delivery_log)
        active = [e for e in self._events if e[0].active_ms[0] <= ts < e[0].active_ms[1]]
        for v in self.vehicles:
            if v.honest:
                # corroborating reports must be byte-identical for the member
                # signatures to verify against the deduplicated payload, so
                # every sensing vehicle reports the event's own location
                for ev in self._sensed(v, active):
                    self._deliver(v, ev.loc, ev.kind, ts)
            elif cfg.adversary.strategy == STRATEGY_FABRICATE:
                self._emit_fabricated(v, ts)
            elif cfg.adversary.strategy == STRATEGY_REPLAY:
                self._emit_replay(v, ts, active)
            # SuppressReports: silence
        edge.ingest(self.scheme, [(self.rsis[d.region], d.tx)
                                  for d in self.delivery_log[sent:]])

    def _emit_fabricated(self, v: Vehicle, ts: int) -> None:
        cfg = self.config
        # fabricate only while served by the target locus's RSI, where the
        # claim is at least geographically plausible
        if self._fab_region is None or v.assoc_region != self._fab_region:
            return
        self.injected_false += 1
        self._deliver(v, cfg.adversary.fab_loc, cfg.adversary.fab_kind, ts,
                      fabricated=True)

    def _emit_replay(self, v: Vehicle, ts: int,
                     active: list[tuple[GroundTruthEvent, float, float]]) -> None:
        p = v.replay_payload
        if p is None:
            # capture phase: report the first sensed event honestly; every
            # later emit replays that same payload
            sensed = self._sensed(v, active)
            if not sensed:
                return
            p = v.replay_payload = Payload(sensed[0].loc, sensed[0].kind, ts)
        self._deliver(v, p.loc, p.event, p.timestamp)

    def _catch_up(self) -> None:
        """Bring every vehicle's x and y to the current tick."""
        tick = self.clock_ms // TICK_MS
        for v in self.vehicles:
            if v.tick != tick:
                v.x, v.y = _advance(v, tick - v.tick)
                v.tick = tick

    def _move_phase(self) -> None:
        """Step the vehicles due at this tick; the others lag behind.

        A vehicle is due at the first tick at which it may change floor or
        reach a wall (`_ticks_inside`). Until then its moves are plain
        additions, so it is left alone and `x`, `y` belong to `v.tick`: read
        them after `state_digest()`, or at an emit, which catches everyone up
        (`_catch_up`). A due vehicle makes its lagging additions, then this
        tick's, in order, so positions are the same floats as stepping every
        vehicle every tick. Trigonometry runs only on a turn and `_cell` only
        when a raw floor changes."""
        tick = self.clock_ms // TICK_MS
        due = self._due.pop(tick, None)
        if due is None:
            return
        buckets = self._due
        cfg = self.config
        cell_size = cfg.cell_size_m
        width = cfg.cols * cell_size
        height = cfg.rows * cell_size
        ulp = math.ulp(max(width, height))
        pi = math.pi
        cell = self._cell
        for v in due:
            x, y = _advance(v, tick + 1 - v.tick)
            if x < 0 or x > width:
                x = min(max(x, 0.0), width)
                v.turn(pi - v.heading)
            if y < 0 or y > height:
                y = min(max(y, 0.0), height)
                v.turn(-v.heading)
            v.x = x
            v.y = y
            v.tick = tick + 1
            floor_x = x // cell_size
            floor_y = y // cell_size
            if floor_x != v.floor_x or floor_y != v.floor_y:
                v.floor_x = floor_x
                v.floor_y = floor_y
                # at x == width or y == height the floor moves past the
                # last cell but the clamped cell stays: no handover
                after = cell(x, y)
                if after != v.cell:
                    v.cell = after
                    v.turn(v.rng.uniform(0.0, 2 * pi))
                    self.handover_count += 1
                    edge.handover(v, region_name(*after))
            wait = min(_ticks_inside(x, v.step_x, floor_x, cell_size, width, ulp),
                       _ticks_inside(y, v.step_y, floor_y, cell_size, height, ulp))
            if wait != math.inf:
                buckets.setdefault(tick + 1 + wait, []).append(v)

    def _close_regions(self, regions: list[str]) -> None:
        """Close each region's window, admit every aggregate as one batch,
        then chain and store each region's admitted ones, in `regions`
        order."""
        closed = [(self.ledgers[region], edge.close_window(
            self.scheme, self.rsis[region], self.consistency)) for region in regions]
        for block in append_admitted(self.scheme, closed, self.clock_ms,
                                     self.policy):
            for tx in block.txs if block is not None else ():
                self.rule_table.store_record(tx)

    def _window_boundary(self) -> None:
        self._close_regions(sorted(self.rsis))
        for v in self.vehicles:
            if v.pending_region is not None:
                v.assoc_region = v.pending_region
                v.pending_region = None
        self.window_index += 1
        self._fire_autogrants()

    # -- marketplace script ---------------------------------------------------

    def _fire_market_actions(self) -> None:
        while self._script and self._script[-1].tick * TICK_MS <= self.clock_ms:
            self._run_action(self._script.pop())

    def _run_action(self, action: MarketAction) -> None:
        if isinstance(action, CreateContract):
            self._chain_contract(create_contract(
                self.scheme, self.vehicles[action.owner_vehicle].grant_key,
                self.sp_key(action.grantee_sp).public, action.timespan,
                action.scope, action.price))
        elif isinstance(action, Access):
            self._run_access(action)
        else:
            # vehicles in the target regions observe the request next window
            request = build_data_request(self.scheme, self.sp_key(action.sp),
                                         *action.area, *action.period,
                                         action.target_regions)
            self._pending_autogrants.append((action, request))

    def _chain_contract(self, contract: SmartContract) -> None:
        self.rule_table.chain_contract(contract, self.clock_ms)
        self.contracts_created.append(contract)

    def _run_access(self, action: Access) -> None:
        sp = self.sp_key(action.requester_sp)
        if action.contract_index is None and action.owner_sig_vehicle is not None:
            owner = self.vehicles[action.owner_sig_vehicle]
            key = owner.first_key or owner.grant_key
            sig = self.scheme.sign(
                key, txmodel.grant_signing_bytes(sp.public, action.query))
            grant = Grant(kind=GRANT_OWNER_SIG, owner_pk=key.public,
                          owner_sign=sig)
        else:
            # no grant, or an auto-grant that granted nothing: an id of nothing
            contract = (None if action.contract_index is None
                        else self.contracts_created[action.contract_index])
            grant = Grant(kind=GRANT_CONTRACT_REF, contract_id=(
                b"\x00" * 32 if contract is None else contract.contract_id()))
        access_tx = build_access_tx(self.scheme, sp, action.query, grant)
        result = self.rule_table.evaluate_access(access_tx, self.clock_ms)
        if result.granted:
            self.access_granted += 1
            self.granted_log.append((result, self.clock_ms))
        else:
            self.access_denied += 1

    def _fire_autogrants(self) -> None:
        pending, self._pending_autogrants = self._pending_autogrants, []
        for action, request in pending:
            signed = self.scheme.verify(request.sp_pk, txmodel.data_request_signing_bytes(
                request.sp_pk, request.area_min, request.area_max, request.from_ms,
                request.to_ms, request.target_regions), request.sp_sign)
            scope = Scope(request.target_regions, request.from_ms, request.to_ms,
                          tuple(range(len(EventKind.CODE_NAMES))))
            for vid in action.auto_grant_vehicles:
                owner = self.vehicles[vid]
                if signed and owner.assoc_region in request.target_regions:
                    self._chain_contract(create_contract(
                        self.scheme, owner.grant_key, request.sp_pk,
                        (self.clock_ms, self.config.duration_ms + self.config.window_ms),
                        scope, 0))
                else:
                    self.contracts_created.append(None)

    # -- main loop -------------------------------------------------------------

    def step(self) -> None:
        """Advance the world one tick. Vehicles not due to move lag behind
        (see `_move_phase`); each emit catches them up first."""
        cfg = self.config
        if self.clock_ms >= cfg.duration_ms:
            return
        if self.clock_ms % cfg.window_ms == 0:
            self._catch_up()
            self._emit_phase()
        self._fire_market_actions()
        self._move_phase()
        self.clock_ms += TICK_MS
        if self.clock_ms % cfg.window_ms == 0:
            self._window_boundary()

    def run(self) -> dict:
        """Step to the configured duration, sweep invariants, return metrics."""
        while self.clock_ms < self.config.duration_ms:
            self.step()
        self._catch_up()
        self._close_regions([region for region in sorted(self.rsis)
                             if self.rsis[region].window.reports])
        self.sweep_invariants()
        return self.compute_metrics()

    # -- metrics & sweeps -------------------------------------------------------

    def _payload_matches_truth(self, payload: Payload) -> bool:
        cfg = self.config
        for ev in cfg.ground_truth_events:
            if (payload.event == ev.kind
                    and ev.active_ms[0] <= payload.timestamp < ev.active_ms[1]
                    and distance_m(payload.loc, ev.loc) <= cfg.eps_distance_m):
                return True
        return False

    def compute_linkability(self) -> dict:
        """Count protocol-visible key reuse per vehicle: every use of a
        report key after its vehicle's first, from the delivery log."""
        violations: Counter[int] = Counter()
        for (vid, _), uses in Counter((d.vid, d.tx.pk) for d in self.delivery_log).items():
            if uses > 1:
                violations[vid] += uses - 1
        return {"linkability_violations": violations.total(),
                "per_vehicle": {str(k): violations[k] for k in sorted(violations)}}

    def audit_access_log(self, chained: dict[bytes, str],
                         contracts: dict[bytes, SmartContract]) -> int:
        """Independent replay of every grant; returns unauthorized_served.

        `chained` maps the SHA-256 of each chained tx's canonical encoding
        to its region; `contracts` maps each chained contract's id to it.
        """
        unauthorized = 0
        for result, granted_at in self.granted_log:
            tx = result.access_tx
            if sha256(canonical_encode(tx)) not in chained:
                unauthorized += len(result.records)
                continue
            ok = True
            if tx.grant.kind == GRANT_CONTRACT_REF:
                c = contracts.get(tx.grant.contract_id)
                ok = (c is not None and c.grantee_pk == tx.requester_pk
                      and c.start_ms <= granted_at < c.end_ms
                      and c.scope.contains_query(tx.query))
            elif tx.grant.kind == GRANT_OWNER_SIG:
                msg = txmodel.grant_signing_bytes(tx.requester_pk, tx.query)
                ok = self.scheme.verify(tx.grant.owner_pk, msg,
                                        tx.grant.owner_sign)
                ok = ok and all(tx.grant.owner_pk in r.owner_pks
                                for r in result.records)
            for r in result.records:
                if (r.region_id not in tx.query.region_ids
                        or not tx.query.from_ms <= r.payload.timestamp < tx.query.to_ms
                        or r.payload.event.code not in tx.query.kind_codes):
                    ok = False
            if not ok:
                unauthorized += max(len(result.records), 1)
        return unauthorized

    def compute_metrics(self) -> dict:
        """Run metrics; reads the counts that `sweep_invariants` kept."""
        per_region = {}
        totals = RegionStats()
        for region in sorted(self.rsis):
            stats = self.rsis[region].stats
            per_region[region] = stats.as_dict()
            for name, value in vars(stats).items():
                setattr(totals, name, getattr(totals, name) + value)
        false_chained = self.false_chained
        injected = self.injected_false
        detection = 1.0 if injected == 0 else 1.0 - false_chained / injected
        link = self.compute_linkability()
        global_metrics = dict(totals.as_dict())
        global_metrics.update({
            "false_data_chained": false_chained,
            "false_data_injected": injected,
            "detection_rate": detection,
            "linkability_violations": link["linkability_violations"],
            "access_granted": self.access_granted,
            "access_denied": self.access_denied,
            "unauthorized_served": self.unauthorized_served,
            "handovers": self.handover_count,
        })
        return {"global": global_metrics, "per_region": per_region}

    def sweep_invariants(self) -> dict[str, str]:
        """Post-run checks of every module-level invariant; raises on failure."""
        results: dict[str, str] = {}

        def check(name: str, ok: bool, detail: str = "") -> None:
            if not ok:
                raise InvariantViolation(f"{name}: {detail}")
            results[name] = "ok"

        # one pass over every chained tx, in region order: the digest map
        # serves the isolation, provenance and grant checks
        region_of: dict[bytes, str] = {}
        contracts: dict[bytes, SmartContract] = {}
        isolated = True
        false_chained = 0
        for region in sorted(self.ledgers):
            for digest, tx in check_ledger(
                    self.scheme, self.ledgers[region], self.policy,
                    lambda name, ok, detail: check(f"{name}[{region}]", ok, detail)):
                if region_of.setdefault(digest, region) != region:
                    isolated = False
                if isinstance(tx, RsiTransaction):
                    # counted in reports, the unit of false_data_injected
                    if not self._payload_matches_truth(tx.payload):
                        false_chained += len(tx.vehicle_pks)
                elif isinstance(tx, SmartContract):
                    contracts[digest] = tx
        results.setdefault("admission_sound", "ok")
        check("ledger_isolation", isolated)

        for region, directory in sorted(self.rule_table.directories.items()):
            for record in directory.records:
                check(f"store_provenance[{region}]",
                      record.provenance in region_of, "unchained record")

        for region in sorted(self.rsis):
            s = self.rsis[region].stats
            consumed = (s.trusted_members + s.lone_members + s.rejected_reports
                        + s.sig_rejects + s.stale
                        + len(self.rsis[region].window.reports))
            check(f"conservation[{region}]", s.reports_sent == consumed,
                  f"sent={s.reports_sent} consumed={consumed}")

        self.unauthorized_served = self.audit_access_log(region_of, contracts)
        check("unauthorized_served", self.unauthorized_served == 0)
        self.false_chained = false_chained
        self.invariant_results = results
        return results

