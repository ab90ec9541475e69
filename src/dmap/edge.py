"""RSI-side validation: windowed ingestion, neighbor-monitoring
clustering, flag assignment, and deduplicated aggregation.

Reports arriving within one validation window are clustered by
compatibility (same event kind, locations within `eps_distance`,
timestamps within `eps_time`, closed under single linkage). Clusters
whose payloads conflict inside one spatial cell are judged against each
other: the plurality wins, divergent minorities are discarded, and
uncorroborated singletons go out flagged untrusted so miners reject them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

from .crypto import KeyPair, SignatureScheme
from .txmodel import (
    DataTransaction,
    Payload,
    RsiTransaction,
    build_rsi_tx,
    cell_of,
    distance_m,
    payload_bytes,
    verify_data_txs,
)


@dataclass
class ConsistencyPolicy:
    eps_distance: float      # metres, max location spread within a cluster
    eps_time: int            # ms, max timestamp spread
    min_corroboration: int   # reports needed for flag = 1


class ClusterStatus(Enum):
    TRUSTED = "Trusted"
    LONE_REPORT = "LoneReport"
    REJECTED_MINORITY = "RejectedMinority"


@dataclass
class Cluster:
    """A connected component: its reports grouped by exact payload, first
    occurrence first, and `of`, the group index of each report in input
    order. `judge_clusters` sets the medoid `payload` and the `status`."""
    groups: list[list[DataTransaction]] = field(default_factory=list)
    of: list[int] = field(default_factory=list)
    payload: Payload | None = None
    status: ClusterStatus | None = None


@dataclass
class ValidationWindow:
    window_id: int
    opens_at: int
    closes_at: int
    reports: list[DataTransaction] = field(default_factory=list)


@dataclass
class RegionStats:
    reports_sent: int = 0
    sig_rejects: int = 0
    stale: int = 0
    rejected_reports: int = 0
    lone_reports: int = 0
    trusted_tx: int = 0
    lone_tx: int = 0
    trusted_members: int = 0
    lone_members: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(vars(self).items()))


@dataclass
class RsiState:
    region_id: str
    key: KeyPair
    window: ValidationWindow
    window_ms: int
    stats: RegionStats = field(default_factory=RegionStats)

    @classmethod
    def fresh(cls, region_id: str, key: KeyPair, window_ms: int) -> "RsiState":
        return cls(region_id=region_id, key=key,
                   window=ValidationWindow(0, 0, window_ms),
                   window_ms=window_ms)


def ingest(scheme: SignatureScheme,
           deliveries: list[tuple[RsiState, DataTransaction]]) -> list[bool]:
    """Buffer each (RSI, report) pair into that RSI's open window, in order,
    every signature verified first, as one batch; returns which were kept."""
    kept = []
    for (rsi, tx), signed in zip(deliveries, verify_data_txs(
            scheme, [tx for _, tx in deliveries])):
        rsi.stats.reports_sent += 1
        w = rsi.window
        fresh = w.opens_at <= tx.timestamp < w.closes_at
        if not signed:
            rsi.stats.sig_rejects += 1
        elif not fresh:
            rsi.stats.stale += 1
        else:
            w.reports.append(tx)
        kept.append(signed and fresh)
    return kept


def _compatible(a: DataTransaction, b: DataTransaction,
                policy: ConsistencyPolicy) -> bool:
    return (a.event == b.event
            and abs(a.timestamp - b.timestamp) <= policy.eps_time
            and distance_m(a.loc, b.loc) <= policy.eps_distance)


def _payload(r: DataTransaction) -> Payload:
    return Payload(loc=r.loc, event=r.event, timestamp=r.timestamp)


def cluster_reports(reports: list[DataTransaction],
                    policy: ConsistencyPolicy) -> list[Cluster]:
    """Partition reports into connected components of the compatibility graph.

    Reports are grouped by exact payload once; reports with one payload
    are always compatible, so single linkage runs over the groups only.
    Clusters come in the order of their first reports; `close_window`
    sorts its aggregates by `wire`, so no output depends on cluster order.
    """
    slots: dict[tuple, int] = {}
    groups: list[list[DataTransaction]] = []
    of: list[int] = []
    for r in reports:
        key = (r.loc.lat_micro, r.loc.lon_micro, r.event.code,
               r.event.speed_kmh, r.timestamp)
        i = slots.get(key)
        if i is None:
            i = slots[key] = len(groups)
            groups.append([])
        groups[i].append(r)
        of.append(i)
    k = len(groups)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if _compatible(groups[i][0], groups[j][0], policy):
                parent[find(i)] = find(j)

    clusters: dict[int, Cluster] = {}
    owner: list[Cluster] = []
    local: list[int] = []  # each group's index within its cluster
    for i, g in enumerate(groups):
        c = clusters.get(root := find(i))
        if c is None:
            c = clusters[root] = Cluster()
        owner.append(c)
        local.append(len(c.groups))
        c.groups.append(g)
    for i in of:
        owner[i].of.append(local[i])
    return list(clusters.values())


def _medoid(groups: list[list[DataTransaction]], of: list[int]) -> Payload:
    """Payload with minimum summed distance to the cluster's reports, summed
    in report order (`of` gives each report's group); payload bytes break
    ties."""
    payloads = [_payload(g[0]) for g in groups]
    if len(payloads) == 1:
        return payloads[0]

    def key(p: Payload) -> tuple[float, bytes]:
        row = [distance_m(p.loc, q.loc) for q in payloads]
        return (sum(row[i] for i in of), payload_bytes(p))

    return min(payloads, key=key)


def judge_clusters(clusters: list[Cluster], policy: ConsistencyPolicy) -> None:
    """Trust pluralities, discard divergent minorities, flag loners.

    Sets each cluster's medoid `payload`, then its `status` among the
    clusters whose medoids share its eps-distance-sized cell. The winner is
    the kind of the cell's largest clusters, or None if they claim several.
    A winning-kind cluster is trusted with `min_corroboration` reports, else
    lone; with no winner the largest are lone; all others lost a conflict.
    """
    by_cell: dict[tuple[int, int], list[Cluster]] = {}
    for c in clusters:
        c.payload = _medoid(c.groups, c.of)
        by_cell.setdefault(cell_of(c.payload.loc, policy.eps_distance), []).append(c)

    for cell in by_cell.values():
        top = max(len(c.of) for c in cell)
        kinds = {c.payload.event for c in cell if len(c.of) == top}
        winner = kinds.pop() if len(kinds) == 1 else None
        for c in cell:
            if c.payload.event == winner:
                c.status = (ClusterStatus.TRUSTED
                            if len(c.of) >= policy.min_corroboration
                            else ClusterStatus.LONE_REPORT)
            elif len(c.of) == top:  # only reached with no winner
                c.status = ClusterStatus.LONE_REPORT
            else:
                c.status = ClusterStatus.REJECTED_MINORITY


def close_window(scheme: SignatureScheme, rsi: RsiState,
                 policy: ConsistencyPolicy) -> list[RsiTransaction]:
    """Judge the closing window and emit one aggregate per surviving cluster.

    Trusted clusters go out flag=1 with one deduplicated payload and every
    member signature; lone reports go out flag=0, and miners reject them
    on the flag alone, without a signature check; divergent minorities
    are dropped and counted. Opens the next window before returning.

    Member signatures were made over the members' own report bytes, so an
    aggregate is only independently verifiable when every carried member
    signed exactly the deduplicated payload. Within a surviving cluster
    the exact-payload plurality is aggregated; compatible-but-divergent
    leftovers cannot be carried verifiably and are counted rejected.
    `ingest` verified every report in the window, and each carried member
    signed exactly the payload, so `build_rsi_tx` signs each aggregate
    without a second member check; miner admission is the independent one.
    """
    clusters = cluster_reports(rsi.window.reports, policy)
    judge_clusters(clusters, policy)
    txs: list[RsiTransaction] = []
    for c in clusters:
        if c.status is ClusterStatus.REJECTED_MINORITY:
            rsi.stats.rejected_reports += len(c.of)
            continue
        # the exact-payload plurality; ties go to the smallest (lat, lon,
        # timestamp), then to the first occurrence
        carried = min(c.groups, key=lambda g: (-len(g), g[0].loc.lat_micro,
                                               g[0].loc.lon_micro, g[0].timestamp))
        payload = _payload(carried[0])
        members = sorted(((r.pk, r.vehicle_sign) for r in carried),
                         key=lambda m: m[0])
        rsi.stats.rejected_reports += len(c.of) - len(carried)
        if c.status is ClusterStatus.TRUSTED and len(carried) >= policy.min_corroboration:
            txs.append(build_rsi_tx(scheme, rsi.key, payload, members, flag=1))
            rsi.stats.trusted_tx += 1
            rsi.stats.trusted_members += len(members)
        else:
            txs.append(build_rsi_tx(scheme, rsi.key, payload, members, flag=0))
            rsi.stats.lone_tx += 1
            rsi.stats.lone_reports += 1
            rsi.stats.lone_members += len(members)
    w = rsi.window
    rsi.window = ValidationWindow(window_id=w.window_id + 1,
                                  opens_at=w.closes_at,
                                  closes_at=w.closes_at + rsi.window_ms)
    txs.sort(key=attrgetter("wire"))
    return txs


def handover(vehicle, to_region: str) -> None:
    """Soft handover: the new association takes effect at the next window
    boundary; until then in-flight reports keep flowing to the old RSI."""
    if to_region == vehicle.assoc_region:
        vehicle.pending_region = None
    else:
        vehicle.pending_region = to_region
