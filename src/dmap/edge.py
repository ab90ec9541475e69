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
    cell_of,
    distance_m,
    payload_bytes,
    sign_rsi_tx,
    verify_data_tx,
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
class ClusterVerdict:
    payload: Payload
    status: ClusterStatus
    reports: list[DataTransaction]
    # `reports` grouped by exact payload, first occurrence first
    groups: list[list[DataTransaction]]


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


def ingest(scheme: SignatureScheme, rsi: RsiState, tx: DataTransaction,
           now: int) -> bool:
    """Buffer a vehicle report into the open window; returns False if dropped."""
    rsi.stats.reports_sent += 1
    if not verify_data_tx(scheme, tx):
        rsi.stats.sig_rejects += 1
        return False
    w = rsi.window
    if not w.opens_at <= tx.timestamp < w.closes_at:
        rsi.stats.stale += 1
        return False
    w.reports.append(tx)
    return True


def _compatible(a: DataTransaction, b: DataTransaction,
                policy: ConsistencyPolicy) -> bool:
    return (a.event == b.event
            and abs(a.timestamp - b.timestamp) <= policy.eps_time
            and distance_m(a.loc, b.loc) <= policy.eps_distance)


def _payload_groups(reports: list[DataTransaction]
                    ) -> tuple[list[list[DataTransaction]], list[int]]:
    """Group reports by exact payload, first occurrence first; also return
    each report's group index."""
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
    return groups, of


def _payload(r: DataTransaction) -> Payload:
    return Payload(loc=r.loc, event=r.event, timestamp=r.timestamp)


def cluster_reports(reports: list[DataTransaction],
                    policy: ConsistencyPolicy) -> list[list[DataTransaction]]:
    """Partition reports into connected components of the compatibility graph.

    Reports with one payload are always compatible, so single linkage runs
    over the distinct payloads only. Each cluster lists its reports in
    input order, and clusters come in the order of their first reports;
    `close_window` sorts its aggregates by `wire`, so no output depends
    on cluster order.
    """
    groups, of = _payload_groups(reports)
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

    roots = [find(i) for i in range(k)]
    clusters: dict[int, list[DataTransaction]] = {}
    for r, i in zip(reports, of):
        clusters.setdefault(roots[i], []).append(r)
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


def judge_clusters(clusters: list[list[DataTransaction]],
                   policy: ConsistencyPolicy) -> list[ClusterVerdict]:
    """Trust pluralities, discard divergent minorities, flag loners.

    Clusters conflict when their payloads land in the same
    eps-distance-sized spatial cell but claim different event kinds.
    Within such a locus the unique largest cluster is the plurality; an
    exact size tie across kinds means no plurality exists and the tied
    clusters are merely uncorroborated.
    """
    prepared = []
    cluster_groups = []
    for c in clusters:
        groups, of = _payload_groups(c)
        prepared.append((_medoid(groups, of), c))
        cluster_groups.append(groups)

    by_cell: dict[tuple[int, int], list[int]] = {}
    for idx, (payload, _) in enumerate(prepared):
        by_cell.setdefault(cell_of(payload.loc, policy.eps_distance), []).append(idx)

    status: dict[int, ClusterStatus] = {}
    for indices in by_cell.values():
        kinds = {prepared[i][0].event for i in indices}
        if len(kinds) == 1:
            for i in indices:
                size = len(prepared[i][1])
                status[i] = (ClusterStatus.TRUSTED
                             if size >= policy.min_corroboration
                             else ClusterStatus.LONE_REPORT)
            continue
        max_size = max(len(prepared[i][1]) for i in indices)
        top = [i for i in indices if len(prepared[i][1]) == max_size]
        top_kinds = {prepared[i][0].event for i in top}
        if len(top_kinds) > 1:
            # no plurality: tied clusters are lone, the rest lost a conflict
            for i in indices:
                status[i] = (ClusterStatus.LONE_REPORT if i in top
                             else ClusterStatus.REJECTED_MINORITY)
            continue
        winner_kind = next(iter(top_kinds))
        for i in indices:
            payload, cluster = prepared[i]
            if payload.event != winner_kind:
                status[i] = ClusterStatus.REJECTED_MINORITY
            else:
                status[i] = (ClusterStatus.TRUSTED
                             if len(cluster) >= policy.min_corroboration
                             else ClusterStatus.LONE_REPORT)

    return [ClusterVerdict(payload=payload, status=status[idx], reports=cluster,
                           groups=cluster_groups[idx])
            for idx, (payload, cluster) in enumerate(prepared)]


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
    signed exactly the payload, so aggregates are signed without a second
    member check; miner admission is the independent one.
    """
    clusters = cluster_reports(rsi.window.reports, policy)
    verdicts = judge_clusters(clusters, policy)
    txs: list[RsiTransaction] = []
    for v in verdicts:
        if v.status is ClusterStatus.REJECTED_MINORITY:
            rsi.stats.rejected_reports += len(v.reports)
            continue
        # the exact-payload plurality; ties go to the smallest (lat, lon,
        # timestamp), then to the first occurrence
        carried = min(v.groups, key=lambda g: (-len(g), g[0].loc.lat_micro,
                                               g[0].loc.lon_micro, g[0].timestamp))
        payload = _payload(carried[0])
        members = sorted(((r.pk, r.vehicle_sign) for r in carried),
                         key=lambda m: m[0])
        rsi.stats.rejected_reports += len(v.reports) - len(carried)
        if v.status is ClusterStatus.TRUSTED and len(carried) >= policy.min_corroboration:
            txs.append(sign_rsi_tx(scheme, rsi.key, payload, members, flag=1))
            rsi.stats.trusted_tx += 1
            rsi.stats.trusted_members += len(members)
        else:
            txs.append(sign_rsi_tx(scheme, rsi.key, payload, members, flag=0))
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
