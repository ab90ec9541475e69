import dataclasses
from collections import Counter

import pytest

from dmap import edge
from dmap.crypto import ED25519, KEYED_HASH, sha256
from dmap.encoding import canonical_encode
from dmap.edge import (
    ClusterStatus,
    ConsistencyPolicy,
    RsiState,
    cluster_reports,
    close_window,
    ingest,
    judge_clusters,
)
from dmap.rng import CounterRng
from dmap.txmodel import (
    CLEAR,
    DataTransaction,
    EventKind,
    GeoPoint,
    ROAD_DAMAGE,
    Payload,
    build_data_tx,
    cell_of,
    data_tx_signing_bytes,
    data_tx_triple,
    distance_m,
    verify_data_tx,
)
from tests.conftest import CountingScheme
from tests.test_txmodel import key

scheme = KEYED_HASH

POLICY = ConsistencyPolicy(eps_distance=50.0, min_corroboration=2)


def geo(x_m: float, y_m: float) -> GeoPoint:
    return GeoPoint(lat_micro=round(y_m / 111_320.0 * 1e6),
                    lon_micro=round(x_m / 111_320.0 * 1e6))


def report(label, x=0.0, y=0.0, kind=ROAD_DAMAGE, ts=100):
    return build_data_tx(scheme, key(label), geo(x, y), kind, ts)


def oracle_partition(reports, policy):
    """Brute-force oracle: adjacency matrix plus BFS components."""
    n = len(reports)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                a, b = reports[i], reports[j]
                adj[i][j] = (a.event == b.event
                             and distance_m(a.loc, b.loc) <= policy.eps_distance)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        queue, comp = [start], []
        seen[start] = True
        while queue:
            i = queue.pop()
            comp.append(i)
            for j in range(n):
                if adj[i][j] and not seen[j]:
                    seen[j] = True
                    queue.append(j)
        components.append(frozenset(reports[i].pk for i in comp))
    return frozenset(components)


def allpairs_cluster_reports(reports, policy):
    """The all-pairs clustering that the distinct-payload one replaces."""
    n = len(reports)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if edge._compatible(reports[i], reports[j], policy):
                parent[find(i)] = find(j)
    groups = {}
    for i, r in enumerate(reports):
        groups.setdefault(find(i), []).append(r)
    return list(groups.values())


def allpairs_medoid(cluster):
    """The all-pairs medoid that the distinct-payload one replaces."""
    def key(r):
        return (sum(distance_m(r.loc, o.loc) for o in cluster),
                canonical_encode(r))

    med = min(cluster, key=key)
    return Payload(loc=med.loc, event=med.event, timestamp=med.timestamp)


def three_branch_statuses(sized, policy):
    """The three-branch judgment that the one-rule one replaces: `sized`
    lists each cluster's (medoid payload, size); returns their statuses."""
    by_cell = {}
    for idx, (payload, _) in enumerate(sized):
        by_cell.setdefault(cell_of(payload.loc, policy.eps_distance), []).append(idx)
    status = {}
    for indices in by_cell.values():
        kinds = {sized[i][0].event for i in indices}
        if len(kinds) == 1:
            for i in indices:
                status[i] = (ClusterStatus.TRUSTED
                             if sized[i][1] >= policy.min_corroboration
                             else ClusterStatus.LONE_REPORT)
            continue
        max_size = max(sized[i][1] for i in indices)
        top = [i for i in indices if sized[i][1] == max_size]
        top_kinds = {sized[i][0].event for i in top}
        if len(top_kinds) > 1:
            for i in indices:
                status[i] = (ClusterStatus.LONE_REPORT if i in top
                             else ClusterStatus.REJECTED_MINORITY)
            continue
        winner_kind = next(iter(top_kinds))
        for i in indices:
            payload, size = sized[i]
            if payload.event != winner_kind:
                status[i] = ClusterStatus.REJECTED_MINORITY
            else:
                status[i] = (ClusterStatus.TRUSTED
                             if size >= policy.min_corroboration
                             else ClusterStatus.LONE_REPORT)
    return [status[i] for i in range(len(sized))]


def reports_of(cluster):
    """A cluster's reports in input order, rebuilt from `groups` and `of`."""
    members = [iter(g) for g in cluster.groups]
    return [next(members[i]) for i in cluster.of]


def judged(reports):
    clusters = cluster_reports(reports, POLICY)
    judge_clusters(clusters, POLICY)
    return clusters


DIFF_KINDS = (ROAD_DAMAGE, CLEAR, EventKind(2, 30), EventKind(2, 50))


def random_window(rng, window):
    """Byte-identical copies of a few payloads around a few loci (some at
    negative lat/lon), shuffled; each report has its own key.

    Every other window adds a separate cluster of four payloads in a plus
    shape, with equal copy counts: the west and east ones are the medoid
    candidates, and their summed distances are equal up to float rounding,
    which depends on the order of summation.
    """
    loci = [(rng.uniform(-300, 300), rng.uniform(-300, 300))
            for _ in range(rng.randint(1, 3))]
    payloads = []
    for _ in range(rng.randint(1, 12)):
        x, y = loci[rng.randint(0, len(loci) - 1)]
        payloads.append((geo(x + rng.uniform(-40, 40), y + rng.uniform(-40, 40)),
                         DIFF_KINDS[rng.randint(0, len(DIFF_KINDS) - 1)],
                         rng.randint(0, 3000), rng.randint(1, 6)))
    if window % 2:
        centre = geo(1000, -1000)
        a = rng.randint(50, 150)
        c = rng.randint(a + 20, 300)
        kind = DIFF_KINDS[rng.randint(0, len(DIFF_KINDS) - 1)]
        ts, copies = rng.randint(0, 3000), rng.randint(1, 5)
        for dlat, dlon in ((0, -a), (0, a), (c, 0), (-c, 0)):
            loc = GeoPoint(centre.lat_micro + dlat, centre.lon_micro + dlon)
            payloads.append((loc, kind, ts, copies))
    reports = []
    for p, (loc, kind, ts, copies) in enumerate(payloads):
        for c in range(copies):
            pk = sha256(f"w{window}p{p}c{c}".encode())
            reports.append(DataTransaction(loc=loc, event=kind, timestamp=ts,
                                           pk=pk, vehicle_sign=sha256(pk)))
    for i in range(len(reports) - 1, 0, -1):
        j = rng.randint(0, i)
        reports[i], reports[j] = reports[j], reports[i]
    return reports


def payload_key(r):
    return (r.loc, r.event, r.timestamp)


def test_distinct_payload_clustering_matches_all_pairs():
    rng = CounterRng(23, "distinct-payload-differential")
    multi_payload_clusters = 0
    for window in range(150):
        reports = random_window(rng, window)
        clusters = judged(reports)
        expected = allpairs_cluster_reports(reports, POLICY)
        # cluster order reaches no output: close_window sorts by wire
        assert Counter(tuple(reports_of(c)) for c in clusters) == Counter(
            map(tuple, expected))
        for c in clusters:
            # one group per exact payload, in first-occurrence order
            firsts = list(dict.fromkeys(map(payload_key, reports_of(c))))
            assert [payload_key(g[0]) for g in c.groups] == firsts
            assert all(payload_key(r) == payload_key(g[0])
                       for g in c.groups for r in g)
            assert c.payload == allpairs_medoid(reports_of(c))
        multi_payload_clusters += sum(
            len(set(map(payload_key, reports_of(c)))) > 1 for c in clusters)
    # the medoid is only computed where a cluster holds several payloads
    assert multi_payload_clusters >= 100


def test_one_rule_judgment_matches_three_branches():
    rng = CounterRng(23, "distinct-payload-differential")
    branches = Counter()
    for window in range(150):
        clusters = judged(random_window(rng, window))
        sized = [(allpairs_medoid(reports_of(c)), len(c.of)) for c in clusters]
        assert [c.status for c in clusters] == three_branch_statuses(sized, POLICY)
        branches.update(c.status for c in clusters)
    # every status is reached
    assert min(branches[s] for s in ClusterStatus) >= 10, branches


def cell_statuses(reports):
    """Statuses by medoid (kind, size, location); all reports share a cell."""
    clusters = judged(reports)
    assert len({cell_of(c.payload.loc, POLICY.eps_distance) for c in clusters}) == 1
    sized = [(c.payload, len(c.of)) for c in clusters]
    assert [c.status for c in clusters] == three_branch_statuses(sized, POLICY)
    return {(c.payload.event, len(c.of), c.payload.loc): c.status
            for c in clusters}


# two corners of the eps-sized cell at the origin, about 63.6 m apart:
# reports of one kind at the two never cluster, so two clusters of one kind
# can share a cell
NEAR, FAR = (0.0, 0.0), (45.0, 45.0)


class TestJudgmentCells:
    def test_one_kind_unequal_sizes(self):
        rs = ([report(f"a{i}", *NEAR) for i in range(3)]
              + [report("b", *FAR)])
        assert cell_statuses(rs) == {
            (ROAD_DAMAGE, 3, geo(*NEAR)): ClusterStatus.TRUSTED,
            (ROAD_DAMAGE, 1, geo(*FAR)): ClusterStatus.LONE_REPORT,
        }

    def test_cross_kind_tie_rejects_smaller_third(self):
        rs = ([report(f"a{i}", kind=ROAD_DAMAGE) for i in range(2)]
              + [report(f"b{i}", kind=CLEAR) for i in range(2)]
              + [report("c", kind=EventKind(2, 30))])
        assert cell_statuses(rs) == {
            (ROAD_DAMAGE, 2, geo(*NEAR)): ClusterStatus.LONE_REPORT,
            (CLEAR, 2, geo(*NEAR)): ClusterStatus.LONE_REPORT,
            (EventKind(2, 30), 1, geo(*NEAR)): ClusterStatus.REJECTED_MINORITY,
        }

    def test_unique_winner_beside_equal_cluster_of_its_kind(self):
        rs = ([report(f"a{i}", *NEAR) for i in range(3)]
              + [report(f"b{i}", *FAR) for i in range(3)]
              + [report(f"c{i}", *NEAR, kind=CLEAR) for i in range(2)])
        assert cell_statuses(rs) == {
            (ROAD_DAMAGE, 3, geo(*NEAR)): ClusterStatus.TRUSTED,
            (ROAD_DAMAGE, 3, geo(*FAR)): ClusterStatus.TRUSTED,
            (CLEAR, 2, geo(*NEAR)): ClusterStatus.REJECTED_MINORITY,
        }


class TestClusterReports:
    def test_unanimous_three_in_one_cluster(self):
        rs = [report(f"v{i}", x=i * 10.0, ts=100 + i * 100) for i in range(3)]
        clusters = cluster_reports(rs, POLICY)
        assert len(clusters) == 1
        assert reports_of(clusters[0]) == rs

    def test_conflicting_kind_splits(self):
        rs = [report(f"v{i}", kind=ROAD_DAMAGE) for i in range(4)]
        rs.append(report("odd", kind=CLEAR))
        clusters = cluster_reports(rs, POLICY)
        sizes = sorted(len(reports_of(c)) for c in clusters)
        assert sizes == [1, 4]
        assert oracle_partition(rs, POLICY) == frozenset(
            frozenset(r.pk for r in reports_of(c)) for c in clusters)

    def test_empty_input(self):
        assert cluster_reports([], POLICY) == []

    def test_partition_property_randomized(self):
        rng = CounterRng(11, "partition")
        for trial in range(40):
            rs = [report(f"t{trial}_v{i}",
                         x=rng.uniform(0, 200), y=rng.uniform(0, 200),
                         kind=(ROAD_DAMAGE if rng.randint(0, 1) else CLEAR),
                         ts=rng.randint(0, 4000))
                  for i in range(rng.randint(0, 12))]
            clusters = cluster_reports(rs, POLICY)
            flat = [r for c in clusters for r in reports_of(c)]
            assert sorted(r.pk for r in flat) == sorted(r.pk for r in rs)
            assert oracle_partition(rs, POLICY) == frozenset(
                frozenset(r.pk for r in reports_of(c)) for c in clusters)

    def test_single_linkage_chains_connect(self):
        # pairwise-adjacent chain: ends exceed eps but stay connected
        rs = [report(f"c{i}", x=i * 40.0) for i in range(4)]
        clusters = cluster_reports(rs, POLICY)
        assert len(clusters) == 1


class TestJudgeClusters:
    def test_plurality_beats_minority(self):
        rs = [report(f"v{i}", kind=ROAD_DAMAGE) for i in range(4)]
        rs.append(report("liar", kind=CLEAR))
        by_size = {len(c.of): c.status for c in judged(rs)}
        assert by_size[4] is ClusterStatus.TRUSTED
        assert by_size[1] is ClusterStatus.REJECTED_MINORITY

    def test_single_report_no_conflict_is_lone(self):
        assert [c.status for c in judged([report("solo")])] == [
            ClusterStatus.LONE_REPORT]

    def test_exact_tie_means_no_plurality(self):
        rs = ([report(f"a{i}", kind=ROAD_DAMAGE) for i in range(2)]
              + [report(f"b{i}", kind=CLEAR) for i in range(2)])
        clusters = judged(rs)
        # enumeration oracle: no cluster strictly larger than all rivals
        sizes = sorted(len(reports_of(c)) for c in clusters)
        assert sizes == [2, 2]
        assert {c.status for c in clusters} == {ClusterStatus.LONE_REPORT}

    def test_honest_majority_soundness_property(self):
        # fabricated cluster never trusted while honest strictly outnumber it
        rng = CounterRng(13, "soundness")
        for trial in range(60):
            honest_n = rng.randint(2, 8)
            bad_n = rng.randint(1, honest_n - 1) if honest_n > 1 else 0
            rs = [report(f"s{trial}_h{i}", kind=ROAD_DAMAGE)
                  for i in range(honest_n)]
            rs += [report(f"s{trial}_b{i}", kind=CLEAR) for i in range(bad_n)]
            for c in judged(rs):
                if c.payload.event == CLEAR:
                    assert c.status is not ClusterStatus.TRUSTED

    def test_majority_capture_reproduced(self):
        # when fabricators strictly outnumber honest, their cluster IS trusted
        rng = CounterRng(17, "capture")
        for trial in range(30):
            honest_n = rng.randint(1, 4)
            bad_n = honest_n + rng.randint(1, 4)
            rs = [report(f"c{trial}_h{i}", kind=ROAD_DAMAGE)
                  for i in range(honest_n)]
            rs += [report(f"c{trial}_b{i}", kind=CLEAR) for i in range(bad_n)]
            captured = [c for c in judged(rs) if c.payload.event == CLEAR]
            assert captured[0].status is ClusterStatus.TRUSTED


@pytest.fixture
def rsi():
    return RsiState.fresh("r0_c0", key("rsi"), window_ms=5000)


class TestIngest:
    def test_valid_report_buffered(self, rsi):
        tx = report("v", ts=100)
        ingest(scheme, [(rsi, tx)], set())
        assert rsi.window.reports == [tx]
        assert rsi.stats.reports_sent == 1

    def test_broken_signature_dropped(self, rsi):
        tx = dataclasses.replace(report("v", ts=100), vehicle_sign=bytes(32))
        ingest(scheme, [(rsi, tx)], set())
        assert rsi.stats.sig_rejects == 1
        assert rsi.window.reports == []

    def test_stale_timestamp_dropped(self, rsi):
        rsi.window.opens_at, rsi.window.closes_at = 5000, 10000
        ingest(scheme, [(rsi, report("v", ts=100))], set())
        assert rsi.stats.stale == 1
        assert rsi.window.reports == []

    def test_batch_keeps_delivery_order_across_rsis(self, rsi):
        other = RsiState.fresh("r0_c1", key("rsi1"), window_ms=5000)
        good = [report(f"v{i}", ts=100) for i in range(3)]
        broken = dataclasses.replace(report("b", ts=100), vehicle_sign=bytes(32))
        stale = report("s", ts=6000)
        verified = set()
        ingest(scheme, [(rsi, good[0]), (other, broken), (other, good[1]),
                        (rsi, stale), (rsi, good[2])], verified)
        # every report whose signature verified, stale or not, and no other
        assert verified == set(map(data_tx_triple, good + [stale]))
        assert rsi.window.reports == [good[0], good[2]]
        assert other.window.reports == [good[1]]
        assert (rsi.stats.reports_sent, rsi.stats.stale, rsi.stats.sig_rejects) == (3, 1, 0)
        assert (other.stats.reports_sent, other.stats.stale, other.stats.sig_rejects) == (2, 0, 1)

    @pytest.mark.parametrize("signer", [KEYED_HASH, ED25519], ids=lambda s: s.name)
    def test_out_of_range_fields_counted_as_sig_rejects(self, signer, rsi):
        """Validly signed reports with a latitude out of range or a
        timestamp before 0 or past a u64, in a batch long enough for
        Ed25519's streamed verify."""
        def signed(label, loc, ts):
            k = signer.generate_keypair(sha256(label.encode()))
            sig = signer.sign(k, data_tx_signing_bytes(loc, ROAD_DAMAGE, ts, k.public))
            return DataTransaction(loc, ROAD_DAMAGE, ts, k.public, sig)

        good = [signed(f"v{i}", geo(0, 0), 100) for i in range(8)]
        far_north = signed("n", GeoPoint(90_000_001, 0), 100)
        before_epoch = dataclasses.replace(signed("e", geo(0, 0), 0), timestamp=-1)
        past_u64 = dataclasses.replace(signed("u", geo(0, 0), 0), timestamp=2**64)
        verified = set()
        ingest(signer, [(rsi, tx) for tx in good[:3] + [far_north] + good[3:6]
                        + [before_epoch] + good[6:] + [past_u64]], verified)
        assert (rsi.stats.reports_sent, rsi.stats.sig_rejects) == (11, 3)
        assert rsi.window.reports == good
        assert verified == set(map(data_tx_triple, good))


class TestCloseWindow:
    def test_trusted_cluster_emits_flag1_with_all_members(self, rsi):
        ingest(scheme, [(rsi, report(f"v{i}", ts=100)) for i in range(3)], set())
        txs = close_window(scheme, rsi, POLICY)
        assert len(txs) == 1
        tx = txs[0]
        assert tx.flag == 1
        assert len(tx.vehicle_signs) == 3
        assert rsi.stats.trusted_tx == 1
        # every member was individually verified at ingest; re-check oracle
        for pk, sig in zip(tx.vehicle_pks, tx.vehicle_signs):
            msg = data_tx_signing_bytes(tx.payload.loc, tx.payload.event,
                                        tx.payload.timestamp, pk)
            assert scheme.verify(pk, msg, sig)

    def test_lone_report_emits_flag0(self, rsi):
        ingest(scheme, [(rsi, report("solo", ts=100))], set())
        txs = close_window(scheme, rsi, POLICY)
        assert [t.flag for t in txs] == [0]
        assert rsi.stats.lone_tx == 1

    def test_rejected_minority_emits_nothing(self, rsi):
        ingest(scheme, [(rsi, report(f"v{i}", ts=100)) for i in range(3)]
               + [(rsi, report("liar", kind=CLEAR, ts=100))], set())
        txs = close_window(scheme, rsi, POLICY)
        assert len(txs) == 1
        assert txs[0].payload.event == ROAD_DAMAGE
        assert rsi.stats.rejected_reports == 1

    def test_divergent_but_compatible_members_not_carried(self, rsi):
        # three compatible reports, two byte-identical: only the exact
        # plurality can be carried verifiably
        ingest(scheme, [(rsi, report("a", x=0.0, ts=100)),
                        (rsi, report("b", x=0.0, ts=100)),
                        (rsi, report("c", x=10.0, ts=100))], set())
        txs = close_window(scheme, rsi, POLICY)
        assert len(txs) == 1
        assert len(txs[0].vehicle_signs) == 2
        assert rsi.stats.rejected_reports == 1

    def test_signs_without_re_verifying_members(self, rsi):
        # ingest verified every member; close_window must not verify again,
        # and every member it carries verifies against the payload under
        # the raw scheme
        counting = CountingScheme()
        ingest(counting, [(rsi, report(f"v{i}", ts=100)) for i in range(3)]
               + [(rsi, report("solo", x=500.0, ts=100))], set())
        at_ingest = counting.verify_calls()
        txs = close_window(counting, rsi, POLICY)
        assert counting.verify_calls() == at_ingest == 4
        assert [t.flag for t in txs] == [1, 0]
        for tx in txs:
            p = tx.payload
            for pk, sig in zip(tx.vehicle_pks, tx.vehicle_signs):
                assert scheme.verify(pk, data_tx_signing_bytes(
                    p.loc, p.event, p.timestamp, pk), sig)

    def test_next_window_opens(self, rsi):
        # as long as the window that closed
        close_window(scheme, rsi, POLICY)
        assert (rsi.window.opens_at, rsi.window.closes_at) == (5000, 10000)
        close_window(scheme, rsi, POLICY)
        assert (rsi.window.opens_at, rsi.window.closes_at) == (10000, 15000)


def test_emitted_reports_all_verify(rsi=None):
    rsi = RsiState.fresh("r0_c0", key("rsi"), window_ms=5000)
    ingest(scheme, [(rsi, report(f"v{i}", ts=100)) for i in range(4)], set())
    for tx in close_window(scheme, rsi, POLICY):
        assert verify_data_tx(scheme, build_data_tx(
            scheme, key("v0"), tx.payload.loc, tx.payload.event,
            tx.payload.timestamp))
