import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmap import market
from dmap.crypto import KEYED_HASH, KeyedHashScheme, issue_certificate, sha256
from dmap.encoding import canonical_encode
from dmap.ledger import (
    Ledger,
    MinerPolicy,
    append_admitted,
    append_block,
    dump_ledger,
    genesis,
    load_ledger,
)
from dmap.market import (
    AlreadyRegistered,
    CertError,
    DataDirectory,
    DENY_BAD_SIGNATURE,
    DENY_EXPIRED,
    DENY_NO_GRANT,
    DENY_SCOPE_EXCEEDED,
    Record,
    RuleTable,
    TargetError,
    build_access_tx,
    build_data_request,
    create_contract,
)
from dmap.rng import CounterRng
from dmap.sim import World
from dmap.txmodel import (
    CLEAR,
    EventKind,
    GRANT_CONTRACT_REF,
    GRANT_OWNER_SIG,
    GeoPoint,
    Grant,
    Payload,
    ROAD_DAMAGE,
    RangeError,
    RsiTransaction,
    Scope,
    build_rsi_tx,
    grant_signing_bytes,
)
from tests.conftest import CountingScheme, load_scenario_config
from tests.test_txmodel import key, make_members

scheme = KEYED_HASH
METERS_PER_DEGREE = 111_320.0


class NoSigning(KeyedHashScheme):
    """A scheme that fails any test reaching a signature."""

    def sign(self, key, message):
        raise AssertionError("signed")

REGIONS = ("r0_c0", "r0_c1")


def geo(x_m: float, y_m: float) -> GeoPoint:
    return GeoPoint(lat_micro=round(y_m / METERS_PER_DEGREE * 1e6),
                    lon_micro=round(x_m / METERS_PER_DEGREE * 1e6))


class Setup:
    def __init__(self):
        self.ca = key("ca")
        self.rsi_keys = {r: key(f"rsi-{r}") for r in REGIONS}
        self.certs = {r: issue_certificate(scheme, self.ca, k.public, r)
                      for r, k in self.rsi_keys.items()}
        registry = {k.public: self.certs[r]
                    for r, k in self.rsi_keys.items()}
        self.rt_key = key("ruletable")
        registry[self.rt_key.public] = issue_certificate(
            scheme, self.ca, self.rt_key.public, "ruletable")
        self.policy = MinerPolicy(m=2, ca_pk=self.ca.public,
                                  cert_registry=registry)
        self.ledgers = {r: genesis(r) for r in REGIONS}
        self.table = RuleTable(scheme, self.rt_key, self.policy, self.ledgers)
        for r in REGIONS:
            self.table.register_rsi_directory(self.certs[r])

    def chain_aggregate(self, region, payload, member_labels, now=1000):
        tx = build_rsi_tx(scheme, self.rsi_keys[region], payload,
                          make_members(payload, member_labels), flag=1)
        append_block(scheme, self.ledgers[region], [tx], now, self.policy)
        return tx

    def stored(self, region, payload, member_labels, now=1000):
        tx = self.chain_aggregate(region, payload, member_labels, now)
        self.table.read_chain()
        return self.table.directories[region].records[-1].record_id, tx


@pytest.fixture
def world():
    return Setup()


class TestRegistration:
    def test_bad_certificate_refused(self, world):
        impostor = key("impostor-ca")
        cert = issue_certificate(scheme, impostor, key("x").public, "r5_c5")
        with pytest.raises(CertError):
            world.table.register_rsi_directory(cert)

    def test_duplicate_region_refused(self, world):
        with pytest.raises(AlreadyRegistered):
            world.table.register_rsi_directory(world.certs["r0_c0"])


class TestStoreRecord:
    def test_chained_flag1_stored_with_provenance(self, world):
        payload = Payload(geo(10, 10), ROAD_DAMAGE, 500)
        rid, tx = world.stored("r0_c0", payload, ["a", "b"])
        rec = world.table.directories["r0_c0"].records[0]
        assert rec.record_id == rid
        assert rec.provenance == sha256(canonical_encode(tx))
        assert rec.owner_pks == tuple(tx.vehicle_pks)
        assert rec.size_bytes > 0


def rescanned_records(ledger):
    """Each aggregate chained on `ledger`, in chain order, as a record
    would hold it, its digest from a fresh encoding."""
    return [(sha256(canonical_encode(tx)), tx.payload, tuple(tx.vehicle_pks))
            for tx in ledger.all_txs() if isinstance(tx, RsiTransaction)]


class TestReadChain:
    def assert_agrees(self, world):
        for region in REGIONS:
            records = world.table.directories[region].records
            assert ([(r.provenance, r.payload, r.owner_pks) for r in records]
                    == rescanned_records(world.ledgers[region]))
            assert all(r.region_id == region for r in records)
        ids = sorted(r.record_id for d in world.table.directories.values()
                     for r in d.records)
        assert ids == list(range(len(ids)))

    def test_records_equal_a_rescan_after_each_append(self, world):
        sp = key("sp")
        scope = Scope(REGIONS, 0, 10_000, (ROAD_DAMAGE.code,))
        for b in range(3):
            world.chain_aggregate(REGIONS[b % 2],
                                  Payload(geo(10, 10 + b), ROAD_DAMAGE, 100 * b),
                                  [f"p{b}", f"q{b}"], now=1000 + b)
            world.table.read_chain()
            self.assert_agrees(world)
            # a contract block and an access block, then a block of two
            # aggregates per ledger beside a refused flag-0 one
            contract = create_contract(scheme, key("owner"), sp.public,
                                       (0, 10_000), scope, price=b)
            world.table.chain_contract(contract, now_ms=1100 + b)
            access = build_access_tx(scheme, sp, scope, Grant(
                kind=GRANT_CONTRACT_REF, contract_id=contract.contract_id()))
            assert world.table.evaluate_access(access, now_ms=1200 + b).granted
            batches = []
            for region in REGIONS:
                txs = []
                for i, flag in enumerate((1, 0, 1)):
                    payload = Payload(geo(20 + i, 20 + b), ROAD_DAMAGE,
                                      200 * b + i)
                    txs.append(build_rsi_tx(
                        scheme, world.rsi_keys[region], payload,
                        make_members(payload, [f"{region}{b}{i}a",
                                               f"{region}{b}{i}b"]), flag))
                batches.append((world.ledgers[region], txs))
            blocks = append_admitted(scheme, batches, 1300 + b, world.policy)
            assert [len(block.txs) for block in blocks] == [2, 2]
            world.table.read_chain()
            self.assert_agrees(world)
        assert sum(len(d.records) for d in world.table.directories.values()) == 15

    @pytest.mark.parametrize("fault", ["flag0", "uncertified", "wrong_ledger",
                                       "unchained"])
    def test_refused_aggregate_never_becomes_a_record(self, world, fault):
        # admission refuses it, and the table stores only what it reads
        # off the chain
        payload = Payload(geo(10, 10), ROAD_DAMAGE, 500)
        rsi_key = {"uncertified": key("rogue"),
                   "wrong_ledger": world.rsi_keys["r0_c1"]
                   }.get(fault, world.rsi_keys["r0_c0"])
        tx = build_rsi_tx(scheme, rsi_key, payload,
                          make_members(payload, ["a", "b"]),
                          flag=int(fault != "flag0"))
        if fault != "unchained":
            assert append_admitted(scheme, [(world.ledgers["r0_c0"], [tx])],
                                   1000, world.policy) == [None]
        world.table.read_chain()
        _, chained = world.stored("r0_c0", payload, ["c", "d"])
        assert [r.provenance for d in world.table.directories.values()
                for r in d.records] == [chained.digest]

    def test_reads_a_loaded_ledger_as_the_original(self, world):
        for b in range(3):
            world.chain_aggregate(REGIONS[b % 2],
                                  Payload(geo(10, 10 + b), ROAD_DAMAGE, 100 * b),
                                  [f"p{b}", f"q{b}"])
        world.table.read_chain()
        loaded = {r: load_ledger(dump_ledger(ledger))
                  for r, ledger in world.ledgers.items()}
        table = RuleTable(scheme, world.rt_key, world.policy, loaded)
        for r in REGIONS:
            table.register_rsi_directory(world.certs[r])
        table.read_chain()
        assert table.directories == world.table.directories


class TestCreateContract:
    def test_empty_timespan_refused(self, world):
        scope = Scope(("r0_c0",), 0, 1000, (0,))
        with pytest.raises(RangeError):
            create_contract(scheme, key("owner"), key("sp").public,
                            (5000, 5000), scope, price=10)

    def test_inverted_timespan_refused(self, world):
        scope = Scope(("r0_c0",), 0, 1000, (0,))
        with pytest.raises(RangeError):
            create_contract(scheme, key("owner"), key("sp").public,
                            (6000, 5000), scope, price=10)

    def test_negative_price_refused(self, world):
        scope = Scope(("r0_c0",), 0, 1000, (0,))
        with pytest.raises(RangeError):
            create_contract(scheme, key("owner"), key("sp").public,
                            (0, 5000), scope, price=-1)

    @pytest.mark.parametrize("timespan, period, kinds, price", [
        ((0, 2**64), (0, 1000), (0,), 0),
        ((-5, 10), (0, 1000), (0,), 0),
        ((0, 5000), (0, 1000), (0,), 2**64),
        ((0, 5000), (-1, 10), (0,), 0),
        ((0, 5000), (0, 1000), (256,), 0),
        ((0, 5000), (0, 1000), (len(EventKind.CODE_NAMES),), 0),
        ((0, 5000), (5000, 1000), (0,), 0),
    ], ids=["end_past_u64", "negative_start", "price_past_u64",
            "negative_scope_from", "kind_code_past_u8", "kind_code_of_no_kind",
            "inverted_scope_period"])
    def test_field_out_of_range_refused(self, timespan, period, kinds, price):
        scope = Scope(("r0_c0",), *period, kinds)
        with pytest.raises(RangeError):
            create_contract(scheme, key("owner"), key("sp").public,
                            timespan, scope, price)

    def test_u64_edges_valid(self):
        scope = Scope(("r0_c0",), 0, 2**64 - 1, tuple(range(len(EventKind.CODE_NAMES))))
        c = create_contract(scheme, key("owner"), key("sp").public,
                            (0, 2**64 - 1), scope, 2**64 - 1)
        assert (c.end_ms, c.scope.to_ms, c.price) == (2**64 - 1,) * 3

    def test_zero_price_valid(self, world):
        scope = Scope(("r0_c0",), 0, 1000, (0,))
        c = create_contract(scheme, key("owner"), key("sp").public,
                            (0, 5000), scope, price=0)
        assert c.price == 0
        assert len(c.contract_id()) == 32


class TestAccessTx:
    @pytest.mark.parametrize("period, kinds", [
        ((-1, 1000), (0,)),
        ((0, 2**64), (0,)),
        ((0, 1000), (256,)),
        ((0, 1000), (len(EventKind.CODE_NAMES),)),
        ((5000, 1000), (0,)),
    ], ids=["negative_from", "to_past_u64", "kind_code_past_u8",
            "kind_code_of_no_kind", "inverted_period"])
    def test_query_out_of_range_refused(self, period, kinds):
        query = Scope(("r0_c0",), *period, kinds)
        grant = Grant(kind=GRANT_CONTRACT_REF, contract_id=bytes(32))
        with pytest.raises(RangeError):
            build_access_tx(NoSigning(), key("sp"), query, grant)


def contract_access(world, sp, contract, query=None, now=100):
    cid = contract.contract_id()
    query = query or contract.scope
    tx = build_access_tx(scheme, sp,
                         query, Grant(kind=GRANT_CONTRACT_REF, contract_id=cid))
    return world.table.evaluate_access(tx, now_ms=now)


class TestContractAccess:
    def seed_records(self, world):
        ids = []
        for i, region in enumerate(REGIONS):
            payload = Payload(geo(100 + i * 30, 100), ROAD_DAMAGE, 500 + i)
            rid, _ = world.stored(region, payload, [f"o{i}a", f"o{i}b"])
            ids.append(rid)
        return ids

    def grantable(self, world, sp, scope=None, span=(0, 10_000)):
        scope = scope or Scope(REGIONS, 0, 2000, (0,))
        contract = create_contract(scheme, key("owner"), sp.public, span,
                                   scope, price=5)
        world.table.chain_contract(contract, now_ms=50)
        return contract

    def test_valid_grant_serves_and_chains(self, world):
        ids = self.seed_records(world)
        sp = key("sp")
        contract = self.grantable(world, sp)
        res = contract_access(world, sp, contract)
        assert res.granted
        assert sorted(r.record_id for r in res.records) == ids
        # countersigned by the rule table and chained on the serving region
        assert res.access_tx.is_approved()
        serving = min(r.region_id for r in res.records)
        chained = [tx for tx in world.ledgers[serving].all_txs()
                   if tx == res.access_tx]
        assert len(chained) == 1

    def test_unknown_contract_denied(self, world):
        sp = key("sp")
        tx = build_access_tx(scheme, sp, Scope(REGIONS, 0, 2000, (0,)),
                             Grant(kind=GRANT_CONTRACT_REF,
                                   contract_id=bytes(32)))
        res = world.table.evaluate_access(tx, now_ms=100)
        assert not res.granted
        assert res.reason == DENY_NO_GRANT

    def test_wrong_grantee_denied(self, world):
        contract = self.grantable(world, key("sp"))
        res = contract_access(world, key("someone-else"), contract)
        assert res.reason == DENY_NO_GRANT

    def test_expiry_is_half_open(self, world):
        # interval oracle: start admitted, end excluded
        sp = key("sp")
        contract = self.grantable(world, sp, span=(1000, 9000))
        assert contract_access(world, sp, contract, now=1000).granted
        assert contract_access(world, sp, contract, now=8999).granted
        res = contract_access(world, sp, contract, now=9000)
        assert res.reason == DENY_EXPIRED
        assert contract_access(world, sp, contract, now=999).reason == DENY_EXPIRED

    def test_query_outside_scope_denied(self, world):
        sp = key("sp")
        contract = self.grantable(world, sp,
                                  scope=Scope(("r0_c0",), 0, 2000, (0,)))
        wide = Scope(REGIONS, 0, 2000, (0,))
        res = contract_access(world, sp, contract, query=wide)
        assert res.reason == DENY_SCOPE_EXCEEDED
        period = Scope(("r0_c0",), 0, 70_000, (0,))
        assert contract_access(world, sp, contract,
                               query=period).reason == DENY_SCOPE_EXCEEDED
        kinds = Scope(("r0_c0",), 0, 2000, (0, 4))
        assert contract_access(world, sp, contract,
                               query=kinds).reason == DENY_SCOPE_EXCEEDED

    def test_broken_requester_signature_denied(self, world):
        sp = key("sp")
        contract = self.grantable(world, sp)
        tx = build_access_tx(scheme, sp, contract.scope,
                             Grant(kind=GRANT_CONTRACT_REF,
                                   contract_id=contract.contract_id()))
        forged = dataclasses.replace(tx, requester_sign=bytes(32))
        res = world.table.evaluate_access(forged, now_ms=100)
        assert res.reason == DENY_BAD_SIGNATURE

    def test_region_named_twice_is_served_once(self, world):
        ids = self.seed_records(world)
        sp = key("sp")
        contract = self.grantable(world, sp)
        twice = Scope(("r0_c0", "r0_c0"), 0, 2000, (0,))
        res = contract_access(world, sp, contract, query=twice)
        assert res.granted
        assert [r.record_id for r in res.records] == ids[:1]

    @pytest.mark.parametrize("kind", [GRANT_CONTRACT_REF, GRANT_OWNER_SIG])
    def test_granted_access_verifies_each_signature_once(self, world, kind):
        # admission answers the requester triple that evaluate_access
        # verified, which needs the approved form's requester message to
        # be the request's bytes; it verifies the countersignature, and
        # the rule table's certificate is in the memo after one grant
        sp, owner = key("sp"), key("owner")
        contract = self.grantable(world, sp)
        assert contract_access(world, sp, contract).granted
        query = Scope(("r0_c0",), 0, 2000, (0,))
        if kind == GRANT_CONTRACT_REF:
            grant = Grant(kind=kind, contract_id=contract.contract_id())
        else:
            grant = owner_grant(owner, sp, query)
        tx = build_access_tx(scheme, sp, query, grant)
        world.table.scheme = counting = CountingScheme()
        res = world.table.evaluate_access(tx, now_ms=100)
        assert res.granted
        assert res.access_tx.requester_message() == tx.requester_message()
        expected = {sp.public: 1, world.rt_key.public: 1}
        if kind == GRANT_OWNER_SIG:
            expected[owner.public] = 1
        assert counting.verified == expected

    @pytest.mark.parametrize("regions", [("r9_c9",), ("r0_c0", "r9_c9")])
    @pytest.mark.parametrize("kind", [GRANT_CONTRACT_REF, GRANT_OWNER_SIG])
    def test_query_naming_a_region_without_ledger_denied(self, world, kind,
                                                         regions):
        # no ledger of the query could chain the access
        self.seed_records(world)
        sp, owner = key("sp"), key("o0a")
        query = Scope(regions, 0, 2000, (0,))
        if kind == GRANT_CONTRACT_REF:
            contract = self.grantable(world, sp, scope=query)
            grant = Grant(kind=kind, contract_id=contract.contract_id())
        else:
            grant = owner_grant(owner, sp, query)
        heights = {r: world.ledgers[r].tip.height for r in REGIONS}
        res = world.table.evaluate_access(
            build_access_tx(scheme, sp, query, grant), now_ms=100)
        assert res.reason == DENY_SCOPE_EXCEEDED and not res.records
        assert {r: world.ledgers[r].tip.height for r in REGIONS} == heights

    def test_nothing_chained_on_denial(self, world):
        sp = key("sp")
        heights = {r: world.ledgers[r].tip.height for r in REGIONS}
        tx = build_access_tx(scheme, sp, Scope(REGIONS, 0, 2000, (0,)),
                             Grant(kind=GRANT_CONTRACT_REF,
                                   contract_id=bytes(32)))
        world.table.evaluate_access(tx, now_ms=100)
        assert {r: world.ledgers[r].tip.height for r in REGIONS} == heights


def owner_grant(owner, sp, query):
    return Grant(kind=GRANT_OWNER_SIG, owner_pk=owner.public,
                 owner_sign=scheme.sign(owner,
                                        grant_signing_bytes(sp.public, query)))


class TestOwnerSigAccess:
    def test_owner_grant_serves_only_owned_records(self, world):
        payload_a = Payload(geo(10, 10), ROAD_DAMAGE, 500)
        rid_a, tx_a = world.stored("r0_c0", payload_a, ["owner-a", "other1"])
        payload_b = Payload(geo(40, 10), ROAD_DAMAGE, 600)
        world.stored("r0_c0", payload_b, ["other2", "other3"])
        owner = key("owner-a")
        assert owner.public in tx_a.vehicle_pks
        sp = key("sp")
        query = Scope(("r0_c0",), 0, 2000, (0,))
        res = world.table.evaluate_access(
            build_access_tx(scheme, sp, query, owner_grant(owner, sp, query)),
            now_ms=700)
        assert res.granted
        assert [r.record_id for r in res.records] == [rid_a]

    def test_forged_owner_signature_denied(self, world):
        sp = key("sp")
        query = Scope(("r0_c0",), 0, 2000, (0,))
        grant = Grant(kind=GRANT_OWNER_SIG, owner_pk=key("owner-a").public,
                      owner_sign=bytes(32))
        res = world.table.evaluate_access(
            build_access_tx(scheme, sp, query, grant), now_ms=700)
        assert res.reason == DENY_BAD_SIGNATURE


class TestDataRequest:
    def test_empty_targets_refused(self):
        with pytest.raises(TargetError):
            build_data_request(scheme, key("sp"), geo(0, 0), geo(100, 100),
                               0, 1000, [])

    def test_degenerate_area_refused(self):
        with pytest.raises(TargetError):
            build_data_request(scheme, key("sp"), geo(100, 100), geo(100, 200),
                               0, 1000, ["r0_c0"])

    def test_inverted_period_refused(self):
        with pytest.raises(TargetError):
            build_data_request(scheme, key("sp"), geo(0, 0), geo(100, 100),
                               2000, 1000, ["r0_c0"])

    @pytest.mark.parametrize("period", [(-1, 1000), (0, 2**64)],
                             ids=["negative_from", "to_past_u64"])
    def test_period_out_of_range_refused(self, period):
        with pytest.raises(RangeError):
            build_data_request(scheme, key("sp"), geo(0, 0), geo(100, 100),
                               *period, ["r0_c0"])

    @pytest.mark.parametrize("area_min, area_max", [
        (GeoPoint(-2**40, 0), GeoPoint(1000, 1000)),
        (GeoPoint(-91_000_000, 0), GeoPoint(1000, 1000)),
        (GeoPoint(0, 0), GeoPoint(1000, 181_000_000)),
    ], ids=["corner_past_i32", "latitude_past_90", "longitude_past_180"])
    def test_area_out_of_range_refused(self, area_min, area_max):
        with pytest.raises(RangeError):
            build_data_request(NoSigning(), key("sp"), area_min, area_max,
                               0, 1000, ["r0_c0"])

    def test_well_formed_request_signed(self):
        req = build_data_request(scheme, key("sp"), geo(0, 0), geo(100, 100),
                                 0, 1000, ["r0_c0"])
        from dmap.txmodel import data_request_signing_bytes

        assert scheme.verify(req.sp_pk,
                             data_request_signing_bytes(
                                 req.sp_pk, req.area_min, req.area_max,
                                 req.from_ms, req.to_ms, req.target_regions),
                             req.sp_sign)
        assert req.target_regions == ("r0_c0",)


class TestAvailability:
    def populate(self, world, n=60):
        rng = CounterRng(7, "availability")
        records = []
        for i in range(n):
            region = REGIONS[i % 2]
            payload = Payload(geo(rng.uniform(0, 3000), rng.uniform(0, 3000)),
                              ROAD_DAMAGE if i % 3 else CLEAR,
                              rng.randint(0, 300_000))
            rid, _ = world.stored(region, payload,
                                  [f"p{i}a", f"p{i}b"], now=1000 + i)
            records.append(world.table.directories[region].records[-1])
        return records

    def oracle(self, records, area_min, area_max, from_ms, to_ms):
        count, volume = 0, 0
        for r in records:
            p = r.payload
            if (area_min.lat_micro <= p.loc.lat_micro <= area_max.lat_micro
                    and area_min.lon_micro <= p.loc.lon_micro <= area_max.lon_micro
                    and from_ms <= p.timestamp < to_ms):
                count += 1
                volume += r.size_bytes
        return count, volume

    def test_matches_linear_scan_oracle(self, world):
        records = self.populate(world)
        rng = CounterRng(8, "queries")
        nonempty = 0
        for _ in range(30):
            x0, x1 = sorted((rng.uniform(0, 3000), rng.uniform(0, 3000)))
            y0, y1 = sorted((rng.uniform(0, 3000), rng.uniform(0, 3000)))
            t0 = rng.randint(0, 300_000)
            t1 = t0 + rng.randint(0, 150_000)
            got = world.table.query_availability(geo(x0, y0), geo(x1, y1),
                                                 t0, t1)
            want = self.oracle(records, geo(x0, y0), geo(x1, y1), t0, t1)
            assert got == want
            nonempty += got[0] > 0
        assert nonempty > 0  # the sweep must exercise non-trivial queries

    def test_edges_corners_and_period_bounds(self, world):
        # the area straddles (0, 0), so records sit at negative lat/lon;
        # space is closed at both ends, time is [from_ms, to_ms)
        lo, hi = GeoPoint(-2_000, -3_000), GeoPoint(1_500, 2_500)
        from_ms, to_ms = 60_000, 120_000
        lats = (lo.lat_micro, 0, hi.lat_micro)
        lons = (lo.lon_micro, 0, hi.lon_micro)
        # four corners, four edge midpoints and the centre
        inside = [GeoPoint(a, b) for a in lats for b in lons]
        outside = [GeoPoint(lo.lat_micro - 1, 0), GeoPoint(hi.lat_micro + 1, 0),
                   GeoPoint(0, lo.lon_micro - 1), GeoPoint(0, hi.lon_micro + 1)]
        times = ((from_ms, True), (to_ms - 1, True), (to_ms, False),
                 (from_ms - 1, False))
        count, volume, i = 0, 0, 0
        for loc in inside + outside:
            for t, in_period in times:
                region = REGIONS[i % 2]
                world.stored(region, Payload(loc, ROAD_DAMAGE, t),
                             [f"e{i}a", f"e{i}b"], now=1000 + i)
                if loc in inside and in_period:
                    count += 1
                    volume += world.table.directories[region].records[-1].size_bytes
                i += 1
        assert count == 18
        assert world.table.query_availability(lo, hi, from_ms, to_ms) == (count, volume)
        for t in (from_ms, to_ms - 1, to_ms):
            assert world.table.query_availability(lo, hi, t, t) == (0, 0)

    def test_covering_query_counts_everything(self, world):
        records = self.populate(world, n=20)
        count, volume = world.table.query_availability(
            geo(-1, -1), geo(4000, 4000), 0, 400_000)
        assert count == len(records)
        assert volume == sum(r.size_bytes for r in records)


# --- grouped queries against the linear scans they replaced -------------------

def scan_matching(table, query):
    """`RuleTable._matching_records` as a scan of every record, each region
    once."""
    out = []
    for rid in sorted(set(query.region_ids)):
        directory = table.directories.get(rid)
        if directory is None:
            continue
        for r in directory.records:
            if (query.from_ms <= r.payload.timestamp < query.to_ms
                    and r.payload.event.code in query.kind_codes):
                out.append(r)
    return out


def scan_availability(table, area_min, area_max, from_ms, to_ms):
    """`RuleTable.query_availability` as a scan of every record."""
    count = 0
    volume = 0
    for directory in table.directories.values():
        for r in directory.records:
            p = r.payload
            if (area_min.lat_micro <= p.loc.lat_micro <= area_max.lat_micro
                    and area_min.lon_micro <= p.loc.lon_micro <= area_max.lon_micro
                    and from_ms <= p.timestamp < to_ms):
                count += 1
                volume += r.size_bytes
    return count, volume


# places on both sides of (0, 0), and area corners on and next to them
LATS, LONS = (-300, 0, 400), (-500, 0, 200)
PLACES = tuple(GeoPoint(lat, lon) for lat in LATS for lon in LONS)
kinds = st.one_of(st.sampled_from((0, 1, 3, 4)).map(EventKind),
                  st.sampled_from((0, 30, 80)).map(lambda v: EventKind(2, v)))
# timestamps from a narrow range, so that many are equal and out of order
times = st.integers(0, 12)


@st.composite
def batches(draw):
    """Batches of records, each a (region, payload, size) list. Locations
    are all distinct, or drawn with kinds from small pools so that
    records share groups."""
    distinct = draw(st.booleans())
    places = draw(st.lists(st.sampled_from(PLACES), min_size=1, max_size=3))
    pool = draw(st.lists(kinds, min_size=1, max_size=3))
    out, n = [], 0
    for _ in range(draw(st.integers(1, 4))):
        batch = []
        for _ in range(draw(st.integers(0, 12))):
            loc = (GeoPoint(LATS[n % 3] + n // 3, LONS[n % 3] - n // 3)
                   if distinct else draw(st.sampled_from(places)))
            kind = draw(kinds if distinct else st.sampled_from(pool))
            batch.append((draw(st.sampled_from(REGIONS)),
                          Payload(loc, kind, draw(times)),
                          draw(st.integers(1, 1000))))
            n += 1
        out.append(batch)
    return out


def near(values):
    return st.sampled_from(sorted({v + d for v in values for d in (-1, 0, 1)}))


def corners(lats, lons):
    return (GeoPoint(min(lats), min(lons)), GeoPoint(max(lats), max(lons)))


periods = st.tuples(st.integers(-1, 14), st.integers(-1, 14))
areas = st.one_of(
    st.builds(lambda a, b: corners((a.lat_micro, b.lat_micro),
                                   (a.lon_micro, b.lon_micro)),
              st.sampled_from(PLACES), st.sampled_from(PLACES)),
    st.builds(corners, st.tuples(near(LATS), near(LATS)),
              st.tuples(near(LONS), near(LONS))))
queries = st.builds(
    lambda regions, period, codes: Scope(tuple(regions), *period, tuple(codes)),
    st.lists(st.sampled_from(REGIONS + ("r9_c9",)), max_size=4),
    periods, st.lists(st.integers(0, 4), max_size=5))


class TestGroupedQueries:
    """Records are stored and indexed a batch at a time, with queries after
    each batch."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(batches=batches(), asks=st.lists(
        st.tuples(queries, areas, periods), min_size=1, max_size=4))
    def test_equal_to_linear_scans(self, batches, asks):
        table = RuleTable(scheme, key("ruletable"), None, {})
        table.directories = {r: DataDirectory(r) for r in REGIONS}
        record_id = 0
        for batch in batches:
            for region, payload, size in batch:
                table._append(Record(record_id, region, payload, b"", (), size))
                record_id += 1
            for query, (lo, hi), period in asks:
                got = table._matching_records(query)
                assert got == scan_matching(table, query)
                assert (table.query_availability(lo, hi, *period)
                        == scan_availability(table, lo, hi, *period))


def spy_appends(monkeypatch, cls):
    """Wrap `cls.add`; the returned list says, per call, whether the time
    went after every time its group held."""
    appends = []
    add = cls.add

    def spy(group, time, value):
        appends.append(not group.times or group.times[-1] <= time)
        add(group, time, value)

    monkeypatch.setattr(cls, "add", spy)
    return appends


class TestIndexes:
    def test_stores_across_directories_append(self, monkeypatch):
        """Three directories store at one place over 50 windows: every add
        is an append, and reads add nothing."""
        regions = ("r0_c0", "r0_c1", "r1_c0")
        table = RuleTable(scheme, key("ruletable"), None, {})
        table.directories = {r: DataDirectory(r) for r in regions}
        places = spy_appends(monkeypatch, market._Place)
        kinds = spy_appends(monkeypatch, market._Kind)
        place = GeoPoint(1000, 2000)
        record_id = 0
        for window in range(50):
            kind = (ROAD_DAMAGE, CLEAR)[window % 2]
            for i, region in enumerate(regions):
                # the first two regions tie within a window
                payload = Payload(place, kind, 5000 * window + 2000 * (i // 2))
                table._append(Record(record_id, region, payload, b"", (),
                                     10 + record_id))
                record_id += 1
        assert len(places) == len(kinds) == 150
        assert all(places) and all(kinds)
        lo, hi = GeoPoint(0, 0), GeoPoint(2000, 3000)
        everything = (150, 150 * 10 + sum(range(150)))
        assert table.query_availability(lo, hi, 0, 250_000) == everything
        assert scan_availability(table, lo, hi, 0, 250_000) == everything
        for period in ((0, 1), (12_000, 99_000), (2000, 2001)):
            assert (table.query_availability(lo, hi, *period)
                    == scan_availability(table, lo, hi, *period))
            query = Scope(regions, *period, (ROAD_DAMAGE.code, CLEAR.code))
            assert table._matching_records(query) == scan_matching(table, query)
        assert len(places) == len(kinds) == 150  # the reads added nothing

    def test_one_group_per_place_and_per_region_kind(self):
        world = World(load_scenario_config("honest_majority"))
        world.run()
        table = world.rule_table
        records = [r for d in table.directories.values() for r in d.records]
        assert records
        assert set(table._places) == {
            (r.payload.loc.lat_micro, r.payload.loc.lon_micro) for r in records}
        assert table._kinds.keys() == {
            rid for rid, d in table.directories.items() if d.records}
        for rid, kinds in table._kinds.items():
            assert set(kinds) == {
                r.payload.event.code for r in table.directories[rid].records}
