import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmap import ledger as ledger_module
from dmap.crypto import KEYED_HASH, ZERO_DIGEST, issue_certificate, sha256
from dmap.edge import RsiState, ingest
from dmap.encoding import DecodeError, canonical_encode
from dmap.ledger import (
    LEDGER_DUMP_MAGIC,
    AdmissionError,
    Block,
    EmptyBlockError,
    Ledger,
    MinerPolicy,
    admit_all,
    append_admitted,
    append_block,
    dump_ledger,
    genesis,
    load_ledger,
    lookup_access_log,
    miner_admit,
    validate_chain,
)
from dmap.market import build_access_tx, create_contract
from dmap.rng import CounterRng
from dmap.txmodel import (
    GRANT_CONTRACT_REF,
    Grant,
    Payload,
    ROAD_DAMAGE,
    RsiTransaction,
    Scope,
    build_data_tx,
    build_rsi_tx,
    member_triples,
)
from tests.conftest import CountingScheme
from tests.test_market import Setup as MarketSetup
from tests.test_market import geo as market_geo
from tests.test_txmodel import key, make_members, sample_loc

scheme = KEYED_HASH


@pytest.fixture
def setup():
    ca = key("ca")
    rsi_key = key("rsi")
    cert = issue_certificate(scheme, ca, rsi_key.public, "r0_c0")
    policy = MinerPolicy(m=2, ca_pk=ca.public,
                         cert_registry={rsi_key.public: cert})
    return ca, rsi_key, policy


def make_tx(rsi_key, ts=500, flag=1, labels=("a", "b", "c")):
    payload = Payload(sample_loc(), ROAD_DAMAGE, ts)
    return build_rsi_tx(scheme, rsi_key, payload,
                        make_members(payload, list(labels)), flag=flag)


def build_chain(rsi_key, policy, n_blocks=10, txs_per_block=2):
    ledger = genesis("r0_c0")
    for b in range(n_blocks):
        txs = [make_tx(rsi_key, ts=b * 100 + i, labels=(f"x{b}_{i}", f"y{b}_{i}"))
               for i in range(txs_per_block)]
        append_block(scheme, ledger, txs, (b + 1) * 1000, policy)
    return ledger


class TestGenesis:
    def test_height_zero(self):
        assert genesis("r").blocks[0].height == 0

    def test_prev_hash_all_zeros(self):
        assert genesis("r").blocks[0].prev_hash == ZERO_DIGEST

    def test_fresh_chain_valid(self):
        assert validate_chain(genesis("r")).ok


class TestMinerAdmit:
    def test_valid_flag1_accepted(self, setup):
        _, rsi_key, policy = setup
        verdict = miner_admit(scheme, make_tx(rsi_key), policy, "r0_c0")
        assert verdict.accepted

    def test_flag0_rejected(self, setup):
        _, rsi_key, policy = setup
        verdict = miner_admit(scheme, make_tx(rsi_key, flag=0), policy, "r0_c0")
        assert not verdict.accepted
        assert verdict.reason == "Untrusted"

    def test_wrong_region_rejected(self, setup):
        _, rsi_key, policy = setup
        verdict = miner_admit(scheme, make_tx(rsi_key), policy, "r1_c1")
        assert verdict.reason == "WrongLedger"


class TestAppendBlock:
    def test_height_increments(self, setup):
        _, rsi_key, policy = setup
        ledger = genesis("r0_c0")
        append_block(scheme, ledger,
                     [make_tx(rsi_key, labels=(f"v{i}", f"w{i}"))
                      for i in range(3)], 1000, policy)
        assert ledger.tip.height == 1

    def test_prev_hash_links_to_old_tip(self, setup):
        _, rsi_key, policy = setup
        ledger = genesis("r0_c0")
        old_tip_hash = ledger.tip.block_hash
        block = append_block(scheme, ledger, [make_tx(rsi_key)], 1000, policy)
        assert block.prev_hash == old_tip_hash

    def test_empty_block_refused(self, setup):
        _, rsi_key, policy = setup
        with pytest.raises(EmptyBlockError):
            append_block(scheme, genesis("r0_c0"), [], 1000, policy)

    def test_unadmitted_tx_refused(self, setup):
        _, rsi_key, policy = setup
        with pytest.raises(AdmissionError):
            append_block(scheme, genesis("r0_c0"),
                         [make_tx(rsi_key, flag=0)], 1000, policy)


class TestAppendAdmitted:
    @pytest.fixture
    def batch(self, setup):
        """flag-1, flag-0, another region's aggregate, flag-1."""
        ca, rsi_key, policy = setup
        other = key("rsi-other")
        policy.cert_registry[other.public] = issue_certificate(
            scheme, ca, other.public, "r1_c1")
        return policy, [
            make_tx(rsi_key, ts=100, labels=("a1", "b1")),
            make_tx(rsi_key, ts=200, flag=0, labels=("a2", "b2")),
            make_tx(other, ts=300, labels=("a3", "b3")),
            make_tx(rsi_key, ts=400, labels=("a4", "b4")),
        ]

    def test_mixed_batch_chains_admitted_in_input_order(self, batch):
        policy, txs = batch
        ledger = genesis("r0_c0")
        block, = append_admitted(scheme, [(ledger, txs)], 1000, policy)
        assert block is ledger.tip
        assert block.height == 1
        assert block.txs == (txs[0], txs[3])
        assert validate_chain(ledger).ok

    def test_same_block_as_append_block_over_admitted(self, batch):
        policy, txs = batch
        via_admitted = genesis("r0_c0")
        via_strict = genesis("r0_c0")
        append_admitted(scheme, [(via_admitted, txs)], 1000, policy)
        append_block(scheme, via_strict, [txs[0], txs[3]], 1000, policy)
        assert via_admitted.tip == via_strict.tip

    def test_each_ledger_chains_its_own_in_one_batch(self, batch):
        # the other region's aggregate is refused on r0_c0 and chained on
        # r1_c1, where the rest are refused
        policy, txs = batch
        r0, r1 = genesis("r0_c0"), genesis("r1_c1")
        b0, b1 = append_admitted(scheme, [(r0, txs), (r1, txs)], 1000, policy)
        assert b0.txs == (txs[0], txs[3]) and r0.tip is b0
        assert b1.txs == (txs[2],) and r1.tip is b1

    def test_all_rejected_returns_none_and_leaves_ledger(self, batch):
        policy, txs = batch
        ledger = genesis("r0_c0")
        tip = ledger.tip
        assert append_admitted(scheme, [(ledger, txs[1:3])], 1000, policy) == [None]
        assert append_admitted(scheme, [(ledger, [])], 1000, policy) == [None]
        assert ledger.tip is tip

    def test_member_signatures_verified_once(self, batch):
        policy, txs = batch
        counting = CountingScheme()
        append_admitted(counting, [(genesis("r0_c0"), txs)], 1000, policy)
        for tx in (txs[0], txs[3]):
            for pk in tx.vehicle_pks:
                assert counting.verified[pk] == 1
        # the flag-0 aggregate is refused on its flag, and the misdirected
        # one on its certificate's region, before any signature check
        for tx in (txs[1], txs[2]):
            for pk in tx.vehicle_pks:
                assert counting.verified[pk] == 0
        # one RSI signature verified per chained aggregate, none for the
        # other region's RSI
        assert counting.verified[txs[0].rsi_pk] == 2
        assert counting.verified[txs[2].rsi_pk] == 0


def approved_access_tx(ca, policy):
    """An access tx countersigned by a certified rule table."""
    rt_key = key("ruletable")
    policy.cert_registry[rt_key.public] = issue_certificate(
        scheme, ca, rt_key.public, "ruletable")
    tx = build_access_tx(scheme, key("sp"), Scope(("r0_c0",), 0, 100, (0,)),
                         Grant(kind=GRANT_CONTRACT_REF, contract_id=bytes(32)))
    tx = dataclasses.replace(tx, ruletable_pk=rt_key.public)
    return dataclasses.replace(tx, ruletable_sign=scheme.sign(
        rt_key, tx.countersigned_message()))


class TestAdmitAll:
    def test_batch_verdicts_equal_one_by_one(self, setup):
        ca, rsi_key, policy = setup
        good = make_tx(rsi_key, ts=1)
        access = approved_access_tx(ca, policy)
        candidates = [
            (good, "r0_c0"),
            (make_tx(rsi_key, ts=2, flag=0), "r0_c0"),
            (dataclasses.replace(good, rsi_sign=bytes(32)), "r0_c0"),
            (dataclasses.replace(good, vehicle_signs=(bytes(32),)
                                 + good.vehicle_signs[1:]), "r0_c0"),
            (good, "r1_c1"),
            (access, "r0_c0"),
            (dataclasses.replace(access, ruletable_sign=bytes(32)), "r0_c0"),
            (dataclasses.replace(access, requester_sign=bytes(32)), "r0_c0"),
        ]
        batched = admit_all(scheme, candidates, dataclasses.replace(
            policy, verified_certs=set()))
        alone = [miner_admit(scheme, tx, dataclasses.replace(
            policy, verified_certs=set()), region) for tx, region in candidates]
        assert batched == alone
        assert [v.reason for v in batched] == [
            "", "Untrusted", "BadRsiSignature", "BadRsiSignature",
            "WrongLedger", "", "BadRuleTableSignature",
            "BadRequesterSignature"]


class TestCertificateMemo:
    def test_certificate_verified_once_per_batch(self, setup):
        ca, rsi_key, policy = setup
        candidates = [(make_tx(rsi_key, ts=ts), "r0_c0") for ts in (1, 2)]
        counting = CountingScheme()
        assert all(v.accepted for v in admit_all(counting, candidates, policy))
        assert counting.verified[ca.public] == 1
        # without the memo, as the sweep replays admission, once per tx
        counting = CountingScheme()
        admit_all(counting, candidates,
                  dataclasses.replace(policy, verified_certs=None))
        assert counting.verified[ca.public] == 2

    def test_certificate_verified_once_across_admissions(self, setup):
        ca, rsi_key, policy = setup
        counting = CountingScheme()
        access = approved_access_tx(ca, policy)
        for tx in (make_tx(rsi_key, ts=1), make_tx(rsi_key, ts=2), access,
                   access):
            assert miner_admit(counting, tx, policy, "r0_c0").accepted
        # one verify per certificate: the RSI's and the rule table's
        assert counting.verified[ca.public] == 2

    @pytest.mark.parametrize("forge", [
        {"ca_signature": bytes(32)},
        {"region_id": "r9_c9"},
    ], ids=lambda f: next(iter(f)))
    def test_forged_certificate_misses_the_memo(self, setup, forge):
        ca, rsi_key, policy = setup
        access = approved_access_tx(ca, policy)
        rt_pk = access.ruletable_pk
        tx = make_tx(rsi_key)
        assert miner_admit(scheme, tx, policy, "r0_c0").accepted
        assert miner_admit(scheme, access, policy, "r0_c0").accepted
        for pk in (rsi_key.public, rt_pk):
            policy.cert_registry[pk] = dataclasses.replace(
                policy.cert_registry[pk], **forge)
        region = policy.cert_registry[rsi_key.public].region_id
        assert (miner_admit(scheme, tx, policy, region).reason
                == "UncertifiedRsi")
        assert (miner_admit(scheme, access, policy, "r0_c0").reason
                == "UncertifiedRuleTable")

    def test_failures_are_not_memoised(self, setup):
        ca, rsi_key, policy = setup
        genuine = policy.cert_registry[rsi_key.public]
        policy.cert_registry[rsi_key.public] = dataclasses.replace(
            genuine, ca_signature=bytes(32))
        tx = make_tx(rsi_key)
        assert not miner_admit(scheme, tx, policy, "r0_c0").accepted
        assert not policy.verified_certs
        policy.cert_registry[rsi_key.public] = genuine
        assert miner_admit(scheme, tx, policy, "r0_c0").accepted


MEMO_PAYLOAD = Payload(sample_loc(), ROAD_DAMAGE, 500)
REGIONS = ("r0_c0", "r1_c1")


def ingested(labels, broken=()):
    """A report over `MEMO_PAYLOAD` per label, the ones in `broken` with a
    zeroed signature, through `edge.ingest`: each report's (pk, sign)
    member and the triples that the window's ingest verified."""
    reports = [build_data_tx(scheme, key(label), MEMO_PAYLOAD.loc,
                             MEMO_PAYLOAD.event, MEMO_PAYLOAD.timestamp)
               for label in labels]
    reports = [dataclasses.replace(r, vehicle_sign=bytes(32))
               if label in broken else r for label, r in zip(labels, reports)]
    rsi = RsiState.fresh("r0_c0", key("rsi"), window_ms=5000)
    verified = set()
    ingest(scheme, [(rsi, r) for r in reports], verified)
    assert rsi.stats.sig_rejects == len(broken)
    return [(r.pk, r.vehicle_sign) for r in reports], verified


class TestVerifiedReports:
    """Admission handed the triples that its window's ingest verified."""

    def test_members_are_not_verified_again(self, setup):
        _, rsi_key, policy = setup
        members, verified = ingested(("a", "b", "c"))
        tx = build_rsi_tx(scheme, rsi_key, MEMO_PAYLOAD, members, flag=1)
        before = set(verified)
        counting = CountingScheme()
        verdicts = admit_all(counting, [(tx, "r0_c0")], policy, verified)
        assert [v.accepted for v in verdicts] == [True]
        # the RSI signature and the certificate, and no member
        assert counting.verify_calls() == 2
        assert counting.verified[rsi_key.public] == 1
        assert verified == before  # admission stores nothing in it

    def rejected(self, policy, tx, verified):
        """The reason that admission with `verified` gives `tx`, which
        admission with nothing known gives too; `append_admitted` with
        `verified` chains nothing."""
        reason = admit_all(scheme, [(tx, "r0_c0")], policy, verified)[0].reason
        assert admit_all(scheme, [(tx, "r0_c0")], policy)[0].reason == reason
        ledger = genesis("r0_c0")
        assert append_admitted(scheme, [(ledger, [tx])], 1000, policy,
                               verified) == [None]
        assert len(ledger.blocks) == 1
        return reason

    def test_swapped_member_signature_is_verified(self, setup):
        _, rsi_key, policy = setup
        members, verified = ingested(("a", "b", "c"))
        assert set(member_triples(MEMO_PAYLOAD, members)) == verified
        (pk_a, sign_a), (pk_b, sign_b), rest = members
        swapped = [(pk_a, sign_b), (pk_b, sign_a), rest]
        tx = build_rsi_tx(scheme, rsi_key, MEMO_PAYLOAD, swapped, flag=1)
        assert self.rejected(policy, tx, verified) == "BadMemberSignature"

    def test_member_moved_onto_another_payload_is_verified(self, setup):
        _, rsi_key, policy = setup
        members, verified = ingested(("a", "b", "c"))
        assert set(member_triples(MEMO_PAYLOAD, members)) == verified
        moved = dataclasses.replace(MEMO_PAYLOAD, timestamp=600)
        tx = build_rsi_tx(scheme, rsi_key, moved, members, flag=1)
        assert self.rejected(policy, tx, verified) == "BadMemberSignature"

    def test_sig_rejected_report_carried_is_verified(self, setup):
        _, rsi_key, policy = setup
        members, verified = ingested(("a", "b", "c"), broken=("c",))
        assert set(member_triples(MEMO_PAYLOAD, members[:2])) == verified
        tx = build_rsi_tx(scheme, rsi_key, MEMO_PAYLOAD, members, flag=1)
        assert self.rejected(policy, tx, verified) == "BadMemberSignature"


class _Recording(CountingScheme):
    """Keyed hash that keeps every triple it is asked to verify."""

    def __init__(self):
        super().__init__()
        self.seen = set()

    def verify(self, public, message, signature):
        self.seen.add((public, message, signature))
        return super().verify(public, message, signature)


def memo_cases():
    """A policy; aggregates and access txs that admission accepts or
    rejects for each reason a signature or a region gives, among them a
    member swapped, moved onto another payload and rejected at ingest; and
    every triple that their admission checks and that verifies, sorted."""
    ca, rsi_key, other = key("ca"), key("rsi"), key("rsi-other")
    policy = MinerPolicy(m=2, ca_pk=ca.public, cert_registry={
        pk: issue_certificate(scheme, ca, pk, region)
        for pk, region in ((rsi_key.public, "r0_c0"), (other.public, "r1_c1"))})
    members, _ = ingested(("a", "b", "c", "d"), broken=("d",))
    (pk_a, sign_a), (pk_b, sign_b) = members[:2]

    def aggregate(members, payload=MEMO_PAYLOAD, rsi=rsi_key, flag=1):
        return build_rsi_tx(scheme, rsi, payload, members, flag=flag)

    good = aggregate(members[:3])
    access = approved_access_tx(ca, policy)
    txs = [
        good,
        aggregate([(pk_a, sign_b), (pk_b, sign_a), members[2]]),
        aggregate(members[:3], dataclasses.replace(MEMO_PAYLOAD, timestamp=600)),
        aggregate(members),
        aggregate(members[:2], rsi=other),
        aggregate(members[:1]),
        aggregate(members[:2], flag=0),
        dataclasses.replace(good, rsi_sign=bytes(32)),
        access,
        dataclasses.replace(access, requester_sign=bytes(32)),
    ]
    recording = _Recording()
    admit_all(recording, [(tx, region) for tx in txs for region in REGIONS],
              dataclasses.replace(policy, verified_certs=None))
    return policy, txs, sorted(t for t in recording.seen if scheme.verify(*t))


MEMO_POLICY, MEMO_TXS, MEMO_VERIFYING = memo_cases()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(MEMO_TXS), st.sampled_from(REGIONS)),
                max_size=6),
       st.sets(st.sampled_from(MEMO_VERIFYING)))
def test_verified_triples_change_no_verdict(candidates, verified):
    # any memo of triples that verify: the verdicts and reasons are those
    # of admission with nothing known, and the memo is left as it was
    before = set(verified)
    with_memo = admit_all(scheme, candidates, dataclasses.replace(
        MEMO_POLICY, verified_certs=set()), verified)
    alone = admit_all(scheme, candidates, dataclasses.replace(
        MEMO_POLICY, verified_certs=set()))
    assert with_memo == alone
    assert verified == before


def rescanned_digests(ledger: Ledger) -> set[bytes]:
    return {sha256(canonical_encode(tx)) for tx in ledger.all_txs()}


class TestHasTx:
    def assert_agrees(self, ledger):
        chained = rescanned_digests(ledger)
        assert chained
        assert all(ledger.has_tx(d) for d in chained)

    def test_agrees_with_rescan_after_each_append(self, setup):
        _, rsi_key, policy = setup
        ledger = genesis("r0_c0")
        assert not ledger.has_tx(sha256(canonical_encode(make_tx(rsi_key))))
        for b in range(3):
            append_block(scheme, ledger,
                         [make_tx(rsi_key, ts=b, labels=(f"p{b}", f"q{b}"))],
                         1000 + b, policy)
            self.assert_agrees(ledger)
            batch = [make_tx(rsi_key, ts=100 + b, labels=(f"r{b}", f"s{b}")),
                     make_tx(rsi_key, ts=200 + b, flag=0,
                             labels=(f"t{b}", f"u{b}"))]
            append_admitted(scheme, [(ledger, batch)], 2000 + b, policy)
            self.assert_agrees(ledger)
            # the flag-0 aggregate was refused, so it is not chained
            assert not ledger.has_tx(sha256(canonical_encode(batch[1])))

    def test_agrees_with_rescan_after_dump_round_trip(self, setup):
        _, rsi_key, policy = setup
        ledger = build_chain(rsi_key, policy, n_blocks=4)
        restored = load_ledger(dump_ledger(ledger))
        self.assert_agrees(restored)
        assert rescanned_digests(restored) == rescanned_digests(ledger)

    def test_never_chained_digest_is_absent(self, setup):
        _, rsi_key, policy = setup
        ledger = build_chain(rsi_key, policy, n_blocks=3)
        unchained = make_tx(rsi_key, ts=99_999, labels=("never", "chained"))
        assert not ledger.has_tx(sha256(canonical_encode(unchained)))
        assert not ledger.has_tx(ZERO_DIGEST)
        assert not ledger.has_tx(ledger.tip.block_hash)

    def test_store_after_an_access_block_between_stores(self):
        world = MarketSetup()
        first = Payload(market_geo(10, 10), ROAD_DAMAGE, 500)
        world.stored("r0_c0", first, ["a", "b"])
        sp = key("sp")
        scope = Scope(("r0_c0",), 0, 2000, (ROAD_DAMAGE.code,))
        contract = create_contract(scheme, key("owner"), sp.public,
                                   (0, 10_000), scope, price=1)
        world.table.chain_contract(contract, now_ms=600)
        access = build_access_tx(
            scheme, sp, scope,
            Grant(kind=GRANT_CONTRACT_REF, contract_id=contract.contract_id()))
        result = world.table.evaluate_access(access, now_ms=700)
        assert result.granted
        # the rule table chained its access block on r0_c0, after the
        # digests of the first store were taken
        ledger = world.ledgers["r0_c0"]
        assert ledger.tip.txs == (result.access_tx,)
        second = Payload(market_geo(20, 20), ROAD_DAMAGE, 800)
        rid, _ = world.stored("r0_c0", second, ["c", "d"])
        assert rid == 1
        assert ledger.has_tx(sha256(canonical_encode(result.access_tx)))
        self.assert_agrees(ledger)


class TestFindContract:
    def contract(self, region, price):
        scope = Scope((region,), 0, 2000, (ROAD_DAMAGE.code,))
        return create_contract(scheme, key("owner"), key("sp").public,
                               (0, 10_000), scope, price=price)

    def test_contract_appended_after_first_lookup_is_found(self):
        world = MarketSetup()
        first = self.contract("r0_c1", price=1)
        world.table.chain_contract(first, now_ms=100)
        assert world.table.find_contract(first.contract_id()) == first
        # an aggregate block and a second contract land after the lookup
        world.stored("r0_c1", Payload(market_geo(10, 10), ROAD_DAMAGE, 500),
                     ["a", "b"])
        second = self.contract("r0_c1", price=2)
        world.table.chain_contract(second, now_ms=200)
        assert world.table.find_contract(second.contract_id()) == second
        assert world.table.find_contract(first.contract_id()) == first

    def test_contract_chained_by_append_block_is_found(self):
        world = MarketSetup()
        contract = self.contract("r0_c0", price=3)
        assert world.table.find_contract(contract.contract_id()) is None
        append_block(scheme, world.ledgers["r0_c1"], [contract], 100,
                     world.policy)
        assert world.table.find_contract(contract.contract_id()) == contract
        assert world.ledgers["r0_c0"].find_contract(contract.contract_id()) is None

    def test_unknown_id_is_none(self):
        world = MarketSetup()
        world.table.chain_contract(self.contract("r0_c0", price=4), now_ms=100)
        assert world.table.find_contract(ZERO_DIGEST) is None
        assert world.table.find_contract(b"\xff" * 32) is None


def oracle_validate(ledger: Ledger):
    """Independent full-link recompute: hashes via the canonical encoding
    rather than Block.compute_hash."""
    prev = ZERO_DIGEST
    for i, b in enumerate(ledger.blocks):
        body = canonical_encode(b)[1:]  # strip type tag
        if b.height != i or b.prev_hash != prev:
            return i
        if hashlib.sha256(body).digest() != b.block_hash:
            return i
        prev = b.block_hash
    return None


class TestValidateChain:
    def test_untampered_ten_block_ledger(self, setup):
        _, rsi_key, policy = setup
        ledger = build_chain(rsi_key, policy)
        assert validate_chain(ledger).ok
        assert oracle_validate(ledger) is None

    def test_mutated_tx_detected_at_its_block(self, setup):
        _, rsi_key, policy = setup
        ledger = build_chain(rsi_key, policy)
        victim = ledger.blocks[4]
        tx = victim.txs[0]
        forged_tx = dataclasses.replace(tx, flag=0)
        forged = dataclasses.replace(victim, txs=(forged_tx,) + victim.txs[1:])
        ledger.blocks[4] = forged  # keeps the stale stored hash
        status = validate_chain(ledger)
        assert not status.ok
        assert status.first_bad_height == 4
        assert oracle_validate(ledger) == 4

    def test_recomputed_block_breaks_next_link(self, setup):
        _, rsi_key, policy = setup
        ledger = build_chain(rsi_key, policy)
        victim = ledger.blocks[4]
        replacement = Block.make(height=4, prev_hash=victim.prev_hash,
                                 timestamp=victim.timestamp + 1,
                                 txs=victim.txs)
        ledger.blocks[4] = replacement
        status = validate_chain(ledger)
        assert not status.ok
        assert status.first_bad_height == 5
        assert oracle_validate(ledger) == 5

    def test_random_single_bit_mutations_always_detected(self, setup):
        _, rsi_key, policy = setup
        ledger = build_chain(rsi_key, policy, n_blocks=12)
        rng = CounterRng(99, "mutations")
        for _ in range(1000):
            i = rng.randint(1, len(ledger.blocks) - 1)
            b = ledger.blocks[i]
            choice = rng.randint(0, 3)
            if choice == 0:
                forged = dataclasses.replace(
                    b, timestamp=b.timestamp ^ (1 << rng.randint(0, 40)))
                expect = i
            elif choice == 1:
                bit = rng.randint(0, 255)
                prev = bytearray(b.prev_hash)
                prev[bit // 8] ^= 1 << (bit % 8)
                forged = dataclasses.replace(b, prev_hash=bytes(prev))
                expect = i
            elif choice == 2:
                bit = rng.randint(0, 255)
                bh = bytearray(b.block_hash)
                bh[bit // 8] ^= 1 << (bit % 8)
                forged = dataclasses.replace(b, block_hash=bytes(bh))
                expect = i
            else:
                tx = b.txs[0]
                sig = bytearray(tx.rsi_sign)
                bit = rng.randint(0, len(sig) * 8 - 1)
                sig[bit // 8] ^= 1 << (bit % 8)
                forged_tx = dataclasses.replace(tx, rsi_sign=bytes(sig))
                forged = dataclasses.replace(b, txs=(forged_tx,) + b.txs[1:])
                expect = i
            ledger.blocks[i] = forged
            status = validate_chain(ledger)
            assert not status.ok
            assert status.first_bad_height == expect
            ledger.blocks[i] = b


class TestDumpLoad:
    def test_round_trip(self, setup):
        _, rsi_key, policy = setup
        ledger = build_chain(rsi_key, policy, n_blocks=5)
        restored = load_ledger(dump_ledger(ledger))
        assert restored.rsi_region == ledger.rsi_region
        assert restored.blocks == ledger.blocks
        assert validate_chain(restored).ok

    def test_loading_and_validating_hashes_each_block_once(
            self, finished_worlds, monkeypatch):
        world, _ = finished_worlds["honest_majority"]
        data = dump_ledger(world.ledgers["r0_c0"])
        calls = []

        def counted(message):
            calls.append(len(message))
            return sha256(message)

        monkeypatch.setattr(ledger_module, "sha256", counted)
        restored = load_ledger(data)
        assert calls == []
        assert validate_chain(restored).ok
        assert len(calls) == len(restored.blocks) > 1

    def test_previous_format_is_refused(self, setup):
        # version 1 dumps had no stored hashes under the magic "DMAPLEDG"
        _, rsi_key, policy = setup
        data = dump_ledger(build_chain(rsi_key, policy, n_blocks=2))
        with pytest.raises(DecodeError):
            load_ledger(b"DMAPLEDG" + data[len(LEDGER_DUMP_MAGIC):])

    def test_cached_bytes_match_a_fresh_encoding(self, finished_worlds):
        world, _ = finished_worlds["market_suite"]
        kinds = set()
        for ledger in world.ledgers.values():
            restored = load_ledger(dump_ledger(ledger))
            for tx in ledger.all_txs() + restored.all_txs():
                kinds.add(type(tx).__name__)
                fresh = canonical_encode(tx)
                assert tx.wire == fresh
                assert tx.digest == sha256(fresh)
        assert kinds == {"RsiTransaction", "SmartContract", "AccessTransaction"}

    def test_every_byte_flip_in_a_block_is_caught(self, finished_worlds):
        # a prefix of a market_suite ledger that holds an aggregate, a
        # contract and an access; the region string before the blocks is
        # not hashed
        world, _ = finished_worlds["market_suite"]
        ledger = world.ledgers["r0_c0"]
        kinds = set()
        end = 0
        while len(kinds) < 3:
            end += 1
            kinds.update(type(tx) for tx in ledger.blocks[end].txs)
        prefix = Ledger(rsi_region=ledger.rsi_region,
                        blocks=ledger.blocks[:end + 1])
        data = dump_ledger(prefix)
        first_block = len(LEDGER_DUMP_MAGIC) + 4 + len(ledger.rsi_region) + 4
        assert validate_chain(load_ledger(data)).ok
        for at in range(first_block, len(data)):
            for mask in (0x01, 0x80):
                flipped = bytearray(data)
                flipped[at] ^= mask
                try:
                    status = validate_chain(load_ledger(bytes(flipped)))
                except DecodeError:
                    continue
                assert not status.ok, (at, mask)


class TestAccessLog:
    def test_owner_sig_accesses_in_chain_order(self, setup):
        from dmap.market import build_access_tx
        from dmap.txmodel import GRANT_OWNER_SIG, Grant, Scope, grant_signing_bytes

        ca, rsi_key, policy = setup
        rt_key = key("ruletable")
        policy.cert_registry[rt_key.public] = issue_certificate(
            scheme, ca, rt_key.public, "ruletable")
        owner = key("owner")
        sp = key("sp")
        ledger = genesis("r0_c0")
        txs = []
        for period in ((0, 100), (0, 200)):
            query = Scope(("r0_c0",), period[0], period[1], (0,))
            grant = Grant(kind=GRANT_OWNER_SIG, owner_pk=owner.public,
                          owner_sign=scheme.sign(
                              owner,
                              grant_signing_bytes(sp.public, query)))
            tx = build_access_tx(scheme, sp, query, grant)
            tx = dataclasses.replace(tx, ruletable_pk=rt_key.public)
            tx = dataclasses.replace(
                tx, ruletable_sign=scheme.sign(
                    rt_key, tx.countersigned_message()))
            txs.append(tx)
        append_block(scheme, ledger, [txs[0]], 100, policy)
        append_block(scheme, ledger, [txs[1]], 200, policy)
        log = lookup_access_log(ledger, owner.public)
        assert log == txs

    def test_owner_with_no_grants_empty(self, setup):
        _, rsi_key, policy = setup
        ledger = build_chain(rsi_key, policy, n_blocks=2)
        assert lookup_access_log(ledger, key("nobody").public) == []
