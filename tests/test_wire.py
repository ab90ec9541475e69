"""Signers seed each chained tx's `wire`; write-path checks verify it;
every wire type decodes only its own canonical bytes.

Every signer of a chained type caches the bytes it signed, tagged and
followed by the signature fields, as `wire`. These must be exactly the
canonical encoding of the tx's fields. Admission verifies slices of
`wire`, so a `dataclasses.replace` forgery (which gets fresh bytes) is
rejected with the reason it always got, and a field changed in place
(which keeps the stale bytes) is caught by the post-run sweep.
"""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmap.encoding import LAYOUTS, DecodeError, canonical_decode, canonical_encode
from dmap.fixtures import FIXTURE_NAMES
from dmap.ledger import miner_admit
from dmap.market import (
    DENY_BAD_SIGNATURE,
    build_access_tx,
    create_contract,
)
from dmap.sim import InvariantViolation
from dmap.txmodel import (
    GRANT_CONTRACT_REF,
    GRANT_OWNER_SIG,
    AccessTransaction,
    Chained,
    EventKind,
    GeoPoint,
    Grant,
    Payload,
    RsiTransaction,
    Scope,
    SmartContract,
    build_rsi_tx,
    grant_signing_bytes,
)
from tests.conftest import FIXTURE_DIR
from tests.test_market import Setup as MarketSetup
from tests.test_txmodel import key, scheme

PROPERTY = settings(max_examples=100, derandomize=True, deadline=None)

blobs = st.binary(max_size=40)
u64s = st.integers(0, 2**64 - 1)
event_kinds = st.one_of(
    st.integers(0, 4).filter(lambda c: c != 2).map(EventKind),
    st.integers(0, 2**32 - 1).map(lambda s: EventKind(2, s)))
payloads = st.builds(
    Payload,
    loc=st.builds(GeoPoint, st.integers(-90 * 10**6, 90 * 10**6),
                  st.integers(-180 * 10**6, 180 * 10**6)),
    event=event_kinds, timestamp=u64s)
# a signer refuses an inverted period: each scope's is ordered
scopes = st.builds(Scope,
                   region_ids=st.lists(st.text(max_size=8), max_size=4).map(tuple),
                   from_ms=u64s, to_ms=u64s,
                   kind_codes=st.lists(st.integers(0, 4), max_size=5).map(tuple)
                   ).map(lambda s: dataclasses.replace(
                       s, to_ms=max(s.from_ms, s.to_ms)))
grants = st.one_of(
    st.builds(Grant, kind=st.just(GRANT_CONTRACT_REF), contract_id=blobs),
    st.builds(Grant, kind=st.just(GRANT_OWNER_SIG), owner_pk=blobs,
              owner_sign=blobs))
labels = st.text(min_size=1, max_size=6)


def _signing(cls, field):
    """The compiled signing bytes of the fields of `cls` before `field`,
    and the names of those fields."""
    layout = LAYOUTS[cls]
    fields = [f for names, _ in layout.rows for f in names]
    return layout.fields_before(field), fields[:fields.index(field)]


# each chained type's signed fields, by the signature's first field
SIGNING = {cls: {f: _signing(cls, f) for f in fields}
           for cls, fields in ((RsiTransaction, ("rsi_sign",)),
                               (SmartContract, ("owner_sign",)),
                               (AccessTransaction,
                                ("requester_sign", "ruletable_pk")))}


def assert_signed_prefixes(tx):
    """Each message sliced from `wire` is the signing bytes of the fields
    before its signature, encoded afresh."""
    assert isinstance(tx, Chained) == (type(tx) in SIGNING)
    for field, (signing_bytes, before) in SIGNING.get(type(tx), {}).items():
        assert tx.signed_prefix(field) == signing_bytes(
            *(getattr(tx, f) for f in before)), field


def assert_seeded(tx):
    """`wire` was cached by the signer and is the tx's canonical encoding."""
    assert "wire" in vars(tx)
    assert tx.wire == canonical_encode(dataclasses.replace(tx))
    assert canonical_decode(tx.wire) == tx
    assert_signed_prefixes(tx)


class TestSignersSeedWire:
    @PROPERTY
    @given(payload=payloads, flag=st.sampled_from((0, 1)),
           members=st.lists(st.tuples(blobs, blobs), min_size=1, max_size=8),
           rsi=labels)
    def test_build_rsi_tx(self, payload, flag, members, rsi):
        assert_seeded(build_rsi_tx(scheme, key(rsi), payload, members, flag))

    @PROPERTY
    @given(query=scopes, grant=grants, requester=labels)
    def test_build_access_tx(self, query, grant, requester):
        assert_seeded(build_access_tx(scheme, key(requester), query, grant))

    @PROPERTY
    @given(query=scopes, requester=labels)
    def test_countersigned_access(self, query, requester):
        # a direct owner grant over the data of no record: always granted
        world = MarketSetup()
        sp, owner = key(requester), key("owner")
        query = dataclasses.replace(query, region_ids=query.region_ids[:1])
        grant = Grant(kind=GRANT_OWNER_SIG, owner_pk=owner.public,
                      owner_sign=scheme.sign(
                          owner, grant_signing_bytes(sp.public, query)))
        request = build_access_tx(scheme, sp, query, grant)
        result = world.table.evaluate_access(request, 0)
        assert result.granted
        approved = result.access_tx
        assert_seeded(approved)
        assert approved.wire.startswith(request.wire[:-1])
        assert approved.countersigned_message() == request.wire[1:-1]

    @PROPERTY
    @given(start=u64s, length=st.integers(1, 2**32), scope=scopes,
           price=u64s, grantee=blobs, owner=labels)
    def test_create_contract(self, start, length, scope, price, grantee, owner):
        end = min(start + length, 2**64 - 1)
        if start >= end:
            start = end - 1
        assert_seeded(create_contract(scheme, key(owner), grantee,
                                      (start, end), scope, price))


def flip(sig: bytes) -> bytes:
    return sig[:-1] + bytes((sig[-1] ^ 1,))


@pytest.fixture
def chained():
    """A certified market with one aggregate, a contract and a granted
    access through it, each built by its signer."""
    world = MarketSetup()
    payload = Payload(GeoPoint(0, 0), EventKind(0), 500)
    rsi_tx = world.chain_aggregate("r0_c0", payload, ["a", "b", "c"])
    sp = key("sp")
    scope = Scope(("r0_c0",), 0, 10_000, (0,))
    contract = create_contract(scheme, key("owner"), sp.public, (0, 10_000),
                               scope, 3)
    world.table.chain_contract(contract, 100)
    request = build_access_tx(
        scheme, sp, scope,
        Grant(kind=GRANT_CONTRACT_REF, contract_id=contract.contract_id()))
    result = world.table.evaluate_access(request, 100)
    assert result.granted
    return world, rsi_tx, contract, request, result.access_tx


# a forged field, on a copy made by `dataclasses.replace`, and the reason
# admission gives for it
FORGERIES = {
    "rsi_payload": ("rsi", lambda tx: {"payload": dataclasses.replace(
        tx.payload, timestamp=tx.payload.timestamp + 1)}, "BadRsiSignature"),
    "rsi_sign": ("rsi", lambda tx: {"rsi_sign": flip(tx.rsi_sign)},
                 "BadRsiSignature"),
    "rsi_member": ("rsi", lambda tx: {"vehicle_signs": (
        flip(tx.vehicle_signs[0]),) + tx.vehicle_signs[1:]},
        "BadRsiSignature"),
    "contract_price": ("contract", lambda tx: {"price": tx.price + 1},
                       "BadOwnerSignature"),
    "contract_sign": ("contract", lambda tx: {"owner_sign": flip(tx.owner_sign)},
                      "BadOwnerSignature"),
    "access_query": ("access", lambda tx: {"query": dataclasses.replace(
        tx.query, to_ms=tx.query.to_ms + 1)}, "BadRequesterSignature"),
    "access_requester_sign": ("access", lambda tx: {
        "requester_sign": flip(tx.requester_sign)}, "BadRequesterSignature"),
    "access_ruletable_sign": ("access", lambda tx: {
        "ruletable_sign": flip(tx.ruletable_sign)}, "BadRuleTableSignature"),
}


class TestReplaceForgeries:
    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_rejected_at_admission(self, chained, name):
        world, rsi_tx, contract, _, approved = chained
        kind, fields, reason = FORGERIES[name]
        tx = {"rsi": rsi_tx, "contract": contract, "access": approved}[kind]
        assert miner_admit(scheme, tx, world.policy, "r0_c0").accepted
        forged = dataclasses.replace(tx, **fields(tx))
        verdict = miner_admit(scheme, forged, world.policy, "r0_c0")
        assert (verdict.accepted, verdict.reason) == (False, reason)

    def test_requester_forgery_denied_by_rule_table(self, chained):
        world, _, _, request, _ = chained
        forged = dataclasses.replace(request, query=dataclasses.replace(
            request.query, from_ms=1))
        result = world.table.evaluate_access(forged, 100)
        assert (result.granted, result.reason) == (False, DENY_BAD_SIGNATURE)


# a field of each chained type, changed in place after signing
IN_PLACE = {
    RsiTransaction: ("flag", lambda tx: 1 - tx.flag),
    SmartContract: ("price", lambda tx: tx.price + 1),
    AccessTransaction: ("query", lambda tx: dataclasses.replace(
        tx.query, from_ms=tx.query.from_ms + 1)),
}


@pytest.mark.parametrize("cls", list(IN_PLACE), ids=lambda c: c.__name__)
def test_field_changed_in_place_fails_sweep_chain_valid(finished_worlds, cls):
    world = copy.deepcopy(finished_worlds["market_suite"][0])
    region, tx = next((r, tx) for r, ledger in sorted(world.ledgers.items())
                      for tx in ledger.all_txs() if isinstance(tx, cls))
    field, value = IN_PLACE[cls]
    object.__setattr__(tx, field, value(tx))
    with pytest.raises(InvariantViolation) as exc:
        world.sweep_invariants()
    assert str(exc.value).startswith(f"chain_valid[{region}]")


def fixture_bytes(name: str) -> bytes:
    return bytes.fromhex((FIXTURE_DIR / f"{name}.hex").read_text())


def decodes_canonically(data: bytes) -> bool:
    """Does `data` decode, and to an object that encodes back to `data`?
    Raises only DecodeError."""
    try:
        obj = canonical_decode(data)
    except DecodeError:
        return False
    assert canonical_encode(obj) == data, data.hex()
    return True


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_signed_prefixes_of_each_fixture(name):
    # a block's txs, or the fixture itself; only chained types sign a
    # prefix of their wire
    obj = canonical_decode(fixture_bytes(name))
    for tx in getattr(obj, "txs", (obj,)):
        assert_signed_prefixes(tx)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_truncation_and_byte_edit_is_refused_or_canonical(name):
    # one byte string per object: an edit either fails to decode or
    # decodes to an object whose encoding is the edited bytes
    data = fixture_bytes(name)
    assert decodes_canonically(data)
    for end in range(len(data)):
        assert not decodes_canonically(data[:end])
    for at in range(len(data)):
        for mask in (0x01, 0x80, 0xFF):
            edited = bytearray(data)
            edited[at] ^= mask
            decodes_canonically(bytes(edited))


def test_approval_marker_without_a_rule_table_signature_is_refused():
    # it would decode to the unapproved tx, which encodes with a 0 marker
    data = fixture_bytes("access_transaction")
    assert data.endswith(b"\x00")
    with pytest.raises(DecodeError):
        canonical_decode(data[:-1] + bytes.fromhex("01 00000000 00000000"))
    # a signature without a key is still one byte string, one tx
    assert decodes_canonically(data[:-1] + bytes.fromhex("01 00000000 00000001 ab"))
