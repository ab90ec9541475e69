import dataclasses
import itertools
import struct

import pytest

from dmap import fixtures, txmodel
from dmap.crypto import KEYED_HASH, certificate_signing_bytes, issue_certificate, sha256
from dmap.encoding import DecodeError, canonical_decode, canonical_encode
from dmap.rng import CounterRng
from dmap.txmodel import (
    CLEAR,
    GRANT_CONTRACT_REF,
    GRANT_OWNER_SIG,
    GeoPoint,
    Grant,
    Payload,
    ROAD_DAMAGE,
    RangeError,
    Scope,
    build_data_tx,
    build_rsi_tx,
    data_tx_signing_bytes,
    rsi_tx_signing_bytes,
    verify_data_tx,
    verify_rsi_tx,
)
from tests.conftest import CountingScheme

scheme = KEYED_HASH


def key(label: str):
    return scheme.generate_keypair(sha256(label.encode()))


def sample_loc():
    return GeoPoint(lat_micro=52_000_000, lon_micro=13_000_000)


def make_members(payload, labels):
    members = []
    for label in labels:
        k = key(label)
        sig = scheme.sign(k,
                          data_tx_signing_bytes(payload.loc, payload.event,
                                                payload.timestamp, k.public))
        members.append((k.public, sig))
    return members


class TestGeoPoint:
    def test_in_range_ok(self):
        GeoPoint(90_000_000, 180_000_000).check_range()
        GeoPoint(-90_000_000, -180_000_000).check_range()

    def test_latitude_out_of_range(self):
        with pytest.raises(RangeError):
            GeoPoint(91_000_000, 0).check_range()

    def test_longitude_out_of_range(self):
        with pytest.raises(RangeError):
            GeoPoint(0, -180_000_001).check_range()

    def test_distance_symmetric_and_zero(self):
        a = GeoPoint(100, 200)
        b = GeoPoint(5000, -300)
        assert txmodel.distance_m(a, a) == 0.0
        assert txmodel.distance_m(a, b) == txmodel.distance_m(b, a)


class TestEventKind:
    def test_unknown_code_rejected(self):
        with pytest.raises(RangeError):
            txmodel.EventKind(9)

    def test_speed_only_for_traffic_speed(self):
        with pytest.raises(RangeError):
            txmodel.EventKind(0, speed_kmh=30)
        assert txmodel.EventKind(2, 30).speed_kmh == 30

    def test_negative_speed_rejected(self):
        with pytest.raises(RangeError):
            txmodel.EventKind(2, -1)

    def test_decode_rejects_unknown_code(self):
        tx = build_data_tx(scheme, key("v"), sample_loc(), ROAD_DAMAGE, 10)
        blob = bytearray(canonical_encode(tx))
        # event code byte sits right after the tag and the two i32 coords
        assert blob[9] == 0
        blob[9] = 250
        with pytest.raises(DecodeError):
            canonical_decode(bytes(blob))


class TestDataTransaction:
    def test_build_then_verify(self):
        tx = build_data_tx(scheme, key("v"), sample_loc(), ROAD_DAMAGE, 1234)
        assert verify_data_tx(scheme, tx)

    def test_out_of_range_coordinates(self):
        with pytest.raises(RangeError):
            build_data_tx(scheme, key("v"), GeoPoint(91_000_000, 0),
                          ROAD_DAMAGE, 0)

    def test_same_inputs_byte_identical(self):
        a = build_data_tx(scheme, key("v"), sample_loc(), ROAD_DAMAGE, 77)
        b = build_data_tx(scheme, key("v"), sample_loc(), ROAD_DAMAGE, 77)
        assert canonical_encode(a) == canonical_encode(b)

    def test_mutated_timestamp_fails(self):
        tx = build_data_tx(scheme, key("v"), sample_loc(), ROAD_DAMAGE, 1234)
        forged = dataclasses.replace(tx, timestamp=1235)
        assert not verify_data_tx(scheme, forged)

    def test_swapped_pk_fails(self):
        tx = build_data_tx(scheme, key("v"), sample_loc(), ROAD_DAMAGE, 1234)
        forged = dataclasses.replace(tx, pk=key("other").public)
        assert not verify_data_tx(scheme, forged)

    def test_every_field_mutation_breaks_verification(self):
        tx = build_data_tx(scheme, key("v"), sample_loc(), ROAD_DAMAGE, 1234)
        mutations = {
            "loc": GeoPoint(tx.loc.lat_micro + 1, tx.loc.lon_micro),
            "event": CLEAR,
            "timestamp": tx.timestamp + 1,
            "pk": key("other").public,
            "vehicle_sign": bytes(32),
        }
        for field_name, bad in mutations.items():
            forged = dataclasses.replace(tx, **{field_name: bad})
            assert not verify_data_tx(scheme, forged), field_name


class TestRsiTransaction:
    def test_three_members_one_payload_copy(self):
        payload = Payload(sample_loc(), ROAD_DAMAGE, 500)
        members = make_members(payload, ["a", "b", "c"])
        tx = build_rsi_tx(scheme, key("rsi"), payload, members, flag=1)
        assert len(tx.vehicle_signs) == 3
        assert len(tx.vehicle_pks) == 3
        assert tx.payload == payload
        assert tx.flag == 1

    def _registry(self, ca, rsi_key, region="r0_c0"):
        cert = issue_certificate(scheme, ca, rsi_key.public, region)
        return {rsi_key.public: cert}

    def test_certified_m2_three_members_accepted(self):
        ca, rsi_key = key("ca"), key("rsi")
        payload = Payload(sample_loc(), ROAD_DAMAGE, 500)
        tx = build_rsi_tx(scheme, rsi_key, payload,
                          make_members(payload, ["a", "b", "c"]), flag=1)
        verdict = verify_rsi_tx(scheme, tx, ca.public,
                                self._registry(ca, rsi_key), m=2)
        assert verdict.accepted

    def test_flag_zero_rejected_untrusted(self):
        ca, rsi_key = key("ca"), key("rsi")
        payload = Payload(sample_loc(), ROAD_DAMAGE, 500)
        tx = build_rsi_tx(scheme, rsi_key, payload,
                          make_members(payload, ["a", "b", "c"]), flag=0)
        verdict = verify_rsi_tx(scheme, tx, ca.public,
                                self._registry(ca, rsi_key), m=2)
        assert not verdict.accepted
        assert verdict.reason == txmodel.REJECT_UNTRUSTED

    def test_uncertified_rsi_rejected(self):
        ca, rsi_key = key("ca"), key("rsi")
        payload = Payload(sample_loc(), ROAD_DAMAGE, 500)
        tx = build_rsi_tx(scheme, rsi_key, payload,
                          make_members(payload, ["a", "b"]), flag=1)
        verdict = verify_rsi_tx(scheme, tx, ca.public, {}, m=2)
        assert verdict.reason == txmodel.REJECT_UNCERTIFIED_RSI

    def test_zero_members_malformed(self):
        # malformed, not too few, even under the smallest m a scenario
        # allows; no signature is checked but the certificate's
        ca, rsi_key = key("ca"), key("rsi")
        payload = Payload(sample_loc(), ROAD_DAMAGE, 500)
        tx = build_rsi_tx(scheme, rsi_key, payload, [], flag=1)
        counting = CountingScheme()
        verdict = verify_rsi_tx(counting, tx, ca.public,
                                self._registry(ca, rsi_key), m=1)
        assert verdict == txmodel.Verdict(False, txmodel.REJECT_MALFORMED)
        assert counting.verify_calls() == 1

    def test_too_few_members_rejected(self):
        ca, rsi_key = key("ca"), key("rsi")
        payload = Payload(sample_loc(), ROAD_DAMAGE, 500)
        tx = build_rsi_tx(scheme, rsi_key, payload,
                          make_members(payload, ["a"]), flag=1)
        verdict = verify_rsi_tx(scheme, tx, ca.public,
                                self._registry(ca, rsi_key), m=2)
        assert verdict.reason == txmodel.REJECT_INSUFFICIENT_MEMBERS

    def test_accept_implies_each_member_verifies_independently(self):
        # independent oracle: re-check every member with the raw scheme
        ca, rsi_key = key("ca"), key("rsi")
        payload = Payload(sample_loc(), ROAD_DAMAGE, 500)
        tx = build_rsi_tx(scheme, rsi_key, payload,
                          make_members(payload, ["a", "b", "c", "d"]), flag=1)
        verdict = verify_rsi_tx(scheme, tx, ca.public,
                                self._registry(ca, rsi_key), m=2)
        assert verdict.accepted
        for pk, sig in zip(tx.vehicle_pks, tx.vehicle_signs):
            msg = data_tx_signing_bytes(payload.loc, payload.event,
                                        payload.timestamp, pk)
            assert scheme.verify(pk, msg, sig)


# Each flaw an aggregate can carry, in the documented order of
# `verify_rsi_tx`, with the reason the first one present must give.
FLAW_REASONS = {
    "no_certificate": txmodel.REJECT_UNCERTIFIED_RSI,
    "length_mismatch": txmodel.REJECT_MALFORMED,
    "under_m": txmodel.REJECT_INSUFFICIENT_MEMBERS,
    "flag_zero": txmodel.REJECT_UNTRUSTED,
    "bad_rsi_signature": txmodel.REJECT_BAD_RSI_SIGNATURE,
    "bad_member_signature": txmodel.REJECT_BAD_MEMBER_SIGNATURE,
}
ADMISSION_M = 3


def flawed_aggregate(flaws):
    """(tx, cert_registry, ca_pk) for an aggregate carrying `flaws`; the
    RSI signs whatever fields the flaws leave, unless its own signature
    is one of them."""
    ca, rsi_key = key("ca"), key("rsi")
    payload = Payload(sample_loc(), ROAD_DAMAGE, 500)
    n = ADMISSION_M - 1 if "under_m" in flaws else ADMISSION_M
    pks, signs = zip(*make_members(payload, [f"v{i}" for i in range(n)]))
    if "bad_member_signature" in flaws:
        signs = (bytes(len(signs[0])),) + signs[1:]
    if "length_mismatch" in flaws:
        signs = signs[:-1]
    flag = 0 if "flag_zero" in flaws else 1
    rsi_sign = scheme.sign(rsi_key, rsi_tx_signing_bytes(
        rsi_key.public, payload, signs, pks, flag))
    if "bad_rsi_signature" in flaws:
        rsi_sign = bytes(len(rsi_sign))
    tx = txmodel.RsiTransaction(rsi_pk=rsi_key.public, payload=payload,
                                vehicle_signs=signs, vehicle_pks=pks,
                                flag=flag, rsi_sign=rsi_sign)
    registry = ({} if "no_certificate" in flaws else
                {rsi_key.public: issue_certificate(scheme, ca, rsi_key.public,
                                                   "r0_c0")})
    return tx, registry, ca.public


def all_checks_oracle(tx, registry, ca_pk):
    """Every admission condition, checked with the raw scheme in no
    particular order; members against their own report bytes."""
    cert = registry.get(tx.rsi_pk)
    p = tx.payload
    return (cert is not None
            and scheme.verify(ca_pk, certificate_signing_bytes(
                cert.subject_pk, cert.region_id), cert.ca_signature)
            and len(tx.vehicle_pks) == len(tx.vehicle_signs)
            and len(tx.vehicle_pks) >= ADMISSION_M
            and tx.flag == 1
            and scheme.verify(tx.rsi_pk, rsi_tx_signing_bytes(
                tx.rsi_pk, p, tx.vehicle_signs, tx.vehicle_pks, tx.flag),
                tx.rsi_sign)
            and all(scheme.verify(pk, data_tx_signing_bytes(
                p.loc, p.event, p.timestamp, pk), sig)
                for pk, sig in zip(tx.vehicle_pks, tx.vehicle_signs)))


FLAW_SETS = [()] + [combo for k in (1, 2)
                    for combo in itertools.combinations(FLAW_REASONS, k)]


class TestAdmissionOrder:
    @pytest.mark.parametrize("flaws", FLAW_SETS,
                             ids=lambda f: "+".join(f) or "none")
    def test_verdict_matches_oracle_and_first_flaw(self, flaws):
        tx, registry, ca_pk = flawed_aggregate(flaws)
        verdict = verify_rsi_tx(scheme, tx, ca_pk, registry, m=ADMISSION_M)
        assert verdict.accepted == all_checks_oracle(tx, registry, ca_pk)
        assert verdict.accepted == (not flaws)
        first = next((f for f in FLAW_REASONS if f in flaws), None)
        assert verdict.reason == (FLAW_REASONS[first] if first else "")

    @pytest.mark.parametrize("flaws", [
        ("flag_zero",), ("under_m",), ("flag_zero", "under_m"),
        ("flag_zero", "bad_rsi_signature"), ("under_m", "bad_member_signature"),
    ], ids="+".join)
    def test_field_rejection_costs_no_verify(self, flaws):
        tx, registry, ca_pk = flawed_aggregate(flaws)
        counting = CountingScheme()
        memo = {(ca_pk, registry[tx.rsi_pk])}  # the certificate verified before
        verdict = verify_rsi_tx(counting, tx, ca_pk, registry, m=ADMISSION_M,
                                verified_certs=memo)
        assert not verdict.accepted
        assert counting.verify_calls() == 0


def random_data_tx(rng: CounterRng):
    k = scheme.generate_keypair(sha256(struct.pack(">Q", rng.u64())))
    loc = GeoPoint(rng.randint(-90_000_000, 90_000_000),
                   rng.randint(-180_000_000, 180_000_000))
    code = rng.randint(0, 4)
    event = (txmodel.EventKind(2, rng.randint(0, 200)) if code == 2
             else txmodel.EventKind(code))
    return build_data_tx(scheme, k, loc, event, rng.randint(0, 2**40))


def random_rsi_tx(rng: CounterRng):
    base = random_data_tx(rng)
    payload = Payload(base.loc, base.event, base.timestamp)
    labels = [f"m{rng.u64()}" for _ in range(rng.randint(1, 5))]
    return build_rsi_tx(scheme, key("rsi"), payload,
                        make_members(payload, labels),
                        flag=rng.randint(0, 1))


class TestCanonicalEncoding:
    def test_round_trip_property_data_txs(self):
        rng = CounterRng(1, "roundtrip-data")
        for _ in range(1000):
            tx = random_data_tx(rng)
            assert canonical_decode(canonical_encode(tx)) == tx

    def test_round_trip_property_rsi_txs(self):
        rng = CounterRng(2, "roundtrip-rsi")
        for _ in range(150):
            tx = random_rsi_tx(rng)
            assert canonical_decode(canonical_encode(tx)) == tx

    def test_round_trip_marketplace_types(self):
        objs = fixtures.make_fixture_objects()
        for name, obj in objs.items():
            assert canonical_decode(canonical_encode(obj)) == obj, name

    def test_flag_difference_changes_encoding(self):
        payload = Payload(sample_loc(), ROAD_DAMAGE, 500)
        members = make_members(payload, ["a", "b"])
        t0 = build_rsi_tx(scheme, key("rsi"), payload, members, flag=0)
        t1 = build_rsi_tx(scheme, key("rsi"), payload, members, flag=1)
        assert canonical_encode(t0) != canonical_encode(t1)

    def test_encoding_stable_across_processes(self):
        # pinned against the committed fixture corpus
        import pathlib

        fixture_dir = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
        for name, obj in fixtures.make_fixture_objects().items():
            committed = (fixture_dir / f"{name}.hex").read_text().strip()
            assert canonical_encode(obj).hex() == committed

    def test_grant_variants_round_trip(self):
        scope = Scope(("r0_c0",), 0, 1000, (0, 4))
        for grant in (Grant(kind=GRANT_CONTRACT_REF, contract_id=bytes(32)),
                      Grant(kind=GRANT_OWNER_SIG, owner_pk=b"\x01" * 32,
                            owner_sign=b"\x02" * 32)):
            from dmap.market import build_access_tx

            tx = build_access_tx(scheme, key("sp"), scope, grant)
            assert canonical_decode(canonical_encode(tx)) == tx

    def test_truncated_input_raises(self):
        blob = canonical_encode(
            build_data_tx(scheme, key("v"), sample_loc(), ROAD_DAMAGE, 1))
        with pytest.raises(DecodeError):
            canonical_decode(blob[:-3])

    def test_trailing_bytes_raise(self):
        blob = canonical_encode(
            build_data_tx(scheme, key("v"), sample_loc(), ROAD_DAMAGE, 1))
        with pytest.raises(DecodeError):
            canonical_decode(blob + b"\x00")
