"""Protocol transaction types, their canonical encodings, and local checks.

Vehicles emit single-signature reports; RSIs aggregate corroborated
reports into multisign transactions carrying one deduplicated payload,
the member signatures and keys, and a one-bit trust flag. The marketplace
adds smart-contract grants, double-signed access transactions, and
service-provider data requests.

Within the multisign transaction each member signature is exactly the
vehicle's original report signature, so end-to-end verifiability of the
data producer is preserved; the RSI never re-signs on a member's behalf.
The aggregate signature is encoded last even though it is listed first in
the wire-format's informal description, since it must cover the other
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TypeVar

from . import encoding
from .crypto import Certificate, KeyPair, SignatureScheme, sha256, verify_certificate
from .encoding import DecodeError, Reader, Writer

TAG_DATA_TX = 0x01
TAG_RSI_TX = 0x02
TAG_SMART_CONTRACT = 0x05
TAG_ACCESS_TX = 0x06
TAG_DATA_REQUEST = 0x07

MAX_LAT_MICRO = 90 * 10**6
MAX_LON_MICRO = 180 * 10**6

# Flat-earth metres-per-degree at the equator; desk-scale scenarios live
# near (0, 0) so one constant serves both axes.
METERS_PER_DEGREE = 111_320.0


class RangeError(ValueError):
    """A field is outside its declared domain."""


class MemberSignatureError(ValueError):
    """An aggregate was attempted over an unverified member report."""


# --- geometry ---------------------------------------------------------------

@dataclass(frozen=True)
class GeoPoint:
    lat_micro: int
    lon_micro: int

    def check_range(self) -> None:
        if abs(self.lat_micro) > MAX_LAT_MICRO:
            raise RangeError(f"latitude out of range: {self.lat_micro}")
        if abs(self.lon_micro) > MAX_LON_MICRO:
            raise RangeError(f"longitude out of range: {self.lon_micro}")

    @classmethod
    def from_degrees(cls, lat: float, lon: float) -> "GeoPoint":
        return cls(lat_micro=round(lat * 1e6), lon_micro=round(lon * 1e6))


def distance_m(a: GeoPoint, b: GeoPoint) -> float:
    """Equirectangular ground distance in metres."""
    dlat = (a.lat_micro - b.lat_micro) / 1e6
    dlon = (a.lon_micro - b.lon_micro) / 1e6
    mean_lat = (a.lat_micro + b.lat_micro) / 2e6
    dy = dlat * METERS_PER_DEGREE
    dx = dlon * METERS_PER_DEGREE * math.cos(math.radians(mean_lat))
    return math.hypot(dx, dy)


def cell_of(loc: GeoPoint, cell_m: float) -> tuple[int, int]:
    """Spatial grid cell of `loc` for a given cell edge length in metres."""
    y = loc.lat_micro / 1e6 * METERS_PER_DEGREE
    x = loc.lon_micro / 1e6 * METERS_PER_DEGREE
    return (math.floor(y / cell_m), math.floor(x / cell_m))


# --- event kinds ------------------------------------------------------------

@dataclass(frozen=True)
class EventKind:
    code: int
    speed_kmh: int = 0  # meaningful only for TrafficSpeed

    CODE_NAMES = ("RoadDamage", "ParkingSpot", "TrafficSpeed", "Congestion", "Clear")

    def __post_init__(self) -> None:
        if not 0 <= self.code < len(self.CODE_NAMES):
            raise RangeError(f"unknown event code {self.code}")
        if self.code != 2 and self.speed_kmh != 0:
            raise RangeError("speed only valid for TrafficSpeed")
        if self.speed_kmh < 0:
            raise RangeError("speed must be non-negative")

    @property
    def name(self) -> str:
        return self.CODE_NAMES[self.code]


ROAD_DAMAGE = EventKind(0)
CLEAR = EventKind(4)


def _encode_geo(loc: GeoPoint, w: Writer) -> None:
    w.i32(loc.lat_micro)
    w.i32(loc.lon_micro)


def _decode_geo(r: Reader) -> GeoPoint:
    loc = GeoPoint(lat_micro=r.i32(), lon_micro=r.i32())
    try:
        loc.check_range()
    except RangeError as exc:
        raise DecodeError(str(exc)) from exc
    return loc


def _encode_event(ev: EventKind, w: Writer) -> None:
    w.u8(ev.code)
    if ev.code == 2:
        w.u32(ev.speed_kmh)


def _decode_event(r: Reader) -> EventKind:
    code = r.u8()
    speed = r.u32() if code == 2 else 0
    try:
        return EventKind(code, speed)
    except RangeError as exc:
        raise DecodeError(str(exc)) from exc


def _encode_payload(loc: GeoPoint, event: EventKind, timestamp: int,
                    w: Writer) -> None:
    _encode_geo(loc, w)
    _encode_event(event, w)
    w.u64(timestamp)


# --- vehicle report ---------------------------------------------------------

@dataclass(frozen=True)
class DataTransaction:
    loc: GeoPoint
    event: EventKind
    timestamp: int  # ms since scenario epoch
    pk: bytes       # fresh, single-use per report
    vehicle_sign: bytes


def data_tx_signing_bytes(loc: GeoPoint, event: EventKind,
                          timestamp: int, pk: bytes) -> bytes:
    w = Writer()
    _encode_payload(loc, event, timestamp, w)
    return member_signing_bytes(w.getvalue(), pk)


def member_signing_bytes(payload_prefix: bytes, pk: bytes) -> bytes:
    """What the report key `pk` signs, given its payload's wire bytes.

    An aggregate's members share one payload, so a verifier encodes it
    once and appends each member's length-prefixed key.
    """
    return payload_prefix + encoding.length_prefixed(pk)


def build_data_tx(scheme: SignatureScheme, vehicle_key: KeyPair,
                  loc: GeoPoint, event: EventKind, ts: int) -> DataTransaction:
    loc.check_range()
    if ts < 0:
        raise RangeError("timestamp must be non-negative")
    sig = scheme.sign(vehicle_key,
                      data_tx_signing_bytes(loc, event, ts, vehicle_key.public))
    return DataTransaction(loc=loc, event=event, timestamp=ts,
                           pk=vehicle_key.public, vehicle_sign=sig)


def verify_data_tx(scheme: SignatureScheme, tx: DataTransaction) -> bool:
    try:
        tx.loc.check_range()
    except RangeError:
        return False
    if tx.timestamp < 0:
        return False
    msg = data_tx_signing_bytes(tx.loc, tx.event, tx.timestamp, tx.pk)
    return scheme.verify(tx.pk, msg, tx.vehicle_sign)


def _encode_data_tx(tx: DataTransaction, w: Writer) -> None:
    _encode_geo(tx.loc, w)
    _encode_event(tx.event, w)
    w.u64(tx.timestamp)
    w.bytes_(tx.pk)
    w.bytes_(tx.vehicle_sign)


def _decode_data_tx(r: Reader) -> DataTransaction:
    return DataTransaction(loc=_decode_geo(r), event=_decode_event(r),
                           timestamp=r.u64(), pk=r.bytes_(),
                           vehicle_sign=r.bytes_())


# --- chained transactions ---------------------------------------------------

_C = TypeVar("_C", bound="Chained")


class Chained:
    """Canonical bytes and digest of an immutable tx.

    `wire` is `canonical_encode(tx)` and `digest` is `sha256(wire)`. Both
    live in the instance dict, outside the dataclass fields, so they take
    no part in equality, hashing or repr. The signers (`sign_rsi_tx`,
    `market.build_access_tx`, the countersigned form in
    `RuleTable.evaluate_access`, `market.create_contract`) seed `wire`
    with the tag, the message they just signed and the encoded signature
    fields; any other tx is encoded on first use.

    Each signed message is a prefix of `wire`, and the write-path checks
    verify slices of it, not a re-encoding of the fields: `verify_rsi_tx`
    (RSI signature and the members' payload prefix), the requester and
    countersigned messages in `RuleTable.evaluate_access` and
    `ledger.miner_admit`, and contract admission. Block hashes are
    computed over `wire` too. `dataclasses.replace` and decoding build
    new objects with nothing cached, so a rewritten tx is encoded afresh.
    Only a field changed in place with `object.__setattr__` can leave
    `wire` stale; the post-run sweep compares it with its own fresh
    encoding before it replays admission.
    """

    @cached_property
    def wire(self) -> bytes:
        return encoding.canonical_encode(self)

    @cached_property
    def digest(self) -> bytes:
        return sha256(self.wire)

    def seed_wire(self: _C, tag: int, *parts: bytes) -> _C:
        """Cache `wire` as `tag` then `parts`, which must be the rest of
        `canonical_encode(self)`; returns self."""
        self.__dict__["wire"] = b"".join((bytes((tag,)), *parts))
        return self

    def signed_prefix(self, tail: int) -> bytes:
        """`wire` without its tag byte and its last `tail` bytes."""
        wire = self.wire
        return wire[1:len(wire) - tail]


# --- RSI aggregate ----------------------------------------------------------

@dataclass(frozen=True)
class Payload:
    """The single deduplicated (loc, event, timestamp) copy."""

    loc: GeoPoint
    event: EventKind
    timestamp: int


def payload_bytes(p: Payload) -> bytes:
    """The payload's wire bytes, as carried inside an aggregate."""
    w = Writer()
    _encode_payload(p.loc, p.event, p.timestamp, w)
    return w.getvalue()


def payload_len(p: Payload) -> int:
    """`len(payload_bytes(p))`: two i32 coordinates, the u8 event code, a
    u32 speed for TrafficSpeed only, and the u64 timestamp."""
    return 21 if p.event.code == 2 else 17


def _decode_payload(r: Reader) -> Payload:
    return Payload(loc=_decode_geo(r), event=_decode_event(r), timestamp=r.u64())


@dataclass(frozen=True)
class RsiTransaction(Chained):
    rsi_pk: bytes
    payload: Payload
    vehicle_signs: tuple[bytes, ...]
    vehicle_pks: tuple[bytes, ...]
    flag: int  # 1 = corroborated / trustworthy
    rsi_sign: bytes


def rsi_tx_signing_bytes(rsi_pk: bytes, payload: Payload,
                         vehicle_signs: tuple[bytes, ...],
                         vehicle_pks: tuple[bytes, ...], flag: int) -> bytes:
    w = Writer()
    w.bytes_(rsi_pk)
    _encode_payload(payload.loc, payload.event, payload.timestamp, w)
    w.bytes_list(vehicle_signs)
    w.bytes_list(vehicle_pks)
    w.u8(flag)
    return w.getvalue()


def build_rsi_tx(scheme: SignatureScheme, rsi_key: KeyPair, payload: Payload,
                 members: list[tuple[bytes, bytes]], flag: int) -> RsiTransaction:
    """Aggregate verified member reports into one multisign transaction.

    `members` is a list of (pk, sign) pairs; every pair must verify
    against the shared payload or the whole aggregation is refused.
    """
    if flag not in (0, 1):
        raise RangeError(f"flag must be 0 or 1, got {flag}")
    if not members:
        raise MemberSignatureError("an aggregate needs at least one member")
    prefix = payload_bytes(payload)
    for pk, sig in members:
        if not scheme.verify(pk, member_signing_bytes(prefix, pk), sig):
            raise MemberSignatureError("member signature does not verify")
    return sign_rsi_tx(scheme, rsi_key, payload, members, flag)


def sign_rsi_tx(scheme: SignatureScheme, rsi_key: KeyPair, payload: Payload,
                members: list[tuple[bytes, bytes]], flag: int) -> RsiTransaction:
    """Sign an aggregate without re-checking its members.

    For callers that have already verified every (pk, sign) pair against
    exactly `payload`, as `edge.ingest` does for each report of a window;
    `build_rsi_tx` is the checked form.
    """
    pks = tuple(pk for pk, _ in members)
    signs = tuple(sig for _, sig in members)
    msg = rsi_tx_signing_bytes(rsi_key.public, payload, signs, pks, flag)
    rsi_sign = scheme.sign(rsi_key, msg)
    return RsiTransaction(rsi_pk=rsi_key.public, payload=payload,
                          vehicle_signs=signs, vehicle_pks=pks, flag=flag,
                          rsi_sign=rsi_sign).seed_wire(
        TAG_RSI_TX, msg, encoding.length_prefixed(rsi_sign))


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str = ""

    @classmethod
    def accept(cls) -> "Verdict":
        return cls(True)

    @classmethod
    def reject(cls, reason: str) -> "Verdict":
        return cls(False, reason)


REJECT_UNCERTIFIED_RSI = "UncertifiedRsi"
REJECT_BAD_RSI_SIGNATURE = "BadRsiSignature"
REJECT_BAD_MEMBER_SIGNATURE = "BadMemberSignature"
REJECT_INSUFFICIENT_MEMBERS = "InsufficientMembers"
REJECT_UNTRUSTED = "Untrusted"
REJECT_WRONG_LEDGER = "WrongLedger"
REJECT_MALFORMED = "Malformed"


def verify_rsi_tx(scheme: SignatureScheme, tx: RsiTransaction, ca_pk: bytes,
                  cert_registry: dict[bytes, Certificate], m: int,
                  verified_certs: set[tuple[bytes, Certificate]] | None = None
                  ) -> Verdict:
    """Miner-side admission check for an aggregate transaction.

    Accept requires a CA-certified RSI key, a well-formed member list,
    at least `m` members, flag = 1, a valid RSI signature and every member
    signature verifying. The checks run in that order and the first that
    fails names the verdict, so the reason precedence is
    `UncertifiedRsi`, `Malformed`, `InsufficientMembers`, `Untrusted`,
    `BadRsiSignature`, `BadMemberSignature`. Every field check comes
    before any signature check: an aggregate its RSI flagged 0, or one
    with too few members, is rejected without a single verify.
    `verified_certs` is the certificate memo of `verify_certificate`.
    """
    cert = cert_registry.get(tx.rsi_pk)
    if not isinstance(cert, Certificate) or not verify_certificate(
            scheme, ca_pk, cert, verified_certs):
        return Verdict.reject(REJECT_UNCERTIFIED_RSI)
    if len(tx.vehicle_signs) != len(tx.vehicle_pks) or not tx.vehicle_pks:
        return Verdict.reject(REJECT_MALFORMED)
    if tx.flag not in (0, 1):
        return Verdict.reject(REJECT_MALFORMED)
    if len(tx.vehicle_pks) < m:
        return Verdict.reject(REJECT_INSUFFICIENT_MEMBERS)
    if tx.flag != 1:
        return Verdict.reject(REJECT_UNTRUSTED)
    msg = tx.signed_prefix(4 + len(tx.rsi_sign))
    if not scheme.verify(tx.rsi_pk, msg, tx.rsi_sign):
        return Verdict.reject(REJECT_BAD_RSI_SIGNATURE)
    # the payload follows the length-prefixed RSI key in the signed bytes
    start = 4 + len(tx.rsi_pk)
    prefix = msg[start:start + payload_len(tx.payload)]
    for pk, sig in zip(tx.vehicle_pks, tx.vehicle_signs):
        if not scheme.verify(pk, member_signing_bytes(prefix, pk), sig):
            return Verdict.reject(REJECT_BAD_MEMBER_SIGNATURE)
    return Verdict.accept()


def _encode_rsi_tx(tx: RsiTransaction, w: Writer) -> None:
    w.raw(rsi_tx_signing_bytes(tx.rsi_pk, tx.payload, tx.vehicle_signs,
                               tx.vehicle_pks, tx.flag))
    w.bytes_(tx.rsi_sign)


def _decode_rsi_tx(r: Reader) -> RsiTransaction:
    rsi_pk = r.bytes_()
    payload = _decode_payload(r)
    signs = tuple(r.bytes_() for _ in range(r.u32()))
    pks = tuple(r.bytes_() for _ in range(r.u32()))
    flag = r.u8()
    if flag not in (0, 1):
        raise DecodeError(f"flag must be 0x00 or 0x01, got {flag:#x}")
    return RsiTransaction(rsi_pk=rsi_pk, payload=payload, vehicle_signs=signs,
                          vehicle_pks=pks, flag=flag, rsi_sign=r.bytes_())


# --- marketplace types ------------------------------------------------------

@dataclass(frozen=True)
class Scope:
    """What a grant covers: regions, a data period, and event kinds."""

    region_ids: tuple[str, ...]
    from_ms: int
    to_ms: int
    kind_codes: tuple[int, ...]

    def contains_query(self, query: "Scope") -> bool:
        return (set(query.region_ids) <= set(self.region_ids)
                and self.from_ms <= query.from_ms
                and query.to_ms <= self.to_ms
                and set(query.kind_codes) <= set(self.kind_codes))


def _encode_scope(s: Scope, w: Writer) -> None:
    w.u32(len(s.region_ids))
    for rid in s.region_ids:
        w.string(rid)
    w.u64(s.from_ms)
    w.u64(s.to_ms)
    w.u32(len(s.kind_codes))
    for c in s.kind_codes:
        w.u8(c)


def _decode_scope(r: Reader) -> Scope:
    rids = tuple(r.string() for _ in range(r.u32()))
    from_ms, to_ms = r.u64(), r.u64()
    codes = tuple(r.u8() for _ in range(r.u32()))
    return Scope(region_ids=rids, from_ms=from_ms, to_ms=to_ms, kind_codes=codes)


@dataclass(frozen=True)
class SmartContract(Chained):
    owner_pk: bytes
    grantee_pk: bytes
    start_ms: int  # access permitted in [start_ms, end_ms)
    end_ms: int
    scope: Scope
    price: int  # recorded, never settled
    owner_sign: bytes

    def contract_id(self) -> bytes:
        return self.digest


def contract_signing_bytes(owner_pk: bytes, grantee_pk: bytes, start_ms: int,
                           end_ms: int, scope: Scope, price: int) -> bytes:
    w = Writer()
    w.bytes_(owner_pk)
    w.bytes_(grantee_pk)
    w.u64(start_ms)
    w.u64(end_ms)
    _encode_scope(scope, w)
    w.u64(price)
    return w.getvalue()


def _encode_contract(c: SmartContract, w: Writer) -> None:
    w.raw(contract_signing_bytes(c.owner_pk, c.grantee_pk, c.start_ms,
                                 c.end_ms, c.scope, c.price))
    w.bytes_(c.owner_sign)


def _decode_contract(r: Reader) -> SmartContract:
    return SmartContract(owner_pk=r.bytes_(), grantee_pk=r.bytes_(),
                         start_ms=r.u64(), end_ms=r.u64(),
                         scope=_decode_scope(r), price=r.u64(),
                         owner_sign=r.bytes_())


GRANT_CONTRACT_REF = 0
GRANT_OWNER_SIG = 1


@dataclass(frozen=True)
class Grant:
    """Either a pointer to an on-chain contract or a direct owner signature."""

    kind: int
    contract_id: bytes = b""
    owner_pk: bytes = b""
    owner_sign: bytes = b""


def _encode_grant(g: Grant, w: Writer) -> None:
    w.u8(g.kind)
    if g.kind == GRANT_CONTRACT_REF:
        w.bytes_(g.contract_id)
    else:
        w.bytes_(g.owner_pk)
        w.bytes_(g.owner_sign)


def _decode_grant(r: Reader) -> Grant:
    kind = r.u8()
    if kind == GRANT_CONTRACT_REF:
        return Grant(kind=kind, contract_id=r.bytes_())
    if kind == GRANT_OWNER_SIG:
        return Grant(kind=kind, owner_pk=r.bytes_(), owner_sign=r.bytes_())
    raise DecodeError(f"unknown grant kind {kind}")


@dataclass(frozen=True)
class AccessTransaction(Chained):
    """The double-signed record of one data access.

    Built by the requester with `requester_sign`; the rule table adds its
    key and signature on approval, and only that final form is chained.
    """

    requester_pk: bytes
    query: Scope
    grant: Grant
    requester_sign: bytes
    ruletable_pk: bytes = b""
    ruletable_sign: bytes = b""

    def is_approved(self) -> bool:
        return bool(self.ruletable_sign)

    def requester_message(self) -> bytes:
        """What the requester signed, sliced from `wire`."""
        return self.signed_prefix(4 + len(self.requester_sign)
                                  + len(approval_bytes(self)))

    def countersigned_message(self) -> bytes:
        """What the rule table signs, sliced from `wire`: the requester's
        message and signature, without the rule-table fields."""
        return self.signed_prefix(len(approval_bytes(self)))


def access_requester_signing_bytes(requester_pk: bytes, query: Scope,
                                   grant: Grant) -> bytes:
    w = Writer()
    w.bytes_(requester_pk)
    _encode_scope(query, w)
    _encode_grant(grant, w)
    return w.getvalue()


def approval_bytes(tx: AccessTransaction) -> bytes:
    """The encoded rule-table fields that end an access tx's wire bytes:
    a 0 marker, or a 1 marker, the rule-table key and its signature."""
    if tx.ruletable_sign:
        return b"".join((b"\x01", encoding.length_prefixed(tx.ruletable_pk),
                         encoding.length_prefixed(tx.ruletable_sign)))
    return b"\x00"


def grant_signing_bytes(requester_pk: bytes, query: Scope) -> bytes:
    """What a data owner signs when granting directly, without a contract."""
    w = Writer()
    w.bytes_(requester_pk)
    _encode_scope(query, w)
    return w.getvalue()


def _encode_access_tx(tx: AccessTransaction, w: Writer) -> None:
    w.raw(access_requester_signing_bytes(tx.requester_pk, tx.query, tx.grant))
    w.bytes_(tx.requester_sign)
    w.raw(approval_bytes(tx))


def _decode_access_tx(r: Reader) -> AccessTransaction:
    requester_pk = r.bytes_()
    query = _decode_scope(r)
    grant = _decode_grant(r)
    requester_sign = r.bytes_()
    ruletable_pk = ruletable_sign = b""
    present = r.u8()
    if present not in (0, 1):
        raise DecodeError("bad approval marker")
    if present:
        ruletable_pk = r.bytes_()
        ruletable_sign = r.bytes_()
    return AccessTransaction(requester_pk=requester_pk, query=query,
                             grant=grant, requester_sign=requester_sign,
                             ruletable_pk=ruletable_pk,
                             ruletable_sign=ruletable_sign)


@dataclass(frozen=True)
class DataRequestTransaction:
    """SP broadcast asking vehicles in an area to offer their data."""

    sp_pk: bytes
    area_min: GeoPoint  # south-west corner
    area_max: GeoPoint  # north-east corner
    from_ms: int
    to_ms: int
    target_regions: tuple[str, ...]
    sp_sign: bytes


def data_request_signing_bytes(sp_pk: bytes, area_min: GeoPoint,
                               area_max: GeoPoint, from_ms: int, to_ms: int,
                               target_regions: tuple[str, ...]) -> bytes:
    w = Writer()
    w.bytes_(sp_pk)
    _encode_geo(area_min, w)
    _encode_geo(area_max, w)
    w.u64(from_ms)
    w.u64(to_ms)
    w.u32(len(target_regions))
    for rid in target_regions:
        w.string(rid)
    return w.getvalue()


def _encode_data_request(tx: DataRequestTransaction, w: Writer) -> None:
    w.raw(data_request_signing_bytes(tx.sp_pk, tx.area_min, tx.area_max,
                                     tx.from_ms, tx.to_ms, tx.target_regions))
    w.bytes_(tx.sp_sign)


def _decode_data_request(r: Reader) -> DataRequestTransaction:
    return DataRequestTransaction(sp_pk=r.bytes_(), area_min=_decode_geo(r),
                                  area_max=_decode_geo(r), from_ms=r.u64(),
                                  to_ms=r.u64(),
                                  target_regions=tuple(
                                      r.string() for _ in range(r.u32())),
                                  sp_sign=r.bytes_())


encoding.register_codec(DataTransaction, TAG_DATA_TX,
                        _encode_data_tx, _decode_data_tx)
encoding.register_codec(RsiTransaction, TAG_RSI_TX,
                        _encode_rsi_tx, _decode_rsi_tx)
encoding.register_codec(SmartContract, TAG_SMART_CONTRACT,
                        _encode_contract, _decode_contract)
encoding.register_codec(AccessTransaction, TAG_ACCESS_TX,
                        _encode_access_tx, _decode_access_tx)
encoding.register_codec(DataRequestTransaction, TAG_DATA_REQUEST,
                        _encode_data_request, _decode_data_request)

canonical_encode = encoding.canonical_encode
canonical_decode = encoding.canonical_decode
