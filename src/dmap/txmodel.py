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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TypeVar

from . import encoding
from .crypto import Certificate, Checks, KeyPair, SignatureScheme, Triple, sha256
from .encoding import (
    DecodeError,
    Layout,
    Reader,
    bytes_,
    hand,
    i32,
    length_prefixed,
    list_of,
    string,
    u8,
    u64,
)

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


def check_u64(name: str, value: int) -> None:
    """Refuse a value of a field that goes on the wire as a u64."""
    if not 0 <= value < 2**64:
        raise RangeError(f"{name} out of range: {value}")


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
        check_kind_code(self.code)
        if self.code != 2 and self.speed_kmh != 0:
            raise RangeError("speed only valid for TrafficSpeed")
        if not 0 <= self.speed_kmh < 2**32:  # a u32 on the wire
            raise RangeError(f"speed out of range: {self.speed_kmh}")

    @property
    def name(self) -> str:
        return self.CODE_NAMES[self.code]


def check_kind_code(code: int) -> None:
    """Refuse an event code that names no event kind."""
    if not 0 <= code < len(EventKind.CODE_NAMES):
        raise RangeError(f"unknown event code {code}")


ROAD_DAMAGE = EventKind(0)
CLEAR = EventKind(4)


# --- vehicle report ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DataTransaction:
    loc: GeoPoint
    event: EventKind
    timestamp: int  # ms since scenario epoch
    pk: bytes       # fresh, single-use per report
    vehicle_sign: bytes


def member_triples(payload: Payload, members: Iterable[tuple[bytes, bytes]]
                   ) -> list[Triple]:
    """The check of each (pk, sign) member of an aggregate over `payload`:
    a member signed its report's bytes before the signature, the payload's
    wire bytes and its length-prefixed key. The members share the payload,
    so it is encoded once."""
    prefix = payload_bytes(payload)
    return [(pk, prefix + length_prefixed(pk), sig) for pk, sig in members]


def build_data_tx(scheme: SignatureScheme, vehicle_key: KeyPair,
                  loc: GeoPoint, event: EventKind, ts: int) -> DataTransaction:
    loc.check_range()
    check_u64("timestamp", ts)
    sig = scheme.sign(vehicle_key,
                      data_tx_signing_bytes(loc, event, ts, vehicle_key.public))
    return DataTransaction(loc=loc, event=event, timestamp=ts,
                           pk=vehicle_key.public, vehicle_sign=sig)


# no scheme verifies a key that is not 32 bytes long
_REFUSED: Triple = (b"", b"", b"")


def data_tx_triple(tx: DataTransaction) -> Triple:
    """What verifies `tx`, or `_REFUSED`, which every scheme answers
    False, if a field is out of range; `edge.ingest` verifies a batch of
    these."""
    try:
        tx.loc.check_range()
        check_u64("timestamp", tx.timestamp)
    except RangeError:
        return _REFUSED
    msg = data_tx_signing_bytes(tx.loc, tx.event, tx.timestamp, tx.pk)
    return tx.pk, msg, tx.vehicle_sign


def verify_data_tx(scheme: SignatureScheme, tx: DataTransaction) -> bool:
    # only tests call it; it stays while perfbench traces its name
    return scheme.verify(*data_tx_triple(tx))


# --- chained transactions ---------------------------------------------------

_C = TypeVar("_C", bound="Chained")


class Chained:
    """Canonical bytes and digest of an immutable tx.

    `wire` is `canonical_encode(tx)` and `digest` is `sha256(wire)`. Both
    live in the instance dict, outside the dataclass fields, so they take
    no part in equality, hashing or repr. The signers (`build_rsi_tx`,
    `market.build_access_tx`, the countersigned form in
    `RuleTable.evaluate_access`, `market.create_contract`) seed `wire`
    with `seed_wire`; any other tx is encoded on first use. Each signed
    message is a prefix of `wire`: `signed_prefix` encodes the rows from
    the signature on (the layout's `tails`) and cuts that many bytes off
    the end. The RSI, requester, countersigned and contract checks verify
    these slices. Block hashes are computed over `wire` too. A tx decoded
    from a block caches the bytes it was read from
    (`ledger._read_chained`). `dataclasses.replace` and other decoding
    build new objects with nothing cached; only a field changed in place
    with `object.__setattr__` can leave `wire` stale, and
    `ledger.validate_chain` compares it with a fresh encoding, which
    `ledger.check_ledger` does before it replays admission.
    """

    @cached_property
    def wire(self) -> bytes:
        return encoding.canonical_encode(self)

    @cached_property
    def digest(self) -> bytes:
        return sha256(self.wire)

    def seed_wire(self: _C, message: bytes, field: str) -> _C:
        """Cache `wire` as the tag, `message` and the rows of the type's
        layout from `field` on; `message` must be the rows before `field`,
        as the signer just signed them. Returns self."""
        layout = encoding.LAYOUTS[type(self)]
        self.__dict__["wire"] = b"".join(
            (layout.tag_byte, message, layout.tails[field](self)))
        return self

    def signed_prefix(self, field: str) -> bytes:
        """`wire` without its tag byte and the rows from `field` on, cut
        by the length of those rows' encoding."""
        wire = self.wire
        return wire[1:len(wire) - len(encoding.LAYOUTS[type(self)].tails[field](self))]


# --- RSI aggregate ----------------------------------------------------------

@dataclass(frozen=True)
class Payload:
    """The single deduplicated (loc, event, timestamp) copy."""

    loc: GeoPoint
    event: EventKind
    timestamp: int


@dataclass(frozen=True)
class RsiTransaction(Chained):
    rsi_pk: bytes
    payload: Payload
    vehicle_signs: tuple[bytes, ...]
    vehicle_pks: tuple[bytes, ...]
    flag: int  # 1 = corroborated / trustworthy
    rsi_sign: bytes


def build_rsi_tx(scheme: SignatureScheme, rsi_key: KeyPair, payload: Payload,
                 members: list[tuple[bytes, bytes]], flag: int) -> RsiTransaction:
    """Aggregate member reports into one multisign transaction signed by the
    RSI. The caller has verified each (pk, sign) pair of `members` against
    exactly `payload`, as `edge.ingest` does; miner admission re-checks
    each pair that it does not know to have verified (`crypto.Checks`)."""
    pks = tuple(pk for pk, _ in members)
    signs = tuple(sig for _, sig in members)
    msg = rsi_tx_signing_bytes(rsi_key.public, payload, signs, pks, flag)
    rsi_sign = scheme.sign(rsi_key, msg)
    return RsiTransaction(rsi_pk=rsi_key.public, payload=payload,
                          vehicle_signs=signs, vehicle_pks=pks, flag=flag,
                          rsi_sign=rsi_sign).seed_wire(msg, "rsi_sign")


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str = ""


_ACCEPTED = Verdict(True)


# One tx's admission, decided up to its signature checks: in precedence
# order, (reason, i, n), the reject reason of a check and the index and
# number of its results in the batch (see `crypto.Checks`); a check with
# no results (n = 0) is a field check that failed, after which nothing
# is checked.
Plan = list[tuple[str, int, int]]


def decide(plan: Plan, results: Sequence[bool]) -> Verdict:
    """The verdict of `plan`, given the results of its batch."""
    for reason, i, n in plan:
        if not (results[i] if n == 1 else n and all(results[i:i + n])):
            return Verdict(False, reason)
    return _ACCEPTED


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
    """Miner-side admission check for an aggregate transaction; see
    `plan_rsi_tx`. `verified_certs` is the certificate memo of `Checks`.
    Only tests call it; it stays while perfbench traces its name."""
    checks = Checks(verified_certs)
    plan = plan_rsi_tx(tx, ca_pk, cert_registry, m, checks)
    return decide(plan, checks.run(scheme))


def plan_rsi_tx(tx: RsiTransaction, ca_pk: bytes,
                cert_registry: dict[bytes, Certificate], m: int,
                checks: Checks) -> Plan:
    """The admission of an aggregate, its signature checks queued on
    `checks`.

    Accept requires a CA-certified RSI key, a well-formed member list,
    at least `m` members, flag = 1, a valid RSI signature and every member
    signature verifying. The first that fails, in that order, names the
    verdict, so the reason precedence is `UncertifiedRsi`, `Malformed`,
    `InsufficientMembers`, `Untrusted`, `BadRsiSignature`,
    `BadMemberSignature`. Every field check comes before any signature
    check but the certificate's: an aggregate its RSI flagged 0, or one
    with too few members, queues no other verify.
    """
    cert = cert_registry.get(tx.rsi_pk)
    if not isinstance(cert, Certificate):
        return [(REJECT_UNCERTIFIED_RSI, 0, 0)]
    i = checks.certificate(ca_pk, cert)
    plan = [] if i is None else [(REJECT_UNCERTIFIED_RSI, i, 1)]
    n = len(tx.vehicle_pks)
    if len(tx.vehicle_signs) != n or not n or tx.flag not in (0, 1):
        plan.append((REJECT_MALFORMED, 0, 0))
    elif n < m:
        plan.append((REJECT_INSUFFICIENT_MEMBERS, 0, 0))
    elif tx.flag != 1:
        plan.append((REJECT_UNTRUSTED, 0, 0))
    else:
        i = checks.add((tx.rsi_pk, tx.signed_prefix("rsi_sign"), tx.rsi_sign),
                       *member_triples(tx.payload,
                                       zip(tx.vehicle_pks, tx.vehicle_signs)))
        plan += [(REJECT_BAD_RSI_SIGNATURE, i, 1),
                 (REJECT_BAD_MEMBER_SIGNATURE, i + 1, n)]
    return plan


# --- marketplace types ------------------------------------------------------

@dataclass(frozen=True)
class Scope:
    """What a grant covers: regions, a data period, and event kinds."""

    region_ids: tuple[str, ...]
    from_ms: int
    to_ms: int
    kind_codes: tuple[int, ...]

    def contains_query(self, query: "Scope") -> bool:
        return (self.from_ms <= query.from_ms
                and query.to_ms <= self.to_ms
                and set(self.region_ids).issuperset(query.region_ids)
                and set(self.kind_codes).issuperset(query.kind_codes))


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


GRANT_CONTRACT_REF = 0
GRANT_OWNER_SIG = 1


@dataclass(frozen=True)
class Grant:
    """Either a pointer to an on-chain contract or a direct owner signature."""

    kind: int
    contract_id: bytes = b""
    owner_pk: bytes = b""
    owner_sign: bytes = b""


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
        return self.signed_prefix("requester_sign")

    def countersigned_message(self) -> bytes:
        """What the rule table signs, sliced from `wire`: the requester's
        message and signature, without the rule-table fields."""
        return self.signed_prefix("ruletable_pk")


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


# --- wire layouts -----------------------------------------------------------
# Each type's field order is stated here once. The signing bytes, the
# registered encoder and decoder, and the tails that `seed_wire` appends
# and whose length `signed_prefix` cuts off are compiled from these
# tables at import.

def _checked_geo(lat_micro: int, lon_micro: int) -> GeoPoint:
    loc = GeoPoint(lat_micro, lon_micro)
    try:
        loc.check_range()
    except RangeError as exc:
        raise DecodeError(str(exc)) from exc
    return loc


def _event_bytes(ev: EventKind) -> bytes:
    """The event code, then a u32 speed for TrafficSpeed only."""
    if ev.code == 2:
        return b"\x02" + ev.speed_kmh.to_bytes(4, "big")
    return bytes((ev.code,))


def _read_event(r: Reader) -> EventKind:
    code = r.u8()
    speed = r.u32() if code == 2 else 0
    try:
        return EventKind(code, speed)
    except RangeError as exc:
        raise DecodeError(str(exc)) from exc


def _checked_rsi_tx(*fields) -> RsiTransaction:
    tx = RsiTransaction(*fields)
    if tx.flag not in (0, 1):
        raise DecodeError(f"flag must be 0x00 or 0x01, got {tx.flag:#x}")
    return tx


def _grant_bytes(g: Grant) -> bytes:
    """The kind, then the contract id or the owner's key and signature."""
    if g.kind == GRANT_CONTRACT_REF:
        return bytes((g.kind,)) + length_prefixed(g.contract_id)
    return b"".join((bytes((g.kind,)), length_prefixed(g.owner_pk),
                     length_prefixed(g.owner_sign)))


def _read_grant(r: Reader) -> Grant:
    kind = r.u8()
    if kind == GRANT_CONTRACT_REF:
        return Grant(kind=kind, contract_id=r.bytes_())
    if kind == GRANT_OWNER_SIG:
        return Grant(kind=kind, owner_pk=r.bytes_(), owner_sign=r.bytes_())
    raise DecodeError(f"unknown grant kind {kind}")


def _approval_bytes(ruletable_pk: bytes, ruletable_sign: bytes) -> bytes:
    """A 0 marker, or a 1 marker, the rule-table key and its signature."""
    if not ruletable_sign:
        return b"\x00"
    return b"".join((b"\x01", length_prefixed(ruletable_pk),
                     length_prefixed(ruletable_sign)))


def _read_approval(r: Reader) -> tuple[bytes, bytes]:
    marker = r.u8()
    if marker == 0:
        return b"", b""
    if marker != 1:
        raise DecodeError("bad approval marker")
    ruletable_pk, ruletable_sign = r.bytes_(), r.bytes_()
    if not ruletable_sign:
        # it would encode with a 0 marker: two byte strings, one tx
        raise DecodeError("approval marker without a rule-table signature")
    return ruletable_pk, ruletable_sign


GEO = Layout(GeoPoint, None, (("lat_micro", i32), ("lon_micro", i32)),
             make=_checked_geo)
PAYLOAD = Layout(Payload, None, (
    ("loc", GEO), ("event", hand(_event_bytes, _read_event)),
    ("timestamp", u64)))
DATA_TX = Layout(DataTransaction, TAG_DATA_TX, PAYLOAD.rows + (
    ("pk", bytes_), ("vehicle_sign", bytes_)))
RSI_TX = Layout(RsiTransaction, TAG_RSI_TX, (
    ("rsi_pk", bytes_), ("payload", PAYLOAD),
    ("vehicle_signs", list_of(bytes_)), ("vehicle_pks", list_of(bytes_)),
    ("flag", u8), ("rsi_sign", bytes_)), make=_checked_rsi_tx)
SCOPE = Layout(Scope, None, (
    ("region_ids", list_of(string)), ("from_ms", u64), ("to_ms", u64),
    ("kind_codes", list_of(u8))))
CONTRACT = Layout(SmartContract, TAG_SMART_CONTRACT, (
    ("owner_pk", bytes_), ("grantee_pk", bytes_), ("start_ms", u64),
    ("end_ms", u64), ("scope", SCOPE), ("price", u64),
    ("owner_sign", bytes_)))
ACCESS_TX = Layout(AccessTransaction, TAG_ACCESS_TX, (
    ("requester_pk", bytes_), ("query", SCOPE),
    ("grant", hand(_grant_bytes, _read_grant)),
    ("requester_sign", bytes_),
    (("ruletable_pk", "ruletable_sign"),
     hand(_approval_bytes, _read_approval))))
DATA_REQUEST = Layout(DataRequestTransaction, TAG_DATA_REQUEST, (
    ("sp_pk", bytes_), ("area_min", GEO), ("area_max", GEO),
    ("from_ms", u64), ("to_ms", u64), ("target_regions", list_of(string)),
    ("sp_sign", bytes_)))

payload_bytes = PAYLOAD.encode
data_tx_signing_bytes = DATA_TX.fields_before("vehicle_sign")
rsi_tx_signing_bytes = RSI_TX.fields_before("rsi_sign")
contract_signing_bytes = CONTRACT.fields_before("owner_sign")
# what a data owner signs when granting directly, without a contract
grant_signing_bytes = ACCESS_TX.fields_before("grant")
access_requester_signing_bytes = ACCESS_TX.fields_before("requester_sign")
data_request_signing_bytes = DATA_REQUEST.fields_before("sp_sign")
