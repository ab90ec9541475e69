"""Data marketplace: per-RSI data directories in a cloud store, the rule
table mediating between chain and store, smart-contract grants, and
double-signed access transactions.

The rule table holds its own CA-certified keypair: a data access is only
served once the requester's transaction carries both the requester's
signature and the rule table's countersignature, and that final form is
chained on the ledger of the region whose directory served the request.

Store-side search runs in process; external search services are
deliberately not used. The rule table indexes the records of every
directory twice, each by what one read selects on, and each group keeps
its timestamps in ascending order, so a read bisects its period in each
group instead of visiting every record:

- by place, `(lat_micro, lon_micro)` across all regions and kinds, with
  prefix sums of the record sizes, for `query_availability`;
- by region and event code, with the positions of the records in that
  directory's `records`, for the access path.

Each read first indexes the records appended to any directory since the
last read, in store order (`record_id`). In a run each window's records
follow the last window's, so every group grows by appends; a record out
of time order is inserted in place.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

from .crypto import Certificate, KeyPair, SignatureScheme, verify_certificate
from .ledger import Ledger, MinerPolicy, append_block
from .txmodel import (
    AccessTransaction,
    DataRequestTransaction,
    GeoPoint,
    Grant,
    GRANT_CONTRACT_REF,
    GRANT_OWNER_SIG,
    Payload,
    RangeError,
    RsiTransaction,
    Scope,
    SmartContract,
    access_requester_signing_bytes,
    contract_signing_bytes,
    data_request_signing_bytes,
    grant_signing_bytes,
    payload_bytes,
)


class CertError(ValueError):
    """Directory registration with an invalid certificate."""


class AlreadyRegistered(ValueError):
    pass


class UnknownRsi(ValueError):
    pass


class NotChained(ValueError):
    """Storage refused: the aggregate is not on its region's ledger."""


class FlagRejected(ValueError):
    """Storage refused: only flag=1 data is ever stored."""


class TargetError(ValueError):
    """Degenerate request area or empty target region set."""


DENY_NO_GRANT = "NoGrant"
DENY_EXPIRED = "Expired"
DENY_SCOPE_EXCEEDED = "ScopeExceeded"
DENY_BAD_SIGNATURE = "BadSignature"


@dataclass(frozen=True)
class Record:
    record_id: int
    region_id: str
    payload: Payload
    provenance: bytes            # digest of the chained aggregate
    owner_pks: tuple[bytes, ...]
    size_bytes: int


class _Times:
    """The timestamps of a group of records in ascending order, store
    order among equal ones."""

    __slots__ = ("times",)

    def __init__(self) -> None:
        self.times: list[int] = []

    def _insert(self, time: int) -> int:
        """Insert `time` after any equal one; its index."""
        times = self.times
        i = bisect_right(times, time)
        times.insert(i, time)
        return i

    def span(self, from_ms: int, to_ms: int) -> tuple[int, int]:
        """The index range of the timestamps in [from_ms, to_ms)."""
        return bisect_left(self.times, from_ms), bisect_left(self.times, to_ms)


class _Place(_Times):
    """The records at one place, with `sums[i]` the total size of the
    first `i`."""

    __slots__ = ("sums",)

    def __init__(self) -> None:
        super().__init__()
        self.sums = [0]

    def add(self, time: int, size: int) -> None:
        sums = self.sums
        i = self._insert(time)
        sums.insert(i + 1, sums[i] + size)
        for k in range(i + 2, len(sums)):  # none when it arrives in order
            sums[k] += size


class _Kind(_Times):
    """The records of one directory with one event code, with their
    positions in its `records`."""

    __slots__ = ("positions",)

    def __init__(self) -> None:
        super().__init__()
        self.positions: list[int] = []

    def add(self, time: int, position: int) -> None:
        self.positions.insert(self._insert(time), position)


@dataclass
class DataDirectory:
    region_id: str
    records: list[Record] = field(default_factory=list)


@dataclass
class AccessResult:
    granted: bool
    reason: str = ""
    records: list[Record] = field(default_factory=list)
    access_tx: AccessTransaction | None = None

    @classmethod
    def denied(cls, reason: str) -> "AccessResult":
        return cls(granted=False, reason=reason)


def create_contract(scheme: SignatureScheme, owner_key: KeyPair,
                    grantee_pk: bytes, timespan: tuple[int, int],
                    scope: Scope, price: int) -> SmartContract:
    """Sign a time-bounded grant; caller chains it before first use."""
    start_ms, end_ms = timespan
    if start_ms >= end_ms:
        raise RangeError("timespan must be a non-empty [start, end) interval")
    if scope.from_ms > scope.to_ms:
        raise RangeError("scope period must satisfy from <= to")
    if price < 0:
        raise RangeError("price must be non-negative")
    msg = contract_signing_bytes(owner_key.public, grantee_pk, start_ms,
                                 end_ms, scope, price)
    sig = scheme.sign(owner_key, msg)
    return SmartContract(owner_pk=owner_key.public, grantee_pk=grantee_pk,
                         start_ms=start_ms, end_ms=end_ms, scope=scope,
                         price=price, owner_sign=sig).seed_wire(
        msg, "owner_sign")


def build_access_tx(scheme: SignatureScheme, requester_key: KeyPair,
                    query: Scope, grant: Grant) -> AccessTransaction:
    msg = access_requester_signing_bytes(requester_key.public, query, grant)
    sig = scheme.sign(requester_key, msg)
    return AccessTransaction(requester_pk=requester_key.public, query=query,
                             grant=grant, requester_sign=sig).seed_wire(
        msg, "requester_sign")


def build_data_request(scheme: SignatureScheme, sp_key: KeyPair,
                       area_min: GeoPoint, area_max: GeoPoint,
                       from_ms: int, to_ms: int,
                       target_regions: list[str]) -> DataRequestTransaction:
    if not target_regions:
        raise TargetError("no target regions")
    if area_min.lat_micro >= area_max.lat_micro or area_min.lon_micro >= area_max.lon_micro:
        raise TargetError("degenerate request area")
    if from_ms > to_ms:
        raise TargetError("period must satisfy from <= to")
    targets = tuple(target_regions)
    sig = scheme.sign(sp_key,
                      data_request_signing_bytes(sp_key.public, area_min,
                                                 area_max, from_ms, to_ms,
                                                 targets))
    return DataRequestTransaction(sp_pk=sp_key.public, area_min=area_min,
                                  area_max=area_max, from_ms=from_ms,
                                  to_ms=to_ms, target_regions=targets,
                                  sp_sign=sig)


class RuleTable:
    """The store/retrieve mediator; serializes all mutations per directory."""

    def __init__(self, scheme: SignatureScheme, key: KeyPair,
                 policy: MinerPolicy, ledgers: dict[str, Ledger]) -> None:
        self.scheme = scheme
        self.key = key
        self.policy = policy
        self.ledgers = ledgers
        self.directories: dict[str, DataDirectory] = {}
        self._next_record_id = 0
        # the indexes of each directory's records[:_indexed[region]]
        self._indexed: dict[str, int] = {}
        self._places: dict[tuple[int, int], _Place] = {}
        self._kinds: dict[str, dict[int, _Kind]] = {}

    # -- storage path --------------------------------------------------------

    def register_rsi_directory(self, cert: Certificate) -> DataDirectory:
        if not verify_certificate(self.scheme, self.policy.ca_pk, cert):
            raise CertError("certificate does not verify under the CA key")
        if cert.region_id in self.directories:
            raise AlreadyRegistered(cert.region_id)
        directory = DataDirectory(region_id=cert.region_id)
        self.directories[cert.region_id] = directory
        return directory

    def store_record(self, rsi_tx: RsiTransaction) -> int:
        if rsi_tx.flag != 1:
            raise FlagRejected("only flag=1 aggregates are stored")
        cert = self.policy.cert_registry.get(rsi_tx.rsi_pk)
        if cert is None or cert.region_id not in self.directories:
            raise UnknownRsi("no directory for this RSI key")
        region = cert.region_id
        digest = rsi_tx.digest
        if not self._tx_on_chain(region, digest):
            raise NotChained("aggregate not found on its region's ledger")
        record = Record(record_id=self._next_record_id, region_id=region,
                        payload=rsi_tx.payload, provenance=digest,
                        owner_pks=tuple(rsi_tx.vehicle_pks),
                        size_bytes=len(payload_bytes(rsi_tx.payload)))
        self._next_record_id += 1
        self.directories[region].records.append(record)
        return record.record_id

    def _tx_on_chain(self, region: str, digest: bytes) -> bool:
        ledger = self.ledgers.get(region)
        return ledger is not None and ledger.has_tx(digest)

    # -- retrieval path ------------------------------------------------------

    def find_contract(self, contract_id: bytes) -> SmartContract | None:
        for ledger in self.ledgers.values():
            contract = ledger.find_contract(contract_id)
            if contract is not None:
                return contract
        return None

    def evaluate_access(self, access_tx: AccessTransaction,
                        now_ms: int) -> AccessResult:
        """Grant or deny one access; on grant, countersign, serve the
        matching records, and chain the double-signed transaction."""
        if not self.scheme.verify(access_tx.requester_pk,
                                  access_tx.requester_message(),
                                  access_tx.requester_sign):
            return AccessResult.denied(DENY_BAD_SIGNATURE)

        grant = access_tx.grant
        if grant.kind == GRANT_CONTRACT_REF:
            contract = self.find_contract(grant.contract_id)
            if contract is None or contract.grantee_pk != access_tx.requester_pk:
                return AccessResult.denied(DENY_NO_GRANT)
            if not contract.start_ms <= now_ms < contract.end_ms:
                return AccessResult.denied(DENY_EXPIRED)
            if not contract.scope.contains_query(access_tx.query):
                return AccessResult.denied(DENY_SCOPE_EXCEEDED)
            records = self._matching_records(access_tx.query)
        elif grant.kind == GRANT_OWNER_SIG:
            msg = grant_signing_bytes(access_tx.requester_pk, access_tx.query)
            if not self.scheme.verify(grant.owner_pk, msg, grant.owner_sign):
                return AccessResult.denied(DENY_BAD_SIGNATURE)
            records = [r for r in self._matching_records(access_tx.query)
                       if grant.owner_pk in r.owner_pks]
        else:
            return AccessResult.denied(DENY_NO_GRANT)

        # the countersigned bytes leave out the rule-table fields; the
        # approved form's bytes are them plus those fields
        counter = access_tx.countersigned_message()
        sig = self.scheme.sign(self.key, counter)
        approved = AccessTransaction(
            requester_pk=access_tx.requester_pk, query=access_tx.query,
            grant=grant, requester_sign=access_tx.requester_sign,
            ruletable_pk=self.key.public, ruletable_sign=sig,
        ).seed_wire(counter, "ruletable_pk")
        self._chain_access_tx(approved, records, now_ms)
        return AccessResult(granted=True, records=records, access_tx=approved)

    def _matching_records(self, query: Scope) -> list[Record]:
        """The records the query covers, each once: by sorted region, then
        in directory order."""
        self._catch_up()
        out: list[Record] = []
        for rid in sorted(set(query.region_ids)):
            kinds = self._kinds.get(rid)
            if kinds is None:
                continue
            positions: list[int] = []
            for code, group in kinds.items():
                if code in query.kind_codes:
                    i, j = group.span(query.from_ms, query.to_ms)
                    positions += group.positions[i:j]
            positions.sort()
            records = self.directories[rid].records
            out += [records[k] for k in positions]
        return out

    def _serving_region(self, records: list[Record], query: Scope) -> str:
        if records:
            # the least region, as `_matching_records` returns them sorted
            return records[0].region_id
        for rid in sorted(query.region_ids):
            if rid in self.ledgers:
                return rid
        return min(self.ledgers)

    def _chain_access_tx(self, tx: AccessTransaction, records: list[Record],
                         now_ms: int) -> None:
        region = self._serving_region(records, tx.query)
        append_block(self.scheme, self.ledgers[region], [tx], now_ms, self.policy)

    def chain_contract(self, contract: SmartContract, now_ms: int) -> bytes:
        """Store a grant on-chain (ledger of its first in-scope region)."""
        region = self._serving_region([], contract.scope)
        append_block(self.scheme, self.ledgers[region], [contract],
                     now_ms, self.policy)
        return contract.contract_id()

    # -- discovery -----------------------------------------------------------

    def query_availability(self, area_min: GeoPoint, area_max: GeoPoint,
                           from_ms: int, to_ms: int) -> tuple[int, int]:
        """Exact (record count, byte volume) in an area, closed at both
        corners, and the period [from_ms, to_ms); no record is visited."""
        self._catch_up()
        lat_min, lat_max = area_min.lat_micro, area_max.lat_micro
        lon_min, lon_max = area_min.lon_micro, area_max.lon_micro
        count = 0
        volume = 0
        for (lat, lon), place in self._places.items():
            if lat_min <= lat <= lat_max and lon_min <= lon <= lon_max:
                i, j = place.span(from_ms, to_ms)
                if i < j:
                    count += j - i
                    volume += place.sums[j] - place.sums[i]
        return count, volume

    def _catch_up(self) -> None:
        """Index the records appended to any directory since the last read.

        Like `Ledger.has_tx`, a record appended straight to `records` is
        seen, while one replaced in place is not. The places take the new
        records of all directories in store order, so a place that several
        directories store at grows by appends.
        """
        indexed = self._indexed
        fresh: list[Record] = []
        for rid, directory in self.directories.items():
            records = directory.records
            start = indexed.get(rid, 0)
            if start == len(records):
                continue
            kinds = self._kinds.setdefault(rid, {})
            for position in range(start, len(records)):
                p = records[position].payload
                group = kinds.get(p.event.code)
                if group is None:
                    group = kinds[p.event.code] = _Kind()
                group.add(p.timestamp, position)
            fresh += records[start:]
            indexed[rid] = len(records)
        if not fresh:
            return
        fresh.sort(key=attrgetter("record_id"))
        places = self._places
        for record in fresh:
            p = record.payload
            key = (p.loc.lat_micro, p.loc.lon_micro)
            place = places.get(key)
            if place is None:
                place = places[key] = _Place()
            place.add(p.timestamp, record.size_bytes)
