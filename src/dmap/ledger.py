"""Per-RSI hash-chained append-only ledgers.

Block production rights are certificate-based: the RSI certified for a
region produces that region's blocks, and everyone else replay-verifies.
A block commits to its contents through `block_hash` and to its
predecessor through `prev_hash`, so any mutation of chained bytes is
detectable by a full rescan.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import repeat

from . import encoding
from .crypto import (
    DIGEST_LEN,
    ZERO_DIGEST,
    Certificate,
    Checks,
    SignatureScheme,
    sha256,
)
from .encoding import (
    DecodeError,
    Layout,
    Reader,
    hand,
    length_prefixed,
    list_of,
    raw,
    u64,
)
from .txmodel import (
    GRANT_CONTRACT_REF,
    GRANT_OWNER_SIG,
    REJECT_WRONG_LEDGER,
    AccessTransaction,
    Plan,
    RsiTransaction,
    SmartContract,
    Verdict,
    decide,
    plan_rsi_tx,
)

TAG_BLOCK = 0x03

ChainedTx = RsiTransaction | AccessTransaction | SmartContract

# the "2" marks dumps that store each block's hash; dumps without them
# carry another magic and are refused
LEDGER_DUMP_MAGIC = b"DMAPLDG2"


class AdmissionError(ValueError):
    """A block was attempted over a transaction miners would reject."""


class EmptyBlockError(ValueError):
    """Empty blocks are never produced."""


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    timestamp: int
    txs: tuple[ChainedTx, ...]
    block_hash: bytes

    @staticmethod
    def compute_hash(height: int, prev_hash: bytes, timestamp: int,
                     txs: tuple[ChainedTx, ...]) -> bytes:
        return sha256(_block_body_bytes(height, prev_hash, timestamp, txs))

    @classmethod
    def make(cls, height: int, prev_hash: bytes, timestamp: int,
             txs: tuple[ChainedTx, ...]) -> "Block":
        return cls(height=height, prev_hash=prev_hash, timestamp=timestamp,
                   txs=txs,
                   block_hash=cls.compute_hash(height, prev_hash, timestamp, txs))


def _read_chained(r: Reader) -> ChainedTx:
    """A tx of a block, its `wire` the bytes it was read from: the block
    hash covers them, and `validate_chain`'s fresh encoding, compared with
    them, is the tx's one encode."""
    start = r.tell()
    tx = encoding.decode_from(r)
    if not isinstance(tx, ChainedTx):
        raise DecodeError(f"{type(tx).__name__} cannot appear in a block")
    tx.__dict__["wire"] = r.since(start)
    return tx


# block_hash is derived, not encoded: decoding recomputes it
BLOCK = Layout(Block, TAG_BLOCK, (
    ("height", u64), ("prev_hash", raw(DIGEST_LEN)), ("timestamp", u64),
    ("txs", list_of(hand(lambda tx: tx.wire, _read_chained)))),
    make=Block.make)
_block_body_bytes = BLOCK.fields_before()
# a block in a ledger dump: its rows, then the hash it was chained with,
# which decodes into `block_hash` without hashing the block
_DUMPED_BLOCK = Layout(Block, None, (
    *BLOCK.rows, ("block_hash", raw(DIGEST_LEN))))


@dataclass
class MinerPolicy:
    m: int  # minimum member-signature count for aggregates
    ca_pk: bytes
    cert_registry: dict[bytes, Certificate] = field(default_factory=dict)
    # the certificates that verified, as in Bitcoin Core's signature cache
    # (see `crypto.Checks`); None verifies every certificate each time
    verified_certs: set[tuple[bytes, Certificate]] | None = field(
        default_factory=set, repr=False, compare=False)


@dataclass
class Ledger:
    rsi_region: str
    blocks: list[Block] = field(default_factory=list)
    # digests of the txs in blocks[:_hashed], filled in by has_tx
    _digests: set[bytes] = field(default_factory=set, init=False,
                                 repr=False, compare=False)
    _hashed: int = field(default=0, init=False, repr=False, compare=False)
    # contract id -> contract for the contracts in blocks[:_indexed],
    # filled in by find_contract
    _contracts: dict[bytes, SmartContract] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def has_tx(self, digest: bytes) -> bool:
        """Is a tx with this SHA-256 of its canonical encoding chained here?

        Hashes only the blocks appended since the last call. The digests
        of earlier blocks are kept, so a rewritten block is seen by
        `validate_chain`, not here.
        """
        for block in self.blocks[self._hashed:]:
            self._digests.update(tx.digest for tx in block.txs)
        self._hashed = len(self.blocks)
        return digest in self._digests

    def find_contract(self, contract_id: bytes) -> SmartContract | None:
        """The contract with this id chained here, or None.

        Like `has_tx`, indexes only the blocks appended since the last call
        and hashes only their contracts, so a rewritten block is seen by
        `validate_chain`, not here.
        """
        for block in self.blocks[self._indexed:]:
            for tx in block.txs:
                if isinstance(tx, SmartContract):
                    self._contracts.setdefault(tx.digest, tx)
        self._indexed = len(self.blocks)
        return self._contracts.get(contract_id)

    def all_txs(self) -> list[ChainedTx]:
        return [tx for b in self.blocks for tx in b.txs]


def genesis(region: str) -> Ledger:
    block = Block.make(height=0, prev_hash=ZERO_DIGEST, timestamp=0, txs=())
    return Ledger(rsi_region=region, blocks=[block])


def miner_admit(scheme: SignatureScheme, tx: ChainedTx, policy: MinerPolicy,
                region: str) -> Verdict:
    """Would miners accept `tx` onto the ledger of `region`?

    Only an aggregate is bound to a region: its RSI certificate names the
    one ledger it may land on. An access tx is certified by the rule
    table's certificate, whose region is "ruletable", and a contract by
    its owner's signature alone, so neither is checked against `region`;
    the rule table picks their ledger. The post-run sweep's
    `ledger_isolation` check catches a tx chained on two ledgers.

    `append_block` admits through this, not `admit_all`: on the access
    path, one tx per grant, the batch form costs about 1 µs more a call.
    """
    checks = Checks(policy.verified_certs)
    plan = _plan(tx, policy, region, checks)
    return decide(plan, checks.run(scheme))


def admit_all(scheme: SignatureScheme,
              candidates: Iterable[tuple[ChainedTx, str]],
              policy: MinerPolicy) -> list[Verdict]:
    """`miner_admit` of each (tx, region) pair: every tx is planned, then
    the signature checks of all of them are verified as one batch."""
    checks = Checks(policy.verified_certs)
    plans = [_plan(tx, policy, region, checks) for tx, region in candidates]
    return list(map(decide, plans, repeat(checks.run(scheme))))


def _plan(tx: ChainedTx, policy: MinerPolicy, region: str,
          checks: Checks) -> Plan:
    if isinstance(tx, RsiTransaction):
        cert = policy.cert_registry.get(tx.rsi_pk)
        if cert is not None and cert.region_id != region:
            return [(REJECT_WRONG_LEDGER, 0, 0)]
        return plan_rsi_tx(tx, policy.ca_pk, policy.cert_registry, policy.m,
                           checks)
    if isinstance(tx, AccessTransaction):
        # the chained form is multisign: requester plus certified rule table
        plan: Plan = [("BadRequesterSignature", checks.add(
            (tx.requester_pk, tx.requester_message(), tx.requester_sign)), 1)]
        cert = policy.cert_registry.get(tx.ruletable_pk)
        if not tx.is_approved():
            plan.append(("MissingRuleTableSignature", 0, 0))
        elif cert is None:
            plan.append(("UncertifiedRuleTable", 0, 0))
        else:
            i = checks.certificate(policy.ca_pk, cert)
            if i is not None:
                plan.append(("UncertifiedRuleTable", i, 1))
            plan.append(("BadRuleTableSignature", checks.add(
                (tx.ruletable_pk, tx.countersigned_message(), tx.ruletable_sign)), 1))
        return plan
    if isinstance(tx, SmartContract):
        if tx.start_ms >= tx.end_ms:
            return [("Malformed", 0, 0)]
        return [("BadOwnerSignature", checks.add(
            (tx.owner_pk, tx.signed_prefix("owner_sign"), tx.owner_sign)), 1)]
    return [("UnknownTxType", 0, 0)]


def append_block(scheme: SignatureScheme, ledger: Ledger,
                 txs: list[ChainedTx], ts: int, policy: MinerPolicy) -> Block:
    if not txs:
        raise EmptyBlockError("refusing to append an empty block")
    for tx in txs:
        verdict = miner_admit(scheme, tx, policy, ledger.rsi_region)
        if not verdict.accepted:
            raise AdmissionError(f"unadmitted transaction: {verdict.reason}")
    return _link(ledger, txs, ts)


def append_admitted(scheme: SignatureScheme,
                    batches: Sequence[tuple[Ledger, list[ChainedTx]]], ts: int,
                    policy: MinerPolicy) -> list[Block | None]:
    """Admit each ledger's candidates, all in one `admit_all` batch, then
    chain each ledger's admitted ones in input order, ledger by ledger.
    Returns each ledger's new block, or None where none was admitted and
    the ledger is left as it was."""
    verdicts = iter(admit_all(scheme, [(tx, ledger.rsi_region)
                                       for ledger, txs in batches for tx in txs],
                              policy))
    blocks = []
    for ledger, txs in batches:
        admitted = [tx for tx in txs if next(verdicts).accepted]
        blocks.append(_link(ledger, admitted, ts) if admitted else None)
    return blocks


def _link(ledger: Ledger, txs: list[ChainedTx], ts: int) -> Block:
    prev = ledger.tip
    block = Block.make(height=prev.height + 1, prev_hash=prev.block_hash,
                       timestamp=ts, txs=tuple(txs))
    ledger.blocks.append(block)
    return block


@dataclass(frozen=True)
class ChainStatus:
    ok: bool
    first_bad_height: int = -1


def validate_chain(ledger: Ledger) -> ChainStatus:
    """Check the genesis block, every link and block hash, and that each
    tx's cached `wire`, which its block hash covers, equals a fresh
    encoding; report the first bad height."""
    blocks = ledger.blocks
    if not blocks or blocks[0].txs or blocks[0].timestamp:
        return ChainStatus(False, 0)
    prev_hash = ZERO_DIGEST
    for i, b in enumerate(blocks):
        if (b.height != i or b.prev_hash != prev_hash
                or Block.compute_hash(i, prev_hash, b.timestamp, b.txs) != b.block_hash
                or any(encoding.canonical_encode(tx) != tx.wire for tx in b.txs)):
            return ChainStatus(False, i)
        prev_hash = b.block_hash
    return ChainStatus(True)


def check_ledger(scheme: SignatureScheme, ledger: Ledger, policy: MinerPolicy,
                 check: Callable[[str, bool, str], None]
                 ) -> list[tuple[bytes, ChainedTx]]:
    """Every check `ledger` must pass on its own, each result handed by
    name to `check(name, ok, detail)`, which raises on a failure:
    `chain_valid` (`validate_chain`), then for each tx `admission_sound`,
    admission replayed without the certificate memo so that every
    certificate is verified, all of the ledger's signatures as one
    `admit_all` batch, and for each aggregate `flag_sweep`, which
    cannot fail after admission but does not rest on it. Returns each
    chained tx in chain order with the SHA-256 of its `wire`, which
    `validate_chain` found equal to a fresh encoding."""
    status = validate_chain(ledger)
    check("chain_valid", status.ok, f"first_bad_height={status.first_bad_height}")
    txs = ledger.all_txs()
    verdicts = admit_all(scheme, zip(txs, repeat(ledger.rsi_region)),
                         replace(policy, verified_certs=None))
    chained = []
    for tx, verdict in zip(txs, verdicts):
        check("admission_sound", verdict.accepted, verdict.reason)
        if isinstance(tx, RsiTransaction):
            check("flag_sweep", tx.flag == 1, "flag=0 chained")
        chained.append((sha256(tx.wire), tx))
    return chained


def lookup_access_log(ledger: Ledger, owner_pk: bytes) -> list[AccessTransaction]:
    """All chained accesses against data whose grant `owner_pk` issued,
    through a contract chained on this ledger or a direct owner grant."""
    contract_owners: dict[bytes, bytes] = {}
    accesses = []
    for tx in ledger.all_txs():
        if isinstance(tx, SmartContract):
            contract_owners[tx.contract_id()] = tx.owner_pk
        elif isinstance(tx, AccessTransaction):
            accesses.append(tx)
    out = []
    for tx in accesses:
        g = tx.grant
        if g.kind == GRANT_OWNER_SIG and g.owner_pk == owner_pk:
            out.append(tx)
        elif (g.kind == GRANT_CONTRACT_REF
              and contract_owners.get(g.contract_id) == owner_pk):
            out.append(tx)
    return out


# --- dump / load ------------------------------------------------------------

def dump_ledger(ledger: Ledger) -> bytes:
    """The ledger's region, then each block's canonical encoding followed
    by its stored hash, so that `validate_chain` on the loaded copy checks
    every block, the tip included, against the hash it was chained with."""
    return b"".join((LEDGER_DUMP_MAGIC,
                     length_prefixed(ledger.rsi_region.encode()),
                     len(ledger.blocks).to_bytes(4, "big"),
                     *(BLOCK.tag_byte + _DUMPED_BLOCK.encode(b)
                       for b in ledger.blocks)))


def load_ledger(data: bytes) -> Ledger:
    """Decode a `dump_ledger` dump; each block keeps its stored hash, and
    none is hashed here."""
    r = Reader(data)
    if r.raw(len(LEDGER_DUMP_MAGIC)) != LEDGER_DUMP_MAGIC:
        raise DecodeError("not a ledger dump")
    region = r.string()
    blocks = []
    for _ in range(r.u32()):
        if r.u8() != TAG_BLOCK:
            raise DecodeError("expected a block")
        blocks.append(_DUMPED_BLOCK.decode(r))
    r.expect_eof()
    return Ledger(rsi_region=region, blocks=blocks)

