"""Identity, signing, hashing and certificate primitives.

Two signature scheme implementations sit behind one interface:

* ``Ed25519Scheme`` — production-grade, via the ``cryptography`` package.
  Ed25519 signing is deterministic (RFC 8032), so replayable runs work
  under it too.
* ``KeyedHashScheme`` — a test double where the keypair derives from the
  seed by hashing and a "signature" is an HMAC-SHA256 keyed off the public
  key, computed as two SHA-256 calls over the pad blocks, per RFC 2104.
  Anyone holding the public key could forge, which is fine for a
  deterministic fixture scheme and irrelevant to the protocol logic the
  tests exercise.

Every scheme also checks a batch of signatures at once (`verify_many`).
`Ed25519Scheme` sends a large batch, in chunks as it pulls it, to one
forked helper process; see `_Helper`.

Hashing is fixed to SHA-256 everywhere.
"""

from __future__ import annotations

import atexit
import functools
import gc
import hashlib
import hmac
import os
import select
import signal
import struct
import threading
from collections.abc import Iterable, Set
from dataclasses import dataclass, field
from itertools import chain, islice, starmap
from typing import TYPE_CHECKING

from .encoding import Layout, bytes_, string

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN

# RFC 2104's inner and outer pads, as `bytes.translate` tables; a 32-byte
# key fills the rest of SHA-256's 64-byte block with the pad byte itself
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


# (public, message, signature), the arguments of `SignatureScheme.verify`
Triple = tuple[bytes, bytes, bytes]


def sha256(message: bytes) -> bytes:
    """32-byte SHA-256 digest; the one hash used for chains and encodings."""
    return hashlib.sha256(message).digest()


@dataclass(frozen=True)
class KeyPair:
    public: bytes
    secret: bytes  # never serialized into any protocol message
    # the scheme's parsed private key, kept so that signing skips
    # re-parsing `secret`; not part of the key's value
    private_key: Ed25519PrivateKey | None = field(default=None, compare=False,
                                                  repr=False)


class SignatureScheme:
    """Interface every scheme implements; all methods are pure."""

    name: str = "abstract"

    def generate_keypair(self, seed: bytes) -> KeyPair:
        raise NotImplementedError

    def sign(self, key: KeyPair, message: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        raise NotImplementedError

    def verify_many(self, triples: Iterable[Triple]) -> list[bool]:
        """`verify` of each triple, in input order."""
        return list(starmap(self.verify, triples))


@functools.cache
def _ed25519():
    """``cryptography``'s Ed25519 module and `InvalidSignature`, imported on
    first use: the bindings add about 6 MB to the resident size of a
    process that only uses the keyed hash."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ed25519

    return ed25519, InvalidSignature


# A smaller batch is verified in process. Splitting gains from two triples
# on (1.4x at 2, 1.7x at 8 on a 2-CPU VM), but the batches of the access
# path, at most 3 triples, keep their latency off a pipe round trip. A
# batch that streams in goes to the helper in chunks of this size.
SPLIT_MIN = 8
# chunks of `SPLIT_MIN` triples the helper may hold unanswered while a
# batch streams in. On a 2-CPU VM, 1 and 3 made ed25519_events' emit
# slower than 2 (0.57 and 0.49 s against 0.42 s, min of 4 runs)
IN_FLIGHT = 2
# a batch on the pipe: its triple count and byte length, then per triple
# the 32-byte key, the 64-byte signature, a u32 length and the message
_HEADER = struct.Struct(">II")
_U32 = struct.Struct(">I")


def _read_exactly(fd: int, n: int) -> bytes | None:
    """`n` bytes from `fd`, or None at end of file."""
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(recv_fd: int, send_fd: int, verify) -> None:
    """The helper's loop: answer each batch with one result byte per
    triple, until the parent closes the pipe."""
    while (head := _read_exactly(recv_fd, _HEADER.size)) is not None:
        count, size = _HEADER.unpack(head)
        body = _read_exactly(recv_fd, size)
        if body is None:
            return
        out = bytearray(count)
        pos = 0
        for k in range(count):
            end = pos + 100 + _U32.unpack_from(body, pos + 96)[0]
            out[k] = verify(body[pos:pos + 32], body[pos + 100:end],
                            body[pos + 32:pos + 96])
            pos = end
        _write_all(send_fd, out)


class _Helper:
    """One forked child that verifies Ed25519 triples for its parent.

    The parent writes each chunk of a batch as one frame of raw bytes to
    one pipe and reads one result byte per triple, in the order sent,
    from another; nothing is pickled and no thread feeds the pipe. The child leaves through `os._exit` when the
    parent closes its end, so it never runs the parent's code after the
    fork; `close`, registered with `atexit`, closes the pipes and reaps
    the child, so none outlives the interpreter.
    """

    def __init__(self, verify) -> None:
        child_in, parent_out = os.pipe()
        parent_in, child_out = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (child_in, parent_out, parent_in, child_out):
                os.close(fd)
            raise
        if pid == 0:
            try:
                os.close(parent_out)
                os.close(parent_in)
                gc.disable()  # leave the parent's pages shared
                _serve(child_in, child_out, verify)
            finally:
                os._exit(0)
        os.close(child_in)
        os.close(child_out)
        self.pid, self.owner = pid, os.getpid()
        self.send_fd, self.recv_fd = parent_out, parent_in
        self._answers = select.poll()  # unlike `select`, any fd number
        self._answers.register(parent_in, select.POLLIN)
        atexit.register(self.close)

    def send(self, triples: list[Triple]) -> bool:
        """Write a batch of well-formed triples; False if the child is gone."""
        parts = []
        for public, message, signature in triples:
            parts += (public, signature, _U32.pack(len(message)), message)
        body = b"".join(parts)
        try:
            _write_all(self.send_fd, _HEADER.pack(len(triples), len(body)) + body)
        except BrokenPipeError:
            return False
        return True

    def receive(self, count: int) -> bytes | None:
        """The next `count` results, or None if the child is gone."""
        return _read_exactly(self.recv_fd, count)

    def ready(self, limit: int) -> bytes | None:
        """Up to `limit` results that are already written, without
        waiting; None if the child is gone."""
        if not self._answers.poll(0):
            return b""
        return os.read(self.recv_fd, limit) or None

    def close(self) -> None:
        """Close the pipes, stop the child and reap it. In a process
        forked from the owner, only forget the child."""
        atexit.unregister(self.close)
        if os.getpid() != self.owner:
            return
        os.close(self.send_fd)
        os.close(self.recv_fd)
        os.waitpid(self.pid, 0)

    def kill(self) -> None:
        """`close` a child that may be stuck mid-batch."""
        if os.getpid() == self.owner:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.close()


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


class Ed25519Scheme(SignatureScheme):
    name = "ed25519"

    def __init__(self) -> None:
        self._helper: _Helper | None = None
        self._lock = threading.Lock()

    def generate_keypair(self, seed: bytes) -> KeyPair:
        if len(seed) != 32:
            seed = sha256(seed)
        sk = _ed25519()[0].Ed25519PrivateKey.from_private_bytes(seed)
        return KeyPair(public=sk.public_key().public_bytes_raw(), secret=seed,
                       private_key=sk)

    def sign(self, key: KeyPair, message: bytes) -> bytes:
        sk = key.private_key
        if sk is None:
            sk = _ed25519()[0].Ed25519PrivateKey.from_private_bytes(key.secret)
        return sk.sign(message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        if len(public) != 32:
            return False
        ed25519, invalid_signature = _ed25519()
        try:
            ed25519.Ed25519PublicKey.from_public_bytes(public).verify(
                signature, message)
            return True
        except (invalid_signature, ValueError):
            return False

    def verify_many(self, triples: Iterable[Triple]) -> list[bool]:
        """`verify` of each triple, in input order.

        The triples are pulled one at a time, so an iterable that signs as
        it yields is verified while it signs. When a helper can run, each
        `SPLIT_MIN` well-formed triples waiting go to it as a chunk, the
        oldest first, unless it holds `IN_FLIGHT` chunks unanswered; its
        answers are read as they come, without waiting. When the iterable
        ends, the helper takes the front of what is left, so that it holds
        about half of the work, and this process verifies the rest
        meanwhile. A batch of fewer than `SPLIT_MIN` triples never reaches
        the helper. A triple whose key or signature has the wrong length
        is verified here, and what the helper left unanswered too if it
        died; the results are those of `verify` either way.
        """
        triples = iter(triples)
        head = list(islice(triples, SPLIT_MIN))
        if len(head) < SPLIT_MIN or not self._lock.acquire(blocking=False):
            return super().verify_many(chain(head, triples))
        try:
            return self._stream(chain(head, triples))
        except BaseException:
            # the pipe may hold half a batch or its answer: start afresh
            if self._helper is not None:
                self._helper.kill()
                self._helper = None
            raise
        finally:
            self._lock.release()

    def _running_helper(self) -> _Helper | None:
        """The helper, forked on first use; None where fork is missing,
        unsafe (other threads run) or useless (fewer than two CPUs)."""
        helper = self._helper
        if helper is not None and helper.owner != os.getpid():
            helper = self._helper = None  # a copy forked from the owner
        if helper is None and (hasattr(os, "fork") and _cpus() >= 2
                               and threading.active_count() == 1):
            _ed25519()  # imported before the fork, used by both sides
            try:
                helper = self._helper = _Helper(self.verify)
            except OSError:
                return None
        return helper

    def _stream(self, triples: Iterable[Triple]) -> list[bool]:
        held: list[Triple] = []
        results: list[bool] = []
        queue: list[int] = []    # well-formed, neither sent nor verified
        sent: list[int] = []     # at the helper, in the order sent
        answers = bytearray()    # its verdicts on sent[:len(answers)]
        helper: _Helper | None = None
        asked = False            # for a helper, in this batch
        # a chunk goes only while at most this many sent are unanswered
        limit = (IN_FLIGHT - 1) * SPLIT_MIN

        def lose() -> None:
            # what the dead helper left unanswered is queued here again
            nonlocal helper
            helper.kill()
            self._helper = helper = None
            queue[:0] = sent[len(answers):]
            del sent[len(answers):]

        def send(n: int) -> None:
            chunk = queue[:n]
            del queue[:n]
            sent.extend(chunk)
            if not helper.send([held[k] for k in chunk]):
                lose()

        def collect(wait: bool) -> None:
            missing = len(sent) - len(answers)
            got = helper.receive(missing) if wait else helper.ready(missing)
            if got is None:
                lose()
            else:
                answers.extend(got)

        for t in triples:
            held.append(t)
            if len(t[0]) != 32 or len(t[2]) != 64:
                results.append(self.verify(*t))
                continue
            results.append(False)
            queue.append(len(held) - 1)
            if len(queue) % SPLIT_MIN == 0:
                if not asked:
                    asked, helper = True, self._running_helper()
                if helper is not None and len(sent) - len(answers) > limit:
                    collect(wait=False)
                if helper is not None and len(sent) - len(answers) <= limit:
                    send(SPLIT_MIN)

        # the tail: the helper takes the front of the queue, so that it
        # holds about half of the work left
        if helper is not None and len(sent) > len(answers):
            collect(wait=False)
        unanswered = len(sent) - len(answers)
        share = (unanswered + len(queue)) // 2 - unanswered
        if share > 0:
            if not asked:
                helper = self._running_helper()
            if helper is not None:
                send(share)
        for k in queue:
            results[k] = self.verify(*held[k])
        del queue[:]
        if helper is not None and len(sent) > len(answers):
            collect(wait=True)
            for k in queue:  # the helper's share, if it died
                results[k] = self.verify(*held[k])
        for k, ok in zip(sent, answers):
            results[k] = bool(ok)
        return results


class KeyedHashScheme(SignatureScheme):
    """Deterministic test double: hash-derived keys, HMAC signatures."""

    name = "keyed-hash"

    def generate_keypair(self, seed: bytes) -> KeyPair:
        secret = sha256(b"dmap/keyed-hash/secret" + seed)
        public = sha256(b"dmap/keyed-hash/public" + secret)
        return KeyPair(public=public, secret=secret)

    def sign(self, key: KeyPair, message: bytes) -> bytes:
        return self._mac(key.public, message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        if len(public) != 32 or len(signature) != 32:
            return False
        return hmac.compare_digest(self._mac(public, message), signature)

    @staticmethod
    def _mac(public: bytes, message: bytes) -> bytes:
        """HMAC-SHA256 (RFC 2104) of `message` under a key derived from
        `public`, without the stdlib `hmac` object, whose Python frames
        cost more than the hashing; the key is shorter than the block, so
        it is padded and never hashed."""
        key = sha256(b"dmap/keyed-hash/mac" + public)
        inner = hashlib.sha256(key.translate(_IPAD) + b"\x36" * 32
                               + message).digest()
        return hashlib.sha256(key.translate(_OPAD) + b"\x5c" * 32
                              + inner).digest()


ED25519 = Ed25519Scheme()
KEYED_HASH = KeyedHashScheme()

SCHEMES: dict[str, SignatureScheme] = {s.name: s for s in (ED25519, KEYED_HASH)}


# --- certificates -----------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """CA binding of a public key to the region it serves."""

    subject_pk: bytes
    region_id: str
    ca_signature: bytes


TAG_CERTIFICATE = 0x04
CERTIFICATE = Layout(Certificate, TAG_CERTIFICATE, (
    ("subject_pk", bytes_), ("region_id", string), ("ca_signature", bytes_)))
certificate_signing_bytes = CERTIFICATE.fields_before("ca_signature")


def issue_certificate(scheme: SignatureScheme, ca: KeyPair,
                      subject_pk: bytes, region_id: str) -> Certificate:
    sig = scheme.sign(ca, certificate_signing_bytes(subject_pk, region_id))
    return Certificate(subject_pk=subject_pk, region_id=region_id, ca_signature=sig)


class Checks:
    """Signature checks gathered for one `verify_many` batch.

    `add` queues triples and returns the index of the first one's result
    in the list `run` returns. `certificate` queues the CA signature of a
    certificate the same way. `verified_certs`, when given, memoises
    certificates that verified: it holds the (CA key, certificate) pairs
    that did, a pair found there is not queued (`certificate` returns
    None), a pair queued twice in one batch is queued once, and `run` adds
    each queued pair that verified. A certificate compares by all of its
    fields, so a forged one (any field changed) misses the memo and is
    verified. Failures are never stored.

    `verified` holds triples known to verify, such as the reports that
    `edge.ingest` verified in the window that is closing. `run` answers a
    queued triple found there True and sends only the others to
    `verify_many`; verifying is a pure function, so the results are
    those of verifying every triple. A triple matches only with its key,
    message and signature all equal, so a signature swapped, or moved to
    another key or message, misses and is verified. `run` stores nothing
    in `verified`.
    """

    __slots__ = ("triples", "verified_certs", "verified", "_queued")

    def __init__(self, verified_certs: set[tuple[bytes, Certificate]] | None = None,
                 verified: Set[Triple] = frozenset()) -> None:
        self.triples: list[Triple] = []
        self.verified_certs = verified_certs
        self.verified = verified
        self._queued: dict[tuple[bytes, Certificate], int] = {}

    def add(self, *triples: Triple) -> int:
        start = len(self.triples)
        self.triples += triples
        return start

    def certificate(self, ca_pk: bytes, cert: Certificate) -> int | None:
        pair = (ca_pk, cert)
        memo = self.verified_certs is not None
        if memo and pair in self.verified_certs:
            return None
        if memo and pair in self._queued:
            return self._queued[pair]
        i = self.add((ca_pk, certificate_signing_bytes(cert.subject_pk, cert.region_id),
                      cert.ca_signature))
        if memo:
            self._queued[pair] = i
        return i

    def run(self, scheme: SignatureScheme) -> list[bool]:
        triples, verified = self.triples, self.verified
        if verified:
            results = [True] * len(triples)
            misses = [k for k, t in enumerate(triples) if t not in verified]
            for k, ok in zip(misses, scheme.verify_many([triples[k] for k in misses])):
                results[k] = ok
        else:
            results = scheme.verify_many(triples)
        for pair, i in self._queued.items():
            if results[i]:
                self.verified_certs.add(pair)
        return results


def verify_certificate(scheme: SignatureScheme, ca_pk: bytes,
                       cert: Certificate) -> bool:
    """Does the CA key `ca_pk` sign `cert`? Admission checks certificates
    through `Checks`, which memoises them."""
    return scheme.verify(ca_pk, certificate_signing_bytes(
        cert.subject_pk, cert.region_id), cert.ca_signature)
