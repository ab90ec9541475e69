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

Hashing is fixed to SHA-256 everywhere.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass, field
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


@functools.cache
def _ed25519():
    """``cryptography``'s Ed25519 module and `InvalidSignature`, imported on
    first use: the bindings add about 6 MB to the resident size of a
    process that only uses the keyed hash."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ed25519

    return ed25519, InvalidSignature


class Ed25519Scheme(SignatureScheme):
    name = "ed25519"

    def generate_keypair(self, seed: bytes) -> KeyPair:
        if len(seed) != 32:
            seed = sha256(seed)
        sk = _ed25519()[0].Ed25519PrivateKey.from_private_bytes(seed)
        from cryptography.hazmat.primitives.serialization import (
            Encoding,
            PublicFormat,
        )

        public = sk.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return KeyPair(public=public, secret=seed, private_key=sk)

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


def verify_certificate(scheme: SignatureScheme, ca_pk: bytes, cert: Certificate,
                       verified: set[tuple[bytes, Certificate]] | None = None
                       ) -> bool:
    """Does the CA key `ca_pk` sign `cert`?

    `verified`, when given, memoises successes: it holds the (CA key,
    certificate) pairs that verified, and a pair found there is not
    verified again. A certificate compares by all of its fields, so a
    forged one (any field changed) misses the memo and is verified.
    Failures are never stored.
    """
    if verified is not None and (ca_pk, cert) in verified:
        return True
    msg = certificate_signing_bytes(cert.subject_pk, cert.region_id)
    ok = scheme.verify(ca_pk, msg, cert.ca_signature)
    if ok and verified is not None:
        verified.add((ca_pk, cert))
    return ok
