import hashlib
import hmac
import os
import pathlib
import signal
import struct
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmap
from dmap import crypto, fixtures
from dmap.crypto import (
    ED25519,
    KEYED_HASH,
    SPLIT_MIN,
    Ed25519Scheme,
    KeyPair,
    _cpus,
    certificate_signing_bytes,
    issue_certificate,
    sha256,
    verify_certificate,
)
from dmap.encoding import canonical_encode
from tests.conftest import SCENARIO_DIR

BOTH_SCHEMES = pytest.mark.parametrize("sch", [KEYED_HASH, ED25519],
                                       ids=["keyed-hash", "ed25519"])

# SHA-256 of the empty string, from the algorithm's published test vectors
SHA256_EMPTY = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def seeds(n):
    return (sha256(struct.pack(">Q", i)) for i in range(n))


class TestHash:
    def test_deterministic(self):
        assert sha256(b"hello") == sha256(b"hello")

    def test_empty_input_standard_vector(self):
        assert sha256(b"") == SHA256_EMPTY

    def test_practical_collision_freeness(self):
        corpus = [struct.pack(">Q", i) for i in range(5000)]
        digests = {sha256(m) for m in corpus}
        assert len(digests) == len(corpus)

    def test_output_length(self):
        assert len(sha256(b"x" * 1000)) == 32


class TestKeypairs:
    @BOTH_SCHEMES
    def test_same_seed_same_keypair(self, sch):
        s = sha256(b"seed")
        assert sch.generate_keypair(s) == sch.generate_keypair(s)

    @BOTH_SCHEMES
    def test_distinct_seeds_distinct_pks(self, sch):
        a = sch.generate_keypair(sha256(b"a"))
        b = sch.generate_keypair(sha256(b"b"))
        assert a.public != b.public

    def test_ten_thousand_seeds_all_distinct(self):
        pks = {KEYED_HASH.generate_keypair(s).public for s in seeds(10_000)}
        assert len(pks) == 10_000

    def test_ed25519_seed_sweep_distinct(self):
        pks = {ED25519.generate_keypair(s).public for s in seeds(2000)}
        assert len(pks) == 2000


class TestSignVerify:
    @BOTH_SCHEMES
    def test_round_trip(self, sch):
        k = sch.generate_keypair(sha256(b"rt"))
        sig = sch.sign(k, b"message")
        assert sch.verify(k.public, b"message", sig)

    @BOTH_SCHEMES
    def test_key_without_parsed_private_key_signs_identically(self, sch):
        k = sch.generate_keypair(sha256(b"parsed"))
        bare = KeyPair(public=k.public, secret=k.secret)
        assert bare.private_key is None
        assert (k.private_key is not None) == (sch is ED25519)
        assert bare == k and repr(bare) == repr(k)
        for m in (b"", b"message", bytes(range(256))):
            assert sch.sign(bare, m) == sch.sign(k, m)

    @BOTH_SCHEMES
    def test_bit_flip_breaks_verification(self, sch):
        k = sch.generate_keypair(sha256(b"flip"))
        m = b"the quick brown fox"
        sig = sch.sign(k, m)
        tampered = bytes([m[0] ^ 0x01]) + m[1:]
        assert not sch.verify(k.public, tampered, sig)

    @BOTH_SCHEMES
    def test_wrong_key_fails(self, sch):
        k = sch.generate_keypair(sha256(b"one"))
        other = sch.generate_keypair(sha256(b"two"))
        sig = sch.sign(k, b"m")
        assert not sch.verify(other.public, b"m", sig)

    @BOTH_SCHEMES
    def test_garbage_signature_returns_false(self, sch):
        k = sch.generate_keypair(sha256(b"garbage"))
        assert not sch.verify(k.public, b"m", bytes(range(64)))
        assert not sch.verify(k.public, b"m", b"")
        assert not sch.verify(b"not-a-key", b"m", b"not-a-sig")

    @BOTH_SCHEMES
    def test_round_trip_property_sweep(self, sch):
        # >= 10^3 random (seed, message) pairs for the deterministic
        # scheme; a smaller sweep keeps the asymmetric scheme fast
        n = 1000 if sch is KEYED_HASH else 200
        for i in range(n):
            k = sch.generate_keypair(sha256(b"sweep" + struct.pack(">Q", i)))
            m = sha256(struct.pack(">Q", i * 7919))
            sig = sch.sign(k, m)
            assert sch.verify(k.public, m, sig)
            assert not sch.verify(k.public, m + b"x", sig)


class TestKeyedHashMac:
    """`KEYED_HASH` computes HMAC-SHA256 by hand; it must equal `hmac.new`."""

    @staticmethod
    def check(public, message):
        sig = KEYED_HASH.sign(KeyPair(public=public, secret=b""), message)
        key = sha256(b"dmap/keyed-hash/mac" + public)
        assert sig == hmac.new(key, message, hashlib.sha256).digest()
        assert KEYED_HASH.verify(public, message, sig)
        for at in (0, len(sig) - 1):
            flipped = bytearray(sig)
            flipped[at] ^= 0x01
            assert not KEYED_HASH.verify(public, message, bytes(flipped))
        # a 31- or 33-byte key or signature is refused
        for key in (public[:31], public + b"\x00"):
            assert not KEYED_HASH.verify(key, message, sig)
        for bad in (sig[:31], sig + b"\x00"):
            assert not KEYED_HASH.verify(public, message, bad)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(public=st.binary(min_size=32, max_size=32),
           message=st.binary(max_size=300))
    def test_equals_stdlib_hmac(self, public, message):
        self.check(public, message)

    # around SHA-256's 64-byte block and its 55/56-byte padding boundary
    @pytest.mark.parametrize("n", [0, 55, 56, 63, 64, 65, 119, 120, 1000])
    def test_equals_stdlib_hmac_at_block_boundaries(self, n):
        self.check(sha256(b"boundary"), bytes(i % 251 for i in range(n)))


class TestCertificates:
    @BOTH_SCHEMES
    def test_issue_then_verify(self, sch):
        ca = sch.generate_keypair(sha256(b"ca"))
        subject = sch.generate_keypair(sha256(b"subject"))
        cert = issue_certificate(sch, ca, subject.public, "r0_c0")
        assert verify_certificate(sch, ca.public, cert)

    @BOTH_SCHEMES
    def test_different_ca_key_fails(self, sch):
        ca = sch.generate_keypair(sha256(b"ca"))
        impostor = sch.generate_keypair(sha256(b"impostor"))
        subject = sch.generate_keypair(sha256(b"subject"))
        cert = issue_certificate(sch, ca, subject.public, "r0_c0")
        assert not verify_certificate(sch, impostor.public, cert)

    @BOTH_SCHEMES
    def test_tampered_region_fails(self, sch):
        import dataclasses

        ca = sch.generate_keypair(sha256(b"ca"))
        subject = sch.generate_keypair(sha256(b"subject"))
        cert = issue_certificate(sch, ca, subject.public, "r0_c0")
        forged = dataclasses.replace(cert, region_id="r9_c9")
        assert not verify_certificate(sch, ca.public, forged)

    def test_certificate_verification_is_signature_verification(self, scheme):
        ca = scheme.generate_keypair(sha256(b"ca"))
        subject = scheme.generate_keypair(sha256(b"subject"))
        cert = issue_certificate(scheme, ca, subject.public, "r1_c1")
        assert verify_certificate(scheme, ca.public, cert) == scheme.verify(
            ca.public, certificate_signing_bytes(cert.subject_pk, cert.region_id),
            cert.ca_signature)


def mixed(sch, n):
    """`n` triples, each made and signed as it is pulled, cycling through a
    good one, a wrong message, a flipped signature byte, a short key and a
    short signature, each with the verdict it must get as a fourth item."""
    for i, seed in enumerate(seeds(n)):
        k = sch.generate_keypair(seed)
        message = b"batch message %d" % i
        sig = sch.sign(k, message)
        yield [(k.public, message, sig, True),
               (k.public, message + b"!", sig, False),
               (k.public, message, sig[:-1] + bytes([sig[-1] ^ 1]), False),
               (k.public[:31], message, sig, False),
               (k.public, message, sig[:-1], False)][i % 5]


def mixed_triples(sch, n):
    """`mixed` as a list of triples and the list of their verdicts."""
    out = list(mixed(sch, n))
    return [t[:3] for t in out], [t[3] for t in out]


# the conditions under which `Ed25519Scheme` forks its helper
HELPER_RUNS = hasattr(os, "fork") and _cpus() >= 2


@pytest.fixture
def fresh_ed25519():
    """An Ed25519 scheme with a helper of its own, closed afterwards."""
    sch = Ed25519Scheme()
    yield sch
    if sch._helper is not None:
        sch._helper.close()


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestVerifyMany:
    @pytest.mark.parametrize("n", [0, 1, SPLIT_MIN - 1, SPLIT_MIN,
                                   5 * SPLIT_MIN + 3])
    def test_results_in_input_order(self, fresh_ed25519, n):
        for sch in (KEYED_HASH, fresh_ed25519):
            triples, expected = mixed_triples(sch, n)
            assert sch.verify_many(triples) == expected
            assert [sch.verify(*t) for t in triples] == expected
            # a generator that signs each triple as it is pulled
            assert sch.verify_many(t[:3] for t in mixed(sch, n)) == expected
        # the helper answered, and is still there: it did not die on a
        # frame; a batch of fewer than SPLIT_MIN triples never forks it
        split = HELPER_RUNS and n >= SPLIT_MIN
        assert (fresh_ed25519._helper is not None) == split

    @pytest.mark.skipif(not HELPER_RUNS, reason="no helper on this machine")
    def test_batch_after_the_helper_is_killed(self, fresh_ed25519):
        sch = fresh_ed25519
        triples, expected = mixed_triples(sch, 4 * SPLIT_MIN)
        assert sch.verify_many(triples) == expected
        pid = sch._helper.pid
        os.kill(pid, signal.SIGKILL)
        assert sch.verify_many(triples) == expected
        # the dead helper was reaped; the next batch forks a new one
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        assert sch.verify_many(triples) == expected
        assert sch._helper.pid != pid

    @pytest.mark.skipif(not HELPER_RUNS, reason="no helper on this machine")
    def test_helper_killed_mid_stream(self, fresh_ed25519):
        sch = fresh_ed25519
        triples, expected = mixed_triples(sch, 8 * SPLIT_MIN)
        killed = []

        def stream():
            for i, t in enumerate(triples):
                if i == 4 * SPLIT_MIN:  # two chunks are at the helper
                    killed.append(sch._helper.pid)
                    os.kill(killed[0], signal.SIGKILL)
                yield t

        assert sch.verify_many(stream()) == expected
        assert killed and sch._helper is None
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(killed[0], os.WNOHANG)
        assert sch.verify_many(t[:3] for t in mixed(sch, 8 * SPLIT_MIN)) == expected
        assert sch._helper is not None and sch._helper.pid != killed[0]

    def test_generator_that_raises(self, fresh_ed25519):
        sch = fresh_ed25519
        triples, expected = mixed_triples(sch, 6 * SPLIT_MIN)
        helpers = []

        def stream():
            yield from triples[:4 * SPLIT_MIN]
            helpers.append(sch._helper)
            raise RuntimeError("signing failed")

        with pytest.raises(RuntimeError, match="signing failed"):
            sch.verify_many(stream())
        assert sch._helper is None
        assert (helpers[0] is not None) == HELPER_RUNS
        if helpers[0] is not None:  # the child is killed and reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(helpers[0].pid, os.WNOHANG)
        assert sch.verify_many(triples) == expected

    @pytest.mark.skipif(not HELPER_RUNS, reason="no helper on this machine")
    def test_chunks_reach_the_helper_while_the_stream_signs(
            self, fresh_ed25519, monkeypatch):
        sch = fresh_ed25519
        n = 5 * SPLIT_MIN + 3
        pulled, sends = 0, []
        real_send = crypto._Helper.send

        def send(helper, triples):
            sends.append((pulled, len(triples)))
            return real_send(helper, triples)

        def stream():
            nonlocal pulled
            for t in mixed(sch, n):
                pulled += 1
                yield t[:3]

        monkeypatch.setattr(crypto._Helper, "send", send)
        assert sch.verify_many(stream()) == mixed_triples(sch, n)[1]
        # the first chunk left as soon as SPLIT_MIN well-formed triples
        # were pulled, long before the last one was signed
        assert sends[0][1] == SPLIT_MIN and sends[0][0] < n // 2
        assert [size for _, size in sends[:-1]] == [SPLIT_MIN] * (len(sends) - 1)

    def test_no_fork_while_another_thread_runs(self, fresh_ed25519):
        # fork copies only the calling thread, so a batch then stays here
        triples, expected = mixed_triples(fresh_ed25519, 4 * SPLIT_MIN)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert fresh_ed25519.verify_many(triples) == expected
            assert fresh_ed25519._helper is None
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_helper_ends_with_the_interpreter(self):
        # the fork path outside pytest: one batch, then a normal exit under
        # -W error. An exit hook registered before the helper's runs after
        # its hook and finds the helper already reaped
        package_root = str(pathlib.Path(dmap.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        code = """if True:
            import atexit, os
            from dmap.crypto import ED25519, SPLIT_MIN

            def reaped():
                try:
                    if helper:
                        os.waitpid(helper.pid, os.WNOHANG)
                except ChildProcessError:
                    print("reaped")

            atexit.register(reaped)
            k = ED25519.generate_keypair(bytes(32))
            batch = [(k.public, b"m", ED25519.sign(k, b"m"))] * 2 * SPLIT_MIN
            assert ED25519.verify_many(batch) == [True] * len(batch)
            helper = ED25519._helper
            print(helper.pid if helper else 0)
            """
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        pid, *rest = proc.stdout.split()
        if pid == "0":
            pytest.skip("no helper process on this machine")
        assert rest == ["reaped"]
        assert not _alive(int(pid))


def test_no_secret_key_bytes_in_any_protocol_encoding():
    objs = fixtures.make_fixture_objects()
    secrets = [fixtures._key(label).secret
               for label in ("ca", "rsi", "vehicle-a", "vehicle-b",
                             "owner", "sp")]
    for obj in objs.values():
        blob = canonical_encode(obj)
        for secret in secrets:
            assert secret not in blob


def test_keyed_hash_run_does_not_load_cryptography(tmp_path):
    # the bindings add about 6 MB of resident size; only Ed25519 needs them
    package_root = str(pathlib.Path(dmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    scenario = SCENARIO_DIR / "market_suite.json"
    code = ("import sys\n"
            "from dmap import cli\n"
            f"status = cli.main(['run', '--scenario', {str(scenario)!r},"
            f" '--out', {str(tmp_path / 'r.json')!r}])\n"
            "print(status, 'cryptography' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
