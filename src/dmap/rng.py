"""Counter-based randomness keyed by (seed, entity path, counter).

Each draw hashes the stream key together with a monotonically increasing
counter, so any entity's stream is reproducible independently of the
order other entities consume theirs. That keeps runs deterministic even
if per-region processing is ever parallelized.
"""

from __future__ import annotations

import hashlib
import struct

_U64_MAX = 2**64 - 1


def _stream_key(seed: int, path: tuple) -> bytes:
    h = hashlib.sha256()
    h.update(b"dmap/rng/v1")
    h.update(struct.pack(">Q", seed & _U64_MAX))
    for part in path:
        if isinstance(part, int):
            h.update(b"i" + struct.pack(">q", part))
        elif isinstance(part, str):
            enc = part.encode("utf-8")
            h.update(b"s" + struct.pack(">I", len(enc)) + enc)
        else:
            raise TypeError(f"unsupported path element {part!r}")
    return h.digest()


class CounterRng:
    """One independent deterministic stream per (seed, path)."""

    def __init__(self, seed: int, *path) -> None:
        self._key = _stream_key(seed, path)
        self._counter = 0

    def u64(self) -> int:
        block = hashlib.sha256(
            self._key + struct.pack(">Q", self._counter)).digest()
        self._counter += 1
        return struct.unpack(">Q", block[:8])[0]

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        # 53-bit mantissa, same construction as random.random()
        u = self.u64() >> 11
        return low + (high - low) * (u / float(1 << 53))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], rejection-sampled for exactness."""
        if low > high:
            raise ValueError("empty range")
        span = high - low + 1
        limit = (_U64_MAX + 1) - ((_U64_MAX + 1) % span)
        while True:
            u = self.u64()
            if u < limit:
                return low + u % span
