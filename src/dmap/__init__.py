"""Blockchain-backed sharing and trading of vehicular location data,
with edge validation at road-side infrastructure and a deterministic
simulation harness."""

from . import crypto, edge, encoding, fixtures, ledger, market, rng, sim, txmodel

__all__ = [
    "crypto",
    "edge",
    "encoding",
    "fixtures",
    "ledger",
    "market",
    "rng",
    "sim",
    "txmodel",
]

__version__ = "0.1.0"
