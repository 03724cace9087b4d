"""Counter-mode one-time pad helpers.

Thin convenience wrappers over the engine primitives, kept separate so
call sites read like the hardware datapath: make the pad, XOR it in.
"""

from __future__ import annotations

from repro.crypto.engine import CryptoEngine, xor_bytes


def make_pad(engine: CryptoEngine, address: int, major: int, minor: int) -> bytes:
    """The one-time pad for a block at ``address`` under ``(major, minor)``."""
    return engine.pad(address, major, minor)


def apply_pad(data: bytes, pad: bytes) -> bytes:
    """XOR a block with its pad (encrypt and decrypt are the same op)."""
    return xor_bytes(data, pad)
