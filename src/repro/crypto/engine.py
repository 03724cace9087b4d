"""Pluggable crypto engines.

The secure-memory hardware needs three primitives:

* ``mac(*parts) -> bytes`` — a keyed MAC (the paper's HMAC) binding a
  ciphertext block to its address and counter,
* ``hash8(data) -> bytes`` — the 8-byte keyed hash used for BMT node
  slots (eight of them concatenate into one 64 B node),
* ``pad(address, major, minor) -> bytes`` — the counter-mode one-time
  pad (the AES-CTR output in real hardware).

All outputs are deterministic functions of inputs and the engine key,
which is what the protocols rely on; the real engine uses ``blake2b``
(keyed) as a stand-in for AES/SHA hardware — cryptographically sound
for the purposes of this reproduction, and fast in CPython.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Iterable


class CryptoEngine(ABC):
    """Interface the MEE and BMT use for all cryptographic operations."""

    #: Bytes of a data-block MAC (the paper stores 8 B HMACs).
    mac_bytes: int = 8
    #: Bytes of a BMT node hash slot.
    slot_bytes: int = 8
    #: Bytes of a one-time pad / data block.
    block_bytes: int = 64

    @abstractmethod
    def mac(self, *parts: bytes) -> bytes:
        """Keyed MAC over the concatenation of ``parts``."""

    @abstractmethod
    def hash8(self, data: bytes) -> bytes:
        """8-byte keyed hash for BMT node slots."""

    @abstractmethod
    def pad(self, address: int, major: int, minor: int) -> bytes:
        """64-byte one-time pad for counter-mode encryption."""

    def encrypt(self, plaintext: bytes, address: int, major: int, minor: int) -> bytes:
        """Counter-mode encryption: XOR the block with its pad."""
        return xor_bytes(plaintext, self.pad(address, major, minor))

    def decrypt(self, ciphertext: bytes, address: int, major: int, minor: int) -> bytes:
        """Counter-mode decryption (identical to encryption)."""
        return xor_bytes(ciphertext, self.pad(address, major, minor))


def xor_bytes(data: bytes, pad: bytes) -> bytes:
    if len(data) != len(pad):
        raise ValueError(f"length mismatch: data {len(data)} vs pad {len(pad)}")
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")
    ).to_bytes(len(data), "little")


class RealCryptoEngine(CryptoEngine):
    """Functionally sound engine built on keyed blake2b."""

    def __init__(self, key: bytes = b"amnt-reproduction-key") -> None:
        if not key:
            raise ValueError("engine key must be non-empty")
        self._key = key[:64]  # blake2b key limit

    def mac(self, *parts: bytes) -> bytes:
        digest = hashlib.blake2b(key=self._key, digest_size=self.mac_bytes)
        for part in parts:
            digest.update(len(part).to_bytes(4, "little"))
            digest.update(part)
        return digest.digest()

    def hash8(self, data: bytes) -> bytes:
        return hashlib.blake2b(
            data, key=self._key, digest_size=self.slot_bytes
        ).digest()

    def pad(self, address: int, major: int, minor: int) -> bytes:
        seed = (
            address.to_bytes(8, "little")
            + major.to_bytes(8, "little")
            + minor.to_bytes(2, "little")
        )
        return hashlib.blake2b(
            seed, key=self._key, digest_size=self.block_bytes
        ).digest()


class FastCryptoEngine(CryptoEngine):
    """Structural-tag engine for timing simulations.

    Outputs are deterministic functions of the inputs (so equality
    comparisons still behave), but built with integer mixing instead of
    a cryptographic hash. Never use this engine to test security
    properties — a deliberate attacker could trivially forge its tags.
    """

    _MASK = 0xFFFFFFFFFFFFFFFF

    def _mix(self, parts: Iterable[bytes]) -> int:
        value = 0x9E3779B97F4A7C15
        for part in parts:
            for i in range(0, len(part), 8):
                chunk = int.from_bytes(part[i : i + 8], "little")
                value = ((value ^ chunk) * 0x100000001B3) & self._MASK
        value ^= value >> 31
        return value

    def mac(self, *parts: bytes) -> bytes:
        return self._mix(parts).to_bytes(self.mac_bytes, "little")

    def hash8(self, data: bytes) -> bytes:
        return self._mix((data,)).to_bytes(self.slot_bytes, "little")

    def pad(self, address: int, major: int, minor: int) -> bytes:
        seed = self._mix(
            (
                address.to_bytes(8, "little"),
                major.to_bytes(8, "little"),
                minor.to_bytes(2, "little"),
            )
        )
        # Expand the 8-byte seed to a 64-byte pad by counter mixing.
        out = bytearray()
        value = seed
        for _ in range(self.block_bytes // 8):
            value = (value * 6364136223846793005 + 1442695040888963407) & self._MASK
            out += value.to_bytes(8, "little")
        return bytes(out)
