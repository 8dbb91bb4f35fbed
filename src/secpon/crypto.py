"""AES-256 payload encryption and the session-key lifecycle.

Payload bits are encrypted in counter mode keyed per codeword: the
16-byte counter block is the codeword index (big-endian, 8 bytes)
followed by the keystream block number within that codeword.  Counter
mode keeps the bit count unchanged and makes decryption with a wrong
key produce an unbiased coin flip per bit.

Keys travel as two 128-bit fragments (the coded control channel carries
245 bits per block, less than a full 256-bit key), tagged with an 8-bit
sequence number.  A key store is the one owner of a link end's key
state: it holds the pending keys and the active key, enforces one active
key and strictly increasing sequence numbers, drops every key it
replaces, and refuses to reuse a (key, codeword) keystream by handing
out the active key for increasing codeword indices only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .fec_polar import CRC_BITS, POLAR_K, _bits

KEY_BITS = 256
FRAGMENT_BITS = 128
SEQ_BITS = 8
FRAGMENT_MESSAGE_BITS = POLAR_K - CRC_BITS   # polar payload capacity
_PAD_BITS = FRAGMENT_MESSAGE_BITS - SEQ_BITS - 1 - FRAGMENT_BITS
_BLOCK_BITS = 128
_MAX_CODEWORD_INDEX = 2 ** 64


def aes256_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Raw AES-256 ECB over whole 16-byte blocks (the known-answer-test surface)."""
    if len(key) != 32:
        raise ValueError("AES-256 key must be 32 bytes")
    if len(block) % 16:
        raise ValueError("AES blocks must be whole 16-byte blocks")
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(block)


def keystream_bits(key: bytes, codeword_index: int, n_bits: int) -> np.ndarray:
    """Counter-mode keystream for one codeword, as a bit array."""
    if not 0 <= codeword_index < _MAX_CODEWORD_INDEX:
        raise ValueError("codeword index out of range")
    if n_bits < 0:
        raise ValueError("negative bit count")
    n_blocks = -(-n_bits // _BLOCK_BITS)
    prefix = codeword_index.to_bytes(8, "big")
    counters = b"".join(prefix + j.to_bytes(8, "big") for j in range(n_blocks))
    stream = aes256_encrypt_block(key, counters)
    return np.unpackbits(np.frombuffer(stream, dtype=np.uint8))[:n_bits]


def byte_to_bits(value: int) -> np.ndarray:
    """The 8 bits of ``value`` (0-255), most significant first."""
    return np.unpackbits(np.array([value], dtype=np.uint8))


def byte_from_bits(bits: np.ndarray) -> int:
    """The value of 8 bits, most significant first."""
    if np.size(bits) != 8:
        raise ValueError(f"expected 8 bits, got {np.size(bits)}")
    return int(np.packbits(np.asarray(bits, dtype=np.uint8))[0])


@dataclass
class SessionKey:
    """One 256-bit key with its distribution sequence number."""

    bits: np.ndarray
    seq: int

    def __post_init__(self) -> None:
        self.bits = _bits(self.bits, KEY_BITS, "key bits")
        if not 0 <= self.seq < 2 ** SEQ_BITS:
            raise ValueError("sequence number must fit in 8 bits")

    @property
    def key_bytes(self) -> bytes:
        return np.packbits(self.bits).tobytes()


def random_session_key(seq: int, rng: np.random.Generator) -> SessionKey:
    """Draw a fresh key from the caller's generator."""
    return SessionKey(bits=rng.integers(0, 2, KEY_BITS).astype(np.uint8), seq=seq)


def aes256_encrypt(plain: np.ndarray, key: SessionKey, codeword_index: int) -> np.ndarray:
    """Encrypt a bit sequence under the given session key."""
    plain = np.asarray(plain).astype(np.uint8)
    return plain ^ keystream_bits(key.key_bytes, codeword_index, plain.size)


def aes256_decrypt(cipher: np.ndarray, key: SessionKey, codeword_index: int) -> np.ndarray:
    """Counter mode is an involution, so decryption is re-encryption."""
    return aes256_encrypt(cipher, key, codeword_index)


@dataclass
class KeyFragmentMessage:
    """Half a key, framed for one coded control-channel block."""

    seq: int
    fragment_index: int
    key_fragment: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.seq < 2 ** SEQ_BITS:
            raise ValueError("sequence number must fit in 8 bits")
        if self.fragment_index not in (0, 1):
            raise ValueError("fragment index must be 0 or 1")
        self.key_fragment = _bits(self.key_fragment, FRAGMENT_BITS, "fragment bits")

    def to_bits(self) -> np.ndarray:
        return np.concatenate([
            byte_to_bits(self.seq),
            np.array([self.fragment_index], dtype=np.uint8),
            self.key_fragment,
            np.zeros(_PAD_BITS, dtype=np.uint8),
        ])

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "KeyFragmentMessage":
        bits = _bits(bits, FRAGMENT_MESSAGE_BITS, "fragment message bits")
        if bits[SEQ_BITS + 1 + FRAGMENT_BITS:].any():
            raise ValueError("nonzero padding in key fragment message")
        return cls(seq=byte_from_bits(bits[:SEQ_BITS]), fragment_index=int(bits[SEQ_BITS]),
                   key_fragment=bits[SEQ_BITS + 1:SEQ_BITS + 1 + FRAGMENT_BITS])


def split_key(key_bits: np.ndarray, seq: int) -> tuple[KeyFragmentMessage, KeyFragmentMessage]:
    """Break a 256-bit key into its two framed fragments."""
    key_bits = _bits(key_bits, KEY_BITS, "key bits")
    return (KeyFragmentMessage(seq, 0, key_bits[:FRAGMENT_BITS]),
            KeyFragmentMessage(seq, 1, key_bits[FRAGMENT_BITS:]))


def assemble_key(f0: KeyFragmentMessage, f1: KeyFragmentMessage) -> SessionKey:
    """Join two received fragments into one pending key."""
    if f0.seq != f1.seq:
        raise ValueError(f"fragment sequence mismatch: {f0.seq} vs {f1.seq}")
    if {f0.fragment_index, f1.fragment_index} != {0, 1}:
        raise ValueError("need one fragment of each half")
    lo, hi = (f0, f1) if f0.fragment_index == 0 else (f1, f0)
    return SessionKey(bits=np.concatenate([lo.key_fragment, hi.key_fragment]), seq=f0.seq)


class KeyStore:
    """Serialized key state machine for one end of one link.

    The store holds its pending keys, the active key, the last sequence
    number it accepted and the lowest codeword index the active key may
    still encrypt, which starts at the key's activation boundary.
    Guarantees: at most one active key, strictly increasing sequence
    numbers, and no reuse of a (key, codeword index) keystream.
    Activating a key drops the key it replaces and any older pending
    key, so a key is never active twice, one mark rules out keystream
    reuse, and the store stays bounded over any number of rotations.
    """

    def __init__(self) -> None:
        self._pending: dict[int, SessionKey] = {}
        self._active: SessionKey | None = None
        self._last_seq = -1
        self._next_codeword = 0

    @property
    def active_key(self) -> SessionKey | None:
        return self._active

    @property
    def next_seq(self) -> int:
        """The lowest sequence number the store still accepts."""
        return self._last_seq + 1

    @property
    def pending_key(self) -> SessionKey | None:
        """The newest pending key, or None when no key is pending."""
        return self._pending.get(self._last_seq)

    def pending_seqs(self) -> list[int]:
        return sorted(self._pending)

    def add_pending(self, key: SessionKey) -> None:
        if key.seq <= self._last_seq:
            raise ValueError(f"sequence {key.seq} does not advance past {self._last_seq}")
        self._pending[key.seq] = key
        self._last_seq = key.seq

    def activate(self, seq: int, codeword_index: int) -> None:
        """Make the pending key current from the given codeword boundary."""
        if seq not in self._pending:
            raise ValueError(f"key sequence {seq} is not pending")
        self._active = self._pending[seq]
        self._pending = {s: k for s, k in self._pending.items() if s > seq}
        self._next_codeword = codeword_index

    def consume(self, codeword_index: int) -> SessionKey:
        """Hand out the active key for one codeword; indices must increase."""
        key = self._active
        if key is None:
            raise ValueError("no active key")
        if codeword_index < self._next_codeword:
            raise ValueError(f"key seq={key.seq}: codeword {codeword_index} is below "
                             f"its next codeword {self._next_codeword}")
        self._next_codeword = codeword_index + 1
        return key
