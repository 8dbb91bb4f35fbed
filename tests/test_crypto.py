import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from secpon import crypto, protocol


def _bits(n):
    return st.binary(min_size=n // 8, max_size=n // 8).map(
        lambda raw: np.unpackbits(np.frombuffer(raw, dtype=np.uint8)))


_SEQS = st.integers(0, 2 ** crypto.SEQ_BITS - 1)
_PAD_START = crypto.SEQ_BITS + 1 + crypto.FRAGMENT_BITS


class TestBlockCipherCore:
    def test_fips_197_appendix_c3_vector(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expect = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert crypto.aes256_encrypt_block(key, plain) == expect

    def test_nist_sp800_38a_ecb_vector(self):
        key = bytes.fromhex(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
        plain = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        expect = bytes.fromhex("f3eed1bdb5d2a03c064b5a7e3db181f8")
        assert crypto.aes256_encrypt_block(key, plain) == expect

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            crypto.aes256_encrypt_block(b"\x00" * 16, b"\x00" * 16)
        with pytest.raises(ValueError):
            crypto.aes256_encrypt_block(b"\x00" * 32, b"\x00" * 15)

    @pytest.mark.parametrize("n_blocks", [2, 3, 4])
    def test_blocks_encrypt_one_by_one(self, n_blocks):
        key = bytes(range(32))
        blocks = bytes(np.random.default_rng(n_blocks).integers(0, 256, 16 * n_blocks,
                                                                dtype=np.uint8))
        expect = b"".join(crypto.aes256_encrypt_block(key, blocks[i:i + 16])
                          for i in range(0, len(blocks), 16))
        assert crypto.aes256_encrypt_block(key, blocks) == expect


class TestKeystream:
    def test_deterministic_and_counter_separated(self):
        key = bytes(range(32))
        a = crypto.keystream_bits(key, 0, 1000)
        b = crypto.keystream_bits(key, 0, 1000)
        c = crypto.keystream_bits(key, 1, 1000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_truncation_is_prefix_consistent(self):
        key = bytes(range(32))
        long = crypto.keystream_bits(key, 7, 1000)
        short = crypto.keystream_bits(key, 7, 130)
        assert np.array_equal(long[:130], short)

    def test_counter_block_layout(self):
        # first block of the stream is AES(codeword_index || 0)
        key = bytes(range(32))
        idx = 0x0123456789ABCDEF
        counter = idx.to_bytes(8, "big") + (0).to_bytes(8, "big")
        expect = np.unpackbits(np.frombuffer(
            crypto.aes256_encrypt_block(key, counter), dtype=np.uint8))
        assert np.array_equal(crypto.keystream_bits(key, idx, 128), expect)

    @pytest.mark.parametrize("n_bits", [0, 1, 128, 129, 4096])
    def test_equals_ecb_of_counter_blocks(self, n_bits):
        key = bytes(range(1, 33))
        idx = 41
        counters = b"".join(idx.to_bytes(8, "big") + j.to_bytes(8, "big")
                            for j in range(-(-n_bits // 128)))
        ecb = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(counters)
        expect = np.unpackbits(np.frombuffer(ecb, dtype=np.uint8))[:n_bits]
        got = crypto.keystream_bits(key, idx, n_bits)
        assert got.shape == (n_bits,)
        assert np.array_equal(got, expect)

    def test_validation(self):
        with pytest.raises(ValueError):
            crypto.keystream_bits(bytes(32), -1, 10)
        with pytest.raises(ValueError):
            crypto.keystream_bits(bytes(32), 2 ** 64, 10)
        with pytest.raises(ValueError):
            crypto.keystream_bits(bytes(16), 0, 10)
        with pytest.raises(ValueError):
            crypto.keystream_bits(bytes(32), 0, -1)


class TestByteCodec:
    @given(st.integers(0, 255))
    def test_round_trip_most_significant_bit_first(self, value):
        bits = crypto.byte_to_bits(value)
        assert bits.dtype == np.uint8
        assert bits.tolist() == [(value >> (7 - i)) & 1 for i in range(8)]
        assert crypto.byte_from_bits(bits) == value

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            crypto.byte_from_bits(np.ones(7, dtype=np.uint8))


class TestEncryptDecrypt:
    def test_identity_on_a_million_bits(self):
        rng = np.random.default_rng(0)
        key = crypto.random_session_key(0, rng)
        plain = rng.integers(0, 2, 1_000_000).astype(np.uint8)
        cipher = crypto.aes256_encrypt(plain, key, 42)
        assert np.array_equal(crypto.aes256_decrypt(cipher, key, 42), plain)
        assert not np.array_equal(cipher, plain)

    def test_wrong_key_agreement_is_a_coin_flip(self):
        rng = np.random.default_rng(1)
        key = crypto.random_session_key(0, rng)
        wrong = crypto.random_session_key(1, rng)
        plain = rng.integers(0, 2, 1_000_000).astype(np.uint8)
        garbled = crypto.aes256_decrypt(crypto.aes256_encrypt(plain, key, 3), wrong, 3)
        agreement = np.mean(garbled == plain)
        assert 0.49 <= agreement <= 0.51

    def test_wrong_counter_also_garbles(self):
        rng = np.random.default_rng(2)
        key = crypto.random_session_key(0, rng)
        plain = rng.integers(0, 2, 100_000).astype(np.uint8)
        garbled = crypto.aes256_decrypt(crypto.aes256_encrypt(plain, key, 0), key, 1)
        assert 0.45 <= np.mean(garbled == plain) <= 0.55

    def test_empty_message_passes_through(self):
        key = crypto.SessionKey(bits=np.zeros(256, np.uint8), seq=0)
        out = crypto.aes256_encrypt(np.array([], dtype=np.uint8), key, 0)
        assert out.size == 0


class TestSessionKey:
    def test_bytes_view(self):
        bits = np.zeros(256, np.uint8)
        bits[0] = 1          # most significant bit of byte 0
        key = crypto.SessionKey(bits=bits, seq=5)
        assert key.key_bytes[0] == 0x80
        assert len(key.key_bytes) == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            crypto.SessionKey(bits=np.zeros(255, np.uint8), seq=0)
        with pytest.raises(ValueError):
            crypto.SessionKey(bits=np.full(256, 2, np.uint8), seq=0)
        with pytest.raises(ValueError):
            crypto.SessionKey(bits=np.zeros(256, np.uint8), seq=256)


class TestKeyFragments:
    def test_message_fills_the_key_code_payload(self):
        # one fragment message is exactly one polar block's payload
        assert crypto.FRAGMENT_MESSAGE_BITS == protocol.POLAR.payload_capacity

    @settings(max_examples=200, deadline=None)
    @given(seq=_SEQS, index=st.integers(0, 1), frag=_bits(crypto.FRAGMENT_BITS))
    def test_roundtrip(self, seq, index, frag):
        bits = crypto.KeyFragmentMessage(seq, index, frag).to_bits()
        assert bits.size == crypto.FRAGMENT_MESSAGE_BITS
        back = crypto.KeyFragmentMessage.from_bits(bits)
        assert back.seq == seq and back.fragment_index == index
        assert np.array_equal(back.key_fragment, frag)

    @settings(max_examples=200, deadline=None)
    @given(seq=_SEQS, index=st.integers(0, 1), frag=_bits(crypto.FRAGMENT_BITS),
           pad=st.sets(st.integers(_PAD_START, crypto.FRAGMENT_MESSAGE_BITS - 1),
                       min_size=1))
    def test_nonzero_padding_rejected(self, seq, index, frag, pad):
        bits = crypto.KeyFragmentMessage(seq, index, frag).to_bits()
        bits[sorted(pad)] = 1
        with pytest.raises(ValueError, match="padding"):
            crypto.KeyFragmentMessage.from_bits(bits)

    @settings(max_examples=100, deadline=None)
    @given(seq=_SEQS, key_bits=_bits(crypto.KEY_BITS))
    def test_split_then_assemble_recovers_key(self, seq, key_bits):
        f0, f1 = crypto.split_key(key_bits, seq)
        for pair in ((f0, f1), (f1, f0)):      # order must not matter
            key = crypto.assemble_key(*pair)
            assert key.seq == seq
            assert np.array_equal(key.bits, key_bits)

    @pytest.mark.parametrize("value", [0.5, 1.7, 2, -1])
    def test_non_bits_rejected_before_any_cast(self, value):
        """A uint8 cast would turn 0.5 into 0, 1.7 into 1 and 2 into a set
        sequence bit; every entry point refuses them instead."""
        with pytest.raises(ValueError, match="0 or 1"):
            crypto.SessionKey(bits=np.full(crypto.KEY_BITS, value), seq=1)
        with pytest.raises(ValueError, match="0 or 1"):
            crypto.KeyFragmentMessage(1, 0, np.full(crypto.FRAGMENT_BITS, value))
        with pytest.raises(ValueError, match="0 or 1"):
            crypto.split_key(np.full(crypto.KEY_BITS, value), 1)
        bits = crypto.KeyFragmentMessage(1, 0, np.zeros(crypto.FRAGMENT_BITS)).to_bits()
        bits = bits.astype(float)
        bits[0] = value          # the sequence byte's most significant bit
        with pytest.raises(ValueError, match="0 or 1"):
            crypto.KeyFragmentMessage.from_bits(bits)

    def test_zero_fragments_make_zero_pending_key(self):
        z = np.zeros(128, np.uint8)
        key = crypto.assemble_key(crypto.KeyFragmentMessage(0, 0, z),
                                  crypto.KeyFragmentMessage(0, 1, z))
        assert not key.bits.any() and key.seq == 0

    def test_mismatches_rejected(self):
        z = np.zeros(128, np.uint8)
        with pytest.raises(ValueError):
            crypto.assemble_key(crypto.KeyFragmentMessage(0, 0, z),
                                crypto.KeyFragmentMessage(1, 1, z))
        with pytest.raises(ValueError):
            crypto.assemble_key(crypto.KeyFragmentMessage(0, 0, z),
                                crypto.KeyFragmentMessage(0, 0, z))
        with pytest.raises(ValueError):
            crypto.KeyFragmentMessage(0, 2, z)
        with pytest.raises(ValueError):
            crypto.KeyFragmentMessage.from_bits(np.zeros(244, np.uint8))




class TestKeyStore:
    def _pending(self, seq, rng):
        return crypto.random_session_key(seq, rng)

    def test_lifecycle_and_single_active(self):
        rng = np.random.default_rng(6)
        store = crypto.KeyStore()
        store.add_pending(self._pending(1, rng))
        store.add_pending(self._pending(2, rng))
        assert store.active_key is None
        assert store.pending_seqs() == [1, 2] and store.pending_key.seq == 2
        assert store.next_seq == 3
        store.activate(1, codeword_index=0)
        assert store.active_key.seq == 1 and store.pending_seqs() == [2]
        store.activate(2, codeword_index=10)
        assert store.active_key.seq == 2
        assert store.pending_seqs() == [] and store.pending_key is None

    def test_sequence_must_increase(self):
        rng = np.random.default_rng(7)
        store = crypto.KeyStore()
        store.add_pending(self._pending(5, rng))
        with pytest.raises(ValueError):
            store.add_pending(self._pending(5, rng))
        with pytest.raises(ValueError):
            store.add_pending(self._pending(4, rng))

    def test_bad_activations_rejected(self):
        rng = np.random.default_rng(8)
        store = crypto.KeyStore()
        with pytest.raises(ValueError):
            store.activate(1, 0)
        for seq in (1, 2, 3, 4):
            store.add_pending(self._pending(seq, rng))
        store.activate(1, 0)
        with pytest.raises(ValueError):
            store.activate(1, 5)       # already active
        store.activate(3, 5)           # drops key 2, which is older
        assert store.pending_seqs() == [4]
        with pytest.raises(ValueError):
            store.activate(1, 9)       # replaced
        with pytest.raises(ValueError):
            store.activate(2, 9)       # skipped

    def test_keystream_reuse_refused(self):
        rng = np.random.default_rng(9)
        store = crypto.KeyStore()
        store.add_pending(self._pending(1, rng))
        store.activate(1, 0)
        store.consume(0)
        store.consume(1)
        with pytest.raises(ValueError):
            store.consume(0)
        store.add_pending(self._pending(2, rng))
        store.activate(2, 5)
        with pytest.raises(ValueError):
            store.consume(4)           # the new key starts at its boundary
        assert store.consume(5).seq == 2

    def test_codeword_indices_must_increase_per_key(self):
        rng = np.random.default_rng(11)
        store = crypto.KeyStore()
        store.add_pending(self._pending(1, rng))
        store.activate(1, 0)
        store.consume(5)
        with pytest.raises(ValueError):
            store.consume(3)

    def test_consume_without_active_key_rejected(self):
        store = crypto.KeyStore()
        with pytest.raises(ValueError):
            store.consume(0)

    def test_rotations_keep_only_the_active_key(self):
        """After 254 rotations the store holds the active key alone: every
        key it replaced is freed, and its memory does not grow."""
        rng = np.random.default_rng(12)
        store = crypto.KeyStore()
        replaced = []
        tracemalloc.start()
        try:
            for seq in range(255):
                if seq == 10:
                    gc.collect()
                    before = tracemalloc.take_snapshot()
                key = self._pending(seq, rng)
                store.add_pending(key)
                store.activate(seq, codeword_index=seq)
                assert store.consume(seq) is key
                replaced.append(weakref.ref(key))
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert store.active_key.seq == 254 and store.pending_seqs() == []
        assert [seq for seq, ref in enumerate(replaced) if ref() is not None] == [254]
        in_crypto = [tracemalloc.Filter(True, crypto.__file__)]
        grown = sum(stat.size_diff for stat in after.filter_traces(in_crypto).compare_to(
            before.filter_traces(in_crypto), "filename"))
        assert grown < 1024


class KeyStoreMachine(RuleBasedStateMachine):
    """One store driven by arbitrary calls and checked against a model
    that holds the pending keys, the active key, the last sequence
    number and the codeword indices handed out under the active key."""

    def __init__(self):
        super().__init__()
        self.store = crypto.KeyStore()
        self.pending: dict[int, bytes] = {}
        self.active: tuple[int, bytes] | None = None
        self.last_seq = -1
        self.next_codeword = 0
        self.activated: list[int] = []
        self.consumed: list[int] = []

    @rule(step=st.integers(-2, 3), raw=st.binary(min_size=32, max_size=32))
    def add_pending(self, step, raw):
        seq = min(max(self.last_seq + step, 0), 2 ** crypto.SEQ_BITS - 1)
        key = crypto.SessionKey(bits=np.unpackbits(np.frombuffer(raw, np.uint8)), seq=seq)
        if seq <= self.last_seq:
            with pytest.raises(ValueError):
                self.store.add_pending(key)
            return
        self.store.add_pending(key)
        self.pending[seq] = raw
        self.last_seq = seq

    @rule(back=st.integers(-1, 3), boundary=st.integers(0, 60))
    def activate(self, back, boundary):
        seq = self.last_seq - back
        if seq not in self.pending:
            with pytest.raises(ValueError):
                self.store.activate(seq, boundary)
            return
        self.store.activate(seq, boundary)
        self.active = (seq, self.pending[seq])
        self.pending = {s: raw for s, raw in self.pending.items() if s > seq}
        self.next_codeword = boundary
        self.activated.append(seq)
        self.consumed = []

    @rule(index=st.integers(0, 80))
    def consume(self, index):
        if self.active is None or index < self.next_codeword:
            with pytest.raises(ValueError):
                self.store.consume(index)
            return
        key = self.store.consume(index)
        assert key is self.store.active_key
        assert (key.seq, key.key_bytes) == self.active
        self.consumed.append(index)
        self.next_codeword = index + 1

    @invariant()
    def matches_model(self):
        active = self.store.active_key
        assert (None if active is None else (active.seq, active.key_bytes)) == self.active
        assert self.store.pending_seqs() == sorted(self.pending)
        assert self.store.next_seq == self.last_seq + 1
        newest = self.store.pending_key
        assert (None if newest is None else newest.seq) == max(self.pending, default=None)

    @invariant()
    def one_active_key_and_increasing_sequences(self):
        if self.active is not None:
            assert all(seq > self.active[0] for seq in self.store.pending_seqs())
        assert all(a < b for a, b in zip(self.activated, self.activated[1:]))
        assert all(a < b for a, b in zip(self.consumed, self.consumed[1:]))


KeyStoreMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=40,
                                             deadline=None)
TestKeyStoreMachine = KeyStoreMachine.TestCase
