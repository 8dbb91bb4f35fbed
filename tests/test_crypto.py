import numpy as np
import pytest

from secpon import crypto


def _active_key(rng_or_bits, seq=0):
    if isinstance(rng_or_bits, np.random.Generator):
        bits = rng_or_bits.integers(0, 2, 256).astype(np.uint8)
    else:
        bits = rng_or_bits
    return crypto.SessionKey(bits=bits, seq=seq, state="active")


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

    def test_validation(self):
        with pytest.raises(ValueError):
            crypto.keystream_bits(bytes(32), -1, 10)
        with pytest.raises(ValueError):
            crypto.keystream_bits(bytes(32), 2 ** 64, 10)
        with pytest.raises(ValueError):
            crypto.keystream_bits(bytes(16), 0, 10)
        with pytest.raises(ValueError):
            crypto.keystream_bits(bytes(32), 0, -1)


class TestEncryptDecrypt:
    def test_identity_on_a_million_bits(self):
        rng = np.random.default_rng(0)
        key = _active_key(rng)
        plain = rng.integers(0, 2, 1_000_000).astype(np.uint8)
        cipher = crypto.aes256_encrypt(plain, key, 42)
        assert np.array_equal(crypto.aes256_decrypt(cipher, key, 42), plain)
        assert not np.array_equal(cipher, plain)

    def test_wrong_key_agreement_is_a_coin_flip(self):
        rng = np.random.default_rng(1)
        key = _active_key(rng, seq=0)
        wrong = _active_key(rng, seq=1)
        plain = rng.integers(0, 2, 1_000_000).astype(np.uint8)
        garbled = crypto.aes256_decrypt(crypto.aes256_encrypt(plain, key, 3), wrong, 3)
        agreement = np.mean(garbled == plain)
        assert 0.49 <= agreement <= 0.51

    def test_wrong_counter_also_garbles(self):
        rng = np.random.default_rng(2)
        key = _active_key(rng)
        plain = rng.integers(0, 2, 100_000).astype(np.uint8)
        garbled = crypto.aes256_decrypt(crypto.aes256_encrypt(plain, key, 0), key, 1)
        assert 0.45 <= np.mean(garbled == plain) <= 0.55

    def test_inactive_key_rejected(self):
        rng = np.random.default_rng(3)
        pending = crypto.random_session_key(0, rng)
        with pytest.raises(ValueError):
            crypto.aes256_encrypt(np.zeros(8, np.uint8), pending, 0)
        retired = crypto.SessionKey(bits=pending.bits, seq=1, state="retired")
        with pytest.raises(ValueError):
            crypto.aes256_decrypt(np.zeros(8, np.uint8), retired, 0)

    def test_empty_message_passes_through(self):
        key = _active_key(np.zeros(256, np.uint8))
        out = crypto.aes256_encrypt(np.array([], dtype=np.uint8), key, 0)
        assert out.size == 0


class TestSessionKey:
    def test_bytes_and_hex_views(self):
        bits = np.zeros(256, np.uint8)
        bits[0] = 1          # most significant bit of byte 0
        key = crypto.SessionKey(bits=bits, seq=5)
        assert key.key_bytes[0] == 0x80
        assert key.key_hex.startswith("80")
        assert len(key.key_hex) == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            crypto.SessionKey(bits=np.zeros(255, np.uint8), seq=0)
        with pytest.raises(ValueError):
            crypto.SessionKey(bits=np.full(256, 2, np.uint8), seq=0)
        with pytest.raises(ValueError):
            crypto.SessionKey(bits=np.zeros(256, np.uint8), seq=256)
        with pytest.raises(ValueError):
            crypto.SessionKey(bits=np.zeros(256, np.uint8), seq=0, state="stale")


class TestKeyFragments:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        frag = rng.integers(0, 2, 128).astype(np.uint8)
        msg = crypto.KeyFragmentMessage(seq=171, fragment_index=1, key_fragment=frag)
        bits = msg.to_bits()
        assert bits.size == 245
        back = crypto.KeyFragmentMessage.from_bits(bits)
        assert back.seq == 171 and back.fragment_index == 1
        assert np.array_equal(back.key_fragment, frag)

    def test_nonzero_padding_rejected(self):
        msg = crypto.KeyFragmentMessage(0, 0, np.zeros(128, np.uint8))
        bits = msg.to_bits()
        bits[-1] = 1
        with pytest.raises(ValueError):
            crypto.KeyFragmentMessage.from_bits(bits)

    def test_split_then_assemble_recovers_key(self):
        rng = np.random.default_rng(5)
        key_bits = rng.integers(0, 2, 256).astype(np.uint8)
        f0, f1 = crypto.split_key(key_bits, seq=9)
        key = crypto.assemble_key(f1, f0)      # order must not matter
        assert key.state == "pending" and key.seq == 9
        assert np.array_equal(key.bits, key_bits)

    def test_zero_fragments_make_zero_pending_key(self):
        z = np.zeros(128, np.uint8)
        key = crypto.assemble_key(crypto.KeyFragmentMessage(0, 0, z),
                                  crypto.KeyFragmentMessage(0, 1, z))
        assert not key.bits.any() and key.state == "pending"

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
        store = crypto.KeyStore("upstream")
        store.add_pending(self._pending(1, rng))
        store.add_pending(self._pending(2, rng))
        assert store.active_key is None
        store.activate(1, codeword_index=0)
        assert store.active_key.seq == 1
        crypto.activate_key(store, 2, codeword_index=10)
        assert store.active_key.seq == 2
        states = {s: k.state for s, k in store._keys.items()}
        assert states == {1: "retired", 2: "active"}

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
        store.add_pending(self._pending(1, rng))
        store.add_pending(self._pending(2, rng))
        store.activate(1, 0)
        with pytest.raises(ValueError):
            store.activate(1, 5)       # already active
        store.activate(2, 5)
        with pytest.raises(ValueError):
            store.activate(1, 9)       # retired now

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
        store.activate(2, 2)
        store.consume(0)               # new key, old codeword index is fine

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

    def test_key_log_format(self):
        rng = np.random.default_rng(10)
        store = crypto.KeyStore("downstream")
        store.add_pending(self._pending(1, rng))
        store.activate(1, 7)
        store.add_pending(self._pending(2, rng))
        store.activate(2, 19)
        log = store.export_key_log()
        lines = log.strip().split("\n")
        assert lines[0] == "seq,direction,state,activation_codeword,key_hex"
        assert len(lines) == 6      # 2 pending + 2 active + 1 retired + header
        fields = lines[2].split(",")
        assert fields[0] == "1" and fields[1] == "downstream" and fields[2] == "active"
        assert fields[3] == "7" and len(fields[4]) == 64
