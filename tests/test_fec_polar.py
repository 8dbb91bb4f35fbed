import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secpon import fec_polar as fp
from secpon import framing, theory


def crc_by_long_division(bits, poly):
    """Reference remainder: append zeros, divide MSB-first, keep the tail."""
    deg = len(poly) - 1
    work = list(bits) + [0] * deg
    g = list(poly)
    for i in range(len(bits)):
        if work[i]:
            for j, p in enumerate(g):
                work[i + j] ^= p
    return np.array(work[-deg:], dtype=np.uint8)


def _messages(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda m: np.array(m, dtype=np.uint8))


_LENGTHS = st.integers(1, 300)


class TestReliabilityTable:
    def test_is_permutation_of_1024(self):
        assert fp.RELIABILITY_1024.size == 1024
        assert np.array_equal(np.sort(fp.RELIABILITY_1024), np.arange(1024))

    def test_known_head_and_tail(self):
        assert list(fp.RELIABILITY_1024[:8]) == [0, 1, 2, 4, 8, 16, 32, 3]
        assert int(fp.RELIABILITY_1024[-1]) == 1023

    def test_restriction_to_512(self):
        order = fp.reliability_order(512)
        assert order.size == 512
        assert order.max() < 512
        # nested property: restriction preserves relative order
        big = fp.RELIABILITY_1024
        assert list(order) == [int(x) for x in big if x < 512]

    def test_bad_lengths_rejected(self):
        for n in (0, 1, 3, 100, 2048):
            with pytest.raises(ValueError):
                fp.reliability_order(n)


class TestCrc11:
    def test_zero_message_zero_crc(self):
        assert np.array_equal(fp.crc11(np.zeros(100, np.uint8)), np.zeros(11, np.uint8))

    def test_matches_long_division_on_unit_messages(self):
        for i in range(0, 245, 7):
            m = np.zeros(245, dtype=np.uint8)
            m[i] = 1
            assert np.array_equal(fp.crc11(m), crc_by_long_division(m, fp.CRC11_POLY)), i

    def test_matches_long_division_on_random_messages(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            m = rng.integers(0, 2, n).astype(np.uint8)
            assert np.array_equal(fp.crc11(m), crc_by_long_division(m, fp.CRC11_POLY))

    def test_append_then_check_passes(self):
        rng = np.random.default_rng(1)
        m = rng.integers(0, 2, 245).astype(np.uint8)
        framed = np.concatenate([m, fp.crc11(m)])
        assert fp.crc11_check(framed)

    def test_every_single_bit_flip_detected(self):
        rng = np.random.default_rng(2)
        m = rng.integers(0, 2, 245).astype(np.uint8)
        framed = np.concatenate([m, fp.crc11(m)])
        for i in range(framed.size):
            bad = framed.copy()
            bad[i] ^= 1
            assert not fp.crc11_check(bad), i

    @settings(max_examples=100, deadline=None)
    @given(_LENGTHS.flatmap(lambda n: st.tuples(_messages(n), _messages(n))))
    def test_linear_over_gf2(self, pair):
        a, b = pair
        assert np.array_equal(fp.crc11(a ^ b), fp.crc11(a) ^ fp.crc11(b))

    @settings(max_examples=100, deadline=None)
    @given(_LENGTHS.flatmap(_messages))
    def test_matrix_agrees_with_crc11(self, m):
        # the list decoder checks every candidate path through this matrix
        mat = fp._crc_matrix(fp.CRC11_POLY, m.size)
        assert np.array_equal(mat.astype(int) @ m % 2, fp.crc11(m))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fp.crc11(np.array([], dtype=np.uint8))
        with pytest.raises(ValueError):
            fp.crc11_check(np.zeros(11, np.uint8))


class TestPolarCodeDescription:
    def test_default_dimensions(self):
        code = fp.PolarCode()
        assert code.block_length == 512
        assert code.info_length == 256
        assert len(code.frozen) == 256
        assert code.payload_capacity == 245
        assert code.info_positions.size == 256

    def test_frozen_positions_are_least_reliable(self):
        code = fp.PolarCode()
        worst = set(int(x) for x in fp.reliability_order(512)[:256])
        assert set(code.frozen) == worst

    def test_invalid_descriptions_rejected(self):
        with pytest.raises(ValueError):
            fp.PolarCode(block_length=500)
        with pytest.raises(ValueError):
            fp.PolarCode(info_length=512)
        with pytest.raises(ValueError):
            fp.PolarCode(frozen=(0, 1, 2))
        with pytest.raises(ValueError):
            fp.PolarCode(list_size=0)
        with pytest.raises(ValueError):
            fp.PolarCode(block_length=16, info_length=8)  # no room under CRC


class TestEncoder:
    def test_zero_in_zero_out(self):
        assert not fp.polar_encode(np.zeros(256, np.uint8)).any()

    def test_single_bit_selects_transform_row(self):
        g = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        full = np.array([[1]], dtype=np.uint8)
        for _ in range(9):
            full = np.kron(full, g)
        code = fp.PolarCode()
        for slot in (0, 17, 100, 255):
            info = np.zeros(256, dtype=np.uint8)
            info[slot] = 1
            row = code.info_positions[slot]
            assert np.array_equal(fp.polar_encode(info, code), full[row] % 2)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.integers(0, 2, 256).astype(np.uint8)
            y = rng.integers(0, 2, 256).astype(np.uint8)
            assert np.array_equal(fp.polar_encode(x ^ y),
                                  fp.polar_encode(x) ^ fp.polar_encode(y))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            fp.polar_encode(np.zeros(255, np.uint8))
        with pytest.raises(ValueError):
            fp.polar_transform(np.zeros(48, np.uint8))

    def test_key_codeword_assembly(self):
        rng = np.random.default_rng(4)
        pay = rng.integers(0, 2, 245).astype(np.uint8)
        kw = fp.KeyCodeword.from_payload(pay)
        assert np.array_equal(kw.crc_bits, fp.crc11(pay))
        u = np.concatenate([pay, kw.crc_bits])
        assert np.array_equal(kw.coded_bits, fp.polar_encode(u))
        with pytest.raises(ValueError):
            fp.KeyCodeword.from_payload(np.zeros(244, np.uint8))


def _llrs_from_bits(bits, scale=20.0):
    return scale * (1.0 - 2.0 * bits.astype(float))


class TestSclDecoder:
    def test_noiseless_roundtrip_many_payloads(self):
        rng = np.random.default_rng(5)
        code = fp.PolarCode()
        for _ in range(10):
            pays = rng.integers(0, 2, (100, 245)).astype(np.uint8)
            llrs = np.stack([_llrs_from_bits(fp.KeyCodeword.from_payload(p).coded_bits)
                             for p in pays])
            dec, ok = fp.polar_decode_scl(llrs, code)
            assert ok.all()
            assert np.array_equal(dec, pays)

    def test_erasure_output_carries_no_information(self):
        # total erasure collapses every path metric; the decoder settles on
        # the zero codeword, whose checksum is trivially self-consistent, so
        # the decoded payload is independent of what was sent
        dec = fp.polar_decode_scl(np.zeros((1, 512)))[0][0]
        assert not dec.any()
        rng = np.random.default_rng(6)
        sent = rng.integers(0, 2, 245).astype(np.uint8)
        assert sent.any()
        assert not np.array_equal(dec, sent)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        llr = rng.normal(0, 2, (4, 512))
        a = fp.polar_decode_scl(llr)
        b = fp.polar_decode_scl(llr.copy())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_wrong_llr_length_rejected(self):
        with pytest.raises(ValueError):
            fp.polar_decode_scl(np.zeros((1, 511)))
        with pytest.raises(ValueError):
            fp.polar_decode_scl(np.zeros(512))

    def test_batch_rows_decode_as_single_blocks(self):
        # a mix of clean, noisy and hopeless blocks: each row of a batch
        # decodes to what the same row gives on its own
        rng = np.random.default_rng(12)
        pays = rng.integers(0, 2, (12, 245)).astype(np.uint8)
        scale = np.repeat([4.0, 1.0, 0.3], 4)[:, None]
        llr = scale * np.stack([_llrs_from_bits(fp.KeyCodeword.from_payload(p).coded_bits, 1.0)
                                for p in pays]) + rng.normal(0, 1, (12, 512))
        dec, ok = fp.polar_decode_scl(llr)
        assert ok.any() and not ok.all()
        for i in range(llr.shape[0]):
            one, one_ok = fp.polar_decode_scl(llr[i:i + 1])
            assert np.array_equal(dec[i], one[0]) and ok[i] == one_ok[0], i

    def test_decoder_state_freed_on_return(self):
        # no reference cycle may keep a batch's decoder state alive until
        # the next cyclic collection
        gc.collect()
        gc.disable()
        try:
            fp.polar_decode_scl(np.zeros((2, 512)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_corrects_a_few_flips(self):
        rng = np.random.default_rng(8)
        pay = rng.integers(0, 2, 245).astype(np.uint8)
        cw = fp.KeyCodeword.from_payload(pay).coded_bits.copy()
        cw[[3, 100, 200, 400, 501]] ^= 1
        dec, ok = fp.polar_decode_scl(_llrs_from_bits(cw, scale=2.0)[None, :])
        assert ok[0]
        assert np.array_equal(dec[0], pay)

    def test_list_one_is_plain_successive_cancellation(self):
        rng = np.random.default_rng(9)
        code1 = fp.PolarCode(list_size=1)
        pay = rng.integers(0, 2, 245).astype(np.uint8)
        llr = _llrs_from_bits(fp.KeyCodeword.from_payload(pay, code1).coded_bits)
        dec, ok = fp.polar_decode_scl(llr[None, :], code1)
        assert ok[0] and np.array_equal(dec[0], pay)


def _pilot_channel_llrs(rng, payloads, snr_db, a=1.7):
    """Coded key bits ride the pilot magnitude at the given channel SNR."""
    params = framing.GcsPilotParams(a=a)
    nvar = 10 ** (-snr_db / 10)
    coded = np.stack([fp.KeyCodeword.from_payload(p).coded_bits for p in payloads])
    first = rng.integers(0, 2, coded.shape).astype(np.uint8)
    sym = framing.map_pilot(first.ravel(), coded.ravel(), params).reshape(coded.shape)
    noise = (rng.standard_normal(sym.shape) + 1j * rng.standard_normal(sym.shape)) \
        * np.sqrt(nvar / 2)
    return framing.demap_pilot_llrs((sym + noise).ravel(), params, nvar).reshape(coded.shape)


class TestKeyChannelPerformance:
    def test_low_block_error_rate_at_raw_two_percent(self):
        # operating point where the uncoded magnitude bit errs at 2e-2
        from scipy.optimize import brentq
        snr_db = brentq(lambda s: theory.ber_pilot_second_bit(s, 1.7) - 2e-2, 5, 20)
        rng = np.random.default_rng(10)
        n_cw, batch, blocks = 10_000, 200, 0
        for _ in range(n_cw // batch):
            pays = rng.integers(0, 2, (batch, 245)).astype(np.uint8)
            llr = _pilot_channel_llrs(rng, pays, snr_db)
            dec, ok = fp.polar_decode_scl(llr)
            blocks += int(np.sum(np.any(dec != pays, axis=1)))
        assert blocks / n_cw < 1e-3, f"block error rate {blocks}/{n_cw}"

    def test_coded_beats_uncoded_wherever_raw_ber_reasonable(self):
        # qualitative waterfall: coded BER under raw at a few SNRs
        rng = np.random.default_rng(11)
        for snr_db in (11.5, 13.0, 14.7):
            raw = theory.ber_pilot_second_bit(snr_db, 1.7)
            assert raw <= 5e-2 or snr_db == 11.5
            pays = rng.integers(0, 2, (300, 245)).astype(np.uint8)
            llr = _pilot_channel_llrs(rng, pays, snr_db)
            dec, _ = fp.polar_decode_scl(llr)
            coded = np.mean(dec != pays)
            assert coded < raw, (snr_db, coded, raw)
