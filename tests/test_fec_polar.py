import gc
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secpon import fec_polar as fp
from secpon import channel, dscm, framing, protocol, theory


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


def _crc(bits):
    """The CRC through the matrix that the encoder and list decoder use."""
    return fp._crc_matrix(bits.size).astype(int) @ bits % 2


def _crc_passes(framed):
    """True when the trailing 11 CRC bits match the leading message."""
    return np.array_equal(_crc(framed[:-11]), framed[-11:])


def _messages(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda m: np.array(m, dtype=np.uint8))


_LENGTHS = st.integers(1, 300)


def _reference_transform(u):
    """The butterfly one slice pair at a time: the plain form that
    ``polar_transform`` must match."""
    x = np.asarray(u).astype(np.uint8).copy()
    n = x.shape[-1]
    h = 1
    while h < n:
        for i in range(0, n, 2 * h):
            x[..., i:i + h] ^= x[..., i + h:i + 2 * h]
        h *= 2
    return x


def _reference_scl_paths(llrs, code):
    """The plain list decoder that ``_scl_paths`` must match: it keeps
    every path's u bits and reorders every per-path level at each prune."""
    b, n = llrs.shape
    lsz = code.list_size
    frozen_mask = np.zeros(n, dtype=bool)
    frozen_mask[fp.RELIABILITY_1024[fp.RELIABILITY_1024 < n][:n - code.info_length]] = True
    pm = np.full((b, lsz), np.inf)
    pm[:, 0] = 0.0
    llr_lv = {0: llrs[:, None, :]}
    left_bits = {}
    u_hat = np.zeros((b, lsz, n), dtype=np.uint8)
    leaf = [0]
    rows = np.arange(b)[:, None]

    def permute(src):
        for t in list(llr_lv):
            if llr_lv[t].shape[1] > 1:
                llr_lv[t] = llr_lv[t][rows, src]
        for t in list(left_bits):
            left_bits[t] = left_bits[t][rows, src]
        u_hat[...] = u_hat[rows, src]

    def visit(t):
        nonlocal pm
        size = n >> t
        if size == 1:
            i = leaf[0]
            leaf[0] += 1
            alpha = llr_lv[t][..., 0]
            if frozen_mask[i]:
                pm = pm + np.where(alpha < 0, -alpha, 0.0)
                return np.zeros((b, lsz, 1), dtype=np.uint8)
            pm0 = pm + np.where(alpha < 0, -alpha, 0.0)
            pm1 = pm + np.where(alpha > 0, alpha, 0.0)
            cand = np.concatenate([pm0, pm1], axis=1)
            keep = np.argpartition(cand, lsz - 1, axis=1)[:, :lsz]
            newpm = np.take_along_axis(cand, keep, axis=1)
            order = np.argsort(newpm, axis=1)
            keep = np.take_along_axis(keep, order, axis=1)
            pm = np.take_along_axis(newpm, order, axis=1)
            src, bit = keep % lsz, (keep // lsz).astype(np.uint8)
            permute(src)
            u_hat[..., i] = bit
            return bit[..., None]
        half = size // 2
        a, c = llr_lv[t][..., :half], llr_lv[t][..., half:]
        llr_lv[t + 1] = np.sign(a) * np.sign(c) * np.minimum(np.abs(a), np.abs(c))
        left_bits[t] = visit(t + 1)
        a, c = llr_lv[t][..., :half], llr_lv[t][..., half:]
        llr_lv[t + 1] = c + (1.0 - 2.0 * left_bits[t]) * a
        br = visit(t + 1)
        bl = left_bits.pop(t)
        return np.concatenate([bl ^ br, br], axis=-1)

    visit(0)
    order = np.argsort(pm, axis=1)
    return u_hat[rows, order]


@st.composite
def _bit_arrays(draw):
    lead = draw(st.lists(st.integers(1, 4), max_size=2))
    n = 2 ** draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, 2, (*lead, n)).astype(np.uint8)


@st.composite
def _decoder_inputs(draw):
    """Random LLRs, some on a coarse integer grid so that exact zeros
    and path-metric ties are common."""
    block = draw(st.sampled_from([64, 512]))
    lsz = draw(st.sampled_from([1, 2, 8]))
    code = fp.PolarCode(block, block // 2, list_size=lsz)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 12)), block)
    kind = draw(st.sampled_from(["normal", "grid", "sparse"]))
    if kind == "normal":
        llr = rng.normal(draw(st.sampled_from([0.0, 1.0, 3.0])), 2.0, shape)
    elif kind == "grid":
        llr = rng.integers(-2, 3, shape).astype(float)
    else:
        llr = np.where(rng.random(shape) < 0.5, 0.0, rng.normal(1.0, 2.0, shape))
    return llr, code


class TestReliabilityTable:
    def test_is_permutation_of_1024(self):
        assert fp.RELIABILITY_1024.size == 1024
        assert np.array_equal(np.sort(fp.RELIABILITY_1024), np.arange(1024))

    def test_known_head_and_tail(self):
        assert list(fp.RELIABILITY_1024[:8]) == [0, 1, 2, 4, 8, 16, 32, 3]
        assert int(fp.RELIABILITY_1024[-1]) == 1023

    def test_restriction_to_512(self):
        # nested property: a shorter block freezes its least reliable
        # positions in the relative order of the 1024 table
        for n in (512, 64):
            order = [int(x) for x in fp.RELIABILITY_1024 if x < n]
            for k in (12, n // 2, n - 1):
                mask = fp.PolarCode(block_length=n, info_length=k).frozen_mask
                assert set(np.flatnonzero(mask).tolist()) == set(order[:n - k]), (n, k)

    def test_bad_lengths_rejected(self):
        for n in (0, 1, 3, 100, 2048):
            with pytest.raises(ValueError):
                fp.PolarCode(block_length=n)


class TestCrcMatrix:
    def test_zero_message_zero_crc(self):
        assert np.array_equal(_crc(np.zeros(100, np.uint8)), np.zeros(11, np.uint8))

    def test_matches_long_division_on_unit_messages(self):
        for i in range(0, 245, 7):
            m = np.zeros(245, dtype=np.uint8)
            m[i] = 1
            assert np.array_equal(_crc(m), crc_by_long_division(m, fp.CRC11_POLY)), i

    def test_matches_long_division_on_random_messages(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            m = rng.integers(0, 2, n).astype(np.uint8)
            assert np.array_equal(_crc(m), crc_by_long_division(m, fp.CRC11_POLY))

    def test_append_then_check_passes(self):
        rng = np.random.default_rng(1)
        m = rng.integers(0, 2, 245).astype(np.uint8)
        framed = np.concatenate([m, crc_by_long_division(m, fp.CRC11_POLY)])
        assert _crc_passes(framed)

    def test_every_single_bit_flip_detected(self):
        rng = np.random.default_rng(2)
        m = rng.integers(0, 2, 245).astype(np.uint8)
        framed = np.concatenate([m, _crc(m)])
        for i in range(framed.size):
            bad = framed.copy()
            bad[i] ^= 1
            assert not _crc_passes(bad), i

    @settings(max_examples=100, deadline=None)
    @given(_LENGTHS.flatmap(lambda n: st.tuples(_messages(n), _messages(n))))
    def test_linear_over_gf2(self, pair):
        a, b = pair
        assert np.array_equal(_crc(a ^ b), _crc(a) ^ _crc(b))

    def test_degenerate_inputs_rejected(self):
        for size in (0, 244, 246):
            with pytest.raises(ValueError):
                fp.KeyCodeword.from_payload(np.zeros(size, dtype=np.uint8))


class TestPolarCodeDescription:
    def test_default_dimensions(self):
        code = fp.PolarCode()
        assert code.block_length == 512
        assert code.info_length == 256
        assert np.count_nonzero(code.frozen_mask) == 256
        assert code.payload_capacity == 245
        assert code.info_positions.size == 256

    def test_positions_computed_once_and_read_only(self):
        code = fp.PolarCode()
        assert code.info_positions is code.info_positions
        assert code.frozen_mask is code.frozen_mask
        with pytest.raises(ValueError):
            code.info_positions[0] = 0

    def test_frozen_positions_are_least_reliable(self):
        code = fp.PolarCode()
        worst = set(int(x) for x in fp.RELIABILITY_1024[fp.RELIABILITY_1024 < 512][:256])
        assert set(np.flatnonzero(code.frozen_mask).tolist()) == worst

    def test_entry_points_default_to_the_module_code(self):
        # one code built at import, not a fresh one per call
        for fn in (fp.polar_encode, fp.KeyCodeword.from_payload, fp.polar_decode_scl):
            assert inspect.signature(fn).parameters["code"].default is fp.POLAR

    def test_invalid_descriptions_rejected(self):
        with pytest.raises(ValueError):
            fp.PolarCode(block_length=500)
        with pytest.raises(ValueError):
            fp.PolarCode(info_length=512)
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

    @pytest.mark.parametrize("bad", [2, -1, 0.5, 256])
    def test_non_bits_rejected(self, bad):
        info = np.zeros(256)
        info[7] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            fp.polar_encode(info)
        with pytest.raises(ValueError, match="0 or 1"):
            fp.KeyCodeword.from_payload(info[:245])

    @settings(max_examples=100, deadline=None)
    @given(_bit_arrays())
    def test_transform_matches_reference(self, u):
        assert np.array_equal(fp.polar_transform(u), _reference_transform(u))

    def test_transform_is_its_own_inverse(self):
        u = np.random.default_rng(13).integers(0, 2, (3, 512)).astype(np.uint8)
        assert np.array_equal(fp.polar_transform(fp.polar_transform(u)), u)

    def test_key_codeword_assembly(self):
        rng = np.random.default_rng(4)
        pay = rng.integers(0, 2, 245).astype(np.uint8)
        kw = fp.KeyCodeword.from_payload(pay)
        u = np.concatenate([pay, crc_by_long_division(pay, fp.CRC11_POLY)])
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
        # the zero codeword, whose checksum the zero-initialised CRC would
        # pass, so it is flagged as failing, and the decoded payload is
        # independent of what was sent
        dec, ok = fp.polar_decode_scl(np.zeros((1, 512)))
        assert not ok[0]
        dec = dec[0]
        assert not dec.any()
        rng = np.random.default_rng(6)
        sent = rng.integers(0, 2, 245).astype(np.uint8)
        assert sent.any()
        assert not np.array_equal(dec, sent)

    @settings(max_examples=60, deadline=None)
    @given(_decoder_inputs())
    def test_paths_match_reference_decoder(self, case):
        llr, code = case
        assert np.array_equal(fp._scl_paths(llr, code), _reference_scl_paths(llr, code))

    def test_paths_match_reference_decoder_on_a_low_snr_batch(self):
        # 100 blocks where most paths are wrong: the prunes reorder paths
        # at nearly every info leaf, so the path maps compose deeply
        rng = np.random.default_rng(14)
        pays = rng.integers(0, 2, (100, 245)).astype(np.uint8)
        llr = _pilot_channel_llrs(rng, pays, 7.0)
        code = fp.PolarCode()
        assert np.array_equal(fp._scl_paths(llr, code), _reference_scl_paths(llr, code))

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
    return framing.demap_pilot_llrs((sym + noise).ravel(), params).reshape(coded.shape)


def _chain_pilot_llrs(n_blocks, snr_db, seed):
    """Pilot LLRs of ``n_blocks`` key codewords, each spread over the
    pilots of two upstream frames, as over an ONU's two key subcarriers,
    through the real single-carrier chain: frame, 100 kHz laser and AWGN,
    carrier recovery, pilot demapper."""
    layout = framing.upstream_layout()
    n = layout.n_pilots
    cfg = channel.ChannelConfig(snr_db=snr_db, linewidth_hz=1e5)
    rng = np.random.default_rng(seed)
    rows = []
    for block in range(n_blocks):
        pay = rng.integers(0, 2, fp.POLAR.payload_capacity).astype(np.uint8)
        second = np.zeros(2 * n, dtype=np.uint8)
        second[:fp.POLAR.block_length] = fp.KeyCodeword.from_payload(pay).coded_bits
        llrs = []
        for half in range(2):
            signs = rng.integers(0, 2, n).astype(np.uint8)
            payload = rng.integers(0, 2, 4 * layout.payload_len).astype(np.uint8)
            frame = protocol.transmit_subcarrier(signs, second[half * n:(half + 1) * n],
                                                 payload, (seed, block, half), layout,
                                                 protocol.PILOT)
            rx = channel.apply_channel(framing.SymbolStream(frame, dscm.SUBCARRIER_BAUD),
                                       cfg, (seed, block, half))
            got = protocol.receive_subcarrier(rx.symbols, signs, layout)
            llrs.append(framing.demap_pilot_llrs(got.pilots, protocol.PILOT))
        rows.append(np.concatenate(llrs)[:fp.POLAR.block_length])
    return np.stack(rows)


@pytest.fixture(scope="module")
def chain_llrs():
    return _chain_pilot_llrs(12, 9.5, seed=21)


def _assert_scale_blind(llr, c, code=fp.POLAR):
    """Decode ``llr`` and ``c * llr``, require equal outputs, and return
    the CRC flags."""
    dec, ok = fp.polar_decode_scl(llr, code)
    dec_c, ok_c = fp.polar_decode_scl(c * llr, code)
    assert np.array_equal(dec_c, dec) and np.array_equal(ok_c, ok)
    return ok


class TestScaleInvariance:
    """The list decoder is homogeneous of degree one in its LLRs (min-sum
    f, linear g, |alpha| path metrics), so a global LLR scale, such as a
    noise estimate, changes no decision.  That is why the pilot LLRs take
    no noise variance.  A power-of-two scale is exact in floating point,
    so payloads and CRC flags must match bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(_decoder_inputs(), st.sampled_from([1.0, 16.0]), st.sampled_from([0.25, 4.0]))
    def test_random_batches(self, case, magnitude, c):
        # magnitude 16 puts many LLRs past +-20, where a saturating decoder clips
        llr, code = case
        _assert_scale_blind(magnitude * llr, c, code)

    @pytest.mark.parametrize("c", [0.25, 4.0])
    def test_real_chain_pilot_llrs(self, chain_llrs, c):
        ok = _assert_scale_blind(chain_llrs, c)
        assert ok.any() and not ok.all()    # blocks on both sides of the waterfall


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
