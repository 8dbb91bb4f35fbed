"""Subcarrier mux/demux tests: exact roundtrip, spectral shape, and
noise calibration against sample-statistics oracles; the spectral mux and
demux against a time-domain reference."""

import dataclasses

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from secpon import channel, dscm, framing, rxdsp, theory
from secpon.dscm import (
    CENTER_FREQUENCIES,
    N_SUBCARRIERS,
    RRC_ROLLOFF,
    SAMPLE_RATE,
    SAMPLES_PER_SYMBOL,
    SUBCARRIER_BAUD,
    SUBCARRIER_SPACING,
    _center_bin,
    _rrc_band,
    aggregate_snr_db,
    demux_select,
    mux,
)
from secpon.framing import (
    SymbolStream,
    map_payload_16qam,
    demap_payload_16qam,
    downstream_layout,
    qpsk_training,
    upstream_layout,
)

# nominal two-sided width of one root-raised-cosine subcarrier
OCCUPIED_BAND_HZ = SUBCARRIER_BAUD * (1 + RRC_ROLLOFF)


def _demux_all(samples):
    """Select every subcarrier of the aggregate."""
    return [demux_select(samples, k) for k in range(N_SUBCARRIERS)]


def _symbol_noise_variance(aggregate_noise_variance):
    """Post-demux per-symbol complex noise variance for white input noise.

    Decimation folds the full band back, so the variance grows by the
    oversampling factor.
    """
    return aggregate_noise_variance * SAMPLES_PER_SYMBOL


def _qpsk_streams(n_sym, seed=0, count=N_SUBCARRIERS, baud=SUBCARRIER_BAUD):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        sym = np.exp(1j * (np.pi / 4 + rng.integers(0, 4, n_sym) * np.pi / 2))
        out.append(SymbolStream(sym, baud))
    return out


def _power(stream):
    return np.mean(np.abs(stream.symbols) ** 2)


def _evm(rx, tx):
    return np.sqrt(np.mean(np.abs(rx - tx) ** 2) / np.mean(np.abs(tx) ** 2))


def _dark(streams, dark):
    zero = np.zeros_like(streams[0].symbols)
    return [SymbolStream(zero, s.symbol_rate_hz) if k in dark else s
            for k, s in enumerate(streams)]


def _reference_rrc(n):
    f = np.abs(np.fft.fftfreq(n, d=1.0 / SAMPLE_RATE))
    b, a = SUBCARRIER_BAUD, RRC_ROLLOFF
    lo, hi = (1 - a) * b / 2, (1 + a) * b / 2
    h2 = np.zeros(n)
    h2[f <= lo] = 1.0
    taper = (f > lo) & (f < hi)
    h2[taper] = 0.5 * (1 + np.cos(np.pi * (f[taper] - lo) / (a * b)))
    return np.sqrt(h2)


def _reference_tone(n, k):
    return np.exp(2j * np.pi * _center_bin(k, n) * np.arange(n) / n)


def _reference_mux(streams):
    """Time domain: upsample by spectral tiling, shape, shift each
    subcarrier with its own tone and sum."""
    sps = SAMPLES_PER_SYMBOL
    n = streams[0].symbols.size * sps
    h = _reference_rrc(n)
    total = np.zeros(n, dtype=complex)
    for k, s in enumerate(streams):
        base = np.fft.ifft(np.tile(np.fft.fft(s.symbols), sps) * h)
        total += base * _reference_tone(n, k)
    return total


def _reference_demux(samples, k):
    """Time domain: shift down, n-point matched filter, keep every sps-th."""
    n = samples.size
    down = samples * np.conj(_reference_tone(n, k))
    filtered = np.fft.ifft(np.fft.fft(down) * _reference_rrc(n))
    sps = SAMPLES_PER_SYMBOL
    return filtered[::sps] * sps


class TestPlan:
    def test_defaults(self):
        assert N_SUBCARRIERS == 4
        assert SUBCARRIER_BAUD == 8e9
        assert SAMPLE_RATE == 64e9
        assert OCCUPIED_BAND_HZ == pytest.approx(8.8e9)

    def test_centers_symmetric_on_spacing_grid(self):
        c = CENTER_FREQUENCIES
        assert c == pytest.approx((-13.2e9, -4.4e9, 4.4e9, 13.2e9))
        assert sum(c) == pytest.approx(0.0)

    def test_bands_fit_the_grid(self):
        """Adjacent bands do not overlap, the outermost band edge stays
        within the aggregate's Nyquist range, and the aggregate is
        oversampled."""
        assert 0 < RRC_ROLLOFF <= 1
        assert SUBCARRIER_SPACING >= OCCUPIED_BAND_HZ - 1e-6
        edge = max(abs(c) for c in CENTER_FREQUENCIES) + OCCUPIED_BAND_HZ / 2
        assert edge <= SAMPLE_RATE / 2
        assert SAMPLES_PER_SYMBOL >= 2


class TestRoundtrip:
    def test_single_subcarrier_evm_below_1e6(self):
        streams = _qpsk_streams(4096, seed=1)
        agg = mux(streams)
        back = demux_select(agg, 0)
        assert back.symbol_rate_hz == SUBCARRIER_BAUD
        assert _evm(back.symbols, streams[0].symbols) < 1e-6

    def test_all_four_indices(self):
        streams = _qpsk_streams(2048, seed=2)
        agg = mux(streams)
        for k, back in enumerate(_demux_all(agg)):
            assert _evm(back.symbols, streams[k].symbols) < 1e-6

    def test_linearity(self):
        a = _qpsk_streams(1024, seed=4)
        b = _qpsk_streams(1024, seed=5)
        both = [SymbolStream(x.symbols + y.symbols, x.symbol_rate_hz)
                for x, y in zip(a, b)]
        agg_sum = mux(both).symbols
        agg_parts = mux(a).symbols + mux(b).symbols
        assert np.max(np.abs(agg_sum - agg_parts)) < 1e-9
        scaled = [SymbolStream(2.5 * x.symbols, x.symbol_rate_hz) for x in a]
        assert np.max(np.abs(mux(scaled).symbols - 2.5 * mux(a).symbols)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(n_sym=st.integers(64, 4096),
           lit=st.tuples(*[st.booleans()] * 4).filter(any))
    def test_noiseless_roundtrip_exact_but_for_shared_edge_bins(self, n_sym, lit):
        """Lit subcarriers come back with EVM below 1e-9 and dark ones with
        power below 1e-20, plus at most the crosstalk through bins where a
        lit neighbour's band meets this one.  Centers snap to the burst's
        bin grid, so at some lengths adjacent bands share their edge bin;
        with unit-modulus symbols, neighbour j adds at most an amplitude of
        sqrt(sum of (h_j h_k)^2 over the shared bins)."""
        streams = _dark(_qpsk_streams(n_sym, seed=n_sym),
                        [k for k in range(4) if not lit[k]])
        agg = mux(streams)
        n = agg.symbols.size
        band, mag = _rrc_band(n)
        gain = [dict(zip(((band + _center_bin(k, n)) % n).tolist(), mag))
                for k in range(4)]
        for k, back in enumerate(_demux_all(agg)):
            leak = [np.sqrt(sum((gain[j][b] * gain[k][b]) ** 2
                                for b in gain[j].keys() & gain[k].keys()))
                    for j in range(4) if j != k and lit[j]]
            err = np.mean(np.abs(back.symbols - streams[k].symbols) ** 2)
            assert err <= (1e-18 if lit[k] else 1e-20) + sum(leak) ** 2


class TestMatchesTimeDomainReference:
    @pytest.mark.parametrize("n_sym", [9399, 9335])
    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 2.0, 1.0)])
    @pytest.mark.parametrize("dark", [(), (1, 3)], ids=["all-lit", "two-dark"])
    def test_mux_and_demux_match_reference(self, n_sym, weights, dark):
        """``weights`` are the subcarriers' launch powers, as from ONUs
        transmitting at different levels."""
        streams = [SymbolStream(np.sqrt(w) * s.symbols, s.symbol_rate_hz)
                   for w, s in zip(weights, _dark(_qpsk_streams(n_sym, seed=n_sym), dark))]
        agg = mux(streams)
        assert np.max(np.abs(agg.symbols - _reference_mux(streams))) <= 1e-10
        for k in range(N_SUBCARRIERS):
            got = demux_select(agg, k).symbols
            assert np.max(np.abs(got - _reference_demux(agg.symbols, k))) <= 1e-10


class TestSharedSpectrum:
    def test_demux_all_transforms_the_aggregate_once(self, monkeypatch):
        """Every DSCM transform goes through ``framing._dft``; selecting all
        four subcarriers takes one forward transform of the aggregate."""
        agg = mux(_qpsk_streams(9335, seed=30))
        calls = []
        dft = framing._dft

        def counting_dft(x, inverse=False):
            calls.append((np.size(x), inverse))
            return dft(x, inverse)

        monkeypatch.setattr(framing, "_dft", counting_dft)
        monkeypatch.setattr(dscm, "_dft", counting_dft)
        _demux_all(agg)
        assert calls.count((agg.symbols.size, False)) == 1
        assert calls.count((9335, True)) == N_SUBCARRIERS
        assert len(calls) == 1 + N_SUBCARRIERS

    def test_symbol_stream_is_frozen(self):
        stream = _qpsk_streams(64, count=1)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            stream.symbols = np.zeros(64, dtype=complex)


# Every transform length the experiments take: the upstream and downstream
# frames (9335 and 9399 symbols), their aggregates (74 680 and 75 192
# samples), and the frequency-offset periodogram, which pads each
# training prefix (416 and 480 symbols) to 3328 and 3840 points.
_LAYOUTS = (upstream_layout(), downstream_layout())
_TRANSFORM_LENGTHS = [(m, m) for lay in _LAYOUTS
                      for m in (lay.total_len, lay.total_len * SAMPLES_PER_SYMBOL)]
_TRANSFORM_LENGTHS += [(lay.training_len, lay.training_len * rxdsp.FREQ_PAD_FACTOR)
                       for lay in _LAYOUTS]


# the DSCM lengths and their Cooley-Tukey splits, smooth part first
_SPLIT_LENGTHS = {74680: (40, 1867), 75192: (24, 3133), 9335: (5, 1867), 9399: (3, 3133)}


def _scipy_dft(x, inverse=False):
    """``framing._dft`` as it ran on ``scipy.fft``, with which the pinned
    CSVs were last written."""
    transform = scipy.fft.ifft if inverse else scipy.fft.fft
    n1, n2 = framing._smooth_split(x.shape[-1])
    if n1 == 1 or n2 == 1:
        return transform(x)
    y = transform(x.reshape(*x.shape[:-1], n1, n2), axis=-2)
    y *= framing._twiddles(n1, n2, inverse)
    y = transform(y, axis=-1, overwrite_x=True)
    return y.swapaxes(-1, -2).reshape(x.shape)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestScipyFftMatchesNumpy:
    """The DSCM transforms run on ``numpy.fft``, and the pinned CSVs
    were last written with ``scipy.fft``: both must give the same bits on
    the complex arrays the experiments transform, at every length and
    shape they use."""

    @pytest.mark.parametrize("size, n", _TRANSFORM_LENGTHS,
                             ids=[str(n) if size == n else f"{size}-padded-to-{n}"
                                  for size, n in _TRANSFORM_LENGTHS])
    def test_bit_identical(self, size, n):
        """``_dft`` at the frame and aggregate lengths; the zero-padded
        periodogram transform of ``rxdsp.estimate_frequency_offset``."""
        x = _complex_noise(size, n)
        if size == n:
            for inverse in (False, True):
                _assert_same_bits(framing._dft(x, inverse), _scipy_dft(x, inverse))
        else:
            _assert_same_bits(np.fft.fft(x, n=n), scipy.fft.fft(x, n=n))

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("shape", sorted(_SPLIT_LENGTHS.values()),
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_split_shapes_bit_identical(self, shape, axis):
        """The batched transforms inside ``_dft``, along both axes."""
        x = _complex_noise(shape, shape[0] * shape[1] + axis)
        _assert_same_bits(np.fft.fft(x, axis=axis), scipy.fft.fft(x, axis=axis))
        _assert_same_bits(np.fft.ifft(x, axis=axis), scipy.fft.ifft(x, axis=axis))

    @pytest.mark.parametrize("rows", [3, 4])
    @pytest.mark.parametrize("n", sorted(_SPLIT_LENGTHS))
    def test_stacked_rows_bit_identical(self, n, rows):
        x = _complex_noise((rows, n), n + rows)
        for inverse in (False, True):
            _assert_same_bits(framing._dft(x, inverse), _scipy_dft(x, inverse))


def _assert_close_dft(x):
    """``_dft`` forward, inverse and roundtrip against ``numpy.fft``,
    each within 1e-12 of the largest output magnitude."""
    for got, want in ((framing._dft(x), np.fft.fft(x)),
                      (framing._dft(x, inverse=True), np.fft.ifft(x)),
                      (framing._dft(framing._dft(x), inverse=True), x)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _complex_noise(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDft:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.integers(64, 20000), st.integers(8, 2500).map(lambda m: 8 * m)))
    def test_matches_numpy(self, n):
        _assert_close_dft(_complex_noise(n, n))

    @pytest.mark.parametrize("n", sorted(_SPLIT_LENGTHS))
    def test_dscm_lengths_split(self, n):
        assert framing._smooth_split(n) == _SPLIT_LENGTHS[n]
        _assert_close_dft(_complex_noise(n, n))

    @pytest.mark.parametrize("n", [9335, 75192])
    def test_stacked_rows_transform_along_the_last_axis(self, n):
        _assert_close_dft(_complex_noise((3, n), n))

    # smooth lengths (the downstream periodogram, the payload, a power of
    # two) and primes (the large factors of the frame lengths)
    @pytest.mark.parametrize("n", [64, 3840, 8640, 1867, 3133])
    def test_smooth_and_prime_lengths_go_to_numpy_unchanged(self, n):
        assert 1 in framing._smooth_split(n)
        x = _complex_noise(n, n)
        _assert_same_bits(framing._dft(x), np.fft.fft(x))
        _assert_same_bits(framing._dft(x, inverse=True), np.fft.ifft(x))

    def test_empty_input_refused_as_numpy_does(self):
        with pytest.raises(ValueError):
            framing._dft(np.zeros(0, dtype=complex))


class TestSpectrum:
    def test_four_carriers_add_four_times_single_power(self):
        streams = _qpsk_streams(8192, seed=6)
        full = _power(mux(streams))
        zero = SymbolStream(np.zeros(8192, dtype=complex), SUBCARRIER_BAUD)
        single = _power(mux([streams[0], zero, zero, zero]))
        ratio_db = 10 * np.log10(full / single)
        assert ratio_db == pytest.approx(10 * np.log10(4.0), abs=0.01)

    def test_occupied_bandwidth_at_minus_40db(self):
        """Periodogram oracle: the -40 dB extent of one shaped subcarrier
        stays within the nominal (1 + rolloff) band."""
        n_sym = 16384
        streams = _qpsk_streams(n_sym, seed=7)
        zero = SymbolStream(np.zeros(n_sym, dtype=complex), SUBCARRIER_BAUD)
        agg = mux([zero, streams[1], zero, zero])
        spec = np.abs(np.fft.fft(agg.symbols)) ** 2
        freqs = np.fft.fftfreq(spec.size, d=1.0 / SAMPLE_RATE)
        # average the periodogram in 10 MHz bins to beat the chi-square scatter
        order = np.argsort(freqs)
        f, p = freqs[order], spec[order]
        nbin = 64
        f = f[: f.size - f.size % nbin].reshape(-1, nbin).mean(axis=1)
        p = p[: p.size - p.size % nbin].reshape(-1, nbin).mean(axis=1)
        occupied = f[p >= p.max() * 1e-4]
        width = occupied.max() - occupied.min()
        center = CENTER_FREQUENCIES[1]
        assert abs(0.5 * (occupied.max() + occupied.min()) - center) < 0.2e9
        assert SUBCARRIER_BAUD * (1 - RRC_ROLLOFF) < width <= OCCUPIED_BAND_HZ * 1.001

    def test_adjacent_leakage_below_minus_30db(self):
        n_sym = 8192
        streams = _qpsk_streams(n_sym, seed=8)
        zero = SymbolStream(np.zeros(n_sym, dtype=complex), SUBCARRIER_BAUD)
        agg = mux([zero, streams[1], zero, zero])
        active = demux_select(agg, 1)
        for k in (0, 2, 3):
            leak = demux_select(agg, k)
            ratio_db = 10 * np.log10(_power(leak) / _power(active) + 1e-300)
            assert ratio_db < -30.0


class TestNoiseCalibration:
    def test_post_demux_noise_variance_matches_prediction(self):
        rng = np.random.default_rng(9)
        streams = _qpsk_streams(50_000, seed=10)
        agg = mux(streams)
        sigma2 = 4e-4
        noise = (rng.normal(size=agg.symbols.size)
                 + 1j * rng.normal(size=agg.symbols.size)) * np.sqrt(sigma2 / 2)
        noisy = SymbolStream(agg.symbols + noise, agg.symbol_rate_hz)
        for k, back in enumerate(_demux_all(noisy)):
            measured = np.mean(np.abs(back.symbols - streams[k].symbols) ** 2)
            assert measured == pytest.approx(_symbol_noise_variance(sigma2), rel=0.05)

    def test_aggregate_snr_helper_hits_target(self):
        streams = _qpsk_streams(100_000, seed=13)
        agg = mux(streams)
        target = 9.0
        noisy = channel.add_awgn(agg, aggregate_snr_db(target), (14,))
        back = demux_select(noisy, 2)
        nv = np.mean(np.abs(back.symbols - streams[2].symbols) ** 2)
        assert 10 * np.log10(1.0 / nv) == pytest.approx(target, abs=0.1)

    def test_per_subcarrier_16qam_ber_matches_single_carrier(self):
        """Monte-Carlo: 16QAM through mux/AWGN/demux performs as a plain
        AWGN channel at the calibrated subcarrier SNR, within 0.1 dB."""
        n_sym = 250_000
        rng = np.random.default_rng(15)
        bits = rng.integers(0, 2, size=4 * n_sym * 4).reshape(4, -1).astype(np.uint8)
        streams = [SymbolStream(map_payload_16qam(b), SUBCARRIER_BAUD) for b in bits]
        target = 12.0
        agg = mux(streams)
        noisy = channel.add_awgn(agg, aggregate_snr_db(target), (16,))
        errors = bits_total = 0
        for k, back in enumerate(_demux_all(noisy)):
            hard = demap_payload_16qam(back.symbols)
            errors += int(np.sum(hard != bits[k]))
            bits_total += bits[k].size
        ber = errors / bits_total
        lo = theory.ber_16qam(target + 0.1)
        hi = theory.ber_16qam(target - 0.1)
        assert lo < ber < hi


class TestFrequencyOffsetIntegration:
    def test_estimate_on_demuxed_training_then_correct_aggregate(self):
        """Offset recovery runs on one demuxed subcarrier's training, the
        correction applies to the aggregate before the real demux."""
        n_sym = 4096
        train = qpsk_training(n_sym, (21,))
        streams = [SymbolStream(train.copy(), SUBCARRIER_BAUD) for _ in range(4)]
        agg = mux(streams)
        offset = 180e6
        n = np.arange(agg.symbols.size)
        shifted = SymbolStream(
            agg.symbols * np.exp(2j * np.pi * offset * n / SAMPLE_RATE),
            SAMPLE_RATE)
        coarse = demux_select(shifted, 1)
        est = rxdsp.estimate_frequency_offset(coarse.symbols, train, SUBCARRIER_BAUD)
        assert est == pytest.approx(offset, abs=2e6)
        fixed = SymbolStream(
            rxdsp.correct_frequency_offset(shifted.symbols, est, SAMPLE_RATE),
            SAMPLE_RATE)
        back = demux_select(fixed, 1)
        assert _evm(back.symbols, train) < 2e-2


class TestValidation:
    def test_mux_rejects_wrong_stream_count(self):
        with pytest.raises(ValueError):
            mux(_qpsk_streams(256, count=3))

    def test_mux_rejects_length_mismatch(self):
        streams = _qpsk_streams(256)
        streams[2] = SymbolStream(streams[2].symbols[:-1], SUBCARRIER_BAUD)
        with pytest.raises(ValueError):
            mux(streams)

    def test_mux_rejects_wrong_symbol_rate(self):
        with pytest.raises(ValueError):
            mux(_qpsk_streams(256, baud=16e9))

    def test_demux_rejects_bad_index(self):
        agg = mux(_qpsk_streams(256))
        for bad in (-1, 4):
            with pytest.raises(ValueError):
                demux_select(agg, bad)

    def test_demux_rejects_wrong_sample_rate(self):
        agg = mux(_qpsk_streams(256))
        with pytest.raises(ValueError):
            demux_select(SymbolStream(agg.symbols, 32e9), 0)

    def test_demux_rejects_partial_symbol(self):
        agg = mux(_qpsk_streams(256))
        with pytest.raises(ValueError):
            demux_select(SymbolStream(agg.symbols[:-3], agg.symbol_rate_hz), 0)
