"""Channel model tests with sample-statistics oracles."""

import numpy as np
import pytest

from secpon import channel, seeds
from secpon.channel import ChannelConfig, apply_channel, phase_noise_walk
from secpon.framing import SymbolStream


def _unit_qpsk(n, seed=1):
    rng = np.random.default_rng(seed)
    return SymbolStream(np.exp(1j * rng.integers(0, 4, n) * np.pi / 2), 8e9)


class TestAwgn:
    def test_measured_snr_matches_configured(self):
        """Output SNR estimated from sample statistics hits the config value."""
        n = 1_000_000
        tx = _unit_qpsk(n)
        for snr_db in (5.0, 12.0):
            rx = apply_channel(tx, ChannelConfig(snr_db=snr_db), (42,))
            noise = rx.symbols - tx.symbols
            power = np.mean(np.abs(tx.symbols) ** 2)
            measured = 10 * np.log10(power / np.mean(np.abs(noise) ** 2))
            assert measured == pytest.approx(snr_db, abs=0.05)

    def test_noiseless_config_is_identity(self):
        tx = _unit_qpsk(1000)
        rx = apply_channel(tx, ChannelConfig(), (3,))
        assert np.array_equal(rx.symbols, tx.symbols)
        assert rx.symbols is not tx.symbols

    def test_deterministic_per_seed(self):
        tx = _unit_qpsk(5000)
        cfg = ChannelConfig(snr_db=10.0, linewidth_hz=1e5)
        a = apply_channel(tx, cfg, (7, 1))
        b = apply_channel(tx, cfg, (7, 1))
        assert np.array_equal(a.symbols, b.symbols)
        for path in ((8, 1), (7, 2), (7, 1, 0)):
            c = apply_channel(tx, cfg, path)
            assert not np.any(a.symbols == c.symbols)


class TestStackedRows:
    @pytest.mark.parametrize("snr_db", [None, 12.0])
    @pytest.mark.parametrize("linewidth_hz", [0.0, 1e6])
    @pytest.mark.parametrize("offset_hz", [0.0, 100e6])
    def test_rows_match_one_dimensional_calls(self, snr_db, linewidth_hz, offset_hz):
        """One draw on a stack of rows with different powers gives each row
        exactly what a call on that row alone gives."""
        rows = np.stack([_unit_qpsk(3000, seed=s).symbols * gain
                         for s, gain in ((1, 1.0), (2, 0.3), (3, 2.5))])
        cfg = ChannelConfig(snr_db=snr_db, linewidth_hz=linewidth_hz,
                            freq_offset_hz=offset_hz)
        stacked = apply_channel(SymbolStream(rows, 8e9), cfg, (17,)).symbols
        assert stacked.shape == rows.shape
        for row, got in zip(rows, stacked):
            assert np.array_equal(got, apply_channel(SymbolStream(row, 8e9), cfg, (17,)).symbols)


def _old_channel(stream, cfg, path):
    """``apply_channel`` as first written: the rotation as a complex exp,
    the noise as a complex sum scaled after the draw."""
    x, rate = stream.symbols, stream.symbol_rate_hz
    n = x.shape[-1]
    theta = phase_noise_walk(n, cfg.linewidth_hz, rate, (*path, seeds.PHASE))
    if cfg.freq_offset_hz != 0.0:
        theta = theta + 2.0 * np.pi * cfg.freq_offset_hz * np.arange(n) / rate
    y = x * np.exp(1j * theta)
    if cfg.snr_db is None:
        return y
    noise_var = np.mean(np.abs(y) ** 2, axis=-1, keepdims=True) * 10.0 ** (-cfg.snr_db / 10.0)
    rng = seeds.stream(*path, seeds.AWGN)
    noise = rng.normal(size=n) + 1j * rng.normal(size=n)
    return y + noise * np.sqrt(noise_var / 2.0)


class TestMatchesOldExpressions:
    """The cos/sin rotation and the noise written straight into its real
    and imaginary parts give the old expressions' bits."""

    @pytest.mark.parametrize("n, rate", [(74680, 64e9), (75192, 64e9), (9335, 8e9)])
    @pytest.mark.parametrize("linewidth_hz, offset_hz",
                             [(1e5, 0.0), (1e7, 0.0), (0.0, 1.3e9), (1e6, -0.7e9)],
                             ids=["100kHz", "10MHz", "offset", "both"])
    @pytest.mark.parametrize("snr_db", [None, 11.0])
    def test_bit_for_bit(self, n, rate, linewidth_hz, offset_hz, snr_db):
        """Offsets of about a gigahertz wind the phase through thousands of
        radians; rows of different power share one draw."""
        rng = np.random.default_rng(n)
        one = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cfg = ChannelConfig(snr_db=snr_db, linewidth_hz=linewidth_hz,
                            freq_offset_hz=offset_hz)
        for x in (one, np.stack([one, 0.25 * one[::-1]])):
            got = apply_channel(SymbolStream(x, rate), cfg, (5, 2)).symbols
            want = _old_channel(SymbolStream(x, rate), cfg, (5, 2))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [1, 7, 100_000])
    @pytest.mark.parametrize("sigma2", [10 ** -1.23434, 0.05, 2.0])
    def test_noise_kernel_is_the_old_cell_noise(self, n, sigma2):
        """The shared noise kernel gives the bits of the expression the
        sweep-a, LDPC and polar cells used to add their noise with."""
        tx = np.random.default_rng(n).standard_normal(n) * (1 + 1j)
        old_rng, new_rng = seeds.stream(9, n), seeds.stream(9, n)
        noise = old_rng.normal(scale=np.sqrt(sigma2 / 2), size=(2, tx.size))
        want = tx + noise[0] + 1j * noise[1]
        got = channel._add_noise(new_rng, tx, sigma2)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert old_rng.random() == new_rng.random()     # the same number of draws


class TestPhaseNoise:
    def test_increment_variance(self):
        """Wiener increments carry variance 2*pi*linewidth/rate."""
        lw, rate, n = 1e6, 8e9, 2_000_000
        theta = phase_noise_walk(n, lw, rate, (11,))
        var = np.var(np.diff(theta))
        assert var == pytest.approx(2 * np.pi * lw / rate, rel=0.01)

    def test_zero_linewidth_zero_walk(self):
        assert np.all(phase_noise_walk(100, 0.0, 8e9, (1,)) == 0)

    def test_negative_linewidth_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(linewidth_hz=-1.0)

    def test_phase_only_preserves_magnitude(self):
        tx = _unit_qpsk(4000)
        rx = apply_channel(tx, ChannelConfig(linewidth_hz=5e5), (2,))
        assert np.allclose(np.abs(rx.symbols), 1.0)


class TestFrequencyOffset:
    def test_pure_offset_is_linear_phase_ramp(self):
        n, rate, df = 4096, 8e9, 25e6
        tx = SymbolStream(np.ones(n, complex), rate)
        rx = apply_channel(tx, ChannelConfig(freq_offset_hz=df), (5,))
        ph = np.unwrap(np.angle(rx.symbols))
        slope = np.polyfit(np.arange(n), ph, 1)[0]
        assert slope == pytest.approx(2 * np.pi * df / rate, rel=1e-9)


# the session runner's paths for frame 0 of master seed 21
LEGIT = (21, seeds.DS_CHANNEL, 0)
TAP = (21, seeds.TAP_CHANNEL, 0)


class TestEavesdropperTap:
    def test_independent_but_identically_configured(self):
        tx = _unit_qpsk(200_000)
        cfg = ChannelConfig(snr_db=9.0)
        a = apply_channel(tx, cfg, LEGIT)
        b = apply_channel(tx, cfg, TAP)
        na, nb = a.symbols - tx.symbols, b.symbols - tx.symbols
        rho = np.abs(np.vdot(na, nb)) / (np.linalg.norm(na) * np.linalg.norm(nb))
        assert rho < 0.01
        assert np.mean(np.abs(nb) ** 2) == pytest.approx(np.mean(np.abs(na) ** 2), rel=0.02)

    def test_tap_phase_walk_independent(self):
        wa = phase_noise_walk(50_000, 2e5, 8e9, (*LEGIT, seeds.PHASE))
        wb = phase_noise_walk(50_000, 2e5, 8e9, (*TAP, seeds.PHASE))
        # increments (not the walks themselves) are white, so their sample
        # correlation is a sound independence probe
        da, db = np.diff(wa), np.diff(wb)
        rho = np.dot(da, db) / (np.linalg.norm(da) * np.linalg.norm(db))
        assert abs(rho) < 0.02
