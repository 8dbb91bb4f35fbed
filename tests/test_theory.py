"""Closed-form curve tests backed by independent oracles.

The erfc oracle is adaptive quadrature on the defining integral; the BER
oracles are direct Monte-Carlo runs of mapper + AWGN + demapper.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from secpon import theory
from secpon.framing import (
    GcsPilotParams,
    demap_payload_16qam,
    demap_pilot,
    map_payload_16qam,
    map_pilot,
)


def _erfc_quadrature(x: float) -> float:
    # the integrand is below 1e-300 past x + 27, so a finite cut is exact
    val, _ = quad(lambda z: 2.0 / np.sqrt(np.pi) * np.exp(-z * z), x, x + 30.0,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return val


class TestErfc:
    def test_against_quadrature(self):
        for x in [-2.0, -0.5, 0.0, 0.3, 1.0, 2.5, 4.0]:
            assert theory.erfc(x) == pytest.approx(_erfc_quadrature(x), rel=1e-12, abs=1e-300)

    def test_known_value(self):
        assert theory.erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-12)


class TestDistanceMapping:
    def test_unit_points(self):
        # snr equal to 2*(9+a^2) normalizes the ratio to one
        for a in (1.0, 1.7, 3.0):
            assert theory.d_over_sqrt_n0(2 * (9 + a * a), a) == pytest.approx(1.0)
        assert theory.d_over_sqrt_n0(36.0, 3.0) == pytest.approx(1.0)

    def test_convention_bridge_is_6dB(self):
        lin = theory.channel_snr_to_formula_snr(10.0)
        assert lin == pytest.approx(40.0)


def _mc_pilot_ber(a: float, snr_db: float, n: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo oracle: map pilot bits, add channel-convention AWGN, demap."""
    rng = np.random.default_rng(seed)
    p = GcsPilotParams(a=a)
    b1 = rng.integers(0, 2, n).astype(np.uint8)
    b2 = rng.integers(0, 2, n).astype(np.uint8)
    noise_var = 10 ** (-snr_db / 10)  # unit signal power
    y = map_pilot(b1, b2, p) + (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.sqrt(noise_var / 2)
    r1, r2 = demap_pilot(y, p)
    return float(np.mean(r1 != b1)), float(np.mean(r2 != b2))


class TestPilotBerCurves:
    @pytest.mark.parametrize("a,snr_db", [(1.0, 8.0), (1.7, 8.0), (1.7, 11.0), (2.5, 9.0)])
    def test_monte_carlo_calibration(self, a, snr_db):
        """Formulas evaluated through the convention bridge match simulation."""
        n = 2_000_000
        mc1, mc2 = _mc_pilot_ber(a, snr_db, n, seed=hash((a, snr_db)) % 2**32)
        th1 = theory.ber_pilot_first_bit(snr_db, a)
        th2 = theory.ber_pilot_second_bit(snr_db, a)
        assert abs(np.log10(mc1 / th1)) < 0.05
        assert abs(np.log10(mc2 / th2)) < 0.05

    def test_second_bit_degenerates_at_bpsk(self):
        # at a = 3 the magnitude bit carries nothing and the formula says 1/2
        assert theory.ber_pilot_second_bit(20.0, 3.0) == pytest.approx(0.5, abs=1e-6)

    def test_first_bit_improves_with_a(self):
        # moving inner points outward can only help the sign decision
        snr = 8.0
        bers = [theory.ber_pilot_first_bit(snr, a) for a in (0.5, 1.0, 1.7, 2.4, 3.0)]
        assert np.all(np.diff(bers) < 0)

    def test_second_bit_tradeoff_direction(self):
        # shrinking the inner-outer gap hurts the magnitude decision
        snr = 10.0
        bers = [theory.ber_pilot_second_bit(snr, a) for a in (1.0, 1.5, 2.0, 2.5, 2.9)]
        assert np.all(np.diff(bers) > 0)


class TestQam16Reference:
    def test_against_monte_carlo(self):
        rng = np.random.default_rng(23)
        snr_db = 12.0
        n = 1_000_000
        bits = rng.integers(0, 2, 4 * n).astype(np.uint8)
        noise_var = 10 ** (-snr_db / 10)
        y = map_payload_16qam(bits) + (
            rng.normal(size=n) + 1j * rng.normal(size=n)
        ) * np.sqrt(noise_var / 2)
        mc = np.mean(demap_payload_16qam(y) != bits)
        assert abs(np.log10(mc / theory.ber_16qam(snr_db))) < 0.05

    def test_sd_fec_crossing(self):
        snr = theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT)
        assert theory.ber_16qam(snr) == pytest.approx(theory.SD_FEC_LIMIT, rel=1e-9)
        assert 12.0 < snr < 12.7

    def test_pinned_operating_snr_is_the_sd_fec_crossing(self):
        """OP_SNR_DB is pinned so that no run imports the root search; the
        search (``brentq``) still gives it to 4 decimals."""
        assert theory.OP_SNR_DB == round(theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT), 4)

    def test_rejects_silly_target(self):
        with pytest.raises(ValueError):
            theory.snr_at_ber_16qam(0.7)
