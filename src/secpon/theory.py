"""Closed-form error-rate references for the pilot and payload channels.

The pilot-bit formulas are expressed in the noise-density convention of
their derivation: a one-dimensional four-level constellation observed in
Gaussian noise of variance N0/2, with ``d / sqrt(N0) = sqrt(snr / (2 (9 +
a^2)))``.  The simulator's channel defines SNR as measured per-symbol
signal power over total complex noise power, and its receiver projects
the two-dimensional diagonal pilot onto its signal axis.  Collecting both
quadratures instead of one doubles the effective SNR, and the total-vs-
per-quadrature noise accounting doubles it again, so the two conventions
differ by the fixed factor ``FORMULA_SNR_SCALE = 4``.  The factor was
pinned once by Monte-Carlo calibration and is validated to 0.05 dex by
the acceptance suite.
"""

from __future__ import annotations

import numpy as np

# Pre-FEC BER benchmark for ~20% overhead soft-decision FEC.
SD_FEC_LIMIT = 2.4e-2

# Per-subcarrier channel SNR (dB) at which the 16QAM reference crosses
# SD_FEC_LIMIT, to 4 decimals: the default operating point of the FEC and
# session experiments.  It is round(snr_at_ber_16qam(SD_FEC_LIMIT), 4),
# pinned so that no run pays for the root search or its scipy import; a
# test recomputes it.
OP_SNR_DB = 12.3434

# Measured channel SNR times this factor gives the SNR argument of the
# pilot-bit formulas (see module docstring).
FORMULA_SNR_SCALE = 4.0


def erfc(x):
    """Complementary error function (2/sqrt(pi)) * integral of exp(-z^2).

    ``scipy.special`` is imported here, on first use, so that the
    experiments that take no closed-form curve never load it."""
    import scipy.special
    return scipy.special.erfc(x)


def d_over_sqrt_n0(snr: float, a: float):
    """Normalized distance-to-noise ratio of the shaped pilot.

    ``snr`` is linear and already in the formula convention.
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.asarray(snr, dtype=float) / (2.0 * (9.0 + a * a)))


def channel_snr_to_formula_snr(snr_db):
    """Convert measured per-symbol channel SNR (dB) to the formula SNR (linear)."""
    return FORMULA_SNR_SCALE * 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def ber_pilot_first_bit(snr_db, a: float):
    """Phase-steering (sign) bit error rate of the shaped pilot at measured
    channel SNR (dB), through the fixed convention bridge."""
    u = d_over_sqrt_n0(channel_snr_to_formula_snr(snr_db), a)
    return 0.25 * (erfc(a * u) + erfc(3.0 * u))


def ber_pilot_second_bit(snr_db, a: float):
    """Key-carrying (magnitude) bit error rate of the shaped pilot at
    measured channel SNR (dB)."""
    u = d_over_sqrt_n0(channel_snr_to_formula_snr(snr_db), a)
    return 0.25 * (2.0 * erfc(0.5 * (3.0 - a) * u)
                   + erfc(0.5 * (3.0 + 3.0 * a) * u)
                   - erfc(0.5 * (9.0 + a) * u))


def ber_16qam(snr_db):
    """Gray 16QAM bit error rate at measured per-symbol channel SNR (dB)."""
    g = np.sqrt(10.0 ** (np.asarray(snr_db, dtype=float) / 10.0) / 10.0)
    return (3.0 / 8.0) * erfc(g) + 0.25 * erfc(3.0 * g) - (1.0 / 8.0) * erfc(5.0 * g)


def snr_at_ber_16qam(target_ber: float) -> float:
    """Channel SNR (dB) at which the 16QAM reference curve crosses
    target_ber, searched between 0 and 25 dB."""
    from scipy.optimize import brentq
    if not 0.0 < target_ber < 0.5:
        raise ValueError(f"target_ber must be in (0, 0.5), got {target_ber}")
    return float(brentq(lambda s: ber_16qam(s) - target_ber, 0.0, 25.0))
