"""Single-span channel model: Wiener laser phase noise, static frequency
offset, and additive white Gaussian noise at a configured per-symbol SNR.

SNR convention: ``snr_db`` is the measured mean signal power of the input
stream over the total complex noise power added per sample.  Noise is
sized from the measured input power, so the configured and measured SNR
agree by construction.

The rows of a 2-D stream share one draw, with each row's noise sized from
its own power, so each row comes out as a 1-D call on it would.

All randomness is drawn from counter-based Philox generators keyed by the
config seed, so a given config reproduces bit-identical waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .framing import SymbolStream

_PHASE_STREAM = 0x50484153   # distinct child keys for the two noise sources
_AWGN_STREAM = 0x4e4f495345
_EAVESDROP_KEY = 0x45564553


@dataclass(frozen=True)
class ChannelConfig:
    """Impairment settings for one pass through the channel.

    snr_db of ``None`` disables additive noise.  linewidth_hz is the sum
    linewidth of transmit and LO lasers driving the Wiener phase walk.
    """

    snr_db: float | None = None
    linewidth_hz: float = 0.0
    freq_offset_hz: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.linewidth_hz < 0:
            raise ValueError(f"linewidth_hz must be >= 0, got {self.linewidth_hz}")


def _rng(seed: int, *ids: int) -> np.random.Generator:
    """Philox generator keyed by the seed and the ids folded into one word."""
    sub = 0
    for x in ids:
        sub = (sub * 1000003 + x) & (2 ** 64 - 1)
    return np.random.Generator(np.random.Philox(key=np.uint64([seed & (2 ** 64 - 1), sub])))


def phase_noise_walk(n: int, linewidth_hz: float, rate_hz: float, seed: int) -> np.ndarray:
    """Wiener phase trajectory with per-sample increment variance
    2*pi*linewidth/rate, starting at zero."""
    if linewidth_hz == 0.0:
        return np.zeros(n)
    sigma = np.sqrt(2.0 * np.pi * linewidth_hz / rate_hz)
    steps = _rng(seed, _PHASE_STREAM).normal(0.0, sigma, size=n)
    steps[0] = 0.0
    return np.cumsum(steps)


def add_awgn(stream: SymbolStream, snr_db: float, seed: int) -> SymbolStream:
    """Add complex white Gaussian noise at snr_db below each row's measured
    power."""
    sig = stream.symbols
    noise_var = np.mean(np.abs(sig) ** 2, axis=-1, keepdims=True) * 10.0 ** (-snr_db / 10.0)
    n = sig.shape[-1]
    rng = _rng(seed, _AWGN_STREAM)
    noise = rng.normal(size=n) + 1j * rng.normal(size=n)
    return SymbolStream(sig + noise * np.sqrt(noise_var / 2.0), stream.symbol_rate_hz)


def apply_channel(stream: SymbolStream, cfg: ChannelConfig) -> SymbolStream:
    """Run one stream, or a stack of rows, through phase noise, frequency
    offset, then AWGN."""
    x = stream.symbols
    n = x.shape[-1]
    rate = stream.symbol_rate_hz
    theta = phase_noise_walk(n, cfg.linewidth_hz, rate, cfg.seed)
    if cfg.freq_offset_hz != 0.0:
        theta = theta + 2.0 * np.pi * cfg.freq_offset_hz * np.arange(n) / rate
    y = x * np.exp(1j * theta) if cfg.linewidth_hz or cfg.freq_offset_hz else x.copy()
    out = SymbolStream(y, rate)
    if cfg.snr_db is not None:
        out = add_awgn(out, cfg.snr_db, cfg.seed)
    return out


def eavesdropper_config(cfg: ChannelConfig) -> ChannelConfig:
    """Config for the tapped copy: identical statistics, independent noise."""
    return replace(cfg, seed=(cfg.seed ^ _EAVESDROP_KEY) + 1)
