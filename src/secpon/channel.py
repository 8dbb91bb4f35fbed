"""Single-span channel model: Wiener laser phase noise, static frequency
offset, and additive white Gaussian noise at a configured per-symbol SNR.

SNR convention: ``snr_db`` is the measured mean signal power of the input
stream over the total complex noise power added per sample.  Noise is
sized from the measured input power, so the configured and measured SNR
agree by construction.

The rows of a 2-D stream share one draw, with each row's noise sized from
its own power, so each row comes out as a 1-D call on it would.

The phase rotation is built from one real cos and one sin
(``framing._expj``), and the scaled noise is written straight into the
real and imaginary parts of the output.  Both give the bits of the
complex exp and of the complex noise sum, in less time.

Every draw comes from the seed tree (``secpon.seeds``): each call takes
the stream path of its draws, master seed first, so a given config and
path reproduce bit-identical waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .framing import SymbolStream, _expj


@dataclass(frozen=True)
class ChannelConfig:
    """Impairment settings for one pass through the channel.

    snr_db of ``None`` disables additive noise.  linewidth_hz is the sum
    linewidth of transmit and LO lasers driving the Wiener phase walk.
    """

    snr_db: float | None = None
    linewidth_hz: float = 0.0
    freq_offset_hz: float = 0.0

    def __post_init__(self) -> None:
        if self.linewidth_hz < 0:
            raise ValueError(f"linewidth_hz must be >= 0, got {self.linewidth_hz}")


def phase_noise_walk(n: int, linewidth_hz: float, rate_hz: float,
                     path: tuple[int, ...]) -> np.ndarray:
    """Wiener phase trajectory with per-sample increment variance
    2*pi*linewidth/rate, starting at zero, drawn from
    ``seeds.stream(*path)``."""
    if linewidth_hz == 0.0:
        return np.zeros(n)
    sigma = np.sqrt(2.0 * np.pi * linewidth_hz / rate_hz)
    steps = seeds.stream(*path).normal(0.0, sigma, size=n)
    steps[0] = 0.0
    return np.cumsum(steps)


def add_awgn(stream: SymbolStream, snr_db: float, path: tuple[int, ...]) -> SymbolStream:
    """Add complex white Gaussian noise at snr_db below each row's measured
    power, drawn from ``seeds.stream(*path)``."""
    sig = stream.symbols
    noise_var = np.mean(np.abs(sig) ** 2, axis=-1, keepdims=True) * 10.0 ** (-snr_db / 10.0)
    return SymbolStream(_add_noise(seeds.stream(*path), sig, noise_var), stream.symbol_rate_hz)


def _add_noise(rng: np.random.Generator, sig: np.ndarray, noise_var) -> np.ndarray:
    """``sig`` plus complex noise of variance ``noise_var`` (or one per row), real parts first."""
    scale = np.sqrt(noise_var / 2.0)
    out = np.empty(sig.shape, dtype=complex)
    np.multiply(rng.normal(size=sig.shape[-1]), scale, out=out.real)
    np.multiply(rng.normal(size=sig.shape[-1]), scale, out=out.imag)
    out += sig
    return out


def apply_channel(stream: SymbolStream, cfg: ChannelConfig,
                  path: tuple[int, ...]) -> SymbolStream:
    """Run one stream, or a stack of rows, through phase noise, frequency
    offset, then AWGN; the two draws sit under ``path`` at ``seeds.PHASE``
    and ``seeds.AWGN``."""
    x = stream.symbols
    n = x.shape[-1]
    rate = stream.symbol_rate_hz
    theta = phase_noise_walk(n, cfg.linewidth_hz, rate, (*path, seeds.PHASE))
    if cfg.freq_offset_hz != 0.0:
        theta = theta + 2.0 * np.pi * cfg.freq_offset_hz * np.arange(n) / rate
    y = x * _expj(theta) if cfg.linewidth_hz or cfg.freq_offset_hz else x.copy()
    out = SymbolStream(y, rate)
    if cfg.snr_db is not None:
        out = add_awgn(out, cfg.snr_db, (*path, seeds.AWGN))
    return out
