"""Digital subcarrier multiplexing: root-raised-cosine shaping, frequency
shifting, aggregation, and receiver-side subcarrier selection.

The subcarrier grid is fixed, as in the paper, by the module constants
below; ``mux`` and ``demux_select`` check every stream against it.

Everything happens on the spectrum of the whole burst.  ``mux`` takes the
m-point FFT of each lit subcarrier's m symbols; upsampling by sps repeats
that spectrum sps times, so bin b of the shaped subcarrier is
``X[b % m] * h[b]``.  Each subcarrier's root-raised-cosine band is
written around its center bin of one n-point aggregate spectrum
(n = m * sps), and a single inverse FFT gives the waveform.  Dark
(all-zero) subcarriers are skipped.

``demux_select`` reads the band around the subcarrier's center bin from
the aggregate's spectrum and applies the matched filter ``h``.  Keeping
every sps-th sample of the filtered signal aliases its spectrum onto m
bins, so folding the band modulo m and taking one m-point inverse FFT
gives the decimated symbols exactly.  The aggregate's forward FFT is
``SymbolStream.spectrum``, computed once per stream, so every subcarrier
selected from one received aggregate shares it.

Every transform goes through ``framing._dft``.  The frame and burst
lengths each have one large prime factor: 9335 = 5 * 1867 and 74 680 =
40 * 1867 upstream, 9399 = 3 * 3133 and 75 192 = 24 * 3133 downstream.
pocketfft alone would run the upstream aggregate through Bluestein's
algorithm and the downstream one through a radix-241 pass over the whole
burst.  ``_dft`` splits each length into its {2,3,5,7,11}-smooth part n1
and the rest n2 (Cooley-Tukey): n2 batched n1-point transforms, one
multiply by a cached twiddle table and n1 batched n2-point transforms.
That is about twice as fast on an aggregate and agrees with an unsplit
transform to about 1e-15 relative; smooth and prime lengths go to
``numpy.fft`` unchanged.  numpy and scipy share pocketfft, so the bits
are those ``scipy.fft`` gives, and importing this module loads no scipy.

Shaping on the spectrum rather than with a truncated filter keeps the
transmit/receive cascade Nyquist to machine precision, so a noiseless
mux/demux roundtrip returns the symbols exactly.  Subcarrier center
frequencies snap to the burst's frequency grid (within half a bin, well
under a megahertz here), which keeps the shifts circular.  At some burst
lengths, including both frame lengths, the snapped bands of adjacent
subcarriers share their outermost bin; the crosstalk through it is tiny
(about -170 dB at the downstream frame length) but not zero.
"""

from __future__ import annotations

import functools

import numpy as np

from .framing import SymbolStream, _dft

N_SUBCARRIERS = 4
SUBCARRIER_BAUD = 8e9
SUBCARRIER_SPACING = 8.8e9
RRC_ROLLOFF = 0.1
# aggregate runs at twice the total symbol rate: with four subcarriers
# that is eight samples per subcarrier symbol
SAMPLES_PER_SYMBOL = 8
SAMPLE_RATE = SUBCARRIER_BAUD * SAMPLES_PER_SYMBOL
# centers on the spacing grid, symmetric about zero
CENTER_FREQUENCIES = tuple((k - (N_SUBCARRIERS - 1) / 2) * SUBCARRIER_SPACING
                           for k in range(N_SUBCARRIERS))


@functools.lru_cache(maxsize=16)
def _rrc_band(n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Root-raised-cosine band on the burst's frequency grid.

    Returns the signed bin indices, ascending, where the response is
    nonzero, and its magnitude there.  The squared response tiles to one
    under baud-rate aliasing, which is what makes the folded (decimated)
    matched-filter output exact.  Both arrays are shared and read-only.
    """
    # bin width as np.fft.fftfreq computes it, so the magnitudes match its grid
    df = 1.0 / (n_samples * (1.0 / SAMPLE_RATE))
    b, a = SUBCARRIER_BAUD, RRC_ROLLOFF
    lo, hi = (1 - a) * b / 2, (1 + a) * b / 2
    edge = int(hi / df) + 1
    bins = np.arange(-edge, edge + 1)
    f = np.abs(bins) * df
    bins, f = bins[f < hi], f[f < hi]
    h2 = np.where(f <= lo, 1.0, 0.5 * (1 + np.cos(np.pi * (f - lo) / (a * b))))
    mag = np.sqrt(h2)
    bins.flags.writeable = mag.flags.writeable = False
    return bins, mag


def _center_bin(sc_index: int, n_samples: int) -> int:
    bin_hz = SAMPLE_RATE / n_samples
    return int(round(CENTER_FREQUENCIES[sc_index] / bin_hz))


def mux(subcarrier_streams: list[SymbolStream]) -> SymbolStream:
    """Shape, shift and sum the subcarriers into one waveform."""
    if len(subcarrier_streams) != N_SUBCARRIERS:
        raise ValueError(f"expected {N_SUBCARRIERS} streams, got {len(subcarrier_streams)}")
    n_sym = subcarrier_streams[0].symbols.size
    for s in subcarrier_streams:
        if s.symbols.size != n_sym:
            raise ValueError("subcarrier streams must share one length")
        if abs(s.symbol_rate_hz - SUBCARRIER_BAUD) > 1e-3:
            raise ValueError("stream symbol rate differs from the subcarrier baud")
    n = n_sym * SAMPLES_PER_SYMBOL
    band, mag = _rrc_band(n)
    spectrum = np.zeros(n, dtype=complex)
    for k, s in enumerate(subcarrier_streams):
        if not s.symbols.any():
            continue            # a dark subcarrier adds exactly nothing
        # the upsampled symbols' spectrum is theirs repeated sps times
        shaped = _dft(s.symbols)[band % n_sym] * mag
        spectrum[(band + _center_bin(k, n)) % n] += shaped
    return SymbolStream(symbols=_dft(spectrum, inverse=True), symbol_rate_hz=SAMPLE_RATE)


def demux_select(samples: SymbolStream, sc_index: int) -> SymbolStream:
    """Down-convert one subcarrier, matched-filter, decimate to symbols."""
    if not 0 <= sc_index < N_SUBCARRIERS:
        raise ValueError(f"subcarrier index {sc_index} out of range")
    n = samples.symbols.size
    if n % SAMPLES_PER_SYMBOL:
        raise ValueError("sample count is not a whole number of symbols")
    if abs(samples.symbol_rate_hz - SAMPLE_RATE) > 1e-3:
        raise ValueError("sample rate differs from the aggregate's")
    n_sym = n // SAMPLES_PER_SYMBOL
    band, mag = _rrc_band(n)
    filtered = samples.spectrum[(band + _center_bin(sc_index, n)) % n] * mag
    # keeping every sps-th sample aliases the spectrum onto n_sym bins
    fold = band % n_sym
    folded = (np.bincount(fold, filtered.real, n_sym)
              + 1j * np.bincount(fold, filtered.imag, n_sym))
    return SymbolStream(symbols=_dft(folded, inverse=True), symbol_rate_hz=SUBCARRIER_BAUD)


def aggregate_snr_db(snr_sc_db: float) -> float:
    """Aggregate-waveform SNR that yields the target post-demux SNR on
    every subcarrier.

    Assumes every subcarrier carries streams of unit mean symbol power.
    Useful for driving a channel whose noise level is set against the
    measured aggregate power.
    """
    sps = SAMPLES_PER_SYMBOL
    agg_power = N_SUBCARRIERS / sps ** 2
    noise_var = 1 / (sps * 10 ** (snr_sc_db / 10))
    return 10 * np.log10(agg_power / noise_var)
