"""Symbol mapping and frame composition for the coherent PON link.

A frame starts with a known QPSK training prefix, followed by the frame
body: a four-point diagonal pilot inserted at the head of every
``PILOT_SPACING``-symbol block, the rest of each block being Gray-coded
16QAM payload.  The pilot constellation is geometrically shaped: its four
points sit at ``{-3d, -a*d, +a*d, +3d} * (1+1j)`` so that the first
(sign) bit steers carrier-phase recovery while the second (magnitude)
bit carries protected key material.

``SymbolStream`` is the sample type every stage passes on.  Two private
kernels live next to it: ``_dft``, the one transform of the DSCM path
(``SymbolStream.spectrum`` and ``secpon.dscm``), and ``_expj``, the one
``exp(+-1j * angle)`` of the channel and the residual CPR stage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import seeds
from .fec_ldpc import LDPC_K, LDPC_N

PAYLOAD_SYMBOLS_PER_FRAME = 8640
UPSTREAM_TRAINING_SYMBOLS = 416
DOWNSTREAM_TRAINING_SYMBOLS = 480
PILOT_SPACING = 32          # one pilot heads every 32-symbol block of the body
LINE_RATE_GBPS = 256.0      # gross aggregate rate clocked through the frame
LDPC_CODE_RATE = LDPC_K / LDPC_N
# Total noise power per symbol the pilot LLRs assume: their one reader, the
# polar list decoder, is homogeneous of degree one in its LLRs (on AWGN at
# a = 1.7, values from 1e-3 to 0.2 give the same polar block errors).
_PILOT_NOISE_VAR = 0.05

# Gray labels of four amplitude levels in ascending order: the high bit
# flips with the sign, the low bit with the magnitude.
_PAM4_GRAY = np.array([0b00, 0b01, 0b11, 0b10], dtype=np.uint8)
_PAM4_GRAY_INV = np.argsort(_PAM4_GRAY).astype(np.uint8)   # label -> level index
_PAM4_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])
_QAM16_SCALE = 1.0 / np.sqrt(10.0)                          # unit mean symbol energy
_QAM16_AXIS_LEVELS = _PAM4_LEVELS * _QAM16_SCALE

# 16QAM tables, each read with one gather.  A symbol's slicer index is
# (I level index << 2) | Q level index; its label is its four bits
# (I-high, I-low, Q-high, Q-low) read as one big-endian nibble.
_QAM16_INDEX = np.arange(16)
_QAM16_POINTS = (_PAM4_LEVELS[_QAM16_INDEX >> 2]
                 + 1j * _PAM4_LEVELS[_QAM16_INDEX & 3]) * _QAM16_SCALE
_QAM16_LABEL = (_PAM4_GRAY[_QAM16_INDEX >> 2] << 2) | _PAM4_GRAY[_QAM16_INDEX & 3]
# index -> its four label bits, one byte each, packed into one word
_QAM16_BITS = np.ascontiguousarray(
    np.unpackbits(_QAM16_LABEL[:, None], axis=1)[:, 4:]).view("<u4")[:, 0]
_QAM16_LABEL_POINTS = _QAM16_POINTS[np.argsort(_QAM16_LABEL)]      # label -> point


@dataclass(frozen=True)
class GcsPilotParams:
    """Shaping parameter of the diagonal pilot constellation.

    ``a`` is the inner-point amplitude in units of ``d``; ``a = 1`` gives a
    uniform PAM4 pilot and ``a = 3`` collapses it to BPSK.  ``d`` is fixed
    by normalizing the mean pilot energy to the unit-energy payload.
    """

    a: float = 1.7

    def __post_init__(self) -> None:
        if not 0.0 < self.a <= 3.0:
            raise ValueError(f"shaping parameter a must lie in (0, 3], got {self.a}")

    @property
    def d(self) -> float:
        """Base spacing: 1/sqrt(9 + a^2), making E|pilot|^2 = 1."""
        return 1.0 / np.sqrt(9.0 + self.a * self.a)

    @property
    def decision_threshold(self) -> float:
        """Magnitude-bit threshold (3 + a)/2 in units of ``d`` on the diagonal."""
        return 0.5 * (3.0 + self.a)

    def amplitudes(self) -> np.ndarray:
        """Diagonal amplitudes in ascending order, one per Gray label."""
        return np.array([-3.0, -self.a, self.a, 3.0]) * self.d

    def points(self) -> np.ndarray:
        """Complex pilot constellation in ascending-amplitude order."""
        return self.amplitudes() * (1.0 + 1.0j)


@dataclass(frozen=True)
class FrameLayout:
    """Counts and positions of the three symbol classes inside one frame."""

    training_len: int
    payload_len: int = PAYLOAD_SYMBOLS_PER_FRAME
    pilot_spacing: int = PILOT_SPACING

    def __post_init__(self) -> None:
        if self.training_len < 0:
            raise ValueError(f"training_len must be >= 0, got {self.training_len}")
        if self.payload_len < 1:
            raise ValueError(f"payload_len must be >= 1, got {self.payload_len}")
        if self.pilot_spacing < 2:
            raise ValueError(f"pilot_spacing must be >= 2, got {self.pilot_spacing}")

    @property
    def n_pilots(self) -> int:
        """One pilot per started block of (spacing - 1) payload symbols."""
        return -(-self.payload_len // (self.pilot_spacing - 1))

    @property
    def body_len(self) -> int:
        return self.payload_len + self.n_pilots

    @property
    def total_len(self) -> int:
        return self.training_len + self.body_len

    def pilot_body_positions(self) -> np.ndarray:
        """Indices of pilots inside the frame body (training excluded);
        read-only, shared by every caller with an equal layout."""
        return _body_positions(self)[0]

    def payload_body_positions(self) -> np.ndarray:
        """Indices of payload symbols inside the frame body; read-only,
        shared by every caller with an equal layout."""
        return _body_positions(self)[1]


@functools.lru_cache
def _body_positions(layout: FrameLayout) -> tuple[np.ndarray, np.ndarray]:
    """Pilot and payload positions inside a layout's body, computed once."""
    pilots = np.arange(layout.n_pilots) * layout.pilot_spacing
    mask = np.ones(layout.body_len, dtype=bool)
    mask[pilots] = False
    payload = np.nonzero(mask)[0]
    pilots.flags.writeable = False
    payload.flags.writeable = False
    return pilots, payload


def upstream_layout() -> FrameLayout:
    return FrameLayout(training_len=UPSTREAM_TRAINING_SYMBOLS)


def downstream_layout() -> FrameLayout:
    return FrameLayout(training_len=DOWNSTREAM_TRAINING_SYMBOLS)


# pocketfft's own radices: a length with no other prime factor needs no split
_FFT_RADICES = (2, 3, 5, 7, 11)


def _smooth_split(n: int) -> tuple[int, int]:
    """n as n1 * n2, with n1 its {2,3,5,7,11}-smooth part."""
    n1 = 1
    for p in _FFT_RADICES:
        while n and n % (n1 * p) == 0:
            n1 *= p
    return n1, n // n1


@functools.lru_cache(maxsize=16)
def _twiddles(n1: int, n2: int, inverse: bool) -> np.ndarray:
    """``exp(-2*pi*i * a*b / n)`` over a < n1, b < n2, or its conjugate
    for the inverse (read-only, shared by every caller)."""
    n = n1 * n2
    ab = np.arange(n1)[:, None] * np.arange(n2)
    table = np.exp((2j if inverse else -2j) * np.pi * ab / n)
    table.flags.writeable = False
    return table


def _dft(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``numpy.fft.fft`` (or ``ifft``) along the last axis, with a length
    that has a large prime factor split in two.

    pocketfft runs a whole burst through Bluestein's algorithm (74 680 =
    40 * 1867) or one long odd radix (75 192 = 24 * 3133 has a radix-241
    pass).  Cooley-Tukey on n = n1 * n2, with n1 the smooth part, instead
    takes n2 batched n1-point transforms, one twiddle multiply and n1
    batched n2-point transforms: the same transform to ~1e-15 relative,
    about twice as fast at the aggregate lengths.  Lengths that are smooth
    or prime go to numpy unchanged.  numpy and scipy share pocketfft, and
    ``scipy.fft`` gives the same bits on every transform this takes.
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    n1, n2 = _smooth_split(x.shape[-1])
    if n1 == 1 or n2 == 1:
        return transform(x)
    # x[..., a*n2 + b] -> X[..., k1 + n1*k2]
    y = transform(x.reshape(*x.shape[:-1], n1, n2), axis=-2)
    y *= _twiddles(n1, n2, inverse)
    y = transform(y, axis=-1)
    return y.swapaxes(-1, -2).reshape(x.shape)


def _expj(angle: np.ndarray, sign: int = 1) -> np.ndarray:
    """``np.exp(sign * 1j * angle)`` bit for bit, for sign +1 or -1, from
    one real cos and one sin, which is faster than the complex exp."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle if sign > 0 else -angle, out=out.imag)
    return out


@dataclass(frozen=True)
class SymbolStream:
    """Complex baseband samples tagged with their symbol (or sample) rate.

    A stream is a value: build a new one rather than writing into
    ``symbols``, since ``spectrum`` is computed once and then kept.
    """

    symbols: np.ndarray
    symbol_rate_hz: float

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """FFT of the samples (read-only), shared by every reader."""
        spec = _dft(self.symbols)
        spec.flags.writeable = False
        return spec


def _bits_to_level_idx(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    return _PAM4_GRAY_INV[(hi.astype(np.uint8) << 1) | lo.astype(np.uint8)]


def map_payload_16qam(bits: np.ndarray) -> np.ndarray:
    """Map bits (len divisible by 4) onto unit-energy Gray 16QAM.

    Bit order per symbol is (I-high, I-low, Q-high, Q-low); each axis uses
    the Gray ruler 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3.
    """
    bits = np.asarray(bits)
    if bits.size % 4:
        raise ValueError(f"payload bit count must be a multiple of 4, got {bits.size}")
    packed = np.packbits(bits.astype(np.uint8, copy=False))   # two labels per byte
    labels = np.stack([packed >> 4, packed & 15], axis=1).reshape(-1)
    return _QAM16_LABEL_POINTS.take(labels[:bits.size // 4])


def _axis_level_idx(v: np.ndarray) -> np.ndarray:
    # Decision boundaries at -2, 0, +2 (in level units); a value exactly on
    # a boundary resolves toward the smaller level index.
    bound = 2.0 * _QAM16_SCALE
    return (v > -bound).astype(np.uint8) + (v > 0.0) + (v > bound)


def _qam16_index(symbols: np.ndarray) -> np.ndarray:
    """Slicer index (I level << 2) | Q level per symbol, in the input's
    shape: one pass of the axis slicer over the interleaved (re, im) floats."""
    symbols = np.asarray(symbols, dtype=complex)
    lv = _axis_level_idx(symbols.ravel().view(np.float64))
    return ((lv[0::2] << 2) | lv[1::2]).reshape(symbols.shape)


def demap_payload_16qam(symbols: np.ndarray) -> np.ndarray:
    """Hard-decide 16QAM symbols back to bits (inverse of the mapper)."""
    return _QAM16_BITS.take(_qam16_index(symbols).ravel()).view(np.uint8)


def hard_decision_16qam(symbols: np.ndarray) -> np.ndarray:
    """Nearest constellation point for each received payload symbol."""
    return _QAM16_POINTS.take(_qam16_index(symbols))


def _pam4_llrs(v: np.ndarray, levels: np.ndarray,
               noise_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gray-PAM4 LLRs (sign bit, magnitude bit) of real values v
    against four ascending ``levels``, with noise of variance noise_var
    on v; positive favors bit 0."""
    if noise_var <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_var} per dimension")
    # log-likelihood of each level, ascending; the Gray labels are 00, 01, 11, 10
    l0, l1, l2, l3 = (-((v - lv) ** 2) / (2.0 * noise_var) for lv in levels)
    hi = np.logaddexp(l0, l1) - np.logaddexp(l2, l3)
    lo = np.logaddexp(l0, l3) - np.logaddexp(l1, l2)
    return hi, lo


def payload_llrs_16qam(symbols: np.ndarray, noise_var: float) -> np.ndarray:
    """Per-bit LLRs for soft FEC decoding; noise_var is the total complex
    noise power per symbol.  Positive LLR means bit 0 is more likely."""
    symbols = np.asarray(symbols)
    i_hi, i_lo = _pam4_llrs(symbols.real, _QAM16_AXIS_LEVELS, noise_var / 2.0)
    q_hi, q_lo = _pam4_llrs(symbols.imag, _QAM16_AXIS_LEVELS, noise_var / 2.0)
    out = np.empty((symbols.size, 4))
    out[:, 0] = i_hi
    out[:, 1] = i_lo
    out[:, 2] = q_hi
    out[:, 3] = q_lo
    return out.reshape(-1)


def map_pilot(first_bits: np.ndarray, second_bits: np.ndarray,
              params: GcsPilotParams) -> np.ndarray:
    """Map (sign, magnitude) bit pairs onto the diagonal pilot constellation."""
    first_bits = np.asarray(first_bits)
    second_bits = np.asarray(second_bits)
    if first_bits.shape != second_bits.shape:
        raise ValueError("first_bits and second_bits must have equal length")
    idx = _bits_to_level_idx(first_bits, second_bits)
    return params.points()[idx]


def diagonal_projection(symbols: np.ndarray) -> np.ndarray:
    """Signal coordinate along the (1+1j) diagonal (noise-halving projection)."""
    symbols = np.asarray(symbols)
    return 0.5 * (symbols.real + symbols.imag)


def demap_pilot(symbols: np.ndarray, params: GcsPilotParams
                ) -> tuple[np.ndarray, np.ndarray]:
    """Hard-decide pilot symbols into (first_bits, second_bits).

    The first bit follows the sign of the diagonal projection, the second
    compares its magnitude against the (3+a)/2 threshold.
    """
    r = diagonal_projection(symbols)
    first = (r > 0).astype(np.uint8)
    second = (np.abs(r) < params.decision_threshold * params.d).astype(np.uint8)
    return first, second


def demap_pilot_llrs(symbols: np.ndarray, params: GcsPilotParams) -> np.ndarray:
    """Soft magnitude-bit LLRs of pilot symbols at noise power ``_PILOT_NOISE_VAR``,
    a quarter of it on the diagonal projection; positive favors bit 0."""
    _, lo = _pam4_llrs(diagonal_projection(symbols), params.amplitudes(),
                       _PILOT_NOISE_VAR / 4.0)
    return lo


def pilot_phase_reference(first_bits: np.ndarray) -> np.ndarray:
    """Unit-modulus diagonal reference built from the pre-shared sign bits.

    Both magnitudes of a given sign share the same argument, so this
    reference carries the full phase information of the true pilots.
    """
    s = 2.0 * np.asarray(first_bits).astype(float) - 1.0
    return s * (1.0 + 1.0j) / np.sqrt(2.0)


@functools.lru_cache(maxsize=128)
def qpsk_training(n: int, path: tuple[int, ...]) -> np.ndarray:
    """Unit-energy QPSK training sequence drawn from
    ``seeds.stream(*path)`` (read-only: equal arguments share one array)."""
    k = seeds.stream(*path).integers(0, 4, size=n)
    training = np.exp(1j * (np.pi / 4.0 + k * np.pi / 2.0))
    training.flags.writeable = False
    return training


def assemble_frame(training: np.ndarray, pilots: np.ndarray,
                   payload: np.ndarray, layout: FrameLayout) -> np.ndarray:
    """Interleave training, pilots and payload into one frame of symbols."""
    if len(training) != layout.training_len:
        raise ValueError(f"expected {layout.training_len} training symbols, "
                         f"got {len(training)}")
    if len(pilots) != layout.n_pilots:
        raise ValueError(f"expected {layout.n_pilots} pilots, got {len(pilots)}")
    if len(payload) != layout.payload_len:
        raise ValueError(f"expected {layout.payload_len} payload symbols, "
                         f"got {len(payload)}")
    frame = np.empty(layout.total_len, dtype=complex)
    frame[:layout.training_len] = training
    body = frame[layout.training_len:]
    body[layout.pilot_body_positions()] = pilots
    body[layout.payload_body_positions()] = payload
    return frame


def net_rate_gbps(layout: FrameLayout) -> float:
    """Net information rate after frame overhead and LDPC overhead, at
    the line rate."""
    return layout.payload_len / layout.total_len * LDPC_CODE_RATE * LINE_RATE_GBPS
