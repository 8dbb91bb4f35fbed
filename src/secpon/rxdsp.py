"""Receiver DSP: pilot-aided carrier phase recovery and training-aided
frequency offset estimation.

Phase recovery runs in two stages.  Stage one reads the unwrapped phase
off each pilot against its pre-shared sign reference, smooths it over a
few adjacent pilots to knock down estimate noise from the weaker pilot
amplitudes, and interpolates it linearly across the payload.  Stage two
is decision-directed: a sliding mean of the residual angle between each
corrected payload symbol and its hard decision, averaged over a
(2Q+1)-symbol window truncated at the frame edges, applied twice so the
second pass works from better decisions.

Neither stage takes a complex exp per payload symbol.  Stage one takes
one at each pilot and one per pilot interval for the step toward the
next pilot; the payload between two pilots is rotated by that pilot's
phasor times successive powers of the step, built by a running product.
That matches the per-symbol exp of the interpolated phase to rounding
(about 1e-14 even after a 100 rad walk) and gives the same CSV bytes.
Stage two writes ``cos`` and ``sin`` of its small residual angles into one
complex array (``framing._expj``), which is ``exp(-1j * rho)`` bit for
bit and faster at small angles.

``recover_carrier_phase`` returns one record per frame, ``CprResult``:
the corrected payload and pilots, the cycle slips and the
decision-directed noise variance that scales the payload LLRs.  The
noise estimate costs one more slicer pass, so it is computed on first
read and kept; ``cpr-penalty`` and the key path never read it.

Both sliding means are fixed-order numpy sums over a zero-padded copy,
with no BLAS dot product, so they give the same bits on every host.
They take any input length: a window longer than the input averages
what fits.

The stage-one smoothing window and the number of stage-two passes were
fixed by sweeping 100 kHz to 1 MHz linewidths at 8 GBaud and keeping
the settings that minimize the weak-pilot penalty without losing the
linewidth dependence of the required SNR.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .framing import FrameLayout, _expj, hard_decision_16qam

RESIDUAL_HALF_WINDOW = 11       # Q: residual stage averages 2Q+1 decisions
PILOT_SMOOTHING = 3             # boxcar over adjacent pilot phase estimates
RESIDUAL_PASSES = 2
FREQ_PAD_FACTOR = 8             # zero padding of the frequency-offset periodogram
CYCLE_SLIP_STEP = np.pi / 2     # pilot-to-pilot jump flagged as a slip


def _window_sum(x: np.ndarray, window: int) -> np.ndarray:
    """Sum of each centered ``window``-sample window of x, zeros beyond
    the ends, one output per input sample.

    The order of the adds is fixed, so the bits do not depend on the
    host: partial sums over 1, 2, 4, ... samples of a zero-padded copy,
    then the window's power-of-two parts added widest first.  A 3-sample
    window is ``(x[i-1] + x[i]) + x[i+1]``; a 23-sample one takes 7 adds.
    """
    n = len(x)
    padded = np.zeros(n + window - 1)
    padded[window // 2:window // 2 + n] = x
    sums = [padded]             # sums[k][j]: the 2**k samples from padded[j]
    while 2 ** len(sums) <= window:
        width = 2 ** (len(sums) - 1)
        sums.append(sums[-1][:-width] + sums[-1][width:])
    top = len(sums) - 1
    total, start = sums[top][:n], 2 ** top
    for k in reversed(range(top)):
        if window >> k & 1:
            total += sums[k][start:start + n]
            start += 2 ** k
    return total


@functools.lru_cache
def _boxcar_counts(n: int, window: int) -> np.ndarray:
    """How many of a centered window's samples fall inside n samples, per
    position (read-only: one copy is shared by every caller)."""
    counts = _window_sum(np.ones(n), window)
    counts.flags.writeable = False
    return counts


def _boxcar_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Centered sliding mean, averaged over however much of the window
    falls inside x (at the ends, and everywhere when x is shorter than
    the window)."""
    return _window_sum(x, window) / _boxcar_counts(len(x), window)


def pilot_phase_estimates(rx_pilots: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-pilot phase: arg of received pilot minus arg of reference.

    Unwrapping removes 2*pi jumps between consecutive estimates so the
    sequence can be interpolated.
    """
    rx_pilots = np.asarray(rx_pilots)
    if rx_pilots.shape != np.shape(reference):
        raise ValueError("pilot and reference lengths differ")
    psi = np.angle(rx_pilots * np.conj(reference))
    return np.unwrap(psi)


def count_cycle_slips(estimates: np.ndarray) -> int:
    """Pilot-to-pilot phase steps too large to be laser drift.

    Slips are reported, not repaired: downstream stages run on the
    estimates as they are.
    """
    return int(np.sum(np.abs(np.diff(estimates)) > CYCLE_SLIP_STEP))


def smooth_phase_estimates(estimates: np.ndarray) -> np.ndarray:
    """Boxcar-average unwrapped pilot phases over PILOT_SMOOTHING pilots.

    Ends are averaged over however much of the window fits.  That pulls
    the outermost estimates slightly toward the interior on a phase
    ramp, which costs far less than the estimate noise it removes.
    """
    return _boxcar_mean(estimates, PILOT_SMOOTHING)


def _rotate_by_pilots(payload: np.ndarray, estimates: np.ndarray,
                      start: np.ndarray, layout: FrameLayout) -> np.ndarray:
    """Rotate payload by the pilot phases interpolated linearly between
    pilots, given the pilots' own phasors ``start = exp(-1j*estimates)``.

    The k-th payload symbol after pilot j (k = 1 .. spacing-1) gets
    ``start[j] * step[j]**k``, with ``step[j]`` a spacing-th of the way
    to pilot j+1; the powers are a running product, one vector multiply
    per k.  The tail after the last pilot is held at its phasor.
    """
    spacing = layout.pilot_spacing
    step = np.exp(-1j * (np.diff(estimates) / spacing))
    powers = np.empty((spacing - 1, step.size), dtype=complex)
    powers[0] = start[:-1] * step
    for k in range(1, spacing - 1):
        np.multiply(powers[k - 1], step, out=powers[k])
    payload = payload.ravel()
    out = np.empty(payload.size, dtype=complex)
    between = powers.size
    np.multiply(payload[:between].reshape(step.size, spacing - 1), powers.T,
                out=out[:between].reshape(step.size, spacing - 1))
    np.multiply(payload[between:], start[-1], out=out[between:])
    return out


def residual_phase(symbols: np.ndarray) -> np.ndarray:
    """Sliding-mean decision-directed residual phase per symbol, against
    16QAM hard decisions."""
    symbols = np.asarray(symbols)
    err = np.angle(symbols * np.conj(hard_decision_16qam(symbols)))
    return _boxcar_mean(err, 2 * RESIDUAL_HALF_WINDOW + 1)


def residual_cpr(payload: np.ndarray) -> np.ndarray:
    """Decision-directed refinement of an already pilot-corrected payload,
    in ``RESIDUAL_PASSES`` passes."""
    payload = np.asarray(payload)
    for _ in range(RESIDUAL_PASSES):
        payload = payload * _expj(residual_phase(payload), -1)
    return payload


@dataclass
class CprResult:
    """What the receiver recovers from one frame: the corrected payload
    and pilots, the cycle slips, and, on first read, the noise estimate
    the payload LLRs are scaled by."""

    payload: np.ndarray
    pilots: np.ndarray
    cycle_slips: int = 0

    @functools.cached_property
    def noise_var(self) -> float:
        """Decision-directed noise variance over the corrected payload."""
        resid = self.payload - hard_decision_16qam(self.payload)
        return max(float(np.mean(np.abs(resid) ** 2)), 1e-12)


def recover_carrier_phase(body: np.ndarray, layout: FrameLayout,
                          pilot_reference: np.ndarray) -> CprResult:
    """Two-stage CPR over one frame body (pilots + payload, training cut off).

    Returns phase-corrected payload and pilots.  Pilots are corrected by
    their own smoothed estimates, payload by interpolated estimates plus
    the accumulated decision-directed residual.
    """
    body = np.asarray(body)
    if body.size != layout.body_len:
        raise ValueError(f"expected body of {layout.body_len} symbols, got {body.size}")
    pilots = body[layout.pilot_body_positions()]
    psi_raw = pilot_phase_estimates(pilots, pilot_reference)
    psi = smooth_phase_estimates(psi_raw)
    start = np.exp(-1j * psi)
    payload = _rotate_by_pilots(body[layout.payload_body_positions()], psi, start, layout)
    return CprResult(
        payload=residual_cpr(payload),
        pilots=pilots * start,
        cycle_slips=count_cycle_slips(psi_raw),
    )


def estimate_frequency_offset(rx_training: np.ndarray, known_training: np.ndarray,
                              symbol_rate_hz: float) -> float:
    """Data-aided frequency offset estimate from the training prefix.

    Strips modulation with the known sequence, then finds the tone that
    maximizes a zero-padded periodogram, refined by parabolic
    interpolation on the log spectrum.
    """
    rx_training = np.asarray(rx_training)
    if rx_training.shape != np.shape(known_training):
        raise ValueError("training and reference lengths differ")
    z = rx_training * np.conj(known_training)
    n = z.size * FREQ_PAD_FACTOR
    spec = np.abs(np.fft.fft(z, n=n)) ** 2
    k = int(np.argmax(spec))
    # three-point parabolic refinement around the peak (log domain)
    km, kp = (k - 1) % n, (k + 1) % n
    lm, l0, lp = np.log(spec[[km, k, kp]] + 1e-300)
    denom = lm - 2 * l0 + lp
    delta = 0.0 if denom == 0 else 0.5 * (lm - lp) / denom
    freq_bin = (k + delta + n / 2) % n - n / 2
    return float(freq_bin / n * symbol_rate_hz)


def correct_frequency_offset(symbols: np.ndarray, offset_hz: float,
                             symbol_rate_hz: float) -> np.ndarray:
    """Derotate a symbol stream, from its first sample on, by a constant
    frequency offset."""
    n = np.arange(len(symbols))
    return symbols * np.exp(-2j * np.pi * offset_hz * n / symbol_rate_hz)
