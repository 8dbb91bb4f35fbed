import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import secpon
from secpon import channel, dscm, framing, protocol, rxdsp


def _frame_body(rng, layout, params, linewidth, snr_db, seed):
    """One impaired frame body plus the transmitted payload bits and reference."""
    n_pay_bits = layout.payload_len * 4
    pay_bits = rng.integers(0, 2, n_pay_bits).astype(np.uint8)
    first = rng.integers(0, 2, layout.n_pilots).astype(np.uint8)
    second = rng.integers(0, 2, layout.n_pilots).astype(np.uint8)
    pilots = framing.map_pilot(first, second, params)
    payload = framing.map_payload_16qam(pay_bits)
    body = np.empty(layout.body_len, dtype=complex)
    body[layout.pilot_body_positions()] = pilots
    body[layout.payload_body_positions()] = payload
    stream = framing.SymbolStream(body, 8e9)
    cfg = channel.ChannelConfig(snr_db=snr_db, linewidth_hz=linewidth)
    rx = channel.apply_channel(stream, cfg, (seed,))
    ref = framing.pilot_phase_reference(first)
    return rx.symbols, pay_bits, ref


def _wrapped_phase_estimates(rx_pilots, reference):
    """Per-pilot phase as ``pilot_phase_estimates`` reads it, not unwrapped."""
    return np.angle(np.asarray(rx_pilots) * np.conj(reference))


def _hold_phase(estimates, pilot_positions, target_positions):
    """Zero-order hold: each pilot's estimate until the next pilot, the
    first one before it (the ablation against linear interpolation)."""
    idx = np.searchsorted(pilot_positions, target_positions, side="right") - 1
    return estimates[np.clip(idx, 0, len(estimates) - 1)]


class TestPilotPhaseEstimates:
    def test_clean_pilots_give_zero(self):
        ref = framing.pilot_phase_reference(np.array([0, 1, 1, 0]))
        psi = rxdsp.pilot_phase_estimates(ref, ref)
        assert np.allclose(psi, 0)

    def test_constant_rotation_recovered(self):
        ref = framing.pilot_phase_reference(np.array([0, 1, 0, 1, 1]))
        psi = rxdsp.pilot_phase_estimates(ref * np.exp(0.3j), ref)
        assert np.allclose(psi, 0.3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rxdsp.pilot_phase_estimates(np.ones(3, complex), np.ones(4, complex))

    def test_unwraps_across_plus_minus_pi(self):
        ref = np.ones(3, dtype=complex)
        rx = np.exp(1j * np.array([3.0, -3.0, 3.0]))
        raw = _wrapped_phase_estimates(rx, ref)
        assert np.allclose(raw, [3.0, -3.0, 3.0])
        unwrapped = rxdsp.pilot_phase_estimates(rx, ref)
        assert np.all(np.abs(np.diff(unwrapped)) < np.pi)
        assert np.allclose(np.exp(1j * unwrapped), np.exp(1j * raw))

    def test_tracks_wiener_walk_at_pilot_snr(self):
        # estimate = true walk + angle noise; check the noise floor matches
        rate, lw, snr_db = 8e9, 100e3, 15.0
        n = 4000
        rng = np.random.default_rng(5)
        first = rng.integers(0, 2, n).astype(np.uint8)
        pilots = framing.map_pilot(first, np.zeros(n, np.uint8),
                                   framing.GcsPilotParams(a=3.0))
        walk = channel.phase_noise_walk(n, lw, rate, (5,))
        stream = framing.SymbolStream(pilots * np.exp(1j * walk), rate)
        rx = channel.add_awgn(stream, snr_db, (6,))
        psi = rxdsp.pilot_phase_estimates(rx.symbols, framing.pilot_phase_reference(first))
        mse = np.mean((psi - walk) ** 2)
        # small-angle variance for unit-power pilots: half the noise power
        expected = 10 ** (-snr_db / 10) / 2
        assert 0.6 * expected < mse < 1.6 * expected


class TestInterpolateAndSmooth:
    def test_linear_ramp_is_exact(self):
        """A phase ramp across the pilots comes off every payload symbol
        exactly, bar the payload after the last pilot, which is held at
        that pilot's estimate (no payload precedes the first pilot)."""
        layout = framing.upstream_layout()
        pilots = layout.pilot_body_positions()
        targets = layout.payload_body_positions()
        psi = 0.01 * pilots
        out = rxdsp._rotate_by_pilots(np.exp(1j * 0.01 * targets), psi, np.exp(-1j * psi),
                                      layout)
        held = np.clip(targets, pilots[0], pilots[-1])
        assert np.allclose(out, np.exp(1j * 0.01 * (targets - held)), atol=1e-12)
        assert np.count_nonzero(targets == held) > 0.99 * targets.size

    def test_hold_keeps_previous_estimate(self):
        pos = np.array([0, 4])
        est = np.array([1.0, 2.0])
        out = _hold_phase(est, pos, np.array([1, 3, 4, 6]))
        assert np.allclose(out, [1.0, 1.0, 2.0, 2.0])

    def test_smoothing_preserves_interior_of_ramp(self):
        x = np.arange(20, dtype=float) * 0.05
        y = rxdsp.smooth_phase_estimates(x)
        assert np.allclose(y[1:-1], x[1:-1], atol=1e-12)

    def test_smoothing_ends_average_what_fits(self):
        x = np.random.default_rng(3).normal(size=9)
        want = [np.mean(x[max(i - 1, 0):i + 2]) for i in range(x.size)]
        assert np.allclose(rxdsp.smooth_phase_estimates(x), want, atol=1e-12)


def _convolve_mean(x, window):
    """The sliding mean as ``np.convolve`` gives it, for len(x) >= window."""
    ones = np.ones(window)
    return np.convolve(x, ones, "same") / np.convolve(np.ones(len(x)), ones, "same")


def _reference_pilot_phase(payload, estimates, layout):
    """Stage one's payload rotation by definition: one exp per symbol of
    the phase ``np.interp`` draws between the pilots."""
    phase = np.interp(layout.payload_body_positions(), layout.pilot_body_positions(),
                      estimates)
    return payload * np.exp(-1j * phase)


_SPACING = framing.PILOT_SPACING
_PILOT_LAYOUTS = {
    "upstream": framing.upstream_layout(),
    "downstream": framing.downstream_layout(),
    "tail-1": framing.FrameLayout(0, payload_len=5 * (_SPACING - 1) + 1),
    "tail-full": framing.FrameLayout(0, payload_len=5 * (_SPACING - 1)),
    "one-pilot": framing.FrameLayout(0, payload_len=_SPACING - 3),
    "spacing-2": framing.FrameLayout(0, payload_len=500, pilot_spacing=2),
    "spacing-200": framing.FrameLayout(0, payload_len=3000, pilot_spacing=200),
}


class TestPilotRotation:
    """Stage one of ``recover_carrier_phase`` rotates by a pilot-to-pilot
    phasor recurrence (``_rotate_by_pilots``); it must stay within
    rounding of the interpolated per-symbol exp."""

    @pytest.mark.parametrize("name", list(_PILOT_LAYOUTS))
    @pytest.mark.parametrize("reach", [100.0, -100.0, 0.5])
    def test_matches_interpolated_exp(self, name, reach):
        layout = _PILOT_LAYOUTS[name]
        assert (layout.n_pilots == 1) == (name == "one-pilot")
        atol = 1e-13 * max(1.0, layout.pilot_spacing / _SPACING)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            walk = np.cumsum(rng.normal(size=layout.n_pilots))
            walk *= reach / max(np.max(np.abs(walk)), 1e-12)
            payload = np.exp(1j * rng.uniform(-np.pi, np.pi, layout.payload_len))
            got = rxdsp._rotate_by_pilots(payload, walk, np.exp(-1j * walk), layout)
            want = _reference_pilot_phase(payload, walk, layout)
            assert np.max(np.abs(got - want)) < atol

    @pytest.mark.parametrize("linewidth", [100e3, 1e6])
    def test_hard_decisions_match_reference_chain(self, linewidth):
        """Noisy upstream frames at 12.2 dB: the whole CPR, and the
        earlier exp-based stages, slice every symbol the same."""
        layout = framing.upstream_layout()
        params = framing.GcsPilotParams()
        for seed in range(8):
            rng = np.random.default_rng(2200 + seed)
            body, _, ref = _frame_body(rng, layout, params, linewidth, 12.2, seed)
            psi = rxdsp.smooth_phase_estimates(
                rxdsp.pilot_phase_estimates(body[layout.pilot_body_positions()], ref))
            want = _residual_passes(
                _reference_pilot_phase(body[layout.payload_body_positions()], psi, layout),
                rxdsp.RESIDUAL_PASSES)
            got = rxdsp.recover_carrier_phase(body, layout, ref).payload
            assert np.array_equal(framing.hard_decision_16qam(got),
                                  framing.hard_decision_16qam(want))


class TestBoxcarMean:
    @given(st.lists(st.floats(-1e300, 1e300), min_size=rxdsp.PILOT_SMOOTHING,
                    max_size=300))
    def test_pilot_window_matches_convolve_exactly(self, values):
        x = np.array(values)
        assert np.array_equal(rxdsp._boxcar_mean(x, rxdsp.PILOT_SMOOTHING),
                              _convolve_mean(x, rxdsp.PILOT_SMOOTHING))

    @given(st.lists(st.floats(-np.pi, np.pi), min_size=2 * rxdsp.RESIDUAL_HALF_WINDOW + 1,
                    max_size=300))
    def test_residual_window_matches_convolve(self, values):
        x = np.array(values)
        window = 2 * rxdsp.RESIDUAL_HALF_WINDOW + 1
        assert np.allclose(rxdsp._boxcar_mean(x, window), _convolve_mean(x, window),
                           rtol=0, atol=1e-13)

    @pytest.mark.parametrize("window", [3, 23])
    def test_short_input_averages_what_fits(self, window):
        x = np.random.default_rng(4).normal(size=window + 2)
        half = window // 2
        for n in range(1, x.size + 1):
            want = [np.mean(x[max(i - half, 0):min(i + half + 1, n)]) for i in range(n)]
            assert np.allclose(rxdsp._boxcar_mean(x[:n], window), want,
                               rtol=0, atol=1e-13)

    def test_counts_are_shared_and_read_only(self):
        counts = rxdsp._boxcar_counts(50, 23)
        assert counts is rxdsp._boxcar_counts(50, 23)
        with pytest.raises(ValueError):
            counts[0] = 1.0


class TestResidualStage:
    def test_constellation_points_need_no_correction(self):
        rng = np.random.default_rng(0)
        sym = framing.map_payload_16qam(rng.integers(0, 2, 400).astype(np.uint8))
        assert np.allclose(rxdsp.residual_phase(sym), 0, atol=1e-12)

    def test_uniform_small_rotation_recovered(self):
        rng = np.random.default_rng(1)
        sym = framing.map_payload_16qam(rng.integers(0, 2, 4000).astype(np.uint8))
        est = rxdsp.residual_phase(sym * np.exp(0.05j))
        assert np.allclose(est, 0.05, atol=1e-3)

    @given(st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=64))
    @example([0.0, -0.0])
    def test_derotation_is_exp_bit_for_bit(self, values):
        x = np.array(values)
        assert np.array_equal(framing._expj(x, -1).view(np.int64),
                              np.exp(-1j * x).view(np.int64))

    def test_runs_residual_passes(self):
        rng = np.random.default_rng(2)
        sym = framing.map_payload_16qam(rng.integers(0, 2, 4000).astype(np.uint8))
        sym = sym * np.exp(0.2j) + 0.05 * rng.normal(size=1000)
        assert np.array_equal(rxdsp.residual_cpr(sym),
                              _residual_passes(sym, rxdsp.RESIDUAL_PASSES))


class TestRecoverCarrierPhase:
    def test_constant_phase_noiseless_is_exact(self):
        layout = framing.upstream_layout()
        params = framing.GcsPilotParams()
        rng = np.random.default_rng(2)
        body, bits, ref = _frame_body(rng, layout, params, 0.0, None, seed=3)
        out = rxdsp.recover_carrier_phase(body * np.exp(0.4j), layout, ref)
        got = framing.demap_payload_16qam(out.payload)
        assert np.array_equal(got, bits)
        assert out.cycle_slips == 0
        assert np.allclose(out.pilots, body[layout.pilot_body_positions()], atol=1e-9)

    def test_zero_estimates_identity(self):
        layout = framing.upstream_layout()
        params = framing.GcsPilotParams()
        rng = np.random.default_rng(3)
        body, _, ref = _frame_body(rng, layout, params, 0.0, None, seed=4)
        pay = body[layout.payload_body_positions()]
        zero = np.zeros(layout.n_pilots)
        out = rxdsp._rotate_by_pilots(pay, zero, np.exp(-1j * zero), layout)
        assert np.allclose(out, pay)

    def test_wrong_body_length_rejected(self):
        layout = framing.upstream_layout()
        with pytest.raises(ValueError):
            rxdsp.recover_carrier_phase(np.zeros(10, complex), layout,
                                        np.zeros(layout.n_pilots, complex))

    def test_injected_phase_jump_is_reported_not_repaired(self):
        layout = framing.upstream_layout()
        params = framing.GcsPilotParams()
        rng = np.random.default_rng(4)
        body, _, ref = _frame_body(rng, layout, params, 0.0, None, seed=5)
        # flip the phase of the second half of the frame by a half turn
        cut = layout.pilot_body_positions()[layout.n_pilots // 2]
        body[cut:] *= np.exp(1j * np.pi * 0.9)
        out = rxdsp.recover_carrier_phase(body, layout, ref)
        assert out.cycle_slips >= 1

    def test_linewidth_tracking_beats_no_correction(self):
        layout = framing.upstream_layout()
        params = framing.GcsPilotParams()
        rng = np.random.default_rng(6)
        body, bits, ref = _frame_body(rng, layout, params, 500e3, 15.0, seed=7)
        out = rxdsp.recover_carrier_phase(body, layout, ref)
        got = framing.demap_payload_16qam(out.payload)
        raw = framing.demap_payload_16qam(body[layout.payload_body_positions()])
        assert np.mean(got != bits) < 0.25 * np.mean(raw != bits)

    @pytest.mark.parametrize("spacing", [2, 3, 32])
    def test_constant_phase_recovered_on_every_layout(self, spacing):
        """Fewer pilots than the smoothing window, or fewer payload
        symbols than the residual window, still recover."""
        params = framing.GcsPilotParams()
        for payload_len in range(1, 41):
            layout = framing.FrameLayout(0, payload_len=payload_len, pilot_spacing=spacing)
            rng = np.random.default_rng(payload_len)
            body, bits, ref = _frame_body(rng, layout, params, 0.0, None, seed=3)
            out = rxdsp.recover_carrier_phase(body * np.exp(0.4j), layout, ref)
            assert np.allclose(out.payload, framing.map_payload_16qam(bits),
                               rtol=0, atol=1e-12)
            assert np.allclose(out.pilots, body[layout.pilot_body_positions()],
                               rtol=0, atol=1e-12)


def _reference_noise_var(payload):
    """The decision-directed noise estimate, operation for operation."""
    resid = payload - framing.hard_decision_16qam(payload)
    return max(float(np.mean(np.abs(resid) ** 2)), 1e-12)


class TestReceptionRecord:
    @pytest.mark.parametrize("snr_db", [11.0, 13.54])
    def test_noise_var_is_the_decision_directed_estimate(self, snr_db):
        """Noisy downstream frames of the real chain at 100 kHz: the
        record's estimate equals the reference bit for bit."""
        layout = framing.downstream_layout()
        cfg = channel.ChannelConfig(snr_db=snr_db, linewidth_hz=1e5)
        rng = np.random.default_rng(int(snr_db * 100))
        for f in range(3):
            signs, second = rng.integers(0, 2, (2, layout.n_pilots)).astype(np.uint8)
            payload = rng.integers(0, 2, 4 * layout.payload_len).astype(np.uint8)
            frame = protocol.transmit_subcarrier(signs, second, payload, (5, f), layout,
                                                 protocol.PILOT)
            rx = channel.apply_channel(framing.SymbolStream(frame, dscm.SUBCARRIER_BAUD),
                                       cfg, (6, f))
            got = protocol.receive_subcarrier(rx.symbols, signs, layout)
            assert got.noise_var == _reference_noise_var(got.payload)
            assert 0.5 < got.noise_var / 10 ** (-snr_db / 10) < 1.5

    def test_second_read_computes_nothing(self, monkeypatch):
        calls = []
        hard = rxdsp.hard_decision_16qam
        monkeypatch.setattr(rxdsp, "hard_decision_16qam",
                            lambda symbols: calls.append(1) or hard(symbols))
        rng = np.random.default_rng(8)
        payload = framing.map_payload_16qam(rng.integers(0, 2, 400).astype(np.uint8))
        record = rxdsp.CprResult(payload=payload + 0.1 * rng.normal(size=100),
                                 pilots=np.ones(4, complex))
        first = record.noise_var
        assert calls == [1]
        assert record.noise_var == first == _reference_noise_var(record.payload)
        assert calls == [1]

    def test_noiseless_estimate_is_floored(self):
        payload = framing.map_payload_16qam(np.zeros(40, np.uint8))
        assert rxdsp.CprResult(payload, np.ones(2, complex)).noise_var == 1e-12


def _noisy_cpr_digest():
    """sha256 of the CPR payload of one fixed noisy upstream frame."""
    layout = framing.upstream_layout()
    rng = np.random.default_rng(1901)
    body, _, ref = _frame_body(rng, layout, framing.GcsPilotParams(), 1e6, 14.0, seed=7)
    payload = rxdsp.recover_carrier_phase(body, layout, ref).payload
    return hashlib.sha256(payload.tobytes()).hexdigest()


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_cpr_bits_do_not_depend_on_blas_kernel(coretype):
    """OpenBLAS picks its dot kernel at run time; a child forced onto
    another kernel must give the same CPR bits (where numpy does not use
    OpenBLAS, the variable is ignored)."""
    tests = Path(__file__).resolve().parent
    src = Path(secpon.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    proc = subprocess.run(
        [sys.executable, "-c", "import test_rxdsp; print(test_rxdsp._noisy_cpr_digest())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == _noisy_cpr_digest()


def _residual_passes(payload, passes):
    for _ in range(passes):
        payload = payload * np.exp(-1j * rxdsp.residual_phase(payload))
    return payload


def _recover_payload(body, layout, ref, hold=False, passes=rxdsp.RESIDUAL_PASSES):
    """The payload of ``recover_carrier_phase``, composed from its stage
    functions, with zero-order hold in place of linear interpolation on
    request and the residual pass count open."""
    psi = rxdsp.smooth_phase_estimates(
        rxdsp.pilot_phase_estimates(body[layout.pilot_body_positions()], ref))
    payload = body[layout.payload_body_positions()]
    if hold:
        phase = _hold_phase(psi, layout.pilot_body_positions(),
                            layout.payload_body_positions())
        payload = payload * np.exp(-1j * phase)
    else:
        payload = rxdsp._rotate_by_pilots(payload, psi, np.exp(-1j * psi), layout)
    return _residual_passes(payload, passes)


def _payload_errors(linewidth, snr_db, seeds, a=1.7, **stages):
    layout = framing.upstream_layout()
    params = framing.GcsPilotParams(a=a)
    errs = 0
    total = 0
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        body, bits, ref = _frame_body(rng, layout, params, linewidth, snr_db, seed)
        payload = _recover_payload(body, layout, ref, **stages)
        errs += int(np.sum(framing.demap_payload_16qam(payload) != bits))
        total += bits.size
    return errs, total


class TestChainProperties:
    def test_stage_composition_is_recover_carrier_phase(self):
        layout = framing.upstream_layout()
        rng = np.random.default_rng(8)
        body, _, ref = _frame_body(rng, layout, framing.GcsPilotParams(),
                                   500e3, 13.0, seed=9)
        assert np.array_equal(_recover_payload(body, layout, ref),
                              rxdsp.recover_carrier_phase(body, layout, ref).payload)

    def test_linear_interpolation_not_worse_than_hold(self):
        # 1 MHz linewidth stresses tracking between pilots
        seeds = range(8)
        lin, _ = _payload_errors(1e6, 13.0, seeds)
        hold, _ = _payload_errors(1e6, 13.0, seeds, hold=True)
        assert lin <= hold

    def test_residual_stage_improves_on_pilot_only(self):
        seeds = range(8)
        with_res, _ = _payload_errors(100e3, 12.5, seeds)
        without, _ = _payload_errors(100e3, 12.5, seeds, passes=0)
        assert with_res < without

    def test_second_residual_pass_not_worse(self):
        seeds = range(6)
        two, _ = _payload_errors(100e3, 12.5, seeds, passes=2)
        one, _ = _payload_errors(100e3, 12.5, seeds, passes=1)
        assert two <= one


def _apply_offset(symbols, offset_hz, rate):
    """Impose a frequency offset (inverse of the correction)."""
    return rxdsp.correct_frequency_offset(symbols, -offset_hz, rate)


class TestFrequencyOffset:
    def test_noiseless_offset_recovered_closely(self):
        rate = 8e9
        train = framing.qpsk_training(416, (11,))
        rx = _apply_offset(train, -123.4e6, rate)
        est = rxdsp.estimate_frequency_offset(rx, train, rate)
        assert abs(est - (-123.4e6)) < 1e5

    def test_noisy_offset_within_half_percent_of_rate(self):
        rate = 8e9
        train = framing.qpsk_training(416, (12,))
        shifted = _apply_offset(train, 200e6, rate)
        rx = channel.add_awgn(framing.SymbolStream(shifted, rate), 10.0, (13,))
        est = rxdsp.estimate_frequency_offset(rx.symbols, train, rate)
        assert abs(est - 200e6) < 0.005 * rate

    def test_correct_then_estimate_is_zero(self):
        rate = 8e9
        train = framing.qpsk_training(256, (14,))
        rx = rxdsp.correct_frequency_offset(train, 77e6, rate)
        fixed = rxdsp.correct_frequency_offset(rx, -77e6, rate)
        assert np.allclose(fixed, train)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rxdsp.estimate_frequency_offset(np.ones(5, complex), np.ones(6, complex), 8e9)

    def test_estimate_error_grows_no_pathology_at_band_edge(self):
        # offsets near half the padded-bin wrap point still resolve
        rate = 8e9
        train = framing.qpsk_training(416, (15,))
        for f in (3.9e9, -3.9e9):
            rx = _apply_offset(train, f, rate)
            est = rxdsp.estimate_frequency_offset(rx, train, rate)
            assert abs(est - f) < 1e5
