"""End-to-end session tests: key distribution, encrypted broadcast,
allocation, and the no-desync property under control-channel loss."""

import json

import numpy as np
import pytest

from secpon import protocol, theory
from secpon.channel import ChannelConfig
from secpon.crypto import KeyStore, SessionKey
from secpon.dscm import DscmPlan, aggregate_snr_db, demux_select, mux
from secpon.fec_ldpc import LdpcCode
from secpon.framing import SymbolStream
from secpon.protocol import (
    OnuSession,
    allocate_tfdma,
    active_keys_synchronized,
    make_sessions,
    run_downstream_encrypted,
    run_secure_session,
    run_upstream_keydist,
)

PLAN = DscmPlan()
OP_SNR_SC = theory.snr_at_ber_16qam(2.4e-2)
OP_SNR_AGG = aggregate_snr_db(PLAN, 0, OP_SNR_SC)


def _two_onus(seed=5):
    return make_sessions(allocate_tfdma(["onu1", "onu2"]), seed=seed)


class TestAllocation:
    def test_two_onus_get_contiguous_halves(self):
        assert allocate_tfdma(["onu1", "onu2"]) == {"onu1": (0, 1), "onu2": (2, 3)}

    def test_single_onu_gets_everything(self):
        assert allocate_tfdma(["only"]) == {"only": (0, 1, 2, 3)}

    def test_oversubscription_without_schedule_rejected(self):
        with pytest.raises(ValueError):
            allocate_tfdma([f"onu{i}" for i in range(5)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            allocate_tfdma(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            allocate_tfdma([])


class TestSessions:
    def test_initial_key_active_on_both_sides(self):
        sessions = _two_onus()
        assert active_keys_synchronized(sessions)
        for s in sessions:
            assert s.olt_store.active_key.seq == 0
            assert s.onu_store.active_key.key_bytes == s.olt_store.active_key.key_bytes

    def test_overlapping_subcarriers_rejected(self):
        with pytest.raises(ValueError):
            make_sessions({"a": (0, 1), "b": (1, 2)})

    def test_session_requires_subcarriers(self):
        with pytest.raises(ValueError):
            OnuSession(onu_id="x", subcarriers=(),
                       onu_store=KeyStore(), olt_store=KeyStore())


class TestUpstreamKeydist:
    def test_noiseless_distributes_every_key(self):
        sessions = _two_onus()
        rep = run_upstream_keydist(sessions, ChannelConfig(seed=1), 6, seed=5)
        assert rep.crc_failures == 0
        assert rep.key_mismatches == 0
        assert rep.keys_assembled == 6      # one fragment per frame, two ONUs
        assert rep.rotations == 6
        assert rep.pre_fec_ber() == 0.0
        assert active_keys_synchronized(sessions)
        assert {s.olt_store.active_key.seq for s in sessions} == {3}

    def test_pilot_budget_rejected_for_single_subcarrier_onus(self):
        with pytest.raises(ValueError, match="pilot budget"):
            sessions = make_sessions(allocate_tfdma([f"onu{i}" for i in range(4)]))
            run_upstream_keydist(sessions, ChannelConfig(seed=1), 1)

    def test_operating_point_keys_error_free(self):
        """At the payload SD-FEC operating point the coded key channel
        still assembles every key without a CRC failure."""
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=OP_SNR_AGG, linewidth_hz=1e5, seed=11)
        rep = run_upstream_keydist(sessions, cfg, 12, seed=5)
        assert rep.crc_failures == 0
        assert rep.key_mismatches == 0
        assert rep.keys_assembled == 12
        assert rep.rotations == 12
        assert active_keys_synchronized(sessions)

    def test_operating_point_payload_ber_near_formula(self):
        """Pure-AWGN payload pre-FEC BER lands near the reference curve;
        the recovery chain is allowed a small implementation penalty."""
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=OP_SNR_AGG, seed=13)
        rep = run_upstream_keydist(sessions, cfg, 4, seed=5)
        assert theory.ber_16qam(OP_SNR_SC + 0.1) < rep.pre_fec_ber() \
            < theory.ber_16qam(OP_SNR_SC - 0.6)

    def test_low_snr_crc_gates_bad_fragments(self):
        """Raw key-bit error rates past 0.2 must surface as CRC failures,
        never as a wrongly assembled or activated key."""
        sessions = _two_onus()
        raw = theory.ber_pilot_second_bit(1.0, 1.7)
        assert raw >= 0.2
        cfg = ChannelConfig(snr_db=aggregate_snr_db(PLAN, 0, 1.0), seed=17)
        rep = run_upstream_keydist(sessions, cfg, 8, seed=5)
        assert rep.crc_failures > 0
        assert rep.key_mismatches == 0
        assert active_keys_synchronized(sessions)

    def test_loss_injection_never_desynchronizes(self):
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=OP_SNR_AGG + 6, seed=19)
        rep = run_upstream_keydist(sessions, cfg, 12, seed=5, loss_probability=0.4)
        assert rep.fragments_lost > 0
        assert rep.key_mismatches == 0
        assert rep.rotations >= 1
        assert active_keys_synchronized(sessions)

    def test_deterministic_for_fixed_seeds(self):
        cfg = ChannelConfig(snr_db=OP_SNR_AGG, linewidth_hz=1e5, seed=23)
        reps = []
        keys = []
        for _ in range(2):
            sessions = _two_onus(seed=7)
            reps.append(run_upstream_keydist(sessions, cfg, 3, seed=7))
            keys.append([s.olt_store.active_key.key_bytes for s in sessions])
        assert reps[0].to_json() == reps[1].to_json()
        assert reps[0].frame_metrics == reps[1].frame_metrics
        assert keys[0] == keys[1]

    def test_report_counters_consistent(self):
        sessions = _two_onus()
        rep = run_upstream_keydist(sessions, ChannelConfig(seed=1), 2, seed=5)
        rep.validate()
        rep.frame_metrics[0].pre_bits += 1
        with pytest.raises(AssertionError):
            rep.validate()


class TestDownstreamEncrypted:
    def test_requires_active_keys(self):
        session = OnuSession(onu_id="bare", subcarriers=(0, 1),
                             onu_store=KeyStore(), olt_store=KeyStore())
        with pytest.raises(ValueError, match="active key"):
            run_downstream_encrypted([session], ChannelConfig(seed=1), 1)

    def test_noiseless_roundtrip_error_free(self):
        sessions = _two_onus()
        rep = run_downstream_encrypted(sessions, ChannelConfig(seed=2), 1, seed=5)
        assert rep.pre_fec_ber() == 0.0
        assert rep.post_fec_ber() == 0.0
        rep.validate()

    def test_echo_activates_pending_key_mid_session(self):
        """A key pended on both stores is announced in-band and both
        sides switch at the same codeword boundary, without disturbing
        decryption on either side of it."""
        sessions = _two_onus()
        rng = np.random.default_rng(3)
        for s in sessions:
            bits = rng.integers(0, 2, 256).astype(np.uint8)
            s.onu_store.add_pending(SessionKey(bits=bits.copy(), seq=1))
            s.olt_store.add_pending(SessionKey(bits=bits.copy(), seq=1))
        rep = run_downstream_encrypted(sessions, ChannelConfig(seed=2), 2, seed=5)
        assert rep.post_fec_ber() == 0.0
        assert rep.rotations == 2
        assert active_keys_synchronized(sessions)
        assert {s.onu_store.active_key.seq for s in sessions} == {1}
        olt_events = [e for e in rep.key_events if e.event == "olt_activated"]
        onu_events = [e for e in rep.key_events if e.event == "onu_activated"]
        assert [(e.onu_id, e.detail) for e in olt_events] \
            == [(e.onu_id, e.detail) for e in onu_events]

    def test_error_free_above_threshold_with_phase_noise(self):
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=aggregate_snr_db(PLAN, 0, OP_SNR_SC + 1.2),
                            linewidth_hz=1e5, seed=31)
        rep = run_downstream_encrypted(sessions, cfg, 2, seed=5)
        assert rep.pre_fec_ber() > 1e-3
        assert rep.post_fec_ber() == 0.0

    def test_frequency_offset_corrected_per_onu(self):
        """A carrier offset is estimated on each ONU's training prefix and
        removed before its subcarriers are selected, in both directions."""
        sessions = _two_onus()
        cfg = ChannelConfig(freq_offset_hz=2e8, seed=19)
        up = run_upstream_keydist(sessions, cfg, 2, seed=5)
        assert up.pre_fec_ber() == 0.0
        assert up.crc_failures == 0
        assert up.keys_assembled == len(sessions)   # one key per ONU in two frames
        down = run_downstream_encrypted(sessions, cfg, 1, seed=5)
        assert down.pre_fec_ber() == 0.0
        assert down.post_fec_ber() == 0.0

    @pytest.mark.parametrize("eavesdropper", [False, True])
    def test_one_decoder_call_per_tap(self, monkeypatch, eavesdropper):
        """All ONUs' codewords on a tap go through one LDPC decoder call."""
        batches = []
        decode = LdpcCode.decode_batch

        def counting_decode(code, llrs, *args, **kwargs):
            batches.append(len(llrs))
            return decode(code, llrs, *args, **kwargs)

        monkeypatch.setattr(LdpcCode, "decode_batch", counting_decode)
        rep = run_downstream_encrypted(_two_onus(), ChannelConfig(seed=2), 1, seed=5,
                                       eavesdropper=eavesdropper)
        assert batches == [8] * (2 if eavesdropper else 1)
        assert rep.post_fec_ber() == 0.0

    def test_eavesdropper_agreement_is_coin_flip_when_noiseless(self):
        sessions = _two_onus()
        rep = run_downstream_encrypted(sessions, ChannelConfig(seed=2), 2, seed=5,
                                       eavesdropper=True)
        assert rep.eavesdropper_bits >= 200_000
        assert 0.49 < rep.eavesdropper_agreement() < 0.51

    def test_eavesdropper_agreement_is_coin_flip_when_noisy(self):
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=OP_SNR_AGG, linewidth_hz=1e5, seed=37)
        rep = run_downstream_encrypted(sessions, cfg, 1, seed=5, eavesdropper=True)
        assert 0.48 < rep.eavesdropper_agreement() < 0.52


class TestSecureSession:
    def test_rotation_through_inband_echo(self):
        sessions = _two_onus()
        rep = run_secure_session(sessions, ChannelConfig(seed=3), ChannelConfig(seed=4),
                                 4, seed=5)
        assert rep.keys_assembled == 4
        assert rep.rotations == 4           # ONU-side activations, two per ONU
        assert rep.post_fec_ber() == 0.0
        assert active_keys_synchronized(sessions)
        assert {s.onu_store.active_key.seq for s in sessions} == {2}

    def test_loss_injection_never_desynchronizes(self):
        """The runner itself asserts agreement after every superframe."""
        sessions = _two_onus()
        rep = run_secure_session(sessions, ChannelConfig(snr_db=OP_SNR_AGG + 6, seed=41),
                                 ChannelConfig(seed=43), 6, seed=5,
                                 loss_probability=0.5)
        assert rep.fragments_lost > 0
        assert rep.key_mismatches == 0
        assert active_keys_synchronized(sessions)

    def test_report_exports(self):
        sessions = _two_onus()
        rep = run_secure_session(sessions, ChannelConfig(seed=3), ChannelConfig(seed=4),
                                 2, seed=5, eavesdropper=True)
        doc = json.loads(rep.to_json())
        assert doc["direction"] == "secure-session"
        assert doc["keys_assembled"] == rep.keys_assembled
        assert doc["eavesdropper_bits"] == rep.eavesdropper_bits

    @pytest.mark.parametrize("onu_ids", [["onu1", "onu2"], ["onu1"]])
    def test_key_channel_matches_upstream_keydist(self, onu_ids):
        """The superframe's upstream half is the keydist frame: near the
        key channel's CRC waterfall both see the same fragment events,
        also when one ONU holds every subcarrier."""
        def fragment_events(rep):
            return [(e.frame_index, e.onu_id, e.event, e.seq, e.detail)
                    for e in rep.key_events
                    if e.event.startswith("fragment_")
                    or e.event in ("key_generated", "key_assembled")]

        us_cfg = ChannelConfig(snr_db=aggregate_snr_db(PLAN, 0, 9.4),
                               linewidth_hz=1e5, seed=7)
        keydist = run_upstream_keydist(make_sessions(allocate_tfdma(onu_ids), seed=3),
                                       us_cfg, 4, seed=3)
        secure = run_secure_session(make_sessions(allocate_tfdma(onu_ids), seed=3),
                                    us_cfg, ChannelConfig(seed=9), 4, seed=3)
        assert keydist.crc_failures > 0
        assert fragment_events(secure) == fragment_events(keydist)

    def test_session_state_bookkeeping(self):
        sessions = _two_onus()
        run_secure_session(sessions, ChannelConfig(seed=3), ChannelConfig(seed=4),
                           2, seed=5)
        for s in sessions:
            assert s.codeword_counter == 8


class TestBandwidthPowerTradeoff:
    def test_doubling_subcarriers_doubles_total_power(self):
        """FDMA scaling: occupying four subcarriers instead of two costs
        3 dB of launch power at fixed per-subcarrier SNR."""
        rng = np.random.default_rng(47)
        n = 50_000
        def qpsk():
            return SymbolStream(np.exp(1j * (np.pi / 4 + rng.integers(0, 4, n)
                                             * np.pi / 2)), PLAN.baud_per_sc)
        zero = SymbolStream(np.zeros(n, dtype=complex), PLAN.baud_per_sc)
        two = mux([qpsk(), qpsk(), zero, zero], PLAN).symbols
        four = mux([qpsk() for _ in range(4)], PLAN).symbols
        ratio = np.mean(np.abs(four) ** 2) / np.mean(np.abs(two) ** 2)
        assert 10 * np.log10(ratio) == pytest.approx(3.01, abs=0.05)

    def test_per_sc_snr_equal_under_fixed_noise_density(self):
        rng = np.random.default_rng(53)
        n = 50_000
        def qpsk():
            return SymbolStream(np.exp(1j * (np.pi / 4 + rng.integers(0, 4, n)
                                             * np.pi / 2)), PLAN.baud_per_sc)
        zero = SymbolStream(np.zeros(n, dtype=complex), PLAN.baud_per_sc)
        s0 = qpsk()
        two = mux([s0, qpsk(), zero, zero], PLAN)
        f2 = qpsk()
        four = mux([qpsk(), qpsk(), f2, qpsk()], PLAN)
        sigma2 = 1e-3
        noise = (rng.normal(size=n * PLAN.samples_per_symbol)
                 + 1j * rng.normal(size=n * PLAN.samples_per_symbol)) * np.sqrt(sigma2 / 2)
        got = []
        for wave, sc, tx in ((two, 0, s0), (four, 2, f2)):
            noisy = SymbolStream(wave.symbols + noise, wave.symbol_rate_hz)
            back = demux_select(noisy, sc, PLAN)
            nv = np.mean(np.abs(back.symbols - tx.symbols) ** 2)
            got.append(10 * np.log10(1.0 / nv))
        assert got[0] == pytest.approx(got[1], abs=0.1)
