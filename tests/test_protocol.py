"""End-to-end session tests: key distribution, encrypted broadcast,
allocation, and the no-desync property under control-channel loss."""

import numpy as np
import pytest

from secpon import protocol, rxdsp, seeds, theory
from secpon.channel import ChannelConfig
from secpon.crypto import KeyFragmentMessage, KeyStore, SessionKey, split_key
from secpon.dscm import SAMPLES_PER_SYMBOL, SUBCARRIER_BAUD, aggregate_snr_db, demux_select, mux
from secpon.experiments import ExperimentSpec, run_experiment
from secpon.fec_ldpc import LdpcCode
from secpon.framing import SymbolStream
from secpon.protocol import (
    OnuSession,
    allocate_tfdma,
    active_keys_synchronized,
    make_sessions,
    run_secure_session,
)

OP_SNR_SC = theory.snr_at_ber_16qam(2.4e-2)
OP_SNR_AGG = aggregate_snr_db(OP_SNR_SC)


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
        rep = run_secure_session(sessions, ChannelConfig(), None, 6, seed=5)
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
            run_secure_session(sessions, ChannelConfig(), None, 1)

    def test_operating_point_keys_error_free(self):
        """At the payload SD-FEC operating point the coded key channel
        still assembles every key without a CRC failure."""
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=OP_SNR_AGG, linewidth_hz=1e5)
        rep = run_secure_session(sessions, cfg, None, 12, seed=5)
        assert rep.crc_failures == 0
        assert rep.key_mismatches == 0
        assert rep.keys_assembled == 12
        assert rep.rotations == 12
        assert active_keys_synchronized(sessions)

    def test_operating_point_payload_ber_near_formula(self):
        """Pure-AWGN payload pre-FEC BER lands near the reference curve;
        the recovery chain is allowed a small implementation penalty."""
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=OP_SNR_AGG)
        rep = run_secure_session(sessions, cfg, None, 4, seed=5)
        assert theory.ber_16qam(OP_SNR_SC + 0.1) < rep.pre_fec_ber() \
            < theory.ber_16qam(OP_SNR_SC - 0.6)

    def test_low_snr_crc_gates_bad_fragments(self):
        """Raw key-bit error rates past 0.2 must surface as CRC failures,
        never as a wrongly assembled or activated key."""
        sessions = _two_onus()
        raw = theory.ber_pilot_second_bit(1.0, 1.7)
        assert raw >= 0.2
        cfg = ChannelConfig(snr_db=aggregate_snr_db(1.0))
        rep = run_secure_session(sessions, cfg, None, 8, seed=5)
        assert rep.crc_failures > 0
        assert rep.key_mismatches == 0
        assert active_keys_synchronized(sessions)

    def test_loss_injection_never_desynchronizes(self):
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=OP_SNR_AGG + 6)
        rep = run_secure_session(sessions, cfg, None, 12, seed=5, loss_probability=0.4)
        assert rep.fragments_lost > 0
        assert rep.key_mismatches == 0
        assert rep.rotations >= 1
        assert rep.desynchronized_frames == 0
        assert active_keys_synchronized(sessions)

    def test_deterministic_for_fixed_seeds(self):
        cfg = ChannelConfig(snr_db=OP_SNR_AGG, linewidth_hz=1e5)
        reps = []
        keys = []
        for _ in range(2):
            sessions = _two_onus(seed=7)
            reps.append(run_secure_session(sessions, cfg, None, 3, seed=7))
            keys.append([s.olt_store.active_key.key_bytes for s in sessions])
        assert reps[0] == reps[1]
        assert keys[0] == keys[1]

    def test_report_counters_consistent(self):
        sessions = _two_onus()
        rep = run_secure_session(sessions, ChannelConfig(), None, 2, seed=5)
        rep.validate()
        rep.frame_metrics[0].pre_bits += 1
        with pytest.raises(AssertionError):
            rep.validate()

    def test_unreceived_subcarrier_fails_validation(self, monkeypatch):
        """The transmitted count is the payload bits drawn, not the
        compared rows, so a subcarrier the OLT never compares fails."""
        receive = protocol._receive_onu

        def drop_subcarrier_3(*args, **kwargs):
            got = receive(*args, **kwargs)
            del got[3]
            return got

        monkeypatch.setattr(protocol, "_receive_onu", drop_subcarrier_3)
        sessions = make_sessions(allocate_tfdma(["onu1"]), seed=5)
        with pytest.raises(AssertionError, match="transmitted"):
            run_secure_session(sessions, ChannelConfig(), None, 1, seed=5)


class TestKeyPathReadsNoNoiseEstimate:
    """The pilot LLRs take no noise variance, since the polar list
    decoder is blind to their scale: no reception on the key path may
    read ``CprResult.noise_var``."""

    @pytest.fixture(autouse=True)
    def _unreadable_noise_estimate(self, monkeypatch):
        def read(record):
            raise AssertionError("the key path read CprResult.noise_var")
        monkeypatch.setattr(rxdsp.CprResult, "noise_var", property(read))

    def test_upstream_session(self):
        cfg = ChannelConfig(snr_db=OP_SNR_AGG, linewidth_hz=1e5)
        rep = run_secure_session(_two_onus(), cfg, None, 2, seed=5)
        assert rep.keys_assembled == 2

    def test_keydist_experiment(self, tmp_path):
        result = run_experiment(ExperimentSpec("keydist", {"n_frames": 2}, seed=3,
                                               out_dir=tmp_path))
        assert len(result.rows) == 2 * 4     # every subcarrier of both frames


class TestFragmentIntake:
    """The OLT's intake of one decoded fragment, on a hand-built session
    whose OLT expects sequence 1 next."""

    @staticmethod
    def _session():
        session = make_sessions(allocate_tfdma(["onu1"]), seed=5)[0]
        key = SessionKey(bits=np.random.default_rng(9).integers(0, 2, 256), seq=1)
        session.onu_store.add_pending(key)
        return session, split_key(key.bits, key.seq)

    @pytest.mark.parametrize("seq", [0, 2], ids=["stale", "future"])
    def test_wrong_sequence_dropped_not_counted(self, seq):
        session, (first, second) = self._session()
        report = protocol.SessionReport()
        protocol._receive_fragment(session, (first.to_bits(), True), report)
        assert set(session.rx_fragments) == {0}
        wrong = KeyFragmentMessage(seq, 1, second.key_fragment)
        protocol._receive_fragment(session, (wrong.to_bits(), True), report)
        assert set(session.rx_fragments) == {0}
        assert (report.crc_failures, report.keys_assembled) == (0, 0)
        protocol._receive_fragment(session, (second.to_bits(), True), report)
        assert (report.crc_failures, report.keys_assembled) == (0, 1)
        assert session.olt_store.pending_seqs() == [1]

    def test_nonzero_padding_counts_as_crc_failure(self):
        session, (first, _) = self._session()
        report = protocol.SessionReport()
        bits = first.to_bits()
        bits[-1] = 1
        protocol._receive_fragment(session, (bits, True), report)
        assert report.crc_failures == 1
        assert not session.rx_fragments

    def test_erased_fragment_counts_as_crc_failure(self):
        session, _ = self._session()
        report = protocol.SessionReport()
        decoded = protocol.polar_decode_scl(np.zeros((1, protocol.POLAR.block_length)),
                                            protocol.POLAR)
        protocol._receive_fragment(session, next(zip(*decoded)), report)
        assert report.crc_failures == 1
        assert not session.rx_fragments

    def test_lost_fragment_flips_tx_phase(self):
        session, _ = self._session()
        report = protocol.SessionReport()
        phases = []
        for _ in range(2):
            protocol._receive_fragment(session, None, report)
            phases.append(session.tx_phase)
        assert phases == [1, 0]
        assert (report.fragments_lost, report.crc_failures) == (2, 0)


class TestDownstreamEncrypted:
    def test_requires_active_keys(self):
        session = OnuSession(onu_id="bare", subcarriers=(0, 1),
                             onu_store=KeyStore(), olt_store=KeyStore())
        with pytest.raises(ValueError, match="active key"):
            run_secure_session([session], None, ChannelConfig(), 1)

    def test_needs_a_channel(self):
        with pytest.raises(ValueError, match="upstream or a downstream"):
            run_secure_session(_two_onus(), None, None, 1)

    def test_desynchronized_keys_counted_not_raised(self):
        """Stores that pend different bits under one sequence number both
        activate it on the echo; every frame after that ends desynchronized
        and the run reports it instead of stopping."""
        sessions = _two_onus()
        rng = np.random.default_rng(4)
        for s in sessions:
            s.olt_store.add_pending(SessionKey(bits=rng.integers(0, 2, 256), seq=1))
            s.onu_store.add_pending(SessionKey(bits=rng.integers(0, 2, 256), seq=1))
        rep = run_secure_session(sessions, None, ChannelConfig(), 2, seed=5)
        assert rep.desynchronized_frames == 2
        assert not active_keys_synchronized(sessions)

    def test_noiseless_roundtrip_error_free(self):
        sessions = _two_onus()
        rep = run_secure_session(sessions, None, ChannelConfig(), 1, seed=5)
        assert rep.pre_fec_ber() == 0.0
        assert rep.post_fec_ber() == 0.0
        rep.validate()

    def test_echo_activates_pending_key_mid_session(self):
        """A key pended on both stores is announced in-band and both
        sides switch to it at the same codeword boundary, without
        disturbing decryption on either side of it."""
        sessions = _two_onus()
        rng = np.random.default_rng(3)
        for s in sessions:
            bits = rng.integers(0, 2, 256).astype(np.uint8)
            s.onu_store.add_pending(SessionKey(bits=bits.copy(), seq=1))
            s.olt_store.add_pending(SessionKey(bits=bits.copy(), seq=1))
        rep = run_secure_session(sessions, None, ChannelConfig(), 2, seed=5)
        assert rep.post_fec_ber() == 0.0
        assert rep.rotations == 2
        assert active_keys_synchronized(sessions)
        for s in sessions:
            assert s.olt_store.active_key.seq == s.onu_store.active_key.seq == 1
            assert s.olt_store.pending_seqs() == s.onu_store.pending_seqs() == []
        after = run_secure_session(sessions, None, ChannelConfig(), 1, seed=5)
        assert after.post_fec_ber() == 0.0
        assert after.rotations == 0

    def test_error_free_above_threshold_with_phase_noise(self):
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=aggregate_snr_db(OP_SNR_SC + 1.2),
                            linewidth_hz=1e5)
        rep = run_secure_session(sessions, None, cfg, 2, seed=5)
        assert rep.pre_fec_ber() > 1e-3
        assert rep.post_fec_ber() == 0.0

    def test_frequency_offset_corrected_per_onu(self):
        """A carrier offset is estimated on each ONU's training prefix and
        removed before its subcarriers are selected, in both directions."""
        sessions = _two_onus()
        cfg = ChannelConfig(freq_offset_hz=2e8)
        up = run_secure_session(sessions, cfg, None, 2, seed=5)
        assert up.pre_fec_ber() == 0.0
        assert up.crc_failures == 0
        assert up.keys_assembled == len(sessions)   # one key per ONU in two frames
        down = run_secure_session(sessions, None, cfg, 1, seed=5)
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
        rep = run_secure_session(_two_onus(), None, ChannelConfig(), 1, seed=5,
                                 eavesdropper=eavesdropper)
        assert batches == [8] * (2 if eavesdropper else 1)
        assert rep.post_fec_ber() == 0.0

    @pytest.mark.parametrize("eavesdropper", [False, True])
    def test_only_legitimate_unconverged_codewords_counted(self, monkeypatch,
                                                           eavesdropper):
        """A decoder that leaves one row of every call unconverged: the
        legitimate tap's row counts once per frame, the eavesdropper's
        never."""
        decode = LdpcCode.decode_batch

        def one_stuck_row(code, llrs, *args, **kwargs):
            hard, iters, converged = decode(code, llrs, *args, **kwargs)
            converged[0] = False
            return hard, iters, converged

        monkeypatch.setattr(LdpcCode, "decode_batch", one_stuck_row)
        rep = run_secure_session(_two_onus(), None, ChannelConfig(), 2, seed=5,
                                 eavesdropper=eavesdropper)
        assert rep.stuck_codewords == 2
        assert rep.post_fec_ber() == 0.0

    def test_eavesdropper_is_read_only(self):
        """The tap decrypts with a made-up key and touches no session
        state: with it on or off, the legitimate run is the same."""
        cfg = ChannelConfig(snr_db=OP_SNR_AGG, linewidth_hz=1e5)
        runs = []
        for eavesdropper in (False, True):
            sessions = _two_onus()
            rep = run_secure_session(sessions, cfg, cfg, 2, seed=5, eavesdropper=eavesdropper)
            runs.append((rep.frame_metrics, rep.rotations, rep.stuck_codewords,
                         rep.desynchronized_frames,
                         [(s.codeword_counter, store.active_key.seq, store.pending_seqs())
                          for s in sessions for store in (s.onu_store, s.olt_store)]))
        assert rep.eavesdropper_bits == rep.post_bits_transmitted > 0
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("tap", [seeds.DS_CHANNEL, seeds.TAP_CHANNEL],
                             ids=["legitimate", "eavesdropper"])
    def test_missing_tap_row_fails_validation(self, monkeypatch, tap):
        """Both receivers count the data bits of the rows they compared,
        so a row the decoder never returns on either tap fails validation."""
        receive_tap = protocol._receive_tap

        def drop_last_row(clean, sessions, cfg, path):
            received, rows, converged = receive_tap(clean, sessions, cfg, path)
            return received, rows[:-1] if path[1] == tap else rows, converged

        monkeypatch.setattr(protocol, "_receive_tap", drop_last_row)
        with pytest.raises(AssertionError, match="transmitted"):
            run_secure_session(_two_onus(), None, ChannelConfig(), 1, seed=5,
                               eavesdropper=True)

    def test_eavesdropper_agreement_is_coin_flip_when_noiseless(self):
        sessions = _two_onus()
        rep = run_secure_session(sessions, None, ChannelConfig(), 2, seed=5,
                                 eavesdropper=True)
        assert rep.eavesdropper_bits >= 200_000
        assert 0.49 < rep.eavesdropper_agreement() < 0.51

    def test_eavesdropper_agreement_is_coin_flip_when_noisy(self):
        sessions = _two_onus()
        cfg = ChannelConfig(snr_db=OP_SNR_AGG, linewidth_hz=1e5)
        rep = run_secure_session(sessions, None, cfg, 1, seed=5, eavesdropper=True)
        assert 0.48 < rep.eavesdropper_agreement() < 0.52


class TestSecureSession:
    def test_rotation_through_inband_echo(self):
        sessions = _two_onus()
        rep = run_secure_session(sessions, ChannelConfig(), ChannelConfig(),
                                 4, seed=5)
        assert rep.keys_assembled == 4
        assert rep.rotations == 4           # ONU-side activations, two per ONU
        assert rep.post_fec_ber() == 0.0
        assert active_keys_synchronized(sessions)
        assert {s.onu_store.active_key.seq for s in sessions} == {2}

    def test_loss_injection_never_desynchronizes(self):
        """The runner checks agreement after every superframe."""
        sessions = _two_onus()
        rep = run_secure_session(sessions, ChannelConfig(snr_db=OP_SNR_AGG + 6),
                                 ChannelConfig(), 6, seed=5,
                                 loss_probability=0.5)
        assert rep.fragments_lost > 0
        assert rep.key_mismatches == 0
        assert rep.desynchronized_frames == 0
        assert active_keys_synchronized(sessions)

    @staticmethod
    def _key_channels(onu_ids, loss_probability, n_fragments):
        """Key-channel outcomes of an upstream-only run and of a full
        superframe run over the same upstream channel and sessions, long
        enough for at least ``n_fragments`` key fragments.

        At 8.8 dB per subcarrier a fragment fails its CRC with probability
        p of about 0.7 (250 of 360 fragments with two ONUs, 122 of 180
        with one); the tests take p >= 0.6."""
        def key_channel(rep, sessions):
            return (rep.crc_failures, rep.fragments_lost, rep.keys_assembled,
                    rep.key_mismatches, [s.olt_store.next_seq for s in sessions])

        n_frames = -(-n_fragments // len(onu_ids))
        us_cfg = ChannelConfig(snr_db=aggregate_snr_db(8.8),
                               linewidth_hz=1e5)
        up_sessions = make_sessions(allocate_tfdma(onu_ids), seed=3)
        keydist = run_secure_session(up_sessions, us_cfg, None, n_frames, seed=3,
                                     loss_probability=loss_probability)
        sf_sessions = make_sessions(allocate_tfdma(onu_ids), seed=3)
        secure = run_secure_session(sf_sessions, us_cfg, ChannelConfig(), n_frames, seed=3,
                                    loss_probability=loss_probability)
        return keydist, key_channel(keydist, up_sessions), key_channel(secure, sf_sessions)

    @pytest.mark.parametrize("onu_ids", [["onu1", "onu2"], ["onu1"]])
    def test_key_channel_matches_upstream_keydist(self, onu_ids):
        """The superframe's upstream half is the keydist frame: near the
        key channel's CRC waterfall both count the same fragment outcomes
        and leave each OLT expecting the same next key, also when one ONU
        holds every subcarrier.  8 fragments all pass their CRC with
        probability at most 0.4**8 = 6.6e-4."""
        keydist, upstream, superframe = self._key_channels(onu_ids, 0.0, 8)
        assert keydist.crc_failures > 0
        assert keydist.fragments_lost == 0
        assert superframe == upstream

    @pytest.mark.parametrize("onu_ids", [["onu1", "onu2"], ["onu1"]])
    def test_key_channel_matches_upstream_keydist_under_loss(self, onu_ids):
        """The same agreement holds when fragments are lost.  Of 18
        fragments none is lost with probability 0.6**18 = 1.0e-4, and none
        fails its CRC with probability at most (1 - 0.6 * 0.6)**18 =
        3.3e-4."""
        keydist, upstream, superframe = self._key_channels(onu_ids, 0.4, 18)
        assert keydist.crc_failures > 0
        assert keydist.fragments_lost > 0
        assert superframe == upstream

    def test_session_state_bookkeeping(self):
        sessions = _two_onus()
        run_secure_session(sessions, ChannelConfig(), ChannelConfig(),
                           2, seed=5)
        for s in sessions:
            assert s.codeword_counter == 8


class TestSeedTree:
    @staticmethod
    def _channel_draws(seed, monkeypatch):
        """Per channel call of one superframe with the eavesdropper on: the
        phase each phase-only pass applies, and the noise each noise pass
        adds.  The downstream runs without noise, so its phase and the
        tap's read back exactly."""
        phases, noises = [], []
        apply_channel, add_awgn = protocol.apply_channel, protocol.add_awgn

        def traced_channel(stream, cfg, *args, **kwargs):
            out = apply_channel(stream, cfg, *args, **kwargs)
            phases.append(np.angle(out.symbols * np.conj(stream.symbols)))
            return out

        def traced_awgn(stream, *args, **kwargs):
            out = add_awgn(stream, *args, **kwargs)
            noises.append(out.symbols - stream.symbols)
            return out

        monkeypatch.setattr(protocol, "apply_channel", traced_channel)
        monkeypatch.setattr(protocol, "add_awgn", traced_awgn)
        run_secure_session(_two_onus(seed), ChannelConfig(snr_db=OP_SNR_AGG, linewidth_hz=1e5),
                           ChannelConfig(linewidth_hz=1e5), 1, seed=seed, eavesdropper=True)
        monkeypatch.undo()
        return phases, noises

    def test_master_seed_reaches_every_channel_draw(self, monkeypatch):
        """Two master seeds draw different laser walks (two upstream
        bursts, the downstream and the tap) and uncorrelated noise at the
        OLT (|rho| ~ 1/sqrt(n) ~ 0.004 for independent draws)."""
        phases_a, noises_a = self._channel_draws(5, monkeypatch)
        phases_b, noises_b = self._channel_draws(6, monkeypatch)
        assert len(phases_a) == len(phases_b) == 4
        assert len(noises_a) == len(noises_b) == 1
        for a, b in zip(phases_a, phases_b):
            assert not np.allclose(np.exp(1j * a), np.exp(1j * b), rtol=0, atol=1e-3)
        for a, b in zip(noises_a, noises_b):
            rho = np.abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert rho < 0.05


class TestBandwidthPowerTradeoff:
    def test_doubling_subcarriers_doubles_total_power(self):
        """FDMA scaling: occupying four subcarriers instead of two costs
        3 dB of launch power at fixed per-subcarrier SNR."""
        rng = np.random.default_rng(47)
        n = 50_000
        def qpsk():
            return SymbolStream(np.exp(1j * (np.pi / 4 + rng.integers(0, 4, n)
                                             * np.pi / 2)), SUBCARRIER_BAUD)
        zero = SymbolStream(np.zeros(n, dtype=complex), SUBCARRIER_BAUD)
        two = mux([qpsk(), qpsk(), zero, zero]).symbols
        four = mux([qpsk() for _ in range(4)]).symbols
        ratio = np.mean(np.abs(four) ** 2) / np.mean(np.abs(two) ** 2)
        assert 10 * np.log10(ratio) == pytest.approx(3.01, abs=0.05)

    def test_per_sc_snr_equal_under_fixed_noise_density(self):
        rng = np.random.default_rng(53)
        n = 50_000
        def qpsk():
            return SymbolStream(np.exp(1j * (np.pi / 4 + rng.integers(0, 4, n)
                                             * np.pi / 2)), SUBCARRIER_BAUD)
        zero = SymbolStream(np.zeros(n, dtype=complex), SUBCARRIER_BAUD)
        s0 = qpsk()
        two = mux([s0, qpsk(), zero, zero])
        f2 = qpsk()
        four = mux([qpsk(), qpsk(), f2, qpsk()])
        sigma2 = 1e-3
        noise = (rng.normal(size=n * SAMPLES_PER_SYMBOL)
                 + 1j * rng.normal(size=n * SAMPLES_PER_SYMBOL)) * np.sqrt(sigma2 / 2)
        got = []
        for wave, sc, tx in ((two, 0, s0), (four, 2, f2)):
            noisy = SymbolStream(wave.symbols + noise, wave.symbol_rate_hz)
            back = demux_select(noisy, sc)
            nv = np.mean(np.abs(back.symbols - tx.symbols) ** 2)
            got.append(10 * np.log10(1.0 / nv))
        assert got[0] == pytest.approx(got[1], abs=0.1)
