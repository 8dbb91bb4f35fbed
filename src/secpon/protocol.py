"""OLT/ONU session machinery: one frame chain carrying key distribution
upstream and encrypted broadcast downstream, plus subcarrier allocation.

Link.  The link is fixed, as in the paper, and each module owns its
share as module constants: ``secpon.dscm`` the four DSCM subcarriers,
``secpon.fec_polar`` the (512, 256) polar key code (``POLAR``) and
``secpon.fec_ldpc`` the LDPC payload code, built on first use by
``default_code()``.  This module adds the GCS-PAM4 pilot shape
(``PILOT``) and the upstream and downstream frame layouts
(``UPSTREAM``, ``DOWNSTREAM``).  The one runner, ``run_secure_session``,
takes only the channel of each direction, the frame count and the run
switches.  A session needs two subcarriers, because one key codeword
rides the pilots of both.

Frame chain.  Every frame, in either direction, takes one path:
``transmit_subcarrier`` builds each subcarrier's frame (QPSK training,
shaped pilots whose first bit is the pre-shared sign and whose second
bit carries a key or filler bit, 16QAM payload), ``mux`` stacks the
subcarriers, the channel impairs the aggregate, ``demux_select`` selects
a subcarrier, and ``receive_subcarrier`` recovers the carrier phase of
that single-carrier frame from its pilots.  The record it returns
(``rxdsp.CprResult``) carries the noise variance that scales the
downstream payload LLRs, estimated once from the recovered payload.
Upstream, each ONU's burst passes its own laser before the bursts sum
at the OLT under one noise loading.  Downstream, each tap is one receive
step: a channel draw, every ONU received, one LDPC call.  The
eavesdropper's tap decrypts with a made-up key and reads no session
state; its bit agreement is the security figure the reports carry.

Key lifecycle.  Each ONU draws its own 256-bit session key and sends it
upstream as two CRC-protected fragments riding the magnitude bits of the
shaped pilots (one polar codeword per frame, spread over the ONU's two
key subcarriers).  The OLT assembles the fragments and acknowledges
implicitly: every downstream codeword starts with a one-byte control
field, inside the encrypted envelope, echoing the lowest key sequence
number the OLT holds pending.  Both ends switch to the echoed key at
the next codeword boundary, so activation stays synchronized as long as
the downstream FEC runs error-free, which is its operating point.  A
fragment that fails its CRC is simply dropped and retransmitted on the
next cadence; no activation can happen without a valid CRC on both
fragments and a decrypted echo, which is what keeps a lossy control
channel from ever desynchronizing the two stores.

Reports.  A run returns a ``SessionReport``: one ``FrameMetrics`` row
per subcarrier and frame of the reported direction, which the session
experiments write as their CSV, and counters for the key channel (keys
assembled, CRC failures, lost fragments, key mismatches, rotations,
frames that ended with the two stores on different active keys), the
eavesdropper and the legitimate downstream codewords the LDPC decoder
left unconverged.  The key-channel counters are its whole record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rxdsp, seeds
from .channel import ChannelConfig, add_awgn, apply_channel
from .crypto import (
    KeyFragmentMessage,
    KeyStore,
    SessionKey,
    aes256_decrypt,
    aes256_encrypt,
    assemble_key,
    byte_from_bits,
    byte_to_bits,
    random_session_key,
    split_key,
)
from .dscm import N_SUBCARRIERS, SAMPLE_RATE, SUBCARRIER_BAUD, demux_select, mux
from .fec_ldpc import LDPC_K, LDPC_N, default_code
from .fec_polar import POLAR, KeyCodeword, polar_decode_scl
from .framing import (
    FrameLayout,
    GcsPilotParams,
    SymbolStream,
    assemble_frame,
    demap_payload_16qam,
    demap_pilot_llrs,
    map_payload_16qam,
    map_pilot,
    payload_llrs_16qam,
    pilot_phase_reference,
    qpsk_training,
    upstream_layout,
    downstream_layout,
)

PILOT = GcsPilotParams()
UPSTREAM = upstream_layout()
DOWNSTREAM = downstream_layout()

ECHO_NONE = 255                     # control byte meaning "nothing pending"
# 16QAM carries 4 bits a payload symbol: 8640 symbols = 2 LDPC codewords
CODEWORDS_PER_SC_PER_FRAME = 4 * DOWNSTREAM.payload_len // LDPC_N
DATA_BITS_PER_CODEWORD = LDPC_K - 8  # one control byte leads each plaintext


def allocate_tfdma(onu_ids: list[str]) -> dict[str, tuple[int, ...]]:
    """Hand each ONU a contiguous block of the subcarriers (pure FDMA);
    every ONU sends in every frame."""
    if not onu_ids:
        raise ValueError("need at least one ONU")
    if len(set(onu_ids)) != len(onu_ids):
        raise ValueError("duplicate ONU ids")
    if len(onu_ids) > N_SUBCARRIERS:
        raise ValueError(f"{len(onu_ids)} ONUs oversubscribe {N_SUBCARRIERS} subcarriers")
    share, extra = divmod(N_SUBCARRIERS, len(onu_ids))
    allocation = {}
    start = 0
    for i, onu in enumerate(onu_ids):
        stop = start + share + (1 if i < extra else 0)
        allocation[onu] = tuple(range(start, stop))
        start = stop
    return allocation


@dataclass
class OnuSession:
    """Per-ONU state shared by the upstream and downstream frames.

    Key state lives in the two stores: the ONU sends fragments of its
    store's pending key and the OLT expects its store's next sequence
    number.  ``tx_phase`` is the fragment half the ONU sends next and
    ``rx_fragments`` the halves the OLT holds so far.
    """

    onu_id: str
    subcarriers: tuple[int, ...]
    onu_store: KeyStore
    olt_store: KeyStore
    codeword_counter: int = 0
    tx_phase: int = 0
    rx_fragments: dict[int, KeyFragmentMessage] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.subcarriers = tuple(sorted(self.subcarriers))
        budget = UPSTREAM.n_pilots * len(self.key_subcarriers)
        if budget < POLAR.block_length:
            raise ValueError(f"{self.onu_id}: pilot budget {budget} cannot carry "
                             f"{POLAR.block_length} coded key bits per frame")

    @property
    def key_subcarriers(self) -> tuple[int, ...]:
        """The (up to two) subcarriers whose pilots carry key fragments."""
        return self.subcarriers[:2]


def make_sessions(allocation: dict[str, tuple[int, ...]],
                  seed: int = 0) -> list[OnuSession]:
    """Build sessions from an allocation and provision the initial key.

    Sequence 0 is the pre-shared registration key, active from codeword 0
    on both sides; in-session distribution starts at sequence 1.
    """
    seen: set[int] = set()
    for scs in allocation.values():
        if seen & set(scs):
            raise ValueError("subcarrier sets overlap across ONUs")
        seen |= set(scs)
    sessions = []
    for onu_id, scs in allocation.items():
        key = _session_key(seed, onu_id, 0)
        session = OnuSession(onu_id=onu_id, subcarriers=scs,
                            onu_store=KeyStore(), olt_store=KeyStore())
        for store in (session.onu_store, session.olt_store):
            store.add_pending(SessionKey(bits=key.bits.copy(), seq=0))
            store.activate(0, codeword_index=0)
        sessions.append(session)
    return sessions


def active_keys_synchronized(sessions: list[OnuSession]) -> bool:
    """True when OLT and ONU agree on the active key of every session."""
    for s in sessions:
        olt, onu = s.olt_store.active_key, s.onu_store.active_key
        if olt is None or onu is None:
            return False
        if olt.seq != onu.seq or not np.array_equal(olt.bits, onu.bits):
            return False
    return True


@dataclass
class FrameMetrics:
    """Payload counts of one subcarrier in one frame; the session
    experiments write these fields, in this order, as their CSV columns."""

    frame: int
    direction: str
    onu: str
    sc: int
    pre_bits: int
    pre_errors: int
    post_bits: int
    post_errors: int
    cycle_slips: int


@dataclass
class SessionReport:
    """Counters and per-frame metrics from one protocol run."""

    frame_metrics: list[FrameMetrics] = field(default_factory=list)
    pre_bits_transmitted: int = 0
    post_bits_transmitted: int = 0
    crc_failures: int = 0
    fragments_lost: int = 0
    keys_assembled: int = 0
    key_mismatches: int = 0
    rotations: int = 0
    desynchronized_frames: int = 0
    stuck_codewords: int = 0
    eavesdropper_bits: int = 0
    eavesdropper_errors: int = 0

    def pre_fec_ber(self) -> float:
        bits = sum(m.pre_bits for m in self.frame_metrics)
        return sum(m.pre_errors for m in self.frame_metrics) / bits if bits else float("nan")

    def post_fec_ber(self) -> float:
        bits = sum(m.post_bits for m in self.frame_metrics)
        return sum(m.post_errors for m in self.frame_metrics) / bits if bits else float("nan")

    def eavesdropper_agreement(self) -> float:
        if not self.eavesdropper_bits:
            return float("nan")
        return 1.0 - self.eavesdropper_errors / self.eavesdropper_bits

    def validate(self) -> None:
        """Every sent bit compared exactly once, data bits also at any eavesdropper."""
        pre = sum(m.pre_bits for m in self.frame_metrics)
        post = sum(m.post_bits for m in self.frame_metrics)
        if pre != self.pre_bits_transmitted or post != self.post_bits_transmitted \
                or self.eavesdropper_bits not in (0, self.post_bits_transmitted):
            raise AssertionError(
                f"compared {pre}/{post}/{self.eavesdropper_bits} bits but transmitted "
                f"{self.pre_bits_transmitted}/{self.post_bits_transmitted}")


def _session_key(seed: int, onu_id: str, seq: int) -> SessionKey:
    """Key ``seq`` of an ONU; sequence 0 is its registration key."""
    return random_session_key(seq, seeds.stream(seed, seeds.KEY, seeds.label(onu_id), seq))


def _bits(path: tuple[int, ...], n: int) -> np.ndarray:
    """``n`` uniform bits from ``seeds.stream(*path)``."""
    return seeds.stream(*path).integers(0, 2, n).astype(np.uint8)


def transmit_subcarrier(signs: np.ndarray, second_bits: np.ndarray,
                        payload_bits: np.ndarray, train_path: tuple[int, ...],
                        layout: FrameLayout, pilot_params: GcsPilotParams) -> np.ndarray:
    """One subcarrier's frame: QPSK training from ``train_path``, shaped
    pilots whose first bit is the pre-shared sign and whose second bit
    carries a key or filler bit, then Gray 16QAM payload."""
    return assemble_frame(qpsk_training(layout.training_len, train_path),
                          map_pilot(signs, second_bits, pilot_params),
                          map_payload_16qam(payload_bits), layout)


def receive_subcarrier(frame: np.ndarray, signs: np.ndarray,
                       layout: FrameLayout) -> rxdsp.CprResult:
    """Recover one single-carrier frame, at the symbol rate, against its
    pilot sign bits."""
    return rxdsp.recover_carrier_phase(frame[layout.training_len:], layout,
                                       pilot_phase_reference(signs))


def _mux_frames(frames: dict[int, np.ndarray]) -> SymbolStream:
    """DSCM aggregate of the given subcarrier frames; the rest stay dark."""
    dark = np.zeros_like(next(iter(frames.values())))
    return mux([SymbolStream(frames.get(sc, dark), SUBCARRIER_BAUD)
                for sc in range(N_SUBCARRIERS)])


def _receive_onu(rx: SymbolStream, session: OnuSession, layout: FrameLayout,
                 seed: int, frame: int, cfg: ChannelConfig) -> dict[int, rxdsp.CprResult]:
    """Receive every subcarrier of one ONU, after correcting its offset."""
    if cfg.freq_offset_hz:
        rx = _correct_onu_offset(rx, session, layout, seed, frame)
    return {sc: receive_subcarrier(demux_select(rx, sc).symbols,
                                   _bits((seed, seeds.SIGNS, frame, sc), layout.n_pilots),
                                   layout)
            for sc in session.subcarriers}


def _correct_onu_offset(aggregate: SymbolStream, session: OnuSession,
                        layout: FrameLayout, seed: int, frame: int) -> SymbolStream:
    """Estimate the ONU's carrier offset on one training prefix and
    derotate the aggregate before selecting its subcarriers."""
    sc = session.subcarriers[0]
    coarse = demux_select(aggregate, sc)
    train = qpsk_training(layout.training_len, (seed, seeds.TRAIN, frame, sc))
    est = rxdsp.estimate_frequency_offset(
        coarse.symbols[:layout.training_len], train, SUBCARRIER_BAUD)
    fixed = rxdsp.correct_frequency_offset(aggregate.symbols, est, SAMPLE_RATE)
    return SymbolStream(fixed, aggregate.symbol_rate_hz)


def _start_fragment_cycle(session: OnuSession, seed: int) -> None:
    if session.onu_store.pending_key is None:
        seq = session.onu_store.next_seq
        session.onu_store.add_pending(_session_key(seed, session.onu_id, seq))
        session.tx_phase = 0


def _upstream_frame(sessions, cfg, f, seed, loss_probability,
                    report) -> tuple[list[FrameMetrics], int]:
    """One upstream frame; returns the payload metrics per subcarrier
    and the number of payload bits sent.

    Each ONU sends one polar-coded key fragment on the pilot magnitude
    bits of its two key subcarriers and uncoded 16QAM payload on all of
    its subcarriers.  Each ONU's burst passes through its own laser's
    phase-noise channel; the bursts sum at the OLT where a single noise
    loading applies.  The OLT decodes every fragment that was not lost
    in one batch and takes them in CRC-gated; activation is left to the
    caller.
    """
    n = UPSTREAM.n_pilots
    laser = ChannelConfig(snr_db=None, linewidth_hz=cfg.linewidth_hz,
                          freq_offset_hz=cfg.freq_offset_hz)
    sent: list[dict[int, np.ndarray]] = []
    onu_waves = []
    for idx, session in enumerate(sessions):
        _start_fragment_cycle(session, seed)
        key = session.onu_store.pending_key
        fragment = split_key(key.bits, key.seq)[session.tx_phase]
        coded = KeyCodeword.from_payload(fragment.to_bits(), POLAR).coded_bits
        key_bits = np.zeros(n * len(session.key_subcarriers), dtype=np.uint8)
        key_bits[:coded.size] = coded
        tx: dict[int, np.ndarray] = {}
        frames = {}
        for j, sc in enumerate(session.subcarriers):
            if sc in session.key_subcarriers:
                second = key_bits[j * n:(j + 1) * n]
            else:
                second = _bits((seed, seeds.PILOT2, f, sc), n)
            tx[sc] = _bits((seed, seeds.US_DATA, f, sc), 4 * UPSTREAM.payload_len)
            frames[sc] = transmit_subcarrier(_bits((seed, seeds.SIGNS, f, sc), n), second,
                                             tx[sc], (seed, seeds.TRAIN, f, sc),
                                             UPSTREAM, PILOT)
        sent.append(tx)
        onu_waves.append(apply_channel(_mux_frames(frames), laser,
                                       (seed, seeds.US_LASER, f, idx)))

    total = SymbolStream(np.sum([w.symbols for w in onu_waves], axis=0), SAMPLE_RATE)
    if cfg.snr_db is not None:
        total = add_awgn(total, cfg.snr_db, (seed, seeds.US_NOISE, f))

    metrics = []
    llrs = []
    for session, tx in zip(sessions, sent):
        received = _receive_onu(total, session, UPSTREAM, seed, f, cfg)
        for sc, got in received.items():
            pre_errors = int(np.count_nonzero(demap_payload_16qam(got.payload) != tx[sc]))
            metrics.append(FrameMetrics(f, "us", session.onu_id, sc, tx[sc].size,
                                        pre_errors, 0, 0, got.cycle_slips))
        pilots = np.concatenate([received[sc].pilots for sc in session.key_subcarriers])
        llrs.append(demap_pilot_llrs(pilots[:POLAR.block_length], PILOT))
    lost = [bool(loss_probability) and seeds.stream(
                seed, seeds.LOSS, f, seeds.label(s.onu_id)).random() < loss_probability
            for s in sessions]
    kept = [row for row, gone in zip(llrs, lost) if not gone]
    decoded = zip(*polar_decode_scl(np.stack(kept), POLAR)) if kept else iter(())
    for session, gone in zip(sessions, lost):
        _receive_fragment(session, None if gone else next(decoded), report)
    return metrics, sum(bits.size for tx in sent for bits in tx.values())


def _receive_fragment(session: OnuSession, decoded: tuple[np.ndarray, bool] | None,
                      report: SessionReport) -> None:
    """CRC-gated fragment intake on the OLT side of one session.

    ``decoded`` is the polar decoder's (payload, CRC flag) for the
    session's fragment, or None when the fragment was lost.  A fragment
    that passes its CRC but carries a sequence number other than the one
    the OLT expects next is dropped.
    """
    if decoded is None:
        report.fragments_lost += 1
    else:
        payload, crc_ok = decoded
        try:
            msg = KeyFragmentMessage.from_bits(payload) if crc_ok else None
        except ValueError:          # nonzero padding under a passing CRC
            msg = None
        if msg is None:
            report.crc_failures += 1
        elif msg.seq == session.olt_store.next_seq:
            session.rx_fragments[msg.fragment_index] = msg
    if len(session.rx_fragments) == 2:
        key = assemble_key(session.rx_fragments[0], session.rx_fragments[1])
        session.rx_fragments.clear()
        report.keys_assembled += 1
        if not np.array_equal(key.bits, session.onu_store.pending_key.bits):
            report.key_mismatches += 1
        session.olt_store.add_pending(key)
    else:
        # cadence over with fragments missing: resend the pair
        session.tx_phase ^= 1


def _ideal_ack_activation(session: OnuSession, boundary: int,
                          report: SessionReport) -> None:
    pending = session.olt_store.pending_seqs()
    if not pending:
        return
    seq = pending[0]
    session.olt_store.activate(seq, boundary)
    session.onu_store.activate(seq, boundary)
    report.rotations += 1


def _receive_tap(clean: SymbolStream, sessions: list[OnuSession], cfg: ChannelConfig,
                 path: tuple[int, ...]) -> tuple[list[dict], np.ndarray, np.ndarray]:
    """One downstream tap: a channel draw from ``path`` = (seed, tap, frame),
    each session's reception records, then one LDPC call's information rows
    and convergence flags in session, subcarrier, codeword order."""
    seed, _, frame = path
    rx = apply_channel(clean, cfg, path)
    received = [_receive_onu(rx, s, DOWNSTREAM, seed, frame, cfg) for s in sessions]
    llrs = [payload_llrs_16qam(got.payload, got.noise_var)
            for by_sc in received for got in by_sc.values()]
    hard, _, converged = default_code().decode_batch(np.concatenate(llrs).reshape(-1, LDPC_N))
    return received, hard[:, :LDPC_K], converged


def _downstream_frame(sessions, cfg, f, seed, eavesdropper, report) -> None:
    """One broadcast frame: encrypt, LDPC-encode and send every ONU's
    codewords, then account for them at each ONU with its own keys and,
    with ``eavesdropper``, on a tapped copy with a made-up key."""
    ldpc = default_code()
    n, k = DOWNSTREAM.n_pilots, CODEWORDS_PER_SC_PER_FRAME
    frames: dict[int, np.ndarray] = {}
    coded: dict[int, np.ndarray] = {}
    sent: list[tuple[OnuSession, int, np.ndarray]] = []   # in decoder row order
    for session in sessions:
        for sc in session.subcarriers:
            words = []
            for _ in range(k):
                c = session.codeword_counter
                echo = (session.olt_store.pending_seqs() or [ECHO_NONE])[0]
                data = _bits((seed, seeds.DATA, seeds.label(session.onu_id), c),
                             DATA_BITS_PER_CODEWORD)
                key = session.olt_store.consume(c)
                cipher = aes256_encrypt(np.concatenate([byte_to_bits(echo), data]), key, c)
                words.append(ldpc.encode(cipher))
                sent.append((session, c, data))
                report.pre_bits_transmitted += words[-1].size
                report.post_bits_transmitted += data.size
                session.codeword_counter += 1
                if echo != ECHO_NONE:
                    session.olt_store.activate(echo, c + 1)
            coded[sc] = np.concatenate(words)
            frames[sc] = transmit_subcarrier(
                _bits((seed, seeds.SIGNS, f, sc), n), _bits((seed, seeds.PILOT2, f, sc), n),
                coded[sc], (seed, seeds.TRAIN, f, sc), DOWNSTREAM, PILOT)
    clean = _mux_frames(frames)

    received, rows, converged = _receive_tap(clean, sessions, cfg, (seed, seeds.DS_CHANNEL, f))
    report.stuck_codewords += int(np.count_nonzero(~converged))
    errors = []
    for (session, c, data), row in zip(sent, rows):
        decrypted = aes256_decrypt(row, session.onu_store.consume(c), c)
        errors.append(int(np.count_nonzero(decrypted[8:] != data)))
        echo = byte_from_bits(decrypted[:8])
        if echo != ECHO_NONE and echo in session.onu_store.pending_seqs():
            session.onu_store.activate(echo, c + 1)
            report.rotations += 1
    for session, by_sc in zip(sessions, received):
        for sc, got in by_sc.items():
            compared, errors = errors[:k], errors[k:]
            pre_errors = int(np.count_nonzero(demap_payload_16qam(got.payload) != coded[sc]))
            report.frame_metrics.append(FrameMetrics(
                f, "ds", session.onu_id, sc, coded[sc].size, pre_errors,
                len(compared) * DATA_BITS_PER_CODEWORD, sum(compared), got.cycle_slips))

    if eavesdropper:
        # the tapped copy has the legitimate channel's statistics, not its draws
        key = random_session_key(0, seeds.stream(seed, seeds.EVE_KEY))
        _, rows, _ = _receive_tap(clean, sessions, cfg, (seed, seeds.TAP_CHANNEL, f))
        for (_, c, data), row in zip(sent, rows):
            report.eavesdropper_bits += data.size
            report.eavesdropper_errors += int(np.count_nonzero(
                aes256_decrypt(row, key, c)[8:] != data))


def run_secure_session(sessions: list[OnuSession], us_cfg: ChannelConfig | None,
                       ds_cfg: ChannelConfig | None, n_frames: int, *,
                       seed: int = 0, loss_probability: float = 0.0,
                       eavesdropper: bool = False) -> SessionReport:
    """Run ``n_frames`` frames of key distribution, encrypted downstream,
    or both alternating.

    Each frame is one upstream frame on ``us_cfg``, then one downstream
    frame on ``ds_cfg``; a direction whose channel is None is skipped.
    Every draw, the channels' included, comes from the seed tree under
    ``seed`` (``secpon.seeds``).
    Upstream alone reports its payload metrics and models an
    out-of-band acknowledgment: both stores switch at the frame boundary
    after assembly.  With a downstream, every session needs an active key
    on both stores, and activation happens only through the in-band
    echo: the OLT announces a pending key in the next downstream
    codeword and both stores rotate at the boundary after it; the
    upstream metrics are then not reported.  Every frame after which OLT
    and ONU disagree on an active key counts as desynchronized.
    """
    if us_cfg is None and ds_cfg is None:
        raise ValueError("a session needs an upstream or a downstream channel")
    if ds_cfg is not None:
        for s in sessions:
            if s.olt_store.active_key is None or s.onu_store.active_key is None:
                raise ValueError(f"{s.onu_id}: downstream needs an active key on both sides")
    report = SessionReport()
    for f in range(n_frames):
        if us_cfg is not None:
            metrics, sent_bits = _upstream_frame(sessions, us_cfg, f, seed,
                                                 loss_probability, report)
            if ds_cfg is None:
                report.frame_metrics += metrics
                report.pre_bits_transmitted += sent_bits
                for session in sessions:
                    _ideal_ack_activation(session, session.codeword_counter, report)
        if ds_cfg is not None:
            _downstream_frame(sessions, ds_cfg, f, seed, eavesdropper, report)
        if not active_keys_synchronized(sessions):
            report.desynchronized_frames += 1
    report.validate()
    return report
