"""OLT/ONU session machinery: one frame chain carrying key distribution
upstream and encrypted broadcast downstream, plus subcarrier allocation.

Link.  The link is fixed, as in the paper: one GCS-PAM4 pilot shape
(``PILOT``), four DSCM subcarriers (``PLAN``), the upstream and
downstream frame layouts (``UPSTREAM``, ``DOWNSTREAM``) and the
(512, 256) polar key code (``POLAR``); the LDPC payload code is built on
first use by ``default_code()``.  The runners take only the channel,
the frame count and the run switches.  A session needs two subcarriers,
because one key codeword rides the pilots of both.

Frame chain.  Every frame, in either direction, takes one path:
``transmit_subcarrier`` builds each subcarrier's frame (QPSK training,
shaped pilots whose first bit is the pre-shared sign and whose second
bit carries a key or filler bit, 16QAM payload), ``mux`` stacks the
subcarriers, the channel impairs the aggregate, and
``receive_subcarrier`` selects a subcarrier with ``demux_select``,
recovers its carrier phase from the pilots and estimates the noise.
Upstream, each ONU's burst passes its own laser before the bursts sum
at the OLT under one noise loading.  The eavesdropper is the same
receiver on a tapped channel with a made-up key; its post-decryption
bit agreement is the security figure the reports carry.

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
"""

from __future__ import annotations

import functools
import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import rxdsp
from .channel import ChannelConfig, add_awgn, apply_channel, eavesdropper_config
from .crypto import (
    KeyFragmentMessage,
    KeyStore,
    SessionKey,
    aes256_decrypt,
    aes256_encrypt,
    assemble_key,
    random_session_key,
    split_key,
)
from .dscm import DscmPlan, demux_select, mux
from .fec_ldpc import LDPC_K, default_code
from .fec_polar import KeyCodeword, PolarCode, polar_decode_scl
from .framing import (
    FrameLayout,
    GcsPilotParams,
    SymbolStream,
    assemble_frame,
    demap_payload_16qam,
    demap_pilot_llrs,
    hard_decision_16qam,
    map_payload_16qam,
    map_pilot,
    payload_llrs_16qam,
    pilot_phase_reference,
    qpsk_training,
    upstream_layout,
    downstream_layout,
)

ECHO_NONE = 255                     # control byte meaning "nothing pending"
CODEWORDS_PER_SC_PER_FRAME = 2      # 8640 payload symbols = 2 LDPC codewords
DATA_BITS_PER_CODEWORD = LDPC_K - 8  # one control byte leads each plaintext

_KEYGEN, _SIGNS, _TRAIN, _DATA, _USDATA, _PILOT2 = 11, 13, 17, 19, 23, 29
_USPHASE, _USNOISE, _DSCHAN, _LOSS, _EVEKEY = 31, 37, 41, 43, 47

PILOT = GcsPilotParams()
PLAN = DscmPlan()
UPSTREAM = upstream_layout()
DOWNSTREAM = downstream_layout()
POLAR = PolarCode()


def _rng(seed: int, *ids: int) -> np.random.Generator:
    sub = 0
    for x in ids:
        sub = (sub * 1000003 + x) & (2 ** 64 - 1)
    return np.random.Generator(np.random.Philox(key=np.uint64([seed & (2 ** 64 - 1), sub])))


def _stable_id(name: str) -> int:
    """Process-independent small integer for seeding per-ONU streams."""
    return zlib.crc32(name.encode())


def _child_seed(seed: int, *ids: int) -> int:
    return int(_rng(seed, *ids).integers(0, 2 ** 63))


def allocate_tfdma(onu_ids: list[str]) -> dict[str, tuple[int, ...]]:
    """Hand each ONU a contiguous block of the plan's subcarriers (pure
    FDMA); every ONU sends in every frame."""
    n_subcarriers = PLAN.n_subcarriers
    if not onu_ids:
        raise ValueError("need at least one ONU")
    if len(set(onu_ids)) != len(onu_ids):
        raise ValueError("duplicate ONU ids")
    if len(onu_ids) > n_subcarriers:
        raise ValueError(f"{len(onu_ids)} ONUs oversubscribe {n_subcarriers} subcarriers")
    share, extra = divmod(n_subcarriers, len(onu_ids))
    allocation = {}
    start = 0
    for i, onu in enumerate(onu_ids):
        stop = start + share + (1 if i < extra else 0)
        allocation[onu] = tuple(range(start, stop))
        start = stop
    return allocation


@dataclass
class OnuSession:
    """Per-ONU state shared by the upstream and downstream runners.

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
    for i, (onu_id, scs) in enumerate(allocation.items()):
        bits = _rng(seed, _KEYGEN, i, 0).integers(0, 2, 256).astype(np.uint8)
        session = OnuSession(onu_id=onu_id, subcarriers=scs,
                            onu_store=KeyStore(), olt_store=KeyStore())
        for store in (session.onu_store, session.olt_store):
            store.add_pending(SessionKey(bits=bits.copy(), seq=0))
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
    frame_index: int
    direction: str
    onu_id: str
    sc_index: int
    pre_bits: int
    pre_errors: int
    post_bits: int
    post_errors: int
    cycle_slips: int


@dataclass
class KeyEventRecord:
    frame_index: int
    onu_id: str
    event: str
    seq: int
    detail: str = ""


@dataclass
class SessionReport:
    """Counters and per-frame metrics from one protocol run."""

    direction: str
    n_frames: int = 0
    frame_metrics: list[FrameMetrics] = field(default_factory=list)
    key_events: list[KeyEventRecord] = field(default_factory=list)
    pre_bits_transmitted: int = 0
    post_bits_transmitted: int = 0
    crc_failures: int = 0
    fragments_lost: int = 0
    keys_assembled: int = 0
    key_mismatches: int = 0
    rotations: int = 0
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

    def per_sc_summary(self) -> dict[int, dict[str, float]]:
        out: dict[int, dict[str, float]] = {}
        for sc in sorted({m.sc_index for m in self.frame_metrics}):
            rows = [m for m in self.frame_metrics if m.sc_index == sc]
            pre = sum(m.pre_bits for m in rows)
            post = sum(m.post_bits for m in rows)
            out[sc] = {
                "pre_fec_ber": sum(m.pre_errors for m in rows) / pre if pre else float("nan"),
                "post_fec_ber": sum(m.post_errors for m in rows) / post if post else float("nan"),
                "cycle_slips": float(sum(m.cycle_slips for m in rows)),
            }
        return out

    def validate(self) -> None:
        """Every transmitted bit must have been compared exactly once."""
        pre = sum(m.pre_bits for m in self.frame_metrics)
        post = sum(m.post_bits for m in self.frame_metrics)
        if pre != self.pre_bits_transmitted or post != self.post_bits_transmitted:
            raise AssertionError(
                f"compared {pre}/{post} bits but transmitted "
                f"{self.pre_bits_transmitted}/{self.post_bits_transmitted}")

    def to_json(self) -> str:
        def clean(x: float) -> float | None:
            return None if np.isnan(x) else x
        doc = {
            "direction": self.direction,
            "n_frames": self.n_frames,
            "pre_fec_ber": clean(self.pre_fec_ber()),
            "post_fec_ber": clean(self.post_fec_ber()),
            "crc_failures": self.crc_failures,
            "fragments_lost": self.fragments_lost,
            "keys_assembled": self.keys_assembled,
            "key_mismatches": self.key_mismatches,
            "rotations": self.rotations,
            "eavesdropper_bits": self.eavesdropper_bits,
            "eavesdropper_agreement": clean(self.eavesdropper_agreement()),
            "per_sc": {str(k): v for k, v in self.per_sc_summary().items()},
            "key_events": [
                {"frame": e.frame_index, "onu": e.onu_id, "event": e.event,
                 "seq": e.seq, "detail": e.detail}
                for e in self.key_events
            ],
        }
        return json.dumps(doc, indent=2, allow_nan=True)


def _echo_bits(value: int) -> np.ndarray:
    return np.array([(value >> (7 - i)) & 1 for i in range(8)], dtype=np.uint8)


def _echo_value(bits: np.ndarray) -> int:
    return int(np.packbits(np.asarray(bits).astype(np.uint8)[:8])[0])


def _pilot_bits(seed: int, stream: int, frame: int, sc: int, n: int) -> np.ndarray:
    """Pilot sign bits (``_SIGNS``) or magnitude filler bits (``_PILOT2``)."""
    return _rng(seed, stream, frame, sc).integers(0, 2, n).astype(np.uint8)


@dataclass
class SubcarrierReception:
    """What the receiver recovers from one subcarrier of one frame."""

    cpr: rxdsp.CprResult

    @functools.cached_property
    def noise_var(self) -> float:
        """Decision-directed noise variance over the phase-corrected
        payload, computed on first read."""
        resid = self.cpr.payload - hard_decision_16qam(self.cpr.payload)
        return max(float(np.mean(np.abs(resid) ** 2)), 1e-12)


def transmit_subcarrier(signs: np.ndarray, second_bits: np.ndarray,
                        payload_bits: np.ndarray, train_seed: int,
                        layout: FrameLayout, pilot_params: GcsPilotParams) -> np.ndarray:
    """One subcarrier's frame: QPSK training, shaped pilots whose first
    bit is the pre-shared sign and whose second bit carries a key or
    filler bit, then Gray 16QAM payload."""
    return assemble_frame(qpsk_training(layout.training_len, train_seed),
                          map_pilot(signs, second_bits, pilot_params),
                          map_payload_16qam(payload_bits), layout)


def receive_subcarrier(rx: SymbolStream, signs: np.ndarray, layout: FrameLayout,
                       sc: int | None = None) -> SubcarrierReception:
    """Recover one subcarrier's frame against its pilot sign bits.

    Subcarrier ``sc`` is first selected out of the DSCM aggregate ``rx``;
    with ``sc=None``, ``rx`` already holds a single-carrier frame at the
    symbol rate.
    """
    frame = rx.symbols if sc is None else demux_select(rx, sc, PLAN).symbols
    return SubcarrierReception(rxdsp.recover_carrier_phase(
        frame[layout.training_len:], layout, pilot_phase_reference(signs)))


def _mux_frames(frames: dict[int, np.ndarray]) -> SymbolStream:
    """DSCM aggregate of the given subcarrier frames; the rest stay dark."""
    dark = np.zeros_like(next(iter(frames.values())))
    return mux([SymbolStream(frames.get(sc, dark), PLAN.baud_per_sc)
                for sc in range(PLAN.n_subcarriers)], PLAN)


def _receive_onu(rx: SymbolStream, session: OnuSession, layout: FrameLayout,
                 seed: int, frame: int, cfg: ChannelConfig) -> dict[int, SubcarrierReception]:
    """Receive every subcarrier of one ONU, after correcting its offset."""
    if cfg.freq_offset_hz:
        rx = _correct_onu_offset(rx, session, layout, seed, frame)
    return {sc: receive_subcarrier(rx, _pilot_bits(seed, _SIGNS, frame, sc, layout.n_pilots),
                                   layout, sc)
            for sc in session.subcarriers}


def _correct_onu_offset(aggregate: SymbolStream, session: OnuSession,
                        layout: FrameLayout, seed: int, frame: int) -> SymbolStream:
    """Estimate the ONU's carrier offset on one training prefix and
    derotate the aggregate before selecting its subcarriers."""
    sc = session.subcarriers[0]
    coarse = demux_select(aggregate, sc, PLAN)
    train = qpsk_training(layout.training_len, _child_seed(seed, _TRAIN, frame, sc))
    est = rxdsp.estimate_frequency_offset(
        coarse.symbols[:layout.training_len], train, PLAN.baud_per_sc)
    fixed = rxdsp.correct_frequency_offset(
        aggregate.symbols, est, PLAN.sample_rate_hz)
    return SymbolStream(fixed, aggregate.symbol_rate_hz)


def _start_fragment_cycle(session: OnuSession, seed: int, frame: int,
                          report: SessionReport) -> None:
    if session.onu_store.pending_key is None:
        seq = session.onu_store.next_seq
        key = random_session_key(seq, _rng(seed, _KEYGEN, _stable_id(session.onu_id), seq, 1))
        session.onu_store.add_pending(key)
        session.tx_phase = 0
        report.key_events.append(KeyEventRecord(frame, session.onu_id,
                                                "key_generated", key.seq))


def run_upstream_keydist(sessions: list[OnuSession], cfg: ChannelConfig,
                         n_frames: int, *, seed: int = 0,
                         loss_probability: float = 0.0) -> SessionReport:
    """Distribute session keys upstream over the pilot magnitude bits.

    Runs ``n_frames`` upstream frames (see ``_upstream_frame``) and
    reports their pre-FEC payload metrics.  Activation here models an
    out-of-band acknowledgment: both stores switch at the frame boundary
    after assembly (the in-band echo path lives in the downstream
    runner).
    """
    report = SessionReport(direction="upstream", n_frames=n_frames)
    for f in range(n_frames):
        metrics = _upstream_frame(sessions, cfg, f, seed, loss_probability, report)
        report.frame_metrics += metrics
        report.pre_bits_transmitted += sum(m.pre_bits for m in metrics)
        for session in sessions:
            _ideal_ack_activation(session, session.codeword_counter, f, report)
        report.n_frames = f + 1
    report.validate()
    return report


def _upstream_frame(sessions, cfg, f, seed, loss_probability, report) -> list[FrameMetrics]:
    """One upstream frame; returns the payload metrics per subcarrier.

    Each ONU sends one polar-coded key fragment on the pilot magnitude
    bits of its two key subcarriers and uncoded 16QAM payload on all of
    its subcarriers.  Each ONU's burst passes through its own laser's
    phase-noise channel; the bursts sum at the OLT where a single noise
    loading applies.  The OLT decodes every fragment that was not lost
    in one batch and takes them in CRC-gated; activation is left to the
    caller.
    """
    n = UPSTREAM.n_pilots
    sent: list[dict[int, np.ndarray]] = []
    onu_waves = []
    for idx, session in enumerate(sessions):
        _start_fragment_cycle(session, seed, f, report)
        key = session.onu_store.pending_key
        fragment = split_key(key.bits, key.seq)[session.tx_phase]
        coded = KeyCodeword.from_payload(fragment.to_bits(), POLAR).coded_bits
        key_bits = np.zeros(n * len(session.key_subcarriers), dtype=np.uint8)
        key_bits[:coded.size] = coded
        report.key_events.append(KeyEventRecord(
            f, session.onu_id, "fragment_sent", fragment.seq,
            f"index={fragment.fragment_index}"))
        tx: dict[int, np.ndarray] = {}
        frames = {}
        for j, sc in enumerate(session.subcarriers):
            if sc in session.key_subcarriers:
                second = key_bits[j * n:(j + 1) * n]
            else:
                second = _pilot_bits(seed, _PILOT2, f, sc, n)
            tx[sc] = _rng(seed, _USDATA, idx, f, sc).integers(
                0, 2, 4 * UPSTREAM.payload_len).astype(np.uint8)
            frames[sc] = transmit_subcarrier(_pilot_bits(seed, _SIGNS, f, sc, n), second,
                                             tx[sc], _child_seed(seed, _TRAIN, f, sc),
                                             UPSTREAM, PILOT)
        sent.append(tx)
        onu_cfg = ChannelConfig(snr_db=None, linewidth_hz=cfg.linewidth_hz,
                                freq_offset_hz=cfg.freq_offset_hz,
                                seed=_child_seed(cfg.seed, _USPHASE, f, idx))
        onu_waves.append(apply_channel(_mux_frames(frames), onu_cfg))

    total = SymbolStream(np.sum([w.symbols for w in onu_waves], axis=0),
                         PLAN.sample_rate_hz)
    if cfg.snr_db is not None:
        total = add_awgn(total, cfg.snr_db, seed=_child_seed(cfg.seed, _USNOISE, f))

    metrics = []
    llrs = []
    for session, tx in zip(sessions, sent):
        received = _receive_onu(total, session, UPSTREAM, seed, f, cfg)
        for sc, got in received.items():
            pre_errors = int(np.count_nonzero(demap_payload_16qam(got.cpr.payload) != tx[sc]))
            metrics.append(FrameMetrics(f, "us", session.onu_id, sc, tx[sc].size,
                                        pre_errors, 0, 0, got.cpr.cycle_slips))
        llrs.append(np.concatenate([
            demap_pilot_llrs(received[sc].cpr.pilots, PILOT, received[sc].noise_var)
            for sc in session.key_subcarriers])[:POLAR.block_length])
    lost = [bool(loss_probability) and _rng(seed, _LOSS, f, _stable_id(s.onu_id)
                                            ).random() < loss_probability
            for s in sessions]
    kept = [row for row, gone in zip(llrs, lost) if not gone]
    decoded = zip(*polar_decode_scl(np.stack(kept), POLAR)) if kept else iter(())
    for session, gone in zip(sessions, lost):
        _receive_fragment(session, None if gone else next(decoded), f, report)
    return metrics


def _receive_fragment(session: OnuSession, decoded: tuple[np.ndarray, bool] | None,
                      frame: int, report: SessionReport) -> None:
    """CRC-gated fragment intake on the OLT side of one session.

    ``decoded`` is the polar decoder's (payload, CRC flag) for the
    session's fragment, or None when the fragment was lost.
    """
    next_seq = session.olt_store.next_seq
    if decoded is None:
        report.fragments_lost += 1
        report.key_events.append(KeyEventRecord(frame, session.onu_id,
                                                "fragment_lost", next_seq))
    else:
        payload, crc_ok = decoded
        if not crc_ok:
            report.crc_failures += 1
            report.key_events.append(KeyEventRecord(frame, session.onu_id,
                                                    "fragment_crc_fail", next_seq))
        else:
            try:
                msg = KeyFragmentMessage.from_bits(payload)
            except ValueError:
                report.crc_failures += 1
                report.key_events.append(KeyEventRecord(
                    frame, session.onu_id, "fragment_malformed", next_seq))
            else:
                if msg.seq == next_seq:
                    session.rx_fragments[msg.fragment_index] = msg
                elif msg.seq < next_seq:
                    report.key_events.append(KeyEventRecord(
                        frame, session.onu_id, "fragment_stale", msg.seq))
                else:
                    report.key_events.append(KeyEventRecord(
                        frame, session.onu_id, "fragment_unexpected_seq", msg.seq))
    if len(session.rx_fragments) == 2:
        key = assemble_key(session.rx_fragments[0], session.rx_fragments[1])
        session.rx_fragments.clear()
        report.keys_assembled += 1
        if not np.array_equal(key.bits, session.onu_store.pending_key.bits):
            report.key_mismatches += 1
            report.key_events.append(KeyEventRecord(frame, session.onu_id,
                                                    "key_mismatch", key.seq))
        session.olt_store.add_pending(key)
        report.key_events.append(KeyEventRecord(frame, session.onu_id,
                                                "key_assembled", key.seq))
    else:
        # cadence over with fragments missing: resend the pair
        if session.tx_phase == 1:
            session.tx_phase = 0
        else:
            session.tx_phase = 1


def _ideal_ack_activation(session: OnuSession, boundary: int, frame: int,
                          report: SessionReport) -> None:
    pending = session.olt_store.pending_seqs()
    if not pending:
        return
    seq = pending[0]
    session.olt_store.activate(seq, boundary)
    session.onu_store.activate(seq, boundary)
    report.rotations += 1
    report.key_events.append(KeyEventRecord(frame, session.onu_id, "key_activated",
                                            seq, f"codeword={boundary}"))


def run_downstream_encrypted(sessions: list[OnuSession], cfg: ChannelConfig,
                             n_frames: int, *, seed: int = 0,
                             eavesdropper: bool = False) -> SessionReport:
    """Broadcast AES-encrypted payload downstream and decode per ONU.

    Requires an active key on both stores of every session.  Pending
    keys (delivered by the upstream runner) are announced through the
    in-band echo byte and activated mid-run at the following codeword
    boundary on both sides.
    """
    for s in sessions:
        if s.olt_store.active_key is None or s.onu_store.active_key is None:
            raise ValueError(f"{s.onu_id}: downstream needs an active key on both sides")
    report = SessionReport(direction="downstream", n_frames=n_frames)
    for f in range(n_frames):
        _downstream_frame(sessions, cfg, f, seed, eavesdropper, report)
        report.n_frames = f + 1
    report.validate()
    return report


def _downstream_frame(sessions, cfg, f, seed, eavesdropper, report) -> None:
    """One broadcast frame: encrypt, LDPC-encode and send every ONU's
    codewords, then receive them at each ONU with its own keys and, with
    ``eavesdropper``, again on a tapped copy with a made-up key."""
    ldpc = default_code()
    n = DOWNSTREAM.n_pilots
    frames: dict[int, np.ndarray] = {}
    sent: list[dict[int, tuple[np.ndarray, list[tuple[int, np.ndarray]]]]] = []
    for session in sessions:
        tx = {}
        for sc in session.subcarriers:
            coded, codewords = [], []
            for _ in range(CODEWORDS_PER_SC_PER_FRAME):
                c = session.codeword_counter
                pending = session.olt_store.pending_seqs()
                echo = pending[0] if pending else ECHO_NONE
                data = _rng(seed, _DATA, _stable_id(session.onu_id), c).integers(
                    0, 2, DATA_BITS_PER_CODEWORD).astype(np.uint8)
                key = session.olt_store.consume(c)
                cipher = aes256_encrypt(np.concatenate([_echo_bits(echo), data]), key, c)
                coded.append(ldpc.encode(cipher))
                codewords.append((c, data))
                report.pre_bits_transmitted += coded[-1].size
                report.post_bits_transmitted += data.size
                session.codeword_counter += 1
                if echo != ECHO_NONE:
                    session.olt_store.activate(echo, c + 1)
                    report.key_events.append(KeyEventRecord(
                        f, session.onu_id, "olt_activated", echo, f"codeword={c + 1}"))
            tx[sc] = (np.concatenate(coded), codewords)
            frames[sc] = transmit_subcarrier(
                _pilot_bits(seed, _SIGNS, f, sc, n), _pilot_bits(seed, _PILOT2, f, sc, n),
                tx[sc][0], _child_seed(seed, _TRAIN, f, sc), DOWNSTREAM, PILOT)
        sent.append(tx)

    clean = _mux_frames(frames)
    frame_cfg = ChannelConfig(snr_db=cfg.snr_db, linewidth_hz=cfg.linewidth_hz,
                              freq_offset_hz=cfg.freq_offset_hz,
                              seed=_child_seed(cfg.seed, _DSCHAN, f))
    taps = [(frame_cfg, None)]
    if eavesdropper:
        taps.append((eavesdropper_config(frame_cfg),
                     random_session_key(0, _rng(seed, _EVEKEY, 0))))
    for tap_cfg, eve_key in taps:
        rx = apply_channel(clean, tap_cfg)
        received = [_receive_onu(rx, session, DOWNSTREAM, seed, f, tap_cfg)
                     for session in sessions]
        # one decoder call for the tap, rows in session, subcarrier, codeword
        # order; zip draws a codeword first, so each takes exactly its row
        llrs = [payload_llrs_16qam(got.cpr.payload, got.noise_var)
                for by_sc in received for got in by_sc.values()]
        hard, _, _ = ldpc.decode_batch(np.concatenate(llrs).reshape(-1, ldpc.n))
        rows = iter(hard[:, :LDPC_K])
        for session, tx, by_sc in zip(sessions, sent, received):
            for sc, got in by_sc.items():
                coded, codewords = tx[sc]
                errors = 0
                for (c, data), row in zip(codewords, rows):
                    key = session.onu_store.consume(c) if eve_key is None else eve_key
                    decrypted = aes256_decrypt(row, key, c)
                    errors += int(np.count_nonzero(decrypted[8:] != data))
                    echo = _echo_value(decrypted[:8])
                    if eve_key is None and echo != ECHO_NONE \
                            and echo in session.onu_store.pending_seqs():
                        session.onu_store.activate(echo, c + 1)
                        report.rotations += 1
                        report.key_events.append(KeyEventRecord(
                            f, session.onu_id, "onu_activated", echo, f"codeword={c + 1}"))
                data_bits = len(codewords) * DATA_BITS_PER_CODEWORD
                if eve_key is not None:
                    report.eavesdropper_bits += data_bits
                    report.eavesdropper_errors += errors
                    continue
                pre_errors = int(np.count_nonzero(
                    demap_payload_16qam(got.cpr.payload) != coded))
                report.frame_metrics.append(FrameMetrics(
                    f, "ds", session.onu_id, sc, coded.size, pre_errors, data_bits,
                    errors, got.cpr.cycle_slips))


def run_secure_session(sessions: list[OnuSession], us_cfg: ChannelConfig,
                       ds_cfg: ChannelConfig, n_superframes: int, *,
                       seed: int = 0, loss_probability: float = 0.0,
                       eavesdropper: bool = False) -> SessionReport:
    """Alternate upstream key distribution with encrypted downstream.

    Each superframe is one upstream frame, whose payload metrics are not
    reported, then one downstream frame.  Unlike the upstream-only
    runner, activation happens exclusively through the in-band echo: the
    OLT announces an assembled key in the next downstream codeword and
    both stores rotate at the boundary after it.  The run asserts OLT
    and ONU agree on the active key after every superframe.
    """
    report = SessionReport(direction="secure-session", n_frames=n_superframes)
    for f in range(n_superframes):
        _upstream_frame(sessions, us_cfg, f, seed, loss_probability, report)
        _downstream_frame(sessions, ds_cfg, f, seed, eavesdropper, report)
        if not active_keys_synchronized(sessions):
            raise AssertionError(f"active keys desynchronized after superframe {f}")
        report.n_frames = f + 1
    report.validate()
    return report
