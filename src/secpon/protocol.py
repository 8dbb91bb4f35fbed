"""OLT/ONU session machinery: one frame chain carrying key distribution
upstream and encrypted broadcast downstream, plus subcarrier allocation.

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
from .fec_ldpc import LDPC_K, LdpcCode, default_code, ldpc_encode
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


@dataclass(frozen=True)
class TfdmaAllocation:
    """Disjoint (time slot, subcarrier) cells per ONU; every ONU sends in
    every frame, so all cells sit in time slot 0."""

    cells: dict[str, tuple[tuple[int, int], ...]]
    n_subcarriers: int

    def subcarriers(self, onu_id: str) -> tuple[int, ...]:
        return tuple(sorted({sc for _, sc in self.cells[onu_id]}))


def allocate_tfdma(onu_ids: list[str], n_subcarriers: int = 4) -> TfdmaAllocation:
    """Hand each ONU a contiguous block of subcarriers (pure FDMA)."""
    if not onu_ids:
        raise ValueError("need at least one ONU")
    if len(set(onu_ids)) != len(onu_ids):
        raise ValueError("duplicate ONU ids")
    if len(onu_ids) > n_subcarriers:
        raise ValueError(f"{len(onu_ids)} ONUs oversubscribe {n_subcarriers} subcarriers")
    share, extra = divmod(n_subcarriers, len(onu_ids))
    cells: dict[str, tuple[tuple[int, int], ...]] = {}
    start = 0
    for i, onu in enumerate(onu_ids):
        stop = start + share + (1 if i < extra else 0)
        cells[onu] = tuple((0, sc) for sc in range(start, stop))
        start = stop
    return TfdmaAllocation(cells=cells, n_subcarriers=n_subcarriers)


@dataclass
class OnuSession:
    """Per-ONU state shared by the upstream and downstream runners."""

    onu_id: str
    subcarriers: tuple[int, ...]
    onu_store: KeyStore
    olt_store: KeyStore
    next_seq: int = 1
    codeword_counter: int = 0
    current_key: SessionKey | None = None
    tx_fragments: tuple[KeyFragmentMessage, KeyFragmentMessage] | None = None
    tx_phase: int = 0
    expected_seq: int = 1
    rx_fragments: dict[int, KeyFragmentMessage] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.subcarriers = tuple(sorted(self.subcarriers))
        if not self.subcarriers:
            raise ValueError("session needs at least one subcarrier")

    @property
    def key_subcarriers(self) -> tuple[int, ...]:
        """The (up to two) subcarriers whose pilots carry key fragments."""
        return self.subcarriers[:2]


def make_sessions(allocation: TfdmaAllocation | dict[str, tuple[int, ...]],
                  seed: int = 0) -> list[OnuSession]:
    """Build sessions from an allocation and provision the initial key.

    Sequence 0 is the pre-shared registration key, active from codeword 0
    on both sides; in-session distribution starts at sequence 1.
    """
    if isinstance(allocation, TfdmaAllocation):
        sc_map = {o: allocation.subcarriers(o) for o in allocation.cells}
    else:
        sc_map = {o: tuple(sorted(s)) for o, s in allocation.items()}
    seen: set[int] = set()
    for scs in sc_map.values():
        if seen & set(scs):
            raise ValueError("subcarrier sets overlap across ONUs")
        seen |= set(scs)
    sessions = []
    for i, (onu_id, scs) in enumerate(sc_map.items()):
        bits = _rng(seed, _KEYGEN, i, 0).integers(0, 2, 256).astype(np.uint8)
        session = OnuSession(onu_id=onu_id, subcarriers=scs,
                            onu_store=KeyStore("downstream"),
                            olt_store=KeyStore("downstream"))
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

    def merge(self, other: "SessionReport") -> None:
        self.n_frames = max(self.n_frames, other.n_frames)
        self.frame_metrics += other.frame_metrics
        self.key_events += other.key_events
        for name in ("pre_bits_transmitted", "post_bits_transmitted", "crc_failures",
                     "fragments_lost", "keys_assembled", "key_mismatches", "rotations",
                     "eavesdropper_bits", "eavesdropper_errors"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

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

    def to_csv(self) -> str:
        lines = ["frame,direction,onu,sc,pre_bits,pre_errors,post_bits,post_errors,cycle_slips"]
        for m in self.frame_metrics:
            lines.append(f"{m.frame_index},{m.direction},{m.onu_id},{m.sc_index},"
                         f"{m.pre_bits},{m.pre_errors},{m.post_bits},{m.post_errors},"
                         f"{m.cycle_slips}")
        return "\n".join(lines) + "\n"


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
    noise_var: float


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
                       cpr_cfg: rxdsp.CprConfig | None = None,
                       plan: DscmPlan | None = None, sc: int = 0) -> SubcarrierReception:
    """Recover one subcarrier's frame against its pilot sign bits.

    With a DSCM ``plan``, subcarrier ``sc`` is first selected out of the
    aggregate ``rx``; without one, ``rx`` already holds a single-carrier
    frame at the symbol rate.  The noise variance is decision-directed
    over the phase-corrected payload.
    """
    frame = rx.symbols if plan is None else demux_select(rx, sc, plan).symbols
    cpr = rxdsp.recover_carrier_phase(frame[layout.training_len:], layout,
                                      pilot_phase_reference(signs), cpr_cfg)
    resid = cpr.payload - hard_decision_16qam(cpr.payload)
    return SubcarrierReception(cpr, max(float(np.mean(np.abs(resid) ** 2)), 1e-12))


def _mux_frames(frames: dict[int, np.ndarray], layout: FrameLayout,
                plan: DscmPlan) -> SymbolStream:
    """DSCM aggregate of the given subcarrier frames; the rest stay dark."""
    return mux([SymbolStream(frames.get(sc, np.zeros(layout.total_len, dtype=complex)),
                             plan.baud_per_sc) for sc in range(plan.n_subcarriers)], plan)


def _receive_onu(rx: SymbolStream, session: OnuSession, layout: FrameLayout,
                 plan: DscmPlan, seed: int, frame: int, cfg: ChannelConfig,
                 cpr_cfg: rxdsp.CprConfig | None) -> dict[int, SubcarrierReception]:
    """Receive every subcarrier of one ONU, after correcting its offset."""
    if cfg.freq_offset_hz:
        rx = _correct_onu_offset(rx, session, layout, plan, seed, frame)
    return {sc: receive_subcarrier(rx, _pilot_bits(seed, _SIGNS, frame, sc, layout.n_pilots),
                                   layout, cpr_cfg, plan, sc)
            for sc in session.subcarriers}


def _decode_payload(got: SubcarrierReception, ldpc: LdpcCode) -> np.ndarray:
    """LDPC-decode one subcarrier's payload into its information rows."""
    llrs = payload_llrs_16qam(got.cpr.payload, got.noise_var)
    hard, _, _ = ldpc.decode_batch(llrs.reshape(CODEWORDS_PER_SC_PER_FRAME, -1))
    return hard[:, :LDPC_K].astype(np.uint8)


def _correct_onu_offset(aggregate: SymbolStream, session: OnuSession,
                        layout: FrameLayout, plan: DscmPlan, seed: int,
                        frame: int) -> SymbolStream:
    """Estimate the ONU's carrier offset on one training prefix and
    derotate the aggregate before selecting its subcarriers."""
    sc = session.subcarriers[0]
    coarse = demux_select(aggregate, sc, plan)
    train = qpsk_training(layout.training_len, _child_seed(seed, _TRAIN, frame, sc))
    est = rxdsp.estimate_frequency_offset(
        coarse.symbols[:layout.training_len], train, plan.baud_per_sc)
    fixed = rxdsp.correct_frequency_offset(
        aggregate.symbols, est, plan.sample_rate_hz)
    return SymbolStream(fixed, aggregate.symbol_rate_hz)


def _check_pilot_budget(sessions: list[OnuSession], layout: FrameLayout,
                        code: PolarCode) -> None:
    for s in sessions:
        budget = layout.n_pilots * len(s.key_subcarriers)
        if budget < code.block_length:
            raise ValueError(
                f"{s.onu_id}: pilot budget {budget} cannot carry "
                f"{code.block_length} coded key bits per frame")


def _start_fragment_cycle(session: OnuSession, seed: int, frame: int,
                          report: SessionReport) -> None:
    if session.current_key is None or session.current_key.state != "pending":
        key = random_session_key(
            session.next_seq,
            _rng(seed, _KEYGEN, _stable_id(session.onu_id), session.next_seq, 1))
        session.onu_store.add_pending(key)
        session.current_key = key
        session.tx_fragments = split_key(key.bits, key.seq)
        session.tx_phase = 0
        session.next_seq += 1
        report.key_events.append(KeyEventRecord(frame, session.onu_id,
                                                "key_generated", key.seq))


def run_upstream_keydist(sessions: list[OnuSession], cfg: ChannelConfig,
                         n_frames: int, *, seed: int = 0,
                         pilot_params: GcsPilotParams | None = None,
                         cpr_cfg: rxdsp.CprConfig | None = None,
                         plan: DscmPlan | None = None,
                         loss_probability: float = 0.0,
                         decode_payload: bool = False) -> SessionReport:
    """Distribute session keys upstream over the pilot magnitude bits.

    Runs ``n_frames`` upstream frames (see ``_upstream_frame``) and
    reports their payload metrics.  Activation here models an
    out-of-band acknowledgment: both stores switch at the frame boundary
    after assembly (the in-band echo path lives in the downstream
    runner).  With ``decode_payload`` the payload is LDPC-coded and its
    post-FEC errors are counted too.
    """
    pilot_params = pilot_params or GcsPilotParams()
    plan = plan or DscmPlan()
    layout = upstream_layout()
    polar = PolarCode()
    ldpc = default_code() if decode_payload else None
    _check_pilot_budget(sessions, layout, polar)
    report = SessionReport(direction="upstream", n_frames=n_frames)

    for f in range(n_frames):
        metrics = _upstream_frame(sessions, cfg, f, seed, pilot_params, cpr_cfg, plan,
                                  layout, polar, ldpc, loss_probability, report)
        report.frame_metrics += metrics
        report.pre_bits_transmitted += sum(m.pre_bits for m in metrics)
        report.post_bits_transmitted += sum(m.post_bits for m in metrics)
        for session in sessions:
            _ideal_ack_activation(session, session.codeword_counter, f, report)
        report.n_frames = f + 1
    report.validate()
    return report


def _upstream_frame(sessions, cfg, f, seed, pilot_params, cpr_cfg, plan, layout,
                    polar, ldpc, loss_probability, report) -> list[FrameMetrics]:
    """One upstream frame; returns the payload metrics per subcarrier.

    Each ONU sends one polar-coded key fragment on the pilot magnitude
    bits of its two key subcarriers and 16QAM payload on all of its
    subcarriers (LDPC-coded when ``ldpc`` is given).  Each ONU's burst
    passes through its own laser's phase-noise channel; the bursts sum
    at the OLT where a single noise loading applies.  The OLT takes in
    the fragments CRC-gated; activation is left to the caller.
    """
    n = layout.n_pilots
    sent: list[dict[int, tuple[np.ndarray, np.ndarray | None]]] = []
    onu_waves = []
    for idx, session in enumerate(sessions):
        _start_fragment_cycle(session, seed, f, report)
        fragment = session.tx_fragments[session.tx_phase]
        coded = KeyCodeword.from_payload(fragment.to_bits(), polar).coded_bits
        key_bits = np.zeros(n * len(session.key_subcarriers), dtype=np.uint8)
        key_bits[:coded.size] = coded
        report.key_events.append(KeyEventRecord(
            f, session.onu_id, "fragment_sent", fragment.seq,
            f"index={fragment.fragment_index}"))
        tx: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
        frames = {}
        for j, sc in enumerate(session.subcarriers):
            if sc in session.key_subcarriers:
                second = key_bits[j * n:(j + 1) * n]
            else:
                second = _pilot_bits(seed, _PILOT2, f, sc, n)
            draw = _rng(seed, _USDATA, idx, f, sc)
            if ldpc is None:
                info = None
                payload = draw.integers(0, 2, 4 * layout.payload_len).astype(np.uint8)
            else:
                info = draw.integers(
                    0, 2, (CODEWORDS_PER_SC_PER_FRAME, LDPC_K)).astype(np.uint8)
                payload = np.concatenate([ldpc_encode(row, ldpc) for row in info])
            tx[sc] = (payload, info)
            frames[sc] = transmit_subcarrier(_pilot_bits(seed, _SIGNS, f, sc, n), second,
                                             payload, _child_seed(seed, _TRAIN, f, sc),
                                             layout, pilot_params)
        sent.append(tx)
        onu_cfg = ChannelConfig(snr_db=None, linewidth_hz=cfg.linewidth_hz,
                                freq_offset_hz=cfg.freq_offset_hz,
                                seed=_child_seed(cfg.seed, _USPHASE, f, idx))
        onu_waves.append(apply_channel(_mux_frames(frames, layout, plan), onu_cfg))

    total = SymbolStream(np.sum([w.symbols for w in onu_waves], axis=0),
                         plan.sample_rate_hz)
    if cfg.snr_db is not None:
        total = add_awgn(total, cfg.snr_db, seed=_child_seed(cfg.seed, _USNOISE, f))

    metrics = []
    for session, tx in zip(sessions, sent):
        received = _receive_onu(total, session, layout, plan, seed, f, cfg, cpr_cfg)
        for sc, got in received.items():
            payload, info = tx[sc]
            pre_errors = int(np.count_nonzero(demap_payload_16qam(got.cpr.payload) != payload))
            post_bits = post_errors = 0
            if info is not None:
                post_errors = int(np.count_nonzero(_decode_payload(got, ldpc) != info))
                post_bits = info.size
            metrics.append(FrameMetrics(f, "us", session.onu_id, sc, payload.size,
                                        pre_errors, post_bits, post_errors,
                                        got.cpr.cycle_slips))
        llrs = np.concatenate([
            demap_pilot_llrs(received[sc].cpr.pilots, pilot_params, received[sc].noise_var)
            for sc in session.key_subcarriers])
        _receive_fragment(session, llrs[:polar.block_length], polar, f, seed,
                          loss_probability, report)
    return metrics


def _receive_fragment(session: OnuSession, llrs: np.ndarray, polar: PolarCode,
                      frame: int, seed: int, loss_probability: float,
                      report: SessionReport) -> None:
    """CRC-gated fragment intake on the OLT side of one session."""
    if loss_probability and _rng(seed, _LOSS, frame, _stable_id(session.onu_id)
                                 ).random() < loss_probability:
        report.fragments_lost += 1
        report.key_events.append(KeyEventRecord(frame, session.onu_id,
                                                "fragment_lost", session.expected_seq))
    else:
        payload, crc_ok = polar_decode_scl(llrs, polar)
        if not crc_ok:
            report.crc_failures += 1
            report.key_events.append(KeyEventRecord(frame, session.onu_id,
                                                    "fragment_crc_fail",
                                                    session.expected_seq))
        else:
            try:
                msg = KeyFragmentMessage.from_bits(payload)
            except ValueError:
                report.crc_failures += 1
                report.key_events.append(KeyEventRecord(
                    frame, session.onu_id, "fragment_malformed", session.expected_seq))
            else:
                if msg.seq == session.expected_seq:
                    session.rx_fragments[msg.fragment_index] = msg
                elif msg.seq < session.expected_seq:
                    report.key_events.append(KeyEventRecord(
                        frame, session.onu_id, "fragment_stale", msg.seq))
                else:
                    report.key_events.append(KeyEventRecord(
                        frame, session.onu_id, "fragment_unexpected_seq", msg.seq))
    if len(session.rx_fragments) == 2:
        key = assemble_key(session.rx_fragments[0], session.rx_fragments[1])
        session.rx_fragments.clear()
        report.keys_assembled += 1
        if not np.array_equal(key.bits, session.current_key.bits):
            report.key_mismatches += 1
            report.key_events.append(KeyEventRecord(frame, session.onu_id,
                                                    "key_mismatch", key.seq))
        session.olt_store.add_pending(key)
        session.expected_seq += 1
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
                             pilot_params: GcsPilotParams | None = None,
                             cpr_cfg: rxdsp.CprConfig | None = None,
                             plan: DscmPlan | None = None,
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
    pilot_params = pilot_params or GcsPilotParams()
    plan = plan or DscmPlan()
    layout = downstream_layout()
    report = SessionReport(direction="downstream", n_frames=n_frames)
    for f in range(n_frames):
        _downstream_frame(sessions, cfg, f, seed, pilot_params, cpr_cfg, plan,
                          layout, eavesdropper, report)
        report.n_frames = f + 1
    report.validate()
    return report


def _downstream_frame(sessions, cfg, f, seed, pilot_params, cpr_cfg, plan,
                      layout, eavesdropper, report) -> None:
    """One broadcast frame: encrypt, LDPC-encode and send every ONU's
    codewords, then receive them at each ONU with its own keys and, with
    ``eavesdropper``, again on a tapped copy with a made-up key."""
    ldpc = default_code()
    n = layout.n_pilots
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
                coded.append(ldpc_encode(cipher, ldpc))
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
                tx[sc][0], _child_seed(seed, _TRAIN, f, sc), layout, pilot_params)
        sent.append(tx)

    clean = _mux_frames(frames, layout, plan)
    frame_cfg = ChannelConfig(snr_db=cfg.snr_db, linewidth_hz=cfg.linewidth_hz,
                              freq_offset_hz=cfg.freq_offset_hz,
                              seed=_child_seed(cfg.seed, _DSCHAN, f))
    taps = [(frame_cfg, None)]
    if eavesdropper:
        made_up = _rng(seed, _EVEKEY, 0).integers(0, 2, 256).astype(np.uint8)
        taps.append((eavesdropper_config(frame_cfg),
                     SessionKey(bits=made_up, seq=254, state="active")))
    for tap_cfg, eve_key in taps:
        rx = apply_channel(clean, tap_cfg)
        for session, tx in zip(sessions, sent):
            for sc, got in _receive_onu(rx, session, layout, plan, seed, f, tap_cfg,
                                        cpr_cfg).items():
                coded, codewords = tx[sc]
                errors = 0
                for row, (c, data) in zip(_decode_payload(got, ldpc), codewords):
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
                       seed: int = 0, pilot_params: GcsPilotParams | None = None,
                       cpr_cfg: rxdsp.CprConfig | None = None,
                       plan: DscmPlan | None = None,
                       loss_probability: float = 0.0,
                       eavesdropper: bool = False,
                       check_sync: bool = True) -> SessionReport:
    """Alternate upstream key distribution with encrypted downstream.

    Each superframe is one upstream frame, whose payload metrics are not
    reported, then one downstream frame.  Unlike the upstream-only
    runner, activation happens exclusively through the in-band echo: the
    OLT announces an assembled key in the next downstream codeword and
    both stores rotate at the boundary after it.  With ``check_sync``
    the run asserts OLT and ONU agree on the active key after every
    superframe.
    """
    pilot_params = pilot_params or GcsPilotParams()
    plan = plan or DscmPlan()
    us_layout = upstream_layout()
    ds_layout = downstream_layout()
    polar = PolarCode()
    _check_pilot_budget(sessions, us_layout, polar)
    report = SessionReport(direction="secure-session", n_frames=n_superframes)

    for f in range(n_superframes):
        _upstream_frame(sessions, us_cfg, f, seed, pilot_params, cpr_cfg, plan,
                        us_layout, polar, None, loss_probability, report)
        _downstream_frame(sessions, ds_cfg, f, seed, pilot_params, cpr_cfg, plan,
                          ds_layout, eavesdropper, report)
        if check_sync and not active_keys_synchronized(sessions):
            raise AssertionError(f"active keys desynchronized after superframe {f}")
        report.n_frames = f + 1
    report.validate()
    return report
