"""Acceptance gate: one test per claimed property, full stated tolerances.

Each test prints a single summary line with its measured numbers; the
pytest -v status line is the pass/fail verdict.  These run at the scales
the claims demand (1e7 pilot symbols per theory cell, 2e6 payload symbols
per penalty point, 1e6 eavesdropped bits per SNR), so the module takes a
few minutes on one core.  The gridded criteria (1, 2 and 3) spread their
cells over up to four worker processes, and criterion 6 its three runs;
the workers leave the bytes alone.
"""

import os

import numpy as np
import pytest

from secpon import theory
from secpon.channel import ChannelConfig
from secpon.crypto import SessionKey, aes256_decrypt, aes256_encrypt, aes256_encrypt_block
from secpon.dscm import aggregate_snr_db
from secpon.experiments import ExperimentSpec, _map_cells, run_experiment
from secpon.framing import downstream_layout, net_rate_gbps, upstream_layout
from secpon.protocol import (
    allocate_tfdma,
    make_sessions,
    run_secure_session,
)

pytestmark = pytest.mark.acceptance

OP_SNR = theory.OP_SNR_DB
GRID_JOBS = min(os.cpu_count() or 1, 4)


def _agg(snr_sc_db):
    return aggregate_snr_db(snr_sc_db)


def _done(n, detail):
    print(f"[criterion {n}] PASS: {detail}")


def test_criterion_1_pilot_ber_matches_theory(tmp_path):
    """Monte-Carlo BER of both pilot bits within 0.05 dex of the closed
    forms wherever the predicted BER is at least 1e-4."""
    spec = ExperimentSpec(
        "sweep-a",
        {"a_values": [1.0, 1.7, 3.0],
         "snr_db": {"start": 4.0, "stop": 16.0, "step": 1.0},
         "n_symbols": 10_000_000,
         "dex_tolerance": 0.05,
         "min_theory_ber": 1e-4},
        seed=101, out_dir=tmp_path, jobs=GRID_JOBS, check=True,
    )
    result = run_experiment(spec)
    assert result.passed, result.check_failures
    checked = [r for r in result.rows if r["ber_theory"] >= 1e-4]
    assert len(checked) >= 40
    worst = max(r["dex_error"] for r in checked)
    _done(1, f"max |log10 MC - log10 theory| = {worst:.4f} dex over "
             f"{len(checked)} cells at 1e7 symbols each")


def test_criterion_2_amplitude_tradeoff_monotone(tmp_path):
    """At 10 dB the sign-bit BER strictly improves and the magnitude-bit
    BER strictly degrades as the inner amplitude grows."""
    a_grid = [0.5, 1.0, 1.5, 2.0, 2.5, 2.9]
    f1 = [theory.ber_pilot_first_bit(10.0, a) for a in a_grid]
    f2 = [theory.ber_pilot_second_bit(10.0, a) for a in a_grid]
    assert all(x > y for x, y in zip(f1, f1[1:]))
    assert all(x < y for x, y in zip(f2, f2[1:]))
    spec = ExperimentSpec(
        "sweep-a",
        {"a_values": a_grid, "snr_db": [10.0], "n_symbols": 1_000_000,
         "min_theory_ber": 1.0},      # monotonicity only at this scale
        seed=102, out_dir=tmp_path, jobs=GRID_JOBS, check=True,
    )
    result = run_experiment(spec)
    assert result.passed, result.check_failures
    _done(2, f"P1 spans {f1[0]:.3e} -> {f1[-1]:.3e} down, "
             f"P2 spans {f2[0]:.3e} -> {f2[-1]:.3e} up, "
             "formulas and 1e6-symbol MC both strict")


def test_criterion_3_cpr_penalty_bounds(tmp_path):
    """Required SNR at the SD-FEC limit: the shaped pilot costs at most
    0.15 dB over the binary pilot at 100 kHz, the uniform pilot at least
    0.15 dB, and the penalty curves stay ordered."""
    spec = ExperimentSpec(
        "cpr-penalty",
        {"a_values": [1.0, 1.35, 1.7, 2.35],
         "linewidths_hz": [1e5, 5e5, 1e6],
         "n_symbols": 2_000_000,
         "scan_snrs_db": [12.2, 12.6, 13.0, 13.4, 13.8]},
        seed=103, out_dir=tmp_path, jobs=GRID_JOBS, check=True,
    )
    result = run_experiment(spec)
    assert result.passed, result.check_failures
    pen = {(r["a"], r["linewidth_hz"]): r["penalty_db"] for r in result.rows}
    assert pen[(1.7, 1e5)] <= 0.15
    assert pen[(1.0, 1e5)] >= 0.15
    _done(3, f"penalty(a=1.7, 100 kHz) = {pen[(1.7, 1e5)]:.3f} dB <= 0.15, "
             f"penalty(a=1.0, 100 kHz) = {pen[(1.0, 1e5)]:.3f} dB >= 0.15, "
             "curves ordered over {100k, 500k, 1M} Hz at 2e6 symbols/point")


def test_criterion_4_fec_waterfalls_close(tmp_path):
    """Both codes are error-free at the payload operating point: the data
    code over >= 100 codewords, the key code over >= 1e3 codewords."""
    spec = ExperimentSpec(
        "fec-waterfall",
        {"ldpc_snrs_db": [OP_SNR], "polar_snrs_db": [OP_SNR],
         "n_codewords_ldpc": 100, "n_codewords_polar": 1000,
         "op_snr_db": OP_SNR},
        seed=104, out_dir=tmp_path, check=True,
    )
    result = run_experiment(spec)
    assert result.passed, result.check_failures
    by_code = {r["code"]: r for r in result.rows}
    _done(4, f"at {OP_SNR} dB: data code 0/{by_code['ldpc']['n_codewords']} "
             f"block errors, key code 0/{by_code['polar']['n_codewords']}")


def test_criterion_5_keydist_exact_over_100_frames(tmp_path):
    """100 frames at the operating point: every assembled key identical
    to the generated key, no undetected errors, rotation each cadence."""
    spec = ExperimentSpec(
        "keydist",
        {"n_frames": 100, "snr_sc_db": OP_SNR, "linewidth_hz": 1e5},
        seed=105, out_dir=tmp_path, check=True,
    )
    result = run_experiment(spec)
    assert result.passed, result.check_failures
    s = result.summary
    assert s["keys_assembled"] == 100 and s["rotations"] == 100
    assert s["key_mismatches"] == 0 and s["crc_failures"] == 0
    _done(5, f"100 frames: {s['keys_assembled']} keys assembled, "
             f"{s['rotations']} rotations, 0 mismatches, 0 CRC failures, "
             f"stores synchronized = {s['synchronized']}")


def _criterion_6_case(case):
    """Criterion 6 at one per-subcarrier SNR (None: noiseless): nine
    downstream frames with the tap on; returns the eavesdropped bits,
    their agreement and the legitimate post-FEC BER."""
    k, snr_sc = case
    sessions = make_sessions(allocate_tfdma(["onu1", "onu2"]), seed=61 + k)
    cfg = ChannelConfig(
        snr_db=None if snr_sc is None else _agg(snr_sc),
        linewidth_hz=0.0 if snr_sc is None else 1e5,
    )
    rep = run_secure_session(sessions, None, cfg, 9, seed=81 + k, eavesdropper=True)
    return rep.eavesdropper_bits, rep.eavesdropper_agreement(), rep.post_fec_ber()


def test_criterion_6_eavesdropper_blind_legit_clean():
    """Keyless tap decodes to a coin flip at every tested SNR including
    noiseless; the keyed receiver is error-free above threshold."""
    cases = ((OP_SNR - 1.0, False), (OP_SNR + 1.2, True), (None, True))
    runs = _map_cells(_criterion_6_case, list(enumerate(snr for snr, _ in cases)), GRID_JOBS)
    details = []
    for (snr_sc, need_clean), (bits, agreement, post_fec_ber) in zip(cases, runs):
        assert bits >= 1_000_000
        assert 0.49 <= agreement <= 0.51, (snr_sc, agreement)
        if need_clean:
            assert post_fec_ber == 0.0, (snr_sc, post_fec_ber)
        label = "noiseless" if snr_sc is None else f"{snr_sc:.2f} dB"
        details.append(f"{label}: eve {agreement:.4f}"
                       + (", legit 0 errors" if need_clean else ""))
    _done(6, "; ".join(details) + " (>= 1e6 bits each)")


def test_criterion_7_net_rates():
    """Net information rates from the frame geometry."""
    us = net_rate_gbps(upstream_layout())
    ds = net_rate_gbps(downstream_layout())
    assert us == pytest.approx(200.08, abs=0.01)
    assert ds == pytest.approx(198.72, abs=0.01)
    _done(7, f"upstream {us:.4f} Gbps, downstream {ds:.4f} Gbps")


def test_criterion_8_cipher_core():
    """Published 256-bit known answer plus a 1e6-bit roundtrip."""
    key = bytes.fromhex(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
    block = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    assert aes256_encrypt_block(key, block).hex() == \
        "f3eed1bdb5d2a03c064b5a7e3db181f8"
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, 1_000_000).astype(np.uint8)
    sk = SessionKey(bits=rng.integers(0, 2, 256).astype(np.uint8), seq=1)
    round_trip = aes256_decrypt(aes256_encrypt(bits, sk, 7), sk, 7)
    assert np.array_equal(round_trip, bits)
    assert not np.array_equal(aes256_encrypt(bits, sk, 7), bits)
    _done(8, "FIPS-197 ECB known answer ok, 1e6-bit encrypt/decrypt identity ok")


def test_criterion_9_determinism(tmp_path):
    """Re-running any experiment cell with the same seed reproduces the
    output files byte for byte."""
    cases = [
        ("sweep-a", {"a_values": [1.7], "snr_db": [10.0],
                     "n_symbols": 100_000}),
        ("cpr-penalty", {"a_values": [1.7], "linewidths_hz": [1e5],
                         "n_symbols": 30_000,
                         "scan_snrs_db": [12.2, 13.0, 13.8]}),
        ("keydist", {"n_frames": 6, "snr_sc_db": None, "linewidth_hz": 0.0}),
    ]
    for name, params in cases:
        runs = []
        for sub in ("first", "second"):
            spec = ExperimentSpec(name, dict(params), seed=901,
                                  out_dir=tmp_path / f"{name}-{sub}")
            runs.append(run_experiment(spec).csv_path.read_bytes())
        assert runs[0] == runs[1], f"{name} not reproducible"
    _done(9, f"{len(cases)} experiment kinds re-run byte-identical at seed 901")
