"""Experiment runner behind the ``secpon`` command.

Each experiment expands a parameter grid into independent cells, runs them
(optionally on a process pool), and writes two files into the output
directory: ``<name>.csv`` with one row per result cell and
``<name>.meta.json`` echoing the resolved spec, the column schema, a
version string, and wall time.  Cell seeds are derived from the master
seed and the cell's own parameters, so re-running any single cell in a
smaller grid reproduces its row byte for byte.

Monte-Carlo BER cells carry their error counts and a 95% Wilson interval;
cells with fewer than 100 errors are flagged low-confidence.  With
``check=True`` each experiment also evaluates its pass/fail conditions
and reports violations instead of silently writing numbers.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__, theory
from .channel import ChannelConfig, apply_channel
from .dscm import DscmPlan, aggregate_snr_db
from .fec_ldpc import LDPC_K, default_code
from .fec_polar import KeyCodeword, polar_decode_scl
from .framing import (
    GcsPilotParams,
    SymbolStream,
    demap_payload_16qam,
    demap_pilot,
    demap_pilot_llrs,
    map_payload_16qam,
    map_pilot,
    payload_llrs_16qam,
    upstream_layout,
)
from .protocol import (
    POLAR,
    OnuSession,
    allocate_tfdma,
    active_keys_synchronized,
    make_sessions,
    receive_subcarrier,
    run_secure_session,
    run_upstream_keydist,
    transmit_subcarrier,
)

EXPERIMENT_NAMES = (
    "theory-curves",
    "sweep-a",
    "cpr-penalty",
    "fec-waterfall",
    "keydist",
    "e2e-secure",
)

LOW_CONFIDENCE_ERRORS = 100
_MC_CHUNK = 1_000_000
_POLAR_CHUNK = 100      # blocks per list-decoder call, about 9 MiB of decoder state


class ConfigError(ValueError):
    """Bad experiment name, malformed grid, or unusable config file."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully resolved experiment: name, grid, seed, destination."""

    name: str
    params: dict[str, Any]
    seed: int = 12345
    out_dir: Path = Path("results")
    jobs: int = 1
    check: bool = False

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.name!r}; "
                              f"choose from {', '.join(EXPERIMENT_NAMES)}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class ExperimentResult:
    """Rows plus bookkeeping, as written to disk."""

    spec: ExperimentSpec
    columns: list[str]
    rows: list[dict[str, Any]]
    summary: dict[str, Any]
    check_failures: list[str] = field(default_factory=list)
    csv_path: Path | None = None
    meta_path: Path | None = None

    @property
    def passed(self) -> bool:
        return not self.check_failures


def _cell_seed(master: int, desc: str) -> list[int]:
    """Seed material tied to the cell parameters, not the grid layout."""
    return [int(master) & 0xFFFFFFFF, zlib.crc32(desc.encode())]


def _wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% score interval for a binomial rate; safe at zero errors."""
    if n == 0:
        return (0.0, 1.0)
    z = 1.959963984540054
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


def _version_string() -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        )
        if head.returncode == 0:
            return f"{__version__}+g{head.stdout.strip()}"
    except OSError:
        pass
    return __version__


def _require(params: dict[str, Any], allowed: dict[str, Any],
             name: str) -> dict[str, Any]:
    """Merge user params over defaults, rejecting unknown keys."""
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"{name}: unknown config keys {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    merged = dict(allowed)
    merged.update(params)
    return merged


def _as_floats(value: Any, key: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key} must be a nonempty list of numbers")
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must contain only numbers") from exc


def _as_float(value: Any, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number") from exc


def _pilot_shape(value: Any, key: str) -> float:
    """A pilot shaping parameter ``a``, which must lie in (0, 3]."""
    a = _as_float(value, key)
    if not 0.0 < a <= 3.0:
        raise ConfigError(f"{key} must lie in (0, 3], got {a}")
    return a


def _as_int(value: Any, key: str, minimum: int = 1) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be an integer") from exc
    if out < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {out}")
    return out


def _snr_grid(spec: Any, key: str) -> list[float]:
    """Either an explicit list or a {start, stop, step} range, inclusive."""
    if isinstance(spec, dict):
        extra = set(spec) - {"start", "stop", "step"}
        if extra or not {"start", "stop", "step"} <= set(spec):
            raise ConfigError(f"{key} range needs exactly start/stop/step")
        start, stop, step = (_as_float(spec[k], key) for k in ("start", "stop", "step"))
        if step <= 0 or stop < start:
            raise ConfigError(f"{key} range must run forward with step > 0")
        n = int(round((stop - start) / step))
        return [round(start + i * step, 10) for i in range(n + 1)]
    return _as_floats(spec, key)


def _map_cells(fn: Callable, cells: Sequence, jobs: int) -> list:
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            return list(pool.map(fn, cells))
    return [fn(c) for c in cells]


# --------------------------------------------------------------------------
# theory-curves: closed-form pilot-bit and payload BER over an SNR grid

def _run_theory_curves(spec: ExperimentSpec) -> ExperimentResult:
    p = _require(spec.params, {
        "a_values": [1.0, 1.7, 3.0],
        "snr_db": {"start": 4.0, "stop": 16.0, "step": 0.5},
    }, spec.name)
    a_values = [_pilot_shape(a, "a_values") for a in _as_floats(p["a_values"], "a_values")]
    snrs = _snr_grid(p["snr_db"], "snr_db")
    rows = []
    for a in a_values:
        for snr in snrs:
            rows.append({
                "experiment": spec.name, "seed": spec.seed,
                "a": a, "snr_db": snr,
                "ber_first_bit": float(theory.ber_pilot_first_bit(snr, a)),
                "ber_second_bit": float(theory.ber_pilot_second_bit(snr, a)),
                "ber_16qam": float(theory.ber_16qam(snr)),
            })
    failures = []
    if spec.check:
        for a in a_values:
            for col in ("ber_first_bit", "ber_second_bit", "ber_16qam"):
                vals = [r[col] for r in rows if r["a"] == a]
                if any(later > earlier + 1e-15
                       for earlier, later in zip(vals, vals[1:])):
                    failures.append(f"{col} not nonincreasing in SNR at a={a}")
                if any(not 0.0 <= v <= 0.5 + 1e-12 for v in vals):
                    failures.append(f"{col} outside [0, 0.5] at a={a}")
    columns = ["experiment", "seed", "a", "snr_db",
               "ber_first_bit", "ber_second_bit", "ber_16qam"]
    summary = {"n_cells": len(rows), "a_values": a_values,
               "snr_points": len(snrs)}
    return ExperimentResult(spec, columns, rows, summary, failures)


# --------------------------------------------------------------------------
# sweep-a: Monte-Carlo pilot-bit BER against the closed forms

def _pilot_mc_cell(args: tuple) -> dict[str, Any]:
    master, a, snr_db, n_symbols = args
    params = GcsPilotParams(a=a)
    rng = np.random.default_rng(
        _cell_seed(master, f"sweep-a|a={a!r}|snr={snr_db!r}|n={n_symbols}"))
    sigma2 = 10.0 ** (-snr_db / 10.0)
    err1 = err2 = 0
    done = 0
    while done < n_symbols:
        n = min(_MC_CHUNK, n_symbols - done)
        first = rng.integers(0, 2, n).astype(np.uint8)
        second = rng.integers(0, 2, n).astype(np.uint8)
        tx = map_pilot(first, second, params)
        noise = rng.normal(scale=np.sqrt(sigma2 / 2), size=(2, n))
        rx = tx + noise[0] + 1j * noise[1]
        got1, got2 = demap_pilot(rx, params)
        err1 += int(np.count_nonzero(got1 != first))
        err2 += int(np.count_nonzero(got2 != second))
        done += n
    return {"a": a, "snr_db": snr_db, "n_symbols": n_symbols,
            "err1": err1, "err2": err2}


def _run_sweep_a(spec: ExperimentSpec) -> ExperimentResult:
    p = _require(spec.params, {
        "a_values": [0.5, 1.0, 1.5, 2.0, 2.5, 2.9],
        "snr_db": [10.0],
        "n_symbols": 1_000_000,
        "dex_tolerance": 0.05,
        "min_theory_ber": 1e-4,
    }, spec.name)
    a_values = sorted(_pilot_shape(a, "a_values") for a in _as_floats(p["a_values"], "a_values"))
    snrs = _snr_grid(p["snr_db"], "snr_db")
    n_symbols = _as_int(p["n_symbols"], "n_symbols")
    tol = _as_float(p["dex_tolerance"], "dex_tolerance")
    floor = _as_float(p["min_theory_ber"], "min_theory_ber")

    cells = [(spec.seed, a, snr, n_symbols) for a in a_values for snr in snrs]
    raw = _map_cells(_pilot_mc_cell, cells, spec.jobs)
    raw.sort(key=lambda r: (r["a"], r["snr_db"]))

    rows = []
    for r in raw:
        for bit, errs, formula in (
            (1, r["err1"], theory.ber_pilot_first_bit),
            (2, r["err2"], theory.ber_pilot_second_bit),
        ):
            ber = errs / r["n_symbols"]
            ref = float(formula(r["snr_db"], r["a"]))
            lo, hi = _wilson_interval(errs, r["n_symbols"])
            dex = abs(float(np.log10(ber) - np.log10(ref))) \
                if errs > 0 and ref > 0 else None
            rows.append({
                "experiment": spec.name, "seed": spec.seed,
                "a": r["a"], "snr_db": r["snr_db"], "bit": bit,
                "n_symbols": r["n_symbols"], "n_errors": errs,
                "ber_mc": ber, "ber_theory": ref,
                "dex_error": round(dex, 6) if dex is not None else "",
                "ci95_lo": lo, "ci95_hi": hi,
                "low_confidence": int(errs < LOW_CONFIDENCE_ERRORS),
            })

    failures = []
    if spec.check:
        # strict ordering is only meaningful between resolved cells, so
        # pairs involving a low-confidence count are not compared
        def resolved(bit: int, snr: float) -> list[tuple[float, float]]:
            return [(r["a"], r["ber_mc"]) for r in rows
                    if r["snr_db"] == snr and r["bit"] == bit
                    and not r["low_confidence"]]

        for snr in snrs:
            b1 = [b for _, b in resolved(1, snr)]
            b2 = [b for _, b in resolved(2, snr)]
            if not all(x > y for x, y in zip(b1, b1[1:])):
                failures.append(f"first-bit BER not strictly decreasing in a at {snr} dB")
            if not all(x < y for x, y in zip(b2, b2[1:])):
                failures.append(f"second-bit BER not strictly increasing in a at {snr} dB")
        for r in rows:
            if r["low_confidence"] or r["ber_theory"] < floor:
                continue
            if not isinstance(r["dex_error"], float) or r["dex_error"] > tol:
                failures.append(
                    f"MC/theory gap {r['dex_error']} dex > {tol} at "
                    f"a={r['a']}, {r['snr_db']} dB, bit {r['bit']}")
    columns = ["experiment", "seed", "a", "snr_db", "bit", "n_symbols",
               "n_errors", "ber_mc", "ber_theory", "dex_error",
               "ci95_lo", "ci95_hi", "low_confidence"]
    summary = {"n_cells": len(rows),
               "max_dex": max((r["dex_error"] for r in rows
                               if isinstance(r["dex_error"], float)
                               and not r["low_confidence"]
                               and r["ber_theory"] >= floor), default=None)}
    return ExperimentResult(spec, columns, rows, summary, failures)


# --------------------------------------------------------------------------
# cpr-penalty: required SNR at the SD-FEC limit per pilot shape/linewidth

def _cpr_frame_ber(a: float, linewidth_hz: float, snr_db: float,
                   n_symbols: int, master: int) -> tuple[int, int]:
    """Payload (errors, bits) through the full single-carrier recovery chain."""
    layout = upstream_layout()
    params = GcsPilotParams(a=a)
    n_frames = -(-n_symbols // layout.payload_len)
    data_rng = np.random.default_rng(
        _cell_seed(master, f"cpr-data|a={a!r}|lw={linewidth_hz!r}|snr={snr_db!r}"))
    errors = bits = 0
    for f in range(n_frames):
        first = data_rng.integers(0, 2, layout.n_pilots).astype(np.uint8)
        second = data_rng.integers(0, 2, layout.n_pilots).astype(np.uint8)
        payload_bits = data_rng.integers(0, 2, 4 * layout.payload_len).astype(np.uint8)
        frame = transmit_subcarrier(first, second, payload_bits, f + 1, layout, params)
        # channel draw shared across pilot shapes at one (linewidth, SNR)
        chan_seed = _cell_seed(master, f"cpr-chan|lw={linewidth_hz!r}|snr={snr_db!r}|f={f}")
        cfg = ChannelConfig(snr_db=snr_db, linewidth_hz=linewidth_hz,
                            seed=(chan_seed[0] << 32) ^ chan_seed[1])
        got = receive_subcarrier(apply_channel(SymbolStream(frame, 8e9), cfg), first, layout)
        errors += int(np.count_nonzero(demap_payload_16qam(got.cpr.payload) != payload_bits))
        bits += payload_bits.size
    return errors, bits


def _required_snr(scan: list[tuple[float, float]], target: float) -> float:
    """Log-linear interpolation of the SNR where BER crosses the target."""
    scan = sorted(scan)
    below = [(s, b) for s, b in scan if b <= target]
    above = [(s, b) for s, b in scan if b > target]
    if not below or not above:
        raise ConfigError(
            f"scan grid {[s for s, _ in scan]} does not bracket BER {target}; "
            f"measured {[f'{b:.3e}' for _, b in scan]}")
    s_hi, b_hi = above[-1]
    s_lo, b_lo = below[0]
    if b_lo <= 0:
        return s_lo
    t = (np.log10(target) - np.log10(b_hi)) / (np.log10(b_lo) - np.log10(b_hi))
    return float(s_hi + t * (s_lo - s_hi))


def _penalty_cell(args: tuple) -> dict[str, Any]:
    master, a, linewidth, n_symbols, scan_snrs, target = args
    scan = []
    min_errors = None
    for snr in scan_snrs:
        errors, bits = _cpr_frame_ber(a, linewidth, snr, n_symbols, master)
        scan.append((snr, errors / bits))
        min_errors = errors if min_errors is None else min(min_errors, errors)
    return {"a": a, "linewidth_hz": linewidth, "n_symbols": n_symbols,
            "required_snr_db": _required_snr(scan, target),
            "min_scan_errors": min_errors}


def _run_cpr_penalty(spec: ExperimentSpec) -> ExperimentResult:
    p = _require(spec.params, {
        "a_values": [1.0, 1.35, 1.7, 2.35],
        "linewidths_hz": [1e5, 5e5, 1e6],
        "baseline_a": 3.0,
        "n_symbols": 200_000,
        "scan_snrs_db": [12.2, 12.5, 12.8, 13.1, 13.4, 13.7, 14.0],
        "target_ber": theory.SD_FEC_LIMIT,
        "penalty_max_db_a17": 0.15,
        "penalty_min_db_a10": 0.15,
    }, spec.name)
    a_values = sorted(_pilot_shape(a, "a_values") for a in _as_floats(p["a_values"], "a_values"))
    linewidths = _as_floats(p["linewidths_hz"], "linewidths_hz")
    baseline_a = _pilot_shape(p["baseline_a"], "baseline_a")
    n_symbols = _as_int(p["n_symbols"], "n_symbols", minimum=1000)
    scan_snrs = _as_floats(p["scan_snrs_db"], "scan_snrs_db")
    target = _as_float(p["target_ber"], "target_ber")
    max_a17 = _as_float(p["penalty_max_db_a17"], "penalty_max_db_a17")
    min_a10 = _as_float(p["penalty_min_db_a10"], "penalty_min_db_a10")

    todo = sorted(set(a_values) | {baseline_a})
    cells = [(spec.seed, a, lw, n_symbols, tuple(scan_snrs), target)
             for lw in linewidths for a in todo]
    raw = _map_cells(_penalty_cell, cells, spec.jobs)
    by_key = {(r["a"], r["linewidth_hz"]): r for r in raw}

    rows = []
    for lw in linewidths:
        base = by_key[(baseline_a, lw)]["required_snr_db"]
        for a in todo:
            r = by_key[(a, lw)]
            rows.append({
                "experiment": spec.name, "seed": spec.seed,
                "a": a, "linewidth_hz": lw, "n_symbols": n_symbols,
                "required_snr_db": round(r["required_snr_db"], 6),
                "baseline_snr_db": round(base, 6),
                "penalty_db": round(r["required_snr_db"] - base, 6),
                "low_confidence": int(r["min_scan_errors"] < LOW_CONFIDENCE_ERRORS),
            })

    failures = []
    if spec.check:
        def penalty(a: float, lw: float) -> float | None:
            for r in rows:
                if r["a"] == a and r["linewidth_hz"] == lw:
                    return r["penalty_db"]
            return None

        lw0 = 1e5
        p17, p10 = penalty(1.7, lw0), penalty(1.0, lw0)
        if p17 is not None and p17 > max_a17:
            failures.append(f"a=1.7 penalty {p17:.3f} dB exceeds {max_a17} dB at 100 kHz")
        if p10 is not None and p10 < min_a10:
            failures.append(f"a=1.0 penalty {p10:.3f} dB below {min_a10} dB at 100 kHz")
        slack = 0.02    # MC jitter allowance on ordering comparisons
        for lw in linewidths:
            pens = [penalty(a, lw) for a in todo]
            if any(later > earlier + slack
                   for earlier, later in zip(pens, pens[1:])):
                failures.append(f"penalty not nonincreasing in a at {lw:g} Hz")
        for a in a_values:
            by_lw = [penalty(a, lw) for lw in sorted(linewidths)]
            if any(later < earlier - slack
                   for earlier, later in zip(by_lw, by_lw[1:])):
                failures.append(f"penalty not ordered by linewidth at a={a}")
    columns = ["experiment", "seed", "a", "linewidth_hz", "n_symbols",
               "required_snr_db", "baseline_snr_db", "penalty_db",
               "low_confidence"]
    summary = {"n_cells": len(rows), "baseline_a": baseline_a,
               "target_ber": target}
    return ExperimentResult(spec, columns, rows, summary, failures)


# --------------------------------------------------------------------------
# fec-waterfall: coded performance of the data and key channels

def _ldpc_cell(args: tuple) -> dict[str, Any]:
    master, snr_db, n_codewords, max_iterations = args
    code = default_code()
    rng = np.random.default_rng(
        _cell_seed(master, f"ldpc|snr={snr_db!r}|n={n_codewords}"))
    sigma2 = 10.0 ** (-snr_db / 10.0)
    bit_errors = block_errors = 0
    batch = 10
    done = 0
    while done < n_codewords:
        b = min(batch, n_codewords - done)
        info = rng.integers(0, 2, (b, LDPC_K)).astype(np.uint8)
        llrs = np.empty((b, code.n))
        for i in range(b):
            syms = map_payload_16qam(code.encode(info[i]))
            noise = rng.normal(scale=np.sqrt(sigma2 / 2), size=(2, syms.size))
            llrs[i] = payload_llrs_16qam(syms + noise[0] + 1j * noise[1], sigma2)
        hard, _, _ = code.decode_batch(llrs, max_iterations=max_iterations)
        diff = hard[:, :LDPC_K] != info
        bit_errors += int(diff.sum())
        block_errors += int(np.count_nonzero(diff.any(axis=1)))
        done += b
    return {"code": "ldpc", "snr_db": snr_db, "n_codewords": n_codewords,
            "bit_errors": bit_errors, "block_errors": block_errors,
            "n_bits": n_codewords * LDPC_K}


def _polar_cell(args: tuple) -> dict[str, Any]:
    master, a, snr_db, n_codewords = args
    params = GcsPilotParams(a=a)
    rng = np.random.default_rng(
        _cell_seed(master, f"polar|a={a!r}|snr={snr_db!r}|n={n_codewords}"))
    sigma2 = 10.0 ** (-snr_db / 10.0)
    k = POLAR.payload_capacity
    bit_errors = block_errors = 0
    done = 0
    while done < n_codewords:
        b = min(_POLAR_CHUNK, n_codewords - done)
        payloads = np.empty((b, k), dtype=np.uint8)
        llrs = np.empty((b, POLAR.block_length))
        for i in range(b):
            payloads[i] = rng.integers(0, 2, k)
            coded = KeyCodeword.from_payload(payloads[i], POLAR).coded_bits
            first = rng.integers(0, 2, coded.size).astype(np.uint8)
            tx = map_pilot(first, coded, params)
            noise = rng.normal(scale=np.sqrt(sigma2 / 2), size=(2, tx.size))
            llrs[i] = demap_pilot_llrs(tx + noise[0] + 1j * noise[1], params, sigma2)
        got, ok = polar_decode_scl(llrs, POLAR)
        diff = np.where(ok, np.count_nonzero(got != payloads, axis=1), k)
        bit_errors += int(diff.sum())
        block_errors += int(np.count_nonzero(diff))
        done += b
    return {"code": "polar", "snr_db": snr_db, "n_codewords": n_codewords,
            "bit_errors": bit_errors, "block_errors": block_errors,
            "n_bits": n_codewords * k}


def _run_fec_waterfall(spec: ExperimentSpec) -> ExperimentResult:
    op = theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT)
    p = _require(spec.params, {
        "ldpc_snrs_db": [11.0, 11.3, 11.6, 11.9, round(op, 4)],
        "polar_snrs_db": [10.0, 11.0, round(op, 4)],
        "n_codewords_ldpc": 100,
        "n_codewords_polar": 1000,
        "a": 1.7,
        "max_iterations": 50,
        "op_snr_db": round(op, 4),
    }, spec.name)
    ldpc_snrs = _as_floats(p["ldpc_snrs_db"], "ldpc_snrs_db")
    polar_snrs = _as_floats(p["polar_snrs_db"], "polar_snrs_db")
    n_ldpc = _as_int(p["n_codewords_ldpc"], "n_codewords_ldpc")
    n_polar = _as_int(p["n_codewords_polar"], "n_codewords_polar")
    a = _pilot_shape(p["a"], "a")
    op_snr = _as_float(p["op_snr_db"], "op_snr_db")

    default_code()      # build once before forking workers
    cells = [("ldpc", (spec.seed, snr, n_ldpc, _as_int(p["max_iterations"], "max_iterations")))
             for snr in ldpc_snrs]
    cells += [("polar", (spec.seed, a, snr, n_polar)) for snr in polar_snrs]
    raw = _map_cells(_fec_cell_dispatch, cells, spec.jobs)
    raw.sort(key=lambda r: (r["code"], r["snr_db"]))

    rows = []
    for r in raw:
        rows.append({
            "experiment": spec.name, "seed": spec.seed,
            "code": r["code"], "snr_db": r["snr_db"],
            "n_codewords": r["n_codewords"],
            "bit_errors": r["bit_errors"], "block_errors": r["block_errors"],
            "ber": r["bit_errors"] / r["n_bits"],
            "bler": r["block_errors"] / r["n_codewords"],
            "low_confidence": int(0 < r["bit_errors"] < LOW_CONFIDENCE_ERRORS),
        })

    failures = []
    if spec.check:
        def cell_at(kind: str, snr: float) -> dict[str, Any] | None:
            match = [r for r in rows if r["code"] == kind
                     and abs(r["snr_db"] - snr) < 1e-6]
            return match[0] if match else None

        ldpc_op = cell_at("ldpc", op_snr)
        if ldpc_op is None or ldpc_op["n_codewords"] < 100:
            failures.append("no LDPC cell with >= 100 codewords at the operating SNR")
        elif ldpc_op["block_errors"]:
            failures.append(f"LDPC not error-free at {op_snr} dB: "
                            f"{ldpc_op['block_errors']} failed codewords")
        polar_op = cell_at("polar", op_snr)
        if polar_op is None or polar_op["n_codewords"] < 1000:
            failures.append("no polar cell with >= 1000 codewords at the operating SNR")
        elif polar_op["block_errors"]:
            failures.append(f"key channel not block-error-free at {op_snr} dB: "
                            f"{polar_op['block_errors']} failures")
    columns = ["experiment", "seed", "code", "snr_db", "n_codewords",
               "bit_errors", "block_errors", "ber", "bler", "low_confidence"]
    summary = {"n_cells": len(rows), "op_snr_db": op_snr}
    return ExperimentResult(spec, columns, rows, summary, failures)


def _fec_cell_dispatch(cell: tuple) -> dict[str, Any]:
    kind, args = cell
    return _ldpc_cell(args) if kind == "ldpc" else _polar_cell(args)


# --------------------------------------------------------------------------
# keydist / e2e-secure: full multi-subcarrier sessions

def _session_rows(spec: ExperimentSpec, report) -> list[dict[str, Any]]:
    rows = []
    for m in report.frame_metrics:
        rows.append({
            "experiment": spec.name, "seed": spec.seed,
            "frame": m.frame_index, "direction": m.direction,
            "onu": m.onu_id, "sc": m.sc_index,
            "pre_bits": m.pre_bits, "pre_errors": m.pre_errors,
            "post_bits": m.post_bits, "post_errors": m.post_errors,
            "cycle_slips": m.cycle_slips,
        })
    return rows


_SESSION_COLUMNS = ["experiment", "seed", "frame", "direction", "onu", "sc",
                    "pre_bits", "pre_errors", "post_bits", "post_errors",
                    "cycle_slips"]


def _channel_from(p: dict[str, Any], snr_key: str, seed: int,
                  tag: str) -> ChannelConfig:
    snr_sc = p[snr_key]
    agg = None if snr_sc is None else aggregate_snr_db(DscmPlan(), 0,
                                                       _as_float(snr_sc, snr_key))
    return ChannelConfig(
        snr_db=agg,
        linewidth_hz=_as_float(p["linewidth_hz"], "linewidth_hz"),
        freq_offset_hz=_as_float(p["freq_offset_hz"], "freq_offset_hz"),
        seed=_cell_seed(seed, tag)[1],
    )


def _sessions(p: dict[str, Any], seed: int) -> list[OnuSession]:
    """Sessions for the configured ONUs on the fixed subcarrier plan."""
    onu_ids = list(p["onu_ids"])
    if not onu_ids or not all(isinstance(o, str) for o in onu_ids):
        raise ConfigError("onu_ids must be a nonempty list of strings")
    try:
        return make_sessions(allocate_tfdma(onu_ids), seed=seed)
    except ValueError as exc:
        raise ConfigError(f"onu_ids: {exc}") from exc


def _run_keydist(spec: ExperimentSpec) -> ExperimentResult:
    op = theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT)
    p = _require(spec.params, {
        "onu_ids": ["onu1", "onu2"],
        "n_frames": 20,
        "snr_sc_db": round(op, 4),
        "linewidth_hz": 1e5,
        "freq_offset_hz": 0.0,
        "loss_probability": 0.0,
    }, spec.name)
    sessions = _sessions(p, spec.seed)
    n_frames = _as_int(p["n_frames"], "n_frames")
    loss = _as_float(p["loss_probability"], "loss_probability")
    if not 0.0 <= loss < 1.0:
        raise ConfigError(f"loss_probability must lie in [0, 1), got {loss}")

    cfg = _channel_from(p, "snr_sc_db", spec.seed, "keydist-chan")
    report = run_upstream_keydist(sessions, cfg, n_frames, seed=spec.seed,
                                  loss_probability=loss)
    rows = _session_rows(spec, report)

    expected_rotations = len(sessions) * (n_frames // 2)
    failures = []
    if spec.check:
        if report.key_mismatches:
            failures.append(f"{report.key_mismatches} assembled keys "
                            "differ from the generated keys")
        if report.crc_failures:
            failures.append(f"{report.crc_failures} fragments failed CRC")
        if report.rotations != expected_rotations:
            failures.append(f"rotations {report.rotations} != expected "
                            f"{expected_rotations} (one per cadence boundary)")
        if not active_keys_synchronized(sessions):
            failures.append("active keys desynchronized after the run")
    summary = {
        "n_frames": n_frames, "onus": [s.onu_id for s in sessions],
        "pre_fec_ber": report.pre_fec_ber(),
        "keys_assembled": report.keys_assembled,
        "key_mismatches": report.key_mismatches,
        "crc_failures": report.crc_failures,
        "fragments_lost": report.fragments_lost,
        "rotations": report.rotations,
        "expected_rotations": expected_rotations,
        "synchronized": active_keys_synchronized(sessions),
    }
    return ExperimentResult(spec, _SESSION_COLUMNS, rows, summary, failures)


def _run_e2e_secure(spec: ExperimentSpec) -> ExperimentResult:
    op = theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT)
    p = _require(spec.params, {
        "onu_ids": ["onu1", "onu2"],
        "n_superframes": 4,
        "us_snr_sc_db": round(op, 4),
        "ds_snr_sc_db": round(op + 1.2, 4),
        "linewidth_hz": 1e5,
        "freq_offset_hz": 0.0,
        "loss_probability": 0.0,
        "eavesdropper": True,
        "agreement_band": [0.49, 0.51],
    }, spec.name)
    sessions = _sessions(p, spec.seed)
    n_super = _as_int(p["n_superframes"], "n_superframes")
    band = _as_floats(p["agreement_band"], "agreement_band")
    if len(band) != 2 or not 0 <= band[0] < band[1] <= 1:
        raise ConfigError("agreement_band must be [lo, hi] within [0, 1]")

    us_cfg = _channel_from(p, "us_snr_sc_db", spec.seed, "e2e-us-chan")
    ds_cfg = _channel_from(p, "ds_snr_sc_db", spec.seed, "e2e-ds-chan")
    report = run_secure_session(
        sessions, us_cfg, ds_cfg, n_super, seed=spec.seed,
        loss_probability=_as_float(p["loss_probability"], "loss_probability"),
        eavesdropper=bool(p["eavesdropper"]),
    )
    rows = _session_rows(spec, report)

    failures = []
    agreement = report.eavesdropper_agreement()
    if spec.check:
        if report.post_fec_ber() != 0.0:
            failures.append(f"legitimate post-FEC BER {report.post_fec_ber():.3e} "
                            "nonzero above threshold")
        if bool(p["eavesdropper"]):
            if not band[0] <= agreement <= band[1]:
                failures.append(f"eavesdropper agreement {agreement:.4f} outside "
                                f"[{band[0]}, {band[1]}]")
        if not active_keys_synchronized(sessions):
            failures.append("active keys desynchronized after the run")
    summary = {
        "n_superframes": n_super, "onus": [s.onu_id for s in sessions],
        "pre_fec_ber": report.pre_fec_ber(),
        "post_fec_ber": report.post_fec_ber(),
        "keys_assembled": report.keys_assembled,
        "rotations": report.rotations,
        "crc_failures": report.crc_failures,
        "eavesdropper_bits": report.eavesdropper_bits,
        "eavesdropper_agreement": agreement if report.eavesdropper_bits else None,
        "eavesdropper_low_confidence": report.eavesdropper_bits < 1_000_000,
        "synchronized": active_keys_synchronized(sessions),
    }
    return ExperimentResult(spec, _SESSION_COLUMNS, rows, summary, failures)


# --------------------------------------------------------------------------

_RUNNERS: dict[str, Callable[[ExperimentSpec], ExperimentResult]] = {
    "theory-curves": _run_theory_curves,
    "sweep-a": _run_sweep_a,
    "cpr-penalty": _run_cpr_penalty,
    "fec-waterfall": _run_fec_waterfall,
    "keydist": _run_keydist,
    "e2e-secure": _run_e2e_secure,
}


def load_config(path: str | Path | None) -> dict[str, Any]:
    """Read a JSON parameter file; absent path means all defaults."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def write_result(result: ExperimentResult) -> ExperimentResult:
    """Write <name>.csv and <name>.meta.json into the spec's out_dir."""
    spec = result.spec
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{spec.name}.csv"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=result.columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(result.rows)
    csv_path.write_text(buf.getvalue())

    meta_path = out / f"{spec.name}.meta.json"
    meta = {
        "experiment": spec.name,
        "spec": {"params": spec.params, "seed": spec.seed, "jobs": spec.jobs,
                 "check": spec.check},
        "version": _version_string(),
        "columns": result.columns,
        "n_rows": len(result.rows),
        "summary": result.summary,
        "check": {"enabled": spec.check, "passed": result.passed,
                  "failures": result.check_failures},
        "wall_time_s": result.summary.get("wall_time_s"),
    }
    meta_path.write_text(json.dumps(meta, indent=2, default=str) + "\n")
    result.csv_path = csv_path
    result.meta_path = meta_path
    return result


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Expand, run, and persist one experiment; see module docstring."""
    started = time.perf_counter()
    result = _RUNNERS[spec.name](spec)
    result.summary["wall_time_s"] = round(time.perf_counter() - started, 3)
    return write_result(result)
