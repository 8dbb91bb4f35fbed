"""Experiment runner behind the ``secpon`` command.

Each experiment declares its config keys once, in a table of
``{key: (default, parser)}``: ``_params`` rejects keys the table does
not name and puts every value, given or default, through its parser.
Numbers are JSON numbers (a bool is not one), counts are whole, flags
are ``true``/``false``.  The experiment then expands its grid into
independent cells, runs them (optionally on a process pool), and writes
two files into the output directory: ``<name>.csv`` with one row per
result cell and ``<name>.meta.json`` echoing the spec as given, the
column schema, a version string, and wall time.  The columns are read
off the rows, after ``experiment`` and ``seed``, which
``run_experiment`` prepends; the session experiments write one row per
``FrameMetrics``, field for field.  Every draw comes from the seed tree
(``secpon.seeds``) under the master seed, and a cell's streams are keyed
by the cell's own parameters, so re-running any single cell in a
smaller grid reproduces its row byte for byte.

cpr-penalty runs by (linewidth, SNR) point: each pilot shape draws its
own data, and per frame all shapes share one channel draw as the rows of
one stream.  Rows do not affect each other, so the same holds there.

Monte-Carlo BER cells carry their error counts and a 95% Wilson interval;
cells with fewer than 100 errors are flagged low-confidence.  With
``check=True`` each experiment also evaluates its pass/fail conditions
and reports violations instead of silently writing numbers.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__, seeds, theory
from .channel import ChannelConfig, _add_noise, apply_channel
from .crypto import SEQ_BITS
from .dscm import SUBCARRIER_BAUD, aggregate_snr_db
from .fec_ldpc import LDPC_K, default_code
from .fec_polar import POLAR, KeyCodeword, polar_decode_scl
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
    ECHO_NONE,
    OnuSession,
    SessionReport,
    allocate_tfdma,
    active_keys_synchronized,
    make_sessions,
    receive_subcarrier,
    run_secure_session,
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
CPR_PENALTY_BOUND_DB = 0.15     # criterion 3: a=1.7 at most, a=1.0 at least, at 100 kHz
AGREEMENT_BAND = (0.49, 0.51)   # criterion 6: the eavesdropper's bit agreement
MAX_GRID_POINTS = 10_000       # longest {start, stop, step} SNR range
_MC_CHUNK = 1_000_000
_POLAR_CHUNK = 100      # blocks per list-decoder call, about 8 MiB of decoder state at peak
# Without losses each ONU draws key s in frame 2(s - 1), so keydist runs
# out of sequence numbers at frame 2 * (2 ** SEQ_BITS - 1).  e2e-secure
# activates one key per two superframes through the downstream echo, and
# the echo of key ECHO_NONE reads as "nothing pending", so its last
# rotation is key ECHO_NONE - 1.
MAX_KEYDIST_FRAMES = 2 * (2 ** SEQ_BITS - 1)
MAX_E2E_SUPERFRAMES = 2 * ECHO_NONE - 1


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
        try:
            seeds.check_master(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentResult:
    """Rows plus bookkeeping, as written to disk."""

    spec: ExperimentSpec
    rows: list[dict[str, Any]]
    summary: dict[str, Any]
    check_failures: list[str] = field(default_factory=list)
    csv_path: Path | None = None
    meta_path: Path | None = None

    @property
    def columns(self) -> list[str]:
        """CSV header: the keys of the first row; every experiment writes
        at least one row."""
        return list(self.rows[0])

    @property
    def passed(self) -> bool:
        return not self.check_failures


def _cell_path(master: int, desc: str) -> tuple[int, ...]:
    """The stream path of a cell's draws, tied to the cell parameters
    written in ``desc``, not to the grid layout."""
    return (master, seeds.CELL, seeds.label(desc))


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


_Parser = Callable[[Any, str], Any]


def _params(spec: ExperimentSpec, table: dict[str, tuple[Any, _Parser]]) -> dict[str, Any]:
    """Every key of ``table`` parsed from the spec's params or its default,
    rejecting keys the table does not name."""
    unknown = set(spec.params) - set(table)
    if unknown:
        raise ConfigError(f"{spec.name}: unknown config keys {sorted(unknown)}; "
                          f"allowed: {sorted(table)}")
    return {key: parse(spec.params.get(key, default), key)
            for key, (default, parse) in table.items()}


def _number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:       # a JSON integer too large for a float
        x = math.inf
    if not math.isfinite(x):    # JSON reads Infinity, NaN and 1e400 as floats
        raise ConfigError(f"{key} must be a finite number")
    return x


def _nonnegative(value: Any, key: str) -> float:
    x = _number(value, key)
    if x < 0:
        raise ConfigError(f"{key} must be >= 0, got {x}")
    return x


def _nonnegatives(value: Any, key: str) -> list[float]:
    return [_nonnegative(x, key) for x in _numbers(value, key)]


def _optional_number(value: Any, key: str) -> float | None:
    return None if value is None else _number(value, key)


def _numbers(value: Any, key: str, minimum: int = 1) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) < minimum:
        raise ConfigError(f"{key} must be a {'nonempty ' if minimum else ''}"
                          "list of numbers")
    xs = [_number(v, key) for v in value]
    if len(set(xs)) != len(xs):     # a repeated grid point repeats its rows
        raise ConfigError(f"{key} must not repeat a value, got {list(value)}")
    return xs


def _whole(value: Any, key: str) -> int:
    """A JSON number with no fractional part; JSON integers are kept exact."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    n = _number(value, key)
    if not n.is_integer():
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(n)


def _count(value: Any, key: str, minimum: int = 1) -> int:
    n = _whole(value, key)
    if n < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return n


def _run_length(limit: int) -> _Parser:
    """Parser of a frame count of at most ``limit``."""
    def parse(value: Any, key: str) -> int:
        n = _count(value, key)
        if n > limit:
            raise ConfigError(f"{key} must be <= {limit}: a longer run exhausts "
                              f"the {SEQ_BITS}-bit key sequence space")
        return n
    return parse


def _flag(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _pilot_shape(value: Any, key: str) -> float:
    """A pilot shaping parameter ``a``, which must lie in (0, 3]."""
    a = _number(value, key)
    if not 0.0 < a <= 3.0:
        raise ConfigError(f"{key} must lie in (0, 3], got {a}")
    return a


def _pilot_shapes(value: Any, key: str) -> list[float]:
    return [_pilot_shape(a, key) for a in _numbers(value, key)]


def _snr_grid(value: Any, key: str) -> list[float]:
    """Either an explicit list or a {start, stop, step} range, inclusive."""
    if isinstance(value, dict):
        extra = set(value) - {"start", "stop", "step"}
        if extra or not {"start", "stop", "step"} <= set(value):
            raise ConfigError(f"{key} range needs exactly start/stop/step")
        start, stop, step = (_number(value[k], key) for k in ("start", "stop", "step"))
        if step <= 0 or stop < start:
            raise ConfigError(f"{key} range must run forward with step > 0")
        # the tolerance keeps the last point of an exact grid; the range has
        # floor(span) + 1 points, checked before any of them is built
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID_POINTS:
            raise ConfigError(f"{key} must be a range of at most {MAX_GRID_POINTS} points")
        return _numbers([round(start + i * step, 10) for i in range(math.floor(span) + 1)],
                        key)
    return _numbers(value, key)


def _onu_ids(value: Any, key: str) -> list[str]:
    if not isinstance(value, (list, tuple)) or not value \
            or not all(isinstance(o, str) for o in value):
        raise ConfigError(f"{key} must be a nonempty list of strings")
    return list(value)


def _probability(value: Any, key: str) -> float:
    p = _number(value, key)
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"{key} must lie in [0, 1), got {p}")
    return p


def _map_cells(fn: Callable, cells: Sequence, jobs: int) -> list:
    if jobs > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            return list(pool.map(fn, cells))
    return [fn(c) for c in cells]


# --------------------------------------------------------------------------
# theory-curves: closed-form pilot-bit and payload BER over an SNR grid

def _run_theory_curves(spec: ExperimentSpec) -> ExperimentResult:
    p = _params(spec, {
        "a_values": ([1.0, 1.7, 3.0], _pilot_shapes),
        "snr_db": ({"start": 4.0, "stop": 16.0, "step": 0.5}, _snr_grid),
    })
    a_values, snrs = p["a_values"], p["snr_db"]
    rows = []
    for a in a_values:
        for snr in snrs:
            rows.append({
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
    summary = {"n_cells": len(rows), "a_values": a_values,
               "snr_points": len(snrs)}
    return ExperimentResult(spec, rows, summary, failures)


# --------------------------------------------------------------------------
# sweep-a: Monte-Carlo pilot-bit BER against the closed forms

def _pilot_mc_cell(args: tuple) -> dict[str, Any]:
    master, a, snr_db, n_symbols = args
    params = GcsPilotParams(a=a)
    rng = seeds.stream(*_cell_path(master, f"sweep-a|a={a!r}|snr={snr_db!r}|n={n_symbols}"))
    sigma2 = 10.0 ** (-snr_db / 10.0)
    err1 = err2 = 0
    done = 0
    while done < n_symbols:
        n = min(_MC_CHUNK, n_symbols - done)
        first = rng.integers(0, 2, n).astype(np.uint8)
        second = rng.integers(0, 2, n).astype(np.uint8)
        got1, got2 = demap_pilot(_add_noise(rng, map_pilot(first, second, params), sigma2),
                                 params)
        err1 += int(np.count_nonzero(got1 != first))
        err2 += int(np.count_nonzero(got2 != second))
        done += n
    return {"a": a, "snr_db": snr_db, "n_symbols": n_symbols,
            "err1": err1, "err2": err2}


def _run_sweep_a(spec: ExperimentSpec) -> ExperimentResult:
    p = _params(spec, {
        "a_values": ([0.5, 1.0, 1.5, 2.0, 2.5, 2.9], _pilot_shapes),
        "snr_db": ([10.0], _snr_grid),
        "n_symbols": (1_000_000, _count),
        "dex_tolerance": (0.05, _number),
        "min_theory_ber": (1e-4, _number),
    })
    snrs, tol, floor = p["snr_db"], p["dex_tolerance"], p["min_theory_ber"]

    cells = [(spec.seed, a, snr, p["n_symbols"])
             for a in sorted(p["a_values"]) for snr in snrs]
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
    summary = {"n_cells": len(rows),
               "max_dex": max((r["dex_error"] for r in rows
                               if isinstance(r["dex_error"], float)
                               and not r["low_confidence"]
                               and r["ber_theory"] >= floor), default=None)}
    return ExperimentResult(spec, rows, summary, failures)


# --------------------------------------------------------------------------
# cpr-penalty: required SNR at the SD-FEC limit per pilot shape/linewidth,
# from error counts taken at (linewidth, SNR) points

def _cpr_point(args: tuple) -> tuple[list[int], int]:
    """Payload errors per pilot shape, and bits per shape, at one
    (linewidth, SNR) point through the full single-carrier recovery chain."""
    master, shapes, linewidth_hz, snr_db, n_symbols = args
    layout = upstream_layout()
    n_frames = -(-n_symbols // layout.payload_len)
    cfg = ChannelConfig(snr_db=snr_db, linewidth_hz=linewidth_hz)
    data_rngs = [seeds.stream(*_cell_path(
        master, f"cpr-data|a={a!r}|lw={linewidth_hz!r}|snr={snr_db!r}")) for a in shapes]
    errors = [0] * len(shapes)
    for f in range(n_frames):
        # per shape: pilot sign bits, pilot second bits, payload bits
        sent = [[rng.integers(0, 2, n).astype(np.uint8)
                 for n in (layout.n_pilots, layout.n_pilots, 4 * layout.payload_len)]
                for rng in data_rngs]
        frames = [transmit_subcarrier(*bits, (master, seeds.TRAIN, f, 0), layout,
                                      GcsPilotParams(a=a))
                  for a, bits in zip(shapes, sent)]
        rx = apply_channel(SymbolStream(np.stack(frames), SUBCARRIER_BAUD), cfg, _cell_path(
            master, f"cpr-chan|lw={linewidth_hz!r}|snr={snr_db!r}|f={f}"))
        for k, (row, (first, _, payload_bits)) in enumerate(zip(rx.symbols, sent)):
            got = receive_subcarrier(row, first, layout)
            errors[k] += int(np.count_nonzero(
                demap_payload_16qam(got.payload) != payload_bits))
    return errors, n_frames * 4 * layout.payload_len


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


def _run_cpr_penalty(spec: ExperimentSpec) -> ExperimentResult:
    p = _params(spec, {
        "a_values": ([1.0, 1.35, 1.7, 2.35], _pilot_shapes),
        "linewidths_hz": ([1e5, 5e5, 1e6], _nonnegatives),
        "baseline_a": (3.0, _pilot_shape),
        "n_symbols": (200_000, functools.partial(_count, minimum=1000)),
        "scan_snrs_db": ([12.2, 12.5, 12.8, 13.1, 13.4, 13.7, 14.0], _numbers),
    })
    a_values = sorted(p["a_values"])
    linewidths, baseline_a = p["linewidths_hz"], p["baseline_a"]
    n_symbols, scan_snrs = p["n_symbols"], p["scan_snrs_db"]
    target = theory.SD_FEC_LIMIT

    todo = sorted(set(a_values) | {baseline_a})
    points = [(lw, snr) for lw in linewidths for snr in scan_snrs]
    raw = _map_cells(_cpr_point, [(spec.seed, tuple(todo), lw, snr, n_symbols)
                                  for lw, snr in points], spec.jobs)
    errors = {(a, lw, snr): e for (lw, snr), (counts, _) in zip(points, raw)
              for a, e in zip(todo, counts)}
    bits = raw[0][1]        # every point sends the same number of frames

    rows = []
    for lw in linewidths:
        required = {a: _required_snr([(snr, errors[(a, lw, snr)] / bits)
                                      for snr in scan_snrs], target)
                    for a in todo}
        base = required[baseline_a]
        for a in todo:
            min_errors = min(errors[(a, lw, snr)] for snr in scan_snrs)
            rows.append({
                "a": a, "linewidth_hz": lw, "n_symbols": n_symbols,
                "required_snr_db": round(required[a], 6),
                "baseline_snr_db": round(base, 6),
                "penalty_db": round(required[a] - base, 6),
                "low_confidence": int(min_errors < LOW_CONFIDENCE_ERRORS),
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
        if p17 is not None and p17 > CPR_PENALTY_BOUND_DB:
            failures.append(f"a=1.7 penalty {p17:.3f} dB exceeds "
                            f"{CPR_PENALTY_BOUND_DB} dB at 100 kHz")
        if p10 is not None and p10 < CPR_PENALTY_BOUND_DB:
            failures.append(f"a=1.0 penalty {p10:.3f} dB below "
                            f"{CPR_PENALTY_BOUND_DB} dB at 100 kHz")
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
    summary = {"n_cells": len(rows), "baseline_a": baseline_a,
               "target_ber": target}
    return ExperimentResult(spec, rows, summary, failures)


# --------------------------------------------------------------------------
# fec-waterfall: coded performance of the data and key channels

def _ldpc_cell(args: tuple) -> dict[str, Any]:
    master, snr_db, n_codewords = args
    code = default_code()
    rng = seeds.stream(*_cell_path(master, f"ldpc|snr={snr_db!r}|n={n_codewords}"))
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
            llrs[i] = payload_llrs_16qam(_add_noise(rng, syms, sigma2), sigma2)
        hard, _, _ = code.decode_batch(llrs)
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
    rng = seeds.stream(*_cell_path(master, f"polar|a={a!r}|snr={snr_db!r}|n={n_codewords}"))
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
            llrs[i] = demap_pilot_llrs(_add_noise(rng, tx, sigma2), params)
        got, ok = polar_decode_scl(llrs, POLAR)
        diff = np.where(ok, np.count_nonzero(got != payloads, axis=1), k)
        bit_errors += int(diff.sum())
        block_errors += int(np.count_nonzero(diff))
        done += b
    return {"code": "polar", "snr_db": snr_db, "n_codewords": n_codewords,
            "bit_errors": bit_errors, "block_errors": block_errors,
            "n_bits": n_codewords * k}


def _run_fec_waterfall(spec: ExperimentSpec) -> ExperimentResult:
    op = theory.OP_SNR_DB
    # either code's list may be empty, to run the other code alone
    any_numbers = functools.partial(_numbers, minimum=0)
    p = _params(spec, {
        "ldpc_snrs_db": ([11.0, 11.3, 11.6, 11.9, op], any_numbers),
        "polar_snrs_db": ([10.0, 11.0, op], any_numbers),
        "n_codewords_ldpc": (100, _count),
        "n_codewords_polar": (1000, _count),
        "a": (1.7, _pilot_shape),
        "op_snr_db": (op, _number),
    })
    op_snr = p["op_snr_db"]
    if not p["ldpc_snrs_db"] and not p["polar_snrs_db"]:
        raise ConfigError("ldpc_snrs_db and polar_snrs_db must not both be empty")

    if p["ldpc_snrs_db"]:
        default_code()      # build once before forking workers
    cells = [("ldpc", (spec.seed, snr, p["n_codewords_ldpc"])) for snr in p["ldpc_snrs_db"]]
    cells += [("polar", (spec.seed, p["a"], snr, p["n_codewords_polar"]))
              for snr in p["polar_snrs_db"]]
    raw = _map_cells(_fec_cell_dispatch, cells, spec.jobs)
    raw.sort(key=lambda r: (r["code"], r["snr_db"]))

    rows = []
    for r in raw:
        rows.append({
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
    summary = {"n_cells": len(rows), "op_snr_db": op_snr}
    return ExperimentResult(spec, rows, summary, failures)


def _fec_cell_dispatch(cell: tuple) -> dict[str, Any]:
    kind, args = cell
    return _ldpc_cell(args) if kind == "ldpc" else _polar_cell(args)


# --------------------------------------------------------------------------
# keydist / e2e-secure: full multi-subcarrier sessions

# config keys both session experiments take
_SESSION_PARAMS: dict[str, tuple[Any, _Parser]] = {
    "onu_ids": (["onu1", "onu2"], _onu_ids),
    "linewidth_hz": (1e5, _nonnegative),
    "freq_offset_hz": (0.0, _number),
    "loss_probability": (0.0, _probability),
}


def _channel(p: dict[str, Any], snr_key: str) -> ChannelConfig:
    """The channel of parsed session params ``p``; ``p[snr_key]`` is the
    per-subcarrier SNR, or None for no noise."""
    snr_sc = p[snr_key]
    return ChannelConfig(
        snr_db=None if snr_sc is None else aggregate_snr_db(snr_sc),
        linewidth_hz=p["linewidth_hz"],
        freq_offset_hz=p["freq_offset_hz"],
    )


def _sessions(onu_ids: list[str], seed: int) -> list[OnuSession]:
    """Sessions for the configured ONUs on the fixed subcarrier grid."""
    try:
        return make_sessions(allocate_tfdma(onu_ids), seed=seed)
    except ValueError as exc:
        raise ConfigError(f"onu_ids: {exc}") from exc


def _session_result(spec: ExperimentSpec, sessions: list[OnuSession],
                    report: SessionReport, n_frames: int, summary: dict[str, Any],
                    failures: list[str]) -> ExperimentResult:
    """The result of a session run: one row per ``FrameMetrics``, the
    experiment's own ``summary`` keys and check ``failures`` after the
    key-channel counters and checks both session experiments share."""
    expected_rotations = len(sessions) * (n_frames // 2)
    if spec.check:
        if report.key_mismatches:
            failures.append(f"{report.key_mismatches} assembled keys "
                            "differ from the generated keys")
        if report.rotations != expected_rotations:
            failures.append(f"rotations {report.rotations} != expected "
                            f"{expected_rotations} (one per cadence boundary)")
        if report.desynchronized_frames:
            failures.append(f"active keys desynchronized after "
                            f"{report.desynchronized_frames} of {n_frames} frames")
    summary = {
        **summary, "onus": [s.onu_id for s in sessions],
        "pre_fec_ber": report.pre_fec_ber(),
        "keys_assembled": report.keys_assembled,
        "key_mismatches": report.key_mismatches,
        "crc_failures": report.crc_failures,
        "fragments_lost": report.fragments_lost,
        "rotations": report.rotations,
        "expected_rotations": expected_rotations,
        "desynchronized_frames": report.desynchronized_frames,
        "stuck_codewords": report.stuck_codewords,
        "synchronized": active_keys_synchronized(sessions),
    }
    return ExperimentResult(spec, [asdict(m) for m in report.frame_metrics],
                            summary, failures)


def _run_keydist(spec: ExperimentSpec) -> ExperimentResult:
    p = _params(spec, {
        **_SESSION_PARAMS,
        "n_frames": (20, _run_length(MAX_KEYDIST_FRAMES)),
        "snr_sc_db": (theory.OP_SNR_DB, _optional_number),
    })
    sessions = _sessions(p["onu_ids"], spec.seed)
    n_frames = p["n_frames"]
    report = run_secure_session(sessions, _channel(p, "snr_sc_db"), None, n_frames,
                                seed=spec.seed,
                                loss_probability=p["loss_probability"])
    failures = []
    if spec.check and report.crc_failures:
        failures.append(f"{report.crc_failures} fragments failed CRC")
    return _session_result(spec, sessions, report, n_frames,
                           {"n_frames": n_frames}, failures)


def _run_e2e_secure(spec: ExperimentSpec) -> ExperimentResult:
    op = theory.OP_SNR_DB
    p = _params(spec, {
        **_SESSION_PARAMS,
        "n_superframes": (4, _run_length(MAX_E2E_SUPERFRAMES)),
        "us_snr_sc_db": (op, _optional_number),
        "ds_snr_sc_db": (round(op + 1.2, 4), _optional_number),
        "eavesdropper": (True, _flag),
    })
    sessions = _sessions(p["onu_ids"], spec.seed)
    n_super = p["n_superframes"]
    report = run_secure_session(
        sessions, _channel(p, "us_snr_sc_db"), _channel(p, "ds_snr_sc_db"), n_super,
        seed=spec.seed, loss_probability=p["loss_probability"],
        eavesdropper=p["eavesdropper"],
    )
    failures = []
    agreement = report.eavesdropper_agreement()
    if spec.check:
        if not report.keys_assembled:
            failures.append("no session key assembled")
        if report.post_fec_ber() != 0.0:
            failures.append(f"legitimate post-FEC BER {report.post_fec_ber():.3e} "
                            "nonzero above threshold")
        lo, hi = AGREEMENT_BAND
        if p["eavesdropper"] and not lo <= agreement <= hi:
            failures.append(f"eavesdropper agreement {agreement:.4f} outside [{lo}, {hi}]")
    summary = {
        "n_superframes": n_super,
        "post_fec_ber": report.post_fec_ber(),
        "eavesdropper_bits": report.eavesdropper_bits,
        "eavesdropper_agreement": agreement if report.eavesdropper_bits else None,
        "eavesdropper_low_confidence": report.eavesdropper_bits < 1_000_000,
    }
    return _session_result(spec, sessions, report, n_super, summary, failures)


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
    result.rows = [dict(experiment=spec.name, seed=spec.seed, **row) for row in result.rows]
    result.summary["wall_time_s"] = round(time.perf_counter() - started, 3)
    return write_result(result)
