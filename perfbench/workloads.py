"""The three benchmark workloads: experiment parameters, unit counts,
correctness checks and the simulated figures recorded with each run.

Each workload is one ``secpon`` experiment at a fixed size, run through
``secpon.experiments.run_experiment`` with ``jobs=1``.  ``"full"`` is the
measured size; ``"tiny"`` exists for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from secpon import theory
from secpon.experiments import ExperimentResult
from secpon.framing import upstream_layout

OP_SNR_DB = round(theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT), 4)
AGREEMENT_BAND = (0.49, 0.51)

# The cpr-penalty check's linewidth-ordering condition compares two
# independent Monte-Carlo estimates whose difference at a=1.0 averages
# about -0.015 dB against a 0.02 dB slack on this grid, so it fails on
# about half of all seeds at any size a run can afford.  It is recorded,
# not counted as a failure.
CPR_UNRESOLVED_CHECK = "penalty not ordered by linewidth"


@dataclass(frozen=True)
class Outcome:
    """What one experiment call did, judged by its workload."""

    units: int
    failed: int
    problems: list[str]
    stats: dict[str, Any]


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    unit: str
    check: bool                                   # run the experiment's own --check
    sizes: dict[str, dict[str, Any]]              # size name -> experiment params
    judge: Callable[[ExperimentResult], Outcome]


def _judge_secure_session(result: ExperimentResult) -> Outcome:
    s = result.summary
    n = s["n_superframes"]
    # a superframe fails on its own post-FEC errors; any run-level fault
    # fails them all
    bad_frames = sorted({r["frame"] for r in result.rows if r["post_errors"]})
    problems = []
    expected_keys = len(s["onus"]) * (n // 2)
    if s["crc_failures"]:
        problems.append(f"{s['crc_failures']} key fragments failed CRC")
    # every key assembled upstream is echoed and activated in the same
    # superframe's downstream half, so a mismatched key shows up as
    # post-FEC errors and a lost one as a missing rotation
    if not s["keys_assembled"] == s["rotations"] == expected_keys:
        problems.append(f"keys assembled {s['keys_assembled']}, rotations "
                        f"{s['rotations']}, expected {expected_keys}")
    if not s["synchronized"]:
        problems.append("active keys out of sync")
    agreement = s["eavesdropper_agreement"]
    if agreement is None or not AGREEMENT_BAND[0] <= agreement <= AGREEMENT_BAND[1]:
        problems.append(f"eavesdropper agreement {agreement} outside {AGREEMENT_BAND}")
    failed = n if problems else len(bad_frames)
    if bad_frames:
        problems.append(f"legitimate post-FEC errors in superframes {bad_frames}")
    stats = {k: s[k] for k in ("pre_fec_ber", "post_fec_ber", "eavesdropper_bits",
                               "eavesdropper_agreement", "keys_assembled",
                               "rotations", "crc_failures")}
    return Outcome(n, failed, problems, stats)


def _judge_fec_waterfall(result: ExperimentResult) -> Outcome:
    units = sum(r["n_codewords"] for r in result.rows)
    op_errors = sum(r["block_errors"] for r in result.rows
                    if abs(r["snr_db"] - OP_SNR_DB) < 1e-6)
    problems = [f"{op_errors} block errors at the operating SNR {OP_SNR_DB} dB"] \
        if op_errors else []
    stats = {f"{r['code']}@{r['snr_db']}": {
        "n_codewords": r["n_codewords"], "block_errors": r["block_errors"],
        "bit_errors": r["bit_errors"], "ber": r["ber"]} for r in result.rows}
    return Outcome(units, op_errors, problems, stats)


def _judge_cpr_penalty(result: ExperimentResult) -> Outcome:
    p = result.spec.params
    payload = upstream_layout().payload_len
    frames_per_point = -(-p["n_symbols"] // payload)
    units = frames_per_point * payload * len(p["scan_snrs_db"]) * len(result.rows)
    problems = [f for f in result.check_failures
                if not f.startswith(CPR_UNRESOLVED_CHECK)]
    stats = {
        "penalty_db": {f"a={r['a']}|lw={r['linewidth_hz']:g}": r["penalty_db"]
                       for r in result.rows},
        "required_snr_db": {f"a={r['a']}|lw={r['linewidth_hz']:g}": r["required_snr_db"]
                            for r in result.rows},
        "unresolved_check": [f for f in result.check_failures
                             if f.startswith(CPR_UNRESOLVED_CHECK)],
    }
    return Outcome(units, units if problems else 0, problems, stats)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="secure-session", experiment="e2e-secure", unit="superframes",
        check=False,
        # 9 superframes give the eavesdropper 9 x 116 672 >= 1e6 bits
        sizes={"full": {"n_superframes": 9}, "tiny": {"n_superframes": 1}},
        judge=_judge_secure_session,
    ),
    Workload(
        name="fec-waterfall", experiment="fec-waterfall", unit="codewords",
        check=False,
        sizes={size: {"ldpc_snrs_db": [11.6, OP_SNR_DB], "polar_snrs_db": [OP_SNR_DB],
                      "n_codewords_ldpc": n_ldpc, "n_codewords_polar": n_polar,
                      "op_snr_db": OP_SNR_DB}
               for size, n_ldpc, n_polar in (("full", 10, 100), ("tiny", 1, 2))},
        judge=_judge_fec_waterfall,
    ),
    Workload(
        name="cpr-penalty", experiment="cpr-penalty", unit="payload symbols",
        check=True,
        sizes={size: {"a_values": [1.0, 1.7], "linewidths_hz": [1e5, 1e6],
                      "baseline_a": 3.0, "n_symbols": n,
                      "scan_snrs_db": [12.2, 12.6, 13.0, 13.4, 13.8]}
               for size, n in (("full", 500_000), ("tiny", 8640))},
        judge=_judge_cpr_penalty,
    ),
)}
