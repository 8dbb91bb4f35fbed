"""Soak run: the two session experiments at their longest allowed lengths
over a fixed seed list, counting events too rare for the test suite's
run lengths.

    PYTHONPATH=src python3 scripts/soak.py 1 2 [--out soak-out]

Per seed it runs ``e2e-secure`` with ``MAX_E2E_SUPERFRAMES`` superframes
and the eavesdropper off, then ``keydist`` with ``MAX_KEYDIST_FRAMES``
frames, each through ``run_experiment`` with ``check=True``.  Each run
prints one JSON line and adds it to ``<out>/soak.jsonl``; the
experiments' own CSV and meta files go to ``<out>/<experiment>-seed<N>``.
A line holds the stuck LDPC codewords (``stuck_codewords`` in the run's
meta.json summary) and the legitimate downstream codewords decoded, the
post-FEC bit errors, CRC failures, key
mismatches, rotations against the expected count, desynchronized frames,
cycle slips, the failed checks, wall time, and the exception if the run
raised.  The last line printed, and logged, sums the stuck codewords
over the decoded ones across the seeds, with the Wilson 95% upper bound
on that rate, and the CRC failures and key mismatches of every run, so
one line shows the key path too.  One 509-superframe run takes about
two minutes on one core.
"""

from __future__ import annotations

import argparse
import json
import time
import traceback
from pathlib import Path

from secpon.experiments import (
    MAX_E2E_SUPERFRAMES,
    MAX_KEYDIST_FRAMES,
    ExperimentSpec,
    _wilson_interval,
    run_experiment,
)
from secpon.protocol import DATA_BITS_PER_CODEWORD


def _run(name: str, params: dict, seed: int, out: Path) -> dict:
    line = {"experiment": name, "seed": seed, **params}
    started = time.perf_counter()
    try:
        result = run_experiment(ExperimentSpec(name, params, seed=seed, check=True,
                                               out_dir=out / f"{name}-seed{seed}"))
    except Exception:       # a crash is a soak finding, not the end of the soak
        line["exception"] = traceback.format_exc()
    else:
        s = result.summary
        line.update({
            "stuck_codewords": s["stuck_codewords"],
            "codewords": sum(r["post_bits"] for r in result.rows
                             if r["direction"] == "ds") // DATA_BITS_PER_CODEWORD,
            "post_errors": sum(r["post_errors"] for r in result.rows),
            "crc_failures": s["crc_failures"],
            "key_mismatches": s["key_mismatches"],
            "rotations": s["rotations"],
            "expected_rotations": s["expected_rotations"],
            "desynchronized_frames": s["desynchronized_frames"],
            "cycle_slips": sum(r["cycle_slips"] for r in result.rows),
            "check_failures": result.check_failures,
        })
    line["wall_s"] = round(time.perf_counter() - started, 1)
    return line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+", help="master seeds to run")
    parser.add_argument("--out", type=Path, default=Path("soak-out"),
                        help="output directory (default: soak-out)")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    stuck = codewords = crc_failures = key_mismatches = 0
    with open(args.out / "soak.jsonl", "a") as log:
        def emit(record: dict) -> None:
            line = json.dumps(record)
            print(line, flush=True)
            log.write(line + "\n")
            log.flush()

        for seed in args.seeds:
            for name, params in (
                ("e2e-secure", {"n_superframes": MAX_E2E_SUPERFRAMES, "eavesdropper": False}),
                ("keydist", {"n_frames": MAX_KEYDIST_FRAMES}),
            ):
                record = _run(name, params, seed, args.out)
                stuck += record.get("stuck_codewords", 0)
                codewords += record.get("codewords", 0)
                crc_failures += record.get("crc_failures", 0)
                key_mismatches += record.get("key_mismatches", 0)
                emit(record)
        emit({"summary": "stuck_codewords", "seeds": args.seeds,
              "stuck_codewords": stuck, "codewords": codewords,
              "wilson_upper_95": _wilson_interval(stuck, codewords)[1],
              "crc_failures": crc_failures, "key_mismatches": key_mismatches})


if __name__ == "__main__":
    main()
