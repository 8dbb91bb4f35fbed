"""Command-line entry point: ``secpon <experiment> [options]``.

Exit status 0 on success, 2 on a config problem (unknown experiment,
malformed grid, unreadable file), 3 when ``--check`` found a violated
acceptance condition.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    EXPERIMENT_NAMES,
    ConfigError,
    ExperimentSpec,
    _whole,
    load_config,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secpon",
        description="Desk-scale experiments on the secure PON physical layer.",
    )
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES,
                        help="which experiment to run")
    parser.add_argument("--config", type=Path, default=None, metavar="FILE",
                        help="JSON parameter file (defaults used when omitted)")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        metavar="DIR", help="output directory (default: results)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help=f"master seed (default: config 'seed' or {ExperimentSpec.seed})")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for grid cells (default: 1)")
    parser.add_argument("--check", action="store_true",
                        help="evaluate pass/fail conditions; exit 3 on violation")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        config_seed = _whole(config.pop("seed", ExperimentSpec.seed), "seed")
        spec = ExperimentSpec(
            name=args.experiment,
            params=config,
            seed=args.seed if args.seed is not None else config_seed,
            out_dir=args.out,
            jobs=args.jobs,
            check=args.check,
        )
        result = run_experiment(spec)
    except ConfigError as exc:
        print(f"secpon: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    print(f"{spec.name}: {len(result.rows)} rows -> {result.csv_path}")
    for key, value in result.summary.items():
        print(f"  {key}: {value}")
    if args.check:
        if result.passed:
            print("check: all conditions satisfied")
        else:
            for failure in result.check_failures:
                print(f"check FAILED: {failure}", file=sys.stderr)
            return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
