"""Measure one workload and print the result as the last line of stdout.

A run measures set-up in fresh interpreters, then calls
``run_experiment`` in a closed loop with one caller for about
``--seconds`` and reports the mean over the calls of their times scaled
to a reference machine speed, which ``refspeed`` samples while each call
runs.  Call ``i`` of a run uses an experiment seed derived from
``(--seed, i)``, so a run's mean spans several inputs and the same
``--seed`` always gives the same inputs.  With ``--trace 1`` it spends
half the time on plain calls and half on calls with the layer tracer
installed, which replay the plain calls' seeds and must write the same
CSVs, and it reports the per-layer metrics instead.  Every call is
judged by its workload's correctness check; the full run record (set-up
samples, per-call timings and speed factors, seeds, CSV digests,
simulated figures and the environment) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, replace
from importlib.metadata import version
from pathlib import Path

from secpon.experiments import ExperimentSpec, run_experiment
from secpon.fec_ldpc import default_code
from secpon.fec_polar import PolarCode

from layertrace import Tracer, layer_metrics
from refspeed import TICK_NOMINAL_S, SpeedSampler
from workloads import WORKLOADS, Outcome, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WARM_SETUPS = {"full": 5, "tiny": 1}     # fresh interpreters after the first, cold one

# What every CLI call pays before its experiment starts, sampled like a
# call; prints the wall seconds and the speed factor.
_SETUP_SCRIPT = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
from refspeed import SpeedSampler
with SpeedSampler() as sampler:
    import secpon.experiments
    from secpon.fec_ldpc import default_code
    from secpon.fec_polar import PolarCode
    default_code()
    PolarCode()
    t1 = time.perf_counter()
print(t1 - t0 - sampler.spent_s, sampler.speed)
"""


@dataclass(frozen=True)
class Call:
    seed: int
    wall_ns: int
    cpu_ns: int
    csv_sha256: str
    outcome: Outcome
    speed: float = 1.0        # factor to times at the reference speed
    ticks: int = 0            # speed samples taken during the call

    @property
    def ref_wall_s(self) -> float:
        return self.wall_ns / 1e9 * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_ns / 1e9 * self.speed


def measure_setup(n_warm: int) -> list[dict[str, float]]:
    """Set-up seconds, wall-clock and at the reference speed, in
    ``n_warm + 1`` fresh interpreters; the first is cold."""
    samples = []
    for _ in range(n_warm + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
            capture_output=True, text=True, timeout=120, check=True)
        wall, speed = map(float, proc.stdout.split())
        samples.append({"wall_s": wall, "ref_s": wall * speed})
    return samples


def timed_call(workload: Workload, spec: ExperimentSpec,
               tracer: Tracer | None = None) -> Call:
    """One ``run_experiment`` call; only the call itself runs traced.  An
    untraced call samples the machine speed while it runs, and the time
    the sampling took is taken off its own; a traced call does not sample,
    so its spans hold only the program's time."""
    sampler = SpeedSampler()
    with tracer.installed() if tracer else sampler:
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        result = run_experiment(spec)
        wall = time.perf_counter_ns() - t0
        cpu = time.process_time_ns() - c0
    digest = hashlib.sha256(result.csv_path.read_bytes()).hexdigest()
    call = Call(spec.seed, wall, cpu, digest, workload.judge(result))
    if tracer:
        return call
    return replace(call, wall_ns=wall - round(sampler.spent_s * 1e9),
                   cpu_ns=cpu - round(sampler.spent_cpu_s * 1e9),
                   speed=sampler.speed, ticks=sampler.in_block)


def call_seed(seed: int, index: int) -> int:
    """Experiment seed of a run's ``index``-th call."""
    return zlib.crc32(f"{seed}/{index}".encode())


def call_loop(workload: Workload, spec: ExperimentSpec, seed: int, seconds: float,
              tracers: list[Tracer] | None = None) -> list[Call]:
    """Call at least once, then while another call of median length would
    end less than half a call past ``seconds``.  Trace each call when
    ``tracers`` is given, appending its tracer there."""
    calls: list[Call] = []
    start = time.perf_counter()
    while not calls or (time.perf_counter() - start
                        + statistics.median(c.wall_ns for c in calls) / 2e9 < seconds):
        tracer = None
        if tracers is not None:
            tracer = Tracer()
            tracers.append(tracer)
        calls.append(timed_call(workload, replace(spec, seed=call_seed(seed, len(calls))),
                                tracer))
    return calls


def _git_revision() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(loadavg: tuple[float, float, float]) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cryptography": version("cryptography"),
        "thread_caps": {k: v for k, v in os.environ.items()
                        if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "platform": platform.platform(),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    loadavg = os.getloadavg()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    setup = measure_setup(WARM_SETUPS[args.size])
    default_code()                        # this process's own set-up, untimed
    PolarCode()
    spec = ExperimentSpec(workload.experiment, workload.sizes[args.size],
                          out_dir=OUT / tag, jobs=1, check=workload.check)
    tracers: list[Tracer] = []
    if args.trace:
        plain = call_loop(workload, spec, args.seed, args.seconds / 2)
        traced = call_loop(workload, spec, args.seed, args.seconds / 2, tracers)
    else:
        plain = call_loop(workload, spec, args.seed, args.seconds)
        traced = []
    calls = plain + traced

    attempted = sum(c.outcome.units for c in calls)
    failed = sum(c.outcome.failed for c in calls)
    problems = sorted({p for c in calls for p in c.outcome.problems})
    if any(p.csv_sha256 != t.csv_sha256 for p, t in zip(plain, traced)):
        problems.append("a traced call wrote another CSV than the plain call at its seed")
        failed = attempted

    run_s = statistics.fmean(c.wall_ns for c in plain) / 1e9
    cpu_s = statistics.fmean(c.cpu_ns for c in plain) / 1e9
    # the mean, not the median: at a fixed size the work still varies from
    # seed to seed, on fec-waterfall in two modes (whether the 11.6 dB
    # batch has an unconverged codeword), and a median over a few calls
    # jumps from one mode to the other
    run_ref_s = statistics.fmean(c.ref_wall_s for c in plain)
    if args.trace:
        metrics = layer_metrics(tracers, [c.wall_ns for c in traced])
        metrics["trace.overhead_ratio"] = statistics.median(
            t.wall_ns / p.wall_ns for p, t in zip(plain, traced))
        section = "per_layer"
    else:
        metrics = {
            "setup_s": statistics.median(s["ref_s"] for s in setup[1:]),
            "run_ref_s": run_ref_s,
            "units_per_ref_s": plain[0].outcome.units / run_ref_s,   # the size is fixed
            "cpu_ref_s": statistics.fmean(c.ref_cpu_s for c in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        section = "end_to_end"
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "experiment": workload.experiment,
        "unit": workload.unit, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "params": spec.params,
        "environment": environment(loadavg),
        "setup_s": {"cold": setup[0], "warm": setup[1:]},
        "calls": [{"traced": i >= len(plain), "seed": c.seed, "wall_s": c.wall_ns / 1e9,
                   "cpu_s": c.cpu_ns / 1e9, "speed": c.speed, "speed_samples": c.ticks,
                   "units": c.outcome.units,
                   "failed": c.outcome.failed, "csv_sha256": c.csv_sha256,
                   "simulated": c.outcome.stats} for i, c in enumerate(calls)],
        "tick_nominal_s": TICK_NOMINAL_S,
        "wall_clock": {"run_s": run_s, "cpu_s": cpu_s,
                       "units_per_s": plain[0].outcome.units / run_s},
        "cpu_per_wall": cpu_s / run_s,
        "problems": problems,
        "metrics": metrics,
        "result": result,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    if tracers:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(tracers[-1].spans) + "\n")
    print(f"{tag}: {len(plain)} plain + {len(traced)} traced calls, run_s {run_s:.3f}, "
          f"run_ref_s {run_ref_s:.3f}, "
          f"correct {result['correct']}, first CSV {calls[0].csv_sha256[:12]}",
          file=sys.stderr)
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0
