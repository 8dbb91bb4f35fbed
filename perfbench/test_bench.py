"""Tests for the benchmark itself, at the tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import refspeed
from bench import OUT, timed_call
from layertrace import Tracer, layer_metrics, layer_targets
from secpon.experiments import ExperimentSpec
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# every self-time bucket, each reported exactly once
SELF_TIMES = ("dscm.mux.busy_s", "dscm.demux.busy_s", "channel.busy_s",
              "rxdsp.cpr.busy_s", "framing.busy_s", "fec_ldpc.encode.busy_s",
              "fec_ldpc.decode.busy_s", "fec_polar.encode.busy_s",
              "fec_polar.decode.busy_s", "crypto.aes.busy_s",
              "crypto.keystore.busy_s", "protocol.self_s", "experiments.self_s")


def _tiny_spec(name: str, out_dir: Path) -> ExperimentSpec:
    w = WORKLOADS[name]
    return ExperimentSpec(w.experiment, w.sizes["tiny"], seed=7, out_dir=out_dir,
                          check=w.check)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced tiny call per workload: (call, per-layer metrics)."""
    out = {}
    for name, w in WORKLOADS.items():
        tracer = Tracer()
        call = timed_call(w, _tiny_spec(name, tmp_path_factory.mktemp(name)), tracer)
        out[name] = (call, layer_metrics([tracer], [call.wall_ns]))
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # the tiny size is too small for the Monte-Carlo checks to mean anything
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] is (result["failed"] == 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in DECLARED[section]}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == 0:
        record = json.loads((OUT / f"{workload}-seed3-trace0.json").read_text())
        call, = record["calls"]
        assert call["speed"] > 0
        assert result["metrics"]["run_ref_s"]["value"] == pytest.approx(
            call["wall_s"] * call["speed"], rel=1e-9)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_sum_to_traced_run_s(traced, workload):
    _, m = traced[workload]
    assert all(m[k] >= 0 for k in SELF_TIMES)
    assert sum(m[k] for k in SELF_TIMES) == pytest.approx(m["trace.run_s"], rel=1e-9)
    assert m["experiments.self_s"] < m["trace.run_s"]


def test_wrappers_removed_after_traced_run(tmp_path):
    before = {(owner, name): vars(owner)[name] for _, owner, name, _ in layer_targets()}
    assert len(before) >= 30
    w = WORKLOADS["cpr-penalty"]
    tracer = Tracer()
    timed_call(w, _tiny_spec(w.name, tmp_path), tracer)
    spans = len(tracer.spans)
    assert spans > 0
    assert all(vars(owner)[name] is f for (owner, name), f in before.items())
    timed_call(w, _tiny_spec(w.name, tmp_path))
    assert len(tracer.spans) == spans

    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("inside the traced block")
    assert all(vars(owner)[name] is f for (owner, name), f in before.items())


def test_speed_sampler_takes_its_time_off_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with refspeed.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
    assert time.perf_counter() - t0 >= 0.5
    assert sampler.in_block >= 2
    assert len(sampler.ticks) == sampler.in_block + refspeed.AFTER_TICKS
    # each tick is the second of two kernel runs, and both are taken off
    assert 0 < sum(sampler.ticks[:sampler.in_block]) < sampler.spent_s < 0.5
    assert sampler.speed == pytest.approx(
        refspeed.TICK_NOMINAL_S / statistics.fmean(sampler.ticks))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_layer_separation(traced):
    _, fec = traced["fec-waterfall"]
    for key in ("dscm.mux.calls", "dscm.demux.calls", "channel.calls", "rxdsp.cpr.calls"):
        assert fec[key] == 0, key
    assert fec["fec_ldpc.decode.calls"] > 0 and fec["fec_polar.decode.calls"] > 0

    _, cpr = traced["cpr-penalty"]
    for key in ("fec_ldpc.decode.calls", "fec_polar.decode.calls",
                "dscm.mux.calls", "dscm.demux.calls"):
        assert cpr[key] == 0, key
    assert cpr["rxdsp.cpr.calls"] > 0 and cpr["channel.calls"] > 0

    _, session = traced["secure-session"]
    for key in ("dscm.mux.calls", "dscm.demux.calls", "fec_ldpc.decode.calls",
                "fec_polar.decode.calls", "crypto.aes.calls", "crypto.keystore.calls"):
        assert session[key] > 0, key
    assert session["protocol.self_s"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fec-waterfall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
