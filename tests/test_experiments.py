"""Experiment runner: grids, cell determinism, output files, checks."""

import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import pytest

import secpon
from secpon import experiments, rxdsp, theory
from secpon.experiments import (
    ConfigError,
    ExperimentSpec,
    load_config,
    run_experiment,
)


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


class TestSpecValidation:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentSpec("no-such-thing", {})

    def test_unknown_config_keys_rejected(self, tmp_path):
        spec = ExperimentSpec("theory-curves", {"typo": 1}, out_dir=tmp_path)
        with pytest.raises(ConfigError, match="typo"):
            run_experiment(spec)

    def test_malformed_snr_range_rejected(self, tmp_path):
        spec = ExperimentSpec("theory-curves",
                              {"snr_db": {"start": 4, "stop": 2, "step": 1}},
                              out_dir=tmp_path)
        with pytest.raises(ConfigError, match="range"):
            run_experiment(spec)

    @pytest.mark.parametrize("start, stop, step, want", [
        (0, 1, 0.6, [0.0, 0.6]),                    # never past stop
        (0, 0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),        # exact grid keeps stop
        (4, 16, 0.5, [4.0 + 0.5 * i for i in range(25)]),
    ])
    def test_snr_range_includes_stop_but_not_beyond(self, start, stop, step, want):
        grid = experiments._snr_grid({"start": start, "stop": stop, "step": step},
                                     "snr_db")
        assert grid == want

    def test_snr_range_ceiling_is_inclusive(self):
        top = experiments.MAX_GRID_POINTS
        grid = experiments._snr_grid({"start": 1, "stop": top, "step": 1}, "snr_db")
        assert len(grid) == top
        with pytest.raises(ConfigError, match="range"):
            experiments._snr_grid({"start": 0, "stop": top, "step": 1}, "snr_db")

    def test_bad_a_rejected(self, tmp_path):
        spec = ExperimentSpec("theory-curves", {"a_values": [0.0]},
                              out_dir=tmp_path)
        with pytest.raises(ConfigError):
            run_experiment(spec)

    def test_config_file_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(arr)


class TestTheoryCurves:
    def test_rows_match_closed_forms(self, tmp_path):
        spec = ExperimentSpec("theory-curves",
                              {"a_values": [1.7], "snr_db": [8.0, 12.0]},
                              seed=4, out_dir=tmp_path, check=True)
        result = run_experiment(spec)
        assert result.passed
        rows = _read_csv(result.csv_path)
        assert len(rows) == 2
        got = float(rows[0]["ber_second_bit"])
        assert got == pytest.approx(theory.ber_pilot_second_bit(8.0, 1.7))
        assert float(rows[1]["ber_16qam"]) == pytest.approx(theory.ber_16qam(12.0))

    def test_metadata_written(self, tmp_path):
        result = run_experiment(ExperimentSpec("theory-curves", {},
                                               out_dir=tmp_path))
        meta = json.loads(result.meta_path.read_text())
        assert meta["experiment"] == "theory-curves"
        assert meta["columns"][:2] == ["experiment", "seed"]
        assert meta["n_rows"] == 75
        assert meta["check"] == {"enabled": False, "passed": True,
                                 "failures": []}
        assert isinstance(meta["wall_time_s"], float)


class TestSweepA:
    def test_monotonic_tradeoff_check_passes(self, tmp_path):
        # loose dex band: 1e5 symbols resolves the trade-off ordering but
        # not the 0.05 dex match, which needs the full-scale symbol count.
        # Like the check, the ordering is taken over resolved cells only:
        # first-bit errors at a = 2.5 and 2.9 number about 1.3 and 0.4.
        # Resolved cells hold over 100 errors and their expected counts
        # differ by factors of 1.3 or more; the likeliest failure, a = 1.5
        # first bit (117 expected) beyond 0.2 dex, has probability 2.4e-9.
        spec = ExperimentSpec("sweep-a",
                              {"n_symbols": 100_000, "dex_tolerance": 0.2},
                              seed=6, out_dir=tmp_path, check=True)
        result = run_experiment(spec)
        assert result.passed, result.check_failures
        rows = [r for r in result.rows if not r["low_confidence"]]
        b1 = [r["ber_mc"] for r in rows if r["bit"] == 1]
        b2 = [r["ber_mc"] for r in rows if r["bit"] == 2]
        assert len(b1) >= 2 and len(b2) == 6
        assert all(x > y for x, y in zip(b1, b1[1:]))
        assert all(x < y for x, y in zip(b2, b2[1:]))

    def test_confidence_interval_covers_theory(self, tmp_path):
        """The 95% intervals cover the closed forms at their nominal rate:
        of 20 independent intervals per bit, each missing with probability
        0.049-0.052 (exact, from the binomial), more than 5 miss with
        probability 3.3e-4, so the test fails with probability below
        6.6e-4 when the intervals are right."""
        snrs = [4.0 + 0.25 * i for i in range(20)]
        spec = ExperimentSpec("sweep-a",
                              {"a_values": [1.7], "snr_db": snrs,
                               "n_symbols": 200_000},
                              seed=8, out_dir=tmp_path)
        rows = run_experiment(spec).rows
        for bit in (1, 2):
            cells = [r for r in rows if r["bit"] == bit]
            assert len(cells) == 20
            assert not any(r["low_confidence"] for r in cells)
            misses = sum(not r["ci95_lo"] <= r["ber_theory"] <= r["ci95_hi"]
                         for r in cells)
            assert misses <= 5, (bit, misses)

    def test_single_cell_reproduces_grid_row(self, tmp_path):
        grid = ExperimentSpec("sweep-a",
                              {"a_values": [1.0, 2.0], "snr_db": [9.0],
                               "n_symbols": 50_000},
                              seed=10, out_dir=tmp_path / "grid")
        solo = ExperimentSpec("sweep-a",
                              {"a_values": [2.0], "snr_db": [9.0],
                               "n_symbols": 50_000},
                              seed=10, out_dir=tmp_path / "solo")
        grid_rows = [r for r in run_experiment(grid).rows if r["a"] == 2.0]
        solo_rows = run_experiment(solo).rows
        assert grid_rows == solo_rows

    def test_master_seed_keeps_its_high_bits(self, tmp_path):
        """Seeds 5 and 2**32 + 5 draw different cells.  About 2800 and 5600
        errors per bit, so both counts agree by chance with probability
        about 2e-5."""
        def errors(seed):
            spec = ExperimentSpec("sweep-a", {"a_values": [1.0], "snr_db": [8.0],
                                              "n_symbols": 100_000},
                                  seed=seed, out_dir=tmp_path / str(seed))
            return [r["n_errors"] for r in run_experiment(spec).rows]

        assert errors(5) != errors(2 ** 32 + 5)

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = {"a_values": [0.5, 1.5, 2.5], "snr_db": [10.0],
               "n_symbols": 50_000}
        serial = run_experiment(ExperimentSpec("sweep-a", dict(cfg), seed=2,
                                               out_dir=tmp_path / "s"))
        pooled = run_experiment(ExperimentSpec("sweep-a", dict(cfg), seed=2,
                                               out_dir=tmp_path / "p", jobs=3))
        assert serial.csv_path.read_bytes() == pooled.csv_path.read_bytes()


class TestCprPenalty:
    def test_shaped_pilot_small_penalty(self, tmp_path):
        spec = ExperimentSpec("cpr-penalty",
                              {"a_values": [1.7], "linewidths_hz": [1e5],
                               "n_symbols": 60_000,
                               "scan_snrs_db": [12.2, 12.6, 13.0, 13.4, 13.8]},
                              seed=3, out_dir=tmp_path, jobs=2)
        result = run_experiment(spec)
        rows = {r["a"]: r for r in result.rows}
        assert set(rows) == {1.7, 3.0}
        assert rows[3.0]["penalty_db"] == 0.0
        assert 0.0 <= rows[1.7]["penalty_db"] < 0.2
        assert 12.5 < rows[3.0]["required_snr_db"] < 13.2

    _SMALL = {"linewidths_hz": [1e5], "n_symbols": 20_000,
              "scan_snrs_db": [12.2, 13.0, 13.8]}

    def test_row_independent_of_other_shapes(self, tmp_path):
        """Shapes share each channel draw, yet a shape's row is the same
        with or without other shapes in the grid."""
        def a17_row(a_values, sub):
            spec = ExperimentSpec("cpr-penalty", {**self._SMALL, "a_values": a_values},
                                  seed=5, out_dir=tmp_path / sub)
            lines = run_experiment(spec).csv_path.read_text().splitlines()
            return [line for line in lines[1:] if line.split(",")[2] == "1.7"]

        solo = a17_row([1.7], "solo")
        assert len(solo) == 1
        assert a17_row([1.0, 1.7], "grid") == solo

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = {**self._SMALL, "a_values": [1.0, 1.7]}
        serial = run_experiment(ExperimentSpec("cpr-penalty", dict(cfg), seed=6,
                                               out_dir=tmp_path / "s"))
        pooled = run_experiment(ExperimentSpec("cpr-penalty", dict(cfg), seed=6,
                                               out_dir=tmp_path / "p", jobs=2))
        assert serial.csv_path.read_bytes() == pooled.csv_path.read_bytes()

    def test_point_reads_no_noise_estimate(self, monkeypatch):
        """A reception in a cpr-penalty point runs the slicer only in the
        residual stage's passes: nothing on this path reads noise_var."""
        receptions, slicer = [], []
        recover, hard = rxdsp.recover_carrier_phase, rxdsp.hard_decision_16qam
        monkeypatch.setattr(rxdsp, "recover_carrier_phase",
                            lambda *args: receptions.append(1) or recover(*args))
        monkeypatch.setattr(rxdsp, "hard_decision_16qam",
                            lambda symbols: slicer.append(1) or hard(symbols))
        experiments._cpr_point((7, (1.7, 3.0), 1e5, 13.0, 10_000))
        assert len(receptions) == 2 * 2          # two shapes, two frames
        assert len(slicer) == rxdsp.RESIDUAL_PASSES * len(receptions)

    def test_unbracketed_scan_rejected(self, tmp_path):
        spec = ExperimentSpec("cpr-penalty",
                              {"a_values": [1.7], "linewidths_hz": [1e5],
                               "n_symbols": 20_000,
                               "scan_snrs_db": [20.0, 21.0]},
                              seed=3, out_dir=tmp_path)
        with pytest.raises(ConfigError, match="bracket"):
            run_experiment(spec)


class TestFecWaterfall:
    def test_operating_point_cells_clean(self, tmp_path):
        op = theory.OP_SNR_DB
        spec = ExperimentSpec("fec-waterfall",
                              {"ldpc_snrs_db": [op], "polar_snrs_db": [op],
                               "n_codewords_ldpc": 12, "n_codewords_polar": 40,
                               "op_snr_db": op},
                              seed=5, out_dir=tmp_path)
        result = run_experiment(spec)
        by_code = {r["code"]: r for r in result.rows}
        assert by_code["ldpc"]["block_errors"] == 0
        assert by_code["polar"]["block_errors"] == 0

    @pytest.mark.parametrize("n_blocks, calls", [(100, 1), (205, 3)])
    def test_polar_cell_decodes_in_chunks(self, monkeypatch, n_blocks, calls):
        batches = []

        def counting_decode(llrs, code):
            batches.append(llrs.shape[0])
            return decode(llrs, code)

        decode = experiments.polar_decode_scl
        monkeypatch.setattr(experiments, "polar_decode_scl", counting_decode)
        op = theory.OP_SNR_DB
        row = experiments._polar_cell((5, 1.7, op, n_blocks))
        assert len(batches) == calls == -(-n_blocks // 100)
        assert sum(batches) == row["n_codewords"] == n_blocks
        assert max(batches) <= 100

    def test_polar_only_builds_no_ldpc_code(self, tmp_path, monkeypatch):
        def no_ldpc():
            raise AssertionError("LDPC code built with no LDPC cell")

        monkeypatch.setattr(experiments, "default_code", no_ldpc)
        op = theory.OP_SNR_DB
        result = run_experiment(ExperimentSpec(
            "fec-waterfall", {"ldpc_snrs_db": [], "polar_snrs_db": [op],
                              "n_codewords_polar": 5},
            seed=5, out_dir=tmp_path, check=True))
        assert [(r["code"], r["snr_db"]) for r in result.rows] == [("polar", op)]
        assert any("no LDPC cell" in f for f in result.check_failures)

    def test_ldpc_only(self, tmp_path):
        op = theory.OP_SNR_DB
        result = run_experiment(ExperimentSpec(
            "fec-waterfall", {"ldpc_snrs_db": [op], "polar_snrs_db": [],
                              "n_codewords_ldpc": 2},
            seed=5, out_dir=tmp_path, check=True))
        assert [(r["code"], r["snr_db"]) for r in result.rows] == [("ldpc", op)]
        assert any("no polar cell" in f for f in result.check_failures)

    def test_both_codes_empty_rejected(self, tmp_path):
        spec = ExperimentSpec("fec-waterfall", {"ldpc_snrs_db": [], "polar_snrs_db": []},
                              out_dir=tmp_path)
        with pytest.raises(ConfigError, match="both be empty"):
            run_experiment(spec)
        assert not (tmp_path / "fec-waterfall.csv").exists()

    def test_check_demands_codeword_counts(self, tmp_path):
        op = theory.OP_SNR_DB
        spec = ExperimentSpec("fec-waterfall",
                              {"ldpc_snrs_db": [op], "polar_snrs_db": [op],
                               "n_codewords_ldpc": 5, "n_codewords_polar": 5,
                               "op_snr_db": op},
                              seed=5, out_dir=tmp_path, check=True)
        result = run_experiment(spec)
        assert not result.passed
        assert any("100 codewords" in f for f in result.check_failures)
        assert any("1000 codewords" in f for f in result.check_failures)


class TestSessionExperiments:
    def test_keydist_noiseless_rotates_every_cadence(self, tmp_path):
        spec = ExperimentSpec("keydist",
                              {"n_frames": 6, "snr_sc_db": None,
                               "linewidth_hz": 0.0},
                              seed=7, out_dir=tmp_path, check=True)
        result = run_experiment(spec)
        assert result.passed, result.check_failures
        assert result.summary["rotations"] == 6
        assert result.summary["keys_assembled"] == 6
        assert result.summary["synchronized"] is True
        rows = _read_csv(result.csv_path)
        assert len(rows) == 6 * 2 * 2          # frames x ONUs x SCs each
        assert {r["direction"] for r in rows} == {"us"}

    def test_keydist_bad_loss_rejected(self, tmp_path):
        spec = ExperimentSpec("keydist", {"loss_probability": 1.5},
                              out_dir=tmp_path)
        with pytest.raises(ConfigError, match="loss_probability"):
            run_experiment(spec)

    def test_e2e_noiseless_secure(self, tmp_path):
        spec = ExperimentSpec("e2e-secure",
                              {"n_superframes": 2, "us_snr_sc_db": None,
                               "ds_snr_sc_db": None, "linewidth_hz": 0.0},
                              seed=9, out_dir=tmp_path, check=True)
        result = run_experiment(spec)
        assert result.passed, result.check_failures
        assert result.summary["post_fec_ber"] == 0.0
        assert 0.49 <= result.summary["eavesdropper_agreement"] <= 0.51
        assert result.summary["eavesdropper_low_confidence"] is True
        assert result.summary["keys_assembled"] == 2
        assert result.summary["stuck_codewords"] == 0
        rows = _read_csv(result.csv_path)
        # upstream passes carry only key fragments; payload rows are downstream
        assert {r["direction"] for r in rows} == {"ds"}

    def test_e2e_check_fails_without_keys(self, tmp_path):
        spec = ExperimentSpec("e2e-secure",
                              {"n_superframes": 2, "us_snr_sc_db": None,
                               "ds_snr_sc_db": None, "linewidth_hz": 0.0,
                               "loss_probability": 0.99},
                              seed=9, out_dir=tmp_path, check=True)
        result = run_experiment(spec)
        assert result.summary["keys_assembled"] == 0
        assert "no session key assembled" in result.check_failures
        assert "rotations 0 != expected 2 (one per cadence boundary)" \
            in result.check_failures

    def test_e2e_bad_band_rejected(self, tmp_path):
        """agreement_band is a constant, so any value for it is rejected."""
        spec = ExperimentSpec("e2e-secure", {"agreement_band": [0.6, 0.4]},
                              out_dir=tmp_path)
        with pytest.raises(ConfigError, match=r"unknown config keys \['agreement_band'\]"):
            run_experiment(spec)

    def test_e2e_benchmark_call_passes_check(self, tmp_path):
        """The secure-session benchmark call at --seed 7003."""
        spec = ExperimentSpec("e2e-secure", {"n_superframes": 9}, seed=2603970838,
                              out_dir=tmp_path, check=True)
        result = run_experiment(spec)
        assert result.passed, result.check_failures
        assert result.summary["post_fec_ber"] == 0.0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: one downstream codeword stays stuck")
    @pytest.mark.parametrize("seed, n_superframes", [(542127515, 9), (3164560516, 5)],
                             ids=["case-A", "case-C"])
    def test_stuck_codeword_reproduction(self, tmp_path, seed, n_superframes):
        """Short reproductions of ROADMAP item 2, each a stuck codeword on
        onu1's subcarrier 1 with no cycle slip.  Case A (item 2b) is
        superframe 6 of the benchmark call size; case C is superframe 4,
        620 pre-FEC and 48 post-FEC errors, first seen at 9 superframes
        and reproduced by the first 5."""
        spec = ExperimentSpec("e2e-secure", {"n_superframes": n_superframes}, seed=seed,
                              out_dir=tmp_path, check=True)
        result = run_experiment(spec)
        assert result.summary["stuck_codewords"] == 0
        assert result.passed, result.check_failures


# Small fixed-seed runs (seed 901, check on), pinned as files under
# tests/data/pinned: each run's CSV and its meta.json summary less
# wall_time_s.  Any change that moves them changes a claimed output and must
# say why.  The CSVs hold floats from numpy and libm, so a different numpy or
# C library may move them without a code change.  To re-pin, run
# ``_run_pinned(PINNED_DIR)`` with src/ and tests/ on the path, and review the diff.
PINNED_DIR = Path(__file__).resolve().parent / "data" / "pinned"
_PINNED_RUNS = [
    ("cpr-penalty-0", "cpr-penalty",
     {"a_values": [1.7], "linewidths_hz": [1e5], "n_symbols": 30000,
      "scan_snrs_db": [12.2, 13.0, 13.8]}),
    ("keydist-1", "keydist", {"n_frames": 4}),
    ("keydist-2", "keydist", {"n_frames": 6, "snr_sc_db": None, "linewidth_hz": 0.0}),
    ("e2e-secure-3", "e2e-secure", {"n_superframes": 2}),
    ("fec-waterfall-4", "fec-waterfall",
     {"ldpc_snrs_db": [12.3434], "polar_snrs_db": [12.3434], "n_codewords_ldpc": 4,
      "n_codewords_polar": 20, "op_snr_db": 12.3434}),
]


def _run_pinned(out_dir, runs=_PINNED_RUNS):
    """Write ``<id>.csv`` and ``<id>.summary.json`` of each run into out_dir."""
    out = Path(out_dir)
    for pin_id, name, params in runs:
        with tempfile.TemporaryDirectory() as run_dir:
            result = run_experiment(ExperimentSpec(name, params, seed=901,
                                                   out_dir=Path(run_dir), check=True))
            summary = json.loads(result.meta_path.read_text())["summary"]
            (out / f"{pin_id}.csv").write_bytes(result.csv_path.read_bytes())
        del summary["wall_time_s"]
        (out / f"{pin_id}.summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def _pinned_differences(out_dir, pin_id):
    """Where a run's files differ from the pinned ones: the first differing
    CSV row with its changed columns, and every changed summary key."""
    out = Path(out_dir)
    found = []
    got, want = (d.joinpath(f"{pin_id}.csv").read_bytes() for d in (out, PINNED_DIR))
    if got != want:
        rows = zip_longest(got.decode().split("\n"), want.decode().split("\n"), fillvalue="")
        line, (g, w) = next((i, gw) for i, gw in enumerate(rows) if gw[0] != gw[1])
        header = want.decode().split("\n")[0].split(",")
        cells = zip_longest(header, w.split(","), g.split(","), fillvalue="")
        found.append(f"{pin_id}.csv line {line + 1}: " + ", ".join(
            f"{col} {old} -> {new}" for col, old, new in cells if old != new))
    got, want = (json.loads(d.joinpath(f"{pin_id}.summary.json").read_text())
                 for d in (out, PINNED_DIR))
    found += [f"{pin_id} summary {key}: {want.get(key)!r} -> {got.get(key)!r}"
              for key in sorted(got.keys() | want.keys(), key=str)
              if json.dumps(got.get(key)) != json.dumps(want.get(key))]
    return found


@pytest.mark.parametrize("run", _PINNED_RUNS, ids=[run[0] for run in _PINNED_RUNS])
def test_fixed_seed_csv_bytes(tmp_path, run):
    _run_pinned(tmp_path, [run])
    assert _pinned_differences(tmp_path, run[0]) == []


def test_pinned_differences_name_row_columns_and_keys(tmp_path):
    pin_id = "e2e-secure-3"
    csv = (PINNED_DIR / f"{pin_id}.csv").read_text().splitlines()
    header, row = csv[0].split(","), csv[2].split(",")
    row[header.index("pre_errors")] = "-1"
    (tmp_path / f"{pin_id}.csv").write_text("\n".join(csv[:2] + [",".join(row)] + csv[3:]) + "\n")
    summary = json.loads((PINNED_DIR / f"{pin_id}.summary.json").read_text())
    summary["rotations"] += 1
    (tmp_path / f"{pin_id}.summary.json").write_text(json.dumps(summary))
    found = _pinned_differences(tmp_path, pin_id)
    assert len(found) == 2
    assert found[0].startswith(f"{pin_id}.csv line 3: pre_errors ")
    assert found[0].endswith(" -> -1")
    assert found[1].startswith(f"{pin_id} summary rotations: ")


_CHILD = """
import sys
import test_experiments
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
assert not __cpu_features__["X86_V3"], "X86_V3 kernels still enabled"
test_experiments._run_pinned(sys.argv[1])
"""


def test_fixed_seed_csv_bytes_do_not_depend_on_simd_target(tmp_path):
    """numpy picks its SIMD kernels at run time, and np.log, np.exp,
    np.log1p and np.angle give different float bits on X86_V2, X86_V3 and
    X86_V4.  The promise is the pinned files, not those bits: a child held
    to the X86_V2 kernels writes every pinned CSV and summary."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__
    if "X86_V3" not in __cpu_dispatch__:
        pytest.skip("numpy dispatches no X86_V3 kernels on this host")
    tests = Path(__file__).resolve().parent
    src = Path(secpon.__file__).resolve().parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR",
           "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [d for pin_id, _, _ in _PINNED_RUNS
            for d in _pinned_differences(tmp_path, pin_id)] == []


_NO_SCIPY_CHILD = """
import sys
from pathlib import Path
import secpon.cli
from secpon.experiments import ExperimentSpec, run_experiment
from secpon.fec_ldpc import default_code
from secpon.fec_polar import PolarCode
default_code()
PolarCode()
runs = [
    ("fec-waterfall", {"ldpc_snrs_db": [12.3434], "polar_snrs_db": [12.3434],
                       "n_codewords_ldpc": 1, "n_codewords_polar": 1}),
    ("keydist", {"n_frames": 1}),
    ("e2e-secure", {"n_superframes": 1}),
    ("cpr-penalty", {"a_values": [1.7], "linewidths_hz": [1e5], "n_symbols": 30000,
                     "scan_snrs_db": [12.2, 13.0, 13.8]}),
]
for name, params in runs:
    run_experiment(ExperimentSpec(name, params, seed=901,
                                  out_dir=Path(sys.argv[1]) / name, check=True))
print(" ".join(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_experiments_run_without_scipy(tmp_path):
    """A fresh interpreter that imports the experiments, builds both codes
    and runs a small fec-waterfall, keydist, e2e-secure and cpr-penalty
    loads no scipy module: only the closed-form curves need ``erfc``."""
    src = Path(secpon.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
