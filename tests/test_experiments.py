"""Experiment runner: grids, cell determinism, output files, checks."""

import json

import numpy as np
import pytest

from secpon import experiments, theory
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
        # not the 0.05 dex match, which needs the full-scale symbol count
        spec = ExperimentSpec("sweep-a",
                              {"n_symbols": 100_000, "dex_tolerance": 0.2},
                              seed=6, out_dir=tmp_path, check=True)
        result = run_experiment(spec)
        assert result.passed, result.check_failures
        rows = result.rows
        b1 = [r["ber_mc"] for r in rows if r["bit"] == 1]
        b2 = [r["ber_mc"] for r in rows if r["bit"] == 2]
        assert all(x > y for x, y in zip(b1, b1[1:]))
        assert all(x < y for x, y in zip(b2, b2[1:]))

    def test_confidence_interval_covers_theory(self, tmp_path):
        spec = ExperimentSpec("sweep-a",
                              {"a_values": [1.7], "snr_db": [6.0],
                               "n_symbols": 200_000},
                              seed=8, out_dir=tmp_path)
        rows = run_experiment(spec).rows
        for r in rows:
            assert r["ci95_lo"] <= r["ber_theory"] <= r["ci95_hi"]
            assert not r["low_confidence"]

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
        op = round(theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT), 4)
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
        op = round(theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT), 4)
        row = experiments._polar_cell((5, 1.7, op, n_blocks))
        assert len(batches) == calls == -(-n_blocks // 100)
        assert sum(batches) == row["n_codewords"] == n_blocks
        assert max(batches) <= 100

    def test_check_demands_codeword_counts(self, tmp_path):
        op = round(theory.snr_at_ber_16qam(theory.SD_FEC_LIMIT), 4)
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
        rows = _read_csv(result.csv_path)
        # upstream passes carry only key fragments; payload rows are downstream
        assert {r["direction"] for r in rows} == {"ds"}

    def test_e2e_bad_band_rejected(self, tmp_path):
        spec = ExperimentSpec("e2e-secure", {"agreement_band": [0.6, 0.4]},
                              out_dir=tmp_path)
        with pytest.raises(ConfigError, match="agreement_band"):
            run_experiment(spec)
