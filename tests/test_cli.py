"""Command-line surface: argument handling, exit codes, emitted files."""

import json
import subprocess
import sys

import pytest

from secpon.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, main


def test_success_writes_csv_and_metadata(tmp_path, capsys):
    rc = main(["theory-curves", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "theory-curves.csv").exists()
    meta = json.loads((tmp_path / "theory-curves.meta.json").read_text())
    assert meta["spec"]["seed"] == 12345
    out = capsys.readouterr().out
    assert "75 rows" in out


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "a_values": [1.0],
                               "snr_db": [10.0], "n_symbols": 20_000}))
    rc = main(["sweep-a", "--config", str(cfg), "--out", str(tmp_path / "a"),
               "--seed", "99"])
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / "a" / "sweep-a.meta.json").read_text())
    assert meta["spec"]["seed"] == 99


def test_config_seed_used_without_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 31, "a_values": [1.0],
                               "snr_db": [10.0], "n_symbols": 20_000}))
    rc = main(["sweep-a", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / "b" / "sweep-a.meta.json").read_text())
    assert meta["spec"]["seed"] == 31


def test_same_seed_reproduces_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a_values": [1.5], "snr_db": [9.0],
                               "n_symbols": 30_000}))
    for sub in ("r1", "r2"):
        rc = main(["sweep-a", "--seed", "3", "--config", str(cfg),
                   "--out", str(tmp_path / sub)])
        assert rc == EXIT_OK
    assert (tmp_path / "r1" / "sweep-a.csv").read_bytes() \
        == (tmp_path / "r2" / "sweep-a.csv").read_bytes()


def test_unknown_experiment_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment"])
    assert exc.value.code == 2


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": True}))
    rc = main(["theory-curves", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path):
    rc = main(["theory-curves", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("experiment, params, key", [
    ("keydist", {"linewidth_hz": "fast"}, "linewidth_hz"),
    ("theory-curves", {"snr_db": {"start": "x", "stop": 1, "step": 1}}, "snr_db"),
    ("fec-waterfall", {"a": 5}, "a"),
    ("fec-waterfall", {"op_snr_db": [12.0]}, "op_snr_db"),
    ("cpr-penalty", {"baseline_a": 0}, "baseline_a"),
    ("sweep-a", {"dex_tolerance": None}, "dex_tolerance"),
])
def test_malformed_number_exits_2(tmp_path, capsys, experiment, params, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(params))
    rc = main([experiment, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert f"config error: {key} must" in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


@pytest.mark.parametrize("n_onus, message", [(3, "pilot budget"), (5, "oversubscribe")])
def test_unusable_onu_ids_exit_2(tmp_path, capsys, n_onus, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"onu_ids": [f"onu{i}" for i in range(n_onus)],
                               "n_frames": 1}))
    rc = main(["keydist", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_check_violation_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "ldpc_snrs_db": [12.3434], "polar_snrs_db": [12.3434],
        "n_codewords_ldpc": 5, "n_codewords_polar": 5,
        "op_snr_db": 12.3434,
    }))
    rc = main(["fec-waterfall", "--config", str(cfg),
               "--out", str(tmp_path), "--check"])
    assert rc == EXIT_CHECK
    assert "check FAILED" in capsys.readouterr().err


def test_check_pass_exits_0(tmp_path, capsys):
    rc = main(["theory-curves", "--out", str(tmp_path), "--check"])
    assert rc == EXIT_OK
    assert "all conditions satisfied" in capsys.readouterr().out


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "secpon.cli", "theory-curves",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "theory-curves.csv").exists()
