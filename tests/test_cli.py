import os
import subprocess
import sys
from pathlib import Path

import pytest

from nbiot_noma.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    main,
)
from nbiot_noma.scenario import read_config_file

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
HEADER = "seed,scheme,sweep_value,sum_rate_bps,fairness,satisfied_count,runtime_s"

# The README's three experiment lines, each cut to one small sweep value.
PRESETS = (
    ("sum_rate_kmax8.cfg", "total_devices", "24", "noma,ofdma"),
    ("cell_default.cfg", "k_max", "2", "noma,ofdma"),
    ("connectivity.cfg", "total_devices", "24", "noma,ofdma,fast_ofdm"),
)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text(
        "num_urllc = 3\n"
        "num_mmtc = 9\n"
        "num_clusters = 3\n"
        "max_rank = 4\n"
        "num_subcarriers = 12\n"
        "rb_bandwidth = 45000\n"
        "rng_seed = 11\n"
    )
    return path


def test_run_writes_csv(tmp_path, config_file, capsys):
    out = tmp_path / "results.csv"
    code = main(
        ["run", "--config", str(config_file), "--out", str(out), "--trials", "2"]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("seed,scheme,sweep_value")
    assert len(lines) == 1 + 2 * 2  # 2 trials x {noma, ofdma}
    assert "sum rate" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["nbiot_noma", "nbiot_noma.cli"])
def test_module_form_writes_csv(tmp_path, module):
    # Without an installed script, `python -m` must still run the command.
    out = tmp_path / "module.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-m", module, "run",
            "--config", str(CONFIGS / "cell_small.cfg"),
            "--trials", "1",
            "--out", str(out),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert out.read_text().splitlines()[0] == HEADER


def test_sweep_command(tmp_path, config_file):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--config", str(config_file),
            "--var", "total_devices",
            "--values", "8,12",
            "--out", str(out),
            "--trials", "1",
            "--schemes", "ofdma",
        ]
    )
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 2

    for config, var, value, schemes in PRESETS:
        out = tmp_path / f"{config}.csv"
        code = main(
            [
                "sweep",
                "--config", str(CONFIGS / config),
                "--var", var,
                "--values", value,
                "--out", str(out),
                "--trials", "1",
                "--schemes", schemes,
            ]
        )
        assert code == EXIT_OK, config
        lines = out.read_text().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 1 + len(schemes.split(","))


def test_validate_command(config_file, capsys):
    code = main(["validate", "--config", str(config_file)])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[PASS]" in captured
    assert "[FAIL]" not in captured


def test_validate_narrow_config(tmp_path, capsys):
    # two 3.75 kHz tones fill the 7.5 kHz resource block; the random tiny
    # instances draw up to six tones and must widen the block to hold them
    path = tmp_path / "narrow.cfg"
    path.write_text("num_subcarriers = 2\nrb_bandwidth = 7500\n")
    read_config_file(path)
    code = main(["validate", "--config", str(path), "--seed", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert captured.out.count("[PASS]") == 6


def test_solve_power_prints_solution(capsys):
    code = main(
        ["solve-power", "--lambdas", "1,2", "--thresholds", "1,1", "--pmax", "3"]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "powers_w:" in captured
    assert "grid_oracle_bps:" in captured


def test_solve_power_infeasible(capsys):
    code = main(
        ["solve-power", "--lambdas", "1,2", "--thresholds", "40,40", "--pmax", "3"]
    )
    assert code == EXIT_OK
    assert "infeasible" in capsys.readouterr().out


@pytest.mark.parametrize(
    "lambdas, thresholds", [("1,2,3", "0,0,1e6"), ("1,2,3,4", "0,0,0,1e6")]
)
def test_solve_power_overflowing_threshold_is_infeasible(lambdas, thresholds):
    # 2**(r/B) overflows: infeasible before the backward pass, with no
    # RuntimeWarning, on three users and on four.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-m", "nbiot_noma",
            "solve-power", "--lambdas", lambdas, "--thresholds", thresholds,
            "--pmax", "1",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("infeasible:")
    assert proc.stderr == ""


def test_usage_error_exit_code(capsys):
    assert main(["run", "--config"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def test_run_reads_config_once(tmp_path, config_file, monkeypatch):
    from nbiot_noma import cli

    paths = []

    def counting_read(path):
        paths.append(path)
        return read_config_file(path)

    monkeypatch.setattr(cli, "read_config_file", counting_read)
    out = tmp_path / "results.csv"
    code = main(["run", "--config", str(config_file), "--out", str(out), "--trials", "1"])
    assert code == EXIT_OK
    assert paths == [str(config_file)]


@pytest.mark.parametrize("error", [TypeError, ValueError, RuntimeError])
def test_bug_exits_runtime_with_traceback(tmp_path, config_file, monkeypatch, capsys, error):
    # an unexpected exception is a runtime failure (2), not Python's
    # default exit status 1, which means a usage error here; a plain
    # ValueError or RuntimeError from inside a trial is a bug too
    def broken(*args, **kwargs):
        raise error("broken allocator")

    monkeypatch.setattr("nbiot_noma.harness.allocate", broken)
    out = tmp_path / "results.csv"
    code = main(["run", "--config", str(config_file), "--out", str(out), "--trials", "1"])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "Traceback" in err and f"{error.__name__}: broken allocator" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--var", "k_max", "--values", "2,abc"],
        ["run", "--trials", "0"],
        ["run", "--schemes", "noma,bogus"],
        ["run", "--workers", "0"],
        ["run", "--workers", "-1"],
        ["sweep", "--var", "k_max", "--values", "0"],
        ["sweep", "--var", "k_max", "--values", "-1"],
        ["sweep", "--var", "total_devices", "--values", "0"],
        ["sweep", "--var", "total_devices", "--values", "2.7"],
        ["sweep", "--var", "threshold_scale", "--values", "-0.5"],
        ["run", "--seed", "-5"],
        ["sweep", "--var", "k_max", "--values", "2", "--seed", "-5"],
    ],
)
def test_bad_argument_value_is_usage_error(tmp_path, config_file, capsys, argv):
    out = tmp_path / "results.csv"
    code = main([*argv, "--config", str(config_file), "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--var", "k_max", "--values", "2"]])
def test_out_in_missing_directory_is_usage_error(
    tmp_path, config_file, monkeypatch, capsys, command
):
    # The output path is checked before the first trial, not after the last.
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("nbiot_noma.harness.generate_scenario", no_trial)
    out = tmp_path / "missing" / "results.csv"
    code = main([*command, "--config", str(config_file), "--out", str(out), "--trials", "20"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and str(out.parent) in err
    assert "Traceback" not in err
    assert not out.parent.exists()


def test_validate_negative_seed_is_usage_error(config_file, capsys):
    code = main(["validate", "--config", str(config_file), "--seed", "-1"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--seed" in err and "Traceback" not in err


def test_solve_power_bad_gains_is_usage_error(capsys):
    code = main(["solve-power", "--lambdas", "2,1", "--thresholds", "1,1", "--pmax", "3"])
    assert code == EXIT_USAGE
    assert "sorted ascending" in capsys.readouterr().err


SOLVE_POWER_ARGS = {
    "--lambdas": "1,2",
    "--thresholds": "0.1,0.1",
    "--pmax": "3",
    "--bandwidth": "1",
}
FIELD_OF_OPTION = {
    "--lambdas": "normalized_gains",
    "--thresholds": "rate_thresholds",
    "--pmax": "total_power",
    "--bandwidth": "bandwidth_hz",
}


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("option", sorted(SOLVE_POWER_ARGS))
def test_solve_power_nonfinite_input_is_usage_error(capsys, option, bad):
    args = dict(SOLVE_POWER_ARGS)
    args[option] = f"1,{bad}" if "," in args[option] else bad
    code = main(["solve-power", *(part for item in args.items() for part in item)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert FIELD_OF_OPTION[option] in err


def test_missing_config_is_runtime_failure(tmp_path, capsys):
    code = main(
        ["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o.csv")]
    )
    assert code == EXIT_RUNTIME
