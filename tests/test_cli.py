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
    ],
)
def test_bad_argument_value_is_usage_error(tmp_path, config_file, capsys, argv):
    out = tmp_path / "results.csv"
    code = main([*argv, "--config", str(config_file), "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert not out.exists()


def test_solve_power_bad_gains_is_usage_error(capsys):
    code = main(["solve-power", "--lambdas", "2,1", "--thresholds", "1,1", "--pmax", "3"])
    assert code == EXIT_USAGE
    assert "sorted ascending" in capsys.readouterr().err


def test_missing_config_is_runtime_failure(tmp_path, capsys):
    code = main(
        ["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o.csv")]
    )
    assert code == EXIT_RUNTIME
