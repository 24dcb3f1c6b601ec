"""A Monte Carlo run, the self checks and the power solver load numpy only.

No module of the package imports SciPy, and the process pool is
imported by the first run with ``workers > 1``, so importing the
package, running trials serially, solving clusters of any size and
running the self checks pay for neither.  The check starts a fresh
interpreter, since this test session has long since loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import sys

import numpy as np

import nbiot_noma
from nbiot_noma import cli
from nbiot_noma.harness import ExperimentSpec, emit_csv, run_experiment
from nbiot_noma.power_opt import OrderedCluster, maximize_rates
from nbiot_noma.scenario import read_config_file
from nbiot_noma.selfcheck import run_self_checks


def deferred():
    return sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
        or name == "concurrent.futures.process"
    )


def solve(gains):
    n = len(gains)
    maximize_rates(OrderedCluster(np.array(gains), np.full(n, 0.1), 3.0, 1.0))


config_path, small_path, api_csv, cli_csv = sys.argv[1:]
state = {"after_import": deferred()}
config = read_config_file(config_path)
spec = ExperimentSpec(
    base_config=config,
    sweep_values=(config.num_devices,),
    trials=1,
    schemes=("noma", "ofdma", "fast_ofdm"),
    mmtc_to_urllc_ratio=config.num_mmtc / config.num_urllc,
)
results = run_experiment(spec, check_invariants=True)
state["errors"] = [r.error for r in results if r.error is not None]
emit_csv(results, api_csv)
state["after_run"] = deferred()
state["cli_exit"] = cli.main(
    ["run", "--config", config_path, "--out", cli_csv, "--trials", "1",
     "--schemes", "noma,ofdma,fast_ofdm"]
)
state["after_cli"] = deferred()
solve([1.0, 2.0])
solve([1.0, 2.0, 3.0])
state["after_small_solves"] = deferred()
state["checks_passed"] = all(c.passed for c in run_self_checks(read_config_file(small_path)))
state["after_checks"] = deferred()
solve([1.0, 2.0, 3.0, 4.0])
solve([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
state["optimize_after_four_users"] = "scipy.optimize" in sys.modules
state["after_large_solves"] = deferred()
print(json.dumps(state))
"""


def test_monte_carlo_run_loads_neither_scipy_nor_the_process_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    config = ROOT / "configs" / "cell_default.cfg"
    small = ROOT / "configs" / "cell_small.cfg"
    api_csv, cli_csv = tmp_path / "api.csv", tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(small), str(api_csv), str(cli_csv)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state["after_import"] == []
    assert state["errors"] == []
    assert state["after_run"] == []
    assert state["cli_exit"] == 0
    assert state["after_cli"] == []
    assert api_csv.read_text().count("\n") == 1 + 3
    assert cli_csv.read_text().count("\n") == 1 + 3
    assert state["after_small_solves"] == []
    assert state["checks_passed"] is True
    assert state["after_checks"] == []
    assert state["optimize_after_four_users"] is False
    assert state["after_large_solves"] == []
