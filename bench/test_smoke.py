"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that traced counts repeat exactly at one seed, and that the
benchmark refuses to report when the program is missing or its CSV
output no longer matches the golden digests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, root=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_units(workload):
    proc = run_bench(workload, trace=0)
    result = result_of(proc)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in [m["name"] for m in SPEC["end_to_end"]] + ["fail_ratio"]:
        assert any(line.split()[:1] == [name] for line in proc.stdout.splitlines()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_have_units_and_counts_repeat(workload):
    first = result_of(run_bench(workload, trace=1))
    second = result_of(run_bench(workload, trace=1))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [name for name, unit in units(first).items() if unit in ("count", "bytes")]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact
    }


def _copy(tmp_path, *names):
    for name in names:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, tmp_path / name)
    return tmp_path


def test_refuses_without_program(tmp_path):
    root = _copy(tmp_path, "BENCHMARK.json", "bench")
    proc = run_bench(WORKLOADS[0], trace=0, root=root)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_golden_digest_mismatch_fails(tmp_path):
    root = _copy(tmp_path, "BENCHMARK.json", "bench", "src", "configs")
    golden_path = root / "bench" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    for digests in golden["digests"].values():
        digests[5 % golden["seeds"]] = "0" * 64
    golden_path.write_text(json.dumps(golden), encoding="utf-8")
    workload = next(iter(golden["digests"]))
    proc = run_bench(workload, trace=0, root=root)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
