"""Mutation check: every seeded fault must make a named test fail.

    python3 tests/mutation_check.py

The script copies ``src/``, ``tests/``, ``configs/`` and ``pyproject.toml``
into a temporary directory and runs the unmutated copy's tests first; they
must pass.  Then, one mutant at a time, it replaces the mutant's anchor
(which must occur exactly once in its file), runs the mutant's tests with
pytest and restores the file.  A mutant is killed when its tests fail.
Exit status: 0 when every mutant is killed, 1 on a survivor, a missing or
repeated anchor, or a failing unmutated run.

The file name has no ``test_`` prefix, so the test suite does not collect
it; ``test_mutation_check.py`` checks only that every anchor still occurs
exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    anchor: str
    replacement: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root


MUTANTS = (
    Mutant(
        "strided-member-sum",
        "src/nbiot_noma/rate_model.py",
        "np.ascontiguousarray(terms[: len(members), owners == c])",
        "terms[: len(members), owners == c]",
        ("tests/test_rate_model_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "pad-slots-with-device-0",
        "src/nbiot_noma/rate_model.py",
        "table = np.full((self.num_clusters, depth), num_devices)",
        "table = np.full((self.num_clusters, depth), 0)",
        ("tests/test_rate_model_reference.py", "tests/test_allocation_reference.py"),
    ),
    Mutant(
        "scenario-accepts-inf-budget",
        "src/nbiot_noma/scenario.py",
        "(0 < b) & (b < np.inf)",
        "(0 < b)",
        ("tests/test_scenario.py::TestHandBuiltScenario",),
    ),
    Mutant(
        "harness-swallows-bugs",
        "src/nbiot_noma/harness.py",
        "except DomainError as exc:\n            out.append(",
        "except Exception as exc:\n            out.append(",
        ("tests/test_harness.py::TestRunExperiment",),
    ),
    Mutant(
        "ties-go-to-last-cluster",
        "src/nbiot_noma/allocation.py",
        "c = int(np.argmax(cand_total))",
        "c = len(cand_total) - 1 - int(np.argmax(cand_total[::-1]))",
        ("tests/test_allocation_reference.py::test_exact_ties_go_to_the_first_cluster",),
    ),
    Mutant(
        "ofdma-rates-up-1e-15",
        "src/nbiot_noma/baselines.py",
        "rates[dev] = bw * float(np.log1p(h * p / noise).sum()) / _LOG2",
        "rates[dev] = bw * float(np.log1p(h * p / noise).sum()) / _LOG2 * (1 + 1e-15)",
        ("tests/test_allocation_reference.py::test_bench_cells_match_reference",),
    ),
)


def run_tests(workdir: Path, tests) -> int:
    """pytest's exit status for ``tests`` run inside ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(
        cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=900,
    )
    return proc.returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        workdir = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
                shutil.copytree(src, workdir / name, ignore=ignore)
            else:
                shutil.copy2(src, workdir / name)

        all_tests = sorted({t for m in MUTANTS for t in m.tests})
        if run_tests(workdir, all_tests) != 0:
            print("FAIL: the unmutated tests do not pass")
            return 1

        failed = False
        for m in MUTANTS:
            path = workdir / m.path
            original = path.read_text(encoding="utf-8")
            if original.count(m.anchor) != 1:
                print(f"ANCHOR {m.name}: occurs {original.count(m.anchor)} times in {m.path}")
                failed = True
                continue
            path.write_text(original.replace(m.anchor, m.replacement), encoding="utf-8")
            try:
                status = run_tests(workdir, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            # 1: tests failed, 2: collection or import error.  Anything else
            # (0 passed, 4 usage error, 5 nothing collected) is not a kill.
            if status in (1, 2):
                print(f"killed   {m.name} (pytest exit status {status})")
            else:
                print(f"SURVIVED {m.name} (pytest exit status {status})")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
