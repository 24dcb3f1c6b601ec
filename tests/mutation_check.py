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
        "np.ascontiguousarray(terms[:, cols].transpose(1, 0, 2))",
        "terms[:, cols].transpose(1, 0, 2)",
        ("tests/test_rate_model_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "pad-slots-with-device-0",
        "src/nbiot_noma/rate_model.py",
        "pad = [n] * depth",
        "pad = [0] * depth",
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
        "scenario-accepts-bad-noise",
        "src/nbiot_noma/scenario.py",
        "            if not 0 < value < math.inf:\n",
        "            if False:\n",
        ("tests/test_scenario.py::TestHandBuiltScenario",),
    ),
    Mutant(
        "pool-ignores-job-count",
        "src/nbiot_noma/harness.py",
        "pool_size = min(workers, len(jobs))",
        "pool_size = workers",
        ("tests/test_harness.py::TestRunExperiment::test_pool_size_capped_by_job_count",),
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
        "c = int(cand_total.argmax())",
        "c = len(cand_total) - 1 - int(cand_total[::-1].argmax())",
        ("tests/test_allocation_reference.py::test_exact_ties_go_to_the_first_cluster",),
    ),
    Mutant(
        "ofdma-rates-up-1e-15",
        "src/nbiot_noma/baselines.py",
        "solo = bw * np.log1p(gains_t * budgets / noise) / _LOG2",
        "solo = bw * np.log1p(gains_t * budgets / noise) / _LOG2 * (1 + 1e-15)",
        ("tests/test_allocation_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "validate-c4-accepts-inf",
        "src/nbiot_noma/rate_model.py",
        "close = np.isfinite(row_sums) & (",
        "close = (",
        ("tests/test_rate_model_reference.py::test_edge_cases_match_reference",),
    ),
    Mutant(
        "placement-first-wins",
        "src/nbiot_noma/rate_model.py",
        "out[dev] = c\n",
        "out[dev] = c if out[dev] < 0 else out[dev]\n",
        ("tests/test_rate_model_reference.py::test_edge_cases_match_reference",),
    ),
    Mutant(
        "rate-report-accepts-negative-power",
        "src/nbiot_noma/rate_model.py",
        "(watts >= 0) & (watts < np.inf)",
        "(watts >= -np.inf) & (watts < np.inf)",
        ("tests/test_rate_model_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "satisfied-needs-strict-excess",
        "src/nbiot_noma/rate_model.py",
        "satisfied = rates >= scenario.rate_thresholds",
        "satisfied = rates > scenario.rate_thresholds",
        ("tests/test_rate_model.py::TestRateReport::test_two_device_thresholds",),
    ),
    Mutant(
        "sum-rate-up-1pct",
        "src/nbiot_noma/rate_model.py",
        "sum_rate=math.fsum(rates),",
        "sum_rate=math.fsum(rates) * 1.01,",
        ("tests/test_rate_model.py::TestRateReport::test_two_device_thresholds",),
    ),
    Mutant(
        "second-derivative-sign-flip",
        "src/nbiot_noma/power_opt.py",
        "return num / den",
        "return -num / den",
        ("tests/test_power_opt.py::TestConcavity::test_spot_value",),
    ),
    Mutant(
        "greedy-spends-double-budget",
        "src/nbiot_noma/allocation.py",
        "    return owner, watts, "
        "build_report(scenario, _device_rates(scenario, slot_dev, owner, watts))",
        "    watts *= 2\n"
        "    return owner, watts, "
        "build_report(scenario, _device_rates(scenario, slot_dev, owner, watts))",
        ("tests/test_baselines.py::TestMckpOracle::test_dominates_greedy",),
    ),
    Mutant(
        "stale-layout",
        "src/nbiot_noma/allocation.py",
        "    return owner, watts, "
        "build_report(scenario, _device_rates(scenario, slot_dev, owner, watts))",
        "    stale, _ = _layout(clusters[::-1], scenario.num_devices)\n"
        "    return owner, watts, "
        "build_report(scenario, _device_rates(scenario, stale, owner, watts))",
        ("tests/test_allocation_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "greedy-drops-final-rate-pass",
        "src/nbiot_noma/allocation.py",
        "    return owner, watts, "
        "build_report(scenario, _device_rates(scenario, slot_dev, owner, watts))",
        "    return owner, watts, build_report(scenario, rates)",
        ("tests/test_allocation_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "split-by-count-plus-2",
        "src/nbiot_noma/allocation.py",
        "(slot_budgets[c] / (len(tones) + 1))",
        "(slot_budgets[c] / (len(tones) + 2))",
        ("tests/test_allocation_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "greedy-stale-candidate-row",
        "src/nbiot_noma/allocation.py",
        "        elif s + 1 < num_s:\n",
        "        elif phase == 2 and s + 1 < num_s:\n",
        ("tests/test_allocation_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "greedy-skips-deferred-rebuild",
        "src/nbiot_noma/allocation.py",
        "            build_rows(s)\n",
        "            pass\n",
        ("tests/test_allocation_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "close-test-counts-equal-as-short",
        "src/nbiot_noma/allocation.py",
        "map(operator.lt, new_rates.tolist(), member_thresholds[c])",
        "map(operator.le, new_rates.tolist(), member_thresholds[c])",
        (
            "tests/test_allocation_reference.py::"
            "test_rate_exactly_on_threshold_closes_the_cluster",
        ),
    ),
    Mutant(
        "sic-own-power-interferes",
        "src/nbiot_noma/rate_model.py",
        "np.add.accumulate(received[:0:-1], axis=0, out=out[-2::-1])",
        "np.add.accumulate(received[::-1], axis=0, out=out[::-1])",
        ("tests/test_rate_model_reference.py::test_sic_log_terms_match_frozen_copy",),
    ),
    Mutant(
        "rate-report-pads-onto-device-0",
        "src/nbiot_noma/rate_model.py",
        "table.reshape(num_b, size)] = ",
        "table.reshape(num_b, size) % n] = ",
        ("tests/test_rate_model_reference.py::test_edge_cases_match_reference",),
    ),
    Mutant(
        "phase2-grown-strided-sum",
        "src/nbiot_noma/rate_model.py",
        "np.ascontiguousarray(terms[:, cols].transpose(1, 0, 2))",
        "terms[:, cols].transpose(1, 0, 2)",
        (
            "tests/test_allocation_reference.py::"
            "test_cluster_deep_in_phase_one_matches_reference",
        ),
    ),
    Mutant(
        "phase2-split-off-by-one",
        "src/nbiot_noma/allocation.py",
        "(slot_budgets / (counts + 1)[:, None, None])",
        "(slot_budgets / counts[:, None, None])",
        ("tests/test_allocation_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "rate-report-accepts-unknown-ids",
        "src/nbiot_noma/rate_model.py",
        "    if unknown:\n        raise InvalidAssignmentError(",
        "    if False:\n        raise InvalidAssignmentError(",
        ("tests/test_rate_model_reference.py::test_edge_cases_match_reference",),
    ),
    Mutant(
        "device-id-accepts-bool",
        "src/nbiot_noma/rate_model.py",
        "(type(dev) is int or isinstance(dev, np.integer))",
        "isinstance(dev, (int, np.integer))",
        (
            "tests/test_rate_model.py::TestAllocationShape::"
            "test_member_that_is_not_a_device_id",
        ),
    ),
    Mutant(
        "gain-ties-go-to-higher-id",
        "src/nbiot_noma/clustering.py",
        "np.lexsort((ids, -gains[ids]))",
        "np.lexsort((-ids, -gains[ids]))",
        ("tests/test_clustering_reference.py",),
    ),
    Mutant(
        "mmtc-skips-empty-cluster-fill",
        "src/nbiot_noma/clustering.py",
        "empty = [members for members in clusters if not members]",
        "empty = []",
        ("tests/test_clustering.py::TestMmtcClustering::test_empty_clusters_take_rank_one_first",),
    ),
    Mutant(
        "repair-picks-smallest-donor",
        "src/nbiot_noma/clustering.py",
        "donor = max(donors, key=lambda c: (len(clusters[c]), -c))",
        "donor = min(donors, key=lambda c: (len(clusters[c]), -c))",
        (
            "tests/test_clustering.py::TestMmtcClustering::"
            "test_singleton_repair_takes_from_the_largest_donor",
        ),
    ),
    Mutant(
        "ofdma-power-up-1e-9",
        "src/nbiot_noma/baselines.py",
        "p = budgets[dev] / len(tones)",
        "p = budgets[dev] / len(tones) * (1 + 1e-9)",
        ("tests/test_allocation_reference.py::test_bench_cells_match_reference",),
    ),
    Mutant(
        "ofdma-stale-unsatisfied-mask",
        "src/nbiot_noma/baselines.py",
        "pool_gains[:, dev] = gains_t[:, dev] if short else -math.inf",
        "pass",
        (
            "tests/test_allocation_reference.py::test_bench_cells_match_reference",
            "tests/test_allocation_reference.py::"
            "test_ofdma_device_that_falls_short_rejoins_the_pool",
        ),
    ),
    Mutant(
        "exhaustive-cache-key-unordered",
        "src/nbiot_noma/baselines.py",
        "rows.setdefault(tuple(members), len(rows))",
        "rows.setdefault(tuple(sorted(members)), len(rows))",
        (
            "tests/test_oracle_reference.py::test_exhaustive_clustering_matches_reference",
            "tests/test_oracle_reference.py::test_exhaustive_clustering_ties_match_reference",
        ),
    ),
    Mutant(
        "greatest-tail-takes-least",
        "src/nbiot_noma/power_opt.py",
        "tail, _ = _least_tail(_greatest_last_power(c, theta, p_max), c, theta)",
        "tail, _ = _least_tail(theta[-1], c, theta)",
        ("tests/test_power_opt.py::TestGreatestTail",),
    ),
    Mutant(
        "solver-skips-certificate",
        "src/nbiot_noma/power_opt.py",
        "    if not slack.min() >= -FEASIBILITY_ATOL * max(1.0, p_max):\n",
        "    if False:\n",
        (
            "tests/test_power_opt.py::TestSolve::"
            "test_failed_feasibility_check_reports_the_point",
        ),
    ),
    Mutant(
        "pass-drops-ordering-term",
        "src/nbiot_noma/power_opt.py",
        "        if bound > power:\n            power, d_power = bound, c[j] * d_total\n",
        "        power, d_power = bound, c[j] * d_total\n",
        ("tests/test_power_opt.py::TestSolve::test_contract_on_random_instances",),
    ),
    Mutant(
        "newton-stops-one-step-early",
        "src/nbiot_noma/power_opt.py",
        "        x = step\n",
        "        if _least_tail(step, c, theta)[0][0] <= p_max:\n"
        "            return x\n"
        "        x = step\n",
        ("tests/test_power_opt.py::TestSolve::test_contract_on_random_instances",),
    ),
    Mutant(
        "trailing-flat-run-not-lowered",
        "src/nbiot_noma/power_opt.py",
        "    while m > 1 and gains[m - 2] == gains[-1]:\n        m -= 1\n",
        "",
        ("tests/test_oracle_reference.py::test_equal_gains_match_two_stage_highs",),
    ),
    Mutant(
        "ordered-cluster-accepts-nan",
        "src/nbiot_noma/power_opt.py",
        '("normalized_gains", all(map(math.isfinite, gains))),',
        '("normalized_gains", not any(map(math.isinf, gains))),',
        ("tests/test_cli.py::test_solve_power_nonfinite_input_is_usage_error",),
    ),
    Mutant(
        "ordered-cluster-skips-sorted-check",
        "src/nbiot_noma/power_opt.py",
        "if any(high < low for low, high in zip(gains, gains[1:])):",
        "if False:",
        ("tests/test_power_opt.py::TestOrderedCluster::test_rejections_match_reference",),
    ),
    Mutant(
        "exhaustive-rescores-canonical-orderings-only",
        "src/nbiot_noma/baselines.py",
        "for clusters in _orderings(scenario, labels):",
        "for clusters in itertools.islice(_orderings(scenario, labels), 1):",
        ("tests/test_oracle_reference.py::test_exhaustive_clustering_ties_match_reference",),
    ),
    Mutant(
        "exhaustive-last-tie-wins",
        "src/nbiot_noma/baselines.py",
        "best = max(range(len(sums)), key=sums.__getitem__)",
        "best = len(sums) - 1 - max(range(len(sums)), key=sums[::-1].__getitem__)",
        ("tests/test_oracle_reference.py::test_exhaustive_clustering_ties_match_reference",),
    ),
    Mutant(
        "mckp-scores-invalid-clusterings",
        "src/nbiot_noma/baselines.py",
        "    if violations:\n        raise InvalidAssignmentError(violations)\n",
        "    if False:\n        raise InvalidAssignmentError(violations)\n",
        ("tests/test_baselines.py::TestMckpOracle::test_rejects_what_allocate_rejects",),
    ),
    Mutant(
        "best-map-accepts-nonfinite",
        "src/nbiot_noma/baselines.py",
        "    if not np.isfinite(best_obj).all():\n",
        "    if False:\n",
        ("tests/test_baselines.py::test_oracles_raise_where_allocate_raises_on_nonfinite_rates",),
    ),
    Mutant(
        "grid-row-bound-without-slack",
        "src/nbiot_noma/baselines.py",
        "slack = 4 * _EPS * (",
        "slack = 0 * _EPS * (",
        ("tests/test_oracle_reference.py::test_grid_oracle_matches_reference[3]",),
    ),
    Mutant(
        "grid-bisection-one-column-late",
        "src/nbiot_noma/baselines.py",
        "        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)\n    return lo\n",
        "        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)\n    return lo + 1\n",
        ("tests/test_oracle_reference.py::test_bisected_grid_matches_the_mesh",),
    ),
    Mutant(
        "half-tone-tiles-gains",
        "src/nbiot_noma/baselines.py",
        "np.repeat(scenario.gain_matrix, 2, axis=1)",
        "np.tile(scenario.gain_matrix, 2)",
        ("tests/test_baselines.py::TestFastOfdm::test_tone_doubling",),
    ),
    Mutant(
        "stale-all-entry",
        "src/nbiot_noma/baselines.py",
        '    "grid_power_oracle",\n]',
        '    "grid_power_oracle",\n    "mckp_oracle_fixed_powers",\n]',
        ("tests/test_package_surface.py::test_all_names_resolve",),
    ),
    Mutant(
        "eager-scipy-import",
        "src/nbiot_noma/power_opt.py",
        "import numpy as np\n\nfrom .errors import (",
        "import numpy as np\nfrom scipy import optimize\n\nfrom .errors import (",
        ("tests/test_cold_start.py",),
    ),
    Mutant(
        "eager-process-pool",
        "src/nbiot_noma/harness.py",
        "import time\nfrom dataclasses import dataclass, replace\n",
        "import time\nfrom concurrent.futures import ProcessPoolExecutor\n"
        "from dataclasses import dataclass, replace\n",
        ("tests/test_cold_start.py",),
    ),
    Mutant(
        "rate-report-broadcasts-powers",
        "src/nbiot_noma/rate_model.py",
        "    if watts.shape != (scenario.num_devices, num_s):",
        "    if False:",
        ("tests/test_rate_model.py::TestAllocationShape",),
    ),
    Mutant(
        "probe-counts-nan-as-match",
        "src/nbiot_noma/power_opt.py",
        "mismatched=int(np.count_nonzero(~(rel <= CONCAVITY_RTOL))),",
        "mismatched=int(np.count_nonzero(rel > CONCAVITY_RTOL)),",
        ("tests/test_selfcheck.py::test_checks_fail_on_nan",),
    ),
    Mutant(
        "batched-draw-skips-spacing-redraw",
        "src/nbiot_noma/selfcheck.py",
        "redraw = (spacing < 0.05).any(axis=1)",
        "redraw = np.zeros(count, dtype=bool)",
        ("tests/test_selfcheck.py::test_random_feasible_cluster_matches_reference",),
    ),
    Mutant(
        "tail-powers-sums-flattened",
        "src/nbiot_noma/power_opt.py",
        "return p[..., ::-1].cumsum(axis=-1)[..., ::-1]",
        "return p[..., ::-1].cumsum()[::-1]",
        ("tests/test_power_opt.py::TestArrayCores",),
    ),
    Mutant(
        "c5-assumes-urllc-ids-first",
        "src/nbiot_noma/rate_model.py",
        "    is_urllc = scenario.is_urllc.tolist()\n",
        "    is_urllc = [d < scenario.config.num_urllc for d in range(n)]\n",
        ("tests/test_metamorphic.py",),
    ),
    Mutant(
        "ordering-stencil-loses-a-tail",
        "tests/reference_oracles.py",
        "= (-1.0, 2.0, -1.0)",
        "= (-1.0, 1.0, -1.0)",
        ("tests/test_oracle_reference.py::test_four_to_eight_users_match_highs",),
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
