"""Fast oracle and invariant checks runnable from the command line.

Each check exercises one cross-validation pair on instances small enough
to finish in seconds: exhaustive searches against the greedy heuristic,
the transform identity behind the power objective, curvature signs, the
certified solver against the grid oracle, and constraint validation of
full pipeline output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .allocation import allocate
from .baselines import exhaustive_clustering, grid_power_oracle, mckp_oracle
from .clustering import build_clusters
from .errors import GridResolutionError
from .power_opt import (
    OrderedCluster,
    _objective,
    _rates,
    maximize_rates,
    ordered_user_rates,
    probe_concavity,
    tail_powers,
)
from .rate_model import validate
from .scenario import ScenarioConfig, generate_scenario

__all__ = ["CheckResult", "run_self_checks", "tiny_config", "random_feasible_cluster"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def tiny_config(base: ScenarioConfig, rng: np.random.Generator) -> ScenarioConfig:
    """A random instance inside the exhaustive-search bounds.

    The device and cluster counts are drawn so that a structurally valid
    clustering exists and the round-robin fill cannot strand a singleton
    (total devices at least twice the cluster count).  The resource block
    widens to hold the drawn tones.
    """
    num_clusters = int(rng.integers(1, 3))
    k_max = int(rng.integers(2, 4))
    total = int(rng.integers(2 * num_clusters, min(5, num_clusters * k_max) + 1))
    urllc = int(rng.integers(0, total))
    num_s = int(rng.integers(2, 7))
    return replace(
        base,
        num_urllc=urllc,
        num_mmtc=total - urllc,
        num_subcarriers=num_s,
        rb_bandwidth=max(base.rb_bandwidth, num_s * base.subcarrier_bandwidth),
        num_clusters=num_clusters,
        max_rank=k_max,
        rng_seed=int(rng.integers(0, 2**32)),
    )


def _draw_subproblems(rng: np.random.Generator, count: int, max_users: int):
    """``count`` random power subproblems, front-padded to ``max_users`` users.

    Returns ``(n, p_max, gains, bandwidth)``: user counts, budgets, a
    ``(count, max_users)`` gain array whose rows ascend with zero pads in
    front (the layout of the ``power_opt`` array cores), and bandwidths.
    Draws n, then p_max, then exactly n gains per row, then bandwidth.
    Normalized gains are kept within a few orders of magnitude of
    1/p_max so a 1000-point grid resolves the optimum; a row whose
    consecutive gains are not 5% apart is redrawn whole.
    """
    n = rng.integers(1, max_users + 1, size=count)
    p_max = rng.uniform(0.5, 4.0, size=count)
    real = np.arange(max_users) >= max_users - n[:, None]
    gains = np.zeros((count, max_users))
    redraw = np.ones(count, dtype=bool)
    while redraw.any():
        drawn = np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=int(n[redraw].sum())))
        gains[real & redraw[:, None]] = drawn
        gains[redraw] = np.sort(gains[redraw], axis=1) / p_max[redraw, None]
        lower = gains[:, :-1]
        spacing = np.divide(
            gains[:, 1:] - lower, lower, out=np.full(lower.shape, np.inf), where=lower > 0
        )
        redraw = (spacing < 0.05).any(axis=1)
    bandwidth = rng.uniform(0.5, 2.0, size=count)
    return n, p_max, gains, bandwidth


def random_feasible_cluster(
    rng: np.random.Generator, max_users: int = 3
) -> OrderedCluster:
    """A random threshold-feasible power subproblem with moderate gains.

    The instance is one draw of :func:`_draw_subproblems`; thresholds are
    then drawn as a fraction of the equal-power rates, which keeps the
    feasible set nonempty by construction.
    """
    n, p_max, gains, bandwidth = _draw_subproblems(rng, 1, max_users)
    n, p_max, bandwidth = int(n[0]), float(p_max[0]), float(bandwidth[0])
    gains = gains[0, -n:]
    cluster = OrderedCluster(
        normalized_gains=gains,
        rate_thresholds=np.zeros(n),
        total_power=p_max,
        bandwidth_hz=bandwidth,
    )
    equal_rates = ordered_user_rates(np.full(n, p_max / n), cluster)
    thresholds = equal_rates * rng.uniform(0.0, 0.8, size=n)
    return OrderedCluster(
        normalized_gains=gains,
        rate_thresholds=thresholds,
        total_power=p_max,
        bandwidth_hz=bandwidth,
    )


def _check_transform_identity(rng, trials=200) -> CheckResult:
    n, p_max, gains, bandwidth = _draw_subproblems(rng, trials, max_users=3)
    powers = np.zeros_like(gains)
    powers[gains > 0] = rng.uniform(0.0, np.repeat(p_max, n))
    rates = _rates(powers, gains, bandwidth)
    direct = np.array([math.fsum(row) for row in rates.tolist()])
    via_tail = _objective(tail_powers(powers), gains, bandwidth)
    worst = float((np.abs(direct - via_tail) / np.maximum(np.abs(direct), 1e-300)).max())
    return CheckResult(
        "transform-identity", worst <= 1e-9, f"max relative mismatch {worst:.2e}"
    )


def _check_concavity(rng) -> CheckResult:
    gains = np.sort(np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=3)))
    while np.any(np.diff(gains) / gains[:-1] < 0.05):
        gains = np.sort(np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=3)))
    cluster = OrderedCluster(gains, np.zeros(3), 1.0, 1.0)
    report = probe_concavity(cluster, samples=500, rng=rng)
    return CheckResult(
        "concavity-probe",
        report.ok,
        f"{report.samples} samples, worst mismatch {report.max_relative_mismatch:.2e}",
    )


def _check_solver_vs_grid(rng, trials=10) -> CheckResult:
    shortfalls = []
    for _ in range(trials):
        cluster = random_feasible_cluster(rng)
        solution = maximize_rates(cluster)
        try:
            _, grid_obj = grid_power_oracle(cluster, cluster.total_power / 1000.0)
        except GridResolutionError:
            continue
        shortfalls.append((grid_obj - solution.objective) / max(abs(grid_obj), 1e-300))
    worst = float(np.max(shortfalls, initial=0.0))  # NaN propagates
    return CheckResult(
        "solver-vs-grid", worst <= 1e-3, f"worst relative shortfall {worst:.2e}"
    )


def _check_dominance(name, oracle, base, rng, trials) -> CheckResult:
    """``oracle(scenario, clusters)``'s sum rate never falls below the greedy's."""
    failures = 0
    for _ in range(trials):
        scenario = generate_scenario(tiny_config(base, rng))
        clusters = build_clusters(scenario)
        _, _, report = allocate(scenario, clusters)
        _, _, best = oracle(scenario, clusters)
        if not best.sum_rate >= report.sum_rate * (1 - 1e-9):  # NaN fails
            failures += 1
    return CheckResult(name, failures == 0, f"{trials} instances, {failures} failures")


def _check_pipeline_constraints(base, rng, trials=3) -> CheckResult:
    worst_violations = 0
    for _ in range(trials):
        cfg = replace(
            base,
            num_urllc=6,
            num_mmtc=18,
            num_clusters=6,
            max_rank=4,
            rng_seed=int(rng.integers(0, 2**32)),
        )
        scenario = generate_scenario(cfg)
        clusters = build_clusters(scenario)
        owner, watts, _ = allocate(scenario, clusters)
        worst_violations += len(validate(scenario, clusters, owner, watts))
    return CheckResult(
        "pipeline-constraints", worst_violations == 0, f"{worst_violations} violations"
    )


def run_self_checks(base: ScenarioConfig | None = None, seed: int = 0) -> list[CheckResult]:
    """Run every check; all-pass means the oracle suite found no defect."""
    base = base if base is not None else ScenarioConfig()
    rng = np.random.default_rng(seed)
    return [
        _check_transform_identity(rng),
        _check_concavity(rng),
        _check_solver_vs_grid(rng),
        _check_dominance("mckp-dominance", mckp_oracle, base, rng, 15),
        _check_dominance(
            "exhaustive-dominance", lambda sc, _: exhaustive_clustering(sc), base, rng, 8
        ),
        _check_pipeline_constraints(base, rng),
    ]
