"""The self-check suite: its instance draw against the scalar reference,
its checks failing on NaN, and its pass on a sweep of seeds."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nbiot_noma import power_opt, selfcheck
from nbiot_noma.baselines import mckp_oracle
from nbiot_noma.scenario import read_config_file
from nbiot_noma.selfcheck import random_feasible_cluster, run_self_checks

from reference_oracles import reference_random_feasible_cluster

CELL_SMALL = Path(__file__).resolve().parent.parent / "configs" / "cell_small.cfg"


@pytest.mark.parametrize("max_users", range(1, 5))
def test_random_feasible_cluster_matches_reference(max_users):
    for seed in range(1000):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        cluster = random_feasible_cluster(rng, max_users)
        ref = reference_random_feasible_cluster(ref_rng, max_users)
        assert np.array_equal(cluster.normalized_gains, ref.normalized_gains), seed
        assert np.array_equal(cluster.rate_thresholds, ref.rate_thresholds), seed
        assert cluster.total_power == ref.total_power, seed
        assert cluster.bandwidth_hz == ref.bandwidth_hz, seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


def test_batched_draw_layout():
    n, p_max, gains, bandwidth = selfcheck._draw_subproblems(
        np.random.default_rng(3), 500, max_users=4
    )
    assert gains.shape == (500, 4) and n.shape == p_max.shape == bandwidth.shape == (500,)
    real = np.arange(4) >= 4 - n[:, None]
    assert ((gains > 0) == real).all()
    lower, upper = gains[:, :-1][real[:, :-1]], gains[:, 1:][real[:, :-1]]
    assert ((upper - lower) / lower >= 0.05).all()


def nan_objective(t, g, bandwidth):
    return np.full(np.shape(t)[:-1], np.nan)


def nan_grid_oracle(cluster, step):
    return None, math.nan


def nan_mckp_oracle(scenario, clusters):
    owner, watts, report = mckp_oracle(scenario, clusters)
    return owner, watts, replace(report, sum_rate=math.nan)


def nan_curvature(gain_low, gain_high, tail_value):
    return np.full(np.shape(tail_value), np.nan)


@pytest.mark.parametrize(
    "name, module, attr, fake",
    [
        pytest.param("transform-identity", selfcheck, "_objective", nan_objective,
                     id="transform-identity"),
        pytest.param("solver-vs-grid", selfcheck, "grid_power_oracle", nan_grid_oracle,
                     id="solver-vs-grid"),
        pytest.param("mckp-dominance", selfcheck, "mckp_oracle", nan_mckp_oracle,
                     id="mckp-dominance"),
        pytest.param("concavity-probe", power_opt, "second_derivative_core", nan_curvature,
                     id="concavity-probe"),
    ],
)
def test_checks_fail_on_nan(monkeypatch, name, module, attr, fake):
    monkeypatch.setattr(module, attr, fake)
    results = {c.name: c for c in run_self_checks(read_config_file(CELL_SMALL), seed=0)}
    assert str(results[name]).startswith(f"[FAIL] {name}: "), results[name]


def test_all_checks_pass_on_a_seed_sweep():
    base = read_config_file(CELL_SMALL)
    for seed in range(100):
        failed = [str(c) for c in run_self_checks(base, seed=seed) if not c.passed]
        assert failed == [], (seed, failed)
