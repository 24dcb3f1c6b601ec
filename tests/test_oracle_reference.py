"""The pruned exhaustive oracles against their full references, bit for bit.

``reference_oracles.py`` keeps the grid power oracle and the MCKP oracle
as they stood before the rewrite.  Both versions must return the same
tail powers and objective (or raise on the same instances), and the same
subcarrier map, with exact equality.
"""

from dataclasses import replace

import numpy as np
import pytest

from nbiot_noma.baselines import (
    _grid_box,
    _tone_values_equal_split,
    _valid_assignments,
    exhaustive_clustering,
    grid_power_oracle,
    mckp_oracle,
)
from nbiot_noma.errors import GridResolutionError
from nbiot_noma.power_opt import threshold_coefficients
from nbiot_noma.rate_model import ClusterAssignment, PowerMatrix
from nbiot_noma.scenario import ScenarioConfig, generate_scenario
from nbiot_noma.selfcheck import random_feasible_cluster, tiny_config

from conftest import make_scenario
from reference_oracles import (
    _tone_values_equal_split as reference_tone_values_equal_split,
    reference_exhaustive_clustering,
    reference_grid_power_oracle,
    reference_mckp_oracle,
    reference_mesh_feasible,
)

CLUSTERS_PER_SIZE = 300
GRID_DIVISIONS = (1000, 50, 7)  # step = total power / division
TINY_INSTANCES = 100


def clusters_of_size(n, count, seed):
    rng = np.random.default_rng(seed)
    clusters = []
    while len(clusters) < count:
        cluster = random_feasible_cluster(rng)
        if cluster.size == n:
            clusters.append(cluster)
    return clusters


def infeasible(cluster, factor):
    """The same cluster with every threshold scaled up, often past feasibility."""
    return replace(cluster, rate_thresholds=cluster.rate_thresholds * factor)


def grid_outcome(oracle, cluster, step):
    try:
        powers, objective = oracle(cluster, step)
    except GridResolutionError as err:
        return str(err)
    return powers.tobytes(), objective


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_oracle_matches_reference(n):
    clusters = clusters_of_size(n, CLUSTERS_PER_SIZE, seed=100 + n)
    clusters += [infeasible(c, 4.0) for c in clusters[:30]]
    errors = 0
    for cluster in clusters:
        for division in GRID_DIVISIONS:
            step = cluster.total_power / division
            new = grid_outcome(grid_power_oracle, cluster, step)
            ref = grid_outcome(reference_grid_power_oracle, cluster, step)
            assert new == ref, (cluster, division)
            errors += isinstance(ref, str)
    assert errors > 0  # unresolvable instances are part of the comparison


def test_grid_box_holds_every_feasible_point():
    clusters = clusters_of_size(3, CLUSTERS_PER_SIZE, seed=103)
    clusters += [infeasible(c, 4.0) for c in clusters[:30]]
    for index, cluster in enumerate(clusters):
        divisions = GRID_DIVISIONS if index < 30 else GRID_DIVISIONS[1:]
        for division in divisions:
            step = cluster.total_power / division
            axis = np.arange(0.0, cluster.total_power + step / 2.0, step)
            delta, rho, theta = threshold_coefficients(cluster)
            rows, first, last = _grid_box(axis, cluster.total_power, delta, rho, theta)
            i, j = np.nonzero(reference_mesh_feasible(cluster, step))
            assert np.all(i < rows), (cluster, division)
            assert np.all((first <= j) & (j < last)), (cluster, division)


def tiny_scenarios(count, seed):
    rng = np.random.default_rng(seed)
    return [generate_scenario(tiny_config(ScenarioConfig(), rng)) for _ in range(count)]


def test_mckp_matches_reference_on_every_tiny_assignment():
    rng = np.random.default_rng(7)
    assignments = 0
    for sc in tiny_scenarios(TINY_INSTANCES, seed=5):
        cfg = sc.config
        for assignment in _valid_assignments(sc, cfg.num_clusters, cfg.max_rank):
            assignments += 1
            assert np.array_equal(
                _tone_values_equal_split(sc, assignment),
                reference_tone_values_equal_split(sc, assignment),
            )
            assert np.array_equal(
                mckp_oracle(sc, assignment).owner,
                reference_mckp_oracle(sc, assignment).owner,
            )
            watts = sc.power_budgets[:, None] * rng.uniform(
                0.0, 1.0, size=(sc.num_devices, cfg.num_subcarriers)
            )
            powers = PowerMatrix(watts=watts)
            assert np.array_equal(
                mckp_oracle(sc, assignment, powers).owner,
                reference_mckp_oracle(sc, assignment, powers).owner,
            )
    assert assignments > 1000


def test_exhaustive_clustering_matches_reference():
    for sc in tiny_scenarios(40, seed=9):
        assignment, sub_map, report = exhaustive_clustering(sc)
        ref_assignment, ref_map, ref_report = reference_exhaustive_clustering(sc)
        assert assignment.clusters == ref_assignment.clusters
        assert np.array_equal(sub_map.owner, ref_map.owner)
        assert np.array_equal(report.rates, ref_report.rates)
        assert report.sum_rate == ref_report.sum_rate
        assert np.array_equal(report.satisfied, ref_report.satisfied)


def paired_clusters(gains):
    """Two-member clusters over consecutive device pairs of ``gains``."""
    num_c = len(gains) // 2
    sc = make_scenario(gains, "m" * (2 * num_c), num_clusters=num_c)
    return sc, ClusterAssignment(clusters=[[2 * c, 2 * c + 1] for c in range(num_c)])


@pytest.mark.parametrize("num_c, num_s", [(4, 9), (3, 11)])
def test_multi_chunk_instances_match_reference(num_c, num_s):
    # C^S above one 65,536-map chunk: the winner is carried across chunks.
    assert num_c**num_s > 1 << 16
    rng = np.random.default_rng(num_c * 100 + num_s)
    sc, assignment = paired_clusters(rng.exponential(1.0, size=(2 * num_c, num_s)))
    powers = PowerMatrix(watts=rng.uniform(0.0, 1.0, size=(2 * num_c, num_s)))
    for p in (None, powers):
        assert np.array_equal(
            mckp_oracle(sc, assignment, p).owner,
            reference_mckp_oracle(sc, assignment, p).owner,
        )


@pytest.mark.parametrize("num_c, num_s", [(2, 4), (4, 9)])
def test_exact_ties_go_to_the_smallest_map(num_c, num_s):
    # Clusters with the same gains: relabelling a map gives an exact tie.
    # With four clusters on nine tones the first tone's owner picks the
    # chunk, so the tied relabellings sit in different chunks.
    pair = np.random.default_rng(num_s).exponential(1.0, size=(2, num_s))
    sc, assignment = paired_clusters(np.tile(pair, (num_c, 1)))
    owner = mckp_oracle(sc, assignment).owner
    assert np.array_equal(owner, reference_mckp_oracle(sc, assignment).owner)
    labels = np.unique(owner)
    first_use = [int(np.flatnonzero(owner == c)[0]) for c in labels]
    assert np.array_equal(labels, np.arange(labels.size))
    assert first_use == sorted(first_use)
