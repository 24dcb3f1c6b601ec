"""The pruned exhaustive oracles against their full references, bit for bit.

``reference_oracles.py`` keeps the grid power oracle and the MCKP oracle
as they stood before the rewrite.  Both versions must return the same
tail powers and objective (or raise on the same instances), and the same
subcarrier map, with exact equality.  The MCKP oracle's powers and report
must equal the reference equal-split powers and their rate report.

The power solver runs no linear program.  The all-HiGHS, SLSQP version
it replaced is kept there too, and so is the two-stage HiGHS program
that gave the greatest feasible tail, with the flat tails of equal
gains pushed down.  The solver must decide feasibility as they do, find
their least tail within 1e-12 of the budget, return the HiGHS tail
within 1e-9 of the budget, and score no lower than the SLSQP reference,
up to 1e-12.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from nbiot_noma.baselines import (
    EXHAUSTIVE_MAX_CLUSTERS,
    EXHAUSTIVE_MAX_DEVICES,
    EXHAUSTIVE_MAX_RANK,
    EXHAUSTIVE_MAX_SUBCARRIERS,
    _grid_box,
    _grid_feasible,
    _tone_values,
    exhaustive_clustering,
    grid_power_oracle,
    mckp_oracle,
)
from nbiot_noma.errors import GridResolutionError, InfeasibleClusterError
from nbiot_noma.power_opt import (
    find_feasible_tail,
    maximize_rates,
    threshold_coefficients,
)
from nbiot_noma.rate_model import _layout, rate_report
from nbiot_noma.scenario import ScenarioConfig, generate_scenario
from nbiot_noma.selfcheck import random_feasible_cluster, tiny_config

from conftest import make_scenario, random_cluster_of_size
from reference_oracles import (
    _tail_rows,
    _tone_values_equal_split as reference_tone_values_equal_split,
    _valid_assignments,
    reference_exhaustive_clustering,
    reference_block_tails,
    reference_find_feasible_tail,
    reference_grid_power_oracle,
    reference_highs_tail,
    reference_maximize_rates,
    reference_mckp_oracle,
    reference_mesh_feasible,
)
from reference_rate_model import reference_equal_split_powers

CLUSTERS_PER_SIZE = 300
GRID_DIVISIONS = (1000, 50, 7)  # step = total power / division
TINY_INSTANCES = 100
SOLVER_INSTANCES = 3000
BOUNDARY_INSTANCES = 40
FLAT_CLUSTERS = 30


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


def flat_clusters(count, seed):
    """Three-user clusters whose objective is flat or near flat along rows:
    g1 == g2, all three gains equal, and gains a few ulps apart.  Their
    points tie up to rounding across many rows."""
    ulps = 1.0 + np.array([0.0, 2.0, 5.0]) * np.finfo(float).eps
    for cluster in clusters_of_size(3, count, seed):
        g = cluster.normalized_gains
        for gains in (g[[0, 2, 2]], np.full(3, g[2]), g[2] * ulps):
            yield replace(cluster, normalized_gains=gains)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_oracle_matches_reference(n):
    clusters = clusters_of_size(n, CLUSTERS_PER_SIZE, seed=100 + n)
    clusters += [infeasible(c, 4.0) for c in clusters[:30]]
    if n == 3:
        clusters += flat_clusters(FLAT_CLUSTERS, seed=403)
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


def test_bisected_grid_matches_the_mesh():
    clusters = clusters_of_size(3, 60, seed=303)
    clusters += [infeasible(c, 4.0) for c in clusters[:10]]
    for cluster in clusters:
        for division in (1000, 333, 50, 7, 2):
            assert_same_feasible_set(cluster, cluster.total_power / division)


def boundary_cases():
    """(cluster, step) pairs putting a constraint boundary exactly on the grid."""
    for cluster in clusters_of_size(3, 20, seed=304):
        # A power-of-two division puts p_max on the grid, and then T2/2 on
        # every even row and 2*T2 - p_max are grid values too.
        yield cluster, cluster.total_power / 256
        # A zero second threshold makes delta[1]*T2 - rho[1] equal T2 itself.
        thresholds = cluster.rate_thresholds * np.array([1.0, 0.0, 1.0])
        yield replace(cluster, rate_thresholds=thresholds), cluster.total_power / 512
        # step = theta3 / 2**m puts theta3 on the grid at column 2**m; a
        # theta3 below p_max/300 would need too fine a grid, so it is skipped.
        theta3 = threshold_coefficients(cluster)[2][2]
        m = int(np.ceil(np.log2(theta3 * 300 / cluster.total_power)))
        if m >= 0:
            yield cluster, theta3 / 2.0**m


def assert_same_feasible_set(cluster, step):
    delta, rho, theta = threshold_coefficients(cluster)
    axis = np.arange(0.0, cluster.total_power + step / 2.0, step)
    start, stop = _grid_feasible(axis, cluster.total_power, delta, rho, theta)
    i = np.repeat(np.arange(start.size), stop - start)
    j = np.concatenate([np.arange(a, b) for a, b in zip(start, stop)] + [np.arange(0)])
    ref_i, ref_j = np.nonzero(reference_mesh_feasible(cluster, step))
    assert np.array_equal(i, ref_i), (cluster, step)
    assert np.array_equal(j, ref_j), (cluster, step)


def test_bisected_grid_matches_the_mesh_on_boundaries():
    hits = {"theta3": 0, "cap": 0, "half": 0}
    for cluster, step in boundary_cases():
        assert_same_feasible_set(cluster, step)
        delta, rho, theta = threshold_coefficients(cluster)
        axis = np.arange(0.0, cluster.total_power + step / 2.0, step)
        on_grid = np.isin(delta[1] * axis - rho[1], axis)
        hits["theta3"] += theta[2] in axis
        hits["cap"] += bool(on_grid.all())
        hits["half"] += bool(np.isin(axis / 2.0, axis).any())
    assert min(hits.values()) >= 15  # every kind of boundary is exercised


def tiny_scenarios(count, seed):
    rng = np.random.default_rng(seed)
    return [generate_scenario(tiny_config(ScenarioConfig(), rng)) for _ in range(count)]


def test_mckp_matches_reference_on_every_tiny_assignment():
    assignments = 0
    for sc in tiny_scenarios(TINY_INSTANCES, seed=5):
        cfg = sc.config
        for clusters in _valid_assignments(sc, cfg.num_clusters, cfg.max_rank):
            assignments += 1
            values = _tone_values(sc, _layout(clusters, sc.num_devices)[0])
            assert np.array_equal(
                values.transpose(1, 0, 2), reference_tone_values_equal_split(sc, clusters)
            )
            owner, watts, report = mckp_oracle(sc, clusters)
            ref_owner = reference_mckp_oracle(sc, clusters)
            assert np.array_equal(owner, ref_owner)
            tone_sets = [np.flatnonzero(ref_owner == c) for c in range(cfg.num_clusters)]
            ref_watts = reference_equal_split_powers(sc, clusters, tone_sets)
            ref_report = rate_report(sc, clusters, ref_owner, ref_watts)
            assert np.array_equal(watts, ref_watts)
            assert np.array_equal(report.rates, ref_report.rates)
            assert report.sum_rate == ref_report.sum_rate
            assert np.array_equal(report.satisfied, ref_report.satisfied)
    assert assignments > 1000


def test_exhaustive_clustering_matches_reference():
    for sc in tiny_scenarios(40, seed=9):
        clusters, owner, report = exhaustive_clustering(sc)
        ref_clusters, ref_owner, ref_report = reference_exhaustive_clustering(sc)
        assert clusters == ref_clusters
        assert np.array_equal(owner, ref_owner)
        assert np.array_equal(report.rates, ref_report.rates)
        assert report.sum_rate == ref_report.sum_rate
        assert np.array_equal(report.satisfied, ref_report.satisfied)


@pytest.mark.parametrize("num_urllc, assignments", [(0, 240), (2, 72)])
def test_exhaustive_clustering_matches_reference_at_the_bounds(num_urllc, assignments):
    # Five devices, two clusters, rank 3 and six tones: the largest search.
    base = ScenarioConfig()
    cfg = replace(
        base,
        num_urllc=num_urllc,
        num_mmtc=EXHAUSTIVE_MAX_DEVICES - num_urllc,
        num_clusters=EXHAUSTIVE_MAX_CLUSTERS,
        max_rank=EXHAUSTIVE_MAX_RANK,
        num_subcarriers=EXHAUSTIVE_MAX_SUBCARRIERS,
        rb_bandwidth=max(base.rb_bandwidth, 6 * base.subcarrier_bandwidth),
        rng_seed=41 + num_urllc,
    )
    sc = generate_scenario(cfg)
    assert sum(1 for _ in _valid_assignments(sc, cfg.num_clusters, cfg.max_rank)) == assignments
    clusters, owner, report = exhaustive_clustering(sc)
    ref_clusters, ref_owner, ref_report = reference_exhaustive_clustering(sc)
    assert clusters == ref_clusters
    assert np.array_equal(owner, ref_owner)
    assert np.array_equal(report.rates, ref_report.rates)
    assert report.sum_rate == ref_report.sum_rate
    assert np.array_equal(report.satisfied, ref_report.satisfied)


def tie_scenarios():
    """Tiny cells whose orderings, relabellings or maps tie exactly or within rounding."""
    rng = np.random.default_rng(77)
    for kinds, num_c, k_max, num_s in (
        ("uumm", 2, 2, 3), ("uummm", 2, 3, 4), ("ummmm", 2, 3, 2),
        ("mmmm", 2, 2, 6), ("uuumm", 2, 3, 5), ("uum", 1, 3, 4), ("umm", 1, 3, 3),
    ):
        n = len(kinds)
        rows = rng.exponential(1.0, size=(2, num_s))
        # Exact duplicates: the same two rows over and over, so swapping
        # same-class members or whole clusters changes nothing.
        yield make_scenario(rows[np.arange(n) % 2], kinds, num_clusters=num_c, max_rank=k_max)
        yield make_scenario(np.tile(rows[0], (n, 1)), kinds, num_clusters=num_c, max_rank=k_max)
        # Near duplicates: a few ulps apart, so ties break on rounding alone.
        ulps = 1.0 + rng.integers(-4, 5, size=(n, 1)) * np.finfo(float).eps
        yield make_scenario(
            rows[np.arange(n) % 2] * ulps, kinds, num_clusters=num_c, max_rank=k_max
        )
        yield make_scenario(
            np.tile(rows[0], (n, 1)) * ulps, kinds, num_clusters=num_c, max_rank=k_max
        )
        # Near-duplicate tones: maps that trade tones tie within rounding,
        # so different rank orders of one clustering can pick different maps.
        flat = rng.exponential(1.0, size=(n, 1)) * (
            1.0 + rng.integers(-4, 5, size=(n, num_s)) * np.finfo(float).eps
        )
        yield make_scenario(flat, kinds, num_clusters=num_c, max_rank=k_max)


def test_exhaustive_clustering_ties_match_reference():
    for sc in tie_scenarios():
        clusters, owner, report = exhaustive_clustering(sc)
        ref_clusters, ref_owner, ref_report = reference_exhaustive_clustering(sc)
        assert clusters == ref_clusters
        assert np.array_equal(owner, ref_owner)
        assert np.array_equal(report.rates, ref_report.rates)
        assert report.sum_rate == ref_report.sum_rate


def paired_clusters(gains):
    """Two-member clusters over consecutive device pairs of ``gains``."""
    num_c = len(gains) // 2
    sc = make_scenario(gains, "m" * (2 * num_c), num_clusters=num_c)
    return sc, [[2 * c, 2 * c + 1] for c in range(num_c)]


@pytest.mark.parametrize("num_c, num_s", [(4, 9), (3, 11)])
def test_multi_chunk_instances_match_reference(num_c, num_s):
    # C^S above one 65,536-map chunk: the winner is carried across chunks.
    assert num_c**num_s > 1 << 16
    rng = np.random.default_rng(num_c * 100 + num_s)
    sc, clusters = paired_clusters(rng.exponential(1.0, size=(2 * num_c, num_s)))
    assert np.array_equal(
        mckp_oracle(sc, clusters)[0], reference_mckp_oracle(sc, clusters)
    )


@pytest.mark.parametrize("num_c, num_s", [(2, 4), (4, 9)])
def test_exact_ties_go_to_the_smallest_map(num_c, num_s):
    # Clusters with the same gains: relabelling a map gives an exact tie.
    # With four clusters on nine tones the first tone's owner picks the
    # chunk, so the tied relabellings sit in different chunks.
    pair = np.random.default_rng(num_s).exponential(1.0, size=(2, num_s))
    sc, clusters = paired_clusters(np.tile(pair, (num_c, 1)))
    owner = mckp_oracle(sc, clusters)[0]
    assert np.array_equal(owner, reference_mckp_oracle(sc, clusters))
    labels = np.unique(owner)
    first_use = [int(np.flatnonzero(owner == c)[0]) for c in labels]
    assert np.array_equal(labels, np.arange(labels.size))
    assert first_use == sorted(first_use)


def assert_greatest_tail(cluster, solution, greatest=None):
    """``solution`` has HiGHS's greatest tail, ``greatest`` if given."""
    tol = 1e-9 * cluster.total_power
    greatest = reference_highs_tail(cluster) if greatest is None else greatest
    assert np.all(np.abs(solution.tail - greatest) <= tol), cluster
    assert solution.iterations == 0


def assert_decides_like_reference(cluster):
    """``maximize_rates`` raises where the reference finds no feasible tail
    and otherwise returns HiGHS's greatest tail; True when feasible."""
    if reference_find_feasible_tail(cluster) is None:
        assert reference_highs_tail(cluster) is None
        with pytest.raises(InfeasibleClusterError):
            maximize_rates(cluster)
        return False
    assert_greatest_tail(cluster, maximize_rates(cluster))
    return True


def assert_no_worse_than_reference(cluster, greatest=None, least=None):
    # Only on clusters as drawn: scaled thresholds can leave a feasible set
    # so thin that the reference's SLSQP point, which may sit up to 1e-9 W
    # outside it, scores about 2e-12 above the exact greatest tail.
    new = maximize_rates(cluster)
    assert_greatest_tail(cluster, new, greatest)
    reference = reference_maximize_rates(cluster, start=least)
    assert new.objective >= reference.objective * (1 - 1e-12), cluster


def assert_least_tail(cluster, least=None):
    """``find_feasible_tail`` is HiGHS's least-sum tail (``least`` if given),
    and every row holds."""
    tol = 1e-12 * cluster.total_power
    start = find_feasible_tail(cluster)
    least = reference_find_feasible_tail(cluster) if least is None else least
    assert np.all(np.abs(start - least) <= tol), cluster
    if cluster.size > 1:  # one user has no rows beyond the budget
        a, b = _tail_rows(cluster)
        assert np.all(a @ start <= b + tol), cluster


@pytest.fixture
def highs_calls(monkeypatch):
    """Counts the calls to SciPy's HiGHS made through ``scipy.optimize``."""
    calls = []
    linprog = optimize.linprog

    def counting(*args, **kwargs):
        calls.append(kwargs["c"].size)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(optimize, "linprog", counting)
    return calls


def test_solver_matches_highs_reference():
    # Each cluster is solved as drawn and with its thresholds scaled up,
    # which is often past feasibility.  Clusters as drawn are feasible, and
    # so are the scaled ones that HiGHS decides are: their HiGHS tails come
    # from block-diagonal programs.  Each scaled cluster is decided alone.
    rng = np.random.default_rng(2024)
    drawn = [random_feasible_cluster(rng) for _ in range(SOLVER_INSTANCES)]
    least = reference_block_tails(drawn, 1.0)
    greatest = reference_block_tails(drawn, -1.0)
    for cluster, low, high in zip(drawn, least, greatest):
        assert_least_tail(cluster, low)
        assert_no_worse_than_reference(cluster, high, low)
    scaled = [infeasible(cluster, 4.0) for cluster in drawn]
    decided = [reference_find_feasible_tail(cluster) is not None for cluster in scaled]
    feasible = [cluster for cluster, ok in zip(scaled, decided) if ok]
    for cluster, high in zip(feasible, reference_block_tails(feasible, -1.0)):
        assert_greatest_tail(cluster, maximize_rates(cluster), high)
    for cluster in (cluster for cluster, ok in zip(scaled, decided) if not ok):
        assert reference_highs_tail(cluster) is None
        with pytest.raises(InfeasibleClusterError):
            maximize_rates(cluster)
    assert {cluster.size for cluster in drawn} == {1, 2, 3}
    assert 0 < len(feasible) < SOLVER_INSTANCES


def test_solver_never_calls_highs(highs_calls):
    rng = np.random.default_rng(7)
    sizes = set()
    for _ in range(100):
        cluster = random_feasible_cluster(rng, max_users=8)
        sizes.add(cluster.size)
        maximize_rates(cluster)
        find_feasible_tail(infeasible(cluster, 4.0))
    assert sizes == set(range(1, 9))
    assert highs_calls == []


def highs_boundary(cluster):
    """Threshold scales (feasible, infeasible) bracketing HiGHS's boundary."""
    lo, hi = 1.0, 2.0
    while reference_find_feasible_tail(infeasible(cluster, hi)) is not None:
        lo, hi = hi, 2.0 * hi
    while hi / lo - 1.0 > 1e-10:
        mid = 0.5 * (lo + hi)
        if reference_find_feasible_tail(infeasible(cluster, mid)) is None:
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_feasibility_agrees_with_highs_off_the_boundary():
    # HiGHS's primal feasibility tolerance (1e-7) decides inside a band of
    # well under 1e-6 relative around the boundary; outside it the two agree.
    rng = np.random.default_rng(31)
    checked = 0
    while checked < BOUNDARY_INSTANCES:
        cluster = random_feasible_cluster(rng)
        if cluster.size == 1:
            continue
        checked += 1
        lo, hi = highs_boundary(cluster)
        for rel in (1e-6, 1e-3):
            for scale, feasible in ((lo * (1 - rel), True), (hi * (1 + rel), False)):
                scaled = infeasible(cluster, scale)
                assert (reference_find_feasible_tail(scaled) is not None) == feasible
                assert (find_feasible_tail(scaled) is not None) == feasible, (cluster, scale)


def test_four_to_eight_users_match_highs():
    rng = np.random.default_rng(4)
    sizes = []
    while len(sizes) < 40:
        cluster = random_feasible_cluster(rng, max_users=8)
        if cluster.size < 4:
            continue
        sizes.append(cluster.size)
        assert_least_tail(cluster)
        assert_no_worse_than_reference(cluster)
        assert_decides_like_reference(infeasible(cluster, 4.0))
    assert set(sizes) == set(range(4, 9))


def equal_gain_clusters():
    """2-8 users with a run of 2..n equal gains: trailing, anywhere, or all."""
    rng = np.random.default_rng(28)
    for n in range(2, 9):
        for length in range(2, n + 1):
            for trailing in (True, False):
                for _ in range(3):
                    cluster = random_cluster_of_size(rng, n)
                    start = n - length if trailing else int(rng.integers(0, n - length + 1))
                    gains = cluster.normalized_gains.copy()
                    gains[start : start + length] = gains[start]
                    yield replace(cluster, normalized_gains=gains)


def test_equal_gains_match_two_stage_highs():
    feasible = infeasible_count = all_equal = 0
    for cluster in equal_gain_clusters():
        all_equal += bool((cluster.normalized_gains == cluster.normalized_gains[0]).all())
        for factor in (0.25, 1.0, 4.0):
            scaled = replace(cluster, rate_thresholds=cluster.rate_thresholds * factor)
            reference = reference_highs_tail(scaled)
            if reference is None:
                infeasible_count += 1
                assert find_feasible_tail(scaled) is None, scaled
                with pytest.raises(InfeasibleClusterError):
                    maximize_rates(scaled)
                continue
            feasible += 1
            assert_least_tail(scaled)
            tail = maximize_rates(scaled).tail
            assert np.all(np.abs(tail - reference) <= 1e-9 * scaled.total_power), scaled
    assert all_equal >= 7 * 3 * 2
    assert feasible > 200 and infeasible_count > 200
