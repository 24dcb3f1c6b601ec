import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from nbiot_noma.allocation import allocate
from nbiot_noma.baselines import (
    exhaustive_clustering,
    fast_ofdm_allocate,
    grid_power_oracle,
    half_tone_scenario,
    mckp_oracle,
    ofdma_allocate,
)
from nbiot_noma.clustering import build_clusters
from nbiot_noma.errors import (
    GridResolutionError,
    InstanceTooLargeError,
    InvalidAssignmentError,
)
from nbiot_noma.power_opt import OrderedCluster, find_feasible_tail, maximize_rates
from nbiot_noma.rate_model import RateReport, rate_report
from nbiot_noma.scenario import ScenarioConfig, generate_scenario, read_config_file
from nbiot_noma.selfcheck import tiny_config

from conftest import make_scenario

CELL_DEFAULT = Path(__file__).resolve().parent.parent / "configs" / "cell_default.cfg"


class TestOfdma:
    def test_single_device_owns_everything(self):
        sc = make_scenario([[2.0, 3.0, 4.0]], "m", budgets=[0.6], max_rank=2)
        owner, watts, report = ofdma_allocate(sc)
        assert np.all(owner == 0)
        assert np.allclose(watts[0], 0.2)
        expected = sum(math.log2(1 + g * 0.2) for g in (2.0, 3.0, 4.0))
        assert report.rates[0] == pytest.approx(expected, rel=1e-12)

    def test_crossed_gains(self):
        sc = make_scenario([[5.0, 1.0], [1.0, 5.0]], "mm", thresholds=[0.1, 0.1])
        owner, _, report = ofdma_allocate(sc)
        assert list(owner) == [0, 1]
        assert report.satisfied_count == 2

    def test_more_devices_than_tones(self):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            num_urllc=15,
            num_mmtc=45,
            num_clusters=15,
            rng_seed=3,
        )
        sc = generate_scenario(cfg)
        owner, _, report = ofdma_allocate(sc)
        assert np.count_nonzero(report.rates) <= 48
        assert report.satisfied_count <= 48
        assert len(set(owner.tolist())) <= 48

    def test_exclusive_ownership(self):
        cfg = dataclasses.replace(
            ScenarioConfig(), num_urllc=2, num_mmtc=6, num_clusters=2, rng_seed=5
        )
        sc = generate_scenario(cfg)
        owner, watts, _ = ofdma_allocate(sc)
        for s, dev in enumerate(owner):
            others = np.delete(np.arange(sc.num_devices), dev)
            assert np.all(watts[others, s] == 0.0)


class TestFastOfdm:
    def test_tone_doubling(self):
        sc = generate_scenario(ScenarioConfig(rng_seed=1))
        derived = half_tone_scenario(sc)
        assert derived.config.num_subcarriers == 96
        assert derived.config.subcarrier_bandwidth == pytest.approx(1875.0)
        # total bandwidth conserved exactly
        assert (
            derived.config.num_subcarriers * derived.config.subcarrier_bandwidth
            == sc.config.num_subcarriers * sc.config.subcarrier_bandwidth
        )
        # half-tones 2s and 2s+1 both carry tone s's gain
        for s in range(sc.config.num_subcarriers):
            assert np.array_equal(derived.gain_matrix[:, 2 * s], sc.gain_matrix[:, s])
            assert np.array_equal(derived.gain_matrix[:, 2 * s + 1], sc.gain_matrix[:, s])
        for name in ("rate_thresholds", "power_budgets", "is_urllc", "distances"):
            assert np.array_equal(getattr(derived, name), getattr(sc, name)), name

    def test_single_device_rate_matches_ofdma(self):
        sc = make_scenario([[2.0, 3.0, 4.0, 1.0]], "m", budgets=[0.6], max_rank=2)
        _, _, plain = ofdma_allocate(sc)
        _, _, fast = fast_ofdm_allocate(sc)
        assert fast.rates[0] == pytest.approx(plain.rates[0], rel=1e-9)

    def test_doubled_connectivity(self):
        # 12 low-threshold devices on 6 tones: fast-OFDM serves all 12,
        # plain OFDMA can serve at most 6
        rng = np.random.default_rng(0)
        gains = rng.exponential(1.0, size=(12, 6)) + 0.5
        sc = make_scenario(
            gains, "m" * 12, thresholds=[0.01] * 12, num_clusters=6,
        )
        _, _, plain = ofdma_allocate(sc)
        _, _, fast = fast_ofdm_allocate(sc)
        assert plain.satisfied_count <= 6
        assert fast.satisfied_count == 12


class TestMckpOracle:
    def test_single_cluster_unique_map(self):
        sc = make_scenario([[1.0, 2.0], [0.5, 0.5]], "mm")
        clusters = [[0, 1]]
        best, _, _ = mckp_oracle(sc, clusters)
        assert list(best) == [0, 0]

    def test_matches_greedy_on_crossed_gains(self):
        gains = [[10.0, 1.0], [5.0, 0.5], [1.0, 10.0], [0.5, 5.0]]
        sc = make_scenario(gains, "mmmm", num_clusters=2)
        clusters = [[0, 1], [2, 3]]
        best, _, _ = mckp_oracle(sc, clusters)
        assert list(best) == [0, 1]

    def test_lexicographic_tie_break(self):
        # identical equal-split clusters on identical tones: giving each
        # cluster one tone beats giving one cluster both, and [0, 1] ties
        # [1, 0] exactly, so the lexicographically smaller map must win
        gains = [[1.0, 1.0], [0.5, 0.5], [1.0, 1.0], [0.5, 0.5]]
        sc = make_scenario(gains, "mmmm", num_clusters=2)
        clusters = [[0, 1], [2, 3]]
        best, _, _ = mckp_oracle(sc, clusters)
        assert list(best) == [0, 1]

    def test_instance_too_large(self):
        sc = make_scenario(np.ones((2, 13)), "mm")
        clusters = [[0, 1]]
        with pytest.raises(InstanceTooLargeError):
            mckp_oracle(sc, clusters)

    @pytest.mark.parametrize(
        "clusters",
        [[[0], [1, 2, 3]], [[0, 1], [1, 2, 3]], [[2, 0], [1, 3]], [[0, 1, 2, 3]], []],
        ids=["singleton", "duplicate", "urllc_below_mmtc", "over_k_max", "empty"],
    )
    def test_rejects_what_allocate_rejects(self, clusters):
        sc = make_scenario(np.ones((4, 3)), "uumm", num_clusters=2, max_rank=2)
        with pytest.raises(InvalidAssignmentError) as expected:
            allocate(sc, clusters)
        with pytest.raises(InvalidAssignmentError) as got:
            mckp_oracle(sc, clusters)
        assert expected.value.violations
        assert got.value.violations == expected.value.violations  # tags and texts

    def test_dominates_greedy(self):
        base = ScenarioConfig()
        rng = np.random.default_rng(17)
        for _ in range(100):
            sc = generate_scenario(tiny_config(base, rng))
            clusters = build_clusters(sc)
            _, _, report = allocate(sc, clusters)
            _, _, best = mckp_oracle(sc, clusters)
            assert best.sum_rate >= report.sum_rate * (1 - 1e-9)


class TestExhaustiveClustering:
    def test_forced_minimal_pair(self):
        sc = make_scenario([[2.0], [1.0]], "um", num_clusters=1)
        clusters, owner, report = exhaustive_clustering(sc)
        assert clusters == [[0, 1]]
        assert list(owner) == [0]

    def test_two_orderings_evaluated(self):
        sc = make_scenario([[4.0], [1.0]], "mm", num_clusters=1, budgets=[1.0, 1.0])
        best_clusters, owner, best = exhaustive_clustering(sc)
        # score the opposite ordering by hand and confirm the oracle's
        # choice is the better of the two
        other = [list(reversed(best_clusters[0]))]
        watts = np.ones((2, 1))
        other_rate = rate_report(sc, other, owner, watts).sum_rate
        assert best.sum_rate >= other_rate - 1e-12

    def test_instance_too_large(self):
        cfg = dataclasses.replace(
            ScenarioConfig(), num_urllc=3, num_mmtc=3, num_clusters=2, max_rank=3
        )
        with pytest.raises(InstanceTooLargeError):
            exhaustive_clustering(generate_scenario(cfg))

    def test_dominates_heuristic(self):
        base = ScenarioConfig()
        rng = np.random.default_rng(23)
        for _ in range(40):
            sc = generate_scenario(tiny_config(base, rng))
            _, _, heuristic_report = allocate(sc, build_clusters(sc))
            _, _, best = exhaustive_clustering(sc)
            assert best.sum_rate >= heuristic_report.sum_rate * (1 - 1e-9)


class TestGridOracle:
    def test_single_user(self):
        cluster = OrderedCluster([2.0], [0.0], 0.5, 1.0)
        powers, objective = grid_power_oracle(cluster, 0.01)
        assert powers[0] == 0.5
        assert objective == pytest.approx(math.log2(2.0), rel=1e-12)

    def test_two_user_matches_solver_within_step(self):
        cluster = OrderedCluster([1.0, 2.0], [0.0, 0.0], 1.0, 1.0)
        step = 1e-3
        _, grid_obj = grid_power_oracle(cluster, step)
        solution = maximize_rates(cluster)
        assert abs(solution.objective - grid_obj) <= 1e-3 * abs(solution.objective)

    def test_infeasible_consistent_with_feasibility_check(self):
        cluster = OrderedCluster([1.0, 2.0], [40.0, 40.0], 3.0, 1.0)
        assert find_feasible_tail(cluster) is None
        with pytest.raises(GridResolutionError):
            grid_power_oracle(cluster, 1e-3)

    def test_too_many_users(self):
        cluster = OrderedCluster([1.0, 2.0, 3.0, 4.0], [0.0] * 4, 1.0, 1.0)
        with pytest.raises(InstanceTooLargeError):
            grid_power_oracle(cluster, 0.01)

    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1e-3])
    def test_step_must_be_positive_and_finite(self, step):
        cluster = OrderedCluster([1.0, 2.0], [0.0, 0.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="step"):
            grid_power_oracle(cluster, step)


def default_cell(seed):
    return generate_scenario(dataclasses.replace(read_config_file(CELL_DEFAULT), rng_seed=seed))


def tiny_cell(seed):
    return generate_scenario(tiny_config(ScenarioConfig(), np.random.default_rng(seed)))


@pytest.mark.parametrize(
    "allocator, make_cell",
    [
        (allocate, default_cell),
        (mckp_oracle, tiny_cell),
        (ofdma_allocate, default_cell),
        (fast_ofdm_allocate, default_cell),
    ],
    ids=lambda v: v.__name__,
)
@pytest.mark.parametrize("seed", range(3))
def test_allocators_share_one_interface(allocator, make_cell, seed):
    """(owner, watts, report), and rate_report on the returned arrays with
    the allocator's own groups gives back its rates bit for bit.  The OMA
    groups are single devices; fast-OFDM's arrays index the half-tone cell."""
    cell = make_cell(seed)
    if allocator in (ofdma_allocate, fast_ofdm_allocate):
        groups = [[d] for d in range(cell.num_devices)]
        owner, watts, report = allocator(cell)
        if allocator is fast_ofdm_allocate:
            cell = half_tone_scenario(cell)
    else:
        groups = build_clusters(cell)
        owner, watts, report = allocator(cell, groups)
    num_s = cell.config.num_subcarriers
    assert isinstance(owner, np.ndarray) and owner.dtype.kind == "i"
    assert owner.shape == (num_s,)
    assert isinstance(watts, np.ndarray) and watts.shape == (cell.num_devices, num_s)
    assert isinstance(report, RateReport)
    again = rate_report(cell, groups, owner, watts)
    assert np.array_equal(again.rates, report.rates)
    assert again.sum_rate == report.sum_rate
