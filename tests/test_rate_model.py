import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nbiot_noma.errors import DegenerateRatesError, UnassignedDeviceError
from nbiot_noma.power_opt import OrderedCluster, ordered_user_rates
from nbiot_noma.rate_model import (
    ClusterAssignment,
    PowerMatrix,
    SubcarrierMap,
    jain_fairness,
    rate_report,
    sic_chain_mismatch,
    sic_log_terms,
    validate,
)

from conftest import make_scenario

LOG2_3 = 1.5849625007211562  # log2(3), checked against mpmath


def two_device_cluster():
    """One tone, N0*W = 1: rank 1 has h=4, rank 2 has h=1, both at p=1."""
    scenario = make_scenario([[4.0], [1.0]], "mm")
    assignment = ClusterAssignment(clusters=[[0, 1]])
    sub_map = SubcarrierMap(owner=np.array([0]))
    powers = PowerMatrix(watts=np.array([[1.0], [1.0]]))
    return scenario, assignment, sub_map, powers


class TestDeviceRate:
    def test_unit_snr(self):
        # sole highest-rank device, h^2 = 1, p = N0*W: rate = W * log2(2) = W
        scenario = make_scenario([[1.0], [1.0]], "mm", tone_bandwidth=7.5)
        assignment = ClusterAssignment(clusters=[[0, 1]])
        sub_map = SubcarrierMap(owner=np.array([0]))
        powers = PowerMatrix(watts=np.array([[0.0], [7.5]]))  # noise N0*W = 7.5
        rates = rate_report(scenario, assignment, sub_map, powers).rates
        assert rates[1] == pytest.approx(7.5, rel=1e-12)

    def test_two_device_sinr(self):
        scenario, assignment, sub_map, powers = two_device_cluster()
        r1, r2 = rate_report(scenario, assignment, sub_map, powers).rates
        assert r1 == pytest.approx(LOG2_3, rel=1e-12)
        assert r2 == pytest.approx(1.0, rel=1e-12)

    def test_zero_power_zero_rate(self):
        scenario, assignment, sub_map, powers = two_device_cluster()
        powers = PowerMatrix(watts=np.zeros((2, 1)))
        assert rate_report(scenario, assignment, sub_map, powers).rates[0] == 0.0

    def test_unassigned_device(self):
        scenario, _, sub_map, powers = two_device_cluster()
        assignment = ClusterAssignment(clusters=[[0]])
        with pytest.raises(UnassignedDeviceError):
            rate_report(scenario, assignment, sub_map, powers)

    def test_empty_cluster_rate_zero(self):
        # a cluster with no subcarriers yields zero rate, not an error
        scenario = make_scenario([[2.0], [1.0]], "mm")
        assignment = ClusterAssignment(clusters=[[0, 1]])
        sub_map = SubcarrierMap(owner=np.array([-1]))
        powers = PowerMatrix(watts=np.zeros((2, 1)))
        assert rate_report(scenario, assignment, sub_map, powers).rates[0] == 0.0


positive_floats = st.floats(min_value=1e-6, max_value=1e6)
# Zero-gain tones and gains across 60 decades, log-uniform.
extreme_gains = st.one_of(st.just(0.0), st.floats(-30.0, 30.0).map(lambda e: 10.0**e))


class TestSicProperties:
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, n, elements=positive_floats),
                arrays(np.float64, n, elements=positive_floats),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_chain_conservation(self, gains_powers):
        gains, powers = gains_powers
        n = gains.size
        scenario = make_scenario(gains.reshape(n, 1), "m" * n)
        assignment = ClusterAssignment(clusters=[list(range(n))])
        sub_map = SubcarrierMap(owner=np.array([0]))
        pm = PowerMatrix(watts=powers.reshape(n, 1))
        mismatch = sic_chain_mismatch(scenario, assignment, sub_map, pm)
        assert mismatch <= 1e-9

    @given(
        st.tuples(
            st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)
        ).flatmap(
            lambda shape: st.tuples(
                arrays(np.float64, (shape[0], shape[2]), elements=extreme_gains),
                arrays(np.float64, shape[0], elements=positive_floats),
                st.just(shape[1]),
                st.floats(1e-20, 1e-5),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_stacked_terms_match_per_share_calls(self, draw):
        # The equal-split MCKP table stacks every owned-tone count k into one
        # (members, k, S) call; each slice must equal the (members, S) call.
        gains, budgets, num_k, noise = draw
        shares = np.arange(1, num_k + 1)[:, None]
        stacked = sic_log_terms(gains[:, None, :] * (budgets[:, None, None] / shares), noise)
        for k in range(num_k):
            received = gains * (budgets[:, None] / (k + 1))
            terms = sic_log_terms(received, noise)
            assert np.array_equal(stacked[:, k, :], terms)
            assert np.all(np.isfinite(terms)) and np.all(terms >= 0.0)
            direct = np.log1p(received.sum(axis=0) / noise)
            assert np.all(np.abs(terms.sum(axis=0) - direct) <= 1e-12 * direct)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in log1p")
    def test_chain_check_keeps_nan(self):
        # a negative power on an owned tone takes the SINR below -1; the
        # mismatch must come out NaN, not be skipped as a small value
        scenario, assignment, sub_map, powers = two_device_cluster()
        powers.watts[0, 0] = -5.0
        assert math.isnan(sic_chain_mismatch(scenario, assignment, sub_map, powers))

    def test_highest_rank_power_monotonicity(self):
        scenario, assignment, sub_map, powers = two_device_cluster()
        base_low, base_high = rate_report(scenario, assignment, sub_map, powers).rates
        boosted = PowerMatrix(watts=np.array([[1.0], [2.0]]))
        low, high = rate_report(scenario, assignment, sub_map, boosted).rates
        assert high > base_high
        assert low < base_low

    def test_rank_invariant_to_lower_rank_power(self):
        scenario, assignment, sub_map, powers = two_device_cluster()
        base = rate_report(scenario, assignment, sub_map, powers).rates[1]
        boosted = PowerMatrix(watts=np.array([[9.0], [1.0]]))
        assert rate_report(scenario, assignment, sub_map, boosted).rates[1] == base

    def test_matches_ordered_user_formula_on_equal_gain_tone(self):
        # With one shared gain the per-interferer SINR and the
        # normalized-gain SINR coincide, so the single-tone rates must
        # match the ordered-user closed form rank by rank.
        h, noise_w = 3.0, 1.0
        scenario = make_scenario([[h]] * 3, "mmm")
        assignment = ClusterAssignment(clusters=[[0, 1, 2]])
        sub_map = SubcarrierMap(owner=np.array([0]))
        p = np.array([0.5, 0.3, 0.2])
        pm = PowerMatrix(watts=p.reshape(3, 1))
        cluster = OrderedCluster(
            normalized_gains=np.full(3, h / noise_w),
            rate_thresholds=np.zeros(3),
            total_power=1.0,
            bandwidth_hz=1.0,
        )
        expected = ordered_user_rates(p, cluster)
        rates = rate_report(scenario, assignment, sub_map, pm).rates
        for rank in range(3):
            assert rates[rank] == pytest.approx(expected[rank], rel=1e-12)


class TestJain:
    def test_equal_rates(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0, rel=1e-15)

    def test_single_user_extreme(self):
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25, rel=1e-15)

    def test_hand_value(self):
        assert jain_fairness([1, 2, 3]) == pytest.approx(6.0 / 7.0, rel=1e-15)

    def test_degenerate(self):
        with pytest.raises(DegenerateRatesError):
            jain_fairness([0.0, 0.0])

    @given(arrays(np.float64, st.integers(1, 20), elements=positive_floats))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, rates):
        value = jain_fairness(rates)
        assert 0.0 < value <= 1.0 + 1e-12


class TestRateReport:
    def test_two_device_thresholds(self):
        scenario = make_scenario([[4.0], [1.0]], "mm", thresholds=[1.0, 1.0])
        assignment = ClusterAssignment(clusters=[[0, 1]])
        sub_map = SubcarrierMap(owner=np.array([0]))
        powers = PowerMatrix(watts=np.ones((2, 1)))
        report = rate_report(scenario, assignment, sub_map, powers)
        assert report.satisfied_count == 2
        assert report.sum_rate == pytest.approx(LOG2_3 + 1.0, rel=1e-12)
        assert report.sum_rate == pytest.approx(report.rates.sum(), rel=1e-9)

    def test_all_zero_rates(self):
        scenario = make_scenario([[4.0], [1.0]], "mm", thresholds=[1.0, 1.0])
        assignment = ClusterAssignment(clusters=[[0, 1]])
        sub_map = SubcarrierMap(owner=np.array([-1]))
        powers = PowerMatrix(watts=np.zeros((2, 1)))
        report = rate_report(scenario, assignment, sub_map, powers)
        assert report.satisfied_count == 0
        assert math.isnan(report.fairness)

    def test_symmetric_fairness_one(self):
        # symmetric devices with symmetric allocations achieve equal rates
        scenario = make_scenario([[2.0, 2.0], [2.0, 2.0]], "mm", num_clusters=2)
        assignment = ClusterAssignment(clusters=[[0], [1]])
        sub_map = SubcarrierMap(owner=np.array([0, 1]))
        powers = PowerMatrix(watts=np.array([[1.0, 0.0], [0.0, 1.0]]))
        report = rate_report(scenario, assignment, sub_map, powers)
        assert report.fairness == pytest.approx(1.0, rel=1e-12)


class TestValidate:
    def valid_triple(self):
        scenario = make_scenario(
            [[2.0, 1.0], [1.0, 2.0], [1.5, 1.0], [1.0, 1.5]], "uumm",
            num_clusters=2, budgets=[1.0] * 4,
        )
        assignment = ClusterAssignment(clusters=[[0, 2], [1, 3]])
        sub_map = SubcarrierMap(owner=np.array([0, 1]))
        watts = np.zeros((4, 2))
        watts[[0, 2], 0] = 1.0
        watts[[1, 3], 1] = 1.0
        return scenario, assignment, sub_map, PowerMatrix(watts=watts)

    def test_valid(self):
        scenario, assignment, sub_map, powers = self.valid_triple()
        assert validate(assignment, sub_map, powers, scenario) == []

    def test_singleton_cluster(self):
        scenario, _, sub_map, powers = self.valid_triple()
        assignment = ClusterAssignment(clusters=[[0, 2, 3], [1]])
        tags = {v.constraint for v in validate(assignment, sub_map, powers, scenario)}
        assert "C11" in tags

    def test_rank_order_rule(self):
        scenario, _, sub_map, powers = self.valid_triple()
        assignment = ClusterAssignment(clusters=[[2, 0], [1, 3]])  # mMTC above URLLC
        tags = {v.constraint for v in validate(assignment, sub_map, powers, scenario)}
        assert "C5" in tags

    def test_power_outside_cluster(self):
        scenario, assignment, sub_map, powers = self.valid_triple()
        powers.watts[0, 1] = 0.5  # cluster 0 does not own tone 1
        tags = {v.constraint for v in validate(assignment, sub_map, powers, scenario)}
        assert "POWER_OWNERSHIP" in tags

    def test_mmtc_budget_cap(self):
        scenario, assignment, sub_map, powers = self.valid_triple()
        powers.watts[2, 0] = 2.0  # budget is 1.0
        tags = {v.constraint for v in validate(assignment, sub_map, powers, scenario)}
        assert "C2" in tags

    def test_urllc_budget_equality(self):
        scenario, assignment, sub_map, powers = self.valid_triple()
        powers.watts[0, 0] = 0.25  # URLLC must spend the full budget
        tags = {v.constraint for v in validate(assignment, sub_map, powers, scenario)}
        assert "C4" in tags

    def test_negative_power(self):
        scenario, assignment, sub_map, powers = self.valid_triple()
        powers.watts[3, 1] = -0.1
        tags = {v.constraint for v in validate(assignment, sub_map, powers, scenario)}
        assert "C14" in tags

    def test_duplicate_device(self):
        scenario, _, sub_map, powers = self.valid_triple()
        assignment = ClusterAssignment(clusters=[[0, 2], [1, 3, 2]])
        tags = {v.constraint for v in validate(assignment, sub_map, powers, scenario)}
        assert "C8/C9" in tags
