import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nbiot_noma import power_opt
from nbiot_noma.errors import (
    ConvergenceError,
    InfeasibleClusterError,
    NonmonotoneTailError,
)
from nbiot_noma.power_opt import (
    OrderedCluster,
    cluster_objective,
    find_feasible_tail,
    maximize_rates,
    ordered_user_rates,
    powers_from_tail,
    probe_concavity,
    second_derivative_core,
    tail_powers,
    threshold_coefficients,
)
from nbiot_noma.selfcheck import random_feasible_cluster

from conftest import random_cluster_of_size
from reference_oracles import (
    ReferenceOrderedCluster,
    _objective_gradient,
    _tail_rows,
    reference_mesh_feasible,
)


def simple_cluster(gains, thresholds=None, p_max=1.0, bandwidth=1.0):
    gains = np.asarray(gains, dtype=float)
    thresholds = np.zeros_like(gains) if thresholds is None else np.asarray(thresholds)
    return OrderedCluster(gains, thresholds, p_max, bandwidth)


class TestTransform:
    def test_suffix_sums(self):
        assert np.array_equal(tail_powers([3, 2, 1]), [6, 3, 1])

    def test_zero(self):
        assert np.array_equal(tail_powers([0, 0, 0]), [0, 0, 0])

    def test_inverse_examples(self):
        assert np.array_equal(powers_from_tail([6, 3, 1]), [3, 2, 1])
        assert np.array_equal(powers_from_tail([5, 5, 5]), [0, 0, 5])

    def test_nonmonotone_rejected(self):
        with pytest.raises(NonmonotoneTailError):
            powers_from_tail([1, 2])

    @given(
        arrays(
            np.float64,
            st.integers(1, 8),
            elements=st.floats(min_value=0.0, max_value=1e6),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, powers):
        back = powers_from_tail(tail_powers(powers))
        assert np.allclose(back, powers, rtol=0.0, atol=1e-12 * (1 + powers.max()))


class TestObjectiveTerms:
    def test_equal_gains_vanish(self):
        # user 2's term is zero, so its tail value cannot move the objective
        cluster = simple_cluster([2.0, 2.0])
        for z in (0.0, 0.3, 5.0):
            assert cluster_objective([1.0, z], cluster) == cluster_objective(
                [1.0, 0.0], cluster
            )

    def test_unit_snr_first_term(self):
        cluster = simple_cluster([2.0, 4.0])
        assert cluster_objective([0.5, 0.0], cluster) == pytest.approx(1.0, rel=1e-12)

    @given(st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_identity_with_direct_rates(self, seed):
        rng = np.random.default_rng(seed)
        cluster = random_feasible_cluster(rng, max_users=3)
        powers = rng.uniform(0.0, cluster.total_power, size=cluster.size)
        direct = math.fsum(ordered_user_rates(powers, cluster))
        via_tail = cluster_objective(tail_powers(powers), cluster)
        assert via_tail == pytest.approx(direct, rel=1e-9)


class TestOrderedCluster:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["normalized_gains", "rate_thresholds", "total_power", "bandwidth_hz"]
    )
    def test_nonfinite_field_is_named(self, field, bad):
        fields = dict(
            normalized_gains=np.array([1.0, 2.0]),
            rate_thresholds=np.array([0.1, 0.1]),
            total_power=3.0,
            bandwidth_hz=1.0,
        )
        fields[field] = np.array([1.0, bad]) if field.endswith("s") else bad
        with pytest.raises(ValueError, match=field):
            OrderedCluster(**fields)

    VALID = dict(
        normalized_gains=[1.0, 2.0], rate_thresholds=[0.1, 0.2], total_power=3.0, bandwidth_hz=1.0
    )
    NAN, INF = math.nan, math.inf

    @pytest.mark.parametrize(
        "bad",
        [
            # one fault each
            dict(normalized_gains=[1.0, NAN]),
            dict(normalized_gains=[INF, 2.0]),
            dict(normalized_gains=[1.0, -INF]),
            dict(rate_thresholds=[NAN, 0.1]),
            dict(rate_thresholds=[0.1, INF]),
            dict(total_power=NAN),
            dict(total_power=-INF),
            dict(bandwidth_hz=INF),
            dict(bandwidth_hz=NAN),
            dict(normalized_gains=[[1.0, 2.0]]),
            dict(normalized_gains=[]),
            dict(normalized_gains=2.0),
            dict(normalized_gains=[2.0, 1.0]),
            dict(normalized_gains=[1.0, 3.0, 2.0], rate_thresholds=[0.0, 0.0, 0.0]),
            dict(normalized_gains=[0.0, 2.0]),
            dict(normalized_gains=[-1.0, 2.0]),
            dict(rate_thresholds=[0.1]),
            dict(rate_thresholds=[[0.1, 0.2]]),
            dict(rate_thresholds=0.1),
            dict(rate_thresholds=[0.1, -0.2]),
            dict(total_power=0.0),
            dict(total_power=-1.0),
            dict(bandwidth_hz=0.0),
            dict(bandwidth_hz=-2.0),
            # which check fires first
            dict(normalized_gains=[[1.0, NAN]]),
            dict(normalized_gains=[], total_power=NAN),
            dict(normalized_gains=[2.0, NAN], total_power=-1.0),
            dict(normalized_gains=[0.0, 2.0], rate_thresholds=[NAN, 0.1]),
            dict(total_power=INF, bandwidth_hz=NAN),
            dict(normalized_gains=[2.0, -1.0]),
            dict(normalized_gains=[2.0, 1.0], rate_thresholds=[0.1]),
            dict(normalized_gains=[2.0, 1.0], total_power=0.0),
            dict(rate_thresholds=[-0.1], bandwidth_hz=0.0),
            dict(rate_thresholds=[-0.1, 0.2], total_power=0.0),
            dict(total_power=0.0, bandwidth_hz=0.0),
            dict(rate_thresholds=[[NAN, 0.1]]),
        ],
        ids=repr,
    )
    def test_rejections_match_reference(self, bad):
        fields = {**self.VALID, **bad}
        with pytest.raises(ValueError) as ref:
            ReferenceOrderedCluster(**fields)
        with pytest.raises(ValueError) as new:
            OrderedCluster(**fields)
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize(
        "fields",
        [VALID, dict(VALID, normalized_gains=[2.0, 2.0]), dict(VALID, rate_thresholds=[0, 0])],
        ids=repr,
    )
    def test_valid_inputs_accepted(self, fields):
        ReferenceOrderedCluster(**fields)
        cluster = OrderedCluster(**fields)
        assert cluster.normalized_gains.dtype == cluster.rate_thresholds.dtype == float


class TestFeasibility:
    def test_zero_thresholds_equal_power_witness(self):
        cluster = simple_cluster([1.0, 2.0, 3.0], p_max=0.9)
        delta, rho, theta = threshold_coefficients(cluster)
        assert np.allclose(delta, 1.0) and np.allclose(rho, 0.0)
        assert np.allclose(theta, 0.0)
        n = cluster.size
        equal = np.array([0.9 * (n - j) / n for j in range(n)])
        # the equal-power tail satisfies every constraint by hand
        assert equal[1] <= delta[0] * 0.9 - rho[0] + 1e-15
        assert equal[2] <= delta[1] * equal[1] - rho[1] + 1e-15
        witness = find_feasible_tail(cluster)
        assert witness is not None
        assert witness[0] == 0.9

    def test_hand_worked_two_user_instance(self):
        cluster = simple_cluster([1.0, 2.0], thresholds=[1.0, 1.0], p_max=3.0)
        delta, rho, theta = threshold_coefficients(cluster)
        assert delta[0] == pytest.approx(0.5)
        assert rho[0] == pytest.approx(0.5)
        assert theta[1] == pytest.approx(0.5)
        witness = find_feasible_tail(cluster)
        assert witness is not None
        assert 0.5 - 1e-9 <= witness[1] <= 1.0 + 1e-9

    def test_unbounded_demand_infeasible(self):
        cluster = simple_cluster([1.0, 2.0], thresholds=[40.0, 40.0], p_max=3.0)
        assert find_feasible_tail(cluster) is None

    def test_single_user(self):
        assert find_feasible_tail(simple_cluster([2.0], p_max=0.5)) is not None
        tight = simple_cluster([2.0], thresholds=[10.0], p_max=0.5)
        assert find_feasible_tail(tight) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("overflowing", ["first", "last"])
    def test_overflowing_threshold_is_infeasible_without_warnings(self, n, overflowing):
        # 2**(1e6 / 1) overflows; the backward pass must never see the
        # infinite bound it makes
        thresholds = np.zeros(n)
        thresholds[0 if overflowing == "first" else -1] = 1e6
        cluster = simple_cluster(np.arange(1.0, n + 1), thresholds=thresholds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_feasible_tail(cluster) is None
            with pytest.raises(InfeasibleClusterError):
                maximize_rates(cluster)


class TestSolve:
    def test_single_user_full_budget(self):
        cluster = simple_cluster([3.0], p_max=0.7)
        solution = maximize_rates(cluster)
        assert solution.powers[0] == 0.7
        assert solution.objective == pytest.approx(math.log2(1 + 3.0 * 0.7), rel=1e-12)

    def test_equal_gain_degenerate_pushes_tail_down(self):
        # identical gains zero out the second term, so the optimum sits at
        # the smallest tail the thresholds allow: P1 as large as possible
        cluster = simple_cluster([2.0, 2.0], thresholds=[0.5, 0.5], p_max=3.0)
        solution = maximize_rates(cluster)
        theta_last = (2.0**0.5 - 1.0) / 2.0
        assert solution.tail[1] == pytest.approx(theta_last, abs=1e-8)
        assert solution.powers[0] == pytest.approx(3.0 - theta_last, rel=1e-8)

    def test_infeasible_raises(self):
        cluster = simple_cluster([1.0, 2.0], thresholds=[40.0, 40.0], p_max=3.0)
        with pytest.raises(InfeasibleClusterError):
            maximize_rates(cluster)

    def test_tiny_gain_solves_without_warnings(self):
        # 1/5e-324 overflows: the bound must be theta + c*T, never c*(1/g + T)
        cluster = simple_cluster([5e-324, 1.0], p_max=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = maximize_rates(cluster)
        assert np.array_equal(solution.tail, [1.0, 0.5])

    @pytest.mark.parametrize("scale", [1e-6, 1e10])
    def test_budget_scale_moves_only_the_units(self, scale):
        # Watts times scale and gains over scale leave every SINR alone, so
        # the tail scales too; at 1e10 W it rounds by far more than 1e-9 W.
        rng = np.random.default_rng(12)
        for _ in range(100):
            cluster = random_feasible_cluster(rng, max_users=8)
            scaled = OrderedCluster(
                cluster.normalized_gains / scale,
                cluster.rate_thresholds,
                cluster.total_power * scale,
                cluster.bandwidth_hz,
            )
            tail = maximize_rates(cluster).tail
            assert np.allclose(maximize_rates(scaled).tail / scale, tail, rtol=1e-12, atol=0)

    def test_failed_feasibility_check_reports_the_point(self, monkeypatch):
        cluster = simple_cluster([0.7, 1.9, 3.1], p_max=2.0)
        solution = maximize_rates(cluster)
        # A negative tolerance demands 1 W of slack on every threshold and
        # ordering row, which no point has.
        monkeypatch.setattr(power_opt, "FEASIBILITY_ATOL", -1.0)
        with pytest.raises(ConvergenceError) as info:
            maximize_rates(cluster)
        assert np.array_equal(info.value.best_powers, solution.powers)
        assert info.value.best_objective == solution.objective

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_contract_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        cluster = random_feasible_cluster(rng, max_users=3)
        solution = maximize_rates(cluster)
        p = solution.powers
        assert np.all(np.diff(p) <= 1e-9 * cluster.total_power)  # nonincreasing
        assert p.sum() == pytest.approx(cluster.total_power, rel=1e-9)
        rates = ordered_user_rates(p, cluster)
        assert np.all(rates >= cluster.rate_thresholds - 1e-6 * (1 + cluster.rate_thresholds))


class TestGreatestTail:
    """The premises of the greatest-tail argument behind ``maximize_rates``."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_each_row_has_at_most_one_positive_coefficient(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            a, _ = _tail_rows(random_cluster_of_size(rng, n))
            assert a.shape == (2 * n - 1, n)
            assert ((a > 0).sum(axis=1) <= 1).all()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gradient_is_nonnegative_on_feasible_tails(self, n):
        # The feasible set is convex, so the segment between its least-sum
        # and greatest tails stays inside it.
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            cluster = random_cluster_of_size(rng, n)
            least = find_feasible_tail(cluster)
            greatest = maximize_rates(cluster).tail
            for u in rng.uniform(0.0, 1.0, size=10):
                tail = least + u * (greatest - least)
                assert (_objective_gradient(tail, cluster) >= 0).all()

    @pytest.mark.parametrize("n, division", [(2, 1000), (3, 300)])
    def test_solution_dominates_every_feasible_mesh_point(self, n, division):
        rng = np.random.default_rng(200 + n)
        for _ in range(40):
            cluster = random_cluster_of_size(rng, n)
            p_max = cluster.total_power
            step = p_max / division
            mesh = np.nonzero(reference_mesh_feasible(cluster, step))
            points = np.stack(mesh, axis=1) * step  # (points, n - 1) tails T2..Tn
            assert points.size > 0
            tail = maximize_rates(cluster).tail
            assert (tail[1:] >= points - 1e-9 * p_max).all(), cluster


class TestConcavity:
    def test_spot_value(self):
        assert second_derivative_core(1.0, 2.0, 1.0) == pytest.approx(
            -7.0 / 36.0, rel=1e-9
        )

    def test_equal_gains_exactly_zero(self):
        assert second_derivative_core(2.0, 2.0, 0.7) == 0.0

    def test_negative_for_ascending_gains(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lo = float(np.exp(rng.uniform(-3, 3)))
            hi = lo * float(np.exp(rng.uniform(0.05, 3)))
            z = float(np.exp(rng.uniform(-3, 3)))
            assert second_derivative_core(lo, hi, z) < 0

    def test_probe_report(self):
        cluster = simple_cluster([0.5, 1.7, 4.0])
        report = probe_concavity(cluster, samples=500, rng=np.random.default_rng(8))
        assert report.ok
        assert report.samples == 500
        assert report.max_relative_mismatch <= 1e-4

    def test_probe_requires_strict_sorting(self):
        with pytest.raises(ValueError):
            probe_concavity(simple_cluster([1.0, 1.0]), samples=10)

    @pytest.mark.parametrize("samples", [0, -3, True, False, 2.5, 3.0, "5", None])
    def test_probe_rejects_bad_sample_counts(self, samples):
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            probe_concavity(simple_cluster([0.5, 1.7]), samples=samples)

    @pytest.mark.parametrize("samples", [1, np.int64(7)])
    def test_probe_accepts_integer_sample_counts(self, samples):
        report = probe_concavity(simple_cluster([0.5, 1.7]), samples=samples)
        assert report.ok and report.samples == samples


class TestArrayCores:
    """The batched SIC rate and objective cores against their one-cluster calls."""

    def test_front_padded_batch_matches_single_clusters(self):
        rng = np.random.default_rng(11)
        clusters = [random_feasible_cluster(rng, max_users=3) for _ in range(300)]
        powers = [rng.uniform(0.0, c.total_power, size=c.size) for c in clusters]
        batch_p = np.zeros((len(clusters), 3))
        batch_g = np.zeros((len(clusters), 3))
        for row, (c, p) in enumerate(zip(clusters, powers)):
            batch_p[row, 3 - c.size :] = p
            batch_g[row, 3 - c.size :] = c.normalized_gains
        bandwidth = np.array([c.bandwidth_hz for c in clusters])
        batch_t = tail_powers(batch_p)
        rates = power_opt._rates(batch_p, batch_g, bandwidth)
        objective = power_opt._objective(batch_t, batch_g, bandwidth)
        assert rates.shape == batch_t.shape == (len(clusters), 3)
        for row, (c, p) in enumerate(zip(clusters, powers)):
            assert np.array_equal(batch_t[row], tail_powers(batch_p[row]))
            assert np.array_equal(rates[row, 3 - c.size :], ordered_user_rates(p, c))
            assert not rates[row, : 3 - c.size].any()
            expected = cluster_objective(tail_powers(p), c)
            assert abs(objective[row] - expected) <= 1e-15 * abs(expected), row
