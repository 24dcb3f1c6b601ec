import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbiot_noma.allocation import allocate
from nbiot_noma.clustering import build_clusters
from nbiot_noma.errors import InvalidAssignmentError, NonFiniteRateError
from nbiot_noma.rate_model import (
    cluster_of,
    equal_split_powers,
    validate,
)
from nbiot_noma.scenario import ScenarioConfig, generate_scenario

from conftest import make_scenario


class TestEqualSplit:
    def test_four_tones(self):
        sc = make_scenario([[1.0] * 4], "m", budgets=[0.2], max_rank=2)
        watts = equal_split_powers(sc, np.array([0]), np.array([0, 0, 0, 0]))
        assert np.allclose(watts[0], 0.05, rtol=1e-15)

    def test_single_tone(self):
        sc = make_scenario([[1.0] * 4], "m", budgets=[0.2], max_rank=2)
        watts = equal_split_powers(sc, np.array([0]), np.array([-1, -1, 0, -1]))
        assert watts[0, 2] == 0.2
        assert watts[0].sum() == 0.2

    def test_adding_fifth_tone_conserves_budget(self):
        sc = make_scenario([[1.0] * 5], "m", budgets=[0.2], max_rank=2)
        first = equal_split_powers(sc, np.array([0]), np.array([0, 0, 0, 0, -1]))
        second = equal_split_powers(sc, np.array([0]), np.zeros(5, dtype=int))
        assert np.allclose(first[0, :4], 0.05, rtol=1e-15)
        assert np.allclose(second[0], 0.04, rtol=1e-15)
        assert second[0].sum() == pytest.approx(0.2, rel=1e-12)


class TestAllocate:
    def test_single_cluster_gets_everything(self):
        sc = make_scenario(
            np.arange(1, 9).reshape(2, 4).astype(float), "mm",
            budgets=[0.2, 0.4], thresholds=[5.0, 5.0],
        )
        clusters = [[0, 1]]
        owner, watts, report = allocate(sc, clusters)
        assert np.all(owner == 0)
        assert np.allclose(watts[0], 0.05)
        assert np.allclose(watts[1], 0.1)

    def test_crossed_gains_split(self):
        # cluster 0 dominates tone 0, cluster 1 dominates tone 1; zero
        # thresholds push everything through the throughput argmax
        gains = [
            [10.0, 1.0],
            [5.0, 0.5],
            [1.0, 10.0],
            [0.5, 5.0],
        ]
        sc = make_scenario(gains, "mmmm", num_clusters=2)
        clusters = [[0, 1], [2, 3]]
        owner, _, _ = allocate(sc, clusters)
        assert owner[0] == 0
        assert owner[1] == 1

    def test_unreachable_thresholds_terminate(self):
        sc = make_scenario(
            [[1.0, 1.0], [1.0, 1.0]], "mm", thresholds=[1e9, 1e9]
        )
        clusters = [[0, 1]]
        owner, _, report = allocate(sc, clusters)
        assert np.all(owner == 0)  # spectrum exhausted, no error
        assert report.satisfied_count < 2

    @pytest.mark.parametrize("thresholds", [None, [1e9] * 4])
    @pytest.mark.parametrize(
        "gain, budget", [(np.nan, 1.0), (1.0, np.inf)], ids=["nan_gain", "inf_budget"]
    )
    def test_non_finite_candidate_raises_named_error(self, thresholds, gain, budget):
        # a NaN candidate must stop the loop with a named error instead of
        # losing every comparison and crashing later.  Scenario rejects such
        # a device, so the value is written into the built scenario's arrays
        # to reach allocate's own guard.
        gains = [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]
        sc = make_scenario(gains, "mmmm", thresholds=thresholds, num_clusters=2)
        sc.gain_matrix[0, 0] = gain
        sc.power_budgets[0] = budget
        clusters = [[0, 1], [2, 3]]
        with pytest.raises(NonFiniteRateError, match="subcarrier 0: cluster 0"):
            allocate(sc, clusters)

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    @pytest.mark.parametrize("thresholds", [None, [1e9] * 4])
    def test_overflowing_candidate_raises_named_error(self, thresholds):
        # a candidate that overflows to inf (1e300 gain x 1e10 W, both
        # finite, so Scenario accepts them) must stop the loop with a named
        # error instead of winning every comparison
        gains = [[1e300, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]
        sc = make_scenario(
            gains, "mmmm", thresholds=thresholds, budgets=[1e10, 1.0, 1.0, 1.0],
            num_clusters=2,
        )
        clusters = [[0, 1], [2, 3]]
        with pytest.raises(NonFiniteRateError, match="subcarrier 0: cluster 0"):
            allocate(sc, clusters)

    def test_invalid_assignment_rejected(self):
        sc = make_scenario([[1.0], [1.0]], "mm")
        with pytest.raises(InvalidAssignmentError):
            allocate(sc, [[0]])

    def test_every_tone_assigned_once(self):
        cfg = dataclasses.replace(
            ScenarioConfig(), num_urllc=4, num_mmtc=12, num_clusters=4, rng_seed=21
        )
        sc = generate_scenario(cfg)
        steps = []
        owner, _, _ = allocate(
            sc, build_clusters(sc), on_step=lambda s, c, sat, phase: steps.append(s)
        )
        assert steps == list(range(cfg.num_subcarriers))
        assert np.all(owner >= 0)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_output_satisfies_all_constraints(self, seed):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            num_urllc=3,
            num_mmtc=9,
            num_clusters=3,
            num_subcarriers=8,
            rb_bandwidth=8 * 3750.0,
            rng_seed=seed,
        )
        sc = generate_scenario(cfg)
        clusters = build_clusters(sc)
        owner, watts, report = allocate(sc, clusters)
        assert validate(sc, clusters, owner, watts) == []
        row_sums = watts.sum(axis=1)
        has_spectrum = np.isin(cluster_of(clusters, sc.num_devices), owner)
        assert row_sums[has_spectrum] == pytest.approx(
            sc.power_budgets[has_spectrum], rel=1e-12
        )

    def test_argmax_matches_independent_replay(self):
        # replay every step: rebuild the hypothetical allocation from
        # scratch for each candidate cluster and confirm the loop picked
        # the total-sum-rate argmax (phase 1 restricted to clusters with
        # an unsatisfied member)
        from nbiot_noma.rate_model import rate_report

        cfg = dataclasses.replace(
            ScenarioConfig(),
            num_urllc=2,
            num_mmtc=6,
            num_clusters=2,
            num_subcarriers=6,
            rb_bandwidth=6 * 3750.0,
            rng_seed=13,
        )
        sc = generate_scenario(cfg)
        clusters = build_clusters(sc)
        steps = []
        allocate(sc, clusters, on_step=lambda s, c, sat, ph: steps.append((s, c, ph)))

        def snapshot(owned):
            owner = np.full(cfg.num_subcarriers, -1, dtype=int)
            watts = np.zeros((sc.num_devices, cfg.num_subcarriers))
            for c, tones in enumerate(owned):
                owner[tones] = c
                for dev in clusters[c]:
                    if tones:
                        watts[dev, tones] = sc.power_budgets[dev] / len(tones)
            return rate_report(sc, clusters, owner, watts)

        owned = [[] for _ in range(cfg.num_clusters)]
        for s, chosen, phase in steps:
            current = snapshot(owned)
            cands = [
                c
                for c in range(cfg.num_clusters)
                if clusters[c]
                and (
                    phase == 2
                    or not all(current.satisfied[d] for d in clusters[c])
                )
            ]
            scores = []
            for c in cands:
                trial = [list(t) for t in owned]
                trial[c].append(s)
                scores.append(snapshot(trial).sum_rate)
            assert chosen == cands[int(np.argmax(scores))]
            owned[chosen].append(s)

    def test_coverage_shrink_is_logged_not_fatal(self):
        # power dilution can momentarily unsatisfy a member; the contract
        # is to record such events, not to hide or flag them as errors
        shrink_events = []
        for seed in range(6):
            cfg = dataclasses.replace(
                ScenarioConfig(),
                num_urllc=4,
                num_mmtc=12,
                num_clusters=4,
                rng_seed=seed,
            )
            sc = generate_scenario(cfg)
            covered = [set()]

            def watch(s, c, mask, phase):
                now = set(np.flatnonzero(mask))
                lost = covered[0] - now
                if lost:
                    shrink_events.append((seed, s, sorted(lost)))
                covered[0] = now

            allocate(sc, build_clusters(sc), on_step=watch)
        if shrink_events:
            warnings.warn(
                f"satisfied-set shrank in {len(shrink_events)} steps "
                "(equal-split power dilution)",
                stacklevel=1,
            )
