import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbiot_noma.clustering import (
    average_gains,
    build_clusters,
    cluster_mmtc,
    cluster_urllc,
)
from nbiot_noma.errors import CapacityExceededError, SingletonClusterError
from nbiot_noma.rate_model import structural_violations
from nbiot_noma.scenario import ScenarioConfig, generate_scenario

from conftest import make_scenario


def gains_row(value, s=4):
    return [value] * s


class TestAverageGain:
    def test_constant(self):
        sc = make_scenario([gains_row(3.5)], "m")
        assert average_gains(sc)[0] == 3.5

    def test_mean(self):
        sc = make_scenario([[1.0, 2.0, 3.0, 4.0]], "m")
        assert average_gains(sc)[0] == pytest.approx(2.5, rel=1e-15)

    def test_matches_independent_mean(self):
        sc = generate_scenario(ScenarioConfig(rng_seed=11))
        row = sc.gain_matrix[5]
        expected = sum(float(g) for g in row) / len(row)
        assert average_gains(sc)[5] == pytest.approx(expected, rel=1e-12)


def descending_scenario(kinds, s=2):
    """Row i has constant gain len-i, so sorted order equals id order."""
    n = len(kinds)
    return make_scenario([gains_row(float(n - i), s) for i in range(n)], kinds,
                         num_clusters=4)


class TestUrllcClustering:
    def test_u_less_than_c(self):
        sc = descending_scenario("uu" + "mm")
        partial = cluster_urllc(sc, 4)
        assert partial == [[0], [1], [], []]

    def test_round_robin_overflow(self):
        sc = make_scenario(
            [gains_row(float(9 - i)) for i in range(5)], "uuuuu",
            num_clusters=2, max_rank=3,
        )
        partial = cluster_urllc(sc, 2)
        assert partial == [[0, 2, 4], [1, 3]]

    def test_no_urllc(self):
        sc = descending_scenario("mm")
        assert cluster_urllc(sc, 2) == [[], []]

    def test_capacity_exceeded(self):
        sc = make_scenario([gains_row(1.0)] * 5, "uuuuu", num_clusters=2, max_rank=2)
        with pytest.raises(CapacityExceededError):
            cluster_urllc(sc, 2)

    def test_sorted_by_gain_not_id(self):
        # device 1 has the stronger average gain, so it takes cluster 0
        sc = make_scenario([gains_row(1.0), gains_row(5.0)], "uu", num_clusters=2)
        partial = cluster_urllc(sc, 2)
        assert partial == [[1], [0]]


class TestMmtcClustering:
    def test_fill_trace(self):
        sc = make_scenario(
            [gains_row(float(9 - i)) for i in range(4)], "mmmm",
            num_clusters=2, max_rank=2,
        )
        clusters = cluster_mmtc(sc, cluster_urllc(sc, 2))
        assert clusters == [[0, 2], [1, 3]]

    def test_forced_rank_two(self):
        sc = make_scenario(
            [gains_row(float(9 - i)) for i in range(4)], "uumm", num_clusters=2
        )
        clusters = cluster_mmtc(sc, cluster_urllc(sc, 2))
        assert clusters == [[0, 2], [1, 3]]

    def test_minimal_noma_pair(self):
        sc = make_scenario([gains_row(2.0), gains_row(1.0)], "um", num_clusters=1)
        clusters = cluster_mmtc(sc, cluster_urllc(sc, 1))
        assert clusters == [[0, 1]]

    def test_singleton_repair_moves_weakest_mmtc(self):
        # three URLLCs land [[u0, u2], [u1]]; the only mMTC first joins
        # cluster 0, then the repair moves it under u1
        sc = make_scenario(
            [gains_row(9.0), gains_row(8.0), gains_row(7.0), gains_row(1.0)],
            "uuum", num_clusters=2, max_rank=3,
        )
        clusters = cluster_mmtc(sc, cluster_urllc(sc, 2))
        assert clusters == [[0, 2], [1, 3]]
        assert structural_violations(sc, clusters) == []

    def test_empty_clusters_take_rank_one_first(self):
        # URLLCs open clusters 0 and 1; the two strongest mMTCs go to the
        # empty clusters 2 and 3 before any cluster gets a second member
        sc = descending_scenario("uu" + "mmmmmm")
        clusters = cluster_mmtc(sc, cluster_urllc(sc, 4))
        assert clusters == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_singleton_repair_takes_from_the_largest_donor(self):
        # the fill leaves [[0, 1, 2, 6], [3, 4, 7], [5]]; both full-enough
        # clusters could donate, and the four-member one does
        sc = make_scenario(
            [gains_row(float(9 - i)) for i in range(8)], "uuuuuumm",
            num_clusters=3, max_rank=4,
        )
        clusters = cluster_mmtc(sc, [[0, 1, 2], [3, 4], [5]])
        assert clusters == [[0, 1, 2], [3, 4, 7], [5, 6]]

    def test_unrepairable_singleton(self):
        sc = make_scenario(
            [gains_row(2.0), gains_row(1.0)], "mm", num_clusters=2, max_rank=2
        )
        with pytest.raises(SingletonClusterError):
            cluster_mmtc(sc, cluster_urllc(sc, 2))

    def test_capacity_exceeded(self):
        sc = make_scenario([gains_row(1.0)] * 4, "mmmm", num_clusters=1, max_rank=3)
        with pytest.raises(CapacityExceededError):
            cluster_mmtc(sc, cluster_urllc(sc, 1))


tiny_instances = st.tuples(
    st.integers(min_value=1, max_value=4),  # clusters
    st.integers(min_value=2, max_value=5),  # max rank
    st.floats(min_value=0.0, max_value=1.0),  # device-count fraction
    st.floats(min_value=0.0, max_value=1.0),  # urllc fraction
    st.integers(min_value=0, max_value=2**31),
)


class TestStructureProperties:
    @given(tiny_instances)
    @settings(max_examples=60, deadline=None)
    def test_output_is_always_valid(self, params):
        c, k_max, n_frac, u_frac, seed = params
        # stay in the regime where a valid clustering always exists
        total = 2 * c + round(n_frac * c * (k_max - 2))
        urllc = round(u_frac * total)
        cfg = dataclasses.replace(
            ScenarioConfig(),
            num_urllc=urllc,
            num_mmtc=total - urllc,
            num_clusters=c,
            max_rank=k_max,
            num_subcarriers=4,
            rng_seed=seed,
        )
        sc = generate_scenario(cfg)
        clusters = build_clusters(sc)
        assert structural_violations(sc, clusters) == []

    def test_urllc_all_rank_one_when_u_le_c(self):
        cfg = dataclasses.replace(
            ScenarioConfig(), num_urllc=3, num_mmtc=9, num_clusters=4, max_rank=3
        )
        sc = generate_scenario(cfg)
        clusters = build_clusters(sc)
        for members in clusters:
            for rank, dev in enumerate(members):
                if sc.is_urllc[dev]:
                    assert rank == 0

    def test_sorted_gain_dominance(self):
        cfg = dataclasses.replace(
            ScenarioConfig(), num_urllc=8, num_mmtc=24, num_clusters=8, rng_seed=3
        )
        sc = generate_scenario(cfg)
        clusters = build_clusters(sc)
        gains = sc.gain_matrix.mean(axis=1)
        for members in clusters:
            for kind in (True, False):
                ranked = [d for d in members if sc.is_urllc[d] == kind]
                assert all(
                    gains[a] >= gains[b] for a, b in zip(ranked, ranked[1:])
                )

    def test_placement_invariant_to_id_permutation(self):
        rng = np.random.default_rng(9)
        gains = rng.exponential(1.0, size=(8, 4))
        sc = make_scenario(gains, "uuummmmm", num_clusters=3, max_rank=3)
        perm_u = rng.permutation(3)
        perm_m = 3 + rng.permutation(5)
        permuted = make_scenario(
            gains[np.concatenate([perm_u, perm_m])], "uuummmmm",
            num_clusters=3, max_rank=3,
        )
        def placement_multiset(scenario):
            clusters = build_clusters(scenario)
            gains = average_gains(scenario)
            out = []
            for c, members in enumerate(clusters):
                for rank, dev in enumerate(members):
                    out.append((c, rank, round(float(gains[dev]), 12)))
            return sorted(out)

        assert placement_multiset(sc) == placement_multiset(permuted)
