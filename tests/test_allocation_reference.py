"""The incremental allocators against their slow references, bit for bit.

``reference_allocation.py`` keeps the greedy loop and the OFDMA loop as
they stood before the incremental rewrite.  Both versions must give the
same subcarrier map, power matrix, rates and ``on_step`` sequence, with
exact array equality, on the benchmark cells and on small hand-built
instances.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbiot_noma.allocation import allocate
from nbiot_noma.baselines import fast_ofdm_allocate, ofdma_allocate
from nbiot_noma.clustering import build_clusters
from nbiot_noma.harness import ExperimentSpec, trial_config
from nbiot_noma.scenario import generate_scenario, read_config_file

from conftest import make_scenario
from reference_allocation import (
    reference_allocate,
    reference_fast_ofdm_allocate,
    reference_ofdma_allocate,
)
from reference_rate_model import sic_member_rates

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS_PER_CELL = 20

# (sweep variable, sweep value, overrides): k_max 2/4/8 on the standard
# cell, and the connectivity cell (k_max 2, 100 bps thresholds) at 60 and
# 96 devices.
CONNECTIVITY = {
    "max_rank": 2,
    "urllc_rate_threshold_range": (100.0, 100.0),
    "mmtc_rate_threshold_range": (100.0, 100.0),
}
CELLS = {
    "kmax2": ("k_max", 2, {}),
    "kmax4": ("k_max", 4, {}),
    "kmax8": ("k_max", 8, {}),
    "conn60": ("total_devices", 60, CONNECTIVITY),
    "conn96": ("total_devices", 96, CONNECTIVITY),
}


def cell_scenario(cell: str, seed: int):
    variable, value, overrides = CELLS[cell]
    base = replace(read_config_file(CONFIGS / "cell_default.cfg"), **overrides)
    spec = ExperimentSpec(
        base_config=base, sweep_variable=variable, sweep_values=(value,), trials=1
    )
    return generate_scenario(trial_config(spec, value, seed))


def assert_same_allocation(scenario, clusters):
    ref_steps, new_steps = [], []
    ref = reference_allocate(scenario, clusters, on_step=lambda *a: ref_steps.append(a))
    new = allocate(scenario, clusters, on_step=lambda *a: new_steps.append(a))
    assert np.array_equal(new[0], ref[0])
    assert np.array_equal(new[1], ref[1])
    assert np.array_equal(new[2].rates, ref[2].rates)
    assert [(s, c, phase) for s, c, _, phase in new_steps] == [
        (s, c, phase) for s, c, _, phase in ref_steps
    ]
    for (_, _, new_mask, _), (_, _, ref_mask, _) in zip(new_steps, ref_steps):
        assert np.array_equal(new_mask, ref_mask)


def assert_same_oma(new, ref):
    assert np.array_equal(new[0], ref[0])
    assert np.array_equal(new[1], ref[1])
    assert np.array_equal(new[2].rates, ref[2].rates)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_bench_cells_match_reference(cell):
    for seed in range(SEEDS_PER_CELL):
        sc = cell_scenario(cell, seed)
        assert_same_allocation(sc, build_clusters(sc))
        assert_same_oma(ofdma_allocate(sc), reference_ofdma_allocate(sc))
        assert_same_oma(fast_ofdm_allocate(sc), reference_fast_ofdm_allocate(sc))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_result_does_not_depend_on_the_hook(cell):
    # Only a hooked run keeps the per-device rates that the satisfied mask
    # reads; the map, powers and report must not depend on it.
    for seed in range(SEEDS_PER_CELL):
        sc = cell_scenario(cell, seed)
        clusters = build_clusters(sc)
        steps = []
        bare = allocate(sc, clusters)
        hooked = allocate(sc, clusters, on_step=lambda *a: steps.append(a))
        assert len(steps) == sc.config.num_subcarriers
        assert np.array_equal(bare[0], hooked[0])
        assert np.array_equal(bare[1], hooked[1])
        for field in ("rates", "sum_rate", "fairness", "satisfied", "satisfied_count"):
            assert np.array_equal(getattr(bare[2], field), getattr(hooked[2], field))


@st.composite
def small_instances(draw):
    """A hand-built cell with some zero gains, a valid rank-ordered
    clustering that may hold empty clusters, and thresholds that are all
    zero (phase 2 only), unreachable (phase 1 exhausts the spectrum) or
    drawn in between, zero included."""
    sizes = draw(st.lists(st.sampled_from([0, 2, 3]), min_size=1, max_size=4))
    if not any(sizes):
        sizes[0] = 2
    n = sum(sizes)
    num_s = draw(st.integers(1, 6))
    num_urllc = draw(st.integers(0, n))
    kinds = "u" * num_urllc + "m" * (n - num_urllc)
    order = draw(st.permutations(range(n)))
    clusters, start = [], 0
    for size in sizes:
        members = list(order[start : start + size])
        start += size
        clusters.append(sorted(members, key=lambda d: kinds[d] != "u"))
    gain = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    gains = draw(st.lists(st.lists(gain, min_size=num_s, max_size=num_s),
                          min_size=n, max_size=n))
    budgets = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    mode = draw(st.sampled_from(["zero", "unreachable", "drawn"]))
    if mode == "zero":
        thresholds = [0.0] * n
    elif mode == "unreachable":
        thresholds = [1e12] * n
    else:
        threshold = st.one_of(st.just(0.0), st.floats(0.0, 20.0))
        thresholds = draw(st.lists(threshold, min_size=n, max_size=n))
    sc = make_scenario(
        gains, kinds, thresholds=thresholds, budgets=budgets,
        num_clusters=len(sizes), max_rank=max(max(sizes), 2),
    )
    return sc, clusters


@given(small_instances())
@settings(max_examples=200, deadline=None)
def test_small_instances_match_reference(instance):
    sc, clusters = instance
    assert_same_allocation(sc, clusters)
    assert_same_oma(ofdma_allocate(sc), reference_ofdma_allocate(sc))
    assert_same_oma(fast_ofdm_allocate(sc), reference_fast_ofdm_allocate(sc))


@pytest.mark.parametrize("thresholds", [None, [1e9] * 4])
def test_exact_ties_go_to_the_first_cluster(thresholds):
    # two identical clusters tie whenever they own equally many tones
    sc = make_scenario(np.ones((4, 4)), "mmmm", thresholds=thresholds, num_clusters=2)
    clusters = [[0, 1], [2, 3]]
    assert_same_allocation(sc, clusters)
    assert list(allocate(sc, clusters)[0]) == [0, 1, 0, 1]


def test_cluster_deep_in_phase_one_matches_reference():
    # One cluster must own 9 strong tones before both members meet their
    # thresholds, so phase 2 opens on a cluster whose per-member log terms
    # numpy sums in 8 lanes, where a strided sum rounds differently.  Tone 9
    # is weak, so taking it lowers both rates; the thresholds sit exactly on
    # (member 0) and one ulp above (member 1) the rates at 10 tones, so the
    # satisfied mask of that commit shows the last bit of both rates.
    gains = np.full((2, 10), 1e-3)
    gains[:, :9] = np.random.default_rng(9).uniform(50.0, 200.0, (2, 9))
    at_ten = sic_member_rates(gains, np.full(gains.shape, 1.0 / 10), 1.0, 1.0)
    thresholds = [at_ten[0], np.nextafter(at_ten[1], np.inf)]
    sc = make_scenario(gains, "um", thresholds=thresholds)
    clusters = [[0, 1]]
    assert_same_allocation(sc, clusters)
    steps = []
    allocate(sc, clusters, on_step=lambda *a: steps.append(a))
    assert [phase for _, _, _, phase in steps] == [1] * 9 + [2]
    assert list(steps[-1][2]) == [True, False]


def test_rate_exactly_on_threshold_closes_the_cluster():
    # Both members reach exactly their thresholds on the first tone, so that
    # commit closes the cluster and the second tone goes out in phase 2.
    gains = np.array([[3.0, 1.0], [2.0, 1.0]])
    thresholds = sic_member_rates(gains[:, :1], np.ones((2, 1)), 1.0, 1.0)
    sc = make_scenario(gains, "mm", thresholds=thresholds)
    clusters = [[0, 1]]
    assert_same_allocation(sc, clusters)
    steps = []
    allocate(sc, clusters, on_step=lambda *a: steps.append(a))
    assert [phase for _, _, _, phase in steps] == [1, 2]
    assert list(steps[0][2]) == [True, True]


@st.composite
def wide_instances(draw):
    """Like ``small_instances`` but wider: up to 24 tones and 8 clusters of
    0, 2, 3 or 4 members, with gains that often tie exactly."""
    sizes = draw(st.lists(st.sampled_from([0, 2, 3, 4]), min_size=1, max_size=8))
    if not any(sizes):
        sizes[0] = 2
    n = sum(sizes)
    num_s = draw(st.integers(1, 24))
    num_urllc = draw(st.integers(0, n))
    kinds = "u" * num_urllc + "m" * (n - num_urllc)
    order = draw(st.permutations(range(n)))
    clusters, start = [], 0
    for size in sizes:
        clusters.append(sorted(order[start : start + size], key=lambda d: kinds[d] != "u"))
        start += size
    gain = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 1e3))
    gains = draw(st.lists(st.lists(gain, min_size=num_s, max_size=num_s),
                          min_size=n, max_size=n))
    budgets = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    threshold = st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.just(1e12))
    thresholds = draw(st.one_of(
        st.just([0.0] * n),
        st.just([1e12] * n),
        st.lists(threshold, min_size=n, max_size=n),
    ))
    sc = make_scenario(
        gains, kinds, thresholds=thresholds, budgets=budgets,
        num_clusters=len(sizes), max_rank=max(max(sizes), 2),
    )
    return sc, clusters


@given(wide_instances())
@settings(max_examples=200, deadline=None)
def test_wide_instances_match_reference(instance):
    sc, clusters = instance
    assert_same_allocation(sc, clusters)
    assert_same_oma(ofdma_allocate(sc), reference_ofdma_allocate(sc))
    assert_same_oma(fast_ofdm_allocate(sc), reference_fast_ofdm_allocate(sc))


@pytest.mark.parametrize(
    "gains, thresholds, owners",
    [
        # device 1 starts satisfied, so the tie among 1, 2, 3 on tones 1-3
        # goes to 2, the lowest unsatisfied id
        (np.ones((4, 4)), [1e-3, 0.0, 1e9, 1e9], [0, 2, 2, 2]),
        # once everyone is satisfied, the tie among 1, 2, 3 goes to 1
        ([[1, .5, .5, .5], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]],
         [1e-3, 0.0, 0.0, 0.0], [0, 1, 1, 1]),
    ],
)
def test_ofdma_exact_ties_go_to_the_lowest_device(gains, thresholds, owners):
    sc = make_scenario(gains, "mmmm", thresholds=thresholds, num_clusters=2)
    assert_same_oma(ofdma_allocate(sc), reference_ofdma_allocate(sc))
    assert_same_oma(fast_ofdm_allocate(sc), reference_fast_ofdm_allocate(sc))
    assert list(ofdma_allocate(sc)[0]) == owners


def test_ofdma_device_that_falls_short_rejoins_the_pool():
    # Here device 1 meets its threshold on tone 0 (log2(1001) bps), takes the weak
    # tone 1 as the overall best gain, drops to about 8.98 bps, and so must
    # take tone 2 as the only unsatisfied device despite device 0's gain.
    sc = make_scenario([[1.0, 0.005, 5.0], [1000.0, 0.01, 0.01]], "mm",
                       thresholds=[0.0, 9.5])
    assert_same_oma(ofdma_allocate(sc), reference_ofdma_allocate(sc))
    assert list(ofdma_allocate(sc)[0]) == [1, 1, 1]
