"""The one-table SIC rate path against its per-cluster reference, bit for bit.

``reference_rate_model.py`` keeps ``rate_report``, ``sic_chain_mismatch``
and ``validate`` as they stood when each cluster gathered its own block
and ``validate`` checked one device at a time, and ``equal_split_powers``
as it stood when it looped over groups.  Rates, every report field, the
violation lists, order included, and the equal-split powers must be equal
exactly, on the benchmark cells and on hand-built extremes, with and
without injected constraint violations.  A negative or non-finite power
is the one place the two differ on purpose: ``rate_report`` raises
``InvalidPowerError`` where the reference raised a bare ``ValueError`` or
returned NaN rates.  The chain mismatch is a rounding diagnostic: the
per-cluster gather summed members in another order, so it may move by a
few ulps but both values must stay tiny.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbiot_noma.allocation import allocate
from nbiot_noma.baselines import half_tone_scenario, ofdma_allocate
from nbiot_noma.clustering import build_clusters
from nbiot_noma.errors import InvalidAssignmentError, InvalidPowerError
from nbiot_noma.rate_model import (
    _device_rates,
    _layout,
    cluster_of,
    equal_split_powers,
    rate_report,
    sic_chain_mismatch,
    sic_log_terms,
    structural_violations,
    validate,
)

from conftest import make_scenario
from reference_rate_model import (
    reference_equal_split_powers,
    reference_rate_report,
    reference_sic_chain_mismatch,
    reference_structural_violations,
    reference_validate,
)
from reference_rate_model import sic_log_terms as reference_sic_log_terms
from test_allocation_reference import CELLS, cell_scenario

SEEDS_PER_CELL = 20


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same_validate(scenario, clusters, owner, watts):
    violations = validate(scenario, clusters, owner, watts)
    assert violations == reference_validate(scenario, clusters, owner, watts)
    assert not any("np.float64(" in v.message for v in violations)


def assert_unknown_id_rejected(scenario, clusters, owner, watts, unknown):
    """Violation lists still match; ``rate_report`` names the first unknown id."""
    assert_same_validate(scenario, clusters, owner, watts)
    with pytest.raises(InvalidAssignmentError) as err:
        rate_report(scenario, clusters, owner, watts)
    message = f"assignment fails structural checks: C8/C9: unknown device id {unknown}"
    assert str(err.value) == message


def assert_same_rates(scenario, clusters, owner, watts):
    args = (scenario, clusters, owner, watts)
    assert_same_validate(*args)
    bad = np.argwhere(~((watts >= 0) & (watts < np.inf)))
    if bad.size:
        # The reference raised a bare ValueError from the fairness index or
        # returned NaN rates; rate_report names the first bad power instead.
        d, s = bad[0]
        with pytest.raises(InvalidPowerError) as err:
            rate_report(*args)
        assert str(err.value) == f"device {d} has power {float(watts[d, s])!r} W on subcarrier {s}"
        return
    new = rate_report(*args)
    ref = reference_rate_report(*args)
    assert np.array_equal(new.rates, ref.rates)
    assert new.sum_rate == ref.sum_rate
    assert same(new.fairness, ref.fairness)
    assert np.array_equal(new.satisfied, ref.satisfied)
    assert new.satisfied_count == ref.satisfied_count
    chain = sic_chain_mismatch(*args)
    ref_chain = reference_sic_chain_mismatch(*args)
    assert abs(chain - ref_chain) <= 1e-15
    assert chain <= 1e-9 and ref_chain <= 1e-9


def injected(scenario, clusters, owner, watts, rng):
    """Copies of the allocation with off-cluster and over-budget powers,
    with a negative power, and with invalid owner ids."""
    num_d, num_s = watts.shape
    bad_watts = watts.copy()
    for dev in rng.choice(num_d, size=3, replace=False):
        bad_watts[dev, rng.integers(num_s)] += scenario.power_budgets[dev]
    yield owner, bad_watts
    bad_watts = watts.copy()
    bad_watts[rng.integers(num_d), rng.integers(num_s)] = -1e-3
    yield owner, bad_watts
    bad_owner = owner.copy()
    bad_owner[rng.integers(num_s)] = len(clusters)
    bad_owner[rng.integers(num_s)] = -2
    yield bad_owner, watts


def edge_cases(scenario, clusters, owner, watts):
    """(check, clusters, owner, watts): a device listed in two clusters, ids
    -1, n and both inside a cluster, a URLLC row holding inf, and an mMTC row
    and a URLLC row holding NaN.  ``rate_report`` rejects the out-of-range
    ids by name, so they have no rates to compare."""
    first = int(owner[0])
    dev = clusters[first][0]
    twice = [*clusters]
    twice[first - 1] = clusters[first - 1] + [dev]
    yield assert_same_rates, twice, owner, watts
    for ids in ([-1], [scenario.num_devices], [-1, scenario.num_devices]):
        odd_ids = [*clusters]
        odd_ids[first] = clusters[first] + ids
        check = partial(assert_unknown_id_rejected, unknown=ids[0])
        yield check, odd_ids, owner, watts
    urllc = next(d for d in np.flatnonzero(scenario.is_urllc).tolist() if watts[d].any())
    mmtc = next(d for d in np.flatnonzero(~scenario.is_urllc).tolist() if watts[d].any())
    for value, devs in ((math.inf, [urllc]), (math.nan, [mmtc, urllc])):
        bad_watts = watts.copy()
        for d in devs:
            bad_watts[d, np.flatnonzero(watts[d])[0]] = value
        yield assert_same_rates, clusters, owner, bad_watts


def received_powers(rng, shape):
    """Received powers over 24 decades, with some exact zeros and ties."""
    power = 10.0 ** rng.uniform(-20, 4, shape)
    power[rng.random(shape) < 0.1] = 0.0
    power[rng.random(shape) < 0.1] = 1.0
    return power


@pytest.mark.parametrize("depth", range(1, 9))
def test_sic_log_terms_match_frozen_copy(depth):
    # The one-buffer running sum must give the cumsum-based terms bit for
    # bit: on (K, S) rows, on the transposed (K, C, S) view that the
    # greedy's build_rows passes, and on zero-width input.
    rng = np.random.default_rng(depth)
    for noise in (1e-20, 1.4e-15, 1.0):
        flat = received_powers(rng, (depth, 17))
        stacked = received_powers(rng, (5, depth, 13)).transpose(1, 0, 2)
        for received in (flat, stacked, np.zeros((depth, 0))):
            new = sic_log_terms(received, noise)
            ref = reference_sic_log_terms(received, noise)
            assert new.shape == ref.shape
            assert np.array_equal(new, ref)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_bench_cells_match_reference(cell):
    rng = np.random.default_rng(0)
    for seed in range(SEEDS_PER_CELL):
        sc = cell_scenario(cell, seed)
        clusters = build_clusters(sc)
        owner, watts, _ = allocate(sc, clusters)
        assert_same_rates(sc, clusters, owner, watts)
        for bad_owner, bad_watts in injected(sc, clusters, owner, watts, rng):
            assert_same_rates(sc, clusters, bad_owner, bad_watts)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_edge_cases_match_reference(cell):
    for seed in range(SEEDS_PER_CELL):
        sc = cell_scenario(cell, seed)
        clusters = build_clusters(sc)
        owner, watts, _ = allocate(sc, clusters)
        for check, *args in edge_cases(sc, clusters, owner, watts):
            check(sc, *args)


def broken_clusterings(scenario, clusters):
    """Copies of ``clusters`` that break each structural rule: a device
    listed twice, ids -1 and n, a singleton, a cluster over max_rank, a
    URLLC ranked below an mMTC, and a device left out."""
    n, k_max = scenario.num_devices, scenario.config.max_rank
    yield [*clusters[:-1], clusters[-1] + [clusters[0][0]]]
    for ids in ([-1], [n], [-1, n]):
        yield [clusters[0] + ids, *clusters[1:]]
    yield [clusters[0][:1], clusters[0][1:], *clusters[1:]]
    merged, rest = list(clusters[0]), list(clusters[1:])
    while len(merged) <= k_max:
        merged += rest.pop(0)
    yield [merged, *rest]
    mixed = next(c for c, m in enumerate(clusters)
                 if len({bool(scenario.is_urllc[d]) for d in m}) == 2)
    yield [*clusters[:mixed], clusters[mixed][::-1], *clusters[mixed + 1 :]]
    yield [clusters[0][1:], *clusters[1:]]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_structural_violations_match_reference(cell):
    for seed in range(SEEDS_PER_CELL):
        sc = cell_scenario(cell, seed)
        clusters = build_clusters(sc)
        assert structural_violations(sc, clusters) == []
        messages = []
        for broken in broken_clusterings(sc, clusters):
            violations = structural_violations(sc, broken)
            assert violations == reference_structural_violations(sc, broken)
            messages += [v.message for v in violations]
        for phrase in ("appears in clusters", "unknown device id", "single member",
                       "max_rank is", "ranks below an mMTC", "is in no cluster"):
            assert any(phrase in m for m in messages), phrase


def owned_tones(owner, groups):
    return [np.flatnonzero(owner == g) for g in range(groups)]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_equal_split_matches_reference(cell):
    """NOMA clusters, OFDMA singletons and OFDMA on the half-tone cell."""
    for seed in range(SEEDS_PER_CELL):
        sc = cell_scenario(cell, seed)
        clusters = build_clusters(sc)
        owner, _, _ = allocate(sc, clusters)
        new = equal_split_powers(sc, cluster_of(clusters, sc.num_devices), owner)
        ref = reference_equal_split_powers(
            sc, clusters, owned_tones(owner, len(clusters))
        )
        assert np.array_equal(new, ref)
        for cell_sc in (sc, half_tone_scenario(sc)):
            n = cell_sc.num_devices
            owner = ofdma_allocate(cell_sc)[0]
            new = equal_split_powers(cell_sc, np.arange(n), owner)
            ref = reference_equal_split_powers(
                cell_sc, [[d] for d in range(n)], owned_tones(owner, n)
            )
            assert np.array_equal(new, ref)


def test_batched_rates_match_one_report_per_allocation():
    """B allocations of one cell, each on its own clustering, in one call of
    the batched rate core and its equal-split rule: row b equals what
    ``equal_split_powers`` and ``rate_report`` give allocation b alone, bit
    for bit.  Allocation 0's cluster 0 owns ten tones, past the eight at
    which numpy sums in lanes."""
    rng = np.random.default_rng(12)
    n, num_s, num_c, batch = 12, 16, 4, 6
    kinds = "uu" + "m" * (n - 2)
    sc = make_scenario(rng.exponential(1.0, size=(n, num_s)), kinds,
                       num_clusters=num_c, max_rank=n)
    clusterings, owners = [], rng.integers(-1, num_c, size=(batch, num_s))
    owners[0, :10] = 0
    for _ in range(batch):
        cuts = np.sort(rng.choice(np.arange(1, n), num_c - 1, replace=False))
        parts = np.split(rng.permutation(n), cuts)
        clusterings.append([sorted(p.tolist(), key=lambda d: kinds[d] != "u") for p in parts])
    depth = max(len(members) for clusters in clusterings for members in clusters)
    tables = np.stack([
        np.pad(table, ((0, 0), (0, depth - table.shape[1])), constant_values=n)
        for table in (_layout(clusters, n)[0] for clusters in clusterings)
    ])
    group_of = np.stack([cluster_of(clusters, n) for clusters in clusterings])
    watts = equal_split_powers(sc, group_of, owners)
    rates = _device_rates(sc, tables, owners, watts)
    assert rates.shape == (batch, n)
    for clusters, owner, power, row in zip(clusterings, owners, watts, rates):
        assert np.array_equal(power, equal_split_powers(sc, cluster_of(clusters, n), owner))
        assert np.array_equal(row, rate_report(sc, clusters, owner, power).rates)


# Zero-gain tones and gains across 60 decades, log-uniform.
extreme_gains = st.one_of(st.just(0.0), st.floats(-30.0, 30.0).map(lambda e: 10.0**e))


@st.composite
def extreme_allocations(draw):
    """A hand-built cell with extreme gains, clusters that may be empty or
    own no tones, unowned tones, and powers that may be zero, off-cluster
    or over budget."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
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
    gains = draw(st.lists(st.lists(extreme_gains, min_size=num_s, max_size=num_s),
                          min_size=n, max_size=n))
    owner = draw(st.lists(st.integers(-1, len(sizes) - 1), min_size=num_s,
                          max_size=num_s))
    power = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    watts = draw(st.lists(st.lists(power, min_size=num_s, max_size=num_s),
                          min_size=n, max_size=n))
    noise = draw(st.floats(1e-20, 1.0))
    sc = make_scenario(gains, kinds, noise_psd=noise, num_clusters=len(sizes),
                       max_rank=max(max(sizes), 2))
    return (
        sc,
        clusters,
        np.array(owner),
        np.array(watts, dtype=float).reshape(n, num_s),
    )


@given(extreme_allocations())
@settings(max_examples=200, deadline=None)
def test_extreme_instances_match_reference(instance):
    assert_same_rates(*instance)
