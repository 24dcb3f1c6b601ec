"""The one-table SIC rate path against its per-cluster reference, bit for bit.

``reference_rate_model.py`` keeps ``rate_report``, ``sic_chain_mismatch``
and ``validate`` as they stood when each cluster gathered its own block.
Rates, every report field and the violation lists, order included, must
be equal exactly, on the benchmark cells and on hand-built extremes, with
and without injected constraint violations.  The chain mismatch is a
rounding diagnostic: the per-cluster gather summed members in another
order, so it may move by a few ulps but both values must stay tiny.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbiot_noma.allocation import allocate
from nbiot_noma.clustering import build_clusters
from nbiot_noma.rate_model import (
    ClusterAssignment,
    PowerMatrix,
    SubcarrierMap,
    rate_report,
    sic_chain_mismatch,
    validate,
)

from conftest import make_scenario
from reference_rate_model import (
    reference_rate_report,
    reference_sic_chain_mismatch,
    reference_validate,
)
from test_allocation_reference import CELLS, cell_scenario

SEEDS_PER_CELL = 20


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def report_or_error(report_fn, *args):
    """The report, or the ValueError's text when a negative power gave a
    negative rate that the fairness index rejects."""
    try:
        return report_fn(*args)
    except ValueError as exc:
        return str(exc)


def assert_same_rates(scenario, assignment, sub_map, powers):
    args = (scenario, assignment, sub_map, powers)
    new = report_or_error(rate_report, *args)
    ref = report_or_error(reference_rate_report, *args)
    if isinstance(ref, str):
        assert new == ref
    else:
        # A negative power can give a NaN rate; it must be NaN in both.
        assert np.array_equal(new.rates, ref.rates, equal_nan=True)
        assert same(new.sum_rate, ref.sum_rate)
        assert same(new.fairness, ref.fairness)
        assert np.array_equal(new.satisfied, ref.satisfied)
        assert new.satisfied_count == ref.satisfied_count
    assert validate(assignment, sub_map, powers, scenario) == reference_validate(
        assignment, sub_map, powers, scenario
    )
    if np.any(powers.watts < 0):
        # A negative power can make a tone's chain NaN.  The reference's
        # Python max() skipped NaN clusters; the table propagates them.
        return
    chain = sic_chain_mismatch(scenario, assignment, sub_map, powers)
    ref_chain = reference_sic_chain_mismatch(scenario, assignment, sub_map, powers)
    assert abs(chain - ref_chain) <= 1e-15
    assert chain <= 1e-9 and ref_chain <= 1e-9


def injected(scenario, assignment, sub_map, powers, rng):
    """Copies of the allocation with off-cluster and over-budget powers,
    with a negative power, and with invalid owner ids."""
    num_d, num_s = powers.watts.shape
    watts = powers.watts.copy()
    for dev in rng.choice(num_d, size=3, replace=False):
        watts[dev, rng.integers(num_s)] += scenario.power_budgets[dev]
    yield sub_map, PowerMatrix(watts=watts)
    watts = powers.watts.copy()
    watts[rng.integers(num_d), rng.integers(num_s)] = -1e-3
    yield sub_map, PowerMatrix(watts=watts)
    owner = sub_map.owner.copy()
    owner[rng.integers(num_s)] = assignment.num_clusters
    owner[rng.integers(num_s)] = -2
    yield SubcarrierMap(owner=owner), powers


@pytest.mark.filterwarnings("ignore:invalid value encountered in log1p")
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_bench_cells_match_reference(cell):
    rng = np.random.default_rng(0)
    for seed in range(SEEDS_PER_CELL):
        sc = cell_scenario(cell, seed)
        assignment = build_clusters(sc)
        sub_map, powers, _ = allocate(sc, assignment)
        assert_same_rates(sc, assignment, sub_map, powers)
        for bad_map, bad_powers in injected(sc, assignment, sub_map, powers, rng):
            assert_same_rates(sc, assignment, bad_map, bad_powers)


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
        ClusterAssignment(clusters=clusters),
        SubcarrierMap(owner=np.array(owner)),
        PowerMatrix(watts=np.array(watts, dtype=float).reshape(n, num_s)),
    )


@given(extreme_allocations())
@settings(max_examples=200, deadline=None)
def test_extreme_instances_match_reference(instance):
    assert_same_rates(*instance)
