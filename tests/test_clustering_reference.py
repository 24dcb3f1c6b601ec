"""The one-ordering clustering against its frozen reference.

``reference_clustering.py`` keeps the module as it stood before each
device class was ordered once.  On seeded random cells, a third of them
with tied average gains, ``build_clusters``, ``cluster_urllc`` at 0-8
clusters and ``cluster_mmtc`` on every partial that the reference URLLC
step produces must give equal lists, or raise the same exception type
with the same message.
"""

import numpy as np
import pytest

from nbiot_noma.clustering import build_clusters, cluster_mmtc, cluster_urllc
from nbiot_noma.scenario import Scenario, ScenarioConfig

from reference_clustering import (
    reference_build_clusters,
    reference_cluster_mmtc,
    reference_cluster_urllc,
)

CELLS = 3000
CHUNKS = 6


def random_cell(rng, tied: bool) -> Scenario:
    """1-24 devices of either class in any id order, 1-5 tones, 1-8
    clusters of depth 2-5.  Tied cells draw small integer gains, so many
    devices share an average gain exactly; the others spread gains over
    twelve decades."""
    n = int(rng.integers(1, 25))
    s = int(rng.integers(1, 6))
    if tied:
        gains = rng.integers(0, 3, size=(n, s)).astype(float)
    else:
        gains = rng.exponential(1.0, size=(n, s)) * 10.0 ** rng.uniform(-12, 0, size=(n, 1))
    is_urllc = rng.random(n) < rng.random()
    config = ScenarioConfig(
        num_urllc=int(is_urllc.sum()),
        num_mmtc=int(n - is_urllc.sum()),
        num_subcarriers=s,
        num_clusters=int(rng.integers(1, 9)),
        max_rank=int(rng.integers(2, 6)),
        subcarrier_bandwidth=1.0,
        rb_bandwidth=float(s),
        noise_psd=1.0,
    )
    return Scenario(
        config=config,
        gain_matrix=gains,
        rate_thresholds=np.zeros(n),
        power_budgets=np.ones(n),
        is_urllc=is_urllc,
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_matches_reference_on_random_cells(chunk):
    rng = np.random.default_rng(chunk)
    tied_cells = raised = 0
    for i in range(CELLS // CHUNKS):
        tied = i % 3 == 0
        tied_cells += tied
        sc = random_cell(rng, tied)
        expected = outcome(reference_build_clusters, sc)
        assert outcome(build_clusters, sc) == expected
        raised += isinstance(expected, tuple)
        for c in range(9):
            partial = outcome(reference_cluster_urllc, sc, c)
            assert outcome(cluster_urllc, sc, c) == partial
            if isinstance(partial, list):
                expected = outcome(reference_cluster_mmtc, sc, partial)
                assert outcome(cluster_mmtc, sc, partial) == expected
    assert 3 * tied_cells >= CELLS // CHUNKS
    assert 0 < raised < CELLS // CHUNKS
