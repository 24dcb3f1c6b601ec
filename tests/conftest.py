import numpy as np
import pytest

from nbiot_noma.scenario import Scenario, ScenarioConfig
from nbiot_noma.selfcheck import random_feasible_cluster


def make_scenario(
    gains,
    kinds,
    *,
    thresholds=None,
    budgets=None,
    tone_bandwidth=1.0,
    noise_psd=1.0,
    num_clusters=1,
    max_rank=None,
    rng_seed=0,
):
    """Hand-built scenario with explicit gains; noise N0*W defaults to 1 W.

    ``gains`` is (devices, subcarriers); ``kinds`` a string of 'u'/'m'
    characters, URLLC ids first.
    """
    gains = np.asarray(gains, dtype=float)
    n, s = gains.shape
    assert len(kinds) == n and "".join(sorted(kinds, reverse=True)) == kinds
    num_urllc = kinds.count("u")
    thresholds = [0.0] * n if thresholds is None else list(thresholds)
    budgets = [1.0] * n if budgets is None else list(budgets)
    config = ScenarioConfig(
        num_urllc=num_urllc,
        num_mmtc=n - num_urllc,
        num_subcarriers=s,
        num_clusters=num_clusters,
        max_rank=max_rank if max_rank is not None else max(2, n),
        subcarrier_bandwidth=tone_bandwidth,
        rb_bandwidth=tone_bandwidth * s,
        noise_psd=noise_psd,
        rng_seed=rng_seed,
    )
    return Scenario(
        config=config,
        gain_matrix=gains,
        rate_thresholds=thresholds,
        power_budgets=budgets,
        is_urllc=[k == "u" for k in kinds],
    )


@pytest.fixture
def scenario_factory():
    return make_scenario


def random_cluster_of_size(rng, n):
    """A ``random_feasible_cluster`` draw of exactly n users."""
    while True:
        cluster = random_feasible_cluster(rng, max_users=n)
        if cluster.size == n:
            return cluster
