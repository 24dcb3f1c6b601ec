"""Metamorphic relations at full scale: properties that need no oracle.

Device relabelling: permute the device ids, with every per-device array
(gains, thresholds, budgets, URLLC flags, distances), and rebuild the
``Scenario``.  Every scheme's per-device rates must be permuted the same
way, bit for bit.  Gains are drawn from a continuous distribution, so no
two devices tie and no tie-break reads an id.  Code that leans on id
order breaks the relation: a URLLC assumed to come first, a table keyed
by id order, or a padding slot read as device n.
"""

from dataclasses import replace

import numpy as np
import pytest

from nbiot_noma.allocation import allocate
from nbiot_noma.baselines import fast_ofdm_allocate, ofdma_allocate
from nbiot_noma.clustering import build_clusters
from nbiot_noma.harness import ExperimentSpec, child_seed, trial_config
from nbiot_noma.scenario import Scenario, ScenarioConfig, generate_scenario

MASTER_SEED = 20240817  # the acceptance suite's

_BASE = ScenarioConfig(rng_seed=MASTER_SEED)
_SUM_RATE = ExperimentSpec(replace(_BASE, max_rank=8), "total_devices", (96,), trials=100)
_FAIRNESS = ExperimentSpec(_BASE, "k_max", (2, 4), trials=100)
_CONNECTIVITY = ExperimentSpec(
    replace(
        _BASE,
        max_rank=2,
        urllc_rate_threshold_range=(100.0, 100.0),
        mmtc_rate_threshold_range=(100.0, 100.0),
    ),
    "total_devices",
    (60, 96),
    trials=50,
)
# The acceptance suite's Monte Carlo cells, every trial: (name, spec, sweep index).
CELLS = [
    ("sum-rate-k8", _SUM_RATE, 0),
    ("fairness-k2", _FAIRNESS, 0),
    ("fairness-k4", _FAIRNESS, 1),
    ("connectivity-60", _CONNECTIVITY, 0),
    ("connectivity-96", _CONNECTIVITY, 1),
]

SCHEMES = {
    "noma": lambda sc: allocate(sc, build_clusters(sc))[2],
    "ofdma": lambda sc: ofdma_allocate(sc)[2],
    "fast_ofdm": lambda sc: fast_ofdm_allocate(sc)[2],
}


def relabelled(scenario: Scenario, perm: np.ndarray) -> Scenario:
    """The same cell with new device i being old device ``perm[i]``."""
    return Scenario(
        config=scenario.config,
        gain_matrix=scenario.gain_matrix[perm],
        rate_thresholds=scenario.rate_thresholds[perm],
        power_budgets=scenario.power_budgets[perm],
        is_urllc=scenario.is_urllc[perm],
        distances=scenario.distances[perm],
    )


@pytest.mark.parametrize("name, spec, sweep_index", CELLS, ids=[c[0] for c in CELLS])
def test_relabelling_permutes_rates_bit_for_bit(name, spec, sweep_index):
    value = spec.sweep_values[sweep_index]
    for trial in range(spec.trials):
        seed = child_seed(MASTER_SEED, sweep_index, trial)
        scenario = generate_scenario(trial_config(spec, value, seed))
        n = scenario.num_devices
        assert np.unique(scenario.gain_matrix.mean(axis=1)).size == n  # no ties
        perm = np.random.default_rng(seed).permutation(n)
        moved = relabelled(scenario, perm)
        assert not np.array_equal(moved.is_urllc, scenario.is_urllc)
        for scheme, run in SCHEMES.items():
            rates, moved_rates = run(scenario).rates, run(moved).rates
            assert np.array_equal(moved_rates, rates[perm]), (name, seed, scheme)
