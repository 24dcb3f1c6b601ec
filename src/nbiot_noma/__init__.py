"""Uplink power-domain NOMA with user clustering for an NB-IoT cell.

Deterministic scenario generation, SIC rate computation, average-gain
clustering, greedy subcarrier allocation, a per-cluster power solver
that finds the greatest feasible tail by one backward pass and Newton's
method, orthogonal-access baselines, and exhaustive oracles that check
the heuristics on tiny instances.
"""

from .scenario import (
    Scenario,
    ScenarioConfig,
    dbm_to_watt,
    generate_scenario,
    read_config_file,
    watt_to_dbm,
)
from .rate_model import (
    RateReport,
    jain_fairness,
    rate_report,
    validate,
)
from .clustering import build_clusters, cluster_mmtc, cluster_urllc
from .allocation import allocate
from .power_opt import (
    OrderedCluster,
    PowerSolution,
    find_feasible_tail,
    maximize_rates,
    ordered_user_rates,
    powers_from_tail,
    probe_concavity,
    tail_powers,
)
from .baselines import (
    exhaustive_clustering,
    fast_ofdm_allocate,
    grid_power_oracle,
    mckp_oracle,
    ofdma_allocate,
)
from .harness import (
    ExperimentSpec,
    TrialResult,
    emit_csv,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
