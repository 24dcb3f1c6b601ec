"""Slow reference copies of the exhaustive oracles.

These are the oracles as they stood before the pruned rewrite:
``reference_grid_power_oracle`` evaluates every constraint and every log
term on the full two-dimensional mesh, and ``reference_mckp_oracle``
scores each equal-split map one tone at a time, with one
``sic_log_terms`` call per owned-tone count.  They are kept verbatim so
that the versions in ``nbiot_noma.baselines`` can be checked against
them for identical maps, tail vectors, objectives and errors.
"""

from __future__ import annotations

import math

import numpy as np

from nbiot_noma.baselines import (
    EXHAUSTIVE_MAX_CLUSTERS,
    EXHAUSTIVE_MAX_DEVICES,
    EXHAUSTIVE_MAX_RANK,
    EXHAUSTIVE_MAX_SUBCARRIERS,
    GRID_MAX_USERS,
    MCKP_MAX_CLUSTERS,
    MCKP_MAX_SUBCARRIERS,
    _valid_assignments,
)
from nbiot_noma.errors import GridResolutionError, InstanceTooLargeError
from nbiot_noma.power_opt import (
    OrderedCluster,
    cluster_objective,
    powers_from_tail,
    threshold_coefficients,
)
from nbiot_noma.rate_model import (
    ClusterAssignment,
    PowerMatrix,
    RateReport,
    SubcarrierMap,
    equal_split_powers,
    rate_report,
    sic_log_terms,
)
from nbiot_noma.scenario import Scenario

_LOG2 = math.log(2.0)


def _tone_values_fixed(scenario, assignment, powers) -> np.ndarray:
    """value[s, c]: cluster-c sum rate on tone s with the given fixed powers."""
    cfg = scenario.config
    num_s, num_c = cfg.num_subcarriers, assignment.num_clusters
    values = np.zeros((num_s, num_c))
    for c, members in enumerate(assignment.clusters):
        if not members:
            continue
        received = scenario.gain_matrix[members] * powers.watts[members]  # (m, S)
        terms = sic_log_terms(received, cfg.noise_per_subcarrier)
        values[:, c] = cfg.subcarrier_bandwidth * terms.sum(axis=0) / _LOG2
    return values


def _tone_values_equal_split(scenario, assignment) -> np.ndarray:
    """value[s, c, k]: cluster-c sum rate on tone s when it owns k+1 tones.

    Under equal split every member transmits budget/(k+1) per owned tone,
    so the value of a tone depends only on how many tones the cluster owns.
    """
    cfg = scenario.config
    num_s, num_c = cfg.num_subcarriers, assignment.num_clusters
    values = np.zeros((num_s, num_c, num_s))
    for c, members in enumerate(assignment.clusters):
        if not members:
            continue
        gains = scenario.gain_matrix[members]
        budgets = scenario.power_budgets[members][:, None]
        for k in range(num_s):
            terms = sic_log_terms(gains * (budgets / (k + 1)), cfg.noise_per_subcarrier)
            values[:, c, k] = cfg.subcarrier_bandwidth * terms.sum(axis=0) / _LOG2
    return values


def reference_mckp_oracle(
    scenario: Scenario,
    assignment: ClusterAssignment,
    powers: PowerMatrix | None = None,
) -> SubcarrierMap:
    """Best subcarrier-to-cluster map by full enumeration of all C^S maps.

    With ``powers`` given, every candidate map is scored with those fixed
    transmit powers.  With ``powers=None`` each candidate is scored under
    the same equal-split rule the greedy allocator uses (budget divided by
    the cluster's owned-tone count), which is the evaluation the
    exhaustive clustering oracle needs to dominate the heuristic.  Ties go
    to the lexicographically smallest map.
    """
    cfg = scenario.config
    num_s, num_c = cfg.num_subcarriers, assignment.num_clusters
    if num_s > MCKP_MAX_SUBCARRIERS or num_c > MCKP_MAX_CLUSTERS:
        raise InstanceTooLargeError(
            f"S={num_s}, C={num_c} exceeds the exhaustive bounds "
            f"({MCKP_MAX_SUBCARRIERS}, {MCKP_MAX_CLUSTERS})"
        )
    if powers is not None:
        per_tone = _tone_values_fixed(scenario, assignment, powers)  # (S, C)
    else:
        per_tone = _tone_values_equal_split(scenario, assignment)  # (S, C, S)

    total = num_c**num_s
    chunk = 1 << 16
    weights = num_c ** np.arange(num_s - 1, -1, -1, dtype=np.int64)
    best_obj, best_map = -math.inf, None
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % num_c  # lexicographic maps
        if powers is not None:
            obj = per_tone[np.arange(num_s)[None, :], digits].sum(axis=1)
        else:
            counts = np.zeros((idx.size, num_c), dtype=np.int64)
            for c in range(num_c):
                counts[:, c] = (digits == c).sum(axis=1)
            rows = np.arange(idx.size)
            obj = np.zeros(idx.size)
            for s in range(num_s):
                owner_col = digits[:, s]
                obj += per_tone[s, owner_col, counts[rows, owner_col] - 1]
        k = int(np.argmax(obj))  # first maximum keeps the lexicographic winner
        if obj[k] > best_obj:
            best_obj = float(obj[k])
            best_map = digits[k].copy()
    return SubcarrierMap(owner=best_map.astype(int))


def reference_exhaustive_clustering(
    scenario: Scenario,
) -> tuple[ClusterAssignment, SubcarrierMap, RateReport]:
    """``exhaustive_clustering`` as it stands, scoring with the reference MCKP."""
    cfg = scenario.config
    if (
        scenario.num_devices > EXHAUSTIVE_MAX_DEVICES
        or cfg.num_clusters > EXHAUSTIVE_MAX_CLUSTERS
        or cfg.max_rank > EXHAUSTIVE_MAX_RANK
        or cfg.num_subcarriers > EXHAUSTIVE_MAX_SUBCARRIERS
    ):
        raise InstanceTooLargeError(
            "instance exceeds the exhaustive clustering bounds "
            f"(devices<={EXHAUSTIVE_MAX_DEVICES}, clusters<={EXHAUSTIVE_MAX_CLUSTERS}, "
            f"rank<={EXHAUSTIVE_MAX_RANK}, subcarriers<={EXHAUSTIVE_MAX_SUBCARRIERS})"
        )
    best = None
    for assignment in _valid_assignments(scenario, cfg.num_clusters, cfg.max_rank):
        sub_map = reference_mckp_oracle(scenario, assignment)
        tone_sets = [sub_map.owned_by(c) for c in range(assignment.num_clusters)]
        powers = equal_split_powers(scenario, assignment.clusters, tone_sets)
        report = rate_report(scenario, assignment, sub_map, powers)
        if best is None or report.sum_rate > best[2].sum_rate:
            best = (assignment, sub_map, report)
    if best is None:
        raise InstanceTooLargeError("no structurally valid clustering exists")
    return best


def reference_grid_power_oracle(
    cluster: OrderedCluster, step: float
) -> tuple[np.ndarray, float]:
    """Best feasible tail vector on a regular grid of resolution ``step``.

    Ground-truth bound for :func:`nbiot_noma.power_opt.maximize_rates` on
    clusters of up to three users.  Raises
    :class:`~nbiot_noma.errors.GridResolutionError` when no grid point is
    feasible, which also happens whenever the feasible set itself is empty.
    """
    n = cluster.size
    if n > GRID_MAX_USERS:
        raise InstanceTooLargeError(f"grid oracle supports up to {GRID_MAX_USERS} users")
    if not step > 0:
        raise ValueError("step must be positive")
    p_max = cluster.total_power
    delta, rho, theta = threshold_coefficients(cluster)
    g = cluster.normalized_gains
    bw = cluster.bandwidth_hz
    # The objective is written out again on purpose: an oracle shares no code with its subject.

    if n == 1:
        if p_max < theta[0]:
            raise GridResolutionError("no feasible grid point (empty feasible set)")
        tail = np.array([p_max])
        return powers_from_tail(tail), cluster_objective(tail, cluster)

    axis = np.arange(0.0, p_max + step / 2.0, step)
    if n == 2:
        t2 = axis
        feasible = (
            (t2 <= delta[0] * p_max - rho[0])
            & (t2 >= theta[1])
            & (p_max - t2 >= t2)
        )
        if not feasible.any():
            raise GridResolutionError("no feasible grid point; refine the step")
        t2 = t2[feasible]
        obj = (
            bw / _LOG2
            * (
                math.log1p(g[0] * p_max)
                + np.log1p(g[1] * t2)
                - np.log1p(g[0] * t2)
            )
        )
        k = int(np.argmax(obj))
        tail = np.array([p_max, t2[k]])
        return powers_from_tail(tail), float(obj[k])

    t2, t3 = np.meshgrid(axis, axis, indexing="ij")
    feasible = (
        (t2 <= delta[0] * p_max - rho[0])
        & (t3 <= delta[1] * t2 - rho[1])
        & (t3 >= theta[2])
        & (p_max - t2 >= t2 - t3)
        & (t2 - t3 >= t3)
    )
    if not feasible.any():
        raise GridResolutionError("no feasible grid point; refine the step")
    t2, t3 = t2[feasible], t3[feasible]
    obj = (
        bw / _LOG2
        * (
            math.log1p(g[0] * p_max)
            + np.log1p(g[1] * t2)
            - np.log1p(g[0] * t2)
            + np.log1p(g[2] * t3)
            - np.log1p(g[1] * t3)
        )
    )
    k = int(np.argmax(obj))
    tail = np.array([p_max, float(t2[k]), float(t3[k])])
    return powers_from_tail(tail), float(obj[k])


def reference_mesh_feasible(cluster: OrderedCluster, step: float) -> np.ndarray:
    """The full-mesh feasible mask of ``reference_grid_power_oracle`` (3 users)."""
    p_max = cluster.total_power
    delta, rho, theta = threshold_coefficients(cluster)
    axis = np.arange(0.0, p_max + step / 2.0, step)
    t2, t3 = np.meshgrid(axis, axis, indexing="ij")
    return (
        (t2 <= delta[0] * p_max - rho[0])
        & (t3 <= delta[1] * t2 - rho[1])
        & (t3 >= theta[2])
        & (p_max - t2 >= t2 - t3)
        & (t2 - t3 >= t3)
    )
