"""Orthogonal-access baselines and exhaustive oracles.

The OFDMA and fast-OFDM allocators give interference-free reference
points; the exhaustive searches certify the greedy heuristic and the
power solver on instances small enough to enumerate completely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from .errors import GridResolutionError, InstanceTooLargeError
from .power_opt import (
    OrderedCluster,
    cluster_objective,
    powers_from_tail,
    threshold_coefficients,
)
from .rate_model import (
    ClusterAssignment,
    PowerMatrix,
    RateReport,
    SubcarrierMap,
    build_report,
    equal_split_powers,
    rate_report,
    sic_log_terms,
)
from .scenario import Device, Scenario

__all__ = [
    "ofdma_allocate",
    "fast_ofdm_allocate",
    "half_tone_scenario",
    "mckp_oracle",
    "exhaustive_clustering",
    "grid_power_oracle",
]

_LOG2 = math.log(2.0)

# Exhaustive-search size limits, sized so a run stays in the seconds range.
MCKP_MAX_SUBCARRIERS = 12
MCKP_MAX_CLUSTERS = 4
EXHAUSTIVE_MAX_DEVICES = 5
EXHAUSTIVE_MAX_CLUSTERS = 2
EXHAUSTIVE_MAX_RANK = 3
EXHAUSTIVE_MAX_SUBCARRIERS = 6
GRID_MAX_USERS = 3


def ofdma_allocate(scenario: Scenario) -> tuple[np.ndarray, PowerMatrix, RateReport]:
    """Greedy one-device-per-subcarrier allocation.

    Each subcarrier (ascending index) goes to the unsatisfied device with
    the highest gain on it, or to the overall highest-gain device once
    everyone is satisfied.  A device splits its budget evenly over the
    tones it owns, so rates are plain interference-free Shannon rates.
    Returns (owner device per subcarrier with -1 for none, powers, report).
    """
    n = scenario.num_devices
    num_s = scenario.config.num_subcarriers
    noise = scenario.config.noise_per_subcarrier
    bw = scenario.config.subcarrier_bandwidth
    owner = np.full(num_s, -1, dtype=int)
    tones_of: list[list[int]] = [[] for _ in range(n)]
    rates = np.zeros(n)
    thresholds = scenario.rate_thresholds

    for s in range(num_s):
        unsat = np.flatnonzero(rates < thresholds)
        pool = unsat if unsat.size else np.arange(n)
        dev = int(pool[np.argmax(scenario.gain_matrix[pool, s])])
        owner[s] = dev
        tones = tones_of[dev]
        tones.append(s)
        # Only the receiving device's split changes; the others keep their rates.
        h = scenario.gain_matrix[dev, tones]
        p = scenario.power_budgets[dev] / len(tones)
        # The K = 1 SIC case, inline: one device needs no interference sums.
        rates[dev] = bw * float(np.log1p(h * p / noise).sum()) / _LOG2

    powers = equal_split_powers(scenario, [[dev] for dev in range(n)], tones_of)
    return owner, powers, build_report(scenario, rates)


def half_tone_scenario(scenario: Scenario) -> Scenario:
    """The same cell on 2S half-bandwidth tones, gains duplicated per tone."""
    cfg = replace(
        scenario.config,
        num_subcarriers=2 * scenario.config.num_subcarriers,
        subcarrier_bandwidth=scenario.config.subcarrier_bandwidth / 2.0,
    )
    devices = tuple(
        Device(d.id, d.kind, np.repeat(d.gains, 2), d.rate_threshold,
               d.power_budget, d.distance)
        for d in scenario.devices
    )
    return Scenario(config=cfg, devices=devices)


def fast_ofdm_allocate(scenario: Scenario) -> tuple[np.ndarray, PowerMatrix, RateReport]:
    """OFDMA on the tone-split cell: twice the tones at half the bandwidth.

    The returned owner array and power matrix are indexed by half-tones;
    the report compares against the same per-device thresholds, so up to
    2S devices can be served.
    """
    return ofdma_allocate(half_tone_scenario(scenario))


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
    shares = np.arange(1, num_s + 1)[:, None]  # (k, 1): owned-tone counts
    for c, members in enumerate(assignment.clusters):
        if not members:
            continue
        gains = scenario.gain_matrix[members][:, None, :]  # (m, 1, S)
        budgets = scenario.power_budgets[members][:, None, None]  # (m, 1, 1)
        terms = sic_log_terms(gains * (budgets / shares), cfg.noise_per_subcarrier)
        values[:, c, :] = (cfg.subcarrier_bandwidth * terms.sum(axis=0) / _LOG2).T
    return values


def mckp_oracle(
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
            counts = (digits[:, :, None] == np.arange(num_c)).sum(axis=1)  # (maps, C)
            owned = np.take_along_axis(counts, digits, axis=1)
            # (S, maps), C-ordered: the axis-0 sum adds tones in order, as a
            # running total would; a last-axis sum is pairwise and can flip a near-tie.
            obj = per_tone[np.arange(num_s)[:, None], digits.T, owned.T - 1].sum(axis=0)
        k = int(np.argmax(obj))  # first maximum keeps the lexicographic winner
        if obj[k] > best_obj:
            best_obj = float(obj[k])
            best_map = digits[k].copy()
    return SubcarrierMap(owner=best_map.astype(int))


def _rank_orderings(urllc_members, mmtc_members):
    for u_perm in itertools.permutations(urllc_members):
        for m_perm in itertools.permutations(mmtc_members):
            yield list(u_perm) + list(m_perm)


def _valid_assignments(scenario: Scenario, num_clusters: int, k_max: int):
    """Every rank-ordered clustering satisfying the structural constraints."""
    n = scenario.num_devices
    for labels in itertools.product(range(num_clusters), repeat=n):
        sizes = [0] * num_clusters
        for c in labels:
            sizes[c] += 1
        if any(size == 1 or size > k_max for size in sizes):
            continue
        per_cluster = []
        for c in range(num_clusters):
            members = [d for d in range(n) if labels[d] == c]
            urllc = [d for d in members if scenario.is_urllc[d]]
            mmtc = [d for d in members if not scenario.is_urllc[d]]
            per_cluster.append(list(_rank_orderings(urllc, mmtc)))
        for combo in itertools.product(*per_cluster):
            yield ClusterAssignment(clusters=[list(order) for order in combo])


def exhaustive_clustering(
    scenario: Scenario,
) -> tuple[ClusterAssignment, SubcarrierMap, RateReport]:
    """Global optimum over all valid clusterings and subcarrier maps.

    Every structurally valid assignment is paired with its best map from
    :func:`mckp_oracle` under equal-split powers; the overall best sum
    rate wins.  Only tractable for a handful of devices and tones.
    """
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
        sub_map = mckp_oracle(scenario, assignment)
        tone_sets = [sub_map.owned_by(c) for c in range(assignment.num_clusters)]
        powers = equal_split_powers(scenario, assignment.clusters, tone_sets)
        report = rate_report(scenario, assignment, sub_map, powers)
        if best is None or report.sum_rate > best[2].sum_rate:
            best = (assignment, sub_map, report)
    if best is None:
        raise InstanceTooLargeError("no structurally valid clustering exists")
    return best


def _grid_box(axis, p_max, delta, rho, theta) -> tuple[int, int, int]:
    """(rows, first, last) bounding the feasible points of the 3-user mesh.

    Every feasible (T2, T3) = (axis[i], axis[j]) has i < rows and
    first <= j < last.  Rows pass the 1-D bound on T2.  Columns start at
    theta[2] and end at the last T3 with T2 - T3 >= T3 on the largest row:
    a rounded difference never shrinks as T2 grows, so no smaller row
    admits a larger T3.
    """
    rows = int(np.count_nonzero(axis <= delta[0] * p_max - rho[0]))
    first = int(np.searchsorted(axis, theta[2]))
    last = int(np.count_nonzero(axis[rows - 1] - axis >= axis)) if rows else 0
    return rows, first, last


def grid_power_oracle(
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

    rows, first, last = _grid_box(axis, p_max, delta, rho, theta)
    t2, t3 = axis[:rows, None], axis[first:last]
    gap = t2 - t3
    feasible = (t3 <= delta[1] * t2 - rho[1]) & (p_max - t2 >= gap) & (gap >= t3)
    if not feasible.any():
        raise GridResolutionError("no feasible grid point; refine the step")
    # Each log term is a 1-D table on the axis, gathered in the full mesh's
    # row-major order and summed left to right as the mesh form would be.
    log_g1 = np.log1p(g[1] * axis)
    i, j = np.nonzero(feasible)
    obj = (
        bw / _LOG2
        * (
            math.log1p(g[0] * p_max)
            + log_g1[i]
            - np.log1p(g[0] * axis[:rows])[i]
            + np.log1p(g[2] * t3)[j]
            - log_g1[first + j]
        )
    )
    k = int(np.argmax(obj))
    tail = np.array([p_max, float(axis[i[k]]), float(t3[j[k]])])
    return powers_from_tail(tail), float(obj[k])
