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

from .errors import GridResolutionError, InstanceTooLargeError, InvalidAssignmentError
from .power_opt import (
    OrderedCluster,
    cluster_objective,
    powers_from_tail,
    threshold_coefficients,
)
from .rate_model import (
    RateReport,
    build_report,
    cluster_of,
    equal_split_powers,
    rate_report,
    sic_log_terms,
    structural_violations,
)
from .scenario import Scenario

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


def ofdma_allocate(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, RateReport]:
    """Greedy one-device-per-subcarrier allocation.

    Each subcarrier (ascending index) goes to the unsatisfied device with
    the highest gain on it, or to the overall highest-gain device once
    everyone is satisfied.  A device splits its budget evenly over the
    tones it owns, so rates are plain interference-free Shannon rates.
    Most devices own one tone, so every device's rate on every tone as
    its only one is built up front in one call; a device reads its first
    tone's rate from that table and recomputes only from its second on.
    Returns (owner, watts, report) as :func:`~nbiot_noma.allocation.allocate`
    does, with each device its own group: ``owner[s]`` is a device id.
    """
    n = scenario.num_devices
    num_s = scenario.config.num_subcarriers
    noise = scenario.config.noise_per_subcarrier
    bw = scenario.config.subcarrier_bandwidth
    gains = scenario.gain_matrix
    budgets = scenario.power_budgets
    owner: list[int] = []
    tones_of: list[list[int]] = [[] for _ in range(n)]
    rates = [0.0] * n
    thresholds = scenario.rate_thresholds.tolist()
    gains_t = np.ascontiguousarray(gains.T)  # (S, n)
    # The K = 1 SIC case, inline: one device needs no interference sums.
    # solo[s, d]: d's rate, bps, when s is its only tone (p = budget / 1).
    solo = bw * np.log1p(gains_t * budgets / noise) / _LOG2
    # pool_gains[s, d]: d's gain on s while d is unsatisfied, else -inf, so
    # its argmax is the lowest-id unsatisfied device with the highest gain.
    unsatisfied = [0.0 < t for t in thresholds]  # every rate starts at 0
    pool_gains = np.where(unsatisfied, gains_t, -math.inf)
    num_unsatisfied = sum(unsatisfied)

    for s in range(num_s):
        dev = int((pool_gains[s] if num_unsatisfied else gains_t[s]).argmax())
        owner.append(dev)
        tones = tones_of[dev]
        tones.append(s)
        # Only the receiving device's split changes; the others keep their rates.
        if len(tones) == 1:
            rates[dev] = solo[s, dev]
        else:
            h = gains[dev].take(tones)
            p = budgets[dev] / len(tones)
            rates[dev] = bw * float(np.log1p(h * p / noise).sum()) / _LOG2
        short = bool(rates[dev] < thresholds[dev])
        if short != unsatisfied[dev]:  # more tones can also lower a rate
            unsatisfied[dev] = short
            num_unsatisfied += 1 if short else -1
            pool_gains[:, dev] = gains_t[:, dev] if short else -math.inf

    owner_arr = np.array(owner, dtype=int)
    watts = equal_split_powers(scenario, np.arange(n), owner_arr)
    return owner_arr, watts, build_report(scenario, rates)


def half_tone_scenario(scenario: Scenario) -> Scenario:
    """The same cell on 2S half-bandwidth tones, gains duplicated per tone."""
    cfg = replace(
        scenario.config,
        num_subcarriers=2 * scenario.config.num_subcarriers,
        subcarrier_bandwidth=scenario.config.subcarrier_bandwidth / 2.0,
    )
    return replace(scenario, config=cfg,
                   gain_matrix=np.repeat(scenario.gain_matrix, 2, axis=1))


def fast_ofdm_allocate(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, RateReport]:
    """OFDMA on the tone-split cell: twice the tones at half the bandwidth.

    The returned owner (2S,) and watts (n, 2S) are indexed by half-tones;
    the report compares against the same per-device thresholds, so up to
    2S devices can be served.
    """
    return ofdma_allocate(half_tone_scenario(scenario))


def _cluster_tone_values(scenario, members) -> np.ndarray:
    """value[s, k]: the cluster's sum rate on tone s when it owns k+1 tones.

    Under equal split every member transmits budget/(k+1) per owned tone,
    so the value of a tone depends only on how many tones the cluster owns.
    An empty cluster is worth zero everywhere.
    """
    cfg = scenario.config
    shares = np.arange(1, cfg.num_subcarriers + 1)[:, None]  # (k, 1): owned-tone counts
    gains = scenario.gain_matrix[members][:, None, :]  # (m, 1, S)
    budgets = scenario.power_budgets[members][:, None, None]  # (m, 1, 1)
    terms = sic_log_terms(gains * (budgets / shares), cfg.noise_per_subcarrier)
    return (cfg.subcarrier_bandwidth * terms.sum(axis=0) / _LOG2).T


def _tone_values_equal_split(scenario, clusters) -> np.ndarray:
    """value[s, c, k]: cluster-c sum rate on tone s when it owns k+1 tones."""
    return np.stack([_cluster_tone_values(scenario, members) for members in clusters], axis=1)


def _lex_maps(num_s: int, num_c: int):
    """All C^S subcarrier maps in lexicographic order, in chunks of
    (digits (maps, S), owned-tone count of each tone's owner (maps, S))."""
    total = num_c**num_s
    chunk = 1 << 16
    weights = num_c ** np.arange(num_s - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % num_c
        counts = (digits[:, :, None] == np.arange(num_c)).sum(axis=1)  # (maps, C)
        yield digits, np.take_along_axis(counts, digits, axis=1)


def _best_map(per_tone: np.ndarray, maps) -> tuple[float, np.ndarray]:
    """The largest equal-split value and the first map of ``maps`` with it."""
    tones = np.arange(per_tone.shape[0])[:, None]
    best_obj, best_map = -math.inf, None
    for digits, owned in maps:
        # (S, maps), C-ordered: the axis-0 sum adds tones in order, as a
        # running total would; a last-axis sum is pairwise and can flip a near-tie.
        obj = per_tone[tones, digits.T, owned.T - 1].sum(axis=0)
        k = int(np.argmax(obj))  # first maximum keeps the lexicographic winner
        if obj[k] > best_obj:
            best_obj = float(obj[k])
            best_map = digits[k].copy()
    return best_obj, best_map.astype(int)


def mckp_oracle(
    scenario: Scenario, clusters: list[list[int]]
) -> tuple[np.ndarray, np.ndarray, RateReport]:
    """Best subcarrier-to-cluster map by full enumeration of all C^S maps.

    The exact counterpart of :func:`nbiot_noma.allocation.allocate`: the
    same arguments, the same (owner, watts, report) triple, and the same
    ``InvalidAssignmentError`` for a structurally invalid clustering.
    Every candidate map is scored under the greedy's equal-split rule
    (budget divided by the cluster's owned-tone count).  Ties go to the
    lexicographically smallest map.
    """
    violations = structural_violations(scenario, clusters)
    if violations:
        raise InvalidAssignmentError(violations)
    cfg = scenario.config
    num_s, num_c = cfg.num_subcarriers, len(clusters)
    if num_s > MCKP_MAX_SUBCARRIERS or num_c > MCKP_MAX_CLUSTERS:
        raise InstanceTooLargeError(
            f"S={num_s}, C={num_c} exceeds the exhaustive bounds "
            f"({MCKP_MAX_SUBCARRIERS}, {MCKP_MAX_CLUSTERS})"
        )
    per_tone = _tone_values_equal_split(scenario, clusters)  # (S, C, S)
    owner = _best_map(per_tone, _lex_maps(num_s, num_c))[1]
    watts = equal_split_powers(scenario, cluster_of(clusters, scenario.num_devices), owner)
    return owner, watts, rate_report(scenario, clusters, owner, watts)


def _rank_orderings(urllc_members, mmtc_members):
    for u_perm in itertools.permutations(urllc_members):
        for m_perm in itertools.permutations(mmtc_members):
            yield list(u_perm) + list(m_perm)


def _labellings(n: int, num_clusters: int, k_max: int):
    """Every cluster-label tuple whose clusters hold 0 or 2..k_max devices,
    in lexicographic order."""
    for labels in itertools.product(range(num_clusters), repeat=n):
        if not any(labels.count(c) == 1 or labels.count(c) > k_max
                   for c in range(num_clusters)):
            yield labels


def _first_use_labels(labels) -> tuple:
    """``labels`` renumbered in order of first occurrence: one per partition."""
    first: dict = {}
    return tuple(first.setdefault(c, len(first)) for c in labels)


def _orderings(scenario: Scenario, labels):
    """Every rank ordering of the clusters ``labels`` defines, the canonical
    one (URLLC before mMTC, each class by ascending id) first."""
    per_cluster = []
    for c in range(scenario.config.num_clusters):
        members = [d for d, label in enumerate(labels) if label == c]
        urllc = [d for d in members if scenario.is_urllc[d]]
        mmtc = [d for d in members if not scenario.is_urllc[d]]
        per_cluster.append(list(_rank_orderings(urllc, mmtc)))
    return itertools.product(*per_cluster)


class _ClusteringScorer:
    """Equal-split scores of one scenario's ordered, labelled clusterings.

    Its caches last as long as the scorer: the maps, each ordered
    cluster's tone values and each clustering's best map.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        cfg = scenario.config
        self._maps = list(_lex_maps(cfg.num_subcarriers, cfg.num_clusters))
        self._slices: dict = {}
        self._best: dict = {}

    def best_map(self, clusters) -> tuple[float, np.ndarray]:
        """The map :func:`mckp_oracle` would choose, and its value."""
        keys = tuple(tuple(members) for members in clusters)
        if keys not in self._best:
            for key in keys:
                if key not in self._slices:
                    self._slices[key] = _cluster_tone_values(self.scenario, list(key))
            per_tone = np.stack([self._slices[key] for key in keys], axis=1)
            self._best[keys] = _best_map(per_tone, self._maps)
        return self._best[keys]


def _partition_values(scorer: _ClusteringScorer, labellings) -> dict:
    """Each partition's best-map value in canonical labels and rank order,
    keyed by its labels."""
    return {
        labels: scorer.best_map(next(_orderings(scorer.scenario, labels)))[0]
        for labels in labellings
        if _first_use_labels(labels) == labels
    }


# Relative margin below the best partition value within which every
# labelled, ordered assignment of a partition is scored.  Exactly,
# neither rank order nor labels change the value of any map, so all of a
# partition's assignments share one best value.  In floating point every
# SIC log term is positive and within a few ulps of exact, and a map's
# value or sum rate adds at most 3 members x 6 tones of them per cluster,
# so each partition value and each score lies within about 1e-14 relative
# of that exact best, whichever near-tied map wins: five orders of
# magnitude inside this margin.
_RESCORE_RTOL = 1e-9


def exhaustive_clustering(
    scenario: Scenario,
) -> tuple[list[list[int]], np.ndarray, RateReport]:
    """Global optimum over all valid clusterings and subcarrier maps.

    Every structurally valid assignment is paired with its best map under
    equal-split powers, as :func:`mckp_oracle` would choose it, and scored
    by :func:`rate_report` on those powers; the highest sum rate wins, the
    first on a tie, and is returned as it was scored.  Only tractable for
    a handful of devices and tones.

    Rank orders and cluster labels change a score by rounding only, so
    each unordered partition is valued once, by its best map in canonical
    labels and rank order.  Only the partitions within ``_RESCORE_RTOL``
    of the best value have every labelled, ordered assignment scored, in
    the order of a search of all assignments and keeping the same first
    winner: any assignment of another partition scores below the best.
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
    scorer = _ClusteringScorer(scenario)
    labellings = list(_labellings(scenario.num_devices, cfg.num_clusters, cfg.max_rank))
    values = _partition_values(scorer, labellings)
    if not values:
        raise InstanceTooLargeError("no structurally valid clustering exists")
    top = max(values.values())
    floor = top - _RESCORE_RTOL * abs(top)
    best = None
    for labels in labellings:
        if values[_first_use_labels(labels)] < floor:
            continue
        for clusters in _orderings(scenario, labels):
            owner = scorer.best_map(clusters)[1]
            watts = equal_split_powers(scenario, cluster_of(clusters, scenario.num_devices), owner)
            report = rate_report(scenario, clusters, owner, watts)
            if best is None or report.sum_rate > best[2].sum_rate:
                best = ([list(members) for members in clusters], owner, report)
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


def _first_true(holds, num_rows: int, num_cols: int) -> np.ndarray:
    """Per row, the first column where ``holds`` is true, ``num_cols`` if none.

    ``holds(cols)`` evaluates row r at column ``cols[r]`` for every row at
    once; it must be false then true along each row, and true at column
    ``num_cols``.  Bisection, all rows in step: ``holds`` is true at every
    ``hi`` and false left of every ``lo``, so a settled row stays put.
    """
    lo = np.zeros(num_rows, dtype=np.intp)
    hi = np.full(num_rows, num_cols, dtype=np.intp)
    for _ in range(num_cols.bit_length()):
        mid = (lo + hi) >> 1
        ok = holds(mid)
        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
    return lo


def _grid_feasible(axis, p_max, delta, rho, theta) -> tuple[np.ndarray, np.ndarray]:
    """(counts, j) of the feasible (T2, T3) = (axis[i], axis[j]) of the 3-user
    mesh: counts[i] points on row i, and j of every point in row-major order.

    Inside :func:`_grid_box` each row's feasible columns are one interval.
    As T3 grows along a row, T3 <= delta[1]*T2 - rho[1] and T2 - T3 >= T3
    hold up to some column and p_max - T2 >= T2 - T3 from some column on,
    because a rounded difference never grows as T3 does.  Bisection finds
    both ends of every row, evaluating the mesh's own expressions, so the
    points are exactly the mesh's.
    """
    rows, first, last = _grid_box(axis, p_max, delta, rho, theta)
    t2, t3 = axis[:rows], axis[first:last]
    cap, room = delta[1] * t2 - rho[1], p_max - t2
    t3 = np.append(t3, math.inf)  # column num_cols: both searches hold there
    lo = _first_true(lambda c: room >= t2 - t3[c], rows, t3.size - 1)
    hi = _first_true(lambda c: ~((t3[c] <= cap) & (t2 - t3[c] >= t3[c])), rows, t3.size - 1)
    counts = np.maximum(hi - lo, 0)
    # Column of the k-th point: its row's first column plus its rank within the row.
    j = np.arange(counts.sum()) + np.repeat(first + lo - (np.cumsum(counts) - counts), counts)
    return counts, j


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
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
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

    counts, j = _grid_feasible(axis, p_max, delta, rho, theta)
    if not j.size:
        raise GridResolutionError("no feasible grid point; refine the step")
    # Each log term is a 1-D table on the axis, summed left to right as the
    # full mesh's row-major form would be.  The first three terms depend on
    # the row only, so they are formed once per row and repeated.
    t2 = axis[: counts.size]
    log_g1 = np.log1p(g[1] * axis)
    row_part = math.log1p(g[0] * p_max) + log_g1[: counts.size] - np.log1p(g[0] * t2)
    obj = bw / _LOG2 * (np.repeat(row_part, counts) + np.log1p(g[2] * axis)[j] - log_g1[j])
    k = int(np.argmax(obj))
    i = int(np.searchsorted(np.cumsum(counts), k, side="right"))
    tail = np.array([p_max, float(axis[i]), float(axis[j[k]])])
    return powers_from_tail(tail), float(obj[k])
