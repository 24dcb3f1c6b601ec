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

from .errors import (
    GridResolutionError,
    InstanceTooLargeError,
    InvalidAssignmentError,
    NonFiniteRateError,
)
from .power_opt import (
    OrderedCluster,
    cluster_objective,
    powers_from_tail,
    threshold_coefficients,
)
from .rate_model import (
    RateReport,
    _device_rates,
    _layout,
    build_report,
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
_EPS = float(np.finfo(float).eps)

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


def _tone_values(scenario, table) -> np.ndarray:
    """value[u, s, k]: the sum rate of the cluster listed in row u of the
    (U, K) :func:`~nbiot_noma.rate_model._layout` ``table`` on tone s when
    it owns k+1 tones.

    Under equal split every member transmits budget/(k+1) per owned tone,
    so the value of a tone depends only on how many tones the cluster owns.
    One SIC call covers the (K, U, S, S) stack: a padding slot has zero
    gain and budget, so it adds 0.0 to every sum, and an empty cluster is
    worth zero everywhere.
    """
    cfg = scenario.config
    shares = np.arange(1, cfg.num_subcarriers + 1)[:, None]  # (k, 1): owned-tone counts
    gains = np.vstack([scenario.gain_matrix, np.zeros(cfg.num_subcarriers)])[table.T]
    budgets = np.append(scenario.power_budgets, 0.0)[table.T][:, :, None, None]  # (K, U, 1, 1)
    terms = sic_log_terms(gains[:, :, None] * (budgets / shares), cfg.noise_per_subcarrier)
    return (cfg.subcarrier_bandwidth * terms.sum(axis=0) / _LOG2).transpose(0, 2, 1)


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


def _best_maps(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The (A, S) best equal-split maps of A clusterings: row a of ``slots``
    (A, C) gives each of its clusters' rows of the :func:`_tone_values`
    ``values``.  The first of the largest values wins, in lexicographic
    map order.  Raises :class:`~nbiot_noma.errors.NonFiniteRateError` when
    a clustering's best value is NaN or infinite: as in the greedy, no
    argmax is meaningful then."""
    num_s = values.shape[1]
    columns = np.arange(len(slots))
    tones = np.arange(num_s)[:, None, None]
    best_obj = np.full(len(slots), -math.inf)
    best = np.zeros((len(slots), num_s), dtype=int)
    for digits, owned in _lex_maps(num_s, slots.shape[1]):
        # (S, maps, A), C-ordered: the axis-0 sum adds tones in order, as a
        # running total would; a last-axis sum is pairwise and can flip a near-tie.
        obj = values[slots.T[digits.T], tones, owned.T[:, :, None] - 1].sum(axis=0)
        k = obj.argmax(axis=0)  # first maximum keeps the lexicographic winner
        top = obj[k, columns]
        better = top > best_obj  # an earlier chunk keeps its winner on a tie
        best_obj[better] = top[better]
        best[better] = digits[k[better]]
    if not np.isfinite(best_obj).all():
        raise NonFiniteRateError("no subcarrier map has a finite equal-split sum rate")
    return best


def mckp_oracle(
    scenario: Scenario, clusters: list[list[int]]
) -> tuple[np.ndarray, np.ndarray, RateReport]:
    """Best subcarrier-to-cluster map by full enumeration of all C^S maps.

    The exact counterpart of :func:`nbiot_noma.allocation.allocate`: the
    same arguments, the same (owner, watts, report) triple, and the same
    ``InvalidAssignmentError`` for a structurally invalid clustering or
    ``NonFiniteRateError`` when no map has a finite sum rate.  Every
    candidate map is scored under the greedy's equal-split rule (budget
    divided by the cluster's owned-tone count).  Ties go to the
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
    table, group_of = _layout(clusters, scenario.num_devices)
    owner = _best_maps(_tone_values(scenario, table), np.arange(num_c)[None])[0]
    watts = equal_split_powers(scenario, group_of, owner)
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


def exhaustive_clustering(
    scenario: Scenario,
) -> tuple[list[list[int]], np.ndarray, RateReport]:
    """Global optimum over all valid clusterings and subcarrier maps.

    Every structurally valid assignment, each labelling in each rank
    order, is paired with its best map under equal-split powers, as
    :func:`mckp_oracle` would choose it, and scored on those powers by the
    rate model; the highest sum rate wins, the first on a tie, and is
    returned as it was scored.  Only tractable for a handful of devices
    and tones.

    Each distinct ordered member list gets one row of tone values, every
    assignment's best map comes from one gather per chunk of maps, and
    one batched rate call scores all assignments.
    """
    cfg = scenario.config
    n = scenario.num_devices
    if (
        n > EXHAUSTIVE_MAX_DEVICES
        or cfg.num_clusters > EXHAUSTIVE_MAX_CLUSTERS
        or cfg.max_rank > EXHAUSTIVE_MAX_RANK
        or cfg.num_subcarriers > EXHAUSTIVE_MAX_SUBCARRIERS
    ):
        raise InstanceTooLargeError(
            "instance exceeds the exhaustive clustering bounds "
            f"(devices<={EXHAUSTIVE_MAX_DEVICES}, clusters<={EXHAUSTIVE_MAX_CLUSTERS}, "
            f"rank<={EXHAUSTIVE_MAX_RANK}, subcarriers<={EXHAUSTIVE_MAX_SUBCARRIERS})"
        )
    rows: dict = {}  # ordered member list -> its row of the tone values
    slots, labelled = [], []
    for labels in _labellings(n, cfg.num_clusters, cfg.max_rank):
        for clusters in _orderings(scenario, labels):
            slots.append([rows.setdefault(tuple(members), len(rows)) for members in clusters])
            labelled.append(labels)
    if not slots:
        raise InstanceTooLargeError("no structurally valid clustering exists")
    lists = list(rows)
    table = _layout(lists, n)[0]
    slots = np.array(slots)
    owner = _best_maps(_tone_values(scenario, table), slots)
    watts = equal_split_powers(scenario, np.array(labelled), owner)
    rates = _device_rates(scenario, table[slots], owner, watts)
    sums = [math.fsum(row) for row in rates.tolist()]
    best = max(range(len(sums)), key=sums.__getitem__)  # the first of equal maxima
    return [list(lists[u]) for u in slots[best]], owner[best], build_report(scenario, rates[best])


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
    """(start, stop) of the feasible (T2, T3) = (axis[i], axis[j]) of the
    3-user mesh: row i's points are start[i] <= j < stop[i], none when equal.

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
    return first + lo, first + np.maximum(hi, lo)


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

    start, stop = _grid_feasible(axis, p_max, delta, rho, theta)
    rows = np.flatnonzero(stop > start)
    if not rows.size:
        raise GridResolutionError("no feasible grid point; refine the step")
    # Each log term is a 1-D table on the axis, summed left to right as the
    # full mesh's row-major form would be.  The first three terms depend on
    # the row only, so they are formed once per row and repeated.
    scale = bw / _LOG2
    log_g1, log_g2 = np.log1p(g[1] * axis), np.log1p(g[2] * axis)
    row_part = math.log1p(g[0] * p_max) + log_g1[rows] - np.log1p(g[0] * axis[rows])
    # Only rows that can hold the maximum are evaluated.  Every point scores
    # at least ``lower``, the best at a row's last column.  Row i scores at
    # most ``upper[i]``: its row part plus the largest rounded L2 - L1 up to
    # its last column, plus a slack above the rounding of both sums.  With
    # ascending gains neither term falls along a row, so ``lower`` is near
    # the maximum and few rows are kept.
    last = stop[rows] - 1
    lower = (scale * (row_part + log_g2[last] - log_g1[last])).max()
    peak = np.maximum.accumulate(log_g2 - log_g1)[last]
    slack = 4 * _EPS * (np.abs(row_part) + np.abs(log_g1).max() + np.abs(log_g2).max())
    upper = scale * (row_part + peak + slack)
    if math.isfinite(lower) and np.isfinite(upper).all():
        keep = upper >= lower
        rows, row_part = rows[keep], row_part[keep]
    counts = stop[rows] - start[rows]
    # Column of the k-th point: its row's first column plus its rank within the row.
    j = np.arange(counts.sum()) + np.repeat(start[rows] - (np.cumsum(counts) - counts), counts)
    obj = scale * (np.repeat(row_part, counts) + log_g2[j] - log_g1[j])
    k = int(np.argmax(obj))
    i = rows[np.searchsorted(np.cumsum(counts), k, side="right")]
    tail = np.array([p_max, float(axis[i]), float(axis[j[k]])])
    return powers_from_tail(tail), float(obj[k])
