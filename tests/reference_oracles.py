"""Slow reference copies of the exhaustive oracles.

These are the oracles as they stood before the pruned rewrite:
``reference_grid_power_oracle`` evaluates every constraint and every log
term on the full two-dimensional mesh, and ``reference_mckp_oracle``
scores each equal-split map one tone at a time, with one
``sic_log_terms`` call per owned-tone count.  They are kept verbatim,
less the fixed-power scoring mode that ``mckp_oracle`` no longer has, so
that the versions in ``nbiot_noma.baselines`` can be checked against
them for identical maps, tail vectors, objectives and errors.

``reference_find_feasible_tail``, ``reference_certified_gap`` and
``reference_maximize_rates`` are the power solver as it stood when every
linear program went to SciPy's HiGHS, kept verbatim but for the
``optimality_gap`` field that ``PowerSolution`` no longer has and a
``start`` argument that takes a least tail the caller already has.
``reference_highs_tail`` is the solver as it stood before the backward
pass: the greatest feasible tail from one HiGHS program, then the flat
tails of equal gains pushed down by a second.  ``reference_block_tails``
gives the same least or greatest tails for many clusters known to be
feasible from one program over their block-diagonal union.  The
constraint rows these programs use (``_tail_rows``,
``_constraint_system``) and the objective gradient are written here,
apart from the solver they check.

``_valid_assignments`` is the clustering oracle's former search space,
every labelled and rank-ordered assignment, which
``reference_exhaustive_clustering`` scores one by one.
``ReferenceOrderedCluster`` keeps ``OrderedCluster``'s validation as it
stood with numpy reductions, to pin the order and text of its errors.

``reference_random_feasible_cluster`` is the self-check's instance draw
as it stood before the batched draw, one scalar draw at a time, with the
per-cluster SIC rate formula inlined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, sparse

from nbiot_noma.baselines import (
    EXHAUSTIVE_MAX_CLUSTERS,
    EXHAUSTIVE_MAX_DEVICES,
    EXHAUSTIVE_MAX_RANK,
    EXHAUSTIVE_MAX_SUBCARRIERS,
    GRID_MAX_USERS,
    MCKP_MAX_CLUSTERS,
    MCKP_MAX_SUBCARRIERS,
    _rank_orderings,
)
from nbiot_noma.errors import (
    ConvergenceError,
    GridResolutionError,
    InfeasibleClusterError,
    InstanceTooLargeError,
)
from nbiot_noma.power_opt import (
    OrderedCluster,
    PowerSolution,
    cluster_objective,
    powers_from_tail,
    threshold_coefficients,
)
from nbiot_noma.rate_model import RateReport, rate_report
from nbiot_noma.scenario import Scenario

from reference_rate_model import reference_equal_split_powers, sic_log_terms

_LOG2 = math.log(2.0)
# The iteration cap the SLSQP solver had as power_opt.MAX_ITERATIONS.
MAX_ITERATIONS = 10_000


def _tone_values_equal_split(scenario, clusters) -> np.ndarray:
    """value[s, c, k]: cluster-c sum rate on tone s when it owns k+1 tones.

    Under equal split every member transmits budget/(k+1) per owned tone,
    so the value of a tone depends only on how many tones the cluster owns.
    """
    cfg = scenario.config
    num_s, num_c = cfg.num_subcarriers, len(clusters)
    values = np.zeros((num_s, num_c, num_s))
    for c, members in enumerate(clusters):
        if not members:
            continue
        gains = scenario.gain_matrix[members]
        budgets = scenario.power_budgets[members][:, None]
        for k in range(num_s):
            terms = sic_log_terms(gains * (budgets / (k + 1)), cfg.noise_per_subcarrier)
            values[:, c, k] = cfg.subcarrier_bandwidth * terms.sum(axis=0) / _LOG2
    return values


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
            yield [list(order) for order in combo]


def reference_mckp_oracle(scenario: Scenario, clusters: list[list[int]]) -> np.ndarray:
    """Best subcarrier-to-cluster map by full enumeration of all C^S maps.

    Each candidate is scored under the same equal-split rule the greedy
    allocator uses (budget divided by the cluster's owned-tone count).
    Ties go to the lexicographically smallest map.
    """
    cfg = scenario.config
    num_s, num_c = cfg.num_subcarriers, len(clusters)
    if num_s > MCKP_MAX_SUBCARRIERS or num_c > MCKP_MAX_CLUSTERS:
        raise InstanceTooLargeError(
            f"S={num_s}, C={num_c} exceeds the exhaustive bounds "
            f"({MCKP_MAX_SUBCARRIERS}, {MCKP_MAX_CLUSTERS})"
        )
    per_tone = _tone_values_equal_split(scenario, clusters)  # (S, C, S)

    total = num_c**num_s
    chunk = 1 << 16
    weights = num_c ** np.arange(num_s - 1, -1, -1, dtype=np.int64)
    best_obj, best_map = -math.inf, None
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % num_c  # lexicographic maps
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
    return best_map.astype(int)


def reference_exhaustive_clustering(
    scenario: Scenario,
) -> tuple[list[list[int]], np.ndarray, RateReport]:
    """``exhaustive_clustering`` before the partition pruning: every valid
    assignment scored with the reference MCKP, the first best kept."""
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
    for clusters in _valid_assignments(scenario, cfg.num_clusters, cfg.max_rank):
        owner = reference_mckp_oracle(scenario, clusters)
        tone_sets = [np.flatnonzero(owner == c) for c in range(len(clusters))]
        watts = reference_equal_split_powers(scenario, clusters, tone_sets)
        report = rate_report(scenario, clusters, owner, watts)
        if best is None or report.sum_rate > best[2].sum_rate:
            best = (clusters, owner, report)
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
    """The full-mesh feasible mask of ``reference_grid_power_oracle``.

    Over T2 for two users; over (T2, T3), indexed ``[i, j]``, for three.
    """
    p_max = cluster.total_power
    delta, rho, theta = threshold_coefficients(cluster)
    axis = np.arange(0.0, p_max + step / 2.0, step)
    if cluster.size == 2:
        return (axis <= delta[0] * p_max - rho[0]) & (axis >= theta[1]) & (p_max - axis >= axis)
    t2, t3 = np.meshgrid(axis, axis, indexing="ij")
    return (
        (t2 <= delta[0] * p_max - rho[0])
        & (t3 <= delta[1] * t2 - rho[1])
        & (t3 >= theta[2])
        & (p_max - t2 >= t2 - t3)
        & (t2 - t3 >= t3)
    )


def _tail_rows(cluster: OrderedCluster):
    """Inequalities ``A @ T <= b`` over the whole tail (T[1], ..., T[n]).

    Rows: the threshold chain T[j+1] <= delta[j]*T[j] - rho[j]; the
    difference ordering (T[j] - T[j+1]) nonincreasing with the last
    difference at least T[n]; and T[n] >= theta[n].  Each row has at most
    one positive coefficient, which the greatest-tail argument relies on.
    """
    n = cluster.size
    delta, rho, theta = threshold_coefficients(cluster)
    a = np.zeros((2 * n - 1, n))
    b = np.zeros(2 * n - 1)
    j = np.arange(n - 1)  # threshold chain: -delta[j]*T[j] + T[j+1] <= -rho[j]
    a[j, j] = -delta[:-1]
    a[j, j + 1] = 1.0
    b[j] = -rho[:-1]
    j = np.arange(n - 2)  # difference ordering: -T[j] + 2*T[j+1] - T[j+2] <= 0
    a[n - 1 + j[:, None], j[:, None] + np.arange(3)] = (-1.0, 2.0, -1.0)
    a[-2, -2:] = (-1.0, 2.0)  # last difference: -T[n-1] + 2*T[n] <= 0
    a[-1, -1] = -1.0  # minimum tail for the last user: -T[n] <= -theta[n]
    b[-1] = -theta[-1]
    return a, b


def _constraint_system(cluster: OrderedCluster):
    """:func:`_tail_rows` over x = (T[2], ..., T[n]), with T[1] = P_max moved right."""
    a, b = _tail_rows(cluster)
    return np.ascontiguousarray(a[:, 1:]), b - a[:, 0] * cluster.total_power


def _objective_gradient(tail, cluster: OrderedCluster) -> np.ndarray:
    """d(objective)/d(tail[j]); tail[0] is fixed by the budget elsewhere."""
    t = np.asarray(tail, dtype=float)
    g = cluster.normalized_gains
    grad = np.empty_like(t)
    grad[0] = g[0] / (1.0 + g[0] * t[0])
    if t.size > 1:
        grad[1:] = g[1:] / (1.0 + g[1:] * t[1:]) - g[:-1] / (1.0 + g[:-1] * t[1:])
    return cluster.bandwidth_hz / _LOG2 * grad


def reference_highs_tail(cluster: OrderedCluster) -> np.ndarray | None:
    """The tail ``maximize_rates`` returns, from HiGHS; None when infeasible.

    Stage 1 maximizes the sum of tails, which gives the greatest feasible
    tail.  Where two consecutive gains are equal the objective is flat in
    the tail between them, and stage 2 minimizes the sum of those flat
    tails with every other tail held at its stage-1 value.
    """
    n, p_max = cluster.size, cluster.total_power
    if n == 1:
        return None if reference_find_feasible_tail(cluster) is None else np.array([p_max])
    a_ub, b_ub = _constraint_system(cluster)
    bounds = [(0.0, p_max)] * (n - 1)
    res = optimize.linprog(
        c=-np.ones(n - 1), A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
    )
    if not res.success:
        return None
    x = res.x
    gains = cluster.normalized_gains
    flat = gains[1:] == gains[:-1]
    if flat.any():
        held = np.flatnonzero(~flat)  # extra rows -x[k] <= -greatest[k]
        res = optimize.linprog(
            c=flat.astype(float),
            A_ub=np.vstack([a_ub, -np.eye(n - 1)[held]]),
            b_ub=np.concatenate([b_ub, -x[held]]),
            bounds=bounds,
            method="highs",
        )
        if not res.success:
            raise ConvergenceError("flat-tail LP failed on a feasible instance")
        x = res.x
    return np.concatenate([[p_max], x])


def reference_find_feasible_tail(cluster: OrderedCluster) -> np.ndarray | None:
    """A feasible tail-power vector, or None when the thresholds are unmeetable.

    Solved as a linear program; the witness minimizes the sum of tail
    powers, which lands on the low-power corner of the feasible set.
    """
    n = cluster.size
    p_max = cluster.total_power
    if n == 1:
        _, _, theta = threshold_coefficients(cluster)
        return np.array([p_max]) if p_max >= theta[0] else None
    a_ub, b_ub = _constraint_system(cluster)
    res = optimize.linprog(
        c=np.ones(n - 1),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, p_max)] * (n - 1),
        method="highs",
    )
    if not res.success:
        return None
    return np.concatenate([[p_max], res.x])


def reference_block_tails(clusters, sense: float) -> list[np.ndarray]:
    """Every cluster's least (``sense`` 1) or greatest (``sense`` -1) tail,
    as :func:`reference_find_feasible_tail` or :func:`reference_highs_tail`
    gives it, from one HiGHS program over the clusters' block-diagonal union.

    The blocks share no variable, so the program's optimum is an optimum
    of every block's own program.  One infeasible block makes the whole
    program infeasible, so every cluster must be known to be feasible.
    A cluster with equal consecutive gains takes its greatest tail from
    :func:`reference_highs_tail`, whose second stage lowers its flat tails.
    """
    systems = [_constraint_system(c) for c in clusters if c.size > 1]
    if not systems:
        return [np.array([c.total_power]) for c in clusters]
    res = optimize.linprog(
        c=np.full(sum(a.shape[1] for a, _ in systems), float(sense)),
        A_ub=sparse.block_diag([a for a, _ in systems], format="csr"),
        b_ub=np.concatenate([b for _, b in systems]),
        bounds=[(0.0, c.total_power) for c in clusters for _ in range(c.size - 1)],
        method="highs",
    )
    if not res.success:
        raise ConvergenceError(f"block LP failed: {res.message}")
    out, start = [], 0
    for c in clusters:
        stop = start + c.size - 1
        out.append(np.concatenate([[c.total_power], res.x[start:stop]]))
        start = stop
        gains = c.normalized_gains
        if sense < 0 and np.any(gains[1:] == gains[:-1]):
            out[-1] = reference_highs_tail(c)
    return out


def reference_certified_gap(x, grad, a_ub, b_ub, p_max):
    """LP bound on how much any feasible point can improve on x."""
    res = optimize.linprog(
        c=-grad,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, p_max)] * x.size,
        method="highs",
    )
    if not res.success:
        raise ConvergenceError("optimality-gap LP failed on a feasible instance")
    return float(grad @ (res.x - x)), res.x


def reference_maximize_rates(
    cluster: OrderedCluster,
    *,
    gap_rtol: float = 1e-6,
    feasibility_atol: float = 1e-9,
    max_iterations: int = MAX_ITERATIONS,
    start: np.ndarray | None = None,
) -> PowerSolution:
    """Maximize the cluster sum rate over the linear feasible set.

    A smooth constrained step (SLSQP) does the bulk of the work; the
    result is then certified by the LP optimality gap and, if the
    certificate is not yet met, refined with conditional-gradient steps
    that stay inside the polytope.  Raises :class:`InfeasibleClusterError`
    when no tail vector meets the thresholds and
    :class:`ConvergenceError` (carrying the best iterate) if tolerances
    are unmet after ``max_iterations``.  ``start``, when given, is
    :func:`reference_find_feasible_tail`'s tail, computed elsewhere.
    """
    if start is None:
        start = reference_find_feasible_tail(cluster)
    if start is None:
        raise InfeasibleClusterError(
            "rate thresholds are unreachable within the power budget"
        )
    n = cluster.size
    p_max = cluster.total_power
    if n == 1:
        tail = np.array([p_max])
        return PowerSolution(
            powers=np.array([p_max]),
            objective=cluster_objective(tail, cluster),
            tail=tail,
            iterations=0,
        )

    a_ub, b_ub = _constraint_system(cluster)

    def full(x):
        return np.concatenate([[p_max], x])

    def neg_obj(x):
        return -cluster_objective(full(x), cluster)

    def neg_grad(x):
        return -_objective_gradient(full(x), cluster)[1:]

    x = start[1:].copy()
    iterations = 0
    res = optimize.minimize(
        neg_obj,
        x,
        jac=neg_grad,
        method="SLSQP",
        bounds=[(0.0, p_max)] * (n - 1),
        constraints=[
            {"type": "ineq", "fun": lambda v: b_ub - a_ub @ v, "jac": lambda v: -a_ub}
        ],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    iterations += int(res.nit)
    candidate = res.x
    violation = max(
        float(np.max(a_ub @ candidate - b_ub, initial=0.0)),
        float(np.max(-candidate, initial=0.0)),
        float(np.max(candidate - p_max, initial=0.0)),
    )
    if violation <= feasibility_atol:
        x = candidate

    best_x, best_obj = x, -neg_obj(x)
    while iterations < max_iterations:
        grad = -neg_grad(x)
        obj = -neg_obj(x)
        if obj > best_obj:
            best_x, best_obj = x, obj
        gap, vertex = reference_certified_gap(x, grad, a_ub, b_ub, p_max)
        if gap <= gap_rtol * max(abs(obj), 1e-300):
            tail = full(x)
            return PowerSolution(
                powers=powers_from_tail(tail, tol=feasibility_atol),
                objective=obj,
                tail=tail,
                iterations=iterations,
            )
        direction = vertex - x
        line = optimize.minimize_scalar(
            lambda t: neg_obj(x + t * direction),
            bounds=(0.0, 1.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        x = x + float(line.x) * direction
        iterations += 1
    raise ConvergenceError(
        f"optimality gap above tolerance after {max_iterations} iterations",
        best_powers=powers_from_tail(full(best_x), tol=feasibility_atol),
        best_objective=best_obj,
    )


@dataclass(eq=False)
class ReferenceOrderedCluster:
    """``OrderedCluster``'s fields and its former ``__post_init__``."""

    normalized_gains: np.ndarray
    rate_thresholds: np.ndarray
    total_power: float
    bandwidth_hz: float

    def __post_init__(self):
        self.normalized_gains = np.asarray(self.normalized_gains, dtype=float)
        self.rate_thresholds = np.asarray(self.rate_thresholds, dtype=float)
        if self.normalized_gains.ndim != 1 or self.normalized_gains.size == 0:
            raise ValueError("normalized_gains must be a nonempty vector")
        for name, finite in (
            ("normalized_gains", np.isfinite(self.normalized_gains).all()),
            ("rate_thresholds", np.isfinite(self.rate_thresholds).all()),
            ("total_power", math.isfinite(self.total_power)),
            ("bandwidth_hz", math.isfinite(self.bandwidth_hz)),
        ):
            if not finite:
                raise ValueError(f"{name} must be finite")
        if np.any(self.normalized_gains <= 0):
            raise ValueError("normalized gains must be strictly positive")
        if np.any(np.diff(self.normalized_gains) < 0):
            raise ValueError("normalized gains must be sorted ascending")
        if self.rate_thresholds.shape != self.normalized_gains.shape:
            raise ValueError("one rate threshold per user is required")
        if np.any(self.rate_thresholds < 0):
            raise ValueError("rate thresholds must be nonnegative")
        if not self.total_power > 0:
            raise ValueError("total_power must be positive")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be positive")


def reference_random_feasible_cluster(
    rng: np.random.Generator, max_users: int = 3
) -> OrderedCluster:
    n = int(rng.integers(1, max_users + 1))
    p_max = float(rng.uniform(0.5, 4.0))
    gains = np.sort(np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=n))) / p_max
    while n > 1 and ((gains[1:] - gains[:-1]) / gains[:-1] < 0.05).any():
        gains = np.sort(np.exp(rng.uniform(np.log(0.5), np.log(50.0), size=n))) / p_max
    bandwidth = float(rng.uniform(0.5, 2.0))
    powers = np.full(n, p_max / n)
    later = np.zeros(powers.shape)
    later[:-1] = powers[:0:-1].cumsum()[::-1]
    sinr = gains * powers / (1.0 + gains * later)
    equal_rates = bandwidth * np.log1p(sinr) / _LOG2
    thresholds = equal_rates * rng.uniform(0.0, 0.8, size=n)
    return OrderedCluster(
        normalized_gains=gains,
        rate_thresholds=thresholds,
        total_power=p_max,
        bandwidth_hz=bandwidth,
    )
