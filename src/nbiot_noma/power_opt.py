"""Per-cluster power control via the tail-power transform.

For one cluster of n users ordered by ascending normalized gain
``g[j] = h[j] / (N0 * W)``, the SIC rate of user j (decoded j-th, with
power nonincreasing in j) is

    R_j = B * log2(1 + g[j] * P[j] / (1 + g[j] * (P[j+1] + ... + P[n]))).

Substituting the tail sums ``T[j] = P[j] + ... + P[n]`` turns the sum of
rates into a separable objective, sum of

    F_1(T_1) = B * log2(1 + g[1] * T[1]),
    F_j(T_j) = B * [log2(1 + g[j] * T[j]) - log2(1 + g[j-1] * T[j])],

each concave when the gains are ascending, under purely linear
constraints: per-user rate thresholds linearize to a chain
``T[j+1] <= delta[j] * T[j] - rho[j]``, the budget pins ``T[1] = P_max``,
and the power ordering becomes nonincreasing consecutive differences.
The feasible tails have a greatest element, and it maximizes the sum
of rates: :func:`maximize_rates` finds it with one linear program and
certifies it by the LP optimality gap, which for a concave objective
bounds the true suboptimality from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    InfeasibleClusterError,
    NonmonotoneTailError,
)

__all__ = [
    "OrderedCluster",
    "PowerSolution",
    "ConcavityReport",
    "tail_powers",
    "powers_from_tail",
    "cluster_objective",
    "ordered_user_rates",
    "threshold_coefficients",
    "find_feasible_tail",
    "maximize_rates",
    "second_derivative_core",
    "probe_concavity",
]

_LOG2 = math.log(2.0)

# maximize_rates raises ConvergenceError unless the LP optimality gap of
# its point is within GAP_RTOL of the objective, and clips power
# differences within FEASIBILITY_ATOL watts below zero to zero.
GAP_RTOL = 1e-6
FEASIBILITY_ATOL = 1e-9
# probe_concavity counts a sample as mismatched beyond this relative error.
CONCAVITY_RTOL = 1e-4


@dataclass(eq=False)
class OrderedCluster:
    """One cluster's power subproblem: gains ascending, shared budget."""

    normalized_gains: np.ndarray  # 1/W, ascending
    rate_thresholds: np.ndarray  # bps, aligned with the gains
    total_power: float  # W
    bandwidth_hz: float  # Hz factor in front of every log2 term

    def __post_init__(self):
        self.normalized_gains = np.asarray(self.normalized_gains, dtype=float)
        self.rate_thresholds = np.asarray(self.rate_thresholds, dtype=float)
        if self.normalized_gains.ndim != 1 or self.normalized_gains.size == 0:
            raise ValueError("normalized_gains must be a nonempty vector")
        # Python floats: a cluster has a handful of users, and numpy's
        # per-call overhead would dwarf the comparisons themselves.
        gains = self.normalized_gains.tolist()
        thresholds = self.rate_thresholds.ravel().tolist()
        for name, finite in (
            ("normalized_gains", all(map(math.isfinite, gains))),
            ("rate_thresholds", all(map(math.isfinite, thresholds))),
            ("total_power", math.isfinite(self.total_power)),
            ("bandwidth_hz", math.isfinite(self.bandwidth_hz)),
        ):
            if not finite:
                raise ValueError(f"{name} must be finite")
        if any(g <= 0 for g in gains):
            raise ValueError("normalized gains must be strictly positive")
        if any(high < low for low, high in zip(gains, gains[1:])):
            raise ValueError("normalized gains must be sorted ascending")
        if self.rate_thresholds.shape != self.normalized_gains.shape:
            raise ValueError("one rate threshold per user is required")
        if any(r < 0 for r in thresholds):
            raise ValueError("rate thresholds must be nonnegative")
        if not self.total_power > 0:
            raise ValueError("total_power must be positive")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be positive")

    @property
    def size(self) -> int:
        return self.normalized_gains.size


@dataclass
class PowerSolution:
    powers: np.ndarray  # W, nonincreasing
    objective: float  # bps
    tail: np.ndarray  # W, the tail-power vector behind `powers`
    optimality_gap: float  # bps, LP bound on remaining improvement
    iterations: int  # always 0: one LP solves the problem, nothing iterates


def tail_powers(powers) -> np.ndarray:
    """Suffix sums T[j] = P[j] + ... + P[n] along the last axis; linear and invertible."""
    p = np.asarray(powers, dtype=float)
    if (p < 0).any():
        raise ValueError("powers must be nonnegative")
    return p[..., ::-1].cumsum(axis=-1)[..., ::-1]


def powers_from_tail(tail, *, tol: float = 0.0) -> np.ndarray:
    """Invert :func:`tail_powers`; requires a nonincreasing input.

    Differences within ``tol`` below zero are clipped to exactly zero so
    solver output rounds cleanly.
    """
    t = np.asarray(tail, dtype=float)
    p = np.empty_like(t)
    p[:-1] = t[:-1] - t[1:]
    p[-1] = t[-1]
    if np.any(p < -tol):
        j = int(np.flatnonzero(p < -tol)[0])
        raise NonmonotoneTailError(
            f"tail[{j}] < tail[{j + 1}]: no nonnegative power vector matches"
        )
    return np.maximum(p, 0.0)


def _rates(p, g, bandwidth) -> np.ndarray:
    """SIC rates of clusters stacked along the leading axes.

    ``p`` and ``g`` hold powers and normalized gains with users on the
    last axis in decoding order; ``bandwidth`` has the leading shape.
    A cluster shorter than the last axis is front-padded with zero gain
    and zero power: a pad's SINR is exactly 0, and it is decoded before
    every real user, so it adds exactly zero to their interference.
    """
    later = np.zeros(p.shape)
    later[..., :-1] = p[..., :0:-1].cumsum(axis=-1)[..., ::-1]
    sinr = g * p / (1.0 + g * later)
    return np.expand_dims(bandwidth, -1) * np.log1p(sinr) / _LOG2


def _objective(t, g, bandwidth) -> np.ndarray:
    """Sum-rate objective of tail vectors stacked along the leading axes.

    Laid out as in :func:`_rates`.  A front pad of zero gain adds
    log1p(0) = 0 as the first term and log1p(0) - log1p(0) = 0 after it,
    and turns the first real user's difference term into
    log1p(g * T) - log1p(0), its own first term, exactly.
    """
    first = np.log1p(g[..., 0] * t[..., 0])
    rest = np.log1p(g[..., 1:] * t[..., 1:]) - np.log1p(g[..., :-1] * t[..., 1:])
    return bandwidth / _LOG2 * (first + rest.sum(axis=-1))


def cluster_objective(tail, cluster: OrderedCluster) -> float:
    t = np.asarray(tail, dtype=float)
    return float(_objective(t, cluster.normalized_gains, cluster.bandwidth_hz))


def _objective_gradient(tail, cluster: OrderedCluster) -> np.ndarray:
    """d(objective)/d(tail[j]); tail[0] is fixed by the budget elsewhere."""
    t = np.asarray(tail, dtype=float)
    g = cluster.normalized_gains
    grad = np.empty_like(t)
    grad[0] = g[0] / (1.0 + g[0] * t[0])
    if t.size > 1:
        grad[1:] = g[1:] / (1.0 + g[1:] * t[1:]) - g[:-1] / (1.0 + g[:-1] * t[1:])
    return cluster.bandwidth_hz / _LOG2 * grad


def ordered_user_rates(powers, cluster: OrderedCluster) -> np.ndarray:
    """Per-user SIC rates straight from the SINR definition (no transform)."""
    p = np.asarray(powers, dtype=float)
    # Not sic_log_terms: interference is g[j] * (sum of later powers), the subproblem's model.
    return _rates(p, cluster.normalized_gains, cluster.bandwidth_hz)


def threshold_coefficients(cluster: OrderedCluster):
    """Linearization coefficients (delta, rho, theta) of the rate thresholds."""
    g = cluster.normalized_gains
    ratio = cluster.rate_thresholds / cluster.bandwidth_hz
    delta = np.exp2(-ratio)
    rho = (1.0 - delta) / g
    theta = (np.exp2(ratio) - 1.0) / g
    return delta, rho, theta


def _tail_rows(cluster: OrderedCluster):
    """Inequalities ``A @ T <= b`` over the whole tail (T[1], ..., T[n]).

    Rows: the threshold chain T[j+1] <= delta[j]*T[j] - rho[j]; the
    difference ordering (T[j] - T[j+1]) nonincreasing with the last
    difference at least T[n]; and T[n] >= theta[n].  Each row has at most
    one positive coefficient, which :func:`maximize_rates` relies on.
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


_UNREACHABLE = "rate thresholds are unreachable within the power budget"

# Constraint slack allowed to a vertex of a small LP, in units of the
# budget: far above the rounding of a 2x2 solve, and below HiGHS's 1e-7
# primal tolerance, so the two disagree on feasibility only for thresholds
# within well under 1e-6 relative of the boundary.
_VERTEX_RTOL = 1e-9


def _lp_argmin(c, a_ub, b_ub, p_max) -> np.ndarray | None:
    """argmin of ``c @ x`` over ``A x <= b, 0 <= x <= p_max``, None if empty.

    With at most two variables the optimum sits on a vertex, so every
    vertex is enumerated: the bound ratios of one variable, or the
    intersection of every nonparallel pair of constraints, the box rows
    included.  Vertices within ``_VERTEX_RTOL * p_max`` of every
    constraint count as feasible and the first minimizer wins.  Larger
    programs go to HiGHS.
    """
    m = c.size
    if m > 2:
        # Imported here, not at the top: it takes most of the package's
        # start-up time, and only clusters of four or more users need it.
        from scipy import optimize

        res = optimize.linprog(
            c=c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, p_max)] * m, method="highs"
        )
        return res.x if res.success else None
    eye = np.eye(m)
    a = np.vstack([a_ub, -eye, eye])
    b = np.concatenate([b_ub, np.zeros(m), np.full(m, p_max)])
    if m == 1:
        col = a[:, 0]
        nonzero = col != 0
        vertices = (b[nonzero] / col[nonzero])[:, None]
    else:
        i, j = np.triu_indices(b.size, k=1)
        pairs = np.stack([a[i], a[j]], axis=1)  # (pairs, 2, 2)
        det = pairs[:, 0, 0] * pairs[:, 1, 1] - pairs[:, 0, 1] * pairs[:, 1, 0]
        keep = det != 0
        rhs = np.stack([b[i], b[j]], axis=1)[keep, :, None]
        vertices = np.linalg.solve(pairs[keep], rhs)[:, :, 0]
    feasible = np.all(vertices @ a.T <= b + _VERTEX_RTOL * p_max, axis=1)
    if not feasible.any():
        return None
    vertices = vertices[feasible]
    return vertices[int(np.argmin(vertices @ c))]


def find_feasible_tail(cluster: OrderedCluster) -> np.ndarray | None:
    """A feasible tail-power vector, or None when the thresholds are unmeetable.

    Solved as a linear program; the witness minimizes the sum of tail
    powers, which lands on the low-power corner of the feasible set.  A
    user whose minimum power ``theta`` overflows, as when ``2**(r/B)``
    does, needs more than any finite budget: that is infeasible before
    any LP is built.
    """
    n = cluster.size
    p_max = cluster.total_power
    with np.errstate(over="ignore"):
        _, _, theta = threshold_coefficients(cluster)
    if not np.isfinite(theta).all():
        return None
    if n == 1:
        return np.array([p_max]) if p_max >= theta[0] else None
    a_ub, b_ub = _constraint_system(cluster)
    x = _lp_argmin(np.ones(n - 1), a_ub, b_ub, p_max)
    return None if x is None else np.concatenate([[p_max], x])


def _certified_gap(x, grad, a_ub, b_ub, p_max) -> float:
    """LP bound on how much any feasible point can improve on x."""
    vertex = _lp_argmin(-grad, a_ub, b_ub, p_max)
    if vertex is None:
        raise ConvergenceError("optimality-gap LP failed on a feasible instance")
    return float(grad @ (vertex - x))


def maximize_rates(cluster: OrderedCluster) -> PowerSolution:
    """Maximize the cluster sum rate: the greatest feasible tail vector.

    Every row of :func:`_tail_rows`, and every box bound, has at most
    one positive coefficient, so if x and y are feasible, so is their
    componentwise max: for a row whose positive coefficient sits on T[i],
    let z be whichever of x and y has the larger T[i]; every other term
    of the row at the max is at most its value at z, so the row holds.
    The feasible set is closed and bounded, so it has a greatest element,
    and the LP that maximizes the sum of tails returns it.  With
    ascending gains

        dF/dT[j] = B/ln2 * (g[j] - g[j-1])
                   / ((1 + g[j] T[j]) * (1 + g[j-1] T[j])) >= 0,

    so no feasible point beats the greatest one.  Where two consecutive
    gains are equal the objective is flat in that tail; a second LP
    pushes those tails down to their least values while every other tail
    stays at its greatest.  The point is certified by the LP optimality
    gap.  Raises :class:`InfeasibleClusterError` when no tail vector meets
    the thresholds and :class:`ConvergenceError`, carrying the point,
    when the gap exceeds ``GAP_RTOL`` of the objective.
    """
    n = cluster.size
    p_max = cluster.total_power
    if n == 1:
        if find_feasible_tail(cluster) is None:
            raise InfeasibleClusterError(_UNREACHABLE)
        tail = np.array([p_max])
        objective = cluster_objective(tail, cluster)
        return PowerSolution(tail.copy(), objective, tail, optimality_gap=0.0, iterations=0)
    with np.errstate(over="ignore"):  # an overflowing theta: see find_feasible_tail
        _, _, theta = threshold_coefficients(cluster)
    x = None
    if np.isfinite(theta).all():
        a_ub, b_ub = _constraint_system(cluster)
        x = _lp_argmin(-np.ones(n - 1), a_ub, b_ub, p_max)
    if x is None:
        raise InfeasibleClusterError(_UNREACHABLE)
    gains = cluster.normalized_gains
    flat = gains[1:] == gains[:-1]
    if flat.any():
        held = np.flatnonzero(~flat)  # extra rows -x[k] <= -greatest[k]
        x = _lp_argmin(
            flat.astype(float),
            np.vstack([a_ub, -np.eye(n - 1)[held]]),
            np.concatenate([b_ub, -x[held]]),
            p_max,
        )
        if x is None:
            raise ConvergenceError("flat-tail LP failed on a feasible instance")
    tail = np.concatenate([[p_max], x])
    objective = cluster_objective(tail, cluster)
    grad = _objective_gradient(tail, cluster)[1:]
    gap = _certified_gap(x, grad, a_ub, b_ub, p_max)
    powers = powers_from_tail(tail, tol=FEASIBILITY_ATOL)
    if not gap <= GAP_RTOL * max(abs(objective), 1e-300):
        raise ConvergenceError(
            f"optimality gap {gap:.3e} above tolerance",
            best_powers=powers,
            best_objective=objective,
        )
    return PowerSolution(
        powers=powers,
        objective=objective,
        tail=tail,
        optimality_gap=gap,
        iterations=0,
    )


def second_derivative_core(gain_low: float, gain_high: float, tail_value: float) -> float:
    """Closed-form second derivative of ln((1+gh*T)/(1+gl*T)) in T.

    The full objective term is bandwidth/ln(2) times this core, so the
    sign analysis carries over unchanged.  Nonpositive whenever
    gain_low <= gain_high; exactly zero when they are equal.  Broadcasts
    elementwise over arrays.
    """
    num = (
        gain_low**2
        - gain_high**2
        + 2.0 * tail_value * gain_high * gain_low * (gain_low - gain_high)
    )
    den = (1.0 + gain_high * tail_value) ** 2 * (1.0 + gain_low * tail_value) ** 2
    return num / den


@dataclass
class ConcavityReport:
    samples: int
    positive_closed_form: int
    positive_finite_difference: int
    max_relative_mismatch: float
    mismatched: int  # samples whose methods disagree beyond the tolerance

    @property
    def ok(self) -> bool:
        return (
            self.positive_closed_form == 0
            and self.positive_finite_difference == 0
            and self.mismatched == 0
        )


def probe_concavity(
    cluster: OrderedCluster,
    samples: int = 1000,
    rng: np.random.Generator | None = None,
) -> ConcavityReport:
    """Cross-check curvature signs numerically; failures are counted, not raised.

    Each sample picks a consecutive gain pair and a random positive tail
    value, then compares the closed-form second derivative against a
    central finite difference.  All pair indices come from one draw and
    all log-tails from a second.  A sample whose relative mismatch is
    NaN counts as mismatched and makes the worst mismatch NaN.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if cluster.size < 2:
        raise ValueError("need at least two users to probe curvature")
    g = cluster.normalized_gains
    if np.any(np.diff(g) <= 0):
        raise ValueError("gains must be strictly ascending for the probe")
    rng = np.random.default_rng(0) if rng is None else rng

    pair = rng.integers(1, cluster.size, size=samples) - 1
    lo, hi = g[pair], g[pair + 1]
    # Each pair's tail values span this log-range.
    z = np.exp(rng.uniform(np.log(1e-2 / hi), np.log(1e2 / lo)))
    closed = second_derivative_core(lo, hi, z)

    def core(t):
        return np.log1p(hi * t) - np.log1p(lo * t)

    h = 2.2e-4 * (z + 1.0 / hi)
    fd = (core(z + h) - 2.0 * core(z) + core(z - h)) / (h * h)
    rel = np.abs(closed - fd) / np.maximum(np.abs(closed), 1e-300)
    return ConcavityReport(
        samples=samples,
        positive_closed_form=int(np.count_nonzero(closed > 0)),
        positive_finite_difference=int(np.count_nonzero(fd > 0)),
        max_relative_mismatch=float(rel.max()),
        mismatched=int(np.count_nonzero(~(rel <= CONCAVITY_RTOL))),
    )
