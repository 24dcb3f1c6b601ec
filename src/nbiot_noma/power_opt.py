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
of rates: :func:`maximize_rates` finds it with one backward pass over
the users and Newton's method on the last user's power, then checks
the point against every threshold and the power ordering.
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

# maximize_rates raises ConvergenceError when its point misses a
# threshold or the power ordering by more than FEASIBILITY_ATOL watts
# per watt of budget above 1 W: a budget above about 1e7 W rounds its
# tails by more than 1e-9 W.
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
    iterations: int  # always 0; bench/tracing.py sums it as a counter


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


_UNREACHABLE = "rate thresholds are unreachable within the power budget"


def _least_tail(x, c, theta):
    """The least tail (T[1], ..., T[n]) whose last power is x, and dT/dx.

    User j needs P[j] >= theta[j] + c[j] * T[j+1], with c = 2**(r/B) - 1,
    and no less than P[j+1].  Going backward, each user takes the least
    power both allow, so every T[j] is convex, piecewise linear and
    increasing in x, with slope at least 1.  No feasible tail whose last
    power is at least x lies below this one anywhere.
    """
    n = len(c)
    tail, slope = [x] * n, [1.0] * n
    power = total = x
    d_power = d_total = 1.0
    for j in range(n - 2, -1, -1):
        bound = theta[j] + c[j] * total  # not c * (1/g + T): 1/g overflows
        if bound > power:
            power, d_power = bound, c[j] * d_total
        total += power
        d_total += d_power
        tail[j], slope[j] = total, d_total
    return tail, slope


def _greatest_last_power(c, theta, p_max):
    """The greatest x with T[1](x) <= p_max, by Newton's method from x = p_max.

    T[1] is convex and increasing, and T[1](p_max) >= p_max, so each
    step stays at or above the root and solves one linear piece exactly.
    The caller has checked that the root is at least theta[n].
    """
    x = p_max
    while True:
        tail, slope = _least_tail(x, c, theta)
        step = max(x - (tail[0] - p_max) / slope[0], theta[-1])
        if not step < x:
            return x
        x = step


def _least_feasible_tail(cluster: OrderedCluster):
    """``(c, theta, tail)``, tail being the pass at x = theta[n], or None.

    None when the thresholds are unmeetable: a ``theta`` that is not
    finite, as when ``2**(r/B)`` overflows or a gain is as small as
    5e-324, needs more than any budget, and otherwise the least tail must
    fit in it.
    """
    with np.errstate(over="ignore"):
        c = np.exp2(cluster.rate_thresholds / cluster.bandwidth_hz) - 1.0
        theta = c / cluster.normalized_gains
    c, theta = c.tolist(), theta.tolist()
    if not all(map(math.isfinite, theta)):
        return None
    tail, _ = _least_tail(theta[-1], c, theta)
    if not tail[0] <= cluster.total_power:
        return None
    return c, theta, tail


def find_feasible_tail(cluster: OrderedCluster) -> np.ndarray | None:
    """The least feasible tail-power vector, or None when the thresholds are unmeetable.

    Every user but the first takes the least power the thresholds and the
    power ordering allow, starting from the last user's minimum power
    ``theta[n]``; the budget left over goes to user 1.
    """
    least = _least_feasible_tail(cluster)
    if least is None:
        return None
    tail = least[2]
    tail[0] = cluster.total_power
    return np.array(tail)


def maximize_rates(cluster: OrderedCluster) -> PowerSolution:
    """Maximize the cluster sum rate: the greatest feasible tail vector.

    Every feasible tail lies at or above the backward pass of
    :func:`_least_tail` at its own last power, so the feasible tails have
    a greatest element: the pass at the greatest x with T[1](x) <=
    P_max.  Newton's method from x = P_max finds that x.  With ascending
    gains

        dF/dT[j] = B/ln2 * (g[j] - g[j-1])
                   / ((1 + g[j] T[j]) * (1 + g[j-1] T[j])) >= 0,

    so no feasible point beats the greatest one.  Where two consecutive
    gains are equal the objective is flat in the tail between them, and
    that tail goes as low as it can while every other tail stays greatest.
    Only a trailing run g[m-1] = ... = g[n] can move.  With T[1..m-1]
    held, no P[j] with j >= m-1 may exceed P[m-2], and no tail may fall
    below the least tail of :func:`find_feasible_tail`, so the flat tails
    have a least element: T[k] = max(T[m-1] - (k-m+1) P[m-2], least
    T[k]), with no P[m-2] bound when m = 2.  The point is checked against
    every threshold and the power ordering within ``FEASIBILITY_ATOL``.
    Raises :class:`InfeasibleClusterError` when no tail vector meets the
    thresholds and :class:`ConvergenceError`, carrying the point, when the
    check fails.
    """
    terms = _least_feasible_tail(cluster)
    if terms is None:
        raise InfeasibleClusterError(_UNREACHABLE)
    c, theta, least = terms
    p_max = cluster.total_power
    tail, _ = _least_tail(_greatest_last_power(c, theta, p_max), c, theta)
    tail[0] = p_max
    gains = cluster.normalized_gains.tolist()
    m = len(gains)  # 0-indexed: the flat tails are tail[m:]
    while m > 1 and gains[m - 2] == gains[-1]:
        m -= 1
    cap = tail[m - 2] - tail[m - 1] if m > 1 else math.inf
    for k in range(m, len(gains)):
        tail[k] = max(tail[m - 1] - (k - m + 1) * cap, least[k])
    tail = np.array(tail)
    powers = np.append(tail[:-1] - tail[1:], tail[-1])
    need = np.array(theta) + np.array(c) * np.append(tail[1:], 0.0)
    slack = np.concatenate([powers - need, powers[:-1] - powers[1:]])
    powers = np.maximum(powers, 0.0)
    objective = cluster_objective(tail, cluster)
    if not slack.min() >= -FEASIBILITY_ATOL * max(1.0, p_max):
        raise ConvergenceError(
            f"point misses a threshold or the ordering by {-slack.min():.3e} W",
            best_powers=powers,
            best_objective=objective,
        )
    return PowerSolution(powers=powers, objective=objective, tail=tail, iterations=0)


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
