"""SIC-ordered achievable rates, aggregate metrics, and constraint checks.

One cluster shares its subcarriers among its ranked members.  The receiver
decodes rank 1 first, so a member at rank k sees interference only from
same-cluster members with rank strictly greater than k:

    rate(d) = sum over owned tones s of
              W * log2(1 + h[d,s] * p[d,s] / (N0*W + I[d,s])),
    I[d,s]  = sum of h[j,s] * p[j,s] over members j ranked below d.

Because URLLC members always precede mMTC members in rank order, this one
formula covers both device classes: an mMTC member is interfered only by
later mMTCs, a URLLC member by later URLLCs plus every mMTC in the cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRatesError, UnassignedDeviceError
from .scenario import Scenario

__all__ = [
    "ClusterAssignment",
    "SubcarrierMap",
    "PowerMatrix",
    "RateReport",
    "Violation",
    "sic_member_rates",
    "sic_log_terms",
    "equal_split_powers",
    "rate_report",
    "build_report",
    "jain_fairness",
    "validate",
    "structural_violations",
]

# Relative tolerance for power-budget equality/limits (C2, C4).
BUDGET_RTOL = 1e-9


@dataclass
class ClusterAssignment:
    """clusters[c] lists device ids in rank order (index 0 is rank 1)."""

    clusters: list[list[int]]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def slots(self) -> dict[int, tuple[int, int]]:
        """device id -> (cluster index, 0-based rank)."""
        out = {}
        for c, members in enumerate(self.clusters):
            for rank, dev in enumerate(members):
                out[dev] = (c, rank)
        return out


@dataclass
class SubcarrierMap:
    """owner[s] is the owning cluster index, or -1 while unassigned."""

    owner: np.ndarray

    def owned_by(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.owner == cluster)


@dataclass
class PowerMatrix:
    """watts[d, s] is device d's transmit power on subcarrier s."""

    watts: np.ndarray


@dataclass
class RateReport:
    rates: np.ndarray  # bps per device
    sum_rate: float  # bps
    fairness: float  # Jain index, NaN when all rates are zero
    satisfied: np.ndarray  # bool per device
    satisfied_count: int


@dataclass(frozen=True)
class Violation:
    constraint: str
    message: str

    def __str__(self):
        return f"{self.constraint}: {self.message}"


def interference_below(received: np.ndarray) -> np.ndarray:
    """Exclusive suffix sums along axis 0: row k gets the sum of rows > k.

    Summed bottom-up rather than as total-minus-own, which would cancel
    catastrophically when a weak interferer sits under a strong signal.
    """
    below = np.zeros_like(received)
    if received.shape[0] > 1:
        below[:-1] = np.cumsum(received[:0:-1], axis=0)[::-1]
    return below


def sic_log_terms(received: np.ndarray, noise_watts: float) -> np.ndarray:
    """ln(1 + SINR) of every entry, rows in rank order along axis 0.

    Each row is interfered by the received power of all rows below it
    (the lower-ranked members, decoded later).  Multiply by W / ln 2 for
    bps.
    """
    return np.log1p(received / (noise_watts + interference_below(received)))


def sic_member_rates(
    gains: np.ndarray,
    powers: np.ndarray,
    noise_watts: float,
    tone_bandwidth: float,
) -> np.ndarray:
    """Per-member rates for one cluster on its owned tones.

    ``gains`` and ``powers`` have shape (members, tones) with rows in rank
    order.  Returns bps per member.
    """
    if gains.size == 0:
        return np.zeros(gains.shape[0])
    terms = sic_log_terms(gains * powers, noise_watts)
    return tone_bandwidth * terms.sum(axis=1) / math.log(2.0)


def equal_split_powers(scenario: Scenario, groups, tone_sets) -> PowerMatrix:
    """Every member of a group spreads its budget evenly over the group's tones.

    p[d, s] = budget(d) / len(tones) on the group's tones, 0 elsewhere.  A
    group with no tones keeps zero rows.
    """
    watts = np.zeros((scenario.num_devices, scenario.config.num_subcarriers))
    for members, tones in zip(groups, tone_sets):
        if len(tones):
            for dev in members:
                watts[dev, tones] = scenario.power_budgets[dev] / len(tones)
    return PowerMatrix(watts=watts)


def _cluster_rates(
    scenario: Scenario,
    assignment: ClusterAssignment,
    sub_map: SubcarrierMap,
    powers: PowerMatrix,
    cluster: int,
) -> np.ndarray:
    members = assignment.clusters[cluster]
    tones = sub_map.owned_by(cluster)
    if not members:
        return np.zeros(0)
    gains = scenario.gain_matrix[np.ix_(members, tones)]
    p = powers.watts[np.ix_(members, tones)]
    return sic_member_rates(
        gains, p, scenario.config.noise_per_subcarrier,
        scenario.config.subcarrier_bandwidth,
    )


def jain_fairness(rates) -> float:
    """Jain's index (sum r)^2 / (n * sum r^2), in (0, 1]."""
    arr = np.asarray(rates, dtype=float)
    if arr.size == 0:
        raise ValueError("rates must be nonempty")
    if np.any(arr < 0):
        raise ValueError("rates must be nonnegative")
    total_sq = float(arr @ arr)
    if total_sq == 0.0:
        raise DegenerateRatesError("all rates are zero; fairness is undefined")
    total = float(arr.sum())
    return total * total / (arr.size * total_sq)


def build_report(scenario: Scenario, rates: np.ndarray) -> RateReport:
    """Aggregate per-device rates into a RateReport."""
    rates = np.asarray(rates, dtype=float)
    satisfied = rates >= scenario.rate_thresholds
    try:
        fairness = jain_fairness(rates)
    except DegenerateRatesError:
        fairness = math.nan
    return RateReport(
        rates=rates,
        sum_rate=math.fsum(rates),
        fairness=fairness,
        satisfied=satisfied,
        satisfied_count=int(satisfied.sum()),
    )


def rate_report(
    scenario: Scenario,
    assignment: ClusterAssignment,
    sub_map: SubcarrierMap,
    powers: PowerMatrix,
) -> RateReport:
    """Rates for every device plus sum rate, fairness and QoS satisfaction."""
    rates = np.zeros(scenario.num_devices)
    slots = assignment.slots()
    for dev in range(scenario.num_devices):
        if dev not in slots:
            raise UnassignedDeviceError(f"device {dev} is in no cluster")
    for c in range(assignment.num_clusters):
        members = assignment.clusters[c]
        if members:
            rates[members] = _cluster_rates(scenario, assignment, sub_map, powers, c)
    return build_report(scenario, rates)


def sic_chain_mismatch(
    scenario: Scenario,
    assignment: ClusterAssignment,
    sub_map: SubcarrierMap,
    powers: PowerMatrix,
) -> float:
    """Worst relative error of the per-tone SIC telescoping identity.

    On any single tone the decode-and-subtract chain conserves capacity:
    the member rates sum to log2(1 + total received power / noise).
    Returns the largest relative mismatch over all clusters and owned
    tones (0.0 when nothing is allocated).
    """
    noise = scenario.config.noise_per_subcarrier
    worst = 0.0
    for c, members in enumerate(assignment.clusters):
        tones = sub_map.owned_by(c)
        if not members or tones.size == 0:
            continue
        received = (
            scenario.gain_matrix[np.ix_(members, tones)]
            * powers.watts[np.ix_(members, tones)]
        )
        chain = sic_log_terms(received, noise).sum(axis=0)
        direct = np.log1p(received.sum(axis=0) / noise)
        mismatch = np.abs(chain - direct) / np.maximum(np.abs(direct), 1e-300)
        worst = max(worst, float(mismatch.max()))
    return worst


def structural_violations(
    assignment: ClusterAssignment, scenario: Scenario
) -> list[Violation]:
    """Clustering constraints C5-C11 plus the rank capacity bound."""
    out = []
    k_max = scenario.config.max_rank
    seen: dict[int, int] = {}
    for c, members in enumerate(assignment.clusters):
        for dev in members:
            if dev in seen:
                out.append(
                    Violation(
                        "C8/C9",
                        f"device {dev} appears in clusters {seen[dev]} and {c}",
                    )
                )
            seen[dev] = c
            if dev < 0 or dev >= scenario.num_devices:
                out.append(Violation("C8/C9", f"unknown device id {dev}"))
        if len(members) == 1:
            out.append(Violation("C11", f"cluster {c} has a single member"))
        if len(members) > k_max:
            out.append(
                Violation(
                    "C8/C9",
                    f"cluster {c} has {len(members)} members but max_rank is {k_max}",
                )
            )
        seen_mmtc = False
        for rank, dev in enumerate(members):
            if 0 <= dev < scenario.num_devices:
                if scenario.is_urllc[dev]:
                    if seen_mmtc:
                        out.append(
                            Violation(
                                "C5",
                                f"URLLC device {dev} ranks below an mMTC in cluster {c}",
                            )
                        )
                else:
                    seen_mmtc = True
    for dev in range(scenario.num_devices):
        if dev not in seen:
            out.append(Violation("C8/C9", f"device {dev} is in no cluster"))
    return out


def validate(
    assignment: ClusterAssignment,
    sub_map: SubcarrierMap,
    powers: PowerMatrix,
    scenario: Scenario,
) -> list[Violation]:
    """All structural constraints (C2, C4-C18) as data, not exceptions.

    Rate thresholds (C1, C3) depend on achieved rates and are reported via
    :func:`rate_report` instead.  Constraints that the chosen data types
    make unrepresentable (one device per slot, contiguous ranks, binary
    indicators, one owner per subcarrier) never appear here.  The URLLC
    full-budget equality C4 is checked only for devices whose cluster owns
    spectrum; a cluster that received no subcarriers has nowhere to spend
    its budget.
    """
    out = list(structural_violations(assignment, scenario))
    cfg = scenario.config

    owner = sub_map.owner
    bad_owner = (owner < -1) | (owner >= assignment.num_clusters)
    for s in np.flatnonzero(bad_owner):
        out.append(Violation("C12", f"subcarrier {int(s)} owner {int(owner[s])} invalid"))

    assigned = int((owner >= 0).sum())
    if assigned * cfg.subcarrier_bandwidth > cfg.rb_bandwidth * (1 + 1e-12):
        out.append(
            Violation(
                "C13",
                f"{assigned} assigned subcarriers exceed the RB bandwidth",
            )
        )

    w = powers.watts
    neg = np.argwhere(w < 0)
    for d, s in neg[:10]:
        cid = "C15" if scenario.is_urllc[d] else "C14"
        out.append(Violation(cid, f"negative power p[{int(d)},{int(s)}]"))

    owned = [sub_map.owned_by(c) for c in range(assignment.num_clusters)]
    slots = assignment.slots()
    for dev in range(scenario.num_devices):
        if dev not in slots:
            continue  # already a C8/C9 violation
        cluster, _ = slots[dev]
        off = w[dev].copy()
        off[owned[cluster]] = 0.0
        if np.any(off > 0):
            s = int(np.flatnonzero(off > 0)[0])
            out.append(
                Violation(
                    "POWER_OWNERSHIP",
                    f"device {dev} transmits on subcarrier {s} outside cluster {cluster}",
                )
            )
        row_sum = float(w[dev].sum())
        budget = scenario.power_budgets[dev]
        if scenario.is_urllc[dev]:
            has_spectrum = owned[cluster].size > 0
            if has_spectrum and not math.isclose(
                row_sum, budget, rel_tol=BUDGET_RTOL, abs_tol=0.0
            ):
                out.append(
                    Violation(
                        "C4",
                        f"URLLC {dev} spends {row_sum!r} W, budget {budget!r} W",
                    )
                )
        else:
            if row_sum > budget * (1 + BUDGET_RTOL):
                out.append(
                    Violation(
                        "C2",
                        f"mMTC {dev} spends {row_sum!r} W over budget {budget!r} W",
                    )
                )
    return out
