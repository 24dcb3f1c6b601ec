"""Slow reference copies of the per-cluster SIC rate path.

These are ``sic_member_rates``, ``_cluster_rates``, ``rate_report``,
``sic_chain_mismatch`` and ``validate`` as they stood before the rate
model read every SIC term from one padded (rank, tone) table.  Each
cluster gathers its own (members, owned tones) block with ``np.ix_``, and
``validate`` builds each cluster's owned tones with ``owned_by``.  They
are kept verbatim so that the table version in ``nbiot_noma.rate_model``
can be checked against them for identical rates, reports and violation
lists.
"""

from __future__ import annotations

import math

import numpy as np

from nbiot_noma.errors import UnassignedDeviceError
from nbiot_noma.rate_model import (
    BUDGET_RTOL,
    ClusterAssignment,
    PowerMatrix,
    RateReport,
    SubcarrierMap,
    Violation,
    build_report,
    sic_log_terms,
    structural_violations,
)
from nbiot_noma.scenario import Scenario


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


def reference_rate_report(
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


def reference_sic_chain_mismatch(
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


def reference_validate(
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
