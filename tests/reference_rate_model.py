"""Slow reference copies of the per-cluster SIC rate path.

These are ``interference_below`` and ``sic_log_terms`` as they stood
before the SIC terms were built in one buffer; ``sic_member_rates``,
``_cluster_rates``, ``rate_report``, ``sic_chain_mismatch`` and
``validate`` as they stood before the rate model read every SIC term
from one padded (rank, tone) table;
``structural_violations`` as it stood before it hoisted its per-device
lookups, and ``equal_split_powers`` as it stood before it took a
device-to-group array.  Each cluster gathers its own (members, owned tones) block with
``np.ix_``, ``validate`` checks one device at a time, and the equal split
loops over groups and members.  ``_slots`` and ``_owned_by`` are the
former clustering class's ``slots`` and the subcarrier map's ``owned_by``.  They
are kept verbatim so that the array versions in ``nbiot_noma.rate_model``
can be checked against them for identical powers, rates, reports and
violation lists.
"""

from __future__ import annotations

import math

import numpy as np

from nbiot_noma.errors import UnassignedDeviceError
from nbiot_noma.rate_model import (
    BUDGET_RTOL,
    RateReport,
    Violation,
    build_report,
)
from nbiot_noma.scenario import Scenario


def _slots(clusters: list[list[int]]) -> dict[int, tuple[int, int]]:
    """device id -> (cluster index, 0-based rank)."""
    out = {}
    for c, members in enumerate(clusters):
        for rank, dev in enumerate(members):
            out[dev] = (c, rank)
    return out


def _owned_by(owner: np.ndarray, cluster: int) -> np.ndarray:
    return np.flatnonzero(owner == cluster)


def interference_below(received: np.ndarray) -> np.ndarray:
    """Exclusive suffix sums along axis 0: row k gets the sum of rows > k.

    Summed bottom-up rather than as total-minus-own, which would cancel
    catastrophically when a weak interferer sits under a strong signal.
    """
    below = np.zeros(received.shape)
    if received.shape[0] > 1:
        below[:-1] = received[:0:-1].cumsum(axis=0)[::-1]
    return below


def sic_log_terms(received: np.ndarray, noise_watts: float) -> np.ndarray:
    """ln(1 + SINR) of every entry, rows in rank order along axis 0.

    Each row is interfered by the received power of all rows below it
    (the lower-ranked members, decoded later).  Multiply by W / ln 2 for
    bps.
    """
    return np.log1p(received / (noise_watts + interference_below(received)))


def reference_equal_split_powers(scenario: Scenario, groups, tone_sets) -> np.ndarray:
    """Every member of a group spreads its budget evenly over the group's tones.

    p[d, s] = budget(d) / len(tones) on the group's tones, 0 elsewhere.  A
    group with no tones keeps zero rows.
    """
    watts = np.zeros((scenario.num_devices, scenario.config.num_subcarriers))
    for members, tones in zip(groups, tone_sets):
        if len(tones):
            for dev in members:
                watts[dev, tones] = scenario.power_budgets[dev] / len(tones)
    return watts


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
    clusters: list[list[int]],
    owner: np.ndarray,
    watts: np.ndarray,
    cluster: int,
) -> np.ndarray:
    members = clusters[cluster]
    tones = _owned_by(owner, cluster)
    if not members:
        return np.zeros(0)
    gains = scenario.gain_matrix[np.ix_(members, tones)]
    p = watts[np.ix_(members, tones)]
    return sic_member_rates(
        gains, p, scenario.config.noise_per_subcarrier,
        scenario.config.subcarrier_bandwidth,
    )


def reference_rate_report(
    scenario: Scenario,
    clusters: list[list[int]],
    owner: np.ndarray,
    watts: np.ndarray,
) -> RateReport:
    """Rates for every device plus sum rate, fairness and QoS satisfaction."""
    rates = np.zeros(scenario.num_devices)
    slots = _slots(clusters)
    for dev in range(scenario.num_devices):
        if dev not in slots:
            raise UnassignedDeviceError(f"device {dev} is in no cluster")
    for c in range(len(clusters)):
        members = clusters[c]
        if members:
            rates[members] = _cluster_rates(scenario, clusters, owner, watts, c)
    return build_report(scenario, rates)


def reference_sic_chain_mismatch(
    scenario: Scenario,
    clusters: list[list[int]],
    owner: np.ndarray,
    watts: np.ndarray,
) -> float:
    """Worst relative error of the per-tone SIC telescoping identity.

    On any single tone the decode-and-subtract chain conserves capacity:
    the member rates sum to log2(1 + total received power / noise).
    Returns the largest relative mismatch over all clusters and owned
    tones (0.0 when nothing is allocated).
    """
    noise = scenario.config.noise_per_subcarrier
    worst = 0.0
    for c, members in enumerate(clusters):
        tones = _owned_by(owner, c)
        if not members or tones.size == 0:
            continue
        received = (
            scenario.gain_matrix[np.ix_(members, tones)]
            * watts[np.ix_(members, tones)]
        )
        chain = sic_log_terms(received, noise).sum(axis=0)
        direct = np.log1p(received.sum(axis=0) / noise)
        mismatch = np.abs(chain - direct) / np.maximum(np.abs(direct), 1e-300)
        worst = max(worst, float(mismatch.max()))
    return worst


def reference_structural_violations(
    scenario: Scenario, clusters: list[list[int]]
) -> list[Violation]:
    """Clustering constraints C5-C11 plus the rank capacity bound."""
    out = []
    k_max = scenario.config.max_rank
    seen: dict[int, int] = {}
    for c, members in enumerate(clusters):
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


def reference_validate(
    scenario: Scenario,
    clusters: list[list[int]],
    owner: np.ndarray,
    watts: np.ndarray,
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
    out = list(reference_structural_violations(scenario, clusters))
    cfg = scenario.config

    bad_owner = (owner < -1) | (owner >= len(clusters))
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

    w = watts
    neg = np.argwhere(w < 0)
    for d, s in neg[:10]:
        cid = "C15" if scenario.is_urllc[d] else "C14"
        out.append(Violation(cid, f"negative power p[{int(d)},{int(s)}]"))

    owned = [_owned_by(owner, c) for c in range(len(clusters))]
    slots = _slots(clusters)
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
        budget = float(scenario.power_budgets[dev])
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
