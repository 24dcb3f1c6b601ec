"""Greedy subcarrier-to-cluster allocation with equal-split power updates.

Subcarriers are visited in ascending index.  While any device misses its
rate threshold, the next subcarrier joins whichever still-unsatisfied
cluster maximizes the resulting total sum rate; once every threshold is
met the remaining subcarriers are distributed by the same argmax over all
clusters.  After each assignment every member of the receiving cluster
spreads its full power budget evenly over the cluster's owned tones, so
row sums stay exactly on budget instead of leaking a fraction per update.
Rates and satisfaction flags are recomputed from the current powers after
every assignment, never extrapolated.

Under equal split a tone's rates in a cluster depend only on the cluster,
the tone and how many tones the cluster owns.  So each cluster keeps a
cached per-member rate sum over the tones it owns, evaluated at the split
that one more tone would bring.  A step scores every candidate cluster at
once: it computes the new tone's SIC rates on zero-padded
(cluster, rank) arrays and adds them to the caches.  After the commit
only the receiving cluster's cache is rebuilt, over its owned tones at
the next split.  With C clusters of at most K members, and k tones owned
by the receiving cluster, a step costs O(C*K + K*k) instead of
re-evaluating every candidate over all of its tones.  Final rates come
from :func:`~nbiot_noma.rate_model.rate_report` on the final map.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InvalidAssignmentError, NonFiniteRateError
from .rate_model import (
    ClusterAssignment,
    PowerMatrix,
    RateReport,
    SubcarrierMap,
    equal_split_powers,
    rate_report,
    sic_log_terms,
    structural_violations,
)
from .scenario import Scenario

__all__ = ["allocate"]


def allocate(
    scenario: Scenario,
    assignment: ClusterAssignment,
    on_step: Callable[[int, int, np.ndarray, int], None] | None = None,
) -> tuple[SubcarrierMap, PowerMatrix, RateReport]:
    """Run the greedy loop; returns the subcarrier map, powers and rates.

    ``on_step``, if given, is called after every assignment with
    (subcarrier, cluster, satisfied mask copy, phase) and exists for
    instrumentation in tests.  Raises
    :class:`~nbiot_noma.errors.NonFiniteRateError` when a candidate's sum
    rate is NaN or infinite.
    """
    violations = structural_violations(assignment, scenario)
    if violations:
        raise InvalidAssignmentError(violations)

    cfg = scenario.config
    num_s = cfg.num_subcarriers
    noise = cfg.noise_per_subcarrier
    tone_bw = cfg.subcarrier_bandwidth
    clusters = assignment.clusters
    num_c = len(clusters)
    budgets = scenario.power_budgets
    thresholds = scenario.rate_thresholds
    log2 = math.log(2.0)

    # Padding slots point at the sentinel device, which always counts as satisfied.
    slot_dev = assignment.slot_table(scenario.num_devices)
    gains_ext = np.vstack([scenario.gain_matrix, np.zeros(num_s)])
    tone_gains = np.ascontiguousarray(gains_ext.T[:, slot_dev])  # (S, C, K)
    slot_budgets = np.append(budgets, 0.0)[slot_dev]
    member_gains = [scenario.gain_matrix[members] for members in clusters]

    owner = np.full(num_s, -1, dtype=int)
    # split[c, k]: member k's per-tone power if cluster c gains one more tone.
    split = slot_budgets.copy()
    # grown[c, k]: member k's sum of ln(1 + SINR) over cluster c's owned
    # tones, at that split.
    grown = np.zeros(slot_dev.shape)
    cluster_sum = np.zeros(num_c)  # current sum rate of each cluster, bps
    rates = np.zeros(scenario.num_devices)
    total = 0.0

    def choose(s: int, candidates: np.ndarray) -> tuple[int, float, np.ndarray]:
        """Best candidate for tone s: (cluster, total sum rate, member rates)."""
        received = tone_gains[s] * split
        cand = tone_bw * (grown + sic_log_terms(received.T, noise).T) / log2
        cand_total = total - cluster_sum + cand.sum(axis=1)
        cand_total = np.where(candidates, cand_total, -math.inf)
        # argmax keeps the first maximum, and returns the first NaN if any.
        c = int(np.argmax(cand_total))
        if not math.isfinite(cand_total[c]):
            raise NonFiniteRateError(
                f"subcarrier {s}: cluster {c} would reach a sum rate of "
                f"{cand_total[c]} bps"
            )
        return c, float(cand_total[c]), cand[c]

    def commit(s: int, c: int, new_total: float, new_rates: np.ndarray, phase: int) -> None:
        """Give tone s to cluster c and rebuild that cluster's cache."""
        nonlocal total
        members = clusters[c]
        owner[s] = c
        tones = np.flatnonzero(owner == c)
        new_rates = new_rates[: len(members)]
        rates[members] = new_rates
        cluster_sum[c] = new_rates.sum()
        total = new_total
        split[c] = slot_budgets[c] / (len(tones) + 1)
        received = member_gains[c].take(tones, axis=1) * split[c, : len(members), None]
        grown[c, : len(members)] = sic_log_terms(received, noise).sum(axis=1)
        if on_step is not None:
            on_step(s, c, rates >= thresholds, phase)

    satisfied = np.append(rates >= thresholds, True)
    next_s = 0

    # Phase 1: serve clusters that still contain an unsatisfied device.
    while next_s < num_s and not satisfied.all():
        commit(next_s, *choose(next_s, ~satisfied[slot_dev].all(axis=1)), phase=1)
        satisfied[:-1] = rates >= thresholds
        next_s += 1

    # Phase 2: spend leftover spectrum on whichever cluster gains the most.
    nonempty = slot_dev[:, 0] < scenario.num_devices
    for s in range(next_s, num_s):
        commit(s, *choose(s, nonempty), phase=2)

    sub_map = SubcarrierMap(owner=owner)
    powers = equal_split_powers(scenario, assignment.cluster_of(scenario.num_devices), owner)
    return sub_map, powers, rate_report(scenario, assignment, sub_map, powers)
