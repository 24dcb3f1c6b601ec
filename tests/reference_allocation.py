"""Slow reference copies of the greedy allocator and the OFDMA baseline.

These are the loops as they stood before the incremental rewrite:
``reference_allocate`` re-runs the SIC rates of every candidate cluster
over all of its owned tones at every step, and
``reference_ofdma_allocate`` recomputes every device's rate after each
tone.  They are kept verbatim so that the fast versions in
``nbiot_noma.allocation`` and ``nbiot_noma.baselines`` can be checked
against them for identical subcarrier maps, powers, rates and
``on_step`` sequences.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from nbiot_noma.baselines import half_tone_scenario
from nbiot_noma.errors import InvalidAssignmentError
from nbiot_noma.rate_model import (
    ClusterAssignment,
    PowerMatrix,
    RateReport,
    SubcarrierMap,
    build_report,
    structural_violations,
)
from nbiot_noma.scenario import Scenario

from reference_rate_model import sic_member_rates

_LOG2 = math.log(2.0)


def _powers_for(scenario: Scenario, clusters, owned_tones) -> PowerMatrix:
    watts = np.zeros((scenario.num_devices, scenario.config.num_subcarriers))
    for members, tones in zip(clusters, owned_tones):
        if tones:
            for dev in members:
                watts[dev, tones] = scenario.power_budgets[dev] / len(tones)
    return PowerMatrix(watts=watts)


def reference_allocate(
    scenario: Scenario,
    assignment: ClusterAssignment,
    on_step: Callable[[int, int, np.ndarray, int], None] | None = None,
) -> tuple[SubcarrierMap, PowerMatrix, RateReport]:
    """Run the greedy loop; returns the subcarrier map, powers and rates.

    ``on_step``, if given, is called after every assignment with
    (subcarrier, cluster, satisfied mask copy, phase) and exists for
    instrumentation in tests.
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

    owned: list[list[int]] = [[] for _ in range(num_c)]
    member_rates = [np.zeros(len(m)) for m in clusters]
    rates = np.zeros(scenario.num_devices)
    log2 = math.log(2.0)

    def eval_cluster(c: int, tones: list[int]) -> np.ndarray:
        members = clusters[c]
        if not members or not tones:
            return np.zeros(len(members))
        gains = scenario.gain_matrix[np.ix_(members, tones)]
        per_tone = budgets[members] / len(tones)
        powers = np.broadcast_to(per_tone[:, None], gains.shape)
        return sic_member_rates(gains, powers, noise, tone_bw)

    def commit(s: int, c: int, new_rates: np.ndarray, phase: int) -> None:
        owned[c].append(s)
        member_rates[c] = new_rates
        rates[clusters[c]] = new_rates
        if on_step is not None:
            on_step(s, c, rates >= thresholds, phase)

    satisfied = rates >= thresholds
    total = 0.0
    next_s = 0

    # Phase 1: serve clusters that still contain an unsatisfied device.
    while next_s < num_s and not satisfied.all():
        s = next_s
        best_c, best_total, best_rates = -1, -math.inf, None
        for c in range(num_c):
            members = clusters[c]
            if not members or satisfied[members].all():
                continue
            cand = eval_cluster(c, owned[c] + [s])
            cand_total = total - member_rates[c].sum() + cand.sum()
            if cand_total > best_total:
                best_c, best_total, best_rates = c, cand_total, cand
        if best_c < 0:
            break  # no nonempty cluster holds an unsatisfied device
        total = best_total
        commit(s, best_c, best_rates, phase=1)
        satisfied = rates >= thresholds
        next_s += 1

    # Phase 2: spend leftover spectrum on whichever cluster gains the most.
    for s in range(next_s, num_s):
        best_c, best_total, best_rates = -1, -math.inf, None
        for c in range(num_c):
            if not clusters[c]:
                continue
            cand = eval_cluster(c, owned[c] + [s])
            cand_total = total - member_rates[c].sum() + cand.sum()
            if cand_total > best_total:
                best_c, best_total, best_rates = c, cand_total, cand
        total = best_total
        commit(s, best_c, best_rates, phase=2)

    owner = np.full(num_s, -1, dtype=int)
    for c, tones in enumerate(owned):
        owner[tones] = c
    sub_map = SubcarrierMap(owner=owner)
    powers = _powers_for(scenario, clusters, owned)
    return sub_map, powers, build_report(scenario, rates)


def _oma_rates(scenario: Scenario, tones_of: list[list[int]]) -> np.ndarray:
    noise = scenario.config.noise_per_subcarrier
    bw = scenario.config.subcarrier_bandwidth
    rates = np.zeros(scenario.num_devices)
    for dev, tones in enumerate(tones_of):
        if tones:
            h = scenario.gain_matrix[dev, tones]
            p = scenario.power_budgets[dev] / len(tones)
            rates[dev] = bw * float(np.log1p(h * p / noise).sum()) / _LOG2
    return rates


def reference_ofdma_allocate(scenario: Scenario) -> tuple[np.ndarray, PowerMatrix, RateReport]:
    """Greedy one-device-per-subcarrier allocation.

    Each subcarrier (ascending index) goes to the unsatisfied device with
    the highest gain on it, or to the overall highest-gain device once
    everyone is satisfied.  A device splits its budget evenly over the
    tones it owns, so rates are plain interference-free Shannon rates.
    Returns (owner device per subcarrier with -1 for none, powers, report).
    """
    n = scenario.num_devices
    num_s = scenario.config.num_subcarriers
    owner = np.full(num_s, -1, dtype=int)
    tones_of: list[list[int]] = [[] for _ in range(n)]
    rates = np.zeros(n)
    thresholds = scenario.rate_thresholds

    for s in range(num_s):
        unsat = np.flatnonzero(rates < thresholds)
        pool = unsat if unsat.size else np.arange(n)
        dev = int(pool[np.argmax(scenario.gain_matrix[pool, s])])
        owner[s] = dev
        tones_of[dev].append(s)
        rates[dev] = _oma_rates(scenario, tones_of)[dev]

    watts = np.zeros((n, num_s))
    for dev, tones in enumerate(tones_of):
        if tones:
            watts[dev, tones] = scenario.power_budgets[dev] / len(tones)
    return owner, PowerMatrix(watts=watts), build_report(scenario, rates)


def reference_fast_ofdm_allocate(
    scenario: Scenario,
) -> tuple[np.ndarray, PowerMatrix, RateReport]:
    """OFDMA reference on the tone-split cell."""
    return reference_ofdma_allocate(half_tone_scenario(scenario))
