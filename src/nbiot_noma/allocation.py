"""Greedy subcarrier-to-cluster allocation with equal-split power updates.

Subcarriers are visited in ascending index.  While any device misses its
rate threshold, the next subcarrier joins whichever still-unsatisfied
cluster maximizes the resulting total sum rate; once every threshold is
met the remaining subcarriers are distributed by the same argmax over all
clusters.  After each assignment every member of the receiving cluster
spreads its full power budget evenly over the cluster's owned tones, so
row sums stay exactly on budget instead of leaking a fraction per update.
Satisfaction is judged on rates recomputed after every assignment, never
extrapolated; the final report is the rate model's, read through the
slot table that the loop's slabs were built from.

Under equal split a tone's rates in a cluster depend only on the cluster,
the tone and how many tones the cluster owns.  So each cluster keeps a
candidate row: every member's rate if the cluster took each remaining
tone next, at the split that one more tone would bring.  A step is one
masked argmax over the row sums at the current tone; a commit rebuilds
the receiving cluster's row in place from one SIC call on its (rank,
tone) slab, and skips that when the commit closes the cluster in phase 1.
A step costs O(C) and a commit O(K*S) for C clusters of at most K members
and S tones, but on the standard cell numpy's per-call overhead dominates,
so owned tones, thresholds and the close test stay in Python lists and
per-device rates are kept only for an ``on_step`` hook.  Each phase opens
with one SIC call on the (rank, cluster, tone) stack that builds every
cluster's rows; ``rate_model.owned_sums`` sums the owned tones as a
rebuild does.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from .errors import InvalidAssignmentError, NonFiniteRateError
from .rate_model import (
    RateReport,
    _layout,
    _device_rates,
    build_report,
    equal_split_powers,
    owned_sums,
    sic_log_terms,
    structural_violations,
)
from .scenario import Scenario

__all__ = ["allocate"]


def allocate(
    scenario: Scenario,
    clusters: list[list[int]],
    on_step: Callable[[int, int, np.ndarray, int], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, RateReport]:
    """Run the greedy loop over the rank-ordered ``clusters``; returns (owner,
    watts, report): each tone's cluster (S,), every device's power on every
    tone (n, S) and the rates.

    ``on_step``, if given, is called after every assignment with
    (subcarrier, cluster, satisfied mask copy, phase) and exists for
    instrumentation in tests.  Raises
    :class:`~nbiot_noma.errors.NonFiniteRateError` when a candidate's sum
    rate is NaN or infinite.
    """
    violations = structural_violations(scenario, clusters)
    if violations:
        raise InvalidAssignmentError(violations)

    cfg = scenario.config
    num_s = cfg.num_subcarriers
    noise = cfg.noise_per_subcarrier
    tone_bw = cfg.subcarrier_bandwidth
    thresholds = scenario.rate_thresholds
    log2 = math.log(2.0)

    # Padding slots point at the sentinel device, which has zero gain, budget
    # and threshold, so it adds nothing and always counts as satisfied.
    slot_dev, group_of = _layout(clusters, scenario.num_devices)
    gains_ext = np.vstack([scenario.gain_matrix, np.zeros(num_s)])
    slabs = gains_ext[slot_dev]  # (C, K, S): each cluster's gains in rank order
    slot_budgets = np.append(scenario.power_budgets, 0.0)[slot_dev][:, :, None]
    slot_thresholds = np.append(thresholds, 0.0)[slot_dev]

    num_c, depth = slot_dev.shape
    owner = np.full(num_s, -1, dtype=int)
    # cand[c, s, k]: member k's rate, bps, if cluster c takes tone s next and
    # every member spreads its budget over one tone more than c owns;
    # cand_sum[s, c] is its sum over k.  cand is C-contiguous so that each
    # such sum adds one contiguous block of K slots, padding included; a
    # strided or unpadded sum can round differently.
    cand = np.empty((num_c, num_s, depth))
    cand_sum = np.empty((num_s, num_c))
    cluster_sum = np.zeros(num_c)  # current sum rate of each cluster, bps
    tones_of = [[] for _ in range(num_c)]  # each cluster's tones, ascending
    member_thresholds = slot_thresholds.tolist()
    rates = np.zeros(scenario.num_devices)  # kept for on_step only
    total = 0.0

    def build_rows(start: int) -> None:
        """Every cluster's candidate rows for tones ``start`` on, at the split
        its tones among the first ``start`` give it: one SIC call on the
        (K, C, S) stack."""
        owned = owner[:start]
        counts = np.bincount(owned, minlength=num_c)
        received = (slabs * (slot_budgets / (counts + 1)[:, None, None])).transpose(1, 0, 2)
        terms = sic_log_terms(received, noise)  # (K, C, S)
        rows = terms[:, :, start:]
        if start:  # with no owned tones the sums are zeros, and 0.0 + x is x
            # grown[c, k]: member k's sum of ln(1 + SINR) over c's owned tones.
            grown = owned_sums(terms[:, owned, np.arange(start)], owned, num_c)
            rows = grown.T[:, :, None] + rows
        cand[:, start:] = (tone_bw * rows / log2).transpose(1, 2, 0)
        cand_sum[start:] = cand[:, start:].sum(axis=2).T

    def rebuild(c: int, start: int) -> None:
        """Cluster c's candidate rows for tones ``start`` on, rebuilt in place."""
        tones = tones_of[c]
        terms = sic_log_terms(slabs[c] * (slot_budgets[c] / (len(tones) + 1)), noise)
        row = cand[c, start:]
        # grown[k]: member k's sum of ln(1 + SINR) over c's owned tones.
        grown = np.add.reduce(terms.take(tones, axis=1), axis=1)
        np.add(grown, terms[:, start:].T, out=row)
        row *= tone_bw
        row /= log2
        np.add.reduce(row, axis=1, out=cand_sum[start:, c])

    # open_[c]: cluster c holds an unsatisfied device.  Only a cluster's own
    # tones move its rates, so a commit changes only its own flag.
    open_ = (slot_thresholds > 0.0).any(axis=1)
    num_open = int(open_.sum())
    candidates, phase = open_, 1
    build_rows(0)
    for s in range(num_s):
        if phase == 1 and not num_open:
            # Phase 2: spend leftover spectrum on whichever cluster gains the
            # most.  Clusters closed in phase 1 rebuild their rows here.
            candidates, phase = slot_dev[:, 0] < scenario.num_devices, 2
            build_rows(s)
        # Give tone s to the candidate cluster that maximizes the total sum rate.
        cand_total = total - cluster_sum
        cand_total += cand_sum[s]
        cand_total = np.where(candidates, cand_total, -math.inf)
        # argmax keeps the first maximum, and returns the first NaN if any.
        c = int(cand_total.argmax())
        best = cand_total[c]
        if not math.isfinite(best):
            raise NonFiniteRateError(
                f"subcarrier {s}: cluster {c} would reach a sum rate of {best} bps"
            )
        members = clusters[c]
        new_rates = cand[c, s, : len(members)]
        owner[s] = c
        tones_of[c].append(s)
        cluster_sum[c] = np.add.reduce(new_rates)
        total = float(best)
        if on_step is not None:
            rates[members] = new_rates
            on_step(s, c, rates >= thresholds, phase)
        # Phase 1 serves clusters that still contain an unsatisfied device.  A
        # cluster that its commit closes cannot be picked again in this phase,
        # so its rows wait for phase 2.
        if phase == 1 and not any(map(operator.lt, new_rates.tolist(), member_thresholds[c])):
            open_[c] = False
            num_open -= 1
        elif s + 1 < num_s:
            rebuild(c, s + 1)

    watts = equal_split_powers(scenario, group_of, owner)
    return owner, watts, build_report(scenario, _device_rates(scenario, slot_dev, owner, watts))
