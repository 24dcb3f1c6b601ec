"""Average-gain user clustering.

URLLC devices are sorted by descending average channel gain and placed at
the lowest ranks, round-robin across clusters; mMTC devices follow into
the remaining slots.  Ties in average gain break toward the lower device
id so the result is deterministic.  A clustering is a list of lists:
``clusters[c]`` holds cluster c's device ids in rank order.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import CapacityExceededError, SingletonClusterError
from .scenario import Scenario

__all__ = [
    "average_gains",
    "cluster_urllc",
    "cluster_mmtc",
    "build_clusters",
]

log = logging.getLogger(__name__)


def average_gains(scenario: Scenario) -> np.ndarray:
    """Mean linear power gain of every device across all subcarriers."""
    return scenario.gain_matrix.mean(axis=1)


def _sorted_by_gain(scenario: Scenario, ids) -> list[int]:
    gains = average_gains(scenario)
    return sorted(ids, key=lambda d: (-gains[d], d))


def cluster_urllc(scenario: Scenario, num_clusters: int) -> list[list[int]]:
    """Place URLLC devices at the lowest ranks, strongest gain first.

    The i-th device of the sorted order goes to cluster i mod C; successive
    passes fill rank 1 of every cluster, then rank 2, and so on.
    """
    if num_clusters < 1:
        raise CapacityExceededError("need at least one cluster")
    k_max = scenario.config.max_rank
    clusters: list[list[int]] = [[] for _ in range(num_clusters)]
    urllc = np.flatnonzero(scenario.is_urllc).tolist()
    for i, dev in enumerate(_sorted_by_gain(scenario, urllc)):
        if i // num_clusters >= k_max:
            raise CapacityExceededError(
                f"{i + 1} URLLC devices exceed {num_clusters} clusters "
                f"x {k_max} ranks"
            )
        clusters[i % num_clusters].append(dev)
    return clusters


def cluster_mmtc(scenario: Scenario, partial: list[list[int]]) -> list[list[int]]:
    """Fill the remaining ranks with mMTC devices, strongest gain first.

    Empty clusters get their rank-1 member first (in cluster-index order);
    after that each pass adds one device to the lowest free rank of every
    non-full cluster.  Clusters that would end up with a single member are
    repaired by pulling the weakest mMTC out of the largest cluster.
    """
    k_max = scenario.config.max_rank
    clusters = [list(members) for members in partial]
    queue = _sorted_by_gain(scenario, np.flatnonzero(~scenario.is_urllc).tolist())

    for members in clusters:
        if not queue:
            break
        if not members:
            members.append(queue.pop(0))

    while queue:
        placed = False
        for members in clusters:
            if not queue:
                break
            if len(members) < k_max:
                members.append(queue.pop(0))
                placed = True
        if not placed:
            raise CapacityExceededError(
                f"{len(queue)} mMTC devices left but every cluster is full"
            )

    _repair_singletons(clusters, scenario, k_max)

    for c, members in enumerate(clusters):
        if members and all(scenario.is_urllc[d] for d in members):
            log.debug("cluster %d contains only URLLC devices", c)
    return clusters


def _repair_singletons(clusters, scenario: Scenario, k_max: int) -> None:
    """Move the weakest mMTC of the largest donor into each singleton cluster.

    A donor must keep at least two members, so it needs three or more and
    at least one mMTC.  The moved device lands at the singleton's rank 2,
    which keeps the URLLC-before-mMTC order intact.
    """
    gains = average_gains(scenario)
    while True:
        singles = [c for c, members in enumerate(clusters) if len(members) == 1]
        if not singles:
            return
        target = singles[0]
        donors = [
            c
            for c, members in enumerate(clusters)
            if len(members) >= 3 and any(not scenario.is_urllc[d] for d in members)
        ]
        if not donors:
            raise SingletonClusterError(
                f"cluster {target} has one member and no cluster can donate an mMTC"
            )
        donor = max(donors, key=lambda c: (len(clusters[c]), -c))
        movable = [d for d in clusters[donor] if not scenario.is_urllc[d]]
        dev = min(movable, key=lambda d: (gains[d], -d))
        clusters[donor].remove(dev)
        clusters[target].append(dev)


def build_clusters(scenario: Scenario) -> list[list[int]]:
    """URLLC then mMTC clustering in one call, into the config's cluster count."""
    return cluster_mmtc(scenario, cluster_urllc(scenario, scenario.config.num_clusters))
