"""Average-gain user clustering.

Each device class is ordered once, by descending average channel gain
with ties broken toward the lower device id, and dealt into ranks from
that order.  URLLC devices take the lowest ranks, round-robin across
clusters; mMTC devices follow into the remaining slots.  A clustering is a
list of lists: ``clusters[c]`` holds cluster c's device ids in rank order.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityExceededError, SingletonClusterError
from .scenario import Scenario

__all__ = [
    "average_gains",
    "cluster_urllc",
    "cluster_mmtc",
    "build_clusters",
]


def average_gains(scenario: Scenario) -> np.ndarray:
    """Mean linear power gain of every device across all subcarriers."""
    return scenario.gain_matrix.mean(axis=1)


def _sorted_by_gain(gains: np.ndarray, ids: np.ndarray) -> list[int]:
    """``ids`` by descending gain, ties to the lower id."""
    return ids[np.lexsort((ids, -gains[ids]))].tolist()


def cluster_urllc(scenario: Scenario, num_clusters: int) -> list[list[int]]:
    """Place URLLC devices at the lowest ranks, strongest gain first.

    The i-th device of the sorted order goes to cluster i mod C; successive
    passes fill rank 1 of every cluster, then rank 2, and so on.
    """
    if num_clusters < 1:
        raise CapacityExceededError("need at least one cluster")
    k_max = scenario.config.max_rank
    urllc = np.flatnonzero(scenario.is_urllc)
    if len(urllc) > num_clusters * k_max:
        raise CapacityExceededError(
            f"{num_clusters * k_max + 1} URLLC devices exceed {num_clusters} clusters "
            f"x {k_max} ranks"
        )
    order = _sorted_by_gain(average_gains(scenario), urllc)
    return [order[c::num_clusters] for c in range(num_clusters)]


def cluster_mmtc(scenario: Scenario, partial: list[list[int]]) -> list[list[int]]:
    """Fill the remaining ranks with mMTC devices, strongest gain first.

    Empty clusters get their rank-1 member first (in cluster-index order);
    after that each pass adds one device to the lowest free rank of every
    non-full cluster.  Clusters that would end up with a single member are
    repaired by pulling the weakest mMTC out of the largest cluster.
    """
    k_max = scenario.config.max_rank
    clusters = [list(members) for members in partial]
    gains = average_gains(scenario)
    mmtc = _sorted_by_gain(gains, np.flatnonzero(~scenario.is_urllc))
    queue = iter(mmtc)
    # zip takes a cluster before a device, so it stops without losing one.
    empty = [members for members in clusters if not members]
    for members, dev in zip(empty, queue):
        members.append(dev)
    left = max(len(mmtc) - len(empty), 0)
    while left:
        open_clusters = [members for members in clusters if len(members) < k_max]
        if not open_clusters:
            raise CapacityExceededError(
                f"{left} mMTC devices left but every cluster is full"
            )
        for members, dev in zip(open_clusters, queue):
            members.append(dev)
        left = max(left - len(open_clusters), 0)

    _repair_singletons(clusters, scenario.is_urllc.tolist(), gains)
    return clusters


def _repair_singletons(clusters, is_urllc: list[bool], gains: np.ndarray) -> None:
    """Move the weakest mMTC of the largest donor into each singleton cluster.

    A donor must keep at least two members, so it needs three or more and
    at least one mMTC.  The moved device lands at the singleton's rank 2,
    which keeps the URLLC-before-mMTC order intact.
    """
    while True:
        singles = [c for c, members in enumerate(clusters) if len(members) == 1]
        if not singles:
            return
        target = singles[0]
        donors = [
            c
            for c, members in enumerate(clusters)
            if len(members) >= 3 and any(not is_urllc[d] for d in members)
        ]
        if not donors:
            raise SingletonClusterError(
                f"cluster {target} has one member and no cluster can donate an mMTC"
            )
        donor = max(donors, key=lambda c: (len(clusters[c]), -c))
        movable = [d for d in clusters[donor] if not is_urllc[d]]
        dev = min(movable, key=lambda d: (gains[d], -d))
        clusters[donor].remove(dev)
        clusters[target].append(dev)


def build_clusters(scenario: Scenario) -> list[list[int]]:
    """URLLC then mMTC clustering in one call, into the config's cluster count."""
    return cluster_mmtc(scenario, cluster_urllc(scenario, scenario.config.num_clusters))
