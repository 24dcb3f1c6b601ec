"""Slow reference copy of the average-gain clustering.

This is ``nbiot_noma.clustering`` as it stood before each device class was
ordered once with ``np.lexsort``: a Python ``sorted`` keyed on numpy
scalars, front pops from the mMTC queue, and a per-device capacity test
in the URLLC loop.  Its logic is kept verbatim, minus a debug log of
URLLC-only clusters that had no effect on the output, so that the fast
version can be checked against it for equal cluster lists, exception
types and messages.
"""

from __future__ import annotations

import numpy as np

from nbiot_noma.clustering import average_gains
from nbiot_noma.errors import CapacityExceededError, SingletonClusterError
from nbiot_noma.scenario import Scenario


def _sorted_by_gain(scenario: Scenario, ids) -> list[int]:
    gains = average_gains(scenario)
    return sorted(ids, key=lambda d: (-gains[d], d))


def reference_cluster_urllc(scenario: Scenario, num_clusters: int) -> list[list[int]]:
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


def reference_cluster_mmtc(scenario: Scenario, partial: list[list[int]]) -> list[list[int]]:
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
    return clusters


def _repair_singletons(clusters, scenario: Scenario, k_max: int) -> None:
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


def reference_build_clusters(scenario: Scenario) -> list[list[int]]:
    return reference_cluster_mmtc(
        scenario, reference_cluster_urllc(scenario, scenario.config.num_clusters)
    )
