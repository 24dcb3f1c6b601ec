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
A clustering is a list of lists: ``clusters[c]`` is cluster c's devices in rank order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRatesError,
    InvalidAssignmentError,
    InvalidPowerError,
    UnassignedDeviceError,
)
from .scenario import Scenario

__all__ = [
    "RateReport",
    "Violation",
    "sic_log_terms",
    "owned_sums",
    "equal_split_powers",
    "rate_report",
    "build_report",
    "jain_fairness",
    "validate",
    "structural_violations",
    "cluster_of",
]

# Relative tolerance for power-budget equality/limits (C2, C4).
BUDGET_RTOL = 1e-9


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


def _is_device_id(dev, num_devices: int) -> bool:
    """Whether a cluster member names a device: a Python or numpy integer,
    not a bool, in [0, num_devices)."""
    return (type(dev) is int or isinstance(dev, np.integer)) and 0 <= dev < num_devices


def _unknown_ids(clusters: list[list[int]], num_devices: int) -> list:
    """The members that are not device ids, in listing order.  A Python int
    takes the fast path: its range test, without the predicate's call."""
    return [
        dev
        for members in clusters
        for dev in members
        if not (0 <= dev < num_devices if type(dev) is int else _is_device_id(dev, num_devices))
    ]


def cluster_of(clusters: list[list[int]], num_devices: int) -> np.ndarray:
    """device id -> the cluster listing it, else -1.  A device listed twice
    maps to its last cluster and members that are not device ids are
    skipped; :func:`structural_violations` reports both."""
    if _unknown_ids(clusters, num_devices):
        clusters = [[d for d in members if _is_device_id(d, num_devices)] for members in clusters]
    out = [-1] * num_devices
    for c, members in enumerate(clusters):
        for dev in members:
            out[dev] = c
    return np.array(out)


def _layout(clusters: list[list[int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (C, K) slot table, (cluster, rank) -> device id, and the (n,)
    :func:`cluster_of` map of members already checked to be device ids.
    Short clusters are padded with the sentinel id ``n``, which callers give
    zero gain and power, so a padding slot adds nothing to any sum."""
    depth = max(map(len, clusters), default=0)
    pad = [n] * depth
    rows = [[*members, *pad[len(members) :]] for members in clusters]
    table = np.array(rows, dtype=int).reshape(len(clusters), depth)
    group_of = np.full(n + 1, -1)
    group_of[table] = np.arange(len(clusters))[:, None]  # a later cluster overwrites
    return table, group_of[:n]


def sic_log_terms(received: np.ndarray, noise_watts: float) -> np.ndarray:
    """ln(1 + SINR) of every entry, rows in rank order along axis 0.

    Each row is interfered by the received power of all rows below it
    (the lower-ranked members, decoded later).  Multiply by W / ln 2 for
    bps.  The interference is summed bottom-up, as a running sum of the
    reversed rows, rather than as total-minus-own, which would cancel
    catastrophically when a weak interferer sits under a strong signal.
    """
    out = np.zeros(received.shape)
    np.add.accumulate(received[:0:-1], axis=0, out=out[-2::-1])
    out += noise_watts
    np.divide(received, out, out=out)
    return np.log1p(out, out=out)


def owned_sums(terms: np.ndarray, owners: np.ndarray, num_groups: int) -> np.ndarray:
    """(G, K) sums: row k of ``terms`` (K, T) over the columns that ``owners``
    (T,) gives to group g, in column order; 0 for a group with no column.

    Groups owning m columns are summed from one C-contiguous (G, K, m) block:
    numpy adds 8 or more contiguous elements in eight lanes, so a strided,
    zero-padded or ``np.add.reduceat`` sum rounds differently.
    """
    counts = np.bincount(owners, minlength=num_groups)
    order = np.argsort(owners, kind="stable")  # each group's columns in one run
    size = counts[owners[order]]
    sums = np.zeros((num_groups, terms.shape[0]))
    for m in set(counts.tolist()) - {0}:
        cols = order[size == m].reshape(-1, m)
        sums[counts == m] = np.ascontiguousarray(terms[:, cols].transpose(1, 0, 2)).sum(axis=2)
    return sums


def equal_split_powers(scenario: Scenario, group_of, owner) -> np.ndarray:
    """Every device spreads its budget evenly over its group's tones.

    ``group_of[d]`` is device d's group and ``owner[s]`` the group that owns
    tone s, -1 meaning none.  Returns the (n, S) watts: p[d, s] =
    budget(d) / (tones its group owns) on those tones, 0 elsewhere; a group
    with no tones keeps zero rows.  Stacked inputs, ``group_of`` (B, n) and
    ``owner`` (B, S), give the (B, n, S) watts of B allocations.
    """
    owner = owner[..., None, :]
    on = (owner >= 0) & (owner == group_of[..., :, None])
    share = scenario.power_budgets / np.maximum(on.sum(axis=-1), 1)
    return np.where(on, share[..., None], 0.0)


def _check_allocation(scenario: Scenario, owner: np.ndarray, watts: np.ndarray) -> None:
    """Reject an allocation that does not fit the cell: ``owner`` must be an
    integer (S,) vector and ``watts`` an (n, S) matrix."""
    num_s = scenario.config.num_subcarriers
    if owner.shape != (num_s,) or owner.dtype.kind not in "iu":
        msg = f"owner has shape {owner.shape} and dtype {owner.dtype}, not integer ({num_s},)"
        raise InvalidAssignmentError([Violation("C12", msg)])
    if watts.shape != (scenario.num_devices, num_s):
        raise InvalidPowerError(
            f"watts has shape {watts.shape}, not ({scenario.num_devices}, {num_s})"
        )


def _sic_table(scenario, table, owner, watts):
    """(groups (T,), received power (K, T), ln(1 + SINR) (K, T)) over the T
    (allocation, tone) pairs with a valid owner, allocation by allocation.

    ``table`` (B, C, K), ``owner`` (B, S) and ``watts`` (B, n, S) hold B
    allocations of one scenario, or one without the B axis.  Pair (b, s)
    is group b*C + owner[b, s]; its column holds that cluster's members
    in rank order, read from allocation b's :func:`_layout` table.
    """
    num_s = scenario.config.num_subcarriers
    num_c, depth = table.shape[-2:]
    owner = owner.reshape(-1, num_s)
    b, tones = np.nonzero((owner >= 0) & (owner < num_c))
    groups = b * num_c + owner[b, tones].astype(np.intp)
    power = np.zeros((len(owner), scenario.num_devices + 1, num_s))  # a zero row for padding
    np.multiply(scenario.gain_matrix, watts, out=power[:, :-1])
    members = table.reshape(len(owner) * num_c, depth)[groups].T
    received = power[b, members, tones]
    return groups, received, sic_log_terms(received, scenario.config.noise_per_subcarrier)


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


def _checked_layout(scenario, clusters, owner, watts):
    """The front door of :func:`rate_report` and :func:`sic_chain_mismatch`:
    the shapes, then the member ids (C8/C9 on the first unknown), then the layout."""
    _check_allocation(scenario, owner, watts)
    unknown = _unknown_ids(clusters, scenario.num_devices)
    if unknown:
        raise InvalidAssignmentError([Violation("C8/C9", f"unknown device id {unknown[0]!r}")])
    return _layout(clusters, scenario.num_devices)


def _device_rates(scenario, table, owner, watts) -> np.ndarray:
    """Every device's rate, bps, under checked allocations on their
    clusterings' slot tables, shaped as :func:`_sic_table` takes them:
    (B, n), or (n,) for one.  One :func:`owned_sums` call over every
    (allocation, cluster) group, scattered through each allocation's table
    (padding onto a dropped entry), so a device listed twice gets its last
    cluster's rate."""
    n = scenario.num_devices
    groups, _, terms = _sic_table(scenario, table, owner, watts)
    batch = owner.shape[:-1]
    num_b, size = math.prod(batch), table.shape[-2] * table.shape[-1]
    rates = np.zeros((num_b, n + 1))
    sums = owned_sums(terms, groups, num_b * table.shape[-2])
    rates[np.arange(num_b)[:, None], table.reshape(num_b, size)] = sums.reshape(num_b, size)
    bps = scenario.config.subcarrier_bandwidth * rates[:, :n] / math.log(2.0)
    return bps.reshape(*batch, n)


def rate_report(
    scenario: Scenario,
    clusters: list[list[int]],
    owner: np.ndarray,
    watts: np.ndarray,
) -> RateReport:
    """Rates for every device plus sum rate, fairness and QoS satisfaction.

    ``owner[s]`` is tone s's cluster, -1 for none, and ``watts[d, s]``
    device d's power on it.  A misshapen ``owner`` or a non-integer one
    raises ``InvalidAssignmentError``, misshapen ``watts``
    ``InvalidPowerError``.  Then the first cluster member that is not a
    device id (an integer, not a bool, in [0, n)) raises
    ``InvalidAssignmentError``, the first device in no cluster
    ``UnassignedDeviceError`` and the first negative or non-finite power
    ``InvalidPowerError``.  A device listed in two clusters gets its last
    cluster's rate."""
    table, group_of = _checked_layout(scenario, clusters, owner, watts)
    unplaced = np.flatnonzero(group_of < 0)
    if unplaced.size:
        raise UnassignedDeviceError(f"device {unplaced[0]} is in no cluster")
    ok = (watts >= 0) & (watts < np.inf)
    if not ok.all():
        d, s = np.argwhere(~ok)[0]
        raise InvalidPowerError(f"device {d} has power {float(watts[d, s])!r} W on subcarrier {s}")
    return build_report(scenario, _device_rates(scenario, table, owner, watts))


def sic_chain_mismatch(
    scenario: Scenario,
    clusters: list[list[int]],
    owner: np.ndarray,
    watts: np.ndarray,
) -> float:
    """Worst relative error of the per-tone SIC telescoping identity.

    On any single tone the decode-and-subtract chain conserves capacity:
    the member rates sum to log2(1 + total received power / noise).
    Returns the largest relative mismatch over all owned tones (0.0 when
    nothing is allocated).  Misshapen arrays and members that are not
    device ids raise as in :func:`rate_report`.
    """
    table, _ = _checked_layout(scenario, clusters, owner, watts)
    _, received, terms = _sic_table(scenario, table, owner, watts)
    chain = terms.sum(axis=0)
    direct = np.log1p(received.sum(axis=0) / scenario.config.noise_per_subcarrier)
    mismatch = np.abs(chain - direct) / np.maximum(np.abs(direct), 1e-300)
    return float(mismatch.max(initial=0.0))


def structural_violations(scenario: Scenario, clusters: list[list[int]]) -> list[Violation]:
    """Clustering constraints C5-C11 plus the rank capacity bound.  A member
    that is not a device id is reported as unknown where it is listed and
    places no device."""
    out = []
    n = scenario.num_devices
    is_urllc = scenario.is_urllc.tolist()
    k_max = scenario.config.max_rank
    seen: dict[int, int] = {}
    for c, members in enumerate(clusters):
        misranked = []  # C5, reported after the cluster's size checks
        seen_mmtc = False
        for dev in members:
            # the fast path of _unknown_ids, inline: this loop runs every trial
            if not (0 <= dev < n if type(dev) is int else _is_device_id(dev, n)):
                out.append(Violation("C8/C9", f"unknown device id {dev!r}"))
                continue
            if dev in seen:
                msg = f"device {dev} appears in clusters {seen[dev]} and {c}"
                out.append(Violation("C8/C9", msg))
            seen[dev] = c
            if not is_urllc[dev]:
                seen_mmtc = True
            elif seen_mmtc:
                msg = f"URLLC device {dev} ranks below an mMTC in cluster {c}"
                misranked.append(Violation("C5", msg))
        if len(members) == 1:
            out.append(Violation("C11", f"cluster {c} has a single member"))
        if len(members) > k_max:
            msg = f"cluster {c} has {len(members)} members but max_rank is {k_max}"
            out.append(Violation("C8/C9", msg))
        out += misranked
    for dev in sorted(set(range(n)).difference(seen)):
        out.append(Violation("C8/C9", f"device {dev} is in no cluster"))
    return out


def validate(
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
    its budget.  Misshapen arrays raise as in :func:`rate_report`.
    """
    _check_allocation(scenario, owner, watts)
    out = list(structural_violations(scenario, clusters))
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

    neg = np.argwhere(watts < 0)
    for d, s in neg[:10]:
        cid = "C15" if scenario.is_urllc[d] else "C14"
        out.append(Violation(cid, f"negative power p[{int(d)},{int(s)}]"))

    placed = cluster_of(clusters, scenario.num_devices)
    foreign = owner != placed[:, None]
    off = (watts > 0) & foreign
    off_any = off.any(axis=1)
    # Row sums of a C-contiguous array keep each row's pairwise order.
    row_sums = np.ascontiguousarray(watts).sum(axis=1)
    budgets = scenario.power_budgets
    diff = np.abs(row_sums - budgets)
    # As math.isclose(row_sum, budget, rel_tol=BUDGET_RTOL): never for inf or NaN.
    close = np.isfinite(row_sums) & (
        (diff <= BUDGET_RTOL * budgets) | (diff <= BUDGET_RTOL * np.abs(row_sums))
    )
    c4 = scenario.is_urllc & ~foreign.all(axis=1) & ~close
    c2 = ~scenario.is_urllc & (row_sums > budgets * (1 + BUDGET_RTOL))
    # An unplaced device is already a C8/C9 violation.
    for dev in np.flatnonzero((placed >= 0) & (off_any | c4 | c2)):
        row_sum, budget = float(row_sums[dev]), float(budgets[dev])
        if off_any[dev]:
            tone, cluster = off[dev].argmax(), placed[dev]
            msg = f"device {dev} transmits on subcarrier {tone} outside cluster {cluster}"
            out.append(Violation("POWER_OWNERSHIP", msg))
        if c4[dev]:
            msg = f"URLLC {dev} spends {row_sum!r} W, budget {budget!r} W"
            out.append(Violation("C4", msg))
        if c2[dev]:
            msg = f"mMTC {dev} spends {row_sum!r} W over budget {budget!r} W"
            out.append(Violation("C2", msg))
    return out
