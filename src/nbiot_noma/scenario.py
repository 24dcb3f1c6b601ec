"""Reproducible NB-IoT uplink cell instances.

A scenario is a pure function of its configuration: device distances are
drawn uniformly in area over the annulus [min_distance, cell_radius],
per-subcarrier linear power gains follow ``h = Y * d**(-beta)`` with
``Y ~ Exponential(mean 1)`` (Rayleigh amplitude fading, so the power gain
is exponential), and rate thresholds are uniform over the configured
ranges.  All quantities are stored in linear SI units (W, W/Hz, Hz, bps,
m); dBm inputs are converted on the way in.

Draw order is fixed so that a seed fully determines the instance:
distances for all devices in id order, then fading for every
(device, subcarrier) pair in row-major order, then URLLC thresholds,
then mMTC thresholds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError

__all__ = [
    "DeviceKind",
    "ScenarioConfig",
    "Device",
    "Scenario",
    "dbm_to_watt",
    "watt_to_dbm",
    "channel_gain",
    "generate_scenario",
    "read_config_file",
]


def dbm_to_watt(dbm: float) -> float:
    """Convert dBm (or dBm/Hz) to W (or W/Hz)."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watt_to_dbm(watt: float) -> float:
    """Inverse of :func:`dbm_to_watt`; round-trips to 1e-12 relative."""
    return 10.0 * math.log10(watt) + 30.0


class DeviceKind(enum.Enum):
    URLLC = "urllc"
    MMTC = "mmtc"


@dataclass(frozen=True)
class ScenarioConfig:
    """Cell parameters.  Defaults follow the standard 48-tone NB-IoT uplink
    split of one 180 kHz resource block with 3.75 kHz tones."""

    num_urllc: int = 24
    num_mmtc: int = 72
    num_subcarriers: int = 48
    num_clusters: int = 24
    max_rank: int = 4
    subcarrier_bandwidth: float = 3750.0  # Hz
    rb_bandwidth: float = 180e3  # Hz
    cell_radius: float = 500.0  # m
    pathloss_exponent: float = 3.0
    noise_psd: float = dbm_to_watt(-173.0)  # W/Hz
    power_budget_urllc: float = dbm_to_watt(23.0)  # W
    power_budget_mmtc: float = dbm_to_watt(23.0)  # W
    urllc_rate_threshold_range: tuple[float, float] = (100.0, 20_000.0)  # bps
    mmtc_rate_threshold_range: tuple[float, float] = (100.0, 2_000.0)  # bps
    min_distance: float = 0.1  # m
    rng_seed: int = 0

    @property
    def num_devices(self) -> int:
        return self.num_urllc + self.num_mmtc

    @property
    def noise_per_subcarrier(self) -> float:
        """Noise power N0*W over one tone, in W."""
        return self.noise_psd * self.subcarrier_bandwidth

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming the first violated invariant."""
        if self.num_urllc < 0 or self.num_mmtc < 0:
            raise ConfigError("device counts must be nonnegative")
        if self.num_devices < 1:
            raise ConfigError("at least one device is required")
        for name in ("num_subcarriers", "num_clusters", "max_rank"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.max_rank < 2:
            raise ConfigError("max_rank must be >= 2 (clusters need two members)")
        if self.num_devices > self.num_clusters * self.max_rank:
            raise ConfigError(
                "num_urllc + num_mmtc exceeds num_clusters * max_rank "
                f"({self.num_devices} > {self.num_clusters * self.max_rank})"
            )
        positive = (
            "subcarrier_bandwidth",
            "rb_bandwidth",
            "cell_radius",
            "pathloss_exponent",
            "noise_psd",
            "power_budget_urllc",
            "power_budget_mmtc",
            "min_distance",
        )
        for name in positive:
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be strictly positive and finite")
        if self.num_subcarriers * self.subcarrier_bandwidth > self.rb_bandwidth * (
            1 + 1e-12
        ):
            raise ConfigError(
                "total subcarrier bandwidth exceeds the resource-block bandwidth"
            )
        if self.min_distance > self.cell_radius:
            raise ConfigError("min_distance must not exceed cell_radius")
        for name in ("urllc_rate_threshold_range", "mmtc_rate_threshold_range"):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi and math.isfinite(hi)):
                raise ConfigError(f"{name} must satisfy 0 <= min <= max < inf")


@dataclass(eq=False)
class Device:
    """One MTC device: per-subcarrier linear power gains plus QoS data."""

    id: int
    kind: DeviceKind
    gains: np.ndarray  # shape (S,), linear power gain per subcarrier
    rate_threshold: float  # bps
    power_budget: float  # W
    distance: float = math.nan  # m from the base station, when generated


@dataclass(eq=False)
class Scenario:
    """An immutable cell instance: treat all arrays as read-only.  A bad
    device raises :class:`ConfigError` naming it."""

    config: ScenarioConfig
    devices: tuple[Device, ...]

    def __post_init__(self):
        shape = (self.config.num_subcarriers,)
        for i, d in enumerate(self.devices):
            if d.id != i or np.shape(d.gains) != shape:
                raise ConfigError(f"device {i}: id {d.id} and gains of shape "
                                  f"{np.shape(d.gains)}, expected id {i}, shape {shape}")
        self.gain_matrix = np.vstack([d.gains for d in self.devices])
        self.rate_thresholds = np.array([d.rate_threshold for d in self.devices])
        self.power_budgets = np.array([d.power_budget for d in self.devices])
        self.is_urllc = np.array(
            [d.kind is DeviceKind.URLLC for d in self.devices], dtype=bool
        )
        g, b, t = self.gain_matrix, self.power_budgets, self.rate_thresholds
        for what, ok in (
            ("gains must be finite and >= 0", ((0 <= g) & (g < np.inf)).all(axis=1)),
            ("power budget must be finite and > 0", (0 < b) & (b < np.inf)),
            ("rate threshold must be finite and >= 0", (0 <= t) & (t < np.inf)),
        ):
            if not ok.all():
                raise ConfigError(f"device {int(np.argmin(ok))}: {what}")

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def urllc_ids(self) -> list[int]:
        return [d.id for d in self.devices if d.kind is DeviceKind.URLLC]

    def mmtc_ids(self) -> list[int]:
        return [d.id for d in self.devices if d.kind is DeviceKind.MMTC]


def channel_gain(fading: float, distance: float, exponent: float):
    """Linear power gain ``Y * d**(-beta)``; equals the fading draw at d = 1 m."""
    return fading * distance ** (-exponent)


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Draw a cell instance; identical (config, seed) gives identical output."""
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    n, s = config.num_devices, config.num_subcarriers

    # Uniform in area over the annulus: P(distance <= r) ~ r^2.
    u = rng.uniform(size=n)
    r_lo2 = config.min_distance**2
    distances = np.sqrt(r_lo2 + u * (config.cell_radius**2 - r_lo2))

    fading = rng.exponential(1.0, size=(n, s))
    gains = channel_gain(fading, distances[:, None], config.pathloss_exponent)

    lo, hi = config.urllc_rate_threshold_range
    urllc_thr = rng.uniform(lo, hi, size=config.num_urllc)
    lo, hi = config.mmtc_rate_threshold_range
    mmtc_thr = rng.uniform(lo, hi, size=config.num_mmtc)

    devices = []
    for i in range(config.num_urllc):
        devices.append(
            Device(i, DeviceKind.URLLC, gains[i], float(urllc_thr[i]),
                   config.power_budget_urllc, float(distances[i]))
        )
    for j in range(config.num_mmtc):
        i = config.num_urllc + j
        devices.append(
            Device(i, DeviceKind.MMTC, gains[i], float(mmtc_thr[j]),
                   config.power_budget_mmtc, float(distances[i]))
        )
    return Scenario(config=config, devices=tuple(devices))


_INT_FIELDS = {
    "num_urllc", "num_mmtc", "num_subcarriers", "num_clusters", "max_rank",
    "rng_seed",
}
_RANGE_FIELDS = {"urllc_rate_threshold_range", "mmtc_rate_threshold_range"}
_DBM_ALIASES = {
    "noise_psd_dbm": "noise_psd",
    "power_budget_urllc_dbm": "power_budget_urllc",
    "power_budget_mmtc_dbm": "power_budget_mmtc",
}


def _parse_value(key: str, raw: str):
    if key in _DBM_ALIASES:
        return dbm_to_watt(float(raw))
    if key in _RANGE_FIELDS:
        parts = [p for p in raw.replace(",", " ").split() if p]
        if len(parts) != 2:
            raise ValueError("expects two numbers (min, max)")
        return (float(parts[0]), float(parts[1]))
    if key in _INT_FIELDS:
        return int(raw)
    return float(raw)


def read_config_file(path) -> ScenarioConfig:
    """Parse a flat ``key = value`` text file into a ScenarioConfig.

    Keys match ScenarioConfig field names; ``#`` starts a comment.  dBm
    inputs use the ``_dbm``-suffixed keys (noise_psd_dbm,
    power_budget_urllc_dbm, power_budget_mmtc_dbm).  Unknown keys are an
    error.
    """
    known = {f.name for f in fields(ScenarioConfig)}
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in known and key not in _DBM_ALIASES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                overrides[_DBM_ALIASES.get(key, key)] = _parse_value(key, raw)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}:{lineno}: {key} = {raw!r}: {exc}") from None
    config = replace(ScenarioConfig(), **overrides)
    config.validate()
    return config
