"""Monte Carlo experiment runner with paired scheme comparisons.

Every (sweep value, trial) pair derives one child seed from the master
seed, generates one scenario from it, and evaluates every requested
scheme on that same scenario, so scheme comparisons are paired.  Results
are canonicalized by (sweep value, scheme, seed) before emission, which
keeps CSV output byte-identical no matter how many workers ran the
trials.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .allocation import allocate
from .baselines import fast_ofdm_allocate, ofdma_allocate
from .clustering import build_clusters
from .errors import DomainError
from .rate_model import sic_chain_mismatch, validate
from .scenario import Scenario, ScenarioConfig, generate_scenario

__all__ = [
    "SWEEP_VARIABLES",
    "SCHEMES",
    "ExperimentSpec",
    "TrialResult",
    "MetricSummary",
    "run_experiment",
    "emit_csv",
    "summarize",
    "child_seed",
    "trial_config",
]

SWEEP_VARIABLES = ("total_devices", "k_max", "threshold_scale")
SCHEMES = ("noma", "ofdma", "fast_ofdm")

METRICS = ("sum_rate_bps", "fairness", "satisfied_count", "runtime_s")


@dataclass(frozen=True)
class ExperimentSpec:
    base_config: ScenarioConfig
    sweep_variable: str = "total_devices"
    sweep_values: tuple = ()
    trials: int = 100
    schemes: tuple[str, ...] = ("noma", "ofdma")
    mmtc_to_urllc_ratio: float = 3.0

    def validate(self) -> None:
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.sweep_variable!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.schemes or any(s not in SCHEMES for s in self.schemes):
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}")
        if not self.mmtc_to_urllc_ratio > 0:
            raise ValueError("mmtc_to_urllc_ratio must be positive")


@dataclass(frozen=True)
class TrialResult:
    seed: int
    scheme: str
    sweep_value: float
    sum_rate_bps: float
    fairness: float
    satisfied_count: int
    runtime_s: float
    error: str | None = None


def child_seed(master_seed: int, sweep_index: int, trial: int) -> int:
    """Deterministic per-trial seed; distinct (sweep, trial) pairs differ."""
    seq = np.random.SeedSequence((master_seed, sweep_index, trial))
    return int(seq.generate_state(1, np.uint64)[0])


def _split_devices(total: int, ratio: float) -> tuple[int, int]:
    """total devices -> (URLLC, mMTC) counts at the given mMTC:URLLC ratio."""
    urllc = int(round(total / (1.0 + ratio)))
    return urllc, total - urllc


def trial_config(spec: ExperimentSpec, sweep_value, seed: int) -> ScenarioConfig:
    """Base config specialized to one sweep point and one child seed.

    The cluster count is re-derived as ceil(devices / max_rank) whenever
    the sweep touches device counts or rank depth, keeping cluster
    capacity tight.
    """
    cfg = spec.base_config
    if spec.sweep_variable == "total_devices":
        urllc, mmtc = _split_devices(int(sweep_value), spec.mmtc_to_urllc_ratio)
        cfg = replace(
            cfg,
            num_urllc=urllc,
            num_mmtc=mmtc,
            num_clusters=math.ceil((urllc + mmtc) / cfg.max_rank),
        )
    elif spec.sweep_variable == "k_max":
        k = int(sweep_value)
        cfg = replace(
            cfg,
            max_rank=k,
            num_clusters=math.ceil(cfg.num_devices / k),
        )
    else:  # threshold_scale
        scale = float(sweep_value)
        lo_u, hi_u = cfg.urllc_rate_threshold_range
        lo_m, hi_m = cfg.mmtc_rate_threshold_range
        cfg = replace(
            cfg,
            urllc_rate_threshold_range=(lo_u * scale, hi_u * scale),
            mmtc_rate_threshold_range=(lo_m * scale, hi_m * scale),
        )
    return replace(cfg, rng_seed=seed)


def evaluate_scheme(scheme: str, scenario: Scenario, check: bool = False):
    """One scheme on one scenario; returns its RateReport."""
    if scheme == "noma":
        assignment = build_clusters(scenario)
        sub_map, powers, report = allocate(scenario, assignment)
        if check:
            violations = validate(assignment, sub_map, powers, scenario)
            if violations:
                raise AssertionError(
                    "pipeline output violates constraints: "
                    + "; ".join(str(v) for v in violations)
                )
            mismatch = sic_chain_mismatch(scenario, assignment, sub_map, powers)
            if not mismatch <= 1e-9:  # NaN fails too
                raise AssertionError(
                    f"SIC chain conservation off by {mismatch:.3e} relative"
                )
        return report
    if scheme == "ofdma":
        return ofdma_allocate(scenario)[2]
    if scheme == "fast_ofdm":
        return fast_ofdm_allocate(scenario)[2]
    raise ValueError(f"unknown scheme {scheme!r}")


def _run_trial(args) -> list[TrialResult]:
    spec, sweep_index, sweep_value, trial, measure_runtime, check = args
    seed = child_seed(spec.base_config.rng_seed, sweep_index, trial)
    out = []
    try:
        scenario = generate_scenario(trial_config(spec, sweep_value, seed))
    except DomainError as exc:  # config-level failure hits every scheme
        return [
            TrialResult(seed, scheme, sweep_value, math.nan, math.nan, 0, 0.0,
                        error=f"{type(exc).__name__}: {exc}")
            for scheme in spec.schemes
        ]
    for scheme in spec.schemes:
        start = time.perf_counter()
        try:
            report = evaluate_scheme(scheme, scenario, check=check)
        except DomainError as exc:
            out.append(
                TrialResult(seed, scheme, sweep_value, math.nan, math.nan, 0, 0.0,
                            error=f"{type(exc).__name__}: {exc}")
            )
            continue
        elapsed = time.perf_counter() - start if measure_runtime else 0.0
        out.append(
            TrialResult(
                seed=seed,
                scheme=scheme,
                sweep_value=sweep_value,
                sum_rate_bps=report.sum_rate,
                fairness=report.fairness,
                satisfied_count=report.satisfied_count,
                runtime_s=elapsed,
            )
        )
    return out


def run_experiment(
    spec: ExperimentSpec,
    *,
    workers: int = 1,
    measure_runtime: bool = True,
    check_invariants: bool = False,
) -> list[TrialResult]:
    """All (sweep value, trial, scheme) results, canonically ordered.

    Trials that raise a :class:`~nbiot_noma.errors.DomainError` come back
    as results with NaN metrics and the error string attached rather than
    being dropped; any other exception is a bug and propagates.
    ``measure_runtime=False`` zeroes the wall-clock field so two runs of
    the same spec produce byte-identical CSV output.
    """
    spec.validate()
    jobs = [
        (spec, i, value, t, measure_runtime, check_invariants)
        for i, value in enumerate(spec.sweep_values)
        for t in range(spec.trials)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_run_trial, jobs, chunksize=1))
    else:
        nested = [_run_trial(job) for job in jobs]
    results = [r for batch in nested for r in batch]
    results.sort(key=lambda r: (r.sweep_value, r.scheme, r.seed))
    return results


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.11e}"  # 12 significant digits


def emit_csv(results: list[TrialResult], path) -> None:
    """Write results as CSV with a fixed header and 12-significant-digit floats.

    Rows are sorted by (sweep_value, scheme, seed).  Raises on empty input
    before touching the filesystem.
    """
    if not results:
        raise ValueError("no results to emit; refusing to create an empty file")
    ordered = sorted(results, key=lambda r: (r.sweep_value, r.scheme, r.seed))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("seed,scheme,sweep_value,sum_rate_bps,fairness,satisfied_count,runtime_s\n")
        for r in ordered:
            fh.write(
                ",".join(
                    (
                        str(r.seed),
                        r.scheme,
                        _fmt(r.sweep_value),
                        _fmt(r.sum_rate_bps),
                        _fmt(r.fairness),
                        str(int(r.satisfied_count)),
                        _fmt(r.runtime_s),
                    )
                )
                + "\n"
            )


@dataclass
class MetricSummary:
    mean: float
    half_width: float | None  # 1.96 * s / sqrt(n); None when n < 2
    n: int


def summarize(results: list[TrialResult]) -> dict:
    """Per-(scheme, sweep value) mean and 95% normal-approximation interval.

    Means use exactly rounded compensated summation, so they do not
    depend on accumulation order.  Errored trials are excluded from the
    statistics; their count is reported per cell under ``"failed"``.
    """
    cells: dict[tuple, dict] = {}
    for r in results:
        cell = cells.setdefault(
            (r.scheme, r.sweep_value), {m: [] for m in METRICS} | {"failed": 0}
        )
        if r.error is not None:
            cell["failed"] += 1
            continue
        cell["sum_rate_bps"].append(r.sum_rate_bps)
        cell["fairness"].append(r.fairness)
        cell["satisfied_count"].append(float(r.satisfied_count))
        cell["runtime_s"].append(r.runtime_s)

    out = {}
    for key, cell in cells.items():
        summary = {"failed": cell["failed"]}
        for metric in METRICS:
            values = cell[metric]
            n = len(values)
            if n == 0:
                continue
            mean = math.fsum(values) / n
            half = None
            if n >= 2:
                var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
                half = 1.96 * math.sqrt(var / n)
            summary[metric] = MetricSummary(mean=mean, half_width=half, n=n)
        out[key] = summary
    return out
