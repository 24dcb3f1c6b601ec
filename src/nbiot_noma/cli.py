"""Command-line front end.

Subcommands: ``run`` (trials at the configured device counts), ``sweep``
(trials across a swept variable), ``validate`` (oracle/invariant suite on
tiny instances), and ``solve-power`` (one power subproblem with its grid
oracle gap).  Exit codes: 0 success, 1 usage error, 2 runtime failure,
3 validation failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace

import numpy as np

from .baselines import grid_power_oracle
from .errors import DomainError, GridResolutionError, InfeasibleClusterError
from .harness import SCHEMES, SWEEP_VARIABLES, ExperimentSpec, emit_csv, run_experiment, summarize
from .power_opt import OrderedCluster, find_feasible_tail, maximize_rates
from .scenario import read_config_file
from .selfcheck import run_self_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VALIDATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _add_common(parser):
    parser.add_argument("--config", required=True, help="scenario config file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (defaults to the config's rng_seed)")
    parser.add_argument("--schemes", default="noma,ofdma",
                        help=f"comma-separated subset of {','.join(SCHEMES)}")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--ratio", type=float, default=None,
                        help="mMTC:URLLC device ratio (default from config counts)")


def _build_parser():
    parser = _Parser(prog="nbiot-noma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="Monte Carlo trials at the configured size")
    _add_common(run_p)
    run_p.set_defaults(var="total_devices", values=None)

    sweep_p = sub.add_parser("sweep", help="Monte Carlo trials across a swept variable")
    _add_common(sweep_p)
    sweep_p.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated sweep values, e.g. 20,40,60")

    val_p = sub.add_parser("validate", help="oracle/invariant suite on tiny instances")
    val_p.add_argument("--config", required=True)
    val_p.add_argument("--seed", type=int, default=0)

    solve_p = sub.add_parser("solve-power", help="solve one cluster power subproblem")
    solve_p.add_argument("--lambdas", required=True,
                         help="comma-separated normalized gains, ascending (1/W)")
    solve_p.add_argument("--thresholds", required=True,
                         help="comma-separated rate thresholds (bps)")
    solve_p.add_argument("--pmax", type=float, required=True, help="total power (W)")
    solve_p.add_argument("--bandwidth", type=float, default=1.0,
                         help="bandwidth factor in front of the log terms (Hz)")
    return parser


def _cmd_sweep(args) -> int:
    """``sweep``, and ``run`` as a one-point sweep at the configured device count."""
    config = read_config_file(args.config)
    # a bad argument value is a usage error, raised before any trial runs
    try:
        if args.values is None:
            values = [config.num_devices]
        else:
            values = _csv_floats(args.values)
            if args.var in ("total_devices", "k_max"):
                values = [int(v) for v in values]
        if args.seed is not None:
            config = replace(config, rng_seed=args.seed)
        if args.ratio is not None:
            ratio = args.ratio
        elif config.num_urllc > 0:
            ratio = config.num_mmtc / config.num_urllc
        else:
            ratio = float("inf")
        schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
        spec = ExperimentSpec(
            base_config=config,
            sweep_variable=args.var,
            sweep_values=tuple(values),
            trials=args.trials,
            schemes=schemes,
            mmtc_to_urllc_ratio=ratio,
        )
        spec.validate()
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    results = run_experiment(spec, workers=args.workers)
    emit_csv(results, args.out)
    _print_summary(results)
    return EXIT_OK


def _print_summary(results):
    summary = summarize(results)
    for (scheme, value), cell in sorted(summary.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        rate = cell.get("sum_rate_bps")
        fair = cell.get("fairness")
        sat = cell.get("satisfied_count")
        if rate is None:
            print(f"{scheme:>10} @ {value}: all {cell['failed']} trials failed")
            continue
        half = f" +- {rate.half_width:.3e}" if rate.half_width is not None else ""
        print(
            f"{scheme:>10} @ {value}: sum rate {rate.mean:.6e} bps{half}, "
            f"Jain {fair.mean:.4f}, satisfied {sat.mean:.2f}"
            + (f", {cell['failed']} failed" if cell["failed"] else "")
        )


def _cmd_validate(args) -> int:
    config = read_config_file(args.config)
    checks = run_self_checks(config, seed=args.seed)
    for check in checks:
        print(check)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VALIDATION


def _cmd_solve_power(args) -> int:
    try:
        cluster = OrderedCluster(
            normalized_gains=np.array(_csv_floats(args.lambdas)),
            rate_thresholds=np.array(_csv_floats(args.thresholds)),
            total_power=args.pmax,
            bandwidth_hz=args.bandwidth,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if find_feasible_tail(cluster) is None:
        print("infeasible: thresholds unreachable within the power budget")
        return EXIT_OK
    solution = maximize_rates(cluster)
    print("powers_w:", ",".join(f"{p:.9e}" for p in solution.powers))
    print(f"objective_bps: {solution.objective:.9e}")
    print(f"optimality_gap_bps: {solution.optimality_gap:.3e}")
    if cluster.size <= 3:
        try:
            _, grid_obj = grid_power_oracle(cluster, cluster.total_power / 1000.0)
            rel = (solution.objective - grid_obj) / max(abs(grid_obj), 1e-300)
            print(f"grid_oracle_bps: {grid_obj:.9e} (solver-minus-grid {rel:+.3e} relative)")
        except GridResolutionError as exc:
            print(f"grid_oracle: {exc}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command in ("run", "sweep"):
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "solve-power":
            return _cmd_solve_power(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleClusterError as exc:
        print(f"infeasible: {exc}")
        return EXIT_OK
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME
    return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
