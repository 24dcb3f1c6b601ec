"""Benchmark of the nbiot-noma simulator: Monte Carlo trial throughput and
oracle-suite latency, plus a traced run that times each package module.

    python3 bench/run.py --workload mc_kmax --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` beside this directory, never from an
installed copy.  One client drives it in a closed loop from one process
(workers=1): the next op starts when the previous one returns, and each op
is timed from outside the program.  Op inputs derive only from the
workload name, ``--seed`` and the op index.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` runs a fixed number of ops (sized from ``--seconds``), each
once untraced and once traced on the same input, and reports per-layer
metrics; span JSON lines go to ``.bench_out/``.

Lines before the last print every metric with its unit and the run
metadata.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
output checked out, 1 on any correctness failure, 2 when the program's
sources are missing.  See ``bench/README.md`` for the workload reasons.
"""

import time

SETUP_START = time.perf_counter()  # setup_s covers the imports below

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN_PATH = BENCH_DIR / "golden.json"
SETUP_REPEATS = 3  # setup_s is the median over this many set-ups
# op_tail_ms is the median, over up to TAIL_BLOCKS contiguous blocks of the run
# of at least TAIL_BLOCK_OPS ops each, of each block's TAIL_PERCENTILE op time
TAIL_PERCENTILE = 90
TAIL_BLOCKS = 5
TAIL_BLOCK_OPS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: dict = field(default_factory=dict)
    sweep_variable: str | None = None  # None: the op is one oracle-suite call
    sweep_values: tuple = (None,)
    schemes: tuple = ()
    # rough ops per second on a 2-CPU x86-64 host; sizes the traced run so
    # that its call counts are exact functions of the seed and --seconds
    nominal_ops_per_s: float = 1.0

    @property
    def cycle(self) -> int:
        """Ops per pass over the sweep values; runs stop on a cycle boundary."""
        return len(self.sweep_values)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_kmax",
            config="configs/cell_default.cfg",
            sweep_variable="k_max",
            sweep_values=(2, 4, 8),
            schemes=("noma", "ofdma"),
            nominal_ops_per_s=12.0,
        ),
        Workload(
            name="mc_connectivity",
            config="configs/cell_default.cfg",
            overrides={
                "max_rank": 2,
                "urllc_rate_threshold_range": (100.0, 100.0),
                "mmtc_rate_threshold_range": (100.0, 100.0),
            },
            sweep_variable="total_devices",
            sweep_values=(60, 96),
            schemes=("noma", "ofdma", "fast_ofdm"),
            nominal_ops_per_s=7.5,
        ),
        Workload(
            name="oracle_suite",
            config="configs/cell_small.cfg",
            nominal_ops_per_s=3.0,
        ),
    )
}


def op_seed(workload: str, seed: int, index: int) -> int:
    """The program's seed for one op: a hash of workload, seed and op index."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def import_program():
    """Import the package from this checkout's ``src/``; exit 2 if absent."""
    needed = [SRC / "nbiot_noma" / "__init__.py"]
    needed += sorted({ROOT / w.config for w in WORKLOADS.values()})
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: program sources missing: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    return types.SimpleNamespace(
        **{
            name: importlib.import_module(f"nbiot_noma.{name}")
            for name in ("scenario", "harness", "selfcheck", "baselines", "errors")
        }
    )


def load_base(nb, wl: Workload):
    return replace(nb.scenario.read_config_file(ROOT / wl.config), **wl.overrides)


def run_op(nb, wl: Workload, base, seed: int, index: int):
    """One op; returns (output, errors).  Errors make the op a failure."""
    try:
        if wl.sweep_variable is None:
            checks = nb.selfcheck.run_self_checks(base, seed=op_seed(wl.name, seed, index))
            return checks, [str(c) for c in checks if not c.passed]
        spec = nb.harness.ExperimentSpec(
            base_config=replace(base, rng_seed=op_seed(wl.name, seed, index)),
            sweep_variable=wl.sweep_variable,
            sweep_values=(wl.sweep_values[index % wl.cycle],),
            trials=1,
            schemes=wl.schemes,
            mmtc_to_urllc_ratio=3.0,
        )
        rows = nb.harness.run_experiment(spec, measure_runtime=False, check_invariants=True)
        return rows, [f"{r.scheme} seed {r.seed}: {r.error}" for r in rows if r.error]
    except Exception as exc:  # the op boundary: record the failure, keep measuring
        return None, [f"{type(exc).__name__}: {exc}"]


def csv_digest(nb, rows) -> tuple[str, int]:
    """SHA-256 and size of ``harness.emit_csv`` output for ``rows``."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"emit-{os.getpid()}.csv"
    try:
        nb.harness.emit_csv(rows, path)
        data = path.read_bytes()
    finally:
        path.unlink(missing_ok=True)
    return hashlib.sha256(data).hexdigest(), len(data)


def reference_rows(nb, wl: Workload, base, ref_seed: int):
    """One cycle of ops at a golden seed; returns (rows, failed ops, errors)."""
    rows, errors = [], []
    failed = 0
    for i in range(wl.cycle):
        out, errs = run_op(nb, wl, base, ref_seed, i)
        if wl.sweep_variable is not None:
            rows += out or []
        failed += bool(errs)
        errors += errs
    return rows, failed, errors


def warm_up(nb, wl: Workload, base, seed: int) -> tuple[int, int, list[str]]:
    """Untimed reference cycle; Monte Carlo CSV must match the golden digest.

    Returns (ops attempted, ops failed, messages).  On a digest mismatch
    every reference op counts as failed.
    """
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    ref_seed = seed % golden["seeds"]
    rows, failed, errors = reference_rows(nb, wl, base, ref_seed)
    if wl.sweep_variable is None or failed:
        return wl.cycle, failed, errors
    digest, _ = csv_digest(nb, rows)
    expected = golden["digests"][wl.name][ref_seed]
    if digest != expected:
        errors.append(f"{wl.name} CSV digest at golden seed {ref_seed} is {digest}, "
                      f"expected {expected}")
        return wl.cycle, wl.cycle, errors
    return wl.cycle, 0, []


def child_setup_s(wl: Workload, seed: int) -> tuple[float | None, str]:
    """Set-up time of a fresh interpreter running this script's set-up only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(seed), "--setup-only"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return None, "set-up child timed out"
    if proc.returncode != 0:
        output = (proc.stderr or proc.stdout).strip()[-300:]
        return None, f"set-up child exited {proc.returncode}: {output}"
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], ""


def tail(times_ns: list[int], cycle: int) -> tuple[float, list[int]]:
    """(ms, ops per block): the median over contiguous blocks of whole sweep
    cycles of each block's TAIL_PERCENTILE op time.

    A burst of load from elsewhere on the host slows a stretch of
    consecutive ops; it sets the tail of one block, not the median over
    blocks.  A run of fewer than 2 * TAIL_BLOCK_OPS ops is one block."""
    cycles = len(times_ns) // cycle
    blocks = max(1, min(TAIL_BLOCKS, len(times_ns) // TAIL_BLOCK_OPS))
    edges = [round(b * cycles / blocks) * cycle for b in range(blocks + 1)]
    tails, sizes = [], []
    for lo, hi in zip(edges, edges[1:]):
        ordered = sorted(times_ns[lo:hi])
        rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))  # nearest rank
        tails.append(ordered[rank - 1])
        sizes.append(hi - lo)
    return statistics.median(tails) / 1e6, sizes


def timed_run(nb, wl: Workload, base, seed: int, seconds: float):
    """Closed loop for ``seconds``, stopping on a sweep-cycle boundary."""
    times, rows, errors = [], [], []
    failed = 0
    cpu0 = time.process_time()
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    index = 0
    while True:
        t0 = time.perf_counter_ns()
        out, errs = run_op(nb, wl, base, seed, index)
        t1 = time.perf_counter_ns()
        times.append(t1 - t0)
        failed += bool(errs)
        errors += errs
        if wl.sweep_variable is not None:
            rows += out or []
        index += 1
        if t1 >= deadline and index % wl.cycle == 0:
            break
    elapsed_s = (time.perf_counter_ns() - start) / 1e9
    cpu_s = time.process_time() - cpu0
    tail_ms, block_sizes = tail(times, wl.cycle)
    metrics = {
        "ops_per_s": (index / elapsed_s, "1/s"),
        "op_p50_ms": (statistics.median(times) / 1e6, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "cpu_ms_per_op": (1e3 * cpu_s / index, "ms"),
    }
    meta = {"ops": index, "op_tail": {"percentile": TAIL_PERCENTILE,
                                      "block_ops": block_sizes}}
    if rows:
        meta["csv_sha256"], meta["csv_bytes"] = csv_digest(nb, rows)
    return index, failed, errors, metrics, meta


def traced_run(nb, wl: Workload, base, seed: int, seconds: float):
    """Each op once untraced and once traced, alternating which goes first."""
    cycles = max(1, math.ceil(seconds * wl.nominal_ops_per_s / 2 / wl.cycle))
    n = cycles * wl.cycle
    tracer = Tracer()
    spent_ns = {False: 0, True: 0}
    rows, errors = [], []
    failed = 0
    for index in range(n):
        outputs = {}
        # alternate per sweep cycle, so that each sweep value runs first both ways
        for traced in (False, True) if (index // wl.cycle) % 2 == 0 else (True, False):
            t0 = time.perf_counter_ns()
            with tracer.installed(nb, op=index) if traced else contextlib.nullcontext():
                outputs[traced] = run_op(nb, wl, base, seed, index)
            spent_ns[traced] += time.perf_counter_ns() - t0
        errs = outputs[True][1] + outputs[False][1]
        if outputs[True][0] != outputs[False][0]:
            errs.append(f"op {index}: tracing changed the program's output")
        failed += 2 * bool(errs)
        errors += errs
        if wl.sweep_variable is not None:
            rows += outputs[True][0] or []
    wall_ns = spent_ns[True]
    if rows:
        t0 = time.perf_counter_ns()
        with tracer.installed(nb, op=-1):
            csv_digest(nb, rows)
        wall_ns += time.perf_counter_ns() - t0

    replay = Tracer()
    with replay.installed(nb, op=0):
        run_op(nb, wl, base, seed, 0)
    if replay.op_counts(0) != tracer.op_counts(0):
        failed += 1
        errors.append(f"op 0 counts differ on replay: {replay.op_counts(0)} != "
                      f"{tracer.op_counts(0)}")

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (spent_ns[False] / spent_ns[True], "ratio")
    metrics["trace.ops"] = (n, "count")
    metrics["trace.wall_ms"] = (wall_ns / 1e6, "ms")
    metrics["trace.unattributed_ms"] = ((wall_ns - tracer.root_ns()) / 1e6, "ms")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_path)
    meta = {"ops": n, "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return 2 * n + 1, failed, errors, metrics, meta


def run_metadata(nb) -> dict:
    import numpy
    import scipy

    return {
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, parse the config, warm up, print setup_s and exit")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    nb = import_program()
    base = load_base(nb, wl)
    attempted, failed, errors = warm_up(nb, wl, base, args.seed)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "failed": failed, "errors": errors}))
        return 1 if failed else 0

    if args.trace:
        ops, op_failed, op_errors, metrics, meta = traced_run(
            nb, wl, base, args.seed, args.seconds)
    else:
        setups = [setup_s]
        for _ in range(SETUP_REPEATS - 1):
            child_s, err = child_setup_s(wl, args.seed)
            attempted += wl.cycle  # the child's reference cycle
            if err:
                failed += wl.cycle
                errors.append(err)
            else:
                setups.append(child_s)
        ops, op_failed, op_errors, metrics, meta = timed_run(
            nb, wl, base, args.seed, args.seconds)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        meta["setup_samples_s"] = setups
    attempted += ops
    failed += op_failed
    errors += op_errors
    meta.update(workload=wl.name, seed=args.seed, trace=args.trace, **run_metadata(nb))

    for message in errors[:20]:
        print(f"FAIL {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    if not args.trace:
        tail_note = meta["op_tail"]
        print(f"{'':45s} op_tail_ms is the median p{tail_note['percentile']} of "
              f"{len(tail_note['block_ops'])} blocks of {tail_note['block_ops']} ops")
        print(f"{'fail_ratio':45s} {failed / attempted:>16.6g} ratio "
              f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
