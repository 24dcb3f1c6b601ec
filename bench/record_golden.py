"""Rewrite bench/golden.json from the program as it stands.

The file holds, for each Monte Carlo workload and each golden seed, the
SHA-256 of ``harness.emit_csv`` output for one reference cycle of ops
(every sweep value once).  Every benchmark run replays the cycle of golden
seed ``--seed % seeds`` during its warm-up and fails on a mismatch, which
enforces byte-identical CSV under ``measure_runtime=False``.  Regenerate
only when the CSV is meant to change:

    python3 bench/record_golden.py
"""

import json
import platform

import run

SEEDS = 32


def main() -> None:
    nb = run.import_program()
    digests = {}
    for wl in run.WORKLOADS.values():
        if wl.sweep_variable is None:
            continue
        base = run.load_base(nb, wl)
        digests[wl.name] = []
        for seed in range(SEEDS):
            rows, failed, errors = run.reference_rows(nb, wl, base, seed)
            if failed:
                raise SystemExit(f"{wl.name} seed {seed}: {errors}")
            digests[wl.name].append(run.csv_digest(nb, rows)[0])
    import numpy
    import scipy

    golden = {
        "seeds": SEEDS,
        "recorded_with": {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__},
        "digests": digests,
    }
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
