import dataclasses
import math
import re

import numpy as np
import pytest

from nbiot_noma.harness import (
    ExperimentSpec,
    TrialResult,
    child_seed,
    emit_csv,
    run_experiment,
    summarize,
    trial_config,
)
from nbiot_noma.scenario import ScenarioConfig, generate_scenario


def small_spec(**overrides):
    base = dataclasses.replace(
        ScenarioConfig(),
        num_urllc=3,
        num_mmtc=9,
        num_clusters=3,
        num_subcarriers=12,
        rb_bandwidth=12 * 3750.0,
        rng_seed=99,
    )
    defaults = dict(
        base_config=base,
        sweep_variable="total_devices",
        sweep_values=(12,),
        trials=3,
        schemes=("noma", "ofdma"),
        mmtc_to_urllc_ratio=3.0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_single_trial_single_scheme(self):
        spec = small_spec(trials=1, schemes=("ofdma",))
        results = run_experiment(spec)
        assert len(results) == 1
        assert results[0].scheme == "ofdma"
        assert results[0].error is None

    def test_results_keep_no_instance_dict(self):
        # A run holds every result until its CSV is written, so a result
        # stores its fields in slots, without a per-instance dict.
        (result,) = run_experiment(small_spec(trials=1, schemes=("ofdma",)))
        assert not hasattr(result, "__dict__")

    def test_result_grid_complete(self):
        spec = small_spec(sweep_values=(8, 12), trials=2)
        results = run_experiment(spec)
        assert len(results) == 2 * 2 * 2
        assert all(r.error is None for r in results)

    def test_paired_schemes_share_seed(self):
        spec = small_spec(trials=2)
        results = run_experiment(spec)
        by_trial = {}
        for r in results:
            by_trial.setdefault((r.sweep_value, r.seed), []).append(r.scheme)
        for schemes in by_trial.values():
            assert sorted(schemes) == ["noma", "ofdma"]

    def test_deterministic_results(self):
        spec = small_spec()
        a = run_experiment(spec, measure_runtime=False)
        b = run_experiment(spec, measure_runtime=False)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        spec = small_spec(trials=2)
        serial = run_experiment(spec, measure_runtime=False)
        parallel = run_experiment(spec, workers=2, measure_runtime=False)
        assert serial == parallel

    @pytest.mark.parametrize("workers, trials, pool_size", [(512, 1, 1), (2, 3, 2)])
    def test_pool_size_capped_by_job_count(self, monkeypatch, workers, trials, pool_size):
        # Under fork a pool starts all of its processes at the first submit,
        # so it must hold no more than one per trial, and a pool of one is
        # not started: its trial runs in this process.  The fake pool records
        # its size and maps serially; no process starts.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        spec = small_spec(trials=trials, schemes=("ofdma",))
        results = run_experiment(spec, workers=workers, measure_runtime=False)
        assert sizes == ([pool_size] if pool_size > 1 else [])
        assert results == run_experiment(spec, measure_runtime=False)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected_before_any_trial(self, monkeypatch, workers):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("nbiot_noma.harness.generate_scenario", no_trial)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_experiment(small_spec(trials=1), workers=workers)

    def test_failed_trial_recorded_with_error(self):
        # 3 devices with max_rank=2 force a 2-cluster split where one
        # cluster is a singleton and no repair exists
        base = dataclasses.replace(
            ScenarioConfig(),
            num_urllc=1,
            num_mmtc=2,
            num_clusters=2,
            max_rank=2,
            num_subcarriers=4,
            rb_bandwidth=4 * 3750.0,
        )
        spec = small_spec(base_config=base, sweep_values=(3,), trials=1)
        results = run_experiment(spec)
        noma = [r for r in results if r.scheme == "noma"][0]
        ofdma = [r for r in results if r.scheme == "ofdma"][0]
        assert noma.error is not None and "Singleton" in noma.error
        assert math.isnan(noma.sum_rate_bps)
        assert ofdma.error is None

    def test_bug_in_a_scheme_propagates(self, monkeypatch):
        # only nbiot_noma.errors types become error rows; a bug must not
        # turn into quiet NaN rows
        def broken(*args, **kwargs):
            raise TypeError("broken allocator")

        monkeypatch.setattr("nbiot_noma.harness.allocate", broken)
        with pytest.raises(TypeError, match="broken allocator"):
            run_experiment(small_spec(trials=1))

    def test_invariant_checks_enabled(self):
        spec = small_spec(trials=2)
        results = run_experiment(spec, check_invariants=True)
        assert all(r.error is None for r in results)


class TestChildSeeds:
    def test_distinct_across_grid(self):
        seeds = {
            child_seed(7, i, t) for i in range(6) for t in range(50)
        }
        assert len(seeds) == 6 * 50

    def test_deterministic(self):
        assert child_seed(1, 2, 3) == child_seed(1, 2, 3)

    def test_scenarios_identical_for_same_child_seed(self):
        spec = small_spec()
        seed = child_seed(spec.base_config.rng_seed, 0, 0)
        cfg = trial_config(spec, 12, seed)
        a, b = generate_scenario(cfg), generate_scenario(cfg)
        assert np.array_equal(a.gain_matrix, b.gain_matrix)


class TestTrialConfig:
    def test_device_split_ratio(self):
        spec = small_spec()
        cfg = trial_config(spec, 40, seed=1)
        assert cfg.num_urllc == 10
        assert cfg.num_mmtc == 30
        assert cfg.num_clusters == math.ceil(40 / cfg.max_rank)

    def test_k_max_sweep_rederives_clusters(self):
        spec = small_spec(sweep_variable="k_max", sweep_values=(2, 4))
        cfg = trial_config(spec, 2, seed=1)
        assert cfg.max_rank == 2
        assert cfg.num_clusters == math.ceil(12 / 2)

    def test_threshold_scale(self):
        spec = small_spec(sweep_variable="threshold_scale", sweep_values=(0.5,))
        cfg = trial_config(spec, 0.5, seed=1)
        lo, hi = spec.base_config.mmtc_rate_threshold_range
        assert cfg.mmtc_rate_threshold_range == (lo * 0.5, hi * 0.5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(sweep_values=()).validate()
        with pytest.raises(ValueError):
            small_spec(schemes=("tdma",)).validate()

    @pytest.mark.parametrize(
        "variable, value",
        [("k_max", 0), ("k_max", 1), ("k_max", -1), ("k_max", 2.5),
         ("total_devices", 0), ("total_devices", 2.7), ("total_devices", math.inf),
         ("total_devices", True), ("k_max", True), ("threshold_scale", -0.5),
         ("threshold_scale", math.inf), ("threshold_scale", math.nan),
         ("threshold_scale", False), ("total_devices", np.True_)],
    )
    def test_spec_rejects_sweep_value_that_cannot_make_a_cell(self, variable, value):
        spec = small_spec(sweep_variable=variable, sweep_values=(4, value))
        with pytest.raises(ValueError, match=rf"{variable} value {value!r} must be"):
            spec.validate()

    @pytest.mark.parametrize("trials", [0, -1, 2.5, 2.0, "3", None, True])
    def test_spec_rejects_trials_that_are_not_a_positive_integer(self, trials):
        with pytest.raises(ValueError, match=rf"^trials must be an integer >= 1, got {trials!r}$"):
            small_spec(trials=trials).validate()

    def test_spec_rejects_negative_seed(self):
        base = dataclasses.replace(small_spec().base_config, rng_seed=-1)
        with pytest.raises(ValueError, match="rng_seed must be nonnegative"):
            small_spec(base_config=base).validate()

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
    def test_spec_rejects_seed_that_is_not_an_integer(self, seed):
        base = dataclasses.replace(small_spec().base_config, rng_seed=seed)
        message = rf"^rng_seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            small_spec(base_config=base).validate()

    def test_spec_accepts_integral_floats_and_zero_scale(self):
        small_spec(sweep_variable="k_max", sweep_values=(2.0, 4)).validate()
        small_spec(sweep_variable="threshold_scale", sweep_values=(0.0, 2.5)).validate()
        small_spec(trials=np.int64(2)).validate()


class TestEmitCsv:
    def test_round_trip_12_digits(self, tmp_path):
        spec = small_spec(trials=2)
        results = run_experiment(spec)
        path = tmp_path / "out.csv"
        emit_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "seed,scheme,sweep_value,sum_rate_bps,fairness,satisfied_count,runtime_s"
        )
        assert len(lines) == 1 + len(results)
        for line, result in zip(lines[1:], sorted(
            results, key=lambda r: (r.sweep_value, r.scheme, r.seed)
        )):
            seed, scheme, value, rate, fair, count, _ = line.split(",")
            assert int(seed) == result.seed
            assert scheme == result.scheme
            assert float(rate) == pytest.approx(result.sum_rate_bps, rel=1e-11)
            assert float(fair) == pytest.approx(result.fairness, rel=1e-11)
            assert int(count) == result.satisfied_count

    def test_byte_identical_for_identical_specs(self, tmp_path):
        spec = small_spec()
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(spec, measure_runtime=False), a_path)
        emit_csv(run_experiment(spec, measure_runtime=False), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_empty_results_no_file(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit_csv([], path)
        assert not path.exists()

    def test_rows_sorted(self, tmp_path):
        rows = [
            TrialResult(5, "ofdma", 20, 1.0, 0.5, 1, 0.0),
            TrialResult(1, "noma", 10, 2.0, 0.6, 2, 0.0),
            TrialResult(3, "noma", 20, 3.0, 0.7, 3, 0.0),
        ]
        path = tmp_path / "sorted.csv"
        emit_csv(rows, path)
        emitted = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert emitted == ["1", "3", "5"]


class TestSummarize:
    def make_results(self, values):
        return [
            TrialResult(i, "noma", 10, v, 0.5, 3, 0.01) for i, v in enumerate(values)
        ]

    def test_hand_computed_interval(self):
        summary = summarize(self.make_results([1.0, 2.0, 3.0]))
        cell = summary[("noma", 10)]["sum_rate_bps"]
        assert cell.mean == pytest.approx(2.0, rel=1e-15)
        assert cell.half_width == pytest.approx(1.96 / math.sqrt(3.0), rel=1e-12)

    def test_identical_values_zero_width(self):
        summary = summarize(self.make_results([4.0, 4.0, 4.0, 4.0]))
        assert summary[("noma", 10)]["sum_rate_bps"].half_width == 0.0

    def test_single_trial_mean_only(self):
        summary = summarize(self.make_results([7.0]))
        cell = summary[("noma", 10)]["sum_rate_bps"]
        assert cell.mean == 7.0
        assert cell.half_width is None

    def test_errored_trials_excluded(self):
        rows = self.make_results([1.0, 3.0])
        rows.append(
            TrialResult(9, "noma", 10, math.nan, math.nan, 0, 0.0, error="boom")
        )
        summary = summarize(rows)
        cell = summary[("noma", 10)]
        assert cell["failed"] == 1
        assert cell["sum_rate_bps"].mean == pytest.approx(2.0)
        assert cell["sum_rate_bps"].n == 2
