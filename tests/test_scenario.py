import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbiot_noma.errors import ConfigError
from nbiot_noma.scenario import (
    Device,
    DeviceKind,
    Scenario,
    ScenarioConfig,
    channel_gain,
    dbm_to_watt,
    generate_scenario,
    read_config_file,
    watt_to_dbm,
)


class TestDbConversions:
    def test_definitions(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-15)
        assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-15)

    def test_23_dbm(self):
        # 10**(-0.7), evaluated independently with mpmath
        assert dbm_to_watt(23.0) == pytest.approx(0.19952623149688796, rel=1e-14)

    @given(st.floats(min_value=-200.0, max_value=100.0))
    def test_round_trip(self, dbm):
        assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm, rel=1e-12, abs=1e-12)


class TestConfig:
    def test_section_v_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.num_subcarriers == 48
        assert cfg.subcarrier_bandwidth == 3750.0
        assert cfg.pathloss_exponent == 3.0
        assert cfg.noise_psd == pytest.approx(dbm_to_watt(-173.0))
        assert cfg.power_budget_urllc == pytest.approx(dbm_to_watt(23.0))
        assert cfg.power_budget_mmtc == pytest.approx(dbm_to_watt(23.0))
        assert cfg.mmtc_rate_threshold_range == (100.0, 2000.0)
        assert cfg.min_distance == 0.1
        cfg.validate()

    def test_capacity_invariant_reported_first(self):
        cfg = dataclasses.replace(ScenarioConfig(), num_urllc=200, num_mmtc=200)
        with pytest.raises(ConfigError, match="num_clusters"):
            cfg.validate()

    def test_bandwidth_budget(self):
        cfg = dataclasses.replace(ScenarioConfig(), rb_bandwidth=100.0)
        with pytest.raises(ConfigError, match="bandwidth"):
            cfg.validate()

    @pytest.mark.parametrize(
        "name",
        [
            "subcarrier_bandwidth",
            "rb_bandwidth",
            "cell_radius",
            "pathloss_exponent",
            "noise_psd",
            "power_budget_urllc",
            "power_budget_mmtc",
            "min_distance",
        ],
    )
    def test_infinite_value_rejected(self, name):
        cfg = dataclasses.replace(ScenarioConfig(), **{name: math.inf})
        with pytest.raises(ConfigError, match=name):
            cfg.validate()

    @pytest.mark.parametrize(
        "bounds", [(100.0, math.inf), (math.inf, math.inf), (math.nan, 1.0)]
    )
    @pytest.mark.parametrize(
        "name", ["urllc_rate_threshold_range", "mmtc_rate_threshold_range"]
    )
    def test_non_finite_threshold_range_rejected(self, name, bounds):
        cfg = dataclasses.replace(ScenarioConfig(), **{name: bounds})
        with pytest.raises(ConfigError, match=name):
            cfg.validate()

    def test_max_rank_floor(self):
        cfg = dataclasses.replace(
            ScenarioConfig(), max_rank=1, num_urllc=2, num_mmtc=2, num_clusters=4
        )
        with pytest.raises(ConfigError, match="max_rank"):
            cfg.validate()


class TestHandBuiltScenario:
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("gain", math.nan, "gain"),
            ("gain", math.inf, "gain"),
            ("gain", -1.0, "gain"),
            ("budget", math.inf, "budget"),
            ("budget", math.nan, "budget"),
            ("budget", 0.0, "budget"),
            ("budget", -1.0, "budget"),
            ("threshold", math.nan, "threshold"),
            ("threshold", math.inf, "threshold"),
            ("threshold", -1.0, "threshold"),
        ],
        ids=[
            "nan_gain", "inf_gain", "negative_gain", "inf_budget", "nan_budget",
            "zero_budget", "negative_budget", "nan_threshold", "inf_threshold",
            "negative_threshold",
        ],
    )
    def test_bad_device_value_rejected(self, scenario_factory, field, value, match):
        # the bad value sits on device 2, so the message must name it
        gains = np.ones((4, 2))
        budgets, thresholds = [1.0] * 4, [0.0] * 4
        if field == "gain":
            gains[2, 1] = value
        elif field == "budget":
            budgets[2] = value
        else:
            thresholds[2] = value
        with pytest.raises(ConfigError, match=f"device 2: .*{match}"):
            scenario_factory(gains, "mmmm", budgets=budgets, thresholds=thresholds)

    def test_wrong_gain_shape_rejected(self):
        cfg = ScenarioConfig(num_urllc=0, num_mmtc=2, num_subcarriers=3, num_clusters=1)
        devices = (
            Device(0, DeviceKind.MMTC, np.ones(3), 0.0, 1.0),
            Device(1, DeviceKind.MMTC, np.ones(2), 0.0, 1.0),
        )
        with pytest.raises(ConfigError, match=r"device 1: id 1 and gains of shape \(2,\)"):
            Scenario(config=cfg, devices=devices)

    def test_id_must_equal_index(self):
        cfg = ScenarioConfig(num_urllc=0, num_mmtc=2, num_subcarriers=3, num_clusters=1)
        devices = (
            Device(0, DeviceKind.MMTC, np.ones(3), 0.0, 1.0),
            Device(5, DeviceKind.MMTC, np.ones(3), 0.0, 1.0),
        )
        with pytest.raises(ConfigError, match="device 1: id 5 "):
            Scenario(config=cfg, devices=devices)


class TestGeneration:
    def test_unit_distance_identity(self):
        assert channel_gain(1.0, 1.0, 3.0) == 1.0

    def test_gains_equal_fading_at_unit_distance(self):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            num_urllc=2,
            num_mmtc=2,
            num_clusters=2,
            min_distance=1.0,
            cell_radius=1.0,
        )
        sc = generate_scenario(cfg)
        for dev in sc.devices:
            assert dev.distance == 1.0
        # h = Y * 1**-beta = Y, so gains are the raw exponential draws
        assert np.all(sc.gain_matrix > 0)

    def test_determinism(self):
        cfg = dataclasses.replace(ScenarioConfig(), rng_seed=42)
        a = generate_scenario(cfg)
        b = generate_scenario(cfg)
        assert np.array_equal(a.gain_matrix, b.gain_matrix)
        assert np.array_equal(a.rate_thresholds, b.rate_thresholds)
        assert [d.distance for d in a.devices] == [d.distance for d in b.devices]

    def test_different_seeds_differ(self):
        a = generate_scenario(dataclasses.replace(ScenarioConfig(), rng_seed=1))
        b = generate_scenario(dataclasses.replace(ScenarioConfig(), rng_seed=2))
        assert not np.array_equal(a.gain_matrix, b.gain_matrix)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_distance_bounds_and_positivity(self, seed):
        cfg = dataclasses.replace(
            ScenarioConfig(), num_urllc=3, num_mmtc=9, num_clusters=3, rng_seed=seed
        )
        sc = generate_scenario(cfg)
        for dev in sc.devices:
            assert cfg.min_distance <= dev.distance <= cfg.cell_radius
        assert np.all(sc.gain_matrix > 0)

    def test_fading_mean_near_one(self):
        # 2500 devices x 48 tones = 120k exponential draws at unit distance
        cfg = dataclasses.replace(
            ScenarioConfig(),
            num_urllc=0,
            num_mmtc=2500,
            num_clusters=1250,
            max_rank=2,
            min_distance=1.0,
            cell_radius=1.0,
            rng_seed=7,
        )
        sc = generate_scenario(cfg)
        assert sc.gain_matrix.size >= 10**5
        assert 0.98 <= sc.gain_matrix.mean() <= 1.02

    def test_thresholds_within_ranges(self):
        cfg = ScenarioConfig(rng_seed=5)
        sc = generate_scenario(cfg)
        lo, hi = cfg.urllc_rate_threshold_range
        for dev in sc.devices[: cfg.num_urllc]:
            assert lo <= dev.rate_threshold <= hi
        lo, hi = cfg.mmtc_rate_threshold_range
        for dev in sc.devices[cfg.num_urllc :]:
            assert lo <= dev.rate_threshold <= hi

    def test_device_ordering(self):
        sc = generate_scenario(ScenarioConfig())
        kinds = [d.kind.value for d in sc.devices]
        assert kinds == ["urllc"] * 24 + ["mmtc"] * 72


class TestConfigFile:
    def test_parse_with_dbm_and_comments(self, tmp_path):
        path = tmp_path / "cell.cfg"
        path.write_text(
            "# test cell\n"
            "num_urllc = 4\n"
            "num_mmtc = 12\n"
            "num_clusters = 4\n"
            "max_rank = 4\n"
            "power_budget_mmtc_dbm = 20  # dBm\n"
            "noise_psd_dbm = -173\n"
            "mmtc_rate_threshold_range = 50, 1000\n"
        )
        cfg = read_config_file(path)
        assert cfg.num_urllc == 4
        assert cfg.power_budget_mmtc == pytest.approx(dbm_to_watt(20.0))
        assert cfg.noise_psd == pytest.approx(dbm_to_watt(-173.0))
        assert cfg.mmtc_rate_threshold_range == (50.0, 1000.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cell.cfg"
        path.write_text("frequency = 900\n")
        with pytest.raises(ConfigError, match="unknown key"):
            read_config_file(path)

    def test_infinite_budget_rejected(self, tmp_path):
        path = tmp_path / "cell.cfg"
        path.write_text("power_budget_mmtc_dbm = inf\n")
        with pytest.raises(ConfigError, match="power_budget_mmtc"):
            read_config_file(path)

    @pytest.mark.parametrize(
        "line, key",
        [("num_clusters = 2.5", "num_clusters"), ("noise_psd_dbm = abc", "noise_psd_dbm"),
         ("mmtc_rate_threshold_range = 1, x", "mmtc_rate_threshold_range"),
         ("power_budget_mmtc_dbm = 1e5", "power_budget_mmtc_dbm")],
        ids=["int_field", "dbm_field", "range_field", "dbm_overflow"],
    )
    def test_bad_number_names_file_line_and_key(self, tmp_path, line, key):
        path = tmp_path / "cell.cfg"
        path.write_text(f"num_urllc = 4\n{line}\n")
        with pytest.raises(ConfigError, match=rf"cell\.cfg:2: {key} = "):
            read_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cell.cfg"
        path.write_text("num_urllc 4\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_config_file(path)
