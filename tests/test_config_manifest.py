import math
from dataclasses import asdict, fields
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmarket.cli import main
from fedmarket.config import (
    ScenarioConfig,
    ThresholdDist,
    config_from_dict,
    derive_seed,
    load_config,
    sample_thresholds,
)
from fedmarket.errors import ConfigError, OutputError
from fedmarket.experiments import _write_csv
from fedmarket.manifest import (
    config_digest,
    file_digest,
    load_manifest,
    verify_manifest,
    write_json,
    write_manifest,
)


def _asdict_reference(config):
    """The deep ``asdict`` form ``ScenarioConfig.to_dict`` returned before it walked
    the fields itself; kept as its reference."""
    return asdict(
        config, dict_factory=lambda items: {k: v.value if isinstance(v, Enum) else v for k, v in items}
    )


def _same_plain_form(config):
    """Same keys in the same order, with equal values of the same types."""
    plain, reference = config.to_dict(), _asdict_reference(config)
    return [(k, type(v), v) for k, v in plain.items()] == [(k, type(v), v) for k, v in reference.items()]


class TestThresholdSampling:
    def test_truncated_normal_moments(self):
        dist = ThresholdDist(mean=5.0, stddev=1.0, low=1.0, high=10.0)
        draws = sample_thresholds(dist, 10_000, np.random.default_rng(2024))
        assert draws.min() >= 1.0 and draws.max() <= 10.0
        assert abs(draws.mean() - 5.0) <= 0.05  # 4-sigma truncation barely shifts it

    def test_degenerate_stddev_collapses_to_mean(self):
        dist = ThresholdDist(mean=5.0, stddev=1e-9, low=1.0, high=10.0)
        draws = sample_thresholds(dist, 100, np.random.default_rng(1))
        assert np.allclose(draws, 5.0, atol=1e-6)

    def test_deterministic_per_seed(self):
        dist = ThresholdDist()
        a = sample_thresholds(dist, 50, np.random.default_rng(9))
        b = sample_thresholds(dist, 50, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ConfigError):
            ThresholdDist(mean=5.0, stddev=1.0, low=10.0, high=10.0)

    def test_unreachable_interval_rejected(self):
        dist = ThresholdDist(mean=-200.0, stddev=0.5, low=1.0, high=2.0)
        with pytest.raises(ConfigError):
            sample_thresholds(dist, 10, np.random.default_rng(0))


class TestConfigLoading:
    def test_defaults_are_valid(self):
        config = ScenarioConfig()
        assert config.aggregation.value == "additive"

    def test_to_dict_is_the_asdict_form(self):
        assert _same_plain_form(ScenarioConfig())
        assert config_from_dict(ScenarioConfig().to_dict()) == ScenarioConfig()

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "master_seed: 7\n"
            "k: 4\n"
            "aggregation: krr\n"
            "policy: non-catalyzing\n"
            "federation_sizes: [5, 10]\n"
            "targets: [2.0]\n"
            "thresholds: {mean: 4.0, stddev: 0.5, low: 1.0, high: 8.0}\n"
            "replications: 3\n"
        )
        config = load_config(path)
        assert config.master_seed == 7
        assert config.k == 4
        assert config.aggregation.value == "krr"
        assert config.policy.value == "non-catalyzing"
        assert config.federation_sizes == (5, 10)
        assert config.thresholds.mean == 4.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"master_sed": 1})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"aggregation": "quadratic"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"replications": 0})
        with pytest.raises(ConfigError):
            config_from_dict({"targets": [0.0]})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("does/not/exist.yaml")

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("exp-timing", "timing_repeats: 0\n", "timing_repeats"),
            ("simulate", "delta_thresholds: []\n", "delta_thresholds"),
            ("simulate", "federation_sizes: 5\n", None),
            ("exp-rounds", "targets: [125.0\n", None),
            ("simulate", "thresholds: {mean: x}\n", None),
            ("simulate", "max_rounds: 3.0\n", None),
            ("simulate", "federation_sizes: [2.5]\n", None),
            ("simulate", "replications: 2.5\n", None),
            ("simulate", "master_seed: 1.5\n", None),
            ("exp-timing", "participation_prob: 1.5\ntiming_sizes: [5]\n", None),
            ("exp-timing", "initial_eps_low: 0.7\ntiming_sizes: [5]\n", None),
            ("exp-timing", "budget: .nan\ntiming_sizes: [5]\n", None),
            ("simulate", "targets: [.inf]\n", None),
            ("simulate", "k1: 1" + "0" * 400 + "\n", None),
            ("simulate", "points_per_round: 0\n", "points_per_round"),
            ("simulate", "freerider_points_per_round: 0\n", "freerider_points_per_round"),
            ("simulate", "k1: -1\n", "k1"),
            ("simulate", "initial_eps_high: 5.0e-324\n", "initial_eps_high"),
            (
                "simulate",
                "initial_eps_high: 5.0e-324\npolicy: non-catalyzing\n",
                "initial_eps_high",
            ),
            ("simulate", "k: 1152921504606846976\n", "k"),
            ("exp-freeriders", "freerider_sizes: [0]\n", "freerider_sizes"),
            ("exp-timing", "timing_sizes: [-1]\n", "timing_sizes"),
            ("exp-freeriders", "freerider_sizes: []\n", "freerider_sizes"),
            ("exp-timing", "timing_sizes: []\n", "timing_sizes"),
            ("exp-rounds", "federation_sizes: [0]\n", "federation_sizes"),
            ("exp-freeriders", "tolerance_window: 0\n", "tolerance_window"),
            ("exp-freeriders", "warmup_years: -1\n", "warmup_years"),
            ("exp-freeriders", "freerider_years: 0\n", "freerider_years"),
            ("exp-freeriders", "freerider_rounds_per_year: 0\n", "freerider_rounds_per_year"),
            ("exp-rounds", "targets: [125.0, -1.0]\n", "targets"),
            ("exp-rounds", "targets: []\n", "targets"),
            ("simulate", "delta_thresholds: [1.0, 0.0]\n", "delta_thresholds"),
            ("simulate", "master_seed: -1\n", "master_seed"),
            ("simulate", "replications: 0\n", "replications"),
            ("simulate", "max_rounds: 0\n", "max_rounds"),
            ("simulate", "data_points: 0\n", "data_points"),
            ("exp-timing", "timing_target_fraction: 1.0\n", "timing_target_fraction"),
            ("simulate", "shapley_samples: 0\n", "shapley_samples"),
            ("simulate", "thresholds: {stddev: 0.0}\n", "thresholds.stddev"),
            ("simulate", "thresholds: {low: -1.0}\n", "thresholds.low"),
            ("simulate", "thresholds: {low: 9.0, high: 2.0}\n", "thresholds.high"),
        ],
        ids=[
            "zero-timing-repeats",
            "empty-delta-thresholds",
            "scalar-sizes",
            "unparsable-yaml",
            "string-threshold-mean",
            "float-max-rounds",
            "fractional-size",
            "fractional-replications",
            "fractional-seed",
            "participation-above-one",
            "initial-eps-low-above-high",
            "nan-budget",
            "infinite-target",
            "int-beyond-float-range",
            "zero-points-per-round",
            "zero-freerider-points-per-round",
            "negative-k1",
            "fresh-epsilon-underflow",
            "fresh-epsilon-underflow-non-catalyzing",
            "alphabet-beyond-2**32",
            "zero-freerider-size",
            "negative-timing-size",
            "empty-freerider-sizes",
            "empty-timing-sizes",
            "zero-federation-size",
            "zero-tolerance-window",
            "negative-warmup-years",
            "zero-freerider-years",
            "zero-freerider-rounds",
            "negative-target",
            "empty-targets",
            "zero-delta-threshold",
            "negative-seed",
            "zero-replications",
            "zero-max-rounds",
            "zero-data-points",
            "timing-fraction-one",
            "zero-shapley-samples",
            "zero-threshold-stddev",
            "negative-threshold-low",
            "threshold-low-above-high",
        ],
    )
    def test_cli_rejects_with_one_line(self, command, text, key, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if key is not None:  # a range error starts with the config keys it came from
            assert key in [name.strip() for name in err.split(":")[1].split(",")]


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-5, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | st.sampled_from(["additive", "krr", "example", "catalyzing", "non-catalyzing"])
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["mean", "stddev", "low", "high", "x"]), inner, max_size=4),
    max_leaves=8,
)


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TestConfigFuzz:
    """Random mappings over the known keys load cleanly or raise ConfigError."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.dictionaries(
            st.sampled_from([f.name for f in fields(ScenarioConfig)]), _VALUES, max_size=6
        )
    )
    def test_loads_typed_config_or_raises_config_error(self, data):
        try:
            config = config_from_dict(data)
        except ConfigError:
            return
        assert _same_plain_form(config)
        for spec in (config, config.thresholds):
            for f in fields(spec):
                value = getattr(spec, f.name)
                items = value if f.type.startswith("tuple[") else (value,)
                if "int" in f.type:
                    assert all(_is_real(v) and isinstance(v, int) for v in items), f.name
                elif "float" in f.type:
                    assert all(_is_real(v) and math.isfinite(v) for v in items), f.name


class TestSeeding:
    def test_counter_split_is_stable_and_distinct(self):
        a = derive_seed(42, "rounds", 25, 125.0, 0)
        b = derive_seed(42, "rounds", 25, 125.0, 0)
        c = derive_seed(42, "rounds", 25, 125.0, 1)
        d = derive_seed(43, "rounds", 25, 125.0, 0)
        assert a == b
        assert len({a, c, d}) == 3


class TestManifest:
    def test_digest_stable_under_reordering(self):
        a = config_from_dict({"k": 4, "master_seed": 1})
        b = config_from_dict({"master_seed": 1, "k": 4})
        assert config_digest(a) == config_digest(b)

    def test_digest_sensitive_to_values(self):
        a = config_from_dict({"budget": 100.0})
        b = config_from_dict({"budget": 100.5})
        assert config_digest(a) != config_digest(b)

    def test_write_verify_and_tamper(self, tmp_path):
        config = ScenarioConfig()
        out = tmp_path / "data.csv"
        out.write_text("n,value\n1,2\n")
        outputs = {"data.csv": file_digest(out)}
        manifest = write_manifest(tmp_path / "manifest.json", config, {"cell": 5}, outputs)
        assert manifest.outputs["data.csv"] == file_digest(out)

        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded == manifest
        assert verify_manifest(loaded, config, tmp_path) == []

        tampered = config_from_dict({"budget": 1.0})
        assert any("digest" in p for p in verify_manifest(loaded, tampered, tmp_path))

        out.write_text("n,value\n1,3\n")
        assert any("data.csv" in p for p in verify_manifest(loaded, config, tmp_path))

    def test_writers_return_the_digest_of_the_file_written(self, tmp_path):
        json_path, csv_path = tmp_path / "out" / "data.json", tmp_path / "data.csv"
        payload = {"b": [1.5, None, "x"], "a": {"nested": 0.1 + 0.2}}
        assert write_json(json_path, payload) == file_digest(json_path)
        rows = [(1, 0.1 + 0.2, "p,1"), (2, 1e-300, 'say "hi"')]
        assert _write_csv(csv_path, ("n", "x", "who"), rows) == file_digest(csv_path)
        assert (tmp_path / "data.csv").read_bytes().count(b"\r\n") == 3
        # a plain truncating write: a longer old file leaves nothing behind
        (tmp_path / "long.json").write_text("x" * 1000)
        assert write_json(tmp_path / "long.json", 1) == file_digest(tmp_path / "long.json")
        assert (tmp_path / "long.json").read_text() == "1\n"

    def test_empty_run_manifest(self, tmp_path):
        manifest = write_manifest(tmp_path / "manifest.json", ScenarioConfig(), {}, {})
        assert manifest.outputs == {}
        assert verify_manifest(load_manifest(tmp_path / "manifest.json"), ScenarioConfig(), tmp_path) == []

    def test_unwritable_manifest_raises_output_error(self, tmp_path):
        (tmp_path / "blocker").write_text("")
        with pytest.raises(OutputError, match="^cannot write "):
            write_manifest(tmp_path / "blocker" / "manifest.json", ScenarioConfig(), {}, {})
