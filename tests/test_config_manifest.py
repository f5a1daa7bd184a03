import hashlib
import itertools
import json
import math
import re
from dataclasses import asdict, fields, replace
from enum import Enum

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmarket.cli import main
from fedmarket.config import (
    ScenarioConfig,
    _ConfigLoader,
    ThresholdDist,
    config_from_dict,
    derive_seed,
    load_config,
    sample_thresholds,
)
from fedmarket.dynamics import YearLedger
from fedmarket.errors import ConfigError, OutputError
from fedmarket.experiments import _write_csv, _write_trace, simulate
from fedmarket.manifest import (
    config_digest,
    file_digest,
    load_manifest,
    prepare_out_dir,
    verify_manifest,
    write_json,
    write_manifest,
    write_output,
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

    @pytest.mark.parametrize("text", ["1e6", "1.0e9", ".5e3", "1E6", "+2.5e3", "1.e4", "7e-1"])
    def test_exponent_floats_load(self, text, tmp_path):
        # YAML 1.1 reads these as strings; a config file reads them as YAML 1.2 floats
        assert isinstance(yaml.safe_load(text), str)
        path = tmp_path / "scenario.yaml"
        path.write_text(f"budget: {text}\ntargets: [{text}]\n")
        config = load_config(path)
        assert config.budget == config.targets[0] == float(text)
        assert config_digest(config) == config_digest(
            config_from_dict({"budget": float(text), "targets": [float(text)]})
        )

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.text(alphabet="0123456789+-.eE_:x", min_size=1, max_size=8))
    @example("1.0e+9")
    @example("0x1e5")
    @example("1:30.5")
    @example("1_000.5e+3")
    def test_yaml_1_1_numbers_read_as_before(self, text):
        """A scalar reads as YAML 1.1 reads it, unless that was a string in the
        YAML 1.2 float form with an exponent, which reads as its float."""
        try:
            before = yaml.safe_load(text)
        except yaml.YAMLError:
            with pytest.raises(yaml.YAMLError):
                yaml.load(text, Loader=_ConfigLoader)
            return
        after = yaml.load(text, Loader=_ConfigLoader)
        if isinstance(before, str) and re.fullmatch(r"[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+", text):
            assert after == float(text) and type(after) is float
        else:
            assert (type(after), repr(after)) == (type(before), repr(before))

    def test_configs_that_loaded_keep_their_digest(self, tmp_path):
        config = config_from_dict({"budget": 1.0e9, "k1": 0.5, "targets": [1.5, 1_000.0]})
        for text in (
            yaml.safe_dump(ScenarioConfig().to_dict()),
            yaml.safe_dump(config.to_dict()),
            "budget: 1.0e+9\nk1: .5\ntargets: [1.5, 1_000.0]\n",
        ):
            path = tmp_path / "scenario.yaml"
            path.write_text(text)
            assert config_digest(load_config(path)) == config_digest(config_from_dict(yaml.safe_load(text)))

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
            (
                "exp-freeriders",
                "freerider_initial_eps_high: 5.0e-324\n",
                "freerider_initial_eps_high",
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
            ("simulate", "data_points: 9223372036854775808\n", "data_points"),
            ("exp-timing", "timing_target_fraction: 1.0\n", "timing_target_fraction"),
            ("simulate", "shapley_samples: 0\n", "shapley_samples"),
            ("simulate", "thresholds: {stddev: 0.0}\n", "thresholds.stddev"),
            ("simulate", "thresholds: {low: -1.0}\n", "thresholds.low"),
            ("simulate", "thresholds: {low: 9.0, high: 2.0}\n", "thresholds.high"),
            ("simulate", "thresholds: {mean: 750.0, stddev: 10.0, high: 800.0}\n", "thresholds.high"),
            ("exp-freeriders", "thresholds: {mean: 750.0, stddev: 10.0, high: 800.0}\n", "thresholds.high"),
            ("exp-rounds", "federation_sizes: [25, 25]\n", "federation_sizes"),
            ("exp-rounds", "targets: [125.0, 125]\n", "targets"),
            ("exp-freeriders", "freerider_sizes: [4, 4]\n", "freerider_sizes"),
            ("exp-freeriders", "delta_thresholds: [1.0, 2.0, 1.0]\n", "delta_thresholds"),
            ("exp-timing", "timing_sizes: [5, 5]\n", "timing_sizes"),
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
            "fresh-freerider-epsilon-underflow",
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
            "data-points-beyond-int64",
            "timing-fraction-one",
            "zero-shapley-samples",
            "zero-threshold-stddev",
            "negative-threshold-low",
            "threshold-low-above-high",
            "threshold-high-above-saturation",
            "freerider-threshold-high-above-saturation",
            "repeated-federation-size",
            "repeated-target",
            "repeated-freerider-size",
            "repeated-delta-threshold",
            "repeated-timing-size",
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
        json_path, csv_path = prepare_out_dir(tmp_path / "out") / "data.json", tmp_path / "data.csv"
        payload = {"b": [1.5, None, "x"], "a": {"nested": 0.1 + 0.2}}
        assert write_json(json_path, payload) == file_digest(json_path)
        rows = [(1, 0.1 + 0.2, "p,1"), (2, 1e-300, 'say "hi"')]
        assert _write_csv(csv_path, ("n", "x", "who"), rows) == file_digest(csv_path)
        assert (tmp_path / "data.csv").read_bytes().count(b"\r\n") == 3
        # written over in place and cut to length: a longer old file leaves nothing behind
        (tmp_path / "long.json").write_text("x" * 1000)
        assert write_json(tmp_path / "long.json", 1) == file_digest(tmp_path / "long.json")
        assert (tmp_path / "long.json").read_text() == "1\n"

    @pytest.mark.parametrize(
        "old",
        (None, b"x" * 1000, b"{}\n", b"[" * 13),
        ids=["no-file", "longer", "shorter", "equal-size"],
    )
    def test_write_over_an_old_file_leaves_exactly_the_new_bytes(self, old, tmp_path):
        path, data = tmp_path / "data.json", b'{\n  "a": 1\n}\n'
        if old is not None:
            path.write_bytes(old)
        assert write_json(path, {"a": 1}) == hashlib.sha256(data).hexdigest() == file_digest(path)
        assert path.read_bytes() == data

    def test_write_over_a_directory_raises_output_error(self, tmp_path):
        (tmp_path / "data.json").mkdir()
        with pytest.raises(OutputError, match="^cannot write "):
            write_output(tmp_path / "data.json", b"1\n")

    def test_smaller_run_over_a_larger_one_matches_a_fresh_run(self, tmp_path):
        small = config_from_dict({"federation_sizes": [6], "shapley_samples": 500})
        large = config_from_dict({"federation_sizes": [24], "shapley_samples": 500})
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        simulate(large, reused)
        large_sizes = {p.name: p.stat().st_size for p in reused.iterdir()}
        simulate(small, reused)
        simulate(small, fresh)
        files = {p.name: p.read_bytes() for p in sorted(reused.iterdir())}
        assert files == {p.name: p.read_bytes() for p in sorted(fresh.iterdir())}
        assert all(len(files[name]) < size for name, size in large_sizes.items() if name.endswith(".csv"))
        assert verify_manifest(load_manifest(reused / "manifest.json"), small, reused) == []

    def test_empty_run_manifest(self, tmp_path):
        manifest = write_manifest(tmp_path / "manifest.json", ScenarioConfig(), {}, {})
        assert manifest.outputs == {}
        assert verify_manifest(load_manifest(tmp_path / "manifest.json"), ScenarioConfig(), tmp_path) == []

    def test_writers_leave_making_the_directory_to_the_run(self, tmp_path):
        with pytest.raises(OutputError, match="^cannot write "):
            write_json(tmp_path / "missing" / "data.json", 1)
        assert not (tmp_path / "missing").exists()
        assert prepare_out_dir(tmp_path / "a" / "b") == tmp_path / "a" / "b"
        assert (tmp_path / "a" / "b").is_dir()

    def test_unwritable_manifest_raises_output_error(self, tmp_path):
        (tmp_path / "blocker").write_text("")
        with pytest.raises(OutputError, match="^cannot write "):
            write_manifest(tmp_path / "blocker" / "manifest.json", ScenarioConfig(), {}, {})


# Text that exercises every escape: quotes, backslashes, control characters,
# DEL, lone surrogates and non-ASCII, besides whatever hypothesis draws.
_JSON_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\\x00\x08\x1f\x7f\ud800\udfffé☃\U0001f600')
)
_JSON_FLOATS = (
    st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([-0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1e16, 1e-300])
)
_JSON_INTS = st.integers() | st.sampled_from([0, -1, 2**63, 2**64, 2**64 + 1, -(2**70)])
_JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | _JSON_INTS | _JSON_FLOATS | _JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=24,
)


@pytest.fixture(scope="class")
def class_dir(tmp_path_factory):
    """One directory for every example of a property test; each example writes over the last."""
    return tmp_path_factory.mktemp("writers")


class TestWriteJson:
    """``write_json`` writes the bytes of ``json.dumps(indent=2, sort_keys=True)``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(payload=_JSON_PAYLOADS)
    @example(payload=[[], {}, (), {"b": [], "a": {}, "c": ((), [{}])}])
    @example(payload=[-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, np.float64(0.1)])
    @example(payload=[True, False, None, 0, -7, 2**64 + 1])
    @example(payload={"é\"\\\n\ud800": "☃\x00"})
    def test_bytes_match_the_indented_json_encoder(self, payload, class_dir):
        path = class_dir / "data.json"
        expected = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        assert write_json(path, payload) == hashlib.sha256(expected).hexdigest()
        assert path.read_bytes() == expected

    @pytest.mark.parametrize(
        "payload",
        ({1, 2}, b"x", np.int64(3), [np.int64(3)], {1: "a"}, {"a": {None: 1}}, {("a",): 1}, object()),
        ids=["set", "bytes", "np.int64", "nested-np.int64", "int-key", "none-key", "tuple-key", "object"],
    )
    def test_other_types_and_keys_raise_type_error(self, payload, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "data.json", payload)
        assert not (tmp_path / "data.json").exists()  # rendered in full before writing


def _reference_trace(path, ledgers):
    """The trace rows written through ``csv.writer``, as ``simulate`` did
    before it formatted them itself; kept as the reference."""
    rows = (
        row
        for ledger in ledgers
        for row in zip(
            itertools.repeat(ledger.year),
            ledger.round,
            map(ledger.provider_ids.__getitem__, ledger.provider),
            ledger.d_t,
            ledger.eps_t,
            ledger.cumulative,
        )
    )
    return _write_csv(path, ("year", "round", "provider", "d_t", "eps_t", "cumulative"), rows)


_TRACE_IDS = st.lists(
    st.just("")
    | st.text(st.sampled_from(',"\r\n \'é☃\U0001f600p0') | st.characters(exclude_categories=("Cs",))),
    max_size=5,
    unique=True,
)
_TRACE_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324])


@st.composite
def _trace_ledgers(draw):
    """One to four years of a federation, with random report columns."""
    ids = tuple(draw(_TRACE_IDS))
    ledgers = []
    for year in range(1, draw(st.integers(1, 4)) + 1):
        reports = draw(st.integers(0, 8)) if ids else 0

        def column(values):
            return tuple(draw(st.lists(values, min_size=reports, max_size=reports)))

        ledgers.append(
            YearLedger(
                year=year,
                target=draw(_TRACE_FLOATS),
                rounds_used=reports,
                achieved=draw(_TRACE_FLOATS),
                reached=draw(st.booleans()),
                provider_ids=ids,
                d_total=(0,) * len(ids),
                eps_level=(0.0,) * len(ids),
                provider=column(st.integers(0, max(len(ids) - 1, 0))),
                round=column(st.integers(1, 10**6)),
                d_t=column(st.integers(0, 10**9)),
                eps_t=column(_TRACE_FLOATS),
                cumulative=column(_TRACE_FLOATS),
            )
        )
    return ledgers


def _two_years(ids):
    """Two years in which every member reports twice, with awkward floats."""
    n = len(ids)
    ledger = YearLedger(
        year=1,
        target=1.0,
        rounds_used=2,
        achieved=0.5,
        reached=False,
        provider_ids=ids,
        d_total=(1,) * n,
        eps_level=(0.1,) * n,
        provider=tuple(range(n)) * 2,
        round=(1,) * n + (2,) * n,
        d_t=(1,) * 2 * n,
        eps_t=(math.nan, math.inf, -0.0, 1e-300, -math.inf, 0.1)[: 2 * n],
        cumulative=(1e-300, -0.0, math.nan, math.inf, 2.5, -1.0)[: 2 * n],
    )
    return [ledger, replace(ledger, year=2)]


class TestWriteTrace:
    """``_write_trace`` writes what ``csv.writer`` writes for the same rows."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ledgers=_trace_ledgers())
    @example(ledgers=_two_years(("",)))
    @example(ledgers=_two_years(("", "a,b")))
    @example(ledgers=_two_years(('say "hi"', "\r\n", "é")))
    def test_bytes_match_the_csv_writer(self, ledgers, class_dir):
        trace, reference = class_dir / "trace.csv", class_dir / "reference.csv"
        assert _write_trace(trace, ledgers) == _reference_trace(reference, ledgers)
        assert trace.read_bytes() == reference.read_bytes()

    def test_a_run_without_reports_writes_the_header_alone(self, tmp_path):
        empty = [YearLedger(1, 1.0, 0, 0.0, False, ("p000",), (0,), (0.0,), (), (), (), (), ())]
        trace, reference = tmp_path / "trace.csv", tmp_path / "reference.csv"
        assert _write_trace(trace, empty) == _reference_trace(reference, empty)
        assert trace.read_bytes() == b"year,round,provider,d_t,eps_t,cumulative\r\n"
