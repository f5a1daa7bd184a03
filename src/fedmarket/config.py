"""Scenario configuration: YAML loading, validation, seeding, sampling."""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field, fields
from enum import Enum, EnumMeta
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np
import yaml

from .dynamics import CollectionPolicy, PolicyKind
from .errors import ConfigError, DomainError
from .market import ConsumerOffer
from .privacy import AggregationMode, AlphabetSpec
from .valuation import ExponentialValuation


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # bool is an int subclass


def _is_number(value) -> bool:
    # finite: rejects nan and inf, and ints too large to become a float
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# declared field type (a string: annotations are postponed) -> (what the
# error message asks for, value check)
_TYPE_CHECKS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_number),
    "tuple[int, ...]": ("a list of integers", lambda v: isinstance(v, tuple) and all(map(_is_int, v))),
    "tuple[float, ...]": ("a list of finite numbers", lambda v: isinstance(v, tuple) and all(map(_is_number, v))),
}


def _check_types(spec, prefix: str = "") -> None:
    """Reject values that do not match their field's declared int/float type.

    Values are checked, never converted, so every valid config keeps its digest.
    """
    for f in fields(spec):
        if f.type in _TYPE_CHECKS:
            noun, check = _TYPE_CHECKS[f.type]
            value = getattr(spec, f.name)
            if not check(value):
                raise ConfigError(f"{prefix}{f.name} must be {noun}, got {value!r}")


def _check_ranges(spec, prefix: str, *checks: tuple[str, bool, str]) -> None:
    """Raise a ConfigError, led by its key, for the first ``(key, ok, requirement)`` not ok."""
    for key, ok, requirement in checks:
        if not ok:
            value = getattr(spec, key)
            shown = list(value) if isinstance(value, tuple) else value
            raise ConfigError(f"{prefix}{key}: {requirement}, got {shown!r}")


def _fed(keys: str, build):
    """``build()``, with a range error turned into a ConfigError naming ``keys``."""
    try:
        return build()
    except DomainError as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


@dataclass(frozen=True)
class ThresholdDist:
    """Truncated-normal sampling spec for provider privacy thresholds."""

    mean: float = 5.0
    stddev: float = 1.0
    low: float = 1.0
    high: float = 10.0

    def __post_init__(self) -> None:
        _check_types(self, "thresholds.")
        if not self.low < self.high:
            raise ConfigError(
                f"thresholds.low, thresholds.high: degenerate interval [{self.low}, {self.high}]"
            )
        _check_ranges(
            self,
            "thresholds.",
            ("stddev", self.stddev > 0, "must be positive"),
            ("low", self.low > 0, "must be positive"),
        )


def sample_thresholds(
    dist: ThresholdDist, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n thresholds from Normal(mean, stddev) rejection-truncated to [low, high]."""
    out = np.empty(n)
    filled = 0
    for _ in range(1000):
        if filled >= n:
            break
        draws = rng.normal(dist.mean, dist.stddev, size=2 * (n - filled) + 16)
        accepted = draws[(draws >= dist.low) & (draws <= dist.high)]
        take = min(accepted.size, n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    if filled < n:
        raise ConfigError(
            f"threshold distribution rejects almost all mass on [{dist.low}, {dist.high}]"
        )
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """One structured file drives every subcommand; all knobs live here."""

    master_seed: int = 20210917
    k: int = 16
    aggregation: AggregationMode = AggregationMode.ADDITIVE_INFORMATION
    k1: float = 1.0
    k2: float = 0.001
    budget: float = 10000.0
    thresholds: ThresholdDist = field(default_factory=ThresholdDist)
    federation_sizes: tuple[int, ...] = (25, 50, 75, 100)
    targets: tuple[float, ...] = (125.0, 250.0, 375.0, 500.0)
    replications: int = 100
    max_rounds: int = 10
    policy: PolicyKind = PolicyKind.CATALYZING
    # provider behavior
    data_points: int = 40
    points_per_round: int = 6
    participation_prob: float = 0.8
    initial_eps_low: float = 0.0
    initial_eps_high: float = 0.6
    # savings / penalty machinery
    tolerance_window: int = 3
    warmup_years: int = 3
    delta_thresholds: tuple[float, ...] = (1.0, 2.0, 3.0)
    freerider_sizes: tuple[int, ...] = (50, 100)
    freerider_years: int = 6
    freerider_rounds_per_year: int = 3
    freerider_points_per_round: int = 1
    freerider_initial_eps_high: float = 0.7
    # shapley evaluation
    shapley_samples: int = 100_000
    # shapley timing experiment
    timing_sizes: tuple[int, ...] = (15, 18, 21, 24, 27)
    timing_target_fraction: float = 0.15
    timing_prize: float = 100.0
    timing_repeats: int = 3

    def __post_init__(self) -> None:
        _check_types(self)
        # The objects this config feeds check their own ranges. An error names
        # the keys that fed the object and were not checked before it.
        valuation = _fed("k1, k2", lambda: ExponentialValuation(self.k1, self.k2))
        _fed("budget", lambda: ConsumerOffer(self.budget, valuation))
        _fed("k", lambda: AlphabetSpec(self.k))
        _fed(
            "initial_eps_low, initial_eps_high, participation_prob, points_per_round",
            lambda: self.collection_policy(self.policy),
        )
        _fed(
            "initial_eps_low, freerider_initial_eps_high, freerider_points_per_round",
            lambda: self.freerider_policy(self.policy),
        )
        _check_ranges(
            self,
            "",
            ("master_seed", self.master_seed >= 0, "must be non-negative"),
            ("replications", self.replications >= 1, "must be at least 1"),
            ("max_rounds", self.max_rounds >= 1, "must be at least 1"),
            ("data_points", self.data_points >= 1, "must be at least 1"),
            *(
                (key, min(getattr(self, key), default=0) >= 1, "must be a non-empty list of sizes >= 1")
                for key in ("federation_sizes", "freerider_sizes", "timing_sizes")
            ),
            *(
                (key, min(getattr(self, key), default=0) > 0, "must be a non-empty list of positive values")
                for key in ("targets", "delta_thresholds")
            ),
            ("tolerance_window", self.tolerance_window >= 1, "must be at least 1"),
            ("warmup_years", self.warmup_years >= 0, "must be non-negative"),
            ("freerider_years", self.freerider_years >= 1, "must be at least 1"),
            ("freerider_rounds_per_year", self.freerider_rounds_per_year >= 1, "must be at least 1"),
            ("timing_target_fraction", 0.0 < self.timing_target_fraction < 1.0, "must lie in (0, 1)"),
            ("shapley_samples", self.shapley_samples >= 1, "must be at least 1"),
            ("timing_repeats", self.timing_repeats >= 1, "must be at least 1"),
        )

    def collection_policy(self, kind: PolicyKind) -> CollectionPolicy:
        return CollectionPolicy(
            kind=kind,
            initial_eps_low=self.initial_eps_low,
            initial_eps_high=self.initial_eps_high,
            participation_prob=self.participation_prob,
            points_per_round=self.points_per_round,
        )

    def freerider_policy(self, kind: PolicyKind) -> CollectionPolicy:
        """Low-volume reporting profile used by the free-rider experiment.

        One point per round keeps yearly savings on the scale of the
        configured tolerance thresholds.
        """
        return CollectionPolicy(
            kind=kind,
            initial_eps_low=self.initial_eps_low,
            initial_eps_high=self.freerider_initial_eps_high,
            participation_prob=self.participation_prob,
            points_per_round=self.freerider_points_per_round,
        )

    def to_dict(self) -> dict:
        """Plain values (enums as their values, ``thresholds`` as a mapping of its
        four numbers) that ``config_from_dict`` reads back."""
        plain = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Enum):
                value = value.value
            elif isinstance(value, ThresholdDist):
                value = {g.name: getattr(value, g.name) for g in fields(value)}
            plain[f.name] = value
        return plain


_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _convert(key: str, kind, value):
    """An outside value as its field's declared type: an enum member looked up
    by its value, a tuple from a list, a ThresholdDist from a mapping."""
    if isinstance(kind, EnumMeta):
        try:
            return kind(value)
        except ValueError:
            names = sorted(m.value for m in kind)
            raise ConfigError(f"{key} must be one of {names}, got {value!r}") from None
    if kind is ThresholdDist:
        try:
            return ThresholdDist(**value)
        except TypeError as exc:
            raise ConfigError(f"bad threshold distribution spec: {exc}") from exc
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(value)
    return value


def config_from_dict(data: dict) -> ScenarioConfig:
    """The one way from outside values (YAML keys, CLI flags) to a checked config."""
    data = data or {}
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown, key=str)}")
    return ScenarioConfig(**{key: _convert(key, _FIELD_TYPES[key], v) for key, v in data.items()})


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as handle:
        try:
            data = yaml.safe_load(handle)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            detail = " ".join(str(exc).split())  # YAML messages span several lines
            raise ConfigError(f"cannot parse config file {path}: {detail}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    return config_from_dict(data)


def derive_seed(master_seed: int, *parts) -> int:
    """Counter-based seed split: independent stream per labeled cell."""
    digest = hashlib.sha256()
    digest.update(str(master_seed).encode())
    for part in parts:
        digest.update(b"|")
        digest.update(str(part).encode())
    return int.from_bytes(digest.digest()[:8], "big")
