"""Command-line harness: simulate, shapley, experiments, audit."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import _TYPE_CHECKS, ScenarioConfig, config_from_dict, load_config
from .dynamics import PolicyKind
from .errors import ConfigError, FedMarketError
from .experiments import (
    audit_outputs,
    experiment_free_riders,
    experiment_rounds,
    experiment_shapley_timing,
    shares_digest,
    simulate,
)
from .privacy import AggregationMode, AlphabetSpec, ReportBatch
from .shapley import ThresholdGame, shapley_exact, shapley_pruned, shapley_sampled


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="scenario config file (YAML)")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    # the remaining flags store under their config key and override the file
    parser.add_argument("--seed", dest="master_seed", type=int, help="override the master seed")
    modes = sorted(m.value for m in AggregationMode)
    parser.add_argument("--mode", dest="aggregation", choices=modes, help="override the aggregation mode")
    policies = sorted(p.value for p in PolicyKind)
    parser.add_argument("--policy", choices=policies, help="override the collection policy")
    parser.add_argument("--replications", type=int, help="override the replication count")


def _prepare_run(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario the flags describe. Each run makes ``--out`` a writable
    directory itself, before it computes anything."""
    config = load_config(args.config) if args.config else ScenarioConfig()
    keys = {f.name for f in fields(ScenarioConfig)}
    flags = {key: value for key, value in vars(args).items() if key in keys and value is not None}
    return config_from_dict({**config.to_dict(), **flags})


def _cmd_simulate(args: argparse.Namespace) -> int:
    summary = simulate(_prepare_run(args), args.out)
    print(f"sealed deal at w*={summary['w_star']:.6f}, promised eps {summary['promised_eps']:.4f}")
    print(
        f"collection finished in {summary['rounds_used']} rounds, "
        f"achieved {summary['achieved']:.4f}, payout {summary['payout']:.4f}"
    )
    if summary["flagged"]:
        print(f"free riders excluded: {', '.join(summary['flagged'])}")
    print(f"outputs written to {args.out}")
    return 0


def _game_value(mapping: dict, key: str, where: str, default=None):
    """``mapping[key]`` (or ``default``); ``where`` is the path to ``mapping`` in the game file."""
    if key in mapping:
        return mapping[key]
    if default is None:
        raise ValueError(f"{where}{key} is missing")
    return default


# a game file's field types: the config's number types, and a string for player ids
_GAME_CHECKS = {**_TYPE_CHECKS, "str": ("a string", lambda value: isinstance(value, str))}


def _game_field(mapping: dict, key: str, kind: str, where: str = "", default=None):
    """``mapping[key]`` (or ``default``), checked like a config value of type ``kind``."""
    value = _game_value(mapping, key, where, default)
    noun, check = _GAME_CHECKS[kind]
    if not check(value):
        raise TypeError(f"{where}{key} must be {noun}, got {value!r}")
    return float(value) if kind == "float" else value


def _game_objects(mapping: dict, key: str, where: str = "") -> list[tuple[str, dict]]:
    """``mapping[key]``, checked to be a list of JSON objects, each with its path."""
    items = _game_value(mapping, key, where)
    if not isinstance(items, list):
        raise TypeError(f"{where}{key} must be a list, got {type(items).__name__}")
    objects = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise TypeError(f"{where}{key}[{i}] must be an object, got {type(item).__name__}")
        objects.append((f"{where}{key}[{i}].", item))
    return objects


def _cmd_shapley(args: argparse.Namespace) -> int:
    try:
        with open(args.game) as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise TypeError(f"the game must be a JSON object, got {type(raw).__name__}")
        game = ThresholdGame(
            players=tuple(
                (
                    _game_field(player, "id", "str", at),
                    tuple(
                        ReportBatch(
                            _game_field(b, "d", "int", where), _game_field(b, "eps", "float", where)
                        )
                        for where, b in _game_objects(player, "batches", at)
                    ),
                )
                for at, player in _game_objects(raw, "players")
            ),
            mode=AggregationMode(raw.get("mode", "additive")),
            target=_game_field(raw, "target", "float"),
            prize=_game_field(raw, "prize", "float"),
            spec=AlphabetSpec(_game_field(raw, "k", "int", default=2)),
        )
    # RecursionError: JSON nested deeper than the interpreter's recursion limit
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"bad game file {args.game}: {exc}") from exc
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")

    if args.method == "exact":
        result = shapley_exact(game)
    elif args.method == "pruned":
        result = shapley_pruned(game)
    else:
        result = shapley_sampled(game, args.samples, np.random.default_rng(args.seed or 0))
    print(
        json.dumps(
            {
                "method": result.method,
                "sample_count": result.sample_count,
                "shares": dict(sorted(result.shares.items())),
                "digest": shares_digest(result.shares),
            },
            indent=2,
        )
    )
    return 0


def _summarize(rows: list[dict], out: Path, label: str) -> int:
    print(f"{label}: {len(rows)} rows written to {out}")
    return 0


def _cmd_exp_rounds(args: argparse.Namespace) -> int:
    rows = experiment_rounds(_prepare_run(args), args.out)
    return _summarize(rows, args.out, "exp-rounds")


def _cmd_exp_freeriders(args: argparse.Namespace) -> int:
    rows = experiment_free_riders(_prepare_run(args), args.out)
    return _summarize(rows, args.out, "exp-freeriders")


def _cmd_exp_timing(args: argparse.Namespace) -> int:
    rows = experiment_shapley_timing(_prepare_run(args), args.out)
    for row in rows:
        print(f"n={row['n']:>3} {row['method']:<7} {row['wall_time']:.6f}s {row['shares_digest'][:12]}")
    return _summarize(rows, args.out, "exp-timing")


def _cmd_audit(args: argparse.Namespace) -> int:
    problems = audit_outputs(args.out)
    if problems:
        for problem in problems:
            print(f"AUDIT FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"audit clean: settlement invariants hold under {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmarket",
        description="Deterministic simulator for privacy-priced federated data trading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one full trading pipeline")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("shapley", help="evaluate one threshold game from a JSON file")
    p.add_argument("game", type=Path, help="game description file")
    p.add_argument("--method", choices=("exact", "pruned", "sampled"), default="pruned")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_shapley)

    p = sub.add_parser("exp-rounds", help="rounds-to-target experiment grid")
    _add_common(p)
    p.set_defaults(func=_cmd_exp_rounds)

    p = sub.add_parser("exp-freeriders", help="free-rider counts under the penalty scheme")
    _add_common(p)
    p.set_defaults(func=_cmd_exp_freeriders)

    p = sub.add_parser("exp-timing", help="exact vs pruned evaluation wall time")
    _add_common(p)
    p.set_defaults(func=_cmd_exp_timing)

    p = sub.add_parser("audit", help="re-verify settlement invariants over emitted outputs")
    p.add_argument("--out", type=Path, default=Path("out"), help="directory to audit")
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FedMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
