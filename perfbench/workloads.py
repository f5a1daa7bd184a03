"""Workload pools: the ops each benchmark workload cycles through, and their checks.

Every input is made here from the workload seed, before any op runs; the
program only ever sees the generated configs and games. Ops call the
program through module attributes (``experiments.simulate``, not a name
imported once), so the tracer in ``tracing.py`` sees every call it wraps.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from fedmarket import experiments, manifest, shapley
from fedmarket.config import ScenarioConfig
from fedmarket.privacy import AggregationMode, AlphabetSpec, ReportBatch

ADDITIVE = AggregationMode.ADDITIVE_INFORMATION
EXAMPLE = AggregationMode.EXAMPLE_CONTRIBUTION
KRR = AggregationMode.KRR_COMPOSITION

# Every pool holds at least 100 ops, so that p90 over the per-op median
# latencies has at least 10 ops beyond it, and one cycle takes a few seconds.

# collect-grid and freerider-years: seed variants per grid cell (the pool is
# cells x variants) and replications per experiment call. A free-rider op
# costs about n, so a cell gets FREERIDER_VARIANT_WEIGHT // n variants: each
# federation size takes the same share of a cycle, and p50 and p90 fall
# inside one size's ops instead of in the gap between two sizes.
COLLECT_VARIANTS = 7
COLLECT_REPLICATIONS = 3
FREERIDER_VARIANT_WEIGHT = 1200
FREERIDER_REPLICATIONS = 2

# split-games classes. Exact runs on sparse games only up to SPARSE_EXACT_MAX
# players: beyond it, full enumeration grows to hundreds of milliseconds.
SMALL_SIZES = tuple(range(1, 13)) * 2  # per measure, the criterion-01 range of n
SPARSE_SIZES = tuple(range(15, 25))
SPARSE_EXACT_MAX = 18
KRR_SIZES = (14, 16, 18)
LARGE_GAMES = ((25, ADDITIVE), (50, EXAMPLE), (100, KRR))
SAMPLES = 100_000

# settle-pipeline: (measure, base, per_member). The budget buys the privacy
# level base + per_member * n, about a fifth of the federation's expected
# threshold for the additive measures, so w* < 1 and most deals pay. kRR at
# level 3 voids almost every deal, so its splits have a zero prize.
SETTLE_GROUPS = (
    (ADDITIVE, 0.0, 40.0),
    (EXAMPLE, 0.0, 7.0),
    (KRR, 1.5, 0.0),
    (KRR, 3.0, 0.0),
)
# (federation size, seed variants): sizes on both sides of simulate's
# n <= 22 pruned/sampled switch; n = 18, where pruning is weak and one
# split costs ~0.2 s, runs once per group.
SETTLE_SIZES = ((6, 4), (8, 4), (10, 4), (12, 4), (14, 4), (16, 2), (18, 1), (24, 2))
SETTLE_SAMPLES = 20_000


@dataclass(frozen=True)
class Outcome:
    """What an op's check found: an output digest, problems, output counters."""

    digest: str
    problems: list[str]
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    key: str  # stable name inside the pool, used in failure messages
    label: str  # game class for the shapley.<method>.<class> metrics
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    pair: str | None = None  # ops with the same pair key must return identical shares


def derive(seed: int, *parts) -> int:
    """Seed for one op or game, split off the workload seed by label."""
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def build(workload: str, config: ScenarioConfig, seed: int, out: Path, quick: bool = False) -> list[Op]:
    """The op pool of a workload; ``quick`` keeps a few ops of every kind."""
    return POOLS[workload](config, seed, out, quick)


# --- output checks -----------------------------------------------------------


def _output_state(out: Path, manifest_name: str, config: ScenarioConfig) -> Outcome:
    """Digest every file of the op's output directory and verify its manifest."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    recorded = manifest.load_manifest(out / manifest_name)
    problems = manifest.verify_manifest(recorded, config, out)
    hashed = sum((out / name).stat().st_size for name in recorded.outputs)
    counts = {"experiments.output_bytes": total, "manifest.hashed_bytes": hashed}
    return Outcome(digest.hexdigest(), problems, counts)


def _shares_digest(shares) -> str:
    canonical = json.dumps({pid: float(v).hex() for pid, v in shares.items()}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _sum_problem(total: float, expected: float) -> list[str]:
    if math.isclose(total, expected, rel_tol=1e-9, abs_tol=1e-12):
        return []
    return [f"shares sum to {total!r}, expected {expected!r}"]


# --- collect-grid --------------------------------------------------------------


def _check_rounds(config: ScenarioConfig, out: Path, rows) -> Outcome:
    state = _output_state(out, "rounds_manifest.json", config)
    problems = state.problems + experiments.audit_outputs(out)
    if len(rows) != 2 * config.replications:
        problems.append(f"{len(rows)} rows for {config.replications} replications x 2 policies")
    return replace(state, problems=problems)


def collect_grid(config: ScenarioConfig, seed: int, out: Path, quick: bool) -> list[Op]:
    cells = [(n, t) for n in config.federation_sizes for t in config.targets]
    if quick:
        cells = [cells[0], cells[-1]]
    ops = []
    for variant in range(1 if quick else COLLECT_VARIANTS):
        for n, target in cells:
            cfg = replace(
                config,
                master_seed=derive(seed, "collect-grid", n, target, variant),
                federation_sizes=(n,),
                targets=(target,),
                replications=COLLECT_REPLICATIONS,
            )
            ops.append(
                Op(
                    f"n={n}/target={target}/variant={variant}",
                    "collect",
                    partial(lambda c: experiments.experiment_rounds(c, out), cfg),
                    partial(_check_rounds, cfg, out),
                )
            )
    return ops


# --- freerider-years -------------------------------------------------------------


def _check_freeriders(config: ScenarioConfig, out: Path, rows) -> Outcome:
    state = _output_state(out, "freeriders_manifest.json", config)
    problems = list(state.problems)
    (n,) = config.freerider_sizes
    if len(rows) != 2 * config.replications:
        problems.append(f"{len(rows)} rows for {config.replications} replications x 2 policies")
    problems += [
        f"free-rider count {row['free_rider_count']} outside [0, {n}]"
        for row in rows
        if not 0 <= row["free_rider_count"] <= n
    ]
    return replace(state, problems=problems)


def freerider_years(config: ScenarioConfig, seed: int, out: Path, quick: bool) -> list[Op]:
    cells = [(n, d) for n in config.freerider_sizes for d in config.delta_thresholds]
    if quick:
        cells = [cells[0], cells[-1]]
    ops = []
    for n, delta in cells:
        for variant in range(1 if quick else FREERIDER_VARIANT_WEIGHT // n):
            cfg = replace(
                config,
                master_seed=derive(seed, "freerider-years", n, delta, variant),
                freerider_sizes=(n,),
                delta_thresholds=(delta,),
                replications=FREERIDER_REPLICATIONS,
            )
            ops.append(
                Op(
                    f"n={n}/delta={delta}/variant={variant}",
                    "freerider",
                    partial(lambda c: experiments.experiment_free_riders(c, out), cfg),
                    partial(_check_freeriders, cfg, out),
                )
            )
    return ops


# --- split-games -----------------------------------------------------------------


def _grand_total(batches, mode: AggregationMode, k: int) -> float | None:
    """The whole federation's information level, or None when nobody reports."""
    batches = [b for b in batches if b.d > 0]
    if mode is ADDITIVE:
        return math.fsum(b.d * b.epsilon for b in batches)
    if mode is EXAMPLE:
        return math.fsum(b.d * math.exp(b.epsilon) / (k - 1 + math.exp(b.epsilon)) for b in batches)
    if not batches:
        return None
    mass = math.fsum(b.d / (k - 1 + math.exp(b.epsilon)) for b in batches)
    return math.log(sum(b.d for b in batches) / mass + 1 - k)


def _random_game(rng: np.random.Generator, mode: AggregationMode, n: int) -> shapley.ThresholdGame:
    """The acceptance suite's random game (criterion 01), with the player count given."""
    k = int(rng.integers(2, 17))
    players = tuple(
        (
            f"p{i}",
            tuple(
                ReportBatch(int(d), float(rng.uniform(0.1, 8.0)))
                for d in rng.integers(0, 5, size=int(rng.integers(1, 4)))
            ),
        )
        for i in range(n)
    )
    grand = _grand_total([b for _, bs in players for b in bs], mode, k)
    if grand is None or grand <= 0:
        target = float(rng.uniform(0.5, 5.0))
    else:
        target = max(1e-6, float(grand * rng.uniform(0.2, 1.2)))
    prize = float(rng.uniform(1.0, 100.0))
    return shapley.ThresholdGame(players, mode, target, prize, AlphabetSpec(k))


def _check_split(expected_total: float, result) -> Outcome:
    total = math.fsum(result.shares.values())
    return Outcome(_shares_digest(result.shares), _sum_problem(total, expected_total))


def _split_ops(seed: int, key: str, label: str, game, methods) -> list[Op]:
    # Efficiency: the shares of every evaluator add up to v(N).
    expected = shapley.characteristic(game.player_ids(), game)
    check = partial(_check_split, expected)
    ops = []
    for method in methods:
        if method == "sampled":
            sampler_seed = derive(seed, key, "sampler")
            run = partial(
                lambda g, s: shapley.shapley_sampled(g, SAMPLES, np.random.default_rng(s)),
                game,
                sampler_seed,
            )
        else:
            run = partial(lambda g, m: getattr(shapley, f"shapley_{m}")(g), game, method)
        ops.append(Op(f"{key}/{method}", label, run, check, pair=key if method != "sampled" else None))
    return ops


def split_games(config: ScenarioConfig, seed: int, out: Path, quick: bool) -> list[Op]:
    ops = []
    for mode in (ADDITIVE, EXAMPLE, KRR):
        rng = np.random.default_rng(derive(seed, "small", mode.value))
        for i, n in enumerate(SMALL_SIZES[-1:] if quick else SMALL_SIZES):
            game = _random_game(rng, mode, n)
            ops += _split_ops(seed, f"small/{mode.value}/{i}/n={n}", "small", game, ("exact", "pruned"))
    for n in SPARSE_SIZES[:1] if quick else SPARSE_SIZES:
        game = experiments.timing_game(replace(config, master_seed=derive(seed, "sparse", n)), n)
        methods = ("exact", "pruned") if n <= SPARSE_EXACT_MAX else ("pruned",)
        ops += _split_ops(seed, f"sparse/n={n}", "sparse", game, methods)
    for n in KRR_SIZES[:1] if quick else KRR_SIZES:
        game = _random_game(np.random.default_rng(derive(seed, "krr", n)), KRR, n)
        ops += _split_ops(seed, f"krr/n={n}", "krr", game, ("exact", "pruned"))
    for n, mode in LARGE_GAMES[:1] if quick else LARGE_GAMES:
        game = _random_game(np.random.default_rng(derive(seed, "large", n)), mode, n)
        ops += _split_ops(seed, f"large/{mode.value}/n={n}", "large", game, ("sampled",))
    return ops


# --- settle-pipeline ----------------------------------------------------------------


def _check_settle(config: ScenarioConfig, out: Path, summary) -> Outcome:
    state = _output_state(out, "manifest.json", config)
    problems = state.problems + experiments.audit_outputs(out)
    split = json.loads((out / "shares.json").read_text())
    total = math.fsum(split["shares"].values())
    problems += _sum_problem(total, split["prize"])
    if split["prize"] != summary["payout"]:
        problems.append(f"split prize {split['prize']} != payout {summary['payout']}")
    return replace(state, problems=problems)


def settle_pipeline(config: ScenarioConfig, seed: int, out: Path, quick: bool) -> list[Op]:
    sizes = ((8, 1), (24, 1)) if quick else SETTLE_SIZES
    ops = []
    for mode, base, per_member in SETTLE_GROUPS:
        for n, variants in sizes:
            level = base + per_member * n
            for variant in range(variants):
                cfg = replace(
                    config,
                    master_seed=derive(seed, "settle-pipeline", mode.value, base, n, variant),
                    aggregation=mode,
                    budget=math.log1p(level / config.k1) / config.k2,  # price of `level`
                    federation_sizes=(n,),
                    shapley_samples=SETTLE_SAMPLES,
                )
                ops.append(
                    Op(
                        f"{mode.value}/level={level}/n={n}/variant={variant}",
                        "settle",
                        partial(lambda c: experiments.simulate(c, out), cfg),
                        partial(_check_settle, cfg, out),
                    )
                )
    return ops


POOLS = {
    "collect-grid": collect_grid,
    "freerider-years": freerider_years,
    "split-games": split_games,
    "settle-pipeline": settle_pipeline,
}
