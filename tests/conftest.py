"""Shared helpers: random game generation and independent oracles.

The oracles here recompute characteristic values and Shapley shares from
scratch (own aggregation arithmetic, permutation enumeration) so the
evaluators under test are checked against a separate code path.
"""

import itertools
import math

import numpy as np
import pytest

from fedmarket.privacy import AggregationMode, AlphabetSpec, ReportBatch
from fedmarket.shapley import ThresholdGame

ALL_MODES = (
    AggregationMode.ADDITIVE_INFORMATION,
    AggregationMode.EXAMPLE_CONTRIBUTION,
    AggregationMode.KRR_COMPOSITION,
)


def scalar_stats(mode, k, d, eps):
    """One batch's statistics in scalar floats, the reference for ``Measure.columns``.

    Each entry is the IEEE expression the columnar form must reproduce bit for bit.
    """
    if mode is AggregationMode.ADDITIVE_INFORMATION:
        return [d * eps]
    e = math.exp(eps)
    if mode is AggregationMode.EXAMPLE_CONTRIBUTION:
        return [d * (e / (k - 1 + e))]
    return [d, d / (k - 1 + e)]


def oracle_aggregate(batches, mode, k):
    """Independent re-implementation of the three information measures."""
    batches = [b for b in batches if b.d > 0]
    if mode is AggregationMode.ADDITIVE_INFORMATION:
        return math.fsum(b.d * b.epsilon for b in batches)
    if mode is AggregationMode.EXAMPLE_CONTRIBUTION:
        return math.fsum(
            b.d * math.exp(b.epsilon) / (k - 1 + math.exp(b.epsilon)) for b in batches
        )
    total = sum(b.d for b in batches)
    if total == 0:
        return None  # no data, no information
    mass = math.fsum(b.d / (k - 1 + math.exp(b.epsilon)) for b in batches)
    return math.log(total / mass + 1 - k)


def oracle_characteristic(subset_ids, game: ThresholdGame) -> float:
    batches = [
        ReportBatch(int(d), float(eps))
        for i, d, eps in zip(*game.reports)
        if game.ids[i] in subset_ids
    ]
    agg = oracle_aggregate(batches, game.mode, game.spec.k)
    if agg is None:
        return 0.0
    return game.prize if agg >= game.target else 0.0


def oracle_shapley_subsets(game: ThresholdGame) -> dict:
    """Brute force over all subsets with exact factorial weights."""
    ids = game.player_ids()
    n = len(ids)
    fact = [math.factorial(r) for r in range(n + 1)]
    shares = {}
    for pid in ids:
        rest = [q for q in ids if q != pid]
        total = 0.0
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                marginal = oracle_characteristic(set(combo) | {pid}, game) - oracle_characteristic(
                    set(combo), game
                )
                total += fact[r] * fact[n - r - 1] / fact[n] * marginal
        shares[pid] = total
    return shares


def oracle_shapley_permutations(game: ThresholdGame) -> dict:
    """Average marginal contribution over every player ordering."""
    ids = game.player_ids()
    n = len(ids)
    sums = {pid: 0.0 for pid in ids}
    for perm in itertools.permutations(ids):
        prefix = set()
        previous = 0.0
        for pid in perm:
            prefix.add(pid)
            value = oracle_characteristic(prefix, game)
            sums[pid] += value - previous
            previous = value
    return {pid: total / math.factorial(n) for pid, total in sums.items()}


def random_threshold_game(
    rng: np.random.Generator,
    mode: AggregationMode,
    max_players: int = 8,
    min_players: int = 1,
) -> ThresholdGame:
    """A random game whose target usually sits inside the reachable range."""
    n = int(rng.integers(min_players, max_players + 1))
    k = int(rng.integers(2, 17))
    players = []
    for i in range(n):
        batches = tuple(
            ReportBatch(int(d), float(rng.uniform(0.1, 8.0)))
            for d in rng.integers(0, 5, size=int(rng.integers(1, 4)))
        )
        players.append((f"p{i}", batches))
    grand = oracle_aggregate([b for _, bs in players for b in bs], mode, k)
    if grand is None or grand <= 0:
        target = float(rng.uniform(0.5, 5.0))
    else:
        target = max(1e-6, float(grand * rng.uniform(0.2, 1.2)))
    prize = float(rng.uniform(1.0, 100.0))
    return ThresholdGame(tuple(players), mode, target, prize, AlphabetSpec(k))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
