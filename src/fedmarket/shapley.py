"""Threshold-game characteristic function and Shapley evaluators.

A threshold game pays the full prize to any coalition whose aggregated
information reaches the promised level, and nothing otherwise. Three
evaluators are provided:

* ``shapley_exact`` enumerates every coalition (guarded at n <= 30),
* ``shapley_pruned`` enumerates only losing coalitions and must
  reproduce the exact shares bit for bit. Pruning needs a monotone
  measure (the additive ones): their statistics are non-negative and
  IEEE addition is monotone, so losing coalitions are downward closed
  even in floating point, and player i's pivot count at size s is
  L_s - c_s(i) - c_{s+1}(i), where L_s losing coalitions have size s and
  c_s(i) of them contain i. kRR composition is not monotone, so a kRR
  game is tallied over the full enumeration instead,
* ``shapley_sampled`` is the permutation-sampling estimator for
  federations too large to enumerate (Castro, Gomez & Tejada 2009).

Bit-for-bit agreement between the first two is engineered, not hoped
for: every player's statistics come from ``privacy.Measure``, every
coalition's aggregate is computed by folding player statistics in
ascending player order (the exact evaluator's doubling scheme and the
pruned evaluator's colex frontier extension produce the identical float),
winning flags are decided by the measure's one predicate, and the
factorial weights are accumulated in exact integer arithmetic with a
single late division.

The sampler holds each batch of orderings position-major, folds prefix
sums one position at a time across the batch, and counts +1 and -1
marginals per player as exact integers (``up``, ``down``) with a single
late division, so its shares do not depend on the batch size;
``shapley_sampled`` says why each share is the float an ordering-major
running sum and float accumulator give.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, DomainError
from .privacy import AggregationMode, AlphabetSpec, Measure, ReportBatch

MAX_ENUMERATION_PLAYERS = 30
# Cumulative frontier cap for the pruned evaluator on the monotone
# measures. Games whose losing family grows past this have no boundary
# structure worth pruning; sampling is the right tool there.
MAX_FRONTIER = 1 << 24

_LOW_BITS = 20  # chunk granularity for the exact enumeration
# Orderings drawn per step of the sampler. The draws come in row order,
# so this sets speed and memory only, never the shares. Measured on the
# split-games large games (n = 25, 50, 100) and n = 24 settle splits,
# 2048 and 4096 tie for speed and 1024 and 8192 are up to 10% slower;
# 2048 needs half the scratch memory of 4096.
_SAMPLE_BATCH = 2048


@dataclass(frozen=True)
class ThresholdGame:
    """Players with merged report batches, a target level, and a prize."""

    players: tuple[tuple[str, tuple[ReportBatch, ...]], ...]
    mode: AggregationMode
    target: float
    prize: float
    spec: AlphabetSpec

    def __post_init__(self) -> None:
        if not self.players:
            raise DomainError("a threshold game needs at least one player")
        ids = [pid for pid, _ in self.players]
        if len(set(ids)) != len(ids):
            raise DomainError("player ids must be unique")
        if not (self.target > 0 and math.isfinite(self.target)):
            raise DomainError(f"target must be positive and finite, got {self.target}")
        if not (self.prize >= 0 and math.isfinite(self.prize)):
            raise DomainError(f"prize must be non-negative and finite, got {self.prize}")

    @property
    def n(self) -> int:
        return len(self.players)

    def player_ids(self) -> list[str]:
        return [pid for pid, _ in self.players]

    @property
    def measure(self) -> Measure:
        return Measure(self.mode, self.spec.k)


@dataclass(frozen=True)
class ShapleyResult:
    shares: Mapping[str, float]
    method: str
    sample_count: int | None = None

    def total(self) -> float:
        return math.fsum(self.shares.values())


def _player_stats(game: ThresholdGame) -> np.ndarray:
    """Per-player statistics, shape (width, n): ``math.fsum`` over each player's batches.

    One ``Measure.columns`` call covers every batch with data, player by player.
    """
    kept = [[b for b in batches if b.d > 0] for _, batches in game.players]
    bounds = [0, *itertools.accumulate(map(len, kept))]
    d = np.array([b.d for batches in kept for b in batches], dtype=np.int64)
    eps = np.array([b.epsilon for batches in kept for b in batches], dtype=float)
    columns = [column.tolist() for column in game.measure.columns(d, eps)]
    return np.array(
        [[math.fsum(column[lo:hi]) for lo, hi in zip(bounds, bounds[1:])] for column in columns]
    )


def characteristic(subset: Iterable[str], game: ThresholdGame) -> float:
    """v(S): the prize if S's aggregate reaches the target, else 0."""
    ids = set(subset)
    order = {pid: i for i, pid in enumerate(game.player_ids())}
    unknown = ids - set(order)
    if unknown:
        raise DomainError(f"unknown players in subset: {sorted(unknown)}")
    stats = _player_stats(game)
    totals = np.zeros(stats.shape[0])
    for i in sorted(order[pid] for pid in ids):  # ascending fold, matching the enumeration order
        totals = totals + stats[:, i]
    return game.prize if game.measure.wins(totals, game.target) else 0.0


def _shares_from_numerators(game: ThresholdGame, numerators: list[int]) -> dict[str, float]:
    n_fact = math.factorial(game.n)
    return {
        pid: game.prize * (num / n_fact)
        for (pid, _), num in zip(game.players, numerators)
    }


def _guard_enumeration(n: int, method: str) -> None:
    if n > MAX_ENUMERATION_PLAYERS:
        raise CapacityError(
            f"{method} enumerates coalitions and is capped at "
            f"{MAX_ENUMERATION_PLAYERS} players (got {n}); use shapley_sampled"
        )


def _exact_counts(game: ThresholdGame) -> tuple[np.ndarray, np.ndarray]:
    """Winning-coalition counts per size, total and per player.

    Returns (wins_by_size)[r] and (wins_with_player)[i, r], both exact
    integer tallies over the full 2^n enumeration. Aggregates are built
    by adding one player at a time in ascending index order so that each
    coalition's float value is the canonical fold.
    """
    n = game.n
    low = min(n, _LOW_BITS)
    low_size = 1 << low
    measure = game.measure
    stats = _player_stats(game)

    low_totals = np.zeros((measure.width, low_size))
    for i in range(low):
        step = 1 << i
        low_totals[:, step : 2 * step] = low_totals[:, :step] + stats[:, i : i + 1]

    low_pop = np.zeros(low_size, dtype=np.uint8)
    for i in range(low):
        step = 1 << i
        low_pop[step : 2 * step] = low_pop[:step] + 1

    wins_by_size = np.zeros(n + 1, dtype=np.int64)
    wins_with_player = np.zeros((n, n + 1), dtype=np.int64)
    low_bits = [np.int64(1) << np.int64(i) for i in range(low)]

    for high_mask in range(1 << (n - low)):
        high_players = [low + j for j in range(n - low) if high_mask >> j & 1]
        totals = low_totals
        for p in high_players:  # ascending, keeps the fold canonical
            totals = totals + stats[:, p : p + 1]

        widx = np.flatnonzero(measure.wins(totals, game.target))
        if widx.size == 0:
            continue
        sizes_w = (low_pop[widx] + len(high_players)).astype(np.int64)
        chunk_by_size = np.bincount(sizes_w, minlength=n + 1)
        wins_by_size += chunk_by_size
        for i in range(low):
            sel = (widx & low_bits[i]) != 0
            if sel.any():
                wins_with_player[i] += np.bincount(sizes_w[sel], minlength=n + 1)
        for p in high_players:
            wins_with_player[p] += chunk_by_size

    return wins_by_size, wins_with_player


def _enumerated_numerators(game: ThresholdGame) -> list[int]:
    """Shapley numerators (shares times n! / prize) from the full enumeration.

    The per-player sum of weighted marginal contributions is regrouped as
    a sum over winning coalitions: a winning R adds weight (|R|-1)!(n-|R|)!
    for each member and subtracts |R|!(n-1-|R|)! for each non-member.
    """
    n = game.n
    wins_by_size, wins_with_player = _exact_counts(game)
    fact = [math.factorial(r) for r in range(n + 1)]
    numerators = []
    for i in range(n):
        num = 0
        for r in range(n + 1):
            total = int(wins_by_size[r])
            if total == 0:
                continue
            with_i = int(wins_with_player[i, r])
            if r >= 1:
                num += fact[r - 1] * fact[n - r] * with_i
            if r <= n - 1:
                num -= fact[r] * fact[n - 1 - r] * (total - with_i)
        numerators.append(num)
    return numerators


def shapley_exact(game: ThresholdGame) -> ShapleyResult:
    """Shapley shares by full enumeration of all 2^n coalitions.

    Weights are exact integers; the single division happens at the end.
    """
    _guard_enumeration(game.n, "shapley_exact")
    numerators = _enumerated_numerators(game)
    return ShapleyResult(shares=_shares_from_numerators(game, numerators), method="exact")


def _pruned_numerators(game: ThresholdGame) -> list[int]:
    """Shapley numerators from pivot counts, for a monotone measure.

    Losing coalitions are grown layer by layer by colex extension: a
    coalition is extended only by players above its top, in ascending
    order, which reproduces the canonical fold and leaves each layer's
    tops ascending. Winning coalitions are never extended; that is the
    entire pruning.

    The statistics are non-negative and IEEE addition is monotone, so
    dropping terms from an ascending fold never raises it: the losing
    coalitions are downward closed, and every losing S + {i} is a member
    of the next layer. With L_s losing coalitions of size s, c_s(i) of
    them containing i, player i is pivotal (S loses, S + {i} wins) for
    L_s - c_s(i) - c_{s+1}(i) coalitions S of size s: the losing ones
    without i, less those whose S + {i} still loses. Each pivot carries
    weight s! (n - 1 - s)!.
    """
    n = game.n
    measure = game.measure
    values = _player_stats(game)[0]  # a monotone measure carries one statistic
    target = game.target
    weight = [math.factorial(s) * math.factorial(n - 1 - s) for s in range(n)]
    players = np.arange(n, dtype=np.int64)
    bits = np.int64(1) << players
    numerators = [0] * n

    masks = np.zeros(1, dtype=np.int64)
    sums = np.zeros(1)
    tops = np.full(1, -1, dtype=np.int64)
    inside = [0] * n  # c_s(i) of the current layer
    total_frontier = 1

    for s in range(n):
        losing = masks.size  # L_s
        # the parents of child j are the prefix of the layer with tops below j
        ends = np.searchsorted(tops, players)
        child_tops = np.repeat(players, ends)
        parents = np.arange(child_tops.size) - np.repeat(np.cumsum(ends) - ends, ends)
        grown = sums[parents] + values[child_tops]
        keep = ~measure.wins((grown,), target)
        masks = masks[parents[keep]] | bits[child_tops[keep]]
        sums = grown[keep]
        tops = child_tops[keep]
        total_frontier += masks.size
        if total_frontier > MAX_FRONTIER:
            raise CapacityError(
                "pruned enumeration frontier exceeded capacity; use shapley_sampled"
            )

        inside_next = [int(np.count_nonzero(masks & bit)) for bit in bits]
        for i in range(n):
            numerators[i] += weight[s] * (losing - inside[i] - inside_next[i])
        inside = inside_next

    return numerators


def shapley_pruned(game: ThresholdGame) -> ShapleyResult:
    """Shapley shares accumulating only threshold-crossing coalitions.

    For a threshold game the marginal contribution of player i at S is
    zero unless adding i crosses the target, so tallying crossing pairs
    with their factorial weights reproduces the exact shares. Under the
    additive measures entire branches above the target are skipped, which
    is where the speedup over full enumeration comes from. kRR composition
    is not monotone (a low-epsilon batch can dilute the pooled parameter
    below the target), so its losing coalitions are not downward closed,
    nothing can be pruned, and the full enumeration's tally is returned.
    """
    _guard_enumeration(game.n, "shapley_pruned")
    if game.mode is AggregationMode.KRR_COMPOSITION:
        numerators = _enumerated_numerators(game)
    else:
        numerators = _pruned_numerators(game)
    return ShapleyResult(shares=_shares_from_numerators(game, numerators), method="pruned")


def shapley_sampled(
    game: ThresholdGame,
    samples: int,
    rng: np.random.Generator,
) -> ShapleyResult:
    """Unbiased permutation-sampling estimate of the Shapley shares.

    Each sample draws a uniformly random player ordering and credits the
    marginal of every prefix step: +1 to ``up`` of the player whose step
    makes the prefix win, +1 to ``down`` of one whose step makes it lose.
    Player i's share is prize * (up[i] - down[i]) / samples.

    A batch of m orderings is one ``rng.random((m, n))`` draw ranked by
    ``argsort`` along each row, then held position-major as ``order``,
    shape (n, m). Each statistic's prefix sums are built in place with
    one ``np.add`` per position across the batch: the running sum of
    every ordering is a left fold in ordering order, so each prefix is
    the same float that a per-ordering cumulative sum gives.

    The monotone measures (one non-negative statistic) lose on the empty
    prefix and never lose again once they win, so an ordering credits at
    most its pivotal player, at position n minus its count of winning
    prefixes. kRR is not monotone: every change of the win flag along an
    ordering is credited, a rise to ``up`` and a fall to ``down``.

    The counts are exact integers. Every share, including the sign of a
    zero share, is the float a per-ordering float accumulator of the
    same marginals gives, whatever the batch size.
    """
    if samples < 1:
        raise DomainError(f"sample count must be at least 1, got {samples}")
    n = game.n
    measure = game.measure
    stats = _player_stats(game)

    up = np.zeros(n, dtype=np.int64)  # +1 marginals per player
    down = np.zeros(n, dtype=np.int64)  # -1 marginals per player (kRR only)
    remaining = samples
    while remaining > 0:
        m = min(remaining, _SAMPLE_BATCH)
        remaining -= m
        # order[j, p] is the player at position j of ordering p
        order = np.ascontiguousarray(np.argsort(rng.random((m, n)), axis=1).T)
        prefix = [np.take(row, order) for row in stats]
        for c in prefix:
            for j in range(1, n):
                np.add(c[j - 1], c[j], out=c[j])
        win = measure.wins(prefix, game.target)
        if measure.width == 1:
            crossing = n - np.count_nonzero(win, axis=0)
            crossed = crossing < n
            up += np.bincount(order[crossing[crossed], crossed.nonzero()[0]], minlength=n)
        else:
            rise = win.copy()
            rise[1:] &= ~win[:-1]
            fall = win[:-1] & ~win[1:]
            up += np.bincount(order[rise], minlength=n)
            down += np.bincount(order[1:][fall], minlength=n)

    shares = {
        pid: game.prize * (float(u - d) / samples)
        for (pid, _), u, d in zip(game.players, up.tolist(), down.tolist())
    }
    return ShapleyResult(shares=shares, method="sampled", sample_count=samples)
