"""Threshold-game characteristic function and Shapley evaluators.

A threshold game pays the full prize to any coalition whose aggregated
information reaches the promised level, and nothing otherwise. Every
evaluator reduces to one quantity, player i's net marginal count at prefix
size s: the sum over |S| = s, i not in S, of v(S + i) - v(S), in units of
the prize. The two enumerators return it as one int64 matrix
``marginals[i, s]``, which ``_shares`` turns into shares by weighting
column s with s! (n - 1 - s)! in Python ints and dividing once by n!:

* ``shapley_exact`` enumerates every coalition (guarded at n <= 30)
  and counts the winning ones by size and by member, as power-index
  algorithms do (Matsui & Matsui 2000); the marginal at size s is the
  winners of size s + 1 with i less the winners of size s without i.
  The coalitions come in chunks of up to 2^20, each a matrix of win
  flags whose rows and columns are two halves of the low players; two
  histograms of a chunk (winners per row and column popcount, and per
  row popcount and column) and small cached bit tables give every
  player's count per size, with no pass over the chunk per player,
* ``shapley_pruned`` enumerates only losing coalitions and must
  reproduce the exact shares bit for bit. Pruning needs a monotone
  measure (the additive ones): their statistics are non-negative and
  IEEE addition is monotone, so losing coalitions are downward closed
  even in floating point, and player i's marginal at size s is
  L_s - c_s(i) - c_{s+1}(i), where L_s losing coalitions have size s and
  c_s(i) of them contain i. kRR composition is not monotone, so a kRR
  game takes the full enumeration's matrix instead,
* ``shapley_sampled`` is the permutation-sampling estimator for
  federations too large to enumerate (Castro, Gomez & Tejada 2009). It
  samples the same marginals: one tally of every rise and fall of the
  win flag along each ordering, whose net count per player is divided
  once, by the sample count, as prize * (num / den) does above.

Bit-for-bit agreement between the first two is engineered, not hoped
for: every player's statistics come from ``privacy.Measure``, every
coalition's aggregate is computed by folding player statistics in
ascending player order (the exact evaluator's doubling scheme and the
pruned evaluator's colex frontier extension produce the identical float),
winning flags are decided by the measure's one predicate, and both return
the same integer matrix.

The sampler holds each batch of orderings position-major and folds
prefix sums one position at a time across the batch. Its counts are
exact integers with a single late division, so its shares do not depend
on the batch size; ``shapley_sampled`` says why each share is the float
an ordering-major running sum and float accumulator give.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CapacityError, DomainError
from .privacy import AggregationMode, AlphabetSpec, Measure, ReportBatch

MAX_ENUMERATION_PLAYERS = 30
# Cumulative frontier cap for the pruned evaluator on the monotone
# measures. Games whose losing family grows past this have no boundary
# structure worth pruning; sampling is the right tool there.
MAX_FRONTIER = 1 << 24

# Players enumerated inside one chunk of the exact enumeration, and the
# largest chunk tallied as a single row of masks (see ``_exact_counts``).
_LOW_BITS = 20
_FLAT_BITS = 10
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


def _shares(game: ThresholdGame, marginals: np.ndarray) -> dict[str, float]:
    """Each player's share, prize * (num / n!), from its net marginal counts.

    ``marginals[i, s]`` sums v(S + i) - v(S) over the coalitions S of size
    s without player i, in units of the prize. Each such S precedes i in
    s! (n - 1 - s)! of the n! orderings, so num weights column s by that.
    Every weight and sum is a Python int; the one division per player is
    correctly rounded, signed zeros included.
    """
    n = game.n
    columns = np.flatnonzero(marginals.any(axis=0)).tolist()
    weights = [math.factorial(s) * math.factorial(n - 1 - s) for s in columns]
    den = math.factorial(n)
    return {
        pid: game.prize * (sum(map(operator.mul, weights, row)) / den)
        for (pid, _), row in zip(game.players, marginals[:, columns].tolist())
    }


def _guard_enumeration(n: int, method: str) -> None:
    if n > MAX_ENUMERATION_PLAYERS:
        raise CapacityError(
            f"{method} enumerates coalitions and is capped at "
            f"{MAX_ENUMERATION_PLAYERS} players (got {n}); use shapley_sampled"
        )


class _Masks(NamedTuple):
    """The masks 0 .. 2^bits - 1 in popcount order, ascending within a popcount."""

    order: np.ndarray  # the masks in that order
    starts: np.ndarray  # where popcounts 0 .. bits begin in ``order``
    members: np.ndarray  # bool (1 + bits, 2^bits): a row of True, then bit j of each mask


@functools.cache
def _masks(bits: int) -> _Masks:
    member = np.arange(1 << bits) >> np.arange(bits)[:, None] & 1
    popcount = member.sum(axis=0)
    order = np.argsort(popcount, kind="stable")
    starts = np.searchsorted(popcount[order], np.arange(bits + 1))
    members = np.vstack([np.ones(1 << bits, dtype=bool), member[:, order] == 1])
    for table in (order, starts, members):
        table.setflags(write=False)  # shared by every caller
    return _Masks(order, starts, members)


@functools.cache
def _size_keys(row_bits: int, col_bits: int) -> np.ndarray:
    """``bincount`` keys that send entry [i, p, q] of a tally array to [i, p + q]."""
    bits = row_bits + col_bits
    i, p, q = np.indices((bits + 1, row_bits + 1, col_bits + 1))
    keys = (i * (bits + 1) + p + q).ravel()
    keys.setflags(write=False)  # shared by every caller
    return keys


def _chunk_counts(win: np.ndarray) -> np.ndarray:
    """Winning masks of one chunk by size: row 0 counts them all, row 1 + j those with bit j.

    ``win`` is the chunk's 2^c x 2^a matrix of win flags, mask = col | row << a,
    with its rows in mask order and its columns in popcount order. With
    c = 0 one ``reduceat`` over the popcount groups counts the winners and
    each bit's. Otherwise two histograms come from the matrix: winners per
    (row, column popcount) and per (row popcount, column). The bit tables
    of ``_masks`` turn the second into each column bit's tally and the first
    into each row bit's, both by (row popcount, column popcount), and one
    ``bincount`` adds those up by size. Every count is an exact integer; the
    ``bincount`` weights are floats below 2^53. The kernels are numpy
    reductions, not ``@``: a float matmul can be as fast with one BLAS
    thread, but a multithreaded BLAS made it up to 20x slower on a busy
    2-vCPU machine, and nothing here sets the BLAS thread count.
    """
    c, a = (n.bit_length() - 1 for n in win.shape)
    cols, rows = _masks(a), _masks(c)
    if c == 0:
        return np.add.reduceat(cols.members & win, cols.starts, axis=1, dtype=np.int64)
    flags = win[rows.order]
    by_row = np.add.reduceat(flags, cols.starts, axis=1, dtype=np.int32)  # (2^c, a + 1)
    by_col = np.empty((c + 1, 1 << a), dtype=np.int32)
    for p, (lo, hi) in enumerate(itertools.pairwise([*rows.starts, 1 << c])):
        flags[lo:hi].sum(axis=0, dtype=np.int32, out=by_col[p])
    tallies = np.concatenate(  # [i, row popcount, column popcount]
        [
            np.add.reduceat(cols.members[:, None, :] * by_col, cols.starts, axis=2),
            np.add.reduceat(rows.members[1:, :, None] * by_row, rows.starts, axis=1),
        ]
    )
    sizes = np.bincount(_size_keys(c, a), weights=tallies.ravel(), minlength=(a + c + 1) ** 2)
    return sizes.reshape(a + c + 1, a + c + 1).astype(np.int64)


def _exact_counts(game: ThresholdGame) -> tuple[np.ndarray, np.ndarray]:
    """Winning-coalition counts per size, total and per player.

    Returns (wins_by_size)[r] and (wins_with_player)[i, r], both exact
    integer tallies over the full 2^n enumeration.

    The low players 0 .. low - 1 (low = min(n, _LOW_BITS)) span a chunk of
    2^low coalitions, held as a 2^c x 2^a matrix: the a column bits are
    players 0 .. a - 1, the c row bits the players above them, with c = 0
    up to 2^_FLAT_BITS coalitions and c = low // 2 beyond. Aggregates are
    built by doubling, adding one player at a time in ascending index order,
    so that each coalition's float is the canonical fold; the columns are
    put in popcount order once, before any row player is added. Each subset
    of the high players is one chunk, whose aggregates are its parent
    chunk's (the same subset without its top player) plus that player's
    statistics, so the fold stays ascending. ``_chunk_counts`` turns a
    chunk's win flags into per-size tallies of all winners and of each low
    player, shifted by the number of high players; each high player in the
    subset is credited the chunk's whole size histogram. Counts across
    chunks add up in int64.
    """
    n = game.n
    low = min(n, _LOW_BITS)
    c = 0 if low <= _FLAT_BITS else low // 2
    a = low - c
    measure = game.measure
    stats = _player_stats(game)

    low_totals = np.zeros((measure.width, 1 << c, 1 << a))
    cols = low_totals[:, 0]
    for i in range(a):
        step = 1 << i
        cols[:, step : 2 * step] = cols[:, :step] + stats[:, i : i + 1]
    cols[:] = cols[:, _masks(a).order]
    for i in range(c):
        step = 1 << i
        low_totals[:, step : 2 * step] = low_totals[:, :step] + stats[:, a + i, None, None]

    wins_by_size = np.zeros(n + 1, dtype=np.int64)
    wins_with_player = np.zeros((n, n + 1), dtype=np.int64)

    def visit(high: list[int], totals: np.ndarray) -> None:
        win = measure.wins(totals, game.target)
        if win.any():
            counts = _chunk_counts(win)
            sizes = slice(len(high), len(high) + low + 1)
            wins_by_size[sizes] += counts[0]
            wins_with_player[:low, sizes] += counts[1:]
            for p in high:
                wins_with_player[p, sizes] += counts[0]
        for p in range(high[-1] + 1 if high else low, n):  # ascending, keeps the fold canonical
            visit(high + [p], totals + stats[:, p, None, None])

    visit([], low_totals)
    return wins_by_size, wins_with_player


def _enumerated_marginals(game: ThresholdGame) -> np.ndarray:
    """Net marginal counts from the full enumeration's winning-coalition counts.

    Over |S| = s, i not in S, v(S + i) sums to the W_{s+1}(i) winners of
    size s + 1 with i, and v(S) to the W_s - W_s(i) winners of size s
    without i.
    """
    wins_by_size, wins_with_player = _exact_counts(game)
    return wins_with_player[:, 1:] - (wins_by_size[:-1] - wins_with_player[:, :-1])


def shapley_exact(game: ThresholdGame) -> ShapleyResult:
    """Shapley shares by full enumeration of all 2^n coalitions."""
    _guard_enumeration(game.n, "shapley_exact")
    return ShapleyResult(shares=_shares(game, _enumerated_marginals(game)), method="exact")


def _pruned_marginals(game: ThresholdGame) -> np.ndarray:
    """Net marginal counts from the losing coalitions alone, for a monotone measure.

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
    without i, less those whose S + {i} still loses. Once a layer is
    empty, so are all larger ones, and the growth stops.
    """
    n = game.n
    measure = game.measure
    values = _player_stats(game)[0]  # a monotone measure carries one statistic
    target = game.target
    players = np.arange(n, dtype=np.int64)
    bits = np.int64(1) << players
    losing = np.zeros(n, dtype=np.int64)  # L_s
    inside = np.zeros((n + 1, n), dtype=np.int64)  # c_s(i)

    masks = np.zeros(1, dtype=np.int64)
    sums = np.zeros(1)
    tops = np.full(1, -1, dtype=np.int64)
    total_frontier = 1

    for s in range(n):
        losing[s] = masks.size
        if masks.size == 0:
            break
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
        inside[s + 1] = [np.count_nonzero(masks & bit) for bit in bits]

    return (losing[:, None] - inside[:-1] - inside[1:]).T


def shapley_pruned(game: ThresholdGame) -> ShapleyResult:
    """Shapley shares accumulating only threshold-crossing coalitions.

    For a threshold game the marginal contribution of player i at S is
    zero unless adding i crosses the target, so counting crossing pairs
    reproduces the exact shares. Under the additive measures entire
    branches above the target are skipped, which is where the speedup over
    full enumeration comes from. kRR composition is not monotone (a
    low-epsilon batch can dilute the pooled parameter below the target),
    so its losing coalitions are not downward closed, nothing can be
    pruned, and the full enumeration's counts are used.
    """
    _guard_enumeration(game.n, "shapley_pruned")
    if game.mode is AggregationMode.KRR_COMPOSITION:
        marginals = _enumerated_marginals(game)
    else:
        marginals = _pruned_marginals(game)
    return ShapleyResult(shares=_shares(game, marginals), method="pruned")


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

    Every change of the win flag along an ordering is credited to the
    player whose step makes it: a rise to ``up``, a fall to ``down``. Under
    the monotone measures the flag rises at most once and never falls;
    under kRR a low-epsilon step can make it fall.

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
        rise = win.copy()
        rise[1:] &= ~win[:-1]
        fall = win[:-1] & ~win[1:]
        up += np.bincount(order[rise], minlength=n)
        down += np.bincount(order[1:][fall], minlength=n)

    shares = {
        pid: game.prize * ((u - d) / samples)
        for (pid, _), u, d in zip(game.players, up.tolist(), down.tolist())
    }
    return ShapleyResult(shares=shares, method="sampled", sample_count=samples)
