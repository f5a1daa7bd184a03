"""Threshold-game characteristic function and Shapley evaluators.

A threshold game pays the full prize to any coalition whose aggregated
information reaches the promised level, and nothing otherwise.
``ThresholdGame`` holds its player ids and its reports as columns, built
from a collection year's ledger by ``ThresholdGame.from_reports`` or from
(id, batches) pairs by the class call. It computes every player's
statistics once, at construction, into the read-only ``stats`` array that
``characteristic`` and every evaluator read.

Every evaluator reduces to one quantity, player i's net marginal count at
prefix size s: the sum over |S| = s, i not in S, of v(S + i) - v(S), in
units of the prize. The two enumerators return it as one int64 matrix
``marginals[i, s]``, which ``_shares`` turns into shares by weighting
column s with s! (n - 1 - s)! in Python ints and dividing once by n!
(the weights are computed once per n):

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
  c_s(i) of them contain i. A layer's c_s(i) come from histograms of the
  bytes of its coalition masks, ceil(n / 8) ``bincount`` calls and one
  integer product with a table of each byte's bits, not from a pass over
  the layer per player. kRR composition is not monotone, so a kRR
  game takes the full enumeration's matrix instead. So does a monotone
  game with 2^n <= MAX_FRONTIER whose losing family, bounded from the
  sorted statistics, may hold a third of all 2^n coalitions, as when a
  deal's target is most of the grand total: enumerating is cheaper
  there. The choice moves no share, since both paths give one matrix,
* ``shapley_sampled`` is the permutation-sampling estimator for
  federations too large to enumerate (Castro, Gomez & Tejada 2009). It
  samples the same marginals: one tally of every rise and fall of the
  win flag along each ordering, whose net count per player is divided
  once, by the sample count, as prize * (num / den) does above.

Bit-for-bit agreement between the first two is engineered, not hoped
for: every player's statistics come from ``privacy.Measure``, once per
game, every coalition's aggregate is computed by folding player
statistics in ascending player order (the exact evaluator's doubling
scheme and the pruned evaluator's colex frontier extension produce the
identical float), winning flags are decided by the measure's one
predicate, and both return the same integer matrix.

The sampler ranks each row of uniforms by sorting packed integer keys,
the uniform's 53 bits over the player index, so ties go to the lower
index, as in a stable ``argsort``. It holds each batch of orderings
position-major, one row per position, and folds the prefix sums over
consecutive row views, one ``np.add(prev, row, row)`` per position and
statistic: a left fold in ordering order. That is (n - 1) numpy calls per
statistic and batch, so the fold costs what a call costs, and each call
gets ready views and a positional output, not two indexed views and a
keyword ``out``. Its counts are exact integers with a single late
division, so its shares do not depend on the batch size;
``shapley_sampled`` says why each share is the float an ordering-major
running sum and float accumulator give.
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
from .privacy import MAX_EPSILON, AggregationMode, AlphabetSpec, Measure

MAX_ENUMERATION_PLAYERS = 30
# Cumulative frontier cap for the pruned evaluator on the monotone
# measures. Games whose losing family grows past this have no boundary
# structure worth pruning; sampling is the right tool there.
MAX_FRONTIER = 1 << 24
# The pruned evaluator takes the full enumeration's matrix when 2^n fits
# under MAX_FRONTIER and ``_losing_bound`` allows at least
# 2^n / _ENUMERATION_FACTOR losing coalitions: a frontier coalition costs
# several times an enumerated one. Measured on additive games at n = 10-22
# on a 2-vCPU VM, the two break even where the bound is 0.02-0.05 of 2^n at
# n = 10-13 and 0.1-0.35 at n = 16-22. Above a third, exact was 1.9-7x
# faster; below it, the frontier saved up to 30 ms at n = 22, and the
# wrong pick at n <= 16 cost under 0.2 ms.
_ENUMERATION_FACTOR = 3

# Players enumerated inside one chunk of the exact enumeration, and the
# largest chunk tallied as a single row of masks (see ``_exact_counts``).
_LOW_BITS = 20
_FLAT_BITS = 10
# Positions (orderings times players) drawn per step of the sampler, which
# takes max(1, _SAMPLE_POSITIONS // n) orderings at a time. The draws come
# in row order, so this sets speed and memory only, never the shares. Each
# (n, m) array of a batch takes at most 512 kB for any n <= 2^16, so
# several fit in a 2 MB L2 cache. Measured on the split-games large games
# (CPU time per 100k-sample call, fastest of 16 over two rounds, 2-vCPU
# VM): 2^16 positions took 26 / 53 / 137 ms at n = 25 / 50 / 100, against
# 24 / 49 / 138 ms for 2^15 and 32 / 61 / 164 ms for 2^17. Over the whole
# split-games pool 2^15 and 2^17 read within a few percent of 2^16, either
# way from round to round.
_SAMPLE_POSITIONS = 1 << 16


class ThresholdGame:
    """Players' reports, a target level and a prize, with each player's statistics.

    ``ids`` names the n players. ``reports`` holds every report as three
    read-only columns, ``(player, d, eps)``: report r gives player
    ``ids[player[r]]`` ``d[r]`` points under privacy parameter ``eps[r]``.
    ``stats[j, i]`` is player i's j-th statistic, shape (width, n), read-only
    and computed once, at construction: the reports with d > 0 are grouped
    by a stable argsort of their player index, one ``Measure.columns`` call
    gives every report's statistics, and a player's statistic is the
    ``math.fsum`` of their terms. ``fsum`` is correctly rounded, so the
    order of the reports does not change it, and a player without data
    gets 0.0.

    ``ThresholdGame(players, mode, target, prize, spec)`` takes one
    (id, ``ReportBatch`` tuple) pair per player, as a game file lists them.
    ``ThresholdGame.from_reports(ids, player, d, eps, mode, target, prize,
    spec)`` takes the columns as a collection year's ledger holds them.
    Both run the same checks and build the same statistics.
    """

    ids: tuple[str, ...]
    reports: tuple[np.ndarray, np.ndarray, np.ndarray]  # player (intp), d (int64), eps (float)
    mode: AggregationMode
    target: float
    prize: float
    spec: AlphabetSpec
    measure: Measure
    stats: np.ndarray

    def __init__(self, players, mode, target, prize, spec) -> None:
        batches = [(i, b.d, b.epsilon) for i, (_, bs) in enumerate(players) for b in bs]
        player, d, eps = zip(*batches) if batches else ((), (), ())
        self._build(tuple(pid for pid, _ in players), player, d, eps, mode, target, prize, spec)

    @classmethod
    def from_reports(cls, ids, player, d, eps, mode, target, prize, spec) -> ThresholdGame:
        """The game whose report r gives player ``ids[player[r]]`` ``d[r]`` points under ``eps[r]``."""
        game = cls.__new__(cls)
        game._build(tuple(ids), player, d, eps, mode, target, prize, spec)
        return game

    def _build(self, ids, player, d, eps, mode, target, prize, spec) -> None:
        if not ids:
            raise DomainError("a threshold game needs at least one player")
        if len(set(ids)) != len(ids):
            raise DomainError("player ids must be unique")
        if not (target > 0 and math.isfinite(target)):
            raise DomainError(f"target must be positive and finite, got {target}")
        if not (prize >= 0 and math.isfinite(prize)):
            raise DomainError(f"prize must be non-negative and finite, got {prize}")
        player, d, eps = np.array(player, np.intp), np.array(d, np.int64), np.array(eps, float)
        if player.size and not (0 <= player.min() <= player.max() < len(ids) and d.min() >= 0):
            raise DomainError(f"reports need d >= 0 and a player index below {len(ids)}")
        if not np.all((d == 0) | ((eps > 0) & (eps <= MAX_EPSILON))):  # NaN fails both
            raise DomainError(f"a report with data needs epsilon in (0, {MAX_EPSILON}]")
        self.ids, self.mode, self.target, self.prize, self.spec = ids, mode, target, prize, spec
        self.measure = Measure(mode, spec.k)

        kept = np.flatnonzero(d > 0)
        kept = kept[np.argsort(player[kept], kind="stable")]
        spans = list(itertools.pairwise(np.searchsorted(player[kept], np.arange(len(ids) + 1))))
        columns = [c.tolist() for c in self.measure.columns(d[kept], eps[kept])]
        self.stats = np.array([[math.fsum(c[lo:hi]) for lo, hi in spans] for c in columns])
        self.reports = (player, d, eps)
        for array in (*self.reports, self.stats):
            array.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.ids)

    def player_ids(self) -> list[str]:
        return list(self.ids)


@dataclass(frozen=True)
class ShapleyResult:
    shares: Mapping[str, float]
    method: str
    sample_count: int | None = None

    def total(self) -> float:
        return math.fsum(self.shares.values())


def characteristic(subset: Iterable[str], game: ThresholdGame) -> float:
    """v(S): the prize if S's aggregate reaches the target, else 0."""
    ids = set(subset)
    order = {pid: i for i, pid in enumerate(game.ids)}
    unknown = ids - set(order)
    if unknown:
        raise DomainError(f"unknown players in subset: {sorted(unknown)}")
    totals = np.zeros(game.measure.width)
    for i in sorted(order[pid] for pid in ids):  # ascending fold, matching the enumeration order
        totals = totals + game.stats[:, i]
    return game.prize if game.measure.wins(totals, game.target) else 0.0


def _shares(game: ThresholdGame, marginals: np.ndarray) -> dict[str, float]:
    """Each player's share, prize * (num / n!), from its net marginal counts.

    ``marginals[i, s]`` sums v(S + i) - v(S) over the coalitions S of size
    s without player i, in units of the prize. Each such S precedes i in
    s! (n - 1 - s)! of the n! orderings, so num weights column s by that.
    The weights and n! are built once per n (``_share_weights``). Every
    weight and sum is a Python int, so a column of zeros adds exactly 0;
    the one division per player is correctly rounded, signed zeros
    included.
    """
    weights, den = _share_weights(game.n)
    return {
        pid: game.prize * (sum(map(operator.mul, weights, row)) / den)
        for pid, row in zip(game.ids, marginals.tolist())
    }


@functools.cache
def _share_weights(n: int) -> tuple[tuple[int, ...], int]:
    """The weights s! (n - 1 - s)! for s = 0 .. n - 1, and n!."""
    weights = tuple(math.factorial(s) * math.factorial(n - 1 - s) for s in range(n))
    return weights, math.factorial(n)


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
    """Winning-coalition counts per size, total and per player, from the game's ``stats``.

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
    measure, stats = game.measure, game.stats

    low_totals = np.zeros((measure.width, 1 << c, 1 << a))
    cols = low_totals[:, 0]
    for i in range(a):
        step = 1 << i
        np.add(cols[:, :step], stats[:, i : i + 1], out=cols[:, step : 2 * step])
    cols[:] = cols[:, _masks(a).order]
    for i in range(c):
        step = 1 << i
        np.add(low_totals[:, :step], stats[:, a + i, None, None], out=low_totals[:, step : 2 * step])

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
    marginals = _enumerated_marginals(game)
    return ShapleyResult(shares=_shares(game, marginals), method="exact")


# _BYTE_BITS[v, j] is bit j of the byte v.
_BYTE_BITS = np.arange(256)[:, None] >> np.arange(8) & 1
_BYTE_BITS.setflags(write=False)


def _bit_counts(masks: np.ndarray, n: int) -> np.ndarray:
    """How many of the non-negative int64 ``masks`` have bit j set, for j < n.

    The masks are read as little-endian bytes: byte b of a mask holds its
    bits 8b .. 8b + 7. One ``bincount`` per byte histograms its 256
    values, and one integer product with the (256, 8) bit table turns the
    ceil(n / 8) histograms into the counts of their bits. Integer ``@``
    runs in numpy's own loops, not BLAS, and every count is exact.
    """
    nbytes = -(-n // 8)
    octets = masks.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    hist = [np.bincount(octets[:, b], minlength=256) for b in range(nbytes)]
    return (np.array(hist) @ _BYTE_BITS).ravel()[:n]


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
    empty, so are all larger ones, and the growth stops. Each layer's
    c_s(i) is one ``_bit_counts`` call over its masks.
    """
    n = game.n
    measure = game.measure
    values = game.stats[0]  # a monotone measure carries one statistic
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
        inside[s + 1] = _bit_counts(masks, n)

    return (losing[:, None] - inside[:-1] - inside[1:]).T


def _losing_bound(values: np.ndarray, target: float) -> int:
    """At most how many coalitions lose under a monotone measure: the sum of
    C(n, s) over s <= s_max.

    s_max counts the smallest statistics that still add up to less than the
    target, so no coalition of more players can lose. The sum runs in sorted
    order, not in the canonical fold, and may differ from it by a rounding;
    the bound only chooses between two evaluators with the same result.
    """
    s_max = int(np.count_nonzero(np.cumsum(np.sort(values)) < target))
    return sum(math.comb(values.size, s) for s in range(s_max + 1))


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

    A monotone game takes the full enumeration's counts too when walking
    the frontier would cost more: when 2^n <= MAX_FRONTIER and
    ``_losing_bound`` leaves room for at least 2^n / _ENUMERATION_FACTOR
    losing coalitions, as in a deal whose target is most of the grand
    total. Both paths fold the same player statistics in the same order,
    decide wins by the same predicate and return the same int64 matrix, so
    the shares cannot differ. A game with 2^n > MAX_FRONTIER always walks
    the frontier, so it raises ``CapacityError`` exactly when it did
    before the choice existed.
    """
    _guard_enumeration(game.n, "shapley_pruned")
    full = 1 << game.n
    if game.mode is AggregationMode.KRR_COMPOSITION or (
        full <= MAX_FRONTIER and _ENUMERATION_FACTOR * _losing_bound(game.stats[0], game.target) >= full
    ):
        marginals = _enumerated_marginals(game)
    else:
        marginals = _pruned_marginals(game)
    return ShapleyResult(shares=_shares(game, marginals), method="pruned")


def _orderings(u: np.ndarray) -> np.ndarray:
    """The orderings that rank each row of ``u``, position-major: shape (n, m).

    ``order[j, p]`` is the player at position j of ordering p, equal to
    ``np.argsort(u, axis=1, kind="stable").T``: ascending uniforms, ties
    broken by player index. ``Generator.random`` returns k / 2^53 with an
    integer k < 2^53 under each of numpy's bit generators, so with
    b = (n - 1).bit_length() the scaled draw u * 2^(53 + b) is exactly
    k << b. The player index goes into the low b bits, one integer sort per
    row ranks the keys, and masking the high bits off leaves the players.
    Past n = 1024 the key would need more than 63 bits, and the stable
    ``argsort`` of ``u`` is taken directly.
    """
    n = u.shape[1]
    b = (n - 1).bit_length()
    if 53 + b > 63:
        return np.ascontiguousarray(np.argsort(u, axis=1, kind="stable").T)
    keys = np.empty(u.shape, dtype=np.int64)
    np.multiply(u, 2.0 ** (53 + b), out=keys, casting="unsafe")  # one pass, no float temporary
    keys |= np.arange(n)
    keys.sort(axis=1)
    keys &= (1 << b) - 1
    return np.ascontiguousarray(keys.T)


def _sample_count(samples) -> int:
    """``samples`` as a Python int of at least 1, taken through ``operator.index``.

    A float (NaN included), a ``bool`` or anything else that is not an
    integer of at least 1 is a ``DomainError``; a numpy integer becomes a
    Python int, so shares and ``sample_count`` are Python numbers.
    """
    try:
        count = None if isinstance(samples, bool) else operator.index(samples)
    except TypeError:
        count = None
    if count is None or count < 1:
        raise DomainError(f"sample count must be an integer of at least 1, got {samples!r}")
    return count


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

    A batch of m = max(1, _SAMPLE_POSITIONS // n) orderings is one
    ``rng.random((m, n))`` draw. Each row is ranked in ascending order of
    its uniforms, ties broken by player index: the ordering is
    ``np.argsort(u, axis=1, kind="stable")``, built by ``_orderings`` and
    held position-major as ``order``, shape (n, m). A tie needs two equal
    53-bit uniforms in one row, about once in 2e7 calls of 100k samples at
    n = 100; the index rule makes it independent of which sort kernel
    numpy picks. Each statistic's prefix sums are built in place, in one
    pass over the consecutive row views of its (n, m) block, with
    ``np.add(prev, row, row)``: row j becomes row j - 1 plus row j across
    the batch, so the running sum of every ordering is a left fold in
    ordering order, and each prefix is the same float that a
    per-ordering cumulative sum gives. Any other order of addition can
    move a share: v(S) is this fold, not ``characteristic``'s ascending
    one. The pass makes n - 1 ``np.add`` calls per statistic and batch,
    about 30,000 per 100k samples at n = 100 kRR, so the views are made
    once, by iterating the block, and the output is passed by position.

    Every change of the win flag along an ordering is credited to the
    player whose step makes it: a rise to ``up``, a fall to ``down``. Under
    the monotone measures the flag rises at most once and never falls;
    under kRR a low-epsilon step can make it fall.

    The counts are exact integers. Every share, including the sign of a
    zero share, is the float a per-ordering float accumulator of the
    same marginals gives, whatever the batch size.
    """
    samples = _sample_count(samples)
    n = game.n
    measure = game.measure

    up = np.zeros(n, dtype=np.int64)  # +1 marginals per player
    down = np.zeros(n, dtype=np.int64)  # -1 marginals per player (kRR only)
    batch = max(1, _SAMPLE_POSITIONS // n)
    remaining = samples
    while remaining > 0:
        m = min(remaining, batch)
        remaining -= m
        order = _orderings(rng.random((m, n)))
        prefix = [np.take(row, order) for row in game.stats]
        for c in prefix:
            for prev, row in itertools.pairwise(c):
                np.add(prev, row, row)
        win = measure.wins(prefix, game.target)
        rise = win.copy()
        rise[1:] &= ~win[:-1]
        fall = win[:-1] & ~win[1:]
        up += np.bincount(order[rise], minlength=n)
        down += np.bincount(order[1:][fall], minlength=n)

    shares = {
        pid: game.prize * ((u - d) / samples)
        for pid, u, d in zip(game.ids, up.tolist(), down.tolist())
    }
    return ShapleyResult(shares=shares, method="sampled", sample_count=samples)
