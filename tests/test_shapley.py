import itertools
import math

import numpy as np
import pytest

from conftest import (
    ALL_MODES,
    oracle_characteristic,
    oracle_shapley_permutations,
    oracle_shapley_subsets,
    random_threshold_game,
    scalar_stats,
)
from fedmarket import shapley
from fedmarket.config import ScenarioConfig
from fedmarket.errors import CapacityError, DomainError
from fedmarket.experiments import timing_game
from fedmarket.privacy import AggregationMode, AlphabetSpec, ReportBatch
from fedmarket.shapley import (
    ThresholdGame,
    characteristic,
    shapley_exact,
    shapley_pruned,
    shapley_sampled,
)


def _additive_game(contributions, target, prize):
    players = tuple(
        (f"p{i + 1}", (ReportBatch(1, c),)) for i, c in enumerate(contributions)
    )
    return ThresholdGame(
        players, AggregationMode.ADDITIVE_INFORMATION, target, prize, AlphabetSpec(2)
    )


MONOTONE_MODES = [m for m in ALL_MODES if m is not AggregationMode.KRR_COMPOSITION]


# The worked three-provider split: contributions (1.0, 0.5, 0.3), target
# 1.4, prize 60. Applying v literally (a coalition pays only when its sum
# reaches 1.4) both independent oracles give (30, 30, 0): only the
# {p1, p2} pair and the grand coalition win, and p3 is a null player.
EXAMPLE_GAME = _additive_game((1.0, 0.5, 0.3), 1.4, 60.0)
EXAMPLE_SHARES = {"p1": 30.0, "p2": 30.0, "p3": 0.0}


class TestCharacteristic:
    def test_empty_coalition(self):
        assert characteristic(set(), EXAMPLE_GAME) == 0.0

    def test_pair_meets_target(self):
        assert characteristic({"p1", "p2"}, EXAMPLE_GAME) == 60.0

    def test_pair_below_target(self):
        assert characteristic({"p1", "p3"}, EXAMPLE_GAME) == 0.0

    def test_boundary_is_inclusive(self):
        game = _additive_game((0.7, 0.7), 1.4, 10.0)
        assert characteristic({"p1", "p2"}, game) == 10.0

    def test_unknown_player_rejected(self):
        with pytest.raises(DomainError):
            characteristic({"ghost"}, EXAMPLE_GAME)

    def test_matches_oracle_on_random_games(self, rng):
        for mode in ALL_MODES:
            for _ in range(50):
                game = random_threshold_game(rng, mode, max_players=6)
                ids = game.player_ids()
                for r in range(len(ids) + 1):
                    for combo in itertools.combinations(ids, r):
                        assert characteristic(set(combo), game) == oracle_characteristic(
                            set(combo), game
                        )


class TestExact:
    def test_example_game_frozen_shares(self):
        result = shapley_exact(EXAMPLE_GAME)
        assert result.shares == pytest.approx(EXAMPLE_SHARES, abs=1e-12)

    def test_example_game_both_oracles_agree(self):
        by_subsets = oracle_shapley_subsets(EXAMPLE_GAME)
        by_permutations = oracle_shapley_permutations(EXAMPLE_GAME)
        assert by_subsets == pytest.approx(EXAMPLE_SHARES, abs=1e-12)
        assert by_permutations == pytest.approx(EXAMPLE_SHARES, abs=1e-12)

    def test_symmetric_two_player_split(self):
        game = _additive_game((1.0, 1.0), 1.5, 10.0)
        assert shapley_exact(game).shares == pytest.approx({"p1": 5.0, "p2": 5.0}, abs=1e-12)

    def test_grand_coalition_misses_target(self):
        game = _additive_game((0.2, 0.3), 10.0, 77.0)
        assert shapley_exact(game).shares == {"p1": 0.0, "p2": 0.0}

    def test_efficiency_on_random_games(self, rng):
        for mode in ALL_MODES:
            for _ in range(60):
                game = random_threshold_game(rng, mode, max_players=7)
                result = shapley_exact(game)
                grand = characteristic(set(game.player_ids()), game)
                assert result.total() == pytest.approx(grand, rel=1e-9, abs=1e-9)

    def test_matches_permutation_oracle(self, rng):
        for mode in ALL_MODES:
            for _ in range(25):
                game = random_threshold_game(rng, mode, max_players=5)
                expected = oracle_shapley_permutations(game)
                result = shapley_exact(game)
                assert result.shares == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_symmetry_with_planted_duplicates(self, rng):
        for _ in range(60):
            batches = tuple(
                ReportBatch(int(d), float(e))
                for d, e in zip(rng.integers(1, 4, 2), rng.uniform(0.2, 4.0, 2))
            )
            filler = (ReportBatch(int(rng.integers(1, 4)), float(rng.uniform(0.2, 4.0))),)
            game = ThresholdGame(
                (("dup1", batches), ("other", filler), ("dup2", batches)),
                AggregationMode.ADDITIVE_INFORMATION,
                float(rng.uniform(1.0, 12.0)),
                50.0,
                AlphabetSpec(4),
            )
            shares = shapley_exact(game).shares
            assert shares["dup1"] == pytest.approx(shares["dup2"], abs=1e-12)

    def test_null_player_gets_nothing(self, rng):
        for _ in range(40):
            players = (
                ("p1", (ReportBatch(1, float(rng.uniform(1, 3))),)),
                ("p2", (ReportBatch(1, float(rng.uniform(1, 3))),)),
                ("p3", (ReportBatch(0, 1.0),)),  # holds no data, never pivotal
            )
            game = ThresholdGame(
                players,
                AggregationMode.ADDITIVE_INFORMATION,
                float(rng.uniform(0.5, 3.5)),
                30.0,
                AlphabetSpec(2),
            )
            assert shapley_exact(game).shares["p3"] == 0.0

    def test_capacity_guard(self):
        game = _additive_game(tuple([1.0] * 31), 5.0, 10.0)
        with pytest.raises(CapacityError):
            shapley_exact(game)


class TestPruned:
    def test_example_game(self):
        assert shapley_pruned(EXAMPLE_GAME).shares == shapley_exact(EXAMPLE_GAME).shares

    def test_individually_winning_players_split_evenly(self, rng):
        # every player alone crosses the target: pivotal only at the empty set
        for _ in range(30):
            n = int(rng.integers(2, 8))
            contributions = tuple(float(rng.uniform(2.0, 5.0)) for _ in range(n))
            game = _additive_game(contributions, 1.0, 60.0)
            expected = {f"p{i + 1}": 60.0 / n for i in range(n)}
            result = shapley_pruned(game)
            assert result.shares == pytest.approx(expected, rel=1e-12)
            assert result.shares == shapley_exact(game).shares

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_identical_to_exact_on_random_games(self, mode):
        rng = np.random.default_rng(414243)
        for _ in range(200):
            game = random_threshold_game(rng, mode, max_players=10)
            exact = shapley_exact(game)
            pruned = shapley_pruned(game)
            assert pruned.shares == exact.shares  # bit-for-bit

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_identical_to_exact_on_larger_games(self, mode):
        # past 12 players the losing frontier of the monotone measures spans many layers
        rng = np.random.default_rng(1316)
        for n in range(13, 19):
            for _ in range(3):
                game = random_threshold_game(rng, mode, max_players=n, min_players=n)
                pruned = shapley_pruned(game)
                assert pruned.method == "pruned"
                assert pruned.shares == shapley_exact(game).shares  # bit-for-bit

    def test_capacity_guard(self):
        game = _additive_game(tuple([1.0] * 31), 5.0, 10.0)
        with pytest.raises(CapacityError):
            shapley_pruned(game)

    def test_frontier_cap(self, monkeypatch):
        # 16 equal players, target 8: 26333 losing coalitions in eight layers
        game = _additive_game(tuple([1.0] * 16), 8.0, 10.0)
        monkeypatch.setattr(shapley, "MAX_FRONTIER", 1000)
        with pytest.raises(CapacityError):
            shapley_pruned(game)


class TestPlayerStats:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_fsum_of_scalar_statistics(self, mode):
        # criterion-01 games have 1-3 batches per player, some without data
        rng = np.random.default_rng(909)
        games = [random_threshold_game(rng, mode, max_players=14) for _ in range(200)]
        huge = (
            ("a", (ReportBatch(2**62 + 1, 0.3),)),
            ("b", (ReportBatch(2**53 + 1, 2.0), ReportBatch(3, 0.5))),
        )
        games.append(ThresholdGame(huge, mode, 1.0, 1.0, AlphabetSpec(3)))
        for game in games:
            expected = [
                [
                    math.fsum(scalar_stats(mode, game.spec.k, b.d, b.epsilon)[j] for b in batches if b.d > 0)
                    for _, batches in game.players
                ]
                for j in range(game.measure.width)
            ]
            got = shapley._player_stats(game)
            assert got.dtype == np.float64
            assert [[x.hex() for x in row] for row in got.tolist()] == [
                [x.hex() for x in row] for row in expected
            ]


def _monotone_game(rng, mode, n, fraction):
    """A criterion-01 game with ``n`` players and its target at ``fraction`` of the grand total."""
    game = random_threshold_game(rng, mode, max_players=n, min_players=n)
    total = math.fsum(shapley._player_stats(game)[0])
    target = fraction * total if total > 0 else 1.0
    return ThresholdGame(game.players, mode, target, game.prize, game.spec)


def _takes_enumeration(game):
    full = 1 << game.n
    bound = shapley._losing_bound(shapley._player_stats(game)[0], game.target)
    return full <= shapley.MAX_FRONTIER and shapley._ENUMERATION_FACTOR * bound >= full


class TestPrunedCostCheck:
    """``shapley_pruned`` takes the enumeration's matrix where the losing family may be large."""

    @pytest.mark.parametrize("mode", MONOTONE_MODES, ids=lambda m: m.value)
    def test_both_matrices_equal_on_both_sides_of_the_switch(self, mode):
        rng = np.random.default_rng(1212)
        sides = set()
        for _ in range(300):
            game = _monotone_game(rng, mode, int(rng.integers(1, 15)), float(rng.uniform(0.05, 1.2)))
            stats = shapley._player_stats(game)
            pruned = shapley._pruned_marginals(game, stats)
            assert pruned.dtype == np.int64
            assert np.array_equal(pruned, shapley._enumerated_marginals(game, stats))
            sides.add(_takes_enumeration(game))
        assert sides == {True, False}

    def _spy(self, monkeypatch):
        taken = []
        for name in ("_enumerated_marginals", "_pruned_marginals"):
            original = getattr(shapley, name)

            def spy(game, stats, name=name, original=original):
                taken.append(name)
                return original(game, stats)

            monkeypatch.setattr(shapley, name, spy)
        return taken

    def test_settle_like_game_takes_the_enumeration(self, monkeypatch):
        rng = np.random.default_rng(76)
        games = [
            _monotone_game(rng, mode, n, fraction)
            for mode in MONOTONE_MODES
            for n in (6, 10, 14)
            for fraction in (0.76, 0.9, 1.0)
        ]
        taken = self._spy(monkeypatch)
        for game in games:
            assert shapley_pruned(game).method == "pruned"
        assert taken == ["_enumerated_marginals"] * len(games)

    def test_timing_game_walks_the_frontier(self, monkeypatch):
        config = ScenarioConfig()
        assert config.timing_target_fraction == 0.15
        games = [timing_game(config, n) for n in (*config.timing_sizes, 10, 12)]
        taken = self._spy(monkeypatch)
        for game in games:
            shapley_pruned(game)
        assert taken == ["_pruned_marginals"] * len(games)


class TestSampled:
    def test_example_game_within_three_standard_errors(self):
        samples = 100_000
        result = shapley_sampled(EXAMPLE_GAME, samples, np.random.default_rng(17))
        # per-ordering credit is Bernoulli(prize); se <= prize/(2 sqrt(samples))
        se = 60.0 / (2 * math.sqrt(samples))
        for pid, expected in EXAMPLE_SHARES.items():
            assert abs(result.shares[pid] - expected) <= 3 * se + 1e-9

    def test_symmetric_two_player(self):
        game = _additive_game((1.0, 1.0), 1.5, 10.0)
        result = shapley_sampled(game, 40_000, np.random.default_rng(5))
        se = 10.0 / (2 * math.sqrt(40_000))
        assert abs(result.shares["p1"] - 5.0) <= 3 * se
        assert abs(result.shares["p2"] - 5.0) <= 3 * se

    def test_zero_samples_rejected(self):
        with pytest.raises(DomainError):
            shapley_sampled(EXAMPLE_GAME, 0, np.random.default_rng(1))

    def test_deterministic_given_seed(self):
        a = shapley_sampled(EXAMPLE_GAME, 5000, np.random.default_rng(123))
        b = shapley_sampled(EXAMPLE_GAME, 5000, np.random.default_rng(123))
        assert a.shares == b.shares
        assert a.sample_count == 5000

    def test_unbiased_against_exact_on_krr_game(self, rng):
        game = random_threshold_game(
            np.random.default_rng(99), AggregationMode.KRR_COMPOSITION, max_players=5
        )
        exact = shapley_exact(game)
        sampled = shapley_sampled(game, 200_000, np.random.default_rng(101))
        se = game.prize / math.sqrt(200_000)  # generous bound, marginals in {-M, 0, M}
        for pid in game.player_ids():
            assert abs(sampled.shares[pid] - exact.shares[pid]) <= 3 * se


def _reference_sampled(game, samples, rng):
    """The ordering-major sampler: row-wise cumulative sums, a float accumulator.

    Kept as the bit-for-bit reference for ``shapley_sampled``, with its own
    batch size, so the comparison also shows that batching moves no share.
    """
    n = game.n
    measure = game.measure
    stats = shapley._player_stats(game)
    acc = np.zeros(n)
    remaining = samples
    while remaining > 0:
        m = min(remaining, 8192)
        remaining -= m
        perms = np.argsort(rng.random((m, n)), axis=1)
        win = measure.wins([np.cumsum(row[perms], axis=1) for row in stats], game.target)
        flags = win.astype(np.int8)
        marg = flags.copy()
        marg[:, 1:] -= flags[:, :-1]
        rows, cols = np.nonzero(marg)
        np.add.at(acc, perms[rows, cols], marg[rows, cols])
    return {pid: game.prize * (float(acc[i]) / samples) for i, (pid, _) in enumerate(game.players)}


def _krr_game(players, target, prize):
    return ThresholdGame(
        tuple((f"p{i}", (ReportBatch(d, eps),)) for i, (d, eps) in enumerate(players)),
        AggregationMode.KRR_COMPOSITION,
        target,
        prize,
        AlphabetSpec(4),
    )


# p0 alone wins; the low-epsilon p1 dilutes p0's pooled parameter below the
# target, so p1's step after p0 is a -1 marginal and p1's share is negative.
DILUTED_KRR = ((1, 6.0), (20, 0.05), (2, 3.0))


class TestSampledMatchesReference:
    SAMPLE_COUNTS = (
        1,
        shapley._SAMPLE_BATCH - 1,
        shapley._SAMPLE_BATCH,
        shapley._SAMPLE_BATCH + 1,
        20_000,
    )

    def _assert_same(self, game, seed=7):
        for samples in self.SAMPLE_COUNTS:
            result = shapley_sampled(game, samples, np.random.default_rng(seed))
            expected = _reference_sampled(game, samples, np.random.default_rng(seed))
            assert result.sample_count == samples
            assert list(result.shares) == list(expected)
            assert [v.hex() for v in result.shares.values()] == [
                v.hex() for v in expected.values()
            ], samples
        return result

    @pytest.mark.parametrize("n", (1, 2, 3, 24, 25, 50, 100))
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_random_games(self, mode, n):
        game = random_threshold_game(
            np.random.default_rng(1000 + n), mode, max_players=n, min_players=n
        )
        self._assert_same(game)

    def test_krr_game_with_negative_marginals(self):
        game = _krr_game(DILUTED_KRR, 4.0, 30.0)
        assert characteristic({"p0"}, game) == 30.0
        assert characteristic({"p0", "p1"}, game) == 0.0
        result = self._assert_same(game)
        assert result.shares["p1"] < 0

    def test_zero_prize_keeps_the_sign_of_a_zero_share(self):
        result = self._assert_same(_krr_game(DILUTED_KRR, 4.0, 0.0))
        assert math.copysign(1.0, result.shares["p1"]) == -1.0  # -0.0 from a -1 tally

    def test_monotone_game_whose_grand_coalition_loses(self):
        game = _additive_game((1.0, 0.5, 0.3, 2.0), 4.0, 60.0)
        result = self._assert_same(game)
        assert all(v.hex() == (0.0).hex() for v in result.shares.values())


def _reference_exact_counts(game):
    """The per-bit tally: one select-and-``bincount`` pass per low player per chunk.

    Kept as the reference for ``shapley._exact_counts``. It recomputes each
    chunk's aggregates from the low totals, folding in its high players in
    ascending order, and reads the same ``_LOW_BITS``.
    """
    n = game.n
    low = min(n, shapley._LOW_BITS)
    measure = game.measure
    stats = shapley._player_stats(game)
    low_totals = np.zeros((measure.width, 1 << low))
    low_pop = np.zeros(1 << low, dtype=np.int64)
    for i in range(low):
        step = 1 << i
        low_totals[:, step : 2 * step] = low_totals[:, :step] + stats[:, i : i + 1]
        low_pop[step : 2 * step] = low_pop[:step] + 1
    wins_by_size = np.zeros(n + 1, dtype=np.int64)
    wins_with_player = np.zeros((n, n + 1), dtype=np.int64)
    for high_mask in range(1 << (n - low)):
        high_players = [low + j for j in range(n - low) if high_mask >> j & 1]
        totals = low_totals
        for p in high_players:
            totals = totals + stats[:, p : p + 1]
        widx = np.flatnonzero(measure.wins(totals, game.target))
        sizes = low_pop[widx] + len(high_players)
        chunk_by_size = np.bincount(sizes, minlength=n + 1)
        wins_by_size += chunk_by_size
        for i in range(low):
            wins_with_player[i] += np.bincount(sizes[(widx >> i & 1) == 1], minlength=n + 1)
        for p in high_players:
            wins_with_player[p] += chunk_by_size
    return wins_by_size, wins_with_player


class TestExactCountsMatchReference:
    def _assert_same(self, game):
        wins_by_size, wins_with_player = shapley._exact_counts(game, shapley._player_stats(game))
        expected_by_size, expected_with_player = _reference_exact_counts(game)
        assert wins_by_size.dtype == wins_with_player.dtype == np.int64
        assert np.array_equal(wins_by_size, expected_by_size)
        assert np.array_equal(wins_with_player, expected_with_player)
        return wins_by_size, wins_with_player

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_one_chunk(self, mode):
        rng = np.random.default_rng(2718)
        for n in range(1, 19):
            self._assert_same(random_threshold_game(rng, mode, max_players=n, min_players=n))

    # chunks of 8 and 16 coalitions tallied as one row, and of 2^11 as a 32 x 64 matrix
    @pytest.mark.parametrize("low_bits, sizes", ((3, range(5, 13)), (4, range(5, 13)), (11, (12, 13))))
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_many_chunks(self, mode, low_bits, sizes, monkeypatch):
        monkeypatch.setattr(shapley, "_LOW_BITS", low_bits)
        rng = np.random.default_rng(31 + low_bits)
        for n in sizes:
            for _ in range(2):
                self._assert_same(random_threshold_game(rng, mode, max_players=n, min_players=n))

    def test_two_full_chunks_krr(self):
        game = random_threshold_game(
            np.random.default_rng(21), AggregationMode.KRR_COMPOSITION, max_players=21, min_players=21
        )
        assert game.n == shapley._LOW_BITS + 1
        wins_by_size, _ = self._assert_same(game)
        assert wins_by_size.sum() > 0

    @pytest.mark.parametrize("low_bits", (2, 20))
    def test_edge_games(self, low_bits, monkeypatch):
        monkeypatch.setattr(shapley, "_LOW_BITS", low_bits)
        n = 6
        nobody = _additive_game((1.0,) * n, 100.0, 10.0)
        wins_by_size, wins_with_player = self._assert_same(nobody)
        assert not wins_by_size.any() and not wins_with_player.any()

        everyone = _additive_game((1.0,) * n, 0.5, 10.0)
        wins_by_size, wins_with_player = self._assert_same(everyone)
        sizes = [math.comb(n, r) for r in range(n + 1)]
        assert wins_by_size.tolist() == [0, *sizes[1:]]
        assert wins_with_player.tolist() == [[0, *(math.comb(n - 1, r - 1) for r in range(1, n + 1))]] * n

        players = [(f"p{i}", (ReportBatch(1, 1.0),)) for i in range(n)]
        players[3] = ("p3", (ReportBatch(0, 2.0), ReportBatch(0, 5.0)))
        idle = ThresholdGame(
            tuple(players), AggregationMode.ADDITIVE_INFORMATION, 2.0, 10.0, AlphabetSpec(2)
        )
        wins_by_size, wins_with_player = self._assert_same(idle)
        marginals = shapley._enumerated_marginals(idle, shapley._player_stats(idle))
        assert not marginals[3].any()
        assert all(row.min() >= 0 and row.sum() > 0 for i, row in enumerate(marginals) if i != 3)

        diluted = _krr_game(DILUTED_KRR + ((1, 6.0), (3, 2.0), (20, 0.05)), 4.0, 30.0)
        self._assert_same(diluted)
        assert min(shapley.shapley_exact(diluted).shares.values()) < 0


class TestPivotCountIdentity:
    """Pairs with nonzero marginal, counted two independent ways.

    For every player i and prefix size s, a full-permutation enumeration
    sees each crossing pair (S, S + {i}) with |S| = s exactly
    s! (n - 1 - s)! times. Checked at n <= 6.
    """

    def _pair_counts(self, game, pid):
        ids = game.player_ids()
        rest = [q for q in ids if q != pid]
        counts = {}
        for r in range(len(rest) + 1):
            net = 0
            for combo in itertools.combinations(rest, r):
                before = oracle_characteristic(set(combo), game)
                after = oracle_characteristic(set(combo) | {pid}, game)
                if after > before:
                    net += 1
                elif after < before:
                    net -= 1
            counts[r] = net
        return counts

    def _permutation_counts(self, game, pid):
        ids = game.player_ids()
        counts = {r: 0 for r in range(len(ids))}
        for perm in itertools.permutations(ids):
            prefix = set()
            previous = 0.0
            for q in perm:
                prefix.add(q)
                value = oracle_characteristic(prefix, game)
                if q == pid and value != previous:
                    counts[len(prefix) - 1] += 1 if value > previous else -1
                previous = value
        return counts

    def test_identity_on_random_games(self, rng):
        for mode in ALL_MODES:
            for _ in range(8):
                game = random_threshold_game(rng, mode, max_players=6, min_players=2)
                n = game.n
                for pid in game.player_ids():
                    pairs = self._pair_counts(game, pid)
                    perms = self._permutation_counts(game, pid)
                    for s in range(n):
                        weight = math.factorial(s) * math.factorial(n - 1 - s)
                        assert perms[s] == pairs[s] * weight


class TestMarginalMatrix:
    """Both enumerators' ``marginals[i, s]`` against the pair counts, at n <= 6."""

    def _assert_matches_pairs(self, game, marginals):
        assert marginals.dtype == np.int64 and marginals.shape == (game.n, game.n)
        for i, pid in enumerate(game.player_ids()):
            pairs = TestPivotCountIdentity()._pair_counts(game, pid)
            assert marginals[i].tolist() == [pairs[s] for s in range(game.n)]

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_enumerated(self, mode):
        rng = np.random.default_rng(6061)
        for _ in range(12):
            game = random_threshold_game(rng, mode, max_players=6)
            self._assert_matches_pairs(game, shapley._enumerated_marginals(game, shapley._player_stats(game)))

    @pytest.mark.parametrize("mode", MONOTONE_MODES, ids=lambda m: m.value)
    def test_pruned(self, mode):
        rng = np.random.default_rng(6062)
        for _ in range(12):
            game = random_threshold_game(rng, mode, max_players=6)
            self._assert_matches_pairs(game, shapley._pruned_marginals(game, shapley._player_stats(game)))

    def test_krr_game_with_a_negative_entry(self):
        game = _krr_game(DILUTED_KRR, 4.0, 30.0)
        marginals = shapley._enumerated_marginals(game, shapley._player_stats(game))
        self._assert_matches_pairs(game, marginals)
        assert marginals[1, 1] < 0  # p1 joining {p0} dilutes it below the target


class TestGameValidation:
    def test_positive_target_required(self):
        with pytest.raises(DomainError):
            _additive_game((1.0,), 0.0, 1.0)

    def test_unique_ids_required(self):
        with pytest.raises(DomainError):
            ThresholdGame(
                (("a", (ReportBatch(1, 1.0),)), ("a", (ReportBatch(1, 1.0),))),
                AggregationMode.ADDITIVE_INFORMATION,
                1.0,
                1.0,
                AlphabetSpec(2),
            )

    def test_negative_prize_rejected(self):
        with pytest.raises(DomainError):
            _additive_game((1.0,), 1.0, -1.0)
