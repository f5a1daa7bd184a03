import itertools
import math

import numpy as np
import pytest

from conftest import (
    ALL_MODES,
    oracle_aggregate,
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
from fedmarket.manifest import write_json
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

    @pytest.mark.parametrize(
        "target, players",
        [(t, ((3, 700.0), (2, 1.5), (1, 0.2))) for t in (709.79, 800.0, 1e300)]
        # e^709.5 is finite, but theta times p1's mass overflows to +inf, which
        # no count reaches; the suite turns the overflow warning into an error
        + [(709.5, ((3, 700.0), (100, 0.1)))],
        ids=["709.79", "800.0", "1e+300", "709.5-product-overflows"],
    )
    def test_krr_target_past_exp_overflow_is_unreachable(self, target, players):
        # e^target overflows a float, or nearly; a pooled level is at most the
        # largest epsilon (700 here), so nobody wins and every share is +0.0
        game = _krr_game(players, target, 50.0)
        ids = game.player_ids()
        for r in range(len(ids) + 1):
            for combo in itertools.combinations(ids, r):
                assert characteristic(set(combo), game) == 0.0
        results = (
            shapley_exact(game),
            shapley_pruned(game),
            shapley_sampled(game, 100, np.random.default_rng(0)),
        )
        for result in results:
            assert [v.hex() for v in result.shares.values()] == [(0.0).hex()] * len(ids)

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
                assert math.fsum(result.shares.values()) == pytest.approx(grand, rel=1e-9, abs=1e-9)

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


def _random_pairs(rng, n):
    """``n`` players with 0-3 batches each: some without data, some of 2^53 points or more."""
    sizes = (0, 1, 2, 3, 4, 2**53 + 1, 2**62 + 3)
    return tuple(
        (
            f"p{i}",
            tuple(
                ReportBatch(int(rng.choice(sizes)), float(rng.uniform(0.1, 8.0)))
                for _ in range(int(rng.integers(0, 4)))
            ),
        )
        for i in range(n)
    )


def _column_form(pairs, mode, target, prize, spec, rng):
    """The game of ``pairs`` built by ``from_reports``, its reports in shuffled order."""
    rows = [(i, b.d, b.epsilon) for i, (_, batches) in enumerate(pairs) for b in batches]
    rows = [rows[r] for r in rng.permutation(len(rows))]
    player, d, eps = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    ids = [pid for pid, _ in pairs]
    return ThresholdGame.from_reports(ids, player, d, eps, mode, target, prize, spec)


class TestPlayerStats:
    """Both constructors give each player the ``math.fsum`` of their reports' statistics."""

    @staticmethod
    def _hex(rows):
        return [[float(x).hex() for x in row] for row in rows]

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_fsum_of_scalar_statistics(self, mode):
        rng = np.random.default_rng(909)
        for _ in range(200):
            pairs = _random_pairs(rng, int(rng.integers(1, 15)))
            spec = AlphabetSpec(int(rng.integers(2, 17)))
            expected = [
                [
                    math.fsum(scalar_stats(mode, spec.k, b.d, b.epsilon)[j] for b in batches if b.d > 0)
                    for _, batches in pairs
                ]
                for j in range(2 if mode is AggregationMode.KRR_COMPOSITION else 1)
            ]
            pair_form = ThresholdGame(pairs, mode, 1.0, 1.0, spec)
            column_form = _column_form(pairs, mode, 1.0, 1.0, spec, rng)
            assert column_form.ids == pair_form.ids == tuple(pid for pid, _ in pairs)
            for game in (pair_form, column_form):
                assert game.stats.dtype == np.float64
                assert not game.stats.flags.writeable
                assert self._hex(game.stats.tolist()) == self._hex(expected)

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_both_forms_split_alike(self, mode):
        rng = np.random.default_rng(910)
        paying = 0
        for _ in range(40):
            pairs = _random_pairs(rng, int(rng.integers(1, 11)))
            spec = AlphabetSpec(int(rng.integers(2, 17)))
            grand = oracle_aggregate([b for _, batches in pairs for b in batches], mode, spec.k)
            target = max(1e-6, grand * float(rng.uniform(0.2, 1.2))) if grand else 1.0
            prize = float(rng.uniform(1.0, 100.0))
            games = (
                ThresholdGame(pairs, mode, target, prize, spec),
                _column_form(pairs, mode, target, prize, spec, rng),
            )
            for split in (
                shapley_exact,
                shapley_pruned,
                lambda game: shapley_sampled(game, 500, np.random.default_rng(3)),
            ):
                by_pairs, by_columns = (split(game).shares for game in games)
                assert list(by_pairs) == list(by_columns)
                assert [v.hex() for v in by_pairs.values()] == [v.hex() for v in by_columns.values()]
            paying += any(by_pairs.values())
        assert paying >= 10


def _monotone_game(rng, mode, n, fraction):
    """A criterion-01 game with ``n`` players and its target at ``fraction`` of the grand total."""
    game = random_threshold_game(rng, mode, max_players=n, min_players=n)
    total = math.fsum(game.stats[0])
    target = fraction * total if total > 0 else 1.0
    return ThresholdGame.from_reports(game.ids, *game.reports, mode, target, game.prize, game.spec)


def _takes_enumeration(game):
    full = 1 << game.n
    bound = shapley._losing_bound(game.stats[0], game.target)
    return full <= shapley.MAX_FRONTIER and shapley._ENUMERATION_FACTOR * bound >= full


class TestLosingBound:
    """``_losing_bound`` against the numpy expression it replaced, kept here as the reference."""

    @staticmethod
    def _reference(values, target):
        s_max = int(np.count_nonzero(np.cumsum(np.sort(values)) < target))
        return sum(math.comb(values.size, s) for s in range(s_max + 1))

    def test_matches_the_numpy_fold(self):
        rng = np.random.default_rng(4242)
        for n in range(1, 31):
            statistics = [
                rng.random(n) * rng.uniform(0.1, 50.0),  # random
                rng.choice([0.1, 0.2, 0.3], n),  # tied, with sums that round
                np.zeros(n),  # zero
                np.where(rng.random(n) < 0.5, 0.0, rng.random(n)),  # zeros among others
            ]
            for values in statistics:
                total = math.fsum(values)
                for target in (1e-9, 0.1, 0.3, 0.6, 1.0, total / 3, total / 2, total, total + 1.0):
                    assert shapley._losing_bound(values, target) == self._reference(values, target)

    def test_rounding_sums_and_single_players(self):
        # 0.1 + 0.2 rounds up past 0.3, so the boundary target decides s_max
        for values, target in (
            (np.array([0.1, 0.2, 0.3]), 0.30000000000000004),
            (np.array([0.1, 0.2, 0.3]), 0.3),
            (np.array([2.0**53, 1.0, 1.0]), 2.0**53 + 2),
            (np.array([0.5]), 0.5),
            (np.array([0.5]), 0.75),
            (np.array([0.0]), 1.0),
        ):
            assert shapley._losing_bound(values, target) == self._reference(values, target)


class TestPrunedCostCheck:
    """``shapley_pruned`` takes the enumeration's matrix where the losing family may be large."""

    @pytest.mark.parametrize("mode", MONOTONE_MODES, ids=lambda m: m.value)
    def test_both_matrices_equal_on_both_sides_of_the_switch(self, mode):
        rng = np.random.default_rng(1212)
        sides = set()
        for _ in range(300):
            game = _monotone_game(rng, mode, int(rng.integers(1, 15)), float(rng.uniform(0.05, 1.2)))
            pruned = shapley._pruned_marginals(game)
            assert pruned.dtype == np.int64
            assert np.array_equal(pruned, shapley._enumerated_marginals(game))
            sides.add(_takes_enumeration(game))
        assert sides == {True, False}

    def _spy(self, monkeypatch):
        taken = []
        for name in ("_enumerated_marginals", "_pruned_marginals"):
            original = getattr(shapley, name)

            def spy(game, name=name, original=original):
                taken.append(name)
                return original(game)

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

    def test_large_timing_games_walk_the_frontier_bit_for_bit(self, monkeypatch):
        # sparse games whose frontier masks reach the third byte (players 16-21)
        games = [timing_game(ScenarioConfig(), n) for n in range(19, 23)]
        exact = [shapley_exact(game).shares for game in games]
        taken = self._spy(monkeypatch)
        for game, shares in zip(games, exact):
            pruned = shapley_pruned(game).shares
            assert list(pruned) == list(shares)
            assert [x.hex() for x in pruned.values()] == [x.hex() for x in shares.values()]
            assert any(shares.values())
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

    @pytest.mark.parametrize(
        "samples",
        (float("nan"), 2.5, 5.0, True, False, -3, np.int64(0), "5", None),
        ids=repr,
    )
    def test_sample_count_that_is_not_a_positive_integer_rejected(self, samples):
        with pytest.raises(DomainError, match="sample count must be an integer of at least 1"):
            shapley_sampled(EXAMPLE_GAME, samples, np.random.default_rng(1))

    def test_numpy_integer_sample_count_gives_python_numbers(self, tmp_path):
        result = shapley_sampled(EXAMPLE_GAME, np.int64(5), np.random.default_rng(3))
        expected = shapley_sampled(EXAMPLE_GAME, 5, np.random.default_rng(3))
        assert type(result.sample_count) is int and result.sample_count == 5
        assert all(type(v) is float for v in result.shares.values())
        assert [v.hex() for v in result.shares.values()] == [
            v.hex() for v in expected.shares.values()
        ]
        payload = {"shares": result.shares, "samples": result.sample_count}
        write_json(tmp_path / "shares.json", payload)

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
    Its stable ``argsort`` is the specification of the tie rule: equal
    uniforms in a row rank in player order.
    """
    n = game.n
    measure = game.measure
    acc = np.zeros(n)
    remaining = samples
    while remaining > 0:
        m = min(remaining, 8192)
        remaining -= m
        perms = np.argsort(rng.random((m, n)), axis=1, kind="stable")
        win = measure.wins([np.cumsum(row[perms], axis=1) for row in game.stats], game.target)
        flags = win.astype(np.int8)
        marg = flags.copy()
        marg[:, 1:] -= flags[:, :-1]
        rows, cols = np.nonzero(marg)
        np.add.at(acc, perms[rows, cols], marg[rows, cols])
    return {pid: game.prize * (float(acc[i]) / samples) for i, pid in enumerate(game.ids)}


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
    def _assert_same(self, game, seed=7, largest=20_000):
        # the last batch one ordering short, exactly full, and one ordering long
        batch = max(1, shapley._SAMPLE_POSITIONS // game.n)
        for samples in (1, batch - 1, batch, batch + 1, largest):
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

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_past_the_widest_packed_key(self, mode):
        # n = 1025 ranks by the stable argsort itself, 63 orderings a batch
        game = random_threshold_game(
            np.random.default_rng(1025), mode, max_players=1025, min_players=1025
        )
        self._assert_same(game, largest=150)

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

    def test_fold_in_ordering_order(self):
        # 2^53 + 1 rounds back to 2^53, so the ascending fold big + a + b
        # stays at 2^53 and loses, while a + b + big reaches 2^53 + 2 and
        # wins: big is pivotal in the 2 of 6 orderings that put it last.
        # Any fold other than a left fold in ordering order moves a share.
        game = ThresholdGame(
            tuple(
                (pid, (ReportBatch(d, 1.0),)) for pid, d in (("big", 2**53), ("a", 1), ("b", 1))
            ),
            AggregationMode.ADDITIVE_INFORMATION,
            2.0**53 + 2,
            90.0,
            AlphabetSpec(2),
        )
        assert characteristic(game.ids, game) == 0.0
        result = self._assert_same(game)
        assert result.shares["a"] == result.shares["b"] == 0.0
        assert abs(result.shares["big"] - 30.0) <= 3 * 90.0 / (2 * math.sqrt(20_000))


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


class TestOrderings:
    """``_orderings`` ranks rows exactly as ``np.argsort(u, axis=1, kind="stable")``."""

    @staticmethod
    def _assert_stable_argsort(u):
        order = shapley._orderings(u)
        assert order.flags.c_contiguous
        np.testing.assert_array_equal(order, np.argsort(u, axis=1, kind="stable").T)

    @pytest.mark.parametrize("n", (1, 2, 8, 1024, 1025))
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_random_rows(self, bit_generator, n):
        u = np.random.Generator(bit_generator(n)).random((max(1, 4096 // n), n))
        scaled = u * 2.0**53
        assert np.array_equal(scaled, np.floor(scaled))  # every draw is k / 2^53
        self._assert_stable_argsort(u)

    def test_ties_go_to_the_lower_index(self):
        u = np.array([[0.5, 0.25, 0.5, 0.25, 0.0, 0.5]])
        np.testing.assert_array_equal(shapley._orderings(u)[:, 0], [4, 1, 3, 0, 2, 5])

    @pytest.mark.parametrize("n", (1, 2, 8, 1024, 1025))
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_rows_with_ties(self, bit_generator, n):
        rng = np.random.Generator(bit_generator(7 + n))
        ulp = 2.0**-53
        top = 1.0 - ulp  # the largest draw: all 53 bits set
        rows = [
            np.zeros(n),
            np.full(n, top),
            rng.integers(0, 3, n) * ulp,  # the smallest draws, many equal
            top - rng.integers(0, 3, n) * ulp,  # the largest draws, many equal
            rng.choice([0.0, 0.5, top], n),
            np.where(rng.random(n) < 0.5, rng.random(n), 0.25),
        ]
        self._assert_stable_argsort(np.array(rows))


def _reference_exact_counts(game):
    """The per-bit tally: one select-and-``bincount`` pass per low player per chunk.

    Kept as the reference for ``shapley._exact_counts``. It recomputes each
    chunk's aggregates from the low totals, folding in its high players in
    ascending order, and reads the same ``_LOW_BITS``.
    """
    n = game.n
    low = min(n, shapley._LOW_BITS)
    measure, stats = game.measure, game.stats
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
        wins_by_size, wins_with_player = shapley._exact_counts(game)
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

    # chunks of 8 and 16 coalitions tallied as one row, and of 2^11 as a 32 x 64 matrix;
    # n == low_bits is one chunk, returned as it is, and n == low_bits + 1 two chunks
    @pytest.mark.parametrize("low_bits, sizes", ((3, range(5, 13)), (4, range(5, 13)), (11, (12, 13))))
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_many_chunks(self, mode, low_bits, sizes, monkeypatch):
        monkeypatch.setattr(shapley, "_LOW_BITS", low_bits)
        rng = np.random.default_rng(31 + low_bits)
        for n in (low_bits, low_bits + 1, *sizes):
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
        marginals = shapley._enumerated_marginals(idle)
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
            self._assert_matches_pairs(game, shapley._enumerated_marginals(game))

    @pytest.mark.parametrize("mode", MONOTONE_MODES, ids=lambda m: m.value)
    def test_pruned(self, mode):
        rng = np.random.default_rng(6062)
        for _ in range(12):
            game = random_threshold_game(rng, mode, max_players=6)
            self._assert_matches_pairs(game, shapley._pruned_marginals(game))

    def test_krr_game_with_a_negative_entry(self):
        game = _krr_game(DILUTED_KRR, 4.0, 30.0)
        marginals = shapley._enumerated_marginals(game)
        self._assert_matches_pairs(game, marginals)
        assert marginals[1, 1] < 0  # p1 joining {p0} dilutes it below the target


class TestBitCounts:
    """``_bit_counts`` against one ``count_nonzero`` per bit, as a layer's masks come."""

    @staticmethod
    def _per_bit(masks, n):
        return [np.count_nonzero(masks & (np.int64(1) << j)) for j in range(n)]

    @pytest.mark.parametrize("n", range(1, 31))
    def test_random_masks(self, n):
        rng = np.random.default_rng(2400 + n)
        for size in (0, 1, 2, 255, 256, 4099):
            masks = rng.integers(0, 1 << n, size, dtype=np.int64)
            counts = shapley._bit_counts(masks, n)
            assert counts.dtype == np.int64 and counts.shape == (n,)
            assert counts.tolist() == self._per_bit(masks, n)

    def test_high_bits(self):
        rng = np.random.default_rng(2431)
        masks = rng.integers(0, 1 << 30, 1000, dtype=np.int64) | (np.int64(1) << 29)
        masks[::3] &= (1 << 24) - 1  # a third carry none of bits 24-29
        counts = shapley._bit_counts(masks, 30)
        assert counts.tolist() == self._per_bit(masks, 30)
        assert counts[29] == 666 and all(0 < c < 666 for c in counts[24:29])

    def test_empty_and_single_layers(self):
        assert shapley._bit_counts(np.zeros(0, dtype=np.int64), 30).tolist() == [0] * 30
        one = np.array([(1 << 29) | (1 << 24) | 0b101], dtype=np.int64)
        expected = [1 if j in (0, 2, 24, 29) else 0 for j in range(30)]
        assert shapley._bit_counts(one, 30).tolist() == expected


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

    @pytest.mark.parametrize(
        "ids, player, d, eps, target, prize",
        (
            ((), [], [], [], 1.0, 1.0),
            (("a", "a"), [0, 1], [1, 1], [1.0, 1.0], 1.0, 1.0),
            (("a", "b"), [0, 1], [1, 1], [1.0, 1.0], 0.0, 1.0),
            (("a", "b"), [0, 1], [1, 1], [1.0, 1.0], 1.0, -1.0),
            (("a", "b"), [0, 2], [1, 1], [1.0, 1.0], 1.0, 1.0),
            (("a", "b"), [-1, 0], [1, 1], [1.0, 1.0], 1.0, 1.0),
            (("a", "b"), [0, 1], [1, -1], [1.0, 1.0], 1.0, 1.0),
            (("a", "b"), [0, 1], [1, 1], [1.0, 0.0], 1.0, 1.0),
            (("a", "b"), [0, 1], [1, 1], [1.0, 800.0], 1.0, 1.0),
            (("a", "b"), [0, 1], [1, 1], [1.0, math.nan], 1.0, 1.0),
        ),
        ids=(
            "no-players",
            "duplicate-ids",
            "zero-target",
            "negative-prize",
            "player-past-ids",
            "negative-player",
            "negative-d",
            "zero-epsilon",
            "epsilon-past-700",
            "nan-epsilon",
        ),
    )
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_column_form_checks(self, mode, ids, player, d, eps, target, prize):
        with pytest.raises(DomainError):
            ThresholdGame.from_reports(ids, player, d, eps, mode, target, prize, AlphabetSpec(2))

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_column_form_ignores_the_epsilon_of_an_empty_report(self, mode):
        spec = AlphabetSpec(2)
        game = ThresholdGame.from_reports(("a", "b"), [0, 1], [1, 0], [1.0, 800.0], mode, 1.0, 1.0, spec)
        assert game.stats[:, 1].tolist() == [0.0] * game.measure.width
