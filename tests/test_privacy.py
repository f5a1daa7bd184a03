import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar_stats
from fedmarket.errors import DomainError
from fedmarket.privacy import (
    AggregationMode,
    AlphabetSpec,
    Measure,
    ReportBatch,
    aggregate,
    combined_epsilon,
    krr_distribution,
    krr_obfuscate,
)


class TestKrrDistribution:
    def test_uniform_limit(self):
        probs = krr_distribution(0, AlphabetSpec(2), 1e-12)
        assert probs == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_binary_ln3(self):
        probs = krr_distribution(0, AlphabetSpec(2), math.log(3))
        assert probs == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_k4_ln3(self):
        probs = krr_distribution(1, AlphabetSpec(4), math.log(3))
        assert probs == pytest.approx([1 / 6, 1 / 2, 1 / 6, 1 / 6], abs=1e-12)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_alphabet(self):
        with pytest.raises(DomainError):
            krr_distribution(4, AlphabetSpec(4), 1.0)
        with pytest.raises(DomainError):
            krr_distribution(-1, AlphabetSpec(4), 1.0)

    def test_bad_epsilon(self):
        with pytest.raises(DomainError):
            krr_distribution(0, AlphabetSpec(2), 0.0)
        with pytest.raises(DomainError):
            krr_distribution(0, AlphabetSpec(2), 701.0)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=64),
        eps=st.floats(min_value=1e-6, max_value=20.0),
    )
    def test_max_min_ratio_is_exp_eps(self, k, eps):
        probs = krr_distribution(0, AlphabetSpec(k), eps)
        assert probs.max() / probs.min() == pytest.approx(math.exp(eps), rel=1e-9)

    def test_probabilities_sum_to_one(self):
        for k in (2, 3, 16, 64):
            for eps in (0.01, 1.0, 5.0, 700.0):
                probs = krr_distribution(k - 1, AlphabetSpec(k), eps)
                assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


class TestKrrObfuscate:
    def test_degenerate_high_epsilon(self):
        rng = np.random.default_rng(1)
        spec = AlphabetSpec(4)
        hits = sum(krr_obfuscate(2, spec, 700.0, rng) == 2 for _ in range(10_000))
        assert hits >= 9990

    def test_binary_keep_frequency(self):
        rng = np.random.default_rng(2)
        spec = AlphabetSpec(2)
        draws = 100_000
        p = 0.75
        hits = sum(krr_obfuscate(0, spec, math.log(3), rng) == 0 for _ in range(draws))
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(hits - draws * p) <= 3 * sigma

    def test_deterministic_given_seed(self):
        spec = AlphabetSpec(8)
        a = [krr_obfuscate(3, spec, 1.2, np.random.default_rng(99)) for _ in range(50)]
        b = [krr_obfuscate(3, spec, 1.2, np.random.default_rng(99)) for _ in range(50)]
        assert a == b


class TestCombinedEpsilon:
    def test_single_batch_identity(self):
        out = combined_epsilon([ReportBatch(7, 2.5)], AlphabetSpec(5))
        assert out == pytest.approx(2.5, abs=1e-12)

    def test_equal_epsilon_idempotent(self):
        out = combined_epsilon([ReportBatch(3, 1.2), ReportBatch(9, 1.2)], AlphabetSpec(3))
        assert out == pytest.approx(1.2, abs=1e-12)

    def test_hand_computed_mixture(self):
        # d=1 at ln 2 and d=1 at ln 4 with k=2:
        # ln(2 / (1/3 + 1/5) - 1) = ln(30/8 - 1) = ln 2.75
        out = combined_epsilon(
            [ReportBatch(1, math.log(2)), ReportBatch(1, math.log(4))], AlphabetSpec(2)
        )
        assert out == pytest.approx(math.log(2.75), abs=1e-12)

    def test_all_empty_batches_rejected(self):
        with pytest.raises(DomainError):
            combined_epsilon([ReportBatch(0, 1.0), ReportBatch(0, 2.0)], AlphabetSpec(2))

    def test_zero_batches_ignored(self):
        with_zero = combined_epsilon(
            [ReportBatch(0, 5.0), ReportBatch(4, 1.7)], AlphabetSpec(4)
        )
        assert with_zero == pytest.approx(1.7, abs=1e-12)

    def test_random_instances_properties(self):
        # permutation invariance, bounds, and monotonicity in each eps_i
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            k = int(rng.integers(2, 33))
            m = int(rng.integers(1, 6))
            ds = rng.integers(1, 20, size=m)
            eps = rng.uniform(0.05, 12.0, size=m)
            batches = [ReportBatch(int(d), float(e)) for d, e in zip(ds, eps)]
            spec = AlphabetSpec(k)
            out = combined_epsilon(batches, spec)

            shuffled = [batches[i] for i in rng.permutation(m)]
            assert combined_epsilon(shuffled, spec) == pytest.approx(out, rel=1e-12, abs=1e-12)
            assert eps.min() - 1e-9 <= out <= eps.max() + 1e-9

            j = int(rng.integers(m))
            bumped = list(batches)
            bumped[j] = ReportBatch(int(ds[j]), float(eps[j] + rng.uniform(0.01, 2.0)))
            assert combined_epsilon(bumped, spec) >= out - 1e-12

    def test_finite_at_saturation(self):
        out = combined_epsilon([ReportBatch(2, 700.0), ReportBatch(1, 1.0)], AlphabetSpec(2))
        assert math.isfinite(out)


class TestAdditiveColumns:
    """The additive measure's statistic is each batch's information limit d * eps."""

    @staticmethod
    def _limits(d, eps):
        (column,) = Measure(AggregationMode.ADDITIVE_INFORMATION, 2).columns(np.array(d), np.array(eps))
        return column.tolist()

    def test_zero_points(self):
        assert self._limits([0, 0], [5.0, 700.0]) == [0.0, 0.0]

    def test_products(self):
        limits = self._limits([10, 3], [5.0, 1.4])
        assert limits[0] == 50.0
        assert limits[1] == pytest.approx(4.2, abs=1e-12)


class TestAggregate:
    def test_additive_weighted_sum(self):
        batches = [ReportBatch(2, 3.0), ReportBatch(1, 4.0)]
        out = aggregate(batches, AggregationMode.ADDITIVE_INFORMATION, AlphabetSpec(2))
        assert out == pytest.approx(10.0, abs=1e-12)

    def test_example_contribution_substitution(self):
        out = aggregate(
            [ReportBatch(1, math.log(3))], AggregationMode.EXAMPLE_CONTRIBUTION, AlphabetSpec(2)
        )
        assert out == pytest.approx(0.75, abs=1e-12)

    def test_krr_single_batch(self):
        out = aggregate(
            [ReportBatch(5, 2.2)], AggregationMode.KRR_COMPOSITION, AlphabetSpec(7)
        )
        assert out == pytest.approx(2.2, abs=1e-12)

    def test_additive_modes_empty_input(self):
        spec = AlphabetSpec(2)
        assert aggregate([], AggregationMode.ADDITIVE_INFORMATION, spec) == 0.0
        assert aggregate([], AggregationMode.EXAMPLE_CONTRIBUTION, spec) == 0.0
        with pytest.raises(DomainError):
            aggregate([], AggregationMode.KRR_COMPOSITION, spec)

    def test_additive_modes_are_additive_over_unions(self):
        rng = np.random.default_rng(11)
        spec = AlphabetSpec(9)
        for mode in (AggregationMode.ADDITIVE_INFORMATION, AggregationMode.EXAMPLE_CONTRIBUTION):
            for _ in range(200):
                left = [
                    ReportBatch(int(d), float(e))
                    for d, e in zip(rng.integers(0, 6, 3), rng.uniform(0.1, 9, 3))
                ]
                right = [
                    ReportBatch(int(d), float(e))
                    for d, e in zip(rng.integers(0, 6, 3), rng.uniform(0.1, 9, 3))
                ]
                a = aggregate(left, mode, spec)
                b = aggregate(right, mode, spec)
                assert aggregate(left + right, mode, spec) == pytest.approx(a + b, rel=1e-12)

    def test_additive_modes_monotone_under_new_batch(self):
        rng = np.random.default_rng(12)
        spec = AlphabetSpec(4)
        for mode in (AggregationMode.ADDITIVE_INFORMATION, AggregationMode.EXAMPLE_CONTRIBUTION):
            for _ in range(500):
                base = [
                    ReportBatch(int(d), float(e))
                    for d, e in zip(rng.integers(0, 5, 3), rng.uniform(0.1, 9, 3))
                ]
                extra = ReportBatch(int(rng.integers(1, 5)), float(rng.uniform(0.1, 9)))
                assert aggregate(base + [extra], mode, spec) >= aggregate(base, mode, spec)

    def test_krr_composition_not_monotone_under_dilution(self):
        # adding many low-epsilon points pulls the pooled parameter down
        spec = AlphabetSpec(2)
        strong = [ReportBatch(1, 10.0)]
        diluted = strong + [ReportBatch(1, 0.001)]
        assert aggregate(diluted, AggregationMode.KRR_COMPOSITION, spec) < aggregate(
            strong, AggregationMode.KRR_COMPOSITION, spec
        )


class TestMeasureColumns:
    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    def test_columns_and_levels_match_the_scalar_fold_bit_for_bit(self, mode):
        rng = np.random.default_rng(4242)
        for _ in range(50):
            k = int(rng.integers(2, 40))
            measure = Measure(mode, k)
            d = rng.integers(1, 50, int(rng.integers(1, 30)))
            eps = rng.uniform(1e-3, 30.0, d.size)
            rows = [scalar_stats(mode, k, *b) for b in zip(d.tolist(), eps.tolist())]
            totals, levels = [0.0] * measure.width, []
            for row in rows:
                for j, x in enumerate(row):
                    totals[j] += x
                levels.append(measure.level(totals))
            columns = measure.columns(d, eps)
            assert [c.tolist() for c in columns] == [list(s) for s in zip(*rows)]
            running = np.zeros((measure.width, d.size + 1))
            measure.add(running, d, eps)
            assert [x.hex() for x in running[:, -1]] == [float(x).hex() for x in totals]
            for running in (running[:, 1:], [np.add.accumulate(c) for c in columns]):
                assert [x.hex() for x in measure.levels(running)] == [x.hex() for x in levels]


    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    def test_a_grid_of_runs_equals_each_run_alone(self, mode):
        rng = np.random.default_rng(99)
        measure = Measure(mode, 5)
        d = rng.integers(0, 50, (4, 7))
        eps = rng.uniform(1e-3, 30.0, (4, 7))
        start = [rng.uniform(0.0, 10.0, 4) for _ in range(measure.width)]
        added = np.empty((measure.width, 4, 8))
        added[..., 0] = start
        measure.add(added, d, eps)
        columns = measure.columns(d, eps)
        for r in range(4):
            row_columns = measure.columns(d[r], eps[r])
            assert [[float(x).hex() for x in c[r].tolist()] for c in columns] == [
                [float(x).hex() for x in c.tolist()] for c in row_columns
            ]
            row = np.empty((measure.width, 8))
            row[:, 0] = [float(t[r]) for t in start]
            measure.add(row, d[r], eps[r])
            assert [float(x).hex() for x in added[:, r, -1]] == [float(x).hex() for x in row[:, -1]]


class TestTypes:
    def test_alphabet_validation(self):
        with pytest.raises(DomainError):
            AlphabetSpec(1)
        AlphabetSpec(2**32)
        with pytest.raises(DomainError):  # well below where the kRR level loses its +e^eps
            AlphabetSpec(2**32 + 1)

    def test_batch_validation(self):
        with pytest.raises(DomainError):
            ReportBatch(-1, 1.0)
        with pytest.raises(DomainError):
            ReportBatch(3, 0.0)
        ReportBatch(0, 0.0)  # epsilon unconstrained when the batch is empty
        ReportBatch(2**63 - 1, 1.0)
        for d in (2**63, 1e300):  # sums of such batches could overflow
            with pytest.raises(DomainError):
                ReportBatch(d, 1.0)
