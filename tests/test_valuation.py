import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmarket.errors import DomainError
from fedmarket.valuation import ExponentialValuation


class TestEvaluate:
    def test_zero_money_zero_privacy(self):
        assert ExponentialValuation(3.7, 0.2).evaluate(0.0) == 0.0

    def test_unit_example(self):
        assert ExponentialValuation(1.0, 1.0).evaluate(math.log(2)) == pytest.approx(1.0, rel=1e-12)

    def test_hand_substitution(self):
        v = ExponentialValuation(0.5, 1.5)
        expected = 0.5 * (math.exp(3.0) - 1.0)
        assert v.evaluate(2.0) == pytest.approx(expected, rel=1e-12)
        assert v.invert(v.evaluate(2.0)) == pytest.approx(2.0, abs=1e-9)

    def test_negative_money_rejected(self):
        with pytest.raises(DomainError):
            ExponentialValuation(1.0, 1.0).evaluate(-0.1)


class TestInvert:
    def test_zero(self):
        assert ExponentialValuation(2.0, 0.3).invert(0.0) == 0.0

    def test_inverse_of_unit_example(self):
        assert ExponentialValuation(1.0, 1.0).invert(1.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_round_trip(self):
        v = ExponentialValuation(2.0, 0.01)
        assert v.invert(v.evaluate(13.7)) == pytest.approx(13.7, abs=1e-9)

    def test_negative_privacy_rejected(self):
        with pytest.raises(DomainError):
            ExponentialValuation(1.0, 1.0).invert(-1e-9)


class TestProperties:
    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            k1 = float(rng.uniform(0.01, 50.0))
            k2 = float(rng.uniform(0.001, 2.0))
            money = float(rng.uniform(0.0, 200.0 / k2))
            v = ExponentialValuation(k1, k2)
            assert v.invert(v.evaluate(money)) == pytest.approx(money, rel=1e-9, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        k1=st.floats(min_value=0.01, max_value=50.0),
        k2=st.floats(min_value=0.001, max_value=2.0),
        m1=st.floats(min_value=0.0, max_value=100.0),
        m2=st.floats(min_value=0.0, max_value=100.0),
    )
    @example(k1=1.0, k2=0.5, m1=5e-324, m2=0.0)  # k2 * 5e-324 rounds to 0: both give 0.0
    def test_strictly_increasing(self, k1, k2, m1, m2):
        # k1 * expm1(k2 * m) is a chain of monotone IEEE operations, so it never
        # decreases. Strictly increasing holds wherever no rounding step can
        # merge the two inputs: money apart by far more than an ulp, and the
        # larger input's k2 * m and result normal floats. A scaling by k2 < 1
        # can round two distinct subnormal amounts to the same float.
        lo, hi = sorted((m1, m2))
        v = ExponentialValuation(k1, k2)
        assert v.evaluate(lo) <= v.evaluate(hi)
        if hi - lo > hi * 2**-40 and min(k2 * hi, v.evaluate(hi)) >= sys.float_info.min:
            assert v.evaluate(lo) < v.evaluate(hi)

    def test_superlinear_growth(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            v = ExponentialValuation(float(rng.uniform(0.1, 10)), float(rng.uniform(0.01, 1)))
            money = float(rng.uniform(0.1, 50))
            assert v.evaluate(2 * money) > 2 * v.evaluate(money)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            ExponentialValuation(0.0, 1.0)
        with pytest.raises(DomainError):
            ExponentialValuation(1.0, -2.0)

