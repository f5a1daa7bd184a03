import math

import numpy as np
import pytest

from fedmarket.errors import DomainError
from fedmarket.market import (
    Bid,
    ConsumerOffer,
    Federation,
    Provider,
    compute_scaling,
    federation_threshold,
    make_bid,
    scaled_cost,
    seal_deal,
    settle,
)
from fedmarket.privacy import AggregationMode, AlphabetSpec, ReportBatch, aggregate
from fedmarket.valuation import ExponentialValuation


def _federation(members, rep=None, fed_id="F1"):
    return Federation(
        id=fed_id,
        member_ids=tuple(p.id for p in members),
        d_p=tuple(p.d_p for p in members),
        eps_threshold=tuple(p.eps_threshold for p in members),
        representative=rep or members[0].id,
        delta_threshold=1.0,
        tolerance_window=3,
    )


UNIT_VALUATION = ExponentialValuation(1.0, 1.0)


class TestFederationThreshold:
    def test_single_member_krr_identity(self):
        fed = _federation([Provider("a", 4, 2.0)])
        out = federation_threshold(fed, AggregationMode.KRR_COMPOSITION, AlphabetSpec(2))
        assert out == pytest.approx(2.0, abs=1e-12)

    def test_krr_mixture(self):
        fed = _federation([Provider("a", 1, math.log(2)), Provider("b", 1, math.log(4))])
        out = federation_threshold(fed, AggregationMode.KRR_COMPOSITION, AlphabetSpec(2))
        assert out == pytest.approx(math.log(2.75), abs=1e-12)

    def test_additive(self):
        fed = _federation([Provider("a", 2, 5.0), Provider("b", 3, 5.0)])
        out = federation_threshold(fed, AggregationMode.ADDITIVE_INFORMATION, AlphabetSpec(2))
        assert out == pytest.approx(25.0, abs=1e-12)

    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    def test_matches_aggregate_of_one_batch_per_member(self, mode):
        rng = np.random.default_rng(1201)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            spec = AlphabetSpec(int(rng.integers(2, 1 << 20)))
            fed = Federation(
                "F",
                tuple(f"p{i}" for i in range(n)),
                tuple(int(d) for d in rng.integers(1, 10**6, size=n)),
                tuple(float(e) for e in rng.uniform(1e-3, 700.0, size=n) ** rng.uniform(0.2, 1.0)),
                "p0",
                1.0,
                3,
            )
            batches = map(ReportBatch, fed.d_p, fed.eps_threshold)
            expected = aggregate(batches, mode, spec)
            assert federation_threshold(fed, mode, spec).hex() == expected.hex()

    @pytest.mark.parametrize("d_p, message", ((2**63, "64-bit"), (1.5, "integers")))
    def test_point_budget_outside_int64_rejected(self, d_p, message):
        fed = _federation([Provider("a", d_p, 5.0)])
        with pytest.raises(DomainError, match=message):
            federation_threshold(fed, AggregationMode.ADDITIVE_INFORMATION, AlphabetSpec(2))


class TestMakeBid:
    def test_budget_capped(self):
        # invert(600) = ln 601 ~ 6.4, far above the 1.0 budget
        fed = _federation([Provider("a", 10, 600.0)])
        offer = ConsumerOffer(budget=1.0, valuation=UNIT_VALUATION)
        bid = make_bid(fed, offer, AggregationMode.KRR_COMPOSITION, AlphabetSpec(2))
        assert bid.asking_price == 1.0

    def test_threshold_capped(self):
        fed = _federation([Provider("a", 1, 1.0)])
        offer = ConsumerOffer(budget=100.0, valuation=UNIT_VALUATION)
        bid = make_bid(fed, offer, AggregationMode.KRR_COMPOSITION, AlphabetSpec(2))
        assert bid.asking_price == pytest.approx(math.log(2), rel=1e-12)
        assert UNIT_VALUATION.evaluate(bid.asking_price) <= bid.eps_threshold_fed + 1e-12

    def test_tiny_threshold_tiny_bid(self):
        fed = _federation([Provider("a", 1, 1e-9)])
        offer = ConsumerOffer(budget=100.0, valuation=UNIT_VALUATION)
        bid = make_bid(fed, offer, AggregationMode.KRR_COMPOSITION, AlphabetSpec(2))
        assert 0.0 <= bid.asking_price < 1e-8


class TestComputeScaling:
    def test_unconstrained_budget(self):
        bids = [Bid("F1", 2.0, 0.0), Bid("F2", 1.0, 0.0)]
        offer = ConsumerOffer(budget=100.0, valuation=UNIT_VALUATION)
        assert compute_scaling(bids, offer) == 1.0

    def test_analytic_half(self):
        # single federation, eps_T = 1: invert(w) = ln(w + 1) = ln 1.5 at w = 0.5
        bids = [Bid("F1", 1.0, 0.0)]
        offer = ConsumerOffer(budget=math.log(1.5), valuation=UNIT_VALUATION)
        assert compute_scaling(bids, offer) == pytest.approx(0.5, abs=1e-8)

    def test_vanishing_budget(self):
        bids = [Bid("F1", 5.0, 0.0)]
        offer = ConsumerOffer(budget=1e-12, valuation=UNIT_VALUATION)
        assert compute_scaling(bids, offer) <= 1e-9

    def test_feasible_and_boundary(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = int(rng.integers(1, 6))
            bids = [Bid(f"F{i}", float(rng.uniform(0.1, 20.0)), 0.0) for i in range(m)]
            valuation = ExponentialValuation(
                float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.05, 1.0))
            )
            full = sum(valuation.invert(b.eps_threshold_fed) for b in bids)
            offer = ConsumerOffer(budget=float(full * rng.uniform(0.05, 1.5)), valuation=valuation)
            w = compute_scaling(bids, offer)
            assert scaled_cost(bids, offer, w) <= offer.budget + 1e-12
            if w < 1.0:
                assert scaled_cost(bids, offer, min(1.0, w + 1e-6)) > offer.budget

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            bids = [Bid(f"F{i}", float(rng.uniform(0.5, 15.0)), 0.0) for i in range(m)]
            valuation = ExponentialValuation(1.0, float(rng.uniform(0.05, 0.8)))
            budget = float(rng.uniform(0.01, 10.0))
            w_small = compute_scaling(bids, ConsumerOffer(budget, valuation))
            w_big = compute_scaling(bids, ConsumerOffer(2 * budget, valuation))
            assert w_big >= w_small - 1e-12

    def test_empty_bids_rejected(self):
        with pytest.raises(DomainError):
            compute_scaling([], ConsumerOffer(1.0, UNIT_VALUATION))


class TestSealDeal:
    def test_full_scale_keeps_thresholds(self):
        bids = [Bid("F1", 2.0, 0.0), Bid("F2", 0.7, 0.0)]
        offer = ConsumerOffer(budget=100.0, valuation=UNIT_VALUATION)
        deal = seal_deal(bids, offer, 1.0)
        assert deal.terms["F1"].promised_eps == 2.0
        assert deal.terms["F2"].promised_eps == 0.7

    def test_half_scale_example(self):
        bids = [Bid("F1", 1.0, 0.0)]
        offer = ConsumerOffer(budget=math.log(1.5), valuation=UNIT_VALUATION)
        deal = seal_deal(bids, offer, 0.5)
        assert deal.terms["F1"].promised_eps == pytest.approx(0.5, abs=1e-12)
        assert deal.terms["F1"].price == pytest.approx(math.log(1.5), rel=1e-12)

    def test_identical_federations_identical_terms(self):
        bids = [Bid("F1", 3.0, 0.0), Bid("F2", 3.0, 0.0)]
        offer = ConsumerOffer(budget=5.0, valuation=UNIT_VALUATION)
        deal = seal_deal(bids, offer, 0.4)
        assert deal.terms["F1"] == deal.terms["F2"]

    def test_infeasible_scaling_refused(self):
        bids = [Bid("F1", 5.0, 0.0)]
        offer = ConsumerOffer(budget=0.1, valuation=UNIT_VALUATION)  # invert(5) ~ 1.79
        with pytest.raises(DomainError):
            seal_deal(bids, offer, 1.0)

    def test_total_price_within_budget(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            m = int(rng.integers(1, 6))
            bids = [Bid(f"F{i}", float(rng.uniform(0.1, 30.0)), 0.0) for i in range(m)]
            valuation = ExponentialValuation(
                float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.05, 1.0))
            )
            offer = ConsumerOffer(budget=float(rng.uniform(0.1, 20.0)), valuation=valuation)
            deal = seal_deal(bids, offer, compute_scaling(bids, offer))
            assert deal.total_price() <= offer.budget + 1e-9
            for bid in bids:
                assert deal.terms[bid.federation_id].promised_eps <= bid.eps_threshold_fed + 1e-12


class TestSettle:
    def _deal(self):
        bids = [Bid("F1", 1.0, 0.0)]
        offer = ConsumerOffer(budget=math.log(1.5), valuation=UNIT_VALUATION)
        return seal_deal(bids, offer, 0.5)

    def test_exact_promise_pays(self):
        deal = self._deal()
        fed = _federation([Provider("a", 1, 1.0)])
        assert settle(deal, fed, 0.5) == deal.terms["F1"].price

    def test_just_below_pays_nothing(self):
        deal = self._deal()
        fed = _federation([Provider("a", 1, 1.0)])
        assert settle(deal, fed, 0.5 * 0.99) == 0.0

    def test_overshoot_pays_fixed_price(self):
        deal = self._deal()
        fed = _federation([Provider("a", 1, 1.0)])
        assert settle(deal, fed, 10.0) == deal.terms["F1"].price

    def test_unknown_federation_rejected(self):
        deal = self._deal()
        stranger = _federation([Provider("a", 1, 1.0)], fed_id="F9")
        with pytest.raises(DomainError):
            settle(deal, stranger, 1.0)


class TestTypes:
    def test_provider_validation(self):
        with pytest.raises(DomainError):
            Provider("a", 0, 1.0)
        with pytest.raises(DomainError):
            Provider("a", 1, -1.0)

    def test_federation_validation(self):
        with pytest.raises(DomainError):
            _federation([Provider("a", 1, 1.0)], rep="ghost")
        with pytest.raises(DomainError):
            Federation("F", (), (), (), None, 1.0, 3, active=True)

    @pytest.mark.parametrize(
        "d_p, eps, message",
        [
            (0, 1.0, "provider b must hold at least one data point"),
            (1, math.nan, "privacy parameter must be positive and finite, got nan"),
            (1, 0.0, "privacy parameter must be positive and finite, got 0.0"),
            (1, 700.5, "privacy parameter 700.5 exceeds saturation bound 700.0"),
        ],
        ids=["zero-points", "nan-threshold", "zero-threshold", "threshold-above-700"],
    )
    def test_federation_names_its_first_bad_member(self, d_p, eps, message):
        # "c" holds no data either; the error is about "b", the first bad member
        with pytest.raises(DomainError) as raised:
            Federation("F", ("a", "b", "c"), (1, d_p, 0), (1.0, eps, 1.0), "a", 1.0, 3)
        assert str(raised.value) == message
        with pytest.raises(DomainError) as alone:
            Provider("b", d_p, eps)
        assert str(alone.value) == message

    def test_federation_columns_must_align(self):
        with pytest.raises(DomainError):
            Federation("F", ("a", "b"), (1, 1), (1.0,), "a", 1.0, 3)

    def test_members_view_reads_the_columns(self):
        fed = Federation("F", ("a", "b"), (2, 3), (1.5, 0.5), "a", 1.0, 3)
        assert len(fed.members) == 2
        assert list(fed.members) == [Provider("a", 2, 1.5), Provider("b", 3, 0.5)]
        assert fed.members[-1] == Provider("b", 3, 0.5)
        assert fed.members[:1] == (Provider("a", 2, 1.5),)

    def test_offer_validation(self):
        with pytest.raises(DomainError):
            ConsumerOffer(budget=0.0, valuation=UNIT_VALUATION)
