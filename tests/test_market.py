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
from fedmarket.privacy import AggregationMode, AlphabetSpec, Measure, ReportBatch, aggregate
from fedmarket.valuation import ExponentialValuation


def _federation(members, fed_id="F1"):
    return Federation(
        id=fed_id,
        member_ids=tuple(p.id for p in members),
        d_p=tuple(p.d_p for p in members),
        eps_threshold=tuple(p.eps_threshold for p in members),
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
                1.0,
                3,
            )
            batches = map(ReportBatch, fed.d_p, fed.eps_threshold)
            expected = aggregate(batches, mode, spec)
            assert federation_threshold(fed, mode, spec).hex() == expected.hex()

    @pytest.mark.parametrize("d_p, message", ((2**63, "64-bit"), (1.5, "integers")))
    def test_point_budget_outside_int64_rejected(self, d_p, message):
        with pytest.raises(DomainError, match=message):
            _federation([Provider("a", d_p, 5.0)])


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


BISECTION_TOL = 1e-9
BISECTION_MAX_ITER = 200


def _reference_scaling(bids, offer):
    """``compute_scaling`` as it bisected [0, 1] to absolute tolerance 1e-9 (30 halvings)."""
    if not bids:
        raise DomainError("cannot scale an empty bid set")
    if scaled_cost(bids, offer, 1.0) <= offer.budget:
        return 1.0
    lo, hi = 0.0, 1.0  # lo always feasible, hi always infeasible
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if scaled_cost(bids, offer, mid) <= offer.budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECTION_TOL:
            break
    return lo


def _random_deal(rng):
    """Bids and an offer: one bid or 2-8, K1 in 1e-3..1e3 and K2 in 1e-4..10, and a
    budget from a 10^-12 to a 2x share of the full price, so w* spans 0 to 1. One
    deal in five is in the overflow range: K1 in 1e-310..1e-295, thresholds up to
    1e10 and K2 * B / m in 650..850, where f(B / m) often overflows ``math.expm1``
    and w * eps / K1 overflows to an infinite price below w = 1."""
    m = 1 if rng.random() < 0.5 else int(rng.integers(2, 9))
    overflow = rng.random() < 0.2
    k2 = float(10 ** rng.uniform(-4, 1))
    if overflow:
        valuation = ExponentialValuation(float(10 ** rng.uniform(-310, -295)), k2)
        eps = 10 ** rng.uniform(-3, 10, size=m)
    else:
        valuation = ExponentialValuation(float(10 ** rng.uniform(-3, 3)), k2)
        eps = 10 ** rng.uniform(-3, 2, size=m)
    bids = [Bid(f"F{i}", float(e), 0.0) for i, e in enumerate(eps)]
    if overflow:
        budget = m * float(rng.uniform(650.0, 850.0)) / k2
    else:
        full = scaled_cost(bids, ConsumerOffer(1.0, valuation), 1.0)
        budget = full * float(10 ** rng.uniform(-12, 0.3))
    return bids, ConsumerOffer(budget, valuation)


class TestComputeScaling:
    def test_matches_reference_bisection(self):
        rng = np.random.default_rng(2303)
        seen = {"w*=0": 0, "0<w*<1": 0, "w*=1": 0, "multi-bid": 0, "f(B / m) overflows": 0}
        for _ in range(10_000):
            bids, offer = _random_deal(rng)
            w = compute_scaling(bids, offer)
            assert w.hex() == _reference_scaling(bids, offer).hex(), (bids, offer)
            seen["w*=0" if w == 0.0 else "w*=1" if w == 1.0 else "0<w*<1"] += 1
            seen["multi-bid"] += len(bids) > 1
            seen["f(B / m) overflows"] += offer.valuation.k2 * offer.budget / len(bids) > 710.0
        assert min(seen.values()) >= 500, seen

    def test_matches_reference_bisection_at_grid_prices(self):
        # budgets at the price of a grid point and one float either side, where
        # rounding can put a bracket end on the wrong side of w*
        rng = np.random.default_rng(2304)
        for _ in range(3000):
            bids, offer = _random_deal(rng)
            j = int(rng.integers(1, 1 << 30))
            price = scaled_cost(bids, offer, j / (1 << 30))
            for budget in (math.nextafter(price, 0.0), price, math.nextafter(price, math.inf)):
                if 0.0 < budget < math.inf:
                    deal = (bids, ConsumerOffer(budget, offer.valuation))
                    assert compute_scaling(*deal).hex() == _reference_scaling(*deal).hex(), deal

    @pytest.mark.parametrize(
        "thresholds, expected",
        [((1e10,), "0x1.2688b70000000p-6"), ((5.0, 1e-3), "0x0.0p+0")],
        ids=["one-bid-priced-inf", "two-bids"],
    )
    def test_overflowing_forward_map(self, thresholds, expected):
        # f(800) = 1e-300 * expm1(800) raises OverflowError; the bracket widens past it
        valuation = ExponentialValuation(1e-300, 1.0)
        with pytest.raises(OverflowError):
            valuation.evaluate(800.0)
        bids = [Bid(f"F{i}", eps, 0.0) for i, eps in enumerate(thresholds)]
        offer = ConsumerOffer(800.0, valuation)
        assert compute_scaling(bids, offer).hex() == expected
        assert _reference_scaling(bids, offer).hex() == expected
        if len(bids) == 1:
            assert scaled_cost(bids, offer, 1.0) == math.inf

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
        with pytest.raises(DomainError, match="provider a is listed twice in federation F"):
            Federation("F", ("a", "b", "a"), (1, 1, 1), (1.0, 1.0, 1.0), 1.0, 3)
        with pytest.raises(DomainError, match="provider b must hold at least one data point"):
            Federation("F", ("a", "b"), (1, 0), (1.0, 1.0), 1.0, 3)
        for d_p, message in ((1.5, "integers"), (math.nan, "integers"), (2**63, "64-bit"), (1e19, "64-bit")):
            with pytest.raises(DomainError, match=f"yearly point budgets must .*{message}"):
                Federation("F", ("a", "b"), (1, d_p), (1.0, 1.0), 1.0, 3)
        for eps in (0.0, -1.0, 700.5, math.inf):
            with pytest.raises(DomainError):
                Federation("F", ("a",), (1,), (eps,), 1.0, 3)
        assert Federation("F", ("a",), (2**63 - 1,), (700.0,), 1.0, 3).d_p == (2**63 - 1,)

    def test_nan_delta_threshold_rejected(self):
        with pytest.raises(DomainError, match="^delta threshold must be positive$"):
            Federation("F", ("a",), (1,), (1.0,), math.nan, 3)

    def test_fractional_tolerance_window_rejected(self):
        # a window slices the past years, so a fractional one would crash the collection
        for window in (1.5, math.nan, 0):
            with pytest.raises(DomainError, match="^tolerance window must cover a whole number"):
                Federation("F", ("a",), (1,), (1.0,), 1.0, window)
        assert Federation("F", ("a",), (1,), (1.0,), 1.0, np.int64(2)).tolerance_window == 2

    def test_representative_and_active_are_read_off_the_members(self):
        fed = Federation("F", ("a", "b", "c", "d"), (5, 2, 10, 1), (2.0, 5.0, 1.0, 3.0), 1.0, 3)
        assert fed.representative == "a"  # a, b and c all have the limit 10.0
        assert fed.active
        empty = Federation("F", (), (), (), 1.0, 3)
        assert empty.representative is None and not empty.active

    def test_representative_holds_the_largest_additive_statistic(self):
        # the information limit d_p * eps_threshold the representative is chosen by is the
        # additive measure's statistic of a member's whole budget at her threshold
        rng = np.random.default_rng(12)
        measure = Measure(AggregationMode.ADDITIVE_INFORMATION, 2)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            d_p = rng.integers(1, 6, n)
            eps = rng.choice([0.5, 1.0, 2.0, 2.5], n)  # ties in d_p * eps are common
            ids = tuple(f"p{i}" for i in range(n))
            fed = Federation("F", ids, tuple(d_p.tolist()), tuple(eps.tolist()), 1.0, 3)
            (limits,) = measure.columns(d_p, eps)
            assert fed.representative == fed.member_ids[limits.tolist().index(max(limits.tolist()))]

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
            Federation("F", ("a", "b", "c"), (1, d_p, 0), (1.0, eps, 1.0), 1.0, 3)
        assert str(raised.value) == message
        with pytest.raises(DomainError) as alone:
            Provider("b", d_p, eps)
        assert str(alone.value) == message

    @pytest.mark.parametrize(
        "d_p, message",
        (
            (math.nan, "yearly point budgets must be integers, got [nan]"),
            (1.5, "yearly point budgets must be integers, got [1.5]"),
            (2**63, "yearly point budgets must fit in a 64-bit integer"),
            (2**70, "yearly point budgets must fit in a 64-bit integer"),
            (math.inf, "yearly point budgets must fit in a 64-bit integer"),
        ),
        ids=["nan", "fraction", "2^63", "2^70", "inf"],
    )
    def test_provider_takes_only_budgets_a_federation_takes(self, d_p, message):
        with pytest.raises(DomainError) as alone:
            Provider("a", d_p, 1.0)
        with pytest.raises(DomainError) as member:
            Federation("F", ("a",), (d_p,), (1.0,), 1.0, 3)
        assert str(alone.value) == str(member.value) == message

    def test_provider_budget_bounds(self):
        assert Provider("a", 1, 1.0).d_p == 1
        assert Provider("a", 2**63 - 1, 1.0).d_p == 2**63 - 1
        assert Provider("a", np.int64(7), 1.0).d_p == 7

    def test_federation_columns_must_align(self):
        with pytest.raises(DomainError):
            Federation("F", ("a", "b"), (1, 1), (1.0,), 1.0, 3)

    def test_members_view_reads_the_columns(self):
        fed = Federation("F", ("a", "b"), (2, 3), (1.5, 0.5), 1.0, 3)
        assert len(fed.members) == 2
        assert list(fed.members) == [Provider("a", 2, 1.5), Provider("b", 3, 0.5)]
        assert fed.members[-1] == Provider("b", 3, 0.5)
        assert fed.members[:1] == (Provider("a", 2, 1.5),)

    def test_offer_validation(self):
        with pytest.raises(DomainError):
            ConsumerOffer(budget=0.0, valuation=UNIT_VALUATION)

    def test_nan_budget_rejected(self):
        with pytest.raises(DomainError, match="^budget must be positive$"):
            ConsumerOffer(budget=math.nan, valuation=UNIT_VALUATION)
