import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scalar_stats
from fedmarket import dynamics, experiments
from fedmarket.config import ScenarioConfig, derive_seed, sample_thresholds
from fedmarket.dynamics import (
    CollectionPolicy,
    FreshEpsilonUnderflow,
    PenaltyState,
    PolicyKind,
    RoundReport,
    admit_member,
    apply_penalty,
    check_penalty_condition,
    detect_free_riders,
    privacy_saving,
    run_collection_batch,
    run_collection_year,
    run_collection_years,
    savings_snapshot,
    YearLedger,
    _catalyzing_factor,
    _escalated_epsilon,
)
from fedmarket.errors import DomainError, FedMarketError
from fedmarket.market import Federation, Provider
from fedmarket.privacy import AggregationMode, AlphabetSpec, Measure, ReportBatch, aggregate
from fedmarket.valuation import ExponentialValuation


def _federation(members, delta=2.0, window=3):
    return Federation(
        id="F1",
        member_ids=tuple(p.id for p in members),
        d_p=tuple(p.d_p for p in members),
        eps_threshold=tuple(p.eps_threshold for p in members),
        delta_threshold=delta,
        tolerance_window=window,
    )


def _ledger(year, entries, target=100.0):
    """Hand-built YearLedger carrying only per-provider totals."""
    return YearLedger(
        year=year,
        target=target,
        rounds_used=1,
        achieved=0.0,
        reached=False,
        provider_ids=tuple(entries),
        d_total=tuple(d for d, _ in entries.values()),
        eps_level=tuple(eps for _, eps in entries.values()),
        provider=(),
        round=(),
        d_t=(),
        eps_t=(),
        cumulative=(),
    )


CAT = CollectionPolicy(PolicyKind.CATALYZING, points_per_round=2, participation_prob=0.9)
NONCAT = CollectionPolicy(PolicyKind.NON_CATALYZING, points_per_round=2, participation_prob=0.9)


class TestPrivacySaving:
    def test_full_cooperation_saves_nothing(self):
        provider = Provider("p", 10, 5.0)
        ledger = _ledger(1, {"p": (10, 5.0)})
        assert privacy_saving([ledger], provider) == 0.0

    def test_single_year_gap(self):
        provider = Provider("p", 10, 5.0)
        ledger = _ledger(1, {"p": (10, 4.0)})
        assert privacy_saving([ledger], provider) == pytest.approx(10.0)

    def test_negative_years_accumulate(self):
        provider = Provider("p", 10, 5.0)
        saved = _ledger(1, {"p": (10, 4.0)})  # +10
        overspent = _ledger(2, {"p": (2, 6.0)})  # -2
        assert privacy_saving([saved, overspent], provider) == pytest.approx(8.0)

    def test_absent_years_contribute_nothing(self):
        provider = Provider("p", 10, 5.0)
        assert privacy_saving([_ledger(1, {})], provider) == 0.0


class TestCatalyzingFactor:
    def test_floor_at_one(self):
        assert _catalyzing_factor(0.0, 10, 5.0) == 1.0
        assert _catalyzing_factor(-25.0, 10, 5.0) == 1.0

    def test_boundary_ratio(self):
        assert _catalyzing_factor(50.0, 10, 5.0) == 1.0

    def test_acceleration(self):
        assert _catalyzing_factor(150.0, 10, 5.0) == pytest.approx(3.0)


class TestEscalatedEpsilon:
    def test_identity_factor(self):
        assert _escalated_epsilon(1.7, 1.0, 5.0) == 1.7

    def test_cap(self):
        assert _escalated_epsilon(2.0, 3.0, 5.0) == 5.0

    def test_product(self):
        assert _escalated_epsilon(1.0, 2.0, 5.0) == 2.0


class TestRoundRuleHelperArguments:
    """``_round_rule`` calls ``_catalyzing_factor`` and ``_escalated_epsilon`` unchecked.

    These pin what makes that safe: every member has reported a point before
    her factor is taken, and an epsilon that reaches the escalation is a
    positive one unless a fresh draw rounded to 0, which the year still
    reports as ``FreshEpsilonUnderflow``.
    """

    @staticmethod
    def _spy(monkeypatch):
        calls = {"d_m": [], "prev_eps": []}
        factor, escalated = _catalyzing_factor, _escalated_epsilon

        def spy_factor(delta, d_m, eps_threshold):
            calls["d_m"].append(np.array(d_m, copy=True))
            return factor(delta, d_m, eps_threshold)

        def spy_escalated(prev_eps, n_p, eps_threshold):
            calls["prev_eps"].append(np.array(prev_eps, copy=True))
            return escalated(prev_eps, n_p, eps_threshold)

        monkeypatch.setattr(dynamics, "_catalyzing_factor", spy_factor)
        monkeypatch.setattr(dynamics, "_escalated_epsilon", spy_escalated)
        return calls

    @staticmethod
    def _year(policy, seed, savings=50.0):
        # budgets of 1 point run out in round 1, so later rounds see members with nothing left
        budgets = ((1, 0.5), (7, 2.0), (20, 5.0))
        members = [Provider(f"p{i}", d_p, eps) for i, (d_p, eps) in enumerate(budgets)]
        return run_collection_year(
            _federation(members), math.inf, policy, 12, AggregationMode.ADDITIVE_INFORMATION,
            np.random.default_rng(seed), savings=[savings] * len(members),
        )

    def test_factor_sees_a_point_reported_by_every_member(self, monkeypatch):
        calls = self._spy(monkeypatch)
        for seed in range(5):
            self._year(CAT, seed)
        assert len(calls["d_m"]) == 5 * 11  # rounds 2 to 12 of each year
        assert all(d_m.min() >= 1 for d_m in calls["d_m"])

    def test_escalation_sees_positive_previous_epsilons(self, monkeypatch):
        calls = self._spy(monkeypatch)
        for seed in range(5):
            ledger = self._year(CAT, seed)
            assert ledger.rounds_used == 12
        assert len(calls["prev_eps"]) == 5 * 11
        assert all(prev_eps.min() > 0.0 for prev_eps in calls["prev_eps"])

    def test_underflowed_draw_that_escalates_names_initial_eps_high(self, monkeypatch):
        # with hi the smallest subnormal, hi - u * hi rounds to 0 for every u > 0.5; escalation
        # multiplies that 0 by n_p, so the year, not the helper, rejects it
        calls = self._spy(monkeypatch)
        policy = CollectionPolicy(PolicyKind.CATALYZING, initial_eps_high=5e-324, points_per_round=1)
        with pytest.raises(FreshEpsilonUnderflow, match="^initial_eps_high: "):
            self._year(policy, 0, savings=1e300)
        assert any((prev_eps == 0.0).any() for prev_eps in calls["prev_eps"])


class TestConservationCheck:
    """A year whose round rule reports past a member's budget raises, through both callers.

    The rule over-reports in the final round only: an earlier over-report
    leaves a negative count of points, which the next round reports and the
    negative-count check rejects first.
    """

    ROUNDS = 5

    @pytest.fixture(autouse=True)
    def _over_reporting_rule(self, monkeypatch):
        rule = dynamics._round_rule

        def over_reporting(policies, d_p, threshold):
            step = rule(policies, d_p, threshold)

            def over(t, u, remaining, prev_eps, savings):
                d, eps = step(t, u, remaining, prev_eps, savings)
                return (d + 3 if t == self.ROUNDS else d), eps

            return over

        monkeypatch.setattr(dynamics, "_round_rule", over_reporting)

    @staticmethod
    def _federation():
        # 4-point budgets run out by round 2; the final round reports 3 more points each
        return _federation([Provider(f"p{i}", 4, 5.0) for i in range(3)])

    @pytest.mark.parametrize("target", [1e9, math.inf], ids=["finite", "open"])
    def test_year_raises(self, target):
        with pytest.raises(FedMarketError, match="data conservation violated"):
            run_collection_year(
                self._federation(), target, NONCAT, self.ROUNDS, AggregationMode.ADDITIVE_INFORMATION,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("target", [1e9, math.inf], ids=["finite", "open"])
    def test_batch_raises(self, target):
        federation = self._federation()
        with pytest.raises(FedMarketError, match="data conservation violated"):
            run_collection_batch(
                [federation] * 2, [target] * 2, [CAT, NONCAT], 1, self.ROUNDS,
                AggregationMode.ADDITIVE_INFORMATION, [np.random.default_rng(seed) for seed in (0, 1)],
            )


class TestRunCollectionYear:
    def _members(self, n=4, d_p=10, eps=5.0):
        return [Provider(f"p{i}", d_p, eps) for i in range(n)]

    def test_tiny_target_first_round(self):
        fed = _federation(self._members())
        ledger = run_collection_year(
            fed, 0.01, NONCAT, 10, AggregationMode.ADDITIVE_INFORMATION, np.random.default_rng(0)
        )
        assert ledger.reached and ledger.rounds_used == 1

    def test_infeasible_target_recorded(self):
        fed = _federation(self._members(n=2, d_p=2))
        ledger = run_collection_year(
            fed, 1e9, NONCAT, 4, AggregationMode.ADDITIVE_INFORMATION, np.random.default_rng(0)
        )
        assert not ledger.reached
        assert ledger.rounds_used == 4
        assert ledger.achieved < 1e9

    def test_deterministic_given_seed(self):
        fed = _federation(self._members())
        runs = [
            run_collection_year(
                fed, 30.0, CAT, 10, AggregationMode.ADDITIVE_INFORMATION, np.random.default_rng(7)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_data_conservation(self):
        fed = _federation(self._members(d_p=3))
        ledger = run_collection_year(
            fed, 1e9, NONCAT, 12, AggregationMode.ADDITIVE_INFORMATION, np.random.default_rng(3)
        )
        assert ledger.provider_ids == tuple(p.id for p in fed.members)
        for i, provider in enumerate(fed.members):
            mine = [j for j, who in enumerate(ledger.provider) if who == i]
            assert ledger.d_total[i] == sum(ledger.d_t[j] for j in mine) <= provider.d_p
            eps_level = 0.0
            for j in mine:  # in report order
                eps_level += ledger.eps_t[j]
            assert ledger.eps_level[i].hex() == eps_level.hex()

    def test_catalyzing_epsilon_non_decreasing(self):
        fed = _federation(self._members(n=6))
        savings = np.full(len(fed.members), 500.0)  # strong escalation fuel
        ledger = run_collection_year(
            fed,
            1e9,
            CAT,
            8,
            AggregationMode.ADDITIVE_INFORMATION,
            np.random.default_rng(11),
            savings=savings,
        )
        for provider in fed.members:
            eps_seq = [r.eps_t for r in ledger.reports if r.provider_id == provider.id]
            assert all(b >= a - 1e-12 for a, b in zip(eps_seq, eps_seq[1:]))
            assert all(e <= provider.eps_threshold + 1e-12 for e in eps_seq)

    def test_no_savings_means_no_escalation(self):
        fed = _federation(self._members(n=3))
        ledger = run_collection_year(
            fed, 1e9, CAT, 5, AggregationMode.ADDITIVE_INFORMATION, np.random.default_rng(2)
        )
        for provider in fed.members:
            eps_seq = [r.eps_t for r in ledger.reports if r.provider_id == provider.id]
            assert len(set(eps_seq)) == 1  # first draw repeated, N floored at 1

    def test_cumulative_aggregate_matches_reports(self):
        fed = _federation(self._members(n=3))
        ledger = run_collection_year(
            fed, 40.0, NONCAT, 10, AggregationMode.ADDITIVE_INFORMATION, np.random.default_rng(5)
        )
        running = 0.0
        for report, recorded in zip(ledger.reports, ledger.cumulative):
            running += report.d_t * report.eps_t
            assert recorded == pytest.approx(running, rel=1e-12)
        assert ledger.achieved == pytest.approx(running, rel=1e-12)

    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    def test_achieved_is_aggregate_of_reports_bit_for_bit(self, mode):
        rng = np.random.default_rng(2718)
        for _ in range(60):
            members = [
                Provider(f"p{i}", int(rng.integers(1, 12)), float(rng.uniform(0.5, 9.0)))
                for i in range(int(rng.integers(1, 9)))
            ]
            spec = AlphabetSpec(int(rng.integers(2, 17)))
            limit = aggregate([ReportBatch(p.d_p, p.eps_threshold) for p in members], mode, spec)
            policy = CollectionPolicy(
                PolicyKind.CATALYZING if rng.random() < 0.5 else PolicyKind.NON_CATALYZING,
                participation_prob=float(rng.uniform(0.3, 1.0)),
                points_per_round=int(rng.integers(1, 4)),
            )
            ledger = run_collection_year(
                _federation(members),
                limit * float(rng.uniform(0.2, 1.2)),
                policy,
                int(rng.integers(1, 8)),
                mode,
                np.random.default_rng(int(rng.integers(2**32))),
                savings=[float(rng.uniform(0.0, 50.0)) for p in members],
                spec=spec,
            )
            batches = [ReportBatch(r.d_t, r.eps_t) for r in ledger.reports]
            assert ledger.achieved == ledger.cumulative[-1] == aggregate(batches, mode, spec)

    def test_nan_target_rejected(self):
        fed = _federation(self._members())
        with pytest.raises(DomainError, match="^collection target must be positive$"):
            run_collection_year(
                fed, math.nan, NONCAT, 3, AggregationMode.ADDITIVE_INFORMATION,
                np.random.default_rng(0),
            )

    def test_point_budget_beyond_int64_rejected(self):
        with pytest.raises(DomainError):
            _federation([Provider("p", 2**70, 5.0)])

    @pytest.mark.parametrize("max_rounds", (1, 3))
    @pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda k: k.value)
    def test_fresh_epsilon_underflow_names_initial_eps_high(self, kind, max_rounds):
        # with hi the smallest subnormal, hi - u * hi rounds to 0 for every u > 0.5
        policy = CollectionPolicy(kind, initial_eps_high=5e-324, points_per_round=2)
        fed = _federation([Provider(f"p{i}", 10, 1.0) for i in range(8)])
        with pytest.raises(DomainError, match="^initial_eps_high: "):
            run_collection_year(
                fed, math.inf, policy, max_rounds, AggregationMode.ADDITIVE_INFORMATION,
                np.random.default_rng(0),
            )

    def test_krr_mode_achieved_is_composition(self):
        fed = _federation(self._members(n=3), window=2)
        ledger = run_collection_year(
            fed,
            4.0,
            NONCAT,
            3,
            AggregationMode.KRR_COMPOSITION,
            np.random.default_rng(9),
            spec=AlphabetSpec(4),
        )
        total = sum(r.d_t for r in ledger.reports)
        mass = math.fsum(r.d_t / (3 + math.exp(r.eps_t)) for r in ledger.reports)
        assert ledger.achieved == pytest.approx(math.log(total / mass - 3), rel=1e-9)

    def test_policy_dominance_in_expectation(self):
        # catalyzing never needs more rounds on average once savings exist
        rng_thresholds = np.random.default_rng(31)
        members = [Provider(f"p{i}", 40, float(rng_thresholds.uniform(3, 7))) for i in range(25)]
        fed = _federation(members)
        policy = {
            PolicyKind.CATALYZING: CollectionPolicy(
                PolicyKind.CATALYZING, 0.0, 0.6, 0.8, 6
            ),
            PolicyKind.NON_CATALYZING: CollectionPolicy(
                PolicyKind.NON_CATALYZING, 0.0, 0.6, 0.8, 6
            ),
        }
        mean_rounds = {}
        for kind in policy:
            rounds = []
            for seed in range(40):
                ledgers = run_collection_years(
                    fed,
                    500.0,
                    policy[kind],
                    years=4,
                    max_rounds=10,
                    mode=AggregationMode.ADDITIVE_INFORMATION,
                    rng=np.random.default_rng(1000 + seed),
                )
                assert ledgers[-1].reached
                rounds.append(ledgers[-1].rounds_used)
            mean_rounds[kind] = float(np.mean(rounds))
        assert mean_rounds[PolicyKind.CATALYZING] <= mean_rounds[PolicyKind.NON_CATALYZING]


def _scalar_year(federation, target, policy, max_rounds, mode, rng, savings, year, spec):
    """Reference year: one provider and one report at a time, in scalar floats.

    Returns (reports, cumulative, d_total, eps_level, rounds_used, achieved).
    """
    members = federation.members
    remaining = {p.id: p.d_p for p in members}
    reported = {p.id: 0 for p in members}
    eps_sum = {p.id: 0.0 for p in members}
    prev_eps = {p.id: None for p in members}
    measure = Measure(mode, spec.k)
    totals = [0.0] * measure.width
    reports, cumulative = [], []
    rounds_used = 0
    for t in range(1, max_rounds + 1):
        u_part = rng.random(len(members))
        u_eps = rng.random(len(members))
        rounds_used = t
        for i, provider in enumerate(members):
            pid = provider.id
            if remaining[pid] == 0:
                continue
            if t > 1 and u_part[i] >= policy.participation_prob:
                continue
            d_t = min(policy.points_per_round, remaining[pid])
            lo = policy.initial_eps_low * provider.eps_threshold
            hi = policy.initial_eps_high * provider.eps_threshold
            fresh = float(hi - u_eps[i] * (hi - lo))
            if prev_eps[pid] is None or policy.kind is PolicyKind.NON_CATALYZING:
                eps_t = fresh
            else:
                if reported[pid] < 1 or prev_eps[pid] <= 0:
                    raise DomainError("catalyzing needs a reported point and a positive epsilon")
                n_p = max(1.0, float(savings[i]) / (reported[pid] * provider.eps_threshold))
                eps_t = min(n_p * prev_eps[pid], provider.eps_threshold)
            reports.append(RoundReport(pid, year, t, d_t, eps_t))
            remaining[pid] -= d_t
            reported[pid] += d_t
            eps_sum[pid] += eps_t
            prev_eps[pid] = eps_t
            for j, x in enumerate(scalar_stats(mode, spec.k, d_t, eps_t)):
                totals[j] += x
            cumulative.append(measure.level(totals))
        if cumulative and cumulative[-1] >= target:
            break
    d_total = tuple(reported[p.id] for p in members)
    eps_level = tuple(eps_sum[p.id] for p in members)
    achieved = cumulative[-1] if cumulative else 0.0
    return tuple(reports), tuple(cumulative), d_total, eps_level, rounds_used, achieved


@st.composite
def _year_cases(draw):
    n = draw(st.integers(1, 9))
    low = draw(st.floats(0.0, 0.9))
    return {
        "members": [
            (draw(st.integers(1, 12)), draw(st.floats(0.05, 9.0))) for _ in range(n)
        ],
        "k": draw(st.integers(2, 16)),
        "low": low,
        "high": draw(st.floats(low, 1.0, exclude_min=True)),
        "participation": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "points_per_round": draw(st.integers(1, 15)),
        "max_rounds": draw(st.integers(1, 8)),
        # a fraction of the federation's full capacity, or never reached
        "target": draw(st.floats(1e-6, 1.3) | st.just(math.inf)),
        "savings": [draw(st.sampled_from([0.0, 1e6]) | st.floats(-20.0, 80.0)) for _ in range(n)],
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _edge(**overrides):
    case = {
        "members": [(10, 5.0), (3, 1.5), (7, 8.0)],
        "k": 4,
        "low": 0.0,
        "high": 0.6,
        "participation": 0.8,
        "points_per_round": 2,
        "max_rounds": 6,
        "target": 0.7,
        "savings": [40.0, 0.0, 5.0],
        "seed": 11,
    }
    return {**case, **overrides}


class TestColumnarYearMatchesScalarLoop:
    """``run_collection_year`` against the per-report reference loop, bit for bit."""

    @pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    # 6 x (24 generated + 10 explicit) = 204 examples in all
    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(case=_year_cases())
    @example(case=_edge(participation=0.0))
    @example(case=_edge(participation=1.0))
    @example(case=_edge(points_per_round=20))
    @example(case=_edge(points_per_round=10**30))
    @example(case=_edge(max_rounds=1))
    @example(case=_edge(target=1e-6))  # reached in round 1
    @example(case=_edge(target=math.inf))
    @example(case=_edge(savings=[0.0, 0.0, 0.0], target=math.inf))
    @example(case=_edge(savings=[1e6, 1e6, 1e6], target=math.inf))
    # a finite target missed over more rounds than the year's fold first holds
    @example(case=_edge(max_rounds=40, points_per_round=1, participation=0.5, target=1.3))
    def test_identical_ledger_and_generator_state(self, mode, kind, case):
        spec = AlphabetSpec(case["k"])
        members = [Provider(f"p{i}", d, eps) for i, (d, eps) in enumerate(case["members"])]
        federation = _federation(members)
        capacity = aggregate([ReportBatch(p.d_p, p.eps_threshold) for p in members], mode, spec)
        target = case["target"] * capacity
        policy = CollectionPolicy(
            kind,
            initial_eps_low=case["low"],
            initial_eps_high=case["high"],
            participation_prob=case["participation"],
            points_per_round=case["points_per_round"],
        )
        savings = np.array(case["savings"])
        ref_rng = np.random.default_rng(case["seed"])
        rng = np.random.default_rng(case["seed"])

        def year():
            return run_collection_year(
                federation, target, policy, case["max_rounds"], mode, rng,
                savings=savings, year=3, spec=spec,
            )

        try:
            reports, cumulative, d_total, eps_level, rounds_used, achieved = _scalar_year(
                federation, target, policy, case["max_rounds"], mode, ref_rng, savings, 3, spec
            )
        except DomainError:  # e.g. a fresh epsilon that underflows to 0
            with pytest.raises(DomainError):
                year()
            return
        ledger = year()
        assert len(ledger.reports) == len(reports)
        assert tuple(ledger.reports) == reports
        assert [x.hex() for x in ledger.cumulative] == [x.hex() for x in cumulative]
        assert ledger.d_total == d_total
        assert [x.hex() for x in ledger.eps_level] == [x.hex() for x in eps_level]
        assert ledger.rounds_used == rounds_used
        assert ledger.achieved.hex() == achieved.hex()
        assert ledger.reached == (achieved >= target)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    def test_stops_in_the_round_whose_aggregate_equals_the_target(self, mode):
        # 40 members: wide enough that a pairwise (numpy) sum would round differently
        rng = np.random.default_rng(77)
        members = [Provider(f"p{i}", 12, float(rng.uniform(0.5, 6.0))) for i in range(40)]
        federation, spec = _federation(members), AlphabetSpec(5)
        savings = np.array([float(rng.uniform(0.0, 40.0)) for p in members])
        runs = []
        for target in (math.inf, None):
            if target is None:  # exactly the aggregate after round 3
                last = max(i for i, t in enumerate(runs[0][0]) if t.round == 3)
                target = runs[0][1][last]
            rng_ref = np.random.default_rng(5)
            runs.append(_scalar_year(federation, target, CAT, 6, mode, rng_ref, savings, 1, spec))
            ledger = run_collection_year(
                federation, target, CAT, 6, mode, np.random.default_rng(5), savings=savings, spec=spec
            )
            assert tuple(ledger.reports) == runs[-1][0]
            assert ledger.rounds_used == runs[-1][4]
        assert ledger.rounds_used == 3 and ledger.reached


@st.composite
def _policy_fields(draw):
    low = draw(st.floats(0.0, 0.9))
    return {
        "low": low,
        "high": draw(st.floats(low, 1.0, exclude_min=True)),
        "participation": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "points_per_round": draw(st.integers(1, 15)),
    }


@st.composite
def _batch_cases(draw):
    n = draw(st.integers(1, 8))
    runs = draw(st.integers(1, 4))
    return {
        "runs": [
            [(draw(st.integers(1, 12)), draw(st.floats(0.05, 9.0))) for _ in range(n)]
            for _ in range(runs)
        ],
        "k": draw(st.integers(2, 16)),
        **draw(_policy_fields()),
        # per run, the fields it follows instead of the shared ones (none: it shares them)
        "own": [draw(st.just({}) | _policy_fields()) for _ in range(runs)],
        # per run, whether it follows the other policy kind
        "other_kind": [draw(st.booleans()) for _ in range(runs)],
        "max_rounds": draw(st.integers(1, 5)),
        "warmup_years": draw(st.integers(0, 3)),
        "window": draw(st.integers(1, 3)),
        # per run, a fraction of its federation's full capacity: from below
        # what round 1 collects up to never reached
        "targets": [draw(st.floats(1e-6, 1.3) | st.just(math.inf)) for _ in range(runs)],
        "seeds": [draw(st.integers(0, 2**32 - 1)) for _ in range(runs)],
    }


def _batch_edge(**overrides):
    case = {
        "runs": [[(10, 5.0), (3, 1.5), (7, 8.0)], [(4, 2.0), (9, 0.5), (6, 3.0)]],
        "k": 4,
        "low": 0.0,
        "high": 0.6,
        "participation": 0.8,
        "points_per_round": 2,
        "own": [{}, {}],
        "other_kind": [False, True],
        "max_rounds": 5,
        "warmup_years": 3,
        "window": 2,
        "targets": [0.3, 0.7],
        "seeds": [11, 12],
    }
    return {**case, **overrides}


def _batch_policies(kind, case):
    """Each run's policy: ``kind`` or the other kind, with the shared or its own fields."""
    fields = ("low", "high", "participation", "points_per_round")
    return [
        CollectionPolicy(
            kind if not other else next(k for k in PolicyKind if k is not kind),
            *({**case, **own}[field] for field in fields),
        )
        for own, other in zip(case["own"], case["other_kind"])
    ]


class TestBatchMatchesSingleRuns:
    """``run_collection_batch`` and ``run_collection_years`` against the per-report loop.

    The two share their year step, so the reference is independent of
    both: ``_scalar_year`` per run and year, with savings rolled over the
    window as in ``_reference_penalized_run``. Both must match it bit for
    bit, each from its own generators. Each run of a batch follows its own
    policy: ``kind`` or the other one, with shared or its own fields.
    """

    @pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    # 6 x (20 generated + 6 explicit) = 156 examples in all
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=_batch_cases())
    @example(case=_batch_edge())
    @example(case=_batch_edge(targets=[1e-6, math.inf]))  # one run leaves in round 1
    @example(case=_batch_edge(targets=[math.inf, math.inf], participation=1.0))
    @example(case=_batch_edge(runs=[[(10, 5.0), (3, 1.5), (7, 8.0)]] * 2, targets=[0.2, 0.5]))
    @example(case=_batch_edge(other_kind=[False, False]))  # one policy for the whole batch
    # the other fields differ by run as well as the kind
    @example(case=_batch_edge(own=[{}, {"low": 0.2, "high": 0.9, "participation": 0.5, "points_per_round": 3}]))
    @example(case=_batch_edge(high=5e-324, targets=[1e-6, 0.7]))  # fresh epsilons underflow
    # low epsilons in few rounds leave savings that escalate the next years
    @example(case=_batch_edge(high=0.1, points_per_round=1, max_rounds=3, targets=[math.inf, 0.1]))
    def test_rounds_achieved_and_generator_state(self, mode, kind, case):
        spec = AlphabetSpec(case["k"])
        policies = _batch_policies(kind, case)
        federations, targets, providers = [], [], []
        for members, fraction in zip(case["runs"], case["targets"]):
            providers.append([Provider(f"p{i}", d, eps) for i, (d, eps) in enumerate(members)])
            federations.append(_federation(providers[-1], window=case["window"]))
            capacity = aggregate([ReportBatch(d, eps) for d, eps in members], mode, spec)
            targets.append(fraction * capacity)
        years = case["warmup_years"] + 1
        ref_rngs = [np.random.default_rng(seed) for seed in case["seeds"]]
        single_rngs = [np.random.default_rng(seed) for seed in case["seeds"]]

        def batch(years):
            """The batch over ``years`` years from fresh generators: its results and generators."""
            rngs = [np.random.default_rng(seed) for seed in case["seeds"]]
            results = run_collection_batch(
                federations, targets, policies, years, case["max_rounds"], mode, rngs, spec=spec
            )
            return results, rngs

        def single(r):
            return run_collection_years(
                federations[r], targets[r], policies[r], years, case["max_rounds"], mode,
                single_rngs[r], spec=spec,
            )

        try:
            runs = [  # penalties from a year after the last: none
                _reference_penalized_run(
                    members, target, policy, years, case["max_rounds"], mode, spec, rng,
                    case["window"], math.inf, years + 1,
                )
                for members, target, policy, rng in zip(providers, targets, policies, ref_rngs)
            ]
        except DomainError:  # a fresh epsilon that underflows to 0
            with pytest.raises(FreshEpsilonUnderflow):
                batch(years)
            with pytest.raises(FreshEpsilonUnderflow):
                for r in range(len(federations)):
                    single(r)
            return
        # the batch reports its last year: one batch per year count measures every year
        for y in range(1, years + 1):
            (rounds_used, achieved, excluded), rngs = batch(y)
            assert rounds_used.shape == achieved.shape == excluded.shape == (len(runs),)
            assert excluded.tolist() == [0] * len(runs)  # no penalties asked for
            assert rounds_used.tolist() == [used[y - 1] for _, used, _, _ in runs]
            assert [x.hex() for x in achieved.tolist()] == [got[y - 1].hex() for _, _, got, _ in runs]
        for r, (_, used, got, _) in enumerate(runs):
            assert rngs[r].bit_generator.state == ref_rngs[r].bit_generator.state
            ledgers = single(r)
            assert [ledger.rounds_used for ledger in ledgers] == used
            assert [ledger.achieved.hex() for ledger in ledgers] == [x.hex() for x in got]
            assert single_rngs[r].bit_generator.state == ref_rngs[r].bit_generator.state

    def test_counts_beyond_int64_add_up_as_floats(self):
        # two reports of 2**62 points: an int64 running count would wrap negative
        members = [Provider("a", 2**62, 1.0), Provider("b", 2**62, 2.0)]
        policy = CollectionPolicy(PolicyKind.NON_CATALYZING, points_per_round=2**62)
        mode, spec = AggregationMode.KRR_COMPOSITION, AlphabetSpec(2)
        ledger = run_collection_year(
            _federation(members), math.inf, policy, 1, mode, np.random.default_rng(0), spec=spec
        )
        _, achieved, _ = run_collection_batch(
            [_federation(members)], [math.inf], [policy], 1, 1, mode, [np.random.default_rng(0)], spec
        )
        assert ledger.achieved.hex() == achieved.tolist()[0].hex()
        assert 1.0 < ledger.achieved < 2.0

    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    def test_empty_federations_run_every_round_and_achieve_nothing(self, mode):
        policy = CollectionPolicy(PolicyKind.CATALYZING)
        (ledger,) = run_collection_years(_federation([]), 1.0, policy, 1, 4, mode, np.random.default_rng(0))
        for years in (1, 2, 3):  # the batch reports its last year
            rngs = [np.random.default_rng(0), np.random.default_rng(1)]
            states = [rng.bit_generator.state for rng in rngs]
            rounds_used, achieved, excluded = run_collection_batch(
                [_federation([])] * 2, [1.0, 1.0], [policy] * 2, years, 4, mode, rngs, penalties_from=1
            )
            assert rounds_used.tolist() == [ledger.rounds_used] * 2 == [4, 4]
            assert achieved.tolist() == [ledger.achieved] * 2 == [0.0, 0.0]
            assert excluded.tolist() == [0, 0]
            assert [rng.bit_generator.state for rng in rngs] == states

    def test_nan_target_rejected(self):
        members = [Provider("a", 5, 2.0), Provider("b", 5, 3.0)]
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(DomainError, match="^collection target must be positive$"):
            run_collection_batch(
                [_federation(members)] * 2, [math.inf, math.nan], [NONCAT] * 2, 1, 3,
                AggregationMode.ADDITIVE_INFORMATION, rngs,
            )

    def test_one_policy_per_run(self):
        members = [Provider("a", 5, 2.0), Provider("b", 5, 3.0)]
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        for policies in ([], [CAT], [CAT, NONCAT, CAT]):
            with pytest.raises(DomainError, match="one policy and one generator for each"):
                run_collection_batch(
                    [_federation(members)] * 2, [1.0, 1.0], policies, 1, 3,
                    AggregationMode.ADDITIVE_INFORMATION, rngs,
                )

    def test_federations_must_share_their_size_and_window(self):
        members = [Provider("a", 5, 2.0), Provider("b", 5, 3.0)]
        policy = CollectionPolicy(PolicyKind.CATALYZING)
        mode = AggregationMode.ADDITIVE_INFORMATION
        for other in (_federation(members[:1]), _federation(members, window=2)):
            with pytest.raises(DomainError, match="share their size and tolerance window"):
                run_collection_batch(
                    [_federation(members), other], [1.0, 1.0], [policy] * 2, 1, 3, mode,
                    [np.random.default_rng(0), np.random.default_rng(1)],
                )


def _reference_members(config, n, build_seed):
    """Per-``Provider`` builder: one validated object per sampled threshold."""
    thresholds = sample_thresholds(config.thresholds, n, np.random.default_rng(build_seed))
    return [Provider(f"p{i:03d}", config.data_points, float(eps)) for i, eps in enumerate(thresholds)]


def _reference_savings(ledgers, members):
    """Per-provider savings fold: a dict by id, one ledger entry at a time."""
    thresholds = {p.id: p.eps_threshold for p in members}
    savings = dict.fromkeys(thresholds, 0.0)
    for ids, d_total, eps_level in ledgers:
        for pid, d, eps in zip(ids, d_total, eps_level):
            if d and pid in thresholds:
                savings[pid] += d * (thresholds[pid] - eps)
    return savings


def _reference_year(config, members, target, policy, max_rounds, rng, savings, year):
    """One year of the scalar loop, as the (ids, d_total, eps_level) the savings read."""
    _, _, d_total, eps_level, _, _ = _scalar_year(
        _federation(members), target, policy, max_rounds, config.aggregation, rng,
        [savings.get(p.id, 0.0) for p in members], year, AlphabetSpec(config.k),
    )
    return tuple(p.id for p in members), d_total, eps_level


def _strongest(members):
    return max(members, key=lambda p: p.d_p * p.eps_threshold).id


def _reference_free_riders(config, n, delta, rep, kind, events):
    """One free-rider row's count from the per-``Provider`` year loop.

    Savings are dicts by id, flags a set of ids, and a penalty filters the
    member list. ``events`` collects which exclusions happened, and
    ``(delta, kind, fate)`` for a run that emptied before its last year
    or collected in it.
    """
    members = _reference_members(
        config, n, derive_seed(config.master_seed, "freeriders-build", n, delta, rep)
    )
    representative = _strongest(members)
    rng = np.random.default_rng(derive_seed(config.master_seed, "freeriders-run", n, delta, rep))
    ledgers, registry, savings = [], set(), {}
    for year in range(1, config.freerider_years + 1):
        if not members:
            events.add((delta, kind, "emptied early"))
            break
        if year == config.freerider_years:
            events.add((delta, kind, "collected to the end"))
        ledgers.append(
            _reference_year(
                config, members, math.inf, config.freerider_policy(kind),
                config.freerider_rounds_per_year, rng, savings, year,
            )
        )
        savings = _reference_savings(ledgers[-config.tolerance_window :], members)
        if year >= config.tolerance_window:
            flagged = {pid for pid, saving in savings.items() if saving >= delta}
            registry |= flagged
            remaining = [p for p in members if p.id not in flagged]
            if flagged and remaining:
                events.add("some members excluded")
                if year < config.freerider_years:
                    events.add("a reduced federation ran another year")
            if representative in flagged and remaining:
                events.add("representative excluded")
                representative = _strongest(remaining)
            members = remaining
    return len(registry)


def _reference_penalized_run(members, target, policy, years, max_rounds, mode, spec, rng, window, delta, penalties_from):
    """One run of a penalized batch from the per-``Provider`` year loop.

    Every year from ``penalties_from`` on drops the members whose savings
    over the window reach ``delta``; a run left without members runs its
    remaining years empty. Returns (members excluded by the end of each
    year, rounds_used per year, achieved per year, the year the run
    emptied before its last or None).
    """
    ledgers, savings, excluded, emptied = [], {}, [], None
    rounds_used, achieved = [], []
    for year in range(1, years + 1):
        _, _, d_total, eps_level, used, got = _scalar_year(
            _federation(members), target, policy, max_rounds, mode, rng,
            [savings.get(p.id, 0.0) for p in members], year, spec,
        )
        rounds_used.append(used)
        achieved.append(got)
        ledgers.append((tuple(p.id for p in members), d_total, eps_level))
        savings = _reference_savings(ledgers[-window:], members)
        kept = members
        if year >= penalties_from:
            kept = [p for p in members if savings[p.id] < delta]
            if members and not kept and year < years:
                emptied = year
        excluded.append((excluded[-1] if excluded else 0) + len(members) - len(kept))
        members = kept
    return excluded, rounds_used, achieved, emptied


class TestPenalizedBatchMatchesProviderLoop:
    """``run_collection_batch(..., penalties_from=)`` run by run against the per-``Provider`` loop."""

    RUNS = (
        ((10, 5.0), (6, 1.5), (8, 8.0), (5, 3.0)),
        ((4, 2.0), (9, 0.5), (6, 3.0), (7, 6.0)),
    )
    DELTAS = (5.0, 12.0)  # the first run empties before its last year, the second shrinks

    @pytest.mark.parametrize("fractions", [(math.inf, math.inf), (math.inf, 0.4)], ids=["open-open", "open-finite"])
    # one batch per kind, and one holding every run under both kinds, policy-major
    @pytest.mark.parametrize(
        "kinds",
        [(PolicyKind.CATALYZING,), (PolicyKind.NON_CATALYZING,), tuple(PolicyKind)],
        ids=["catalyzing", "non-catalyzing", "mixed"],
    )
    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    def test_exclusions_years_and_generator_state(self, mode, kinds, fractions):
        spec, years, max_rounds, window, penalties_from = AlphabetSpec(4), 6, 4, 2, 2
        federations, targets, policies, expected = [], [], [], []
        for kind in kinds:
            policy = CollectionPolicy(kind, initial_eps_high=0.5, participation_prob=0.7, points_per_round=2)
            for r, (members, fraction, delta) in enumerate(zip(self.RUNS, fractions, self.DELTAS)):
                providers = [Provider(f"p{i}", d, eps) for i, (d, eps) in enumerate(members)]
                federations.append(_federation(providers, delta=delta, window=window))
                targets.append(fraction * aggregate([ReportBatch(d, eps) for d, eps in members], mode, spec))
                policies.append(policy)
                ref_rng = np.random.default_rng(r + 3)
                expected.append(
                    _reference_penalized_run(
                        providers, targets[-1], policy, years, max_rounds, mode, spec, ref_rng,
                        window, delta, penalties_from,
                    )
                    + (ref_rng.bit_generator.state,)
                )
        # the batch reports its last year: one batch per year count measures every year
        for y in range(1, years + 1):
            rngs = [np.random.default_rng(r % len(self.RUNS) + 3) for r in range(len(federations))]
            rounds_used, achieved, excluded = run_collection_batch(
                federations, targets, policies, y, max_rounds, mode, rngs, spec,
                penalties_from=penalties_from,
            )
            assert excluded.tolist() == [counts[y - 1] for counts, _, _, _, _ in expected]
            assert rounds_used.tolist() == [used[y - 1] for _, used, _, _, _ in expected]
            assert [x.hex() for x in achieved.tolist()] == [got[y - 1].hex() for _, _, got, _, _ in expected]
        for r, (_, _, _, _, state) in enumerate(expected):
            assert rngs[r].bit_generator.state == state
        for first in range(0, len(expected), len(self.RUNS)):  # under each kind
            assert expected[first][3] is not None  # the first run emptied mid-run
            assert 0 < expected[first + 1][0][-1] < len(self.RUNS[1])  # the second lost some members


def _reference_simulate_penalties(config, promised):
    """``simulate``'s savings and flags from the per-``Provider`` loop."""
    n = config.federation_sizes[0]
    members = _reference_members(config, n, derive_seed(config.master_seed, "simulate-build", n))
    rng = np.random.default_rng(derive_seed(config.master_seed, "simulate-run", n))
    ledgers = []
    for year in range(1, config.warmup_years + 2):
        savings = _reference_savings(ledgers[-config.tolerance_window :], members)
        ledgers.append(
            _reference_year(
                config, members, promised, config.collection_policy(config.policy),
                config.max_rounds, rng, savings, year,
            )
        )
    savings = _reference_savings(ledgers[-config.tolerance_window :], members)
    flagged = sorted(pid for pid, saving in savings.items() if saving >= config.delta_thresholds[0])
    return savings, flagged


_FREERIDER_UNDERFLOW = (
    "freerider_initial_eps_high: a fresh epsilon underflowed to 0; "
    "freerider_initial_eps_high times a provider's eps_threshold is too small"
)


def _check_against_reference(config, tmp_path):
    """Free-rider rows and ``simulate``'s penalties against the reference loop;
    returns the exclusion events the reference saw."""
    events = set()
    (n,) = config.freerider_sizes
    try:
        expected = sorted(
            (n, float(delta).hex(), kind.value, rep, _reference_free_riders(config, n, delta, rep, kind, events))
            for delta in config.delta_thresholds
            for rep in range(config.replications)
            for kind in PolicyKind
        )
    except DomainError:  # a fresh epsilon that underflows to 0
        with pytest.raises(DomainError, match=f"^{re.escape(_FREERIDER_UNDERFLOW)}$"):
            experiments.experiment_free_riders(config, tmp_path / "fr")
        events.add("a fresh epsilon underflowed")
    else:
        rows = experiments.experiment_free_riders(config, tmp_path / "fr")
        got = sorted(
            (r["n"], r["delta_f"].hex(), r["policy"], r["replication"], r["free_rider_count"])
            for r in rows
        )
        assert got == expected
    fates = {event for event in events if isinstance(event, tuple)}
    events -= fates
    if any(
        (delta, kind, "collected to the end") in fates
        for delta, kind, fate in fates
        if fate == "emptied early"
    ):
        events.add("a batch emptied one run early and collected another to the end")

    experiments.simulate(config, tmp_path / "sim")
    deal = json.loads((tmp_path / "sim" / "deal.json").read_text())
    penalties = json.loads((tmp_path / "sim" / "penalties.json").read_text())
    savings, flagged = _reference_simulate_penalties(config, deal["promised_eps"])
    assert list(penalties["savings"]) == list(savings)
    assert [v.hex() for v in penalties["savings"].values()] == [v.hex() for v in savings.values()]
    assert penalties["flagged"] == flagged
    assert sorted(penalties["registry"]) == flagged
    assert penalties["remaining_members"] == len(savings) - len(flagged)
    assert penalties["federation_active"] == (len(flagged) < len(savings))
    return events


_PENALTY_BASE = ScenarioConfig(shapley_samples=64, timing_sizes=(4,))


@st.composite
def _penalty_configs(draw):
    return replace(
        _PENALTY_BASE,
        master_seed=draw(st.integers(0, 2**32 - 1)),
        aggregation=draw(st.sampled_from(list(AggregationMode))),
        k=draw(st.integers(2, 8)),
        data_points=draw(st.integers(1, 12)),
        federation_sizes=(draw(st.integers(1, 8)),),
        budget=draw(st.floats(20.0, 5000.0)),
        max_rounds=draw(st.integers(1, 6)),
        warmup_years=draw(st.integers(0, 3)),
        freerider_sizes=(draw(st.integers(1, 10)),),
        delta_thresholds=tuple(
            draw(st.lists(st.floats(0.05, 4.0), min_size=1, max_size=2, unique=True))
        ),
        replications=draw(st.integers(1, 4)),
        tolerance_window=draw(st.integers(1, 3)),
        freerider_years=draw(st.integers(1, 6)),
        freerider_rounds_per_year=draw(st.integers(1, 4)),
    )


# One replication loses both members before its last year, the other collects to the end.
_EMPTYING = replace(
    _PENALTY_BASE,
    master_seed=0,
    data_points=1,
    freerider_sizes=(2,),
    delta_thresholds=(3.0,),
    replications=2,
    tolerance_window=1,
    freerider_years=5,
)
_UNDERFLOWING = replace(_PENALTY_BASE, freerider_sizes=(4,), replications=2, freerider_initial_eps_high=5e-324)


class TestColumnarPenaltiesMatchProviderLoop:
    """Free-rider rows and ``simulate``'s savings against the per-``Provider`` loop, bit for bit."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(config=_penalty_configs())
    @example(config=_EMPTYING)
    @example(config=replace(_EMPTYING, aggregation=AggregationMode.KRR_COMPOSITION, k=5))
    @example(config=_UNDERFLOWING)
    def test_identical_rows_and_savings(self, config, tmp_path_factory):
        _check_against_reference(config, tmp_path_factory.mktemp("penalties"))

    @pytest.mark.parametrize(
        "config, event",
        [
            (_EMPTYING, "a batch emptied one run early and collected another to the end"),
            (
                replace(_EMPTYING, aggregation=AggregationMode.KRR_COMPOSITION, k=5),
                "a batch emptied one run early and collected another to the end",
            ),
            (_UNDERFLOWING, "a fresh epsilon underflowed"),
        ],
        ids=["emptied-beside-collecting", "emptied-beside-collecting-krr", "fresh-epsilon-underflow"],
    )
    def test_explicit_examples_reach_their_case(self, config, event, tmp_path):
        assert event in _check_against_reference(config, tmp_path)

    def test_covers_exclusions_mid_run_and_of_the_representative(self, tmp_path):
        config = replace(
            _PENALTY_BASE,
            federation_sizes=(6,),
            freerider_sizes=(12,),
            delta_thresholds=(0.5, 1.5),
            replications=2,
            tolerance_window=2,
            freerider_years=6,
        )
        events = _check_against_reference(config, tmp_path)
        assert events == {
            "some members excluded",
            "a reduced federation ran another year",
            "representative excluded",
            "a batch emptied one run early and collected another to the end",
        }


class TestDetectFreeRiders:
    def test_above_threshold_flagged(self):
        assert detect_free_riders(np.array([3.0]), 2.0).tolist() == [True]

    def test_boundary_inclusive(self):
        assert detect_free_riders(np.array([2.0]), 2.0).tolist() == [True]

    def test_zero_savings_never_flagged(self):
        assert detect_free_riders(np.array([0.0]), 1e-9).tolist() == [False]

    def test_antitone_in_threshold(self):
        rng = np.random.default_rng(13)
        savings = np.array([float(rng.normal(2, 3)) for i in range(50)])
        flagged = [detect_free_riders(savings, d) for d in (0.5, 1.0, 2.0, 4.0)]
        for tighter, looser in zip(flagged, flagged[1:]):
            assert (looser <= tighter).all()  # every looser flag is a tighter flag

    def test_positive_threshold_required(self):
        with pytest.raises(DomainError):
            detect_free_riders(np.array([]), 0.0)

    def test_nan_threshold_rejected(self):
        # NaN compares false both ways: a `<= 0` check lets it through, and it flags nobody
        with pytest.raises(DomainError, match="^free-rider threshold must be positive$"):
            detect_free_riders(np.array([5.0]), math.nan)


def _flags(federation, *ids):
    """Penalty mask over ``federation``'s members that marks ``ids``."""
    return np.array([pid in ids for pid in federation.member_ids], dtype=bool)


class TestApplyPenalty:
    def _fed(self):
        return _federation([Provider("a", 5, 2.0), Provider("b", 5, 3.0), Provider("c", 5, 4.0)])

    def test_empty_flag_set_is_identity(self):
        fed = self._fed()
        out, registry = apply_penalty(fed, _flags(fed), {})
        assert out == fed and registry == {}

    def test_flagged_members_removed_with_demerits(self):
        out, registry = apply_penalty(self._fed(), _flags(self._fed(), "b"), {})
        assert {p.id for p in out.members} == {"a", "c"}
        assert registry["b"].demerits == 1 and registry["b"].excluded

    def test_representative_reassigned_by_information_limit(self):
        fed = self._fed()
        assert fed.representative == "c"  # largest d_p * eps_threshold
        out, _ = apply_penalty(fed, _flags(fed, "c"), {})
        assert out.representative == "b"
        kept, _ = apply_penalty(fed, _flags(fed, "a"), {})
        assert kept.representative == "c"

    def test_representative_tie_goes_to_the_first_member(self):
        members = [Provider("a", 5, 2.0), Provider("b", 2, 5.0), Provider("c", 10, 1.0)]
        fed = _federation(members + [Provider("d", 4, 3.0)])
        assert fed.representative == "d"
        out, _ = apply_penalty(fed, _flags(fed, "d"), {})
        assert out.representative == "a"  # a, b and c all have the limit 10.0

    def test_builder_tie_goes_to_the_first_member(self, monkeypatch):
        ties = np.array([1.0, 3.0, 2.0, 3.0])
        monkeypatch.setattr(experiments, "sample_thresholds", lambda dist, n, rng: ties)
        fed = experiments.build_federation("F", 4, ScenarioConfig(), np.random.default_rng(0))
        assert fed.representative == "p001"
        assert fed.eps_threshold == (1.0, 3.0, 2.0, 3.0)

    def test_reduced_federation_equals_one_built_from_its_columns(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(0, 12))
            members = [
                Provider(f"p{i}", int(rng.integers(1, 50)), float(rng.uniform(0.1, 5.0)))
                for i in range(n)
            ]
            flagged = rng.random(n) < 0.4
            out, _ = apply_penalty(_federation(members, delta=1.5, window=2), flagged, {})
            kept = [p for p, flag in zip(members, flagged.tolist()) if not flag]
            assert out == _federation(kept, delta=1.5, window=2)

    def test_flagging_everyone_deactivates(self):
        out, registry = apply_penalty(self._fed(), _flags(self._fed(), "a", "b", "c"), {})
        assert not out.active and not out.members and out.representative is None
        assert all(state.excluded for state in registry.values())

    def test_repeat_offender_accumulates_demerits(self):
        fed = self._fed()
        _, registry = apply_penalty(fed, _flags(fed, "b"), {})
        _, registry = apply_penalty(fed, _flags(fed, "b"), registry)
        assert registry["b"].demerits == 2

    def test_non_member_rejected(self):
        with pytest.raises(DomainError):  # a mask with a fourth, non-member entry
            apply_penalty(self._fed(), np.ones(4, dtype=bool), {})

    def test_registry_blocks_readmission(self):
        fed, registry = apply_penalty(self._fed(), _flags(self._fed(), "b"), {})
        with pytest.raises(DomainError):
            admit_member(fed, Provider("b", 5, 3.0), registry)
        welcomed = admit_member(fed, Provider("d", 5, 1.0), registry)
        assert any(p.id == "d" for p in welcomed.members)

    def test_admission_rejects_a_member(self):
        with pytest.raises(DomainError, match="provider b is listed twice in federation F1"):
            admit_member(self._fed(), Provider("b", 1, 1.0), {})

    def test_stronger_newcomer_becomes_the_representative(self):
        fed = _federation([Provider("a", 5, 1.0), Provider("b", 5, 3.0)])
        assert fed.representative == "b"
        assert admit_member(fed, Provider("c", 50, 6.0), {}).representative == "c"
        assert admit_member(fed, Provider("d", 3, 5.0), {}).representative == "b"  # a tie: b came first

    def test_penalty_state_invariant(self):
        with pytest.raises(DomainError):
            PenaltyState("p", demerits=0, excluded=True)


def _saving_fold(ledgers, provider):
    """Reference saving: one provider, one ledger at a time, in window order."""
    total = 0.0
    for ledger in ledgers:
        for pid, d, eps in zip(ledger.provider_ids, ledger.d_total, ledger.eps_level):
            if pid == provider.id and d > 0:
                total += d * (provider.eps_threshold - eps)
    return total


def _snapshot(ledgers, providers):
    """``savings_snapshot`` over ``providers``' columns, keyed by id for the assertions."""
    ids = tuple(p.id for p in providers)
    savings = savings_snapshot(ledgers, ids, tuple(p.eps_threshold for p in providers))
    assert savings.shape == (len(ids),)
    return dict(zip(ids, savings.tolist()))


class TestSavingsSnapshot:
    def test_snapshot_window_and_values(self):
        providers = [Provider("a", 10, 5.0), Provider("b", 10, 5.0)]
        ledgers = [_ledger(3, {"a": (10, 4.0), "b": (10, 5.0)}), _ledger(4, {"a": (10, 4.5)})]
        savings = _snapshot(ledgers, providers)
        assert savings["a"] == pytest.approx(15.0)
        assert savings["b"] == pytest.approx(0.0)

    def test_matches_per_provider_fold_bit_for_bit(self):
        rng = np.random.default_rng(606)
        for _ in range(40):
            providers = [Provider(pid, 12, float(rng.uniform(1.0, 9.0))) for pid in "abcd"]

            def entries(ids):
                return {pid: (int(rng.integers(1, 13)), float(rng.uniform(0.1, 9.0))) for pid in ids}

            # "x" was excluded after year 1; "b" is missing from year 2;
            # "c" reported nothing in year 3; "d" never appears
            first = entries("xabc")
            second = entries("ac")
            third = {**entries("cab"), "c": (0, 0.0)}
            ledgers = [_ledger(1, first), _ledger(2, second), _ledger(3, third)]
            savings = _snapshot(ledgers, providers)
            assert list(savings) == [p.id for p in providers]
            for p in providers:
                assert savings[p.id].hex() == _saving_fold(ledgers, p).hex()
                assert privacy_saving(ledgers, p).hex() == savings[p.id].hex()
            assert savings["d"] == 0.0


class TestPenaltyCondition:
    def test_derived_instance_fails(self):
        valuation = ExponentialValuation(1.0, 1.0)

        def proportional(eps, money):
            return money * eps / (10.0 + eps)

        check = check_penalty_condition(1.0, valuation, 0.5, 10.0, proportional)
        assert check.lhs == pytest.approx(math.log(2), abs=1e-9)
        assert check.rhs_money == pytest.approx(math.log(11.5), abs=1e-9)
        assert check.rhs == pytest.approx(math.log(11.5) / 11.0, abs=1e-3)
        assert not check.holds
        # the money argument equals the price of everyone-else plus own scaled share
        assert check.rhs_money == pytest.approx(valuation.invert(10.0 + 0.5), abs=1e-9)

    def test_zero_share_function_always_fails(self):
        check = check_penalty_condition(
            2.0, ExponentialValuation(1.0, 1.0), 0.7, 5.0, lambda eps, money: 0.0
        )
        assert not check.holds and check.rhs == 0.0

    def test_dominating_share_function_passes(self):
        valuation = ExponentialValuation(1.0, 1.0)
        check = check_penalty_condition(
            2.0, valuation, 0.7, 5.0, lambda eps, money: 10.0 * valuation.invert(eps)
        )
        assert check.holds

    def test_argument_validation(self):
        valuation = ExponentialValuation(1.0, 1.0)
        with pytest.raises(DomainError):
            check_penalty_condition(1.0, valuation, 1.5, 5.0, lambda e, m: 1.0)
        with pytest.raises(DomainError):
            check_penalty_condition(1.0, valuation, 0.5, 0.0, lambda e, m: 1.0)
