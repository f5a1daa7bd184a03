import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scalar_stats
from fedmarket.dynamics import (
    CollectionPolicy,
    PenaltyState,
    PolicyKind,
    RoundReport,
    admit_member,
    apply_penalty,
    catalyzing_parameter,
    check_penalty_condition,
    detect_free_riders,
    next_round_epsilon,
    privacy_saving,
    run_collection_year,
    run_collection_years,
    savings_snapshot,
    YearLedger,
)
from fedmarket.errors import DomainError
from fedmarket.market import Federation, Provider
from fedmarket.privacy import AggregationMode, AlphabetSpec, Measure, ReportBatch, aggregate
from fedmarket.valuation import ExponentialValuation


def _federation(members, delta=2.0, window=3, rep=None):
    return Federation(
        id="F1",
        members=tuple(members),
        representative=rep or members[0].id,
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


class TestCatalyzingParameter:
    def test_floor_at_one(self):
        assert catalyzing_parameter(0.0, 10, 5.0) == 1.0
        assert catalyzing_parameter(-25.0, 10, 5.0) == 1.0

    def test_boundary_ratio(self):
        assert catalyzing_parameter(50.0, 10, 5.0) == 1.0

    def test_acceleration(self):
        assert catalyzing_parameter(150.0, 10, 5.0) == pytest.approx(3.0)

    def test_zero_points_rejected(self):
        with pytest.raises(DomainError):
            catalyzing_parameter(10.0, 0, 5.0)


class TestNextRoundEpsilon:
    def test_identity_factor(self):
        assert next_round_epsilon(1.7, 1.0, 5.0) == 1.7

    def test_cap(self):
        assert next_round_epsilon(2.0, 3.0, 5.0) == 5.0

    def test_product(self):
        assert next_round_epsilon(1.0, 2.0, 5.0) == 2.0

    def test_bad_previous(self):
        with pytest.raises(DomainError):
            next_round_epsilon(0.0, 2.0, 5.0)


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
        savings = {p.id: 500.0 for p in fed.members}  # strong escalation fuel
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
                savings={p.id: float(rng.uniform(0.0, 50.0)) for p in members},
                spec=spec,
            )
            batches = [ReportBatch(r.d_t, r.eps_t) for r in ledger.reports]
            assert ledger.achieved == ledger.cumulative[-1] == aggregate(batches, mode, spec)

    def test_point_budget_beyond_int64_rejected(self):
        fed = _federation([Provider("p", 2**70, 5.0)])
        with pytest.raises(DomainError):
            run_collection_year(
                fed, 1.0, NONCAT, 2, AggregationMode.ADDITIVE_INFORMATION, np.random.default_rng(0)
            )

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
                n_p = max(1.0, savings.get(pid, 0.0) / (reported[pid] * provider.eps_threshold))
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
    # 6 x (24 generated + 9 explicit) = 198 examples in all
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
        savings = {p.id: s for p, s in zip(members, case["savings"])}
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
        savings = {p.id: float(rng.uniform(0.0, 40.0)) for p in members}
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


class TestDetectFreeRiders:
    def test_above_threshold_flagged(self):
        assert detect_free_riders({"a": 3.0}, 2.0) == {"a"}

    def test_boundary_inclusive(self):
        assert detect_free_riders({"a": 2.0}, 2.0) == {"a"}

    def test_zero_savings_never_flagged(self):
        assert detect_free_riders({"a": 0.0}, 1e-9) == set()

    def test_antitone_in_threshold(self):
        rng = np.random.default_rng(13)
        savings = {f"p{i}": float(rng.normal(2, 3)) for i in range(50)}
        flagged = [detect_free_riders(savings, d) for d in (0.5, 1.0, 2.0, 4.0)]
        for tighter, looser in zip(flagged, flagged[1:]):
            assert looser <= tighter

    def test_positive_threshold_required(self):
        with pytest.raises(DomainError):
            detect_free_riders({}, 0.0)


class TestApplyPenalty:
    def _fed(self):
        return _federation(
            [Provider("a", 5, 2.0), Provider("b", 5, 3.0), Provider("c", 5, 4.0)], rep="a"
        )

    def test_empty_flag_set_is_identity(self):
        fed = self._fed()
        out, registry = apply_penalty(fed, set(), {})
        assert out == fed and registry == {}

    def test_flagged_members_removed_with_demerits(self):
        out, registry = apply_penalty(self._fed(), {"b"}, {})
        assert {p.id for p in out.members} == {"a", "c"}
        assert registry["b"].demerits == 1 and registry["b"].excluded

    def test_representative_reassigned_by_information_limit(self):
        out, _ = apply_penalty(self._fed(), {"a"}, {})
        assert out.representative == "c"  # largest d_p * eps_threshold

    def test_flagging_everyone_deactivates(self):
        out, registry = apply_penalty(self._fed(), {"a", "b", "c"}, {})
        assert not out.active and not out.members and out.representative is None
        assert all(state.excluded for state in registry.values())

    def test_repeat_offender_accumulates_demerits(self):
        fed = self._fed()
        _, registry = apply_penalty(fed, {"b"}, {})
        _, registry = apply_penalty(fed, {"b"}, registry)
        assert registry["b"].demerits == 2

    def test_non_member_rejected(self):
        with pytest.raises(DomainError):
            apply_penalty(self._fed(), {"ghost"}, {})

    def test_registry_blocks_readmission(self):
        fed, registry = apply_penalty(self._fed(), {"b"}, {})
        with pytest.raises(DomainError):
            admit_member(fed, Provider("b", 5, 3.0), registry)
        welcomed = admit_member(fed, Provider("d", 5, 1.0), registry)
        assert any(p.id == "d" for p in welcomed.members)

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


class TestSavingsSnapshot:
    def test_snapshot_window_and_values(self):
        providers = [Provider("a", 10, 5.0), Provider("b", 10, 5.0)]
        ledgers = [_ledger(3, {"a": (10, 4.0), "b": (10, 5.0)}), _ledger(4, {"a": (10, 4.5)})]
        savings = savings_snapshot(ledgers, providers)
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
            savings = savings_snapshot(ledgers, providers)
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
