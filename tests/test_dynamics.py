import math

import numpy as np
import pytest

from fedmarket.dynamics import (
    CollectionPolicy,
    PenaltyState,
    PolicyKind,
    RoundReport,
    admit_member,
    apply_penalty,
    catalyzing_parameter,
    check_penalty_condition,
    contributed_privacy_level,
    detect_free_riders,
    next_round_epsilon,
    privacy_saving,
    run_collection_year,
    run_collection_years,
    savings_snapshot,
    YearLedger,
    ProviderYear,
)
from fedmarket.errors import DomainError
from fedmarket.market import Federation, Provider
from fedmarket.privacy import AggregationMode, AlphabetSpec, ReportBatch, aggregate
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
        mode=AggregationMode.ADDITIVE_INFORMATION,
        rounds_used=1,
        achieved=0.0,
        reached=False,
        reports=(),
        cumulative=(),
        per_provider={pid: ProviderYear(pid, d, eps) for pid, (d, eps) in entries.items()},
    )


CAT = CollectionPolicy(PolicyKind.CATALYZING, points_per_round=2, participation_prob=0.9)
NONCAT = CollectionPolicy(PolicyKind.NON_CATALYZING, points_per_round=2, participation_prob=0.9)


class TestContributedPrivacyLevel:
    def test_empty(self):
        assert contributed_privacy_level([]) == 0.0

    def test_sum_over_rounds(self):
        reports = [RoundReport("p", 1, 1, 2, 0.5), RoundReport("p", 1, 2, 2, 0.7)]
        assert contributed_privacy_level(reports) == pytest.approx(1.2, abs=1e-12)

    def test_single_round_at_threshold(self):
        assert contributed_privacy_level([RoundReport("p", 1, 1, 1, 4.4)]) == 4.4

    def test_zero_point_rounds_ignored(self):
        reports = [RoundReport("p", 1, 1, 0, 0.0), RoundReport("p", 1, 2, 1, 0.9)]
        assert contributed_privacy_level(reports) == pytest.approx(0.9)


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
        for provider in fed.members:
            mine = [r for r in ledger.reports if r.provider_id == provider.id]
            total = sum(r.d_t for r in mine)
            assert total <= provider.d_p
            assert ledger.per_provider[provider.id].d_total == total
            assert ledger.per_provider[provider.id].eps_level == pytest.approx(
                contributed_privacy_level(mine), rel=1e-12
            )

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


class TestSavingsSnapshot:
    def test_snapshot_window_and_values(self):
        providers = [Provider("a", 10, 5.0), Provider("b", 10, 5.0)]
        ledgers = [_ledger(3, {"a": (10, 4.0), "b": (10, 5.0)}), _ledger(4, {"a": (10, 4.5)})]
        savings = savings_snapshot(ledgers, providers)
        assert savings["a"] == pytest.approx(15.0)
        assert savings["b"] == pytest.approx(0.0)


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
