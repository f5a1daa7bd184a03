"""Multi-round, multi-year data collection with catalyzing and penalties.

A collection year proceeds in rounds. Every provider holds a yearly
budget of data points and reports chunks of them under a privacy
parameter of her choice: a fresh draw in her first round, and afterwards
either another fresh draw (non-catalyzing) or the previous parameter
multiplied by her catalyzing factor and capped at her threshold
(catalyzing). The year ends when the federation's aggregate reaches the
sealed target or the round limit runs out.

Privacy savings measure how far below capacity a provider reported over
a tolerance window of past years; they feed both the catalyzing factor
and the free-rider detection of the penalty scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, FedMarketError
from .market import Federation, Provider
from .privacy import AggregationMode, AlphabetSpec, Measure, validate_epsilon
from .valuation import ExponentialValuation


class PolicyKind(Enum):
    CATALYZING = "catalyzing"
    NON_CATALYZING = "non-catalyzing"


@dataclass(frozen=True)
class CollectionPolicy:
    """Per-round provider behavior.

    First-round epsilon is drawn uniformly from the half-open interval
    (initial_eps_low, initial_eps_high] * eps_threshold. Providers always
    answer the first round of a year; later rounds are joined with
    ``participation_prob``. ``points_per_round`` is the chunk a
    participating provider reports until her yearly budget runs out.
    """

    kind: PolicyKind
    initial_eps_low: float = 0.0
    initial_eps_high: float = 1.0
    participation_prob: float = 1.0
    points_per_round: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.initial_eps_low < self.initial_eps_high <= 1.0:
            raise DomainError("initial epsilon fractions must satisfy 0 <= low < high <= 1")
        if not 0.0 <= self.participation_prob <= 1.0:
            raise DomainError("participation probability must lie in [0, 1]")
        if self.points_per_round < 1:
            raise DomainError("providers must report at least one point per round")


@dataclass(frozen=True)
class RoundReport:
    provider_id: str
    year: int
    round: int
    d_t: int
    eps_t: float

    def __post_init__(self) -> None:
        if self.d_t < 0:
            raise DomainError("round report cannot carry a negative point count")
        if self.d_t > 0:
            validate_epsilon(self.eps_t)


@dataclass(frozen=True)
class ProviderYear:
    provider_id: str
    d_total: int
    eps_level: float


@dataclass(frozen=True)
class YearLedger:
    """Everything one federation did in one collection year."""

    year: int
    target: float
    mode: AggregationMode
    rounds_used: int
    achieved: float
    reached: bool
    reports: tuple[RoundReport, ...]
    cumulative: tuple[float, ...]  # aggregate after each report
    per_provider: Mapping[str, ProviderYear]


@dataclass(frozen=True)
class PenaltyState:
    provider_id: str
    demerits: int = 0
    excluded: bool = False

    def __post_init__(self) -> None:
        if self.excluded and self.demerits < 1:
            raise DomainError("an excluded provider must carry at least one demerit")


def contributed_privacy_level(reports: Iterable[RoundReport]) -> float:
    """Sum of the privacy parameters a provider spent across rounds."""
    return math.fsum(r.eps_t for r in reports if r.d_t > 0)


def privacy_saving(ledgers: Sequence[YearLedger], provider: Provider) -> float:
    """Capacity left unused over a window: sum of d(m) * (eps_T - eps(m))."""
    total = 0.0
    for ledger in ledgers:
        year = ledger.per_provider.get(provider.id)
        if year is None or year.d_total == 0:
            continue
        total += year.d_total * (provider.eps_threshold - year.eps_level)
    return total


def savings_snapshot(
    ledgers: Sequence[YearLedger], providers: Iterable[Provider]
) -> dict[str, float]:
    """Each provider's privacy saving over the window ``ledgers``, by provider id."""
    return {p.id: privacy_saving(ledgers, p) for p in providers}


def catalyzing_parameter(delta: float, d_m: int, eps_threshold: float) -> float:
    """Escalation factor: savings relative to current-year capacity, floored at 1."""
    if d_m < 1:
        raise DomainError("catalyzing parameter needs at least one reported point")
    return max(1.0, delta / (d_m * eps_threshold))


def next_round_epsilon(prev_eps: float, n_p: float, eps_threshold: float) -> float:
    """Escalated privacy parameter for the next round, capped at the threshold."""
    if prev_eps <= 0:
        raise DomainError("previous round epsilon must be positive")
    return min(n_p * prev_eps, eps_threshold)


def run_collection_year(
    federation: Federation,
    target: float,
    policy: CollectionPolicy,
    max_rounds: int,
    mode: AggregationMode,
    rng: np.random.Generator,
    savings: Mapping[str, float] | None = None,
    year: int = 1,
    spec: AlphabetSpec | None = None,
) -> YearLedger:
    """Simulate one collection year; failure to reach the target is recorded.

    ``savings`` carries each provider's privacy saving over the tolerance
    window of previous years and only matters under the catalyzing
    policy, where it drives the escalation factor. Deterministic given
    the generator state.
    """
    if target <= 0:
        raise DomainError("collection target must be positive")
    if max_rounds < 1:
        raise DomainError("need at least one collection round")
    spec = spec or AlphabetSpec(2)
    savings = savings or {}
    members = federation.members
    n = len(members)

    remaining = {p.id: p.d_p for p in members}
    reported = {p.id: 0 for p in members}
    eps_sum = {p.id: 0.0 for p in members}
    prev_eps: dict[str, float | None] = {p.id: None for p in members}

    measure = Measure(mode, spec.k)
    add, level = measure.add, measure.level
    totals = [0.0] * measure.width
    reports: list[RoundReport] = []
    cumulative: list[float] = []
    rounds_used = 0

    for t in range(1, max_rounds + 1):
        u_part = rng.random(n)
        u_eps = rng.random(n)
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
            fresh = float(hi - u_eps[i] * (hi - lo))  # in (lo, hi]
            if prev_eps[pid] is None:
                eps_t = fresh
            elif policy.kind is PolicyKind.CATALYZING:
                n_p = catalyzing_parameter(
                    savings.get(pid, 0.0), reported[pid], provider.eps_threshold
                )
                eps_t = next_round_epsilon(prev_eps[pid], n_p, provider.eps_threshold)
            else:
                eps_t = fresh

            reports.append(RoundReport(pid, year, t, d_t, eps_t))
            remaining[pid] -= d_t
            reported[pid] += d_t
            eps_sum[pid] += eps_t
            prev_eps[pid] = eps_t
            add(totals, d_t, eps_t)
            cumulative.append(level(totals))

        if cumulative and cumulative[-1] >= target:
            break

    for provider in members:
        if reported[provider.id] + remaining[provider.id] != provider.d_p:
            raise FedMarketError(
                f"data conservation violated for provider {provider.id} in year {year}"
            )

    achieved = cumulative[-1] if cumulative else 0.0

    per_provider = {
        p.id: ProviderYear(p.id, reported[p.id], eps_sum[p.id]) for p in members
    }
    return YearLedger(
        year=year,
        target=target,
        mode=mode,
        rounds_used=rounds_used,
        achieved=achieved,
        reached=achieved >= target,
        reports=tuple(reports),
        cumulative=tuple(cumulative),
        per_provider=per_provider,
    )


def run_collection_years(
    federation: Federation,
    target: float,
    policy: CollectionPolicy,
    years: int,
    max_rounds: int,
    mode: AggregationMode,
    rng: np.random.Generator,
    spec: AlphabetSpec | None = None,
) -> list[YearLedger]:
    """Run consecutive years, rolling privacy savings over the tolerance window."""
    if years < 1:
        raise DomainError("need at least one collection year")
    ledgers: list[YearLedger] = []
    for m in range(1, years + 1):
        savings = savings_snapshot(ledgers[-federation.tolerance_window :], federation.members)
        ledgers.append(
            run_collection_year(
                federation,
                target,
                policy,
                max_rounds,
                mode,
                rng,
                savings=savings,
                year=m,
                spec=spec,
            )
        )
    return ledgers


def detect_free_riders(savings: Mapping[str, float], delta_threshold: float) -> set[str]:
    """Providers whose saving reaches the federation's tolerance (inclusive)."""
    if delta_threshold <= 0:
        raise DomainError("free-rider threshold must be positive")
    return {pid for pid, delta in savings.items() if delta >= delta_threshold}


def apply_penalty(
    federation: Federation,
    flagged: set[str],
    registry: Mapping[str, PenaltyState],
) -> tuple[Federation, dict[str, PenaltyState]]:
    """Exclude flagged members, hand out demerits, update the registry.

    If the representative is removed, the member with the largest
    information limit takes over. Flagging everyone leaves an inactive
    federation behind.
    """
    member_ids = {p.id for p in federation.members}
    unknown = flagged - member_ids
    if unknown:
        raise DomainError(f"cannot penalize non-members: {sorted(unknown)}")

    updated = dict(registry)
    for pid in flagged:
        state = updated.get(pid, PenaltyState(pid))
        updated[pid] = PenaltyState(pid, demerits=state.demerits + 1, excluded=True)

    remaining = tuple(p for p in federation.members if p.id not in flagged)
    if not remaining:
        reduced = replace(federation, members=(), representative=None, active=False)
        return reduced, updated

    if federation.representative in flagged:
        representative = max(remaining, key=lambda p: p.information_limit).id
    else:
        representative = federation.representative
    reduced = replace(federation, members=remaining, representative=representative)
    return reduced, updated


def admit_member(
    federation: Federation, provider: Provider, registry: Mapping[str, PenaltyState]
) -> Federation:
    """Admit a provider unless the demerit registry still excludes her."""
    state = registry.get(provider.id)
    if state is not None and state.excluded:
        raise DomainError(f"provider {provider.id} is excluded and cannot be admitted")
    if any(p.id == provider.id for p in federation.members):
        raise DomainError(f"provider {provider.id} is already a member")
    return replace(federation, members=federation.members + (provider,))


@dataclass(frozen=True)
class PenaltyCheck:
    holds: bool
    lhs: float
    rhs: float
    rhs_money: float


def check_penalty_condition(
    eps_threshold_p: float,
    valuation: ExponentialValuation,
    w_star: float,
    others_info: float,
    psi: Callable[[float, float], float],
) -> PenaltyCheck:
    """Can a share function make federation membership beat trading alone?

    Compares the solo price of the provider's full threshold against the
    share psi(eps_threshold, M_F) she would get from the federation's
    revenue, where the money argument is the price of the scaled deal
    with everyone else's information held fixed. Returns both sides.
    """
    validate_epsilon(eps_threshold_p)
    if not 0.0 <= w_star <= 1.0:
        raise DomainError("scaling factor must lie in [0, 1]")
    if others_info <= 0:
        raise DomainError("the rest of the federation must hold some information")
    k_const = others_info / valuation.k1 + 1.0
    rhs_money = math.log(w_star * eps_threshold_p / valuation.k1 + k_const) / valuation.k2
    lhs = valuation.invert(eps_threshold_p)
    rhs = psi(eps_threshold_p, rhs_money)
    return PenaltyCheck(holds=lhs < rhs, lhs=lhs, rhs=rhs, rhs_money=rhs_money)
