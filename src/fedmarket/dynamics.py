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
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress, repeat

import numpy as np

from .errors import DomainError, FedMarketError
from .market import Federation, Provider, RowView, strongest_member
from .privacy import MAX_EPSILON, AggregationMode, AlphabetSpec, Measure, validate_epsilon
from .valuation import ExponentialValuation


_INT64_MAX = int(np.iinfo(np.int64).max)
# Escalation multiplies a positive epsilon by at least 1, so a zero epsilon
# can only be a fresh draw whose upper end rounds away.
_FRESH_UNDERFLOW = (
    "initial_eps_high: a fresh epsilon underflowed to 0; "
    "initial_eps_high times a provider's eps_threshold is too small"
)


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
class YearLedger:
    """Everything one federation did in one collection year, as columns.

    Per member, in federation order: ``provider_ids``, the points reported
    (``d_total``) and the epsilons spent (``eps_level``). Per report, in
    report order (round by round, members in federation order within a
    round): ``provider`` indexes ``provider_ids``; ``round``, ``d_t`` and
    ``eps_t`` describe the report and ``cumulative`` is the aggregate
    after it. All entries are plain ints and floats. ``reports`` reads the
    report columns as ``RoundReport`` objects, built only when read.
    """

    year: int
    target: float
    rounds_used: int
    achieved: float
    reached: bool
    provider_ids: tuple[str, ...]
    d_total: tuple[int, ...]
    eps_level: tuple[float, ...]
    provider: tuple[int, ...]
    round: tuple[int, ...]
    d_t: tuple[int, ...]
    eps_t: tuple[float, ...]
    cumulative: tuple[float, ...]

    @property
    def reports(self) -> Sequence[RoundReport]:
        def report(i: int) -> RoundReport:
            who = self.provider_ids[self.provider[i]]
            return RoundReport(who, self.year, self.round[i], self.d_t[i], self.eps_t[i])

        return RowView(report, len(self.d_t))


@dataclass(frozen=True)
class PenaltyState:
    provider_id: str
    demerits: int = 0
    excluded: bool = False

    def __post_init__(self) -> None:
        if self.excluded and self.demerits < 1:
            raise DomainError("an excluded provider must carry at least one demerit")


def savings_snapshot(
    ledgers: Sequence[YearLedger], member_ids: Sequence[str], eps_threshold: Sequence[float]
) -> np.ndarray:
    """Each member's privacy saving over the window ``ledgers``, in member order.

    A member's saving is the capacity left unused, the sum of
    d(m) * (eps_T - eps(m)) over the years m of the window with reports:
    eps_T is the member's current threshold, d(m) the points reported and
    eps(m) the epsilons spent in year m. The window's member columns
    become a (year, member) grid of terms below a row of zeros, and each
    saving is a left fold down its column from +0.0, in ledger order. A
    term with d(m) = 0 is +0.0, which changes no sum. Ledger members not
    among ``member_ids`` (excluded since) are skipped; a member absent from
    every ledger saves 0.0.
    """
    n = len(member_ids)
    row = None
    d = np.zeros((len(ledgers) + 1, n + 1), dtype=np.int64)  # column n: members that left
    eps = np.zeros(d.shape)
    for year, ledger in enumerate(ledgers, 1):
        if ledger.provider_ids == member_ids:
            cols = slice(n)
        else:
            row = row or dict(zip(member_ids, range(n)))
            cols = np.fromiter(map(row.get, ledger.provider_ids, repeat(n)), np.intp)
        d[year, cols] = ledger.d_total
        eps[year, cols] = ledger.eps_level
    threshold = np.append(np.asarray(eps_threshold, dtype=float), 0.0)
    terms = np.where(d > 0, d * (threshold - eps), 0.0)
    return np.add.accumulate(terms)[-1, :n]


def privacy_saving(ledgers: Sequence[YearLedger], provider: Provider) -> float:
    """One provider's saving over the window ``ledgers``; see ``savings_snapshot``."""
    return float(savings_snapshot(ledgers, (provider.id,), (provider.eps_threshold,))[0])


def catalyzing_parameter(
    delta: float | np.ndarray, d_m: int | np.ndarray, eps_threshold: float | np.ndarray
) -> float | np.ndarray:
    """Escalation factor: savings relative to current-year capacity, floored at 1.

    Elementwise over numpy arrays as well as scalars.
    """
    if np.minimum.reduce(d_m, axis=None) < 1:
        raise DomainError("catalyzing parameter needs at least one reported point")
    return np.fmax(1.0, delta / (d_m * eps_threshold))  # fmax: a NaN ratio gives 1, like max()


def next_round_epsilon(
    prev_eps: float | np.ndarray, n_p: float | np.ndarray, eps_threshold: float | np.ndarray
) -> float | np.ndarray:
    """Escalated privacy parameter for the next round, capped at the threshold.

    Elementwise over numpy arrays as well as scalars.
    """
    if np.minimum.reduce(prev_eps, axis=None) <= 0:
        raise DomainError("previous round epsilon must be positive")
    return np.minimum(n_p * prev_eps, eps_threshold)


def run_collection_year(
    federation: Federation,
    target: float,
    policy: CollectionPolicy,
    max_rounds: int,
    mode: AggregationMode,
    rng: np.random.Generator,
    savings: np.ndarray | None = None,
    year: int = 1,
    spec: AlphabetSpec | None = None,
) -> YearLedger:
    """Simulate one collection year; failure to reach the target is recorded.

    ``savings`` carries each member's privacy saving over the tolerance
    window of previous years, in member order (``savings_snapshot``; none
    means 0.0 for all). It only matters under the catalyzing policy, where
    it drives the escalation factor. Deterministic given the generator
    state: every round draws ``n`` participation and then ``n`` epsilon
    uniforms, whether or not anyone reports.

    Each round is one elementwise step over all members: a row of d_t
    (0 for a member who does not report) and a row of epsilons. Every
    member holds data, so all report in round 1 and each has a previous
    epsilon from round 2 on. The report columns are the rows' d_t > 0
    entries in row-major (round, member) order.

    Every float equals the one a per-report loop computes. The fresh
    draw, the catalyzing factor and the capped escalation are elementwise
    IEEE ``*``, ``-``, ``/``, ``fmax`` (Python's ``max(1.0, x)``) and
    ``minimum``. The statistics come from ``Measure.columns`` (e^eps and
    the kRR logarithm by ``math``). The round's aggregate, the cumulative
    column and each member's epsilon sum are sequential folds in report
    order, never pairwise sums; a non-reporting member adds +0.0, which
    changes no fold.
    """
    if target <= 0:
        raise DomainError("collection target must be positive")
    if max_rounds < 1:
        raise DomainError("need at least one collection round")
    spec = spec or AlphabetSpec(2)
    ids = federation.member_ids
    n = len(ids)

    d_p = federation.point_budgets()
    chunk = min(policy.points_per_round, _INT64_MAX)  # no budget is larger
    threshold = np.array(federation.eps_threshold, dtype=float)
    hi = policy.initial_eps_high * threshold
    width = hi - policy.initial_eps_low * threshold
    catalyzing = policy.kind is PolicyKind.CATALYZING
    if catalyzing:
        delta = np.zeros(n) if savings is None else np.asarray(savings, dtype=float)
        if delta.shape != (n,):
            raise DomainError(f"savings hold {delta.size} entries for {n} members")

    measure = Measure(mode, spec.k)
    remaining = d_p.copy()
    totals = [0.0] * measure.width
    d_rows: list[np.ndarray] = []
    eps_rows: list[np.ndarray] = []
    rounds_used = 0

    for t in range(1, max_rounds + 1):
        u = rng.random(2 * n)  # the round's n participation, then n epsilon uniforms
        rounds_used = t
        d = np.minimum(remaining, chunk)
        if t > 1:
            joins = u[:n] < policy.participation_prob
            d *= joins
        if t > 1 and catalyzing:
            n_p = catalyzing_parameter(delta, d_p - remaining, threshold)
            try:
                escalated = next_round_epsilon(prev_eps, n_p, threshold)
            except DomainError:  # round 1's fresh draw was 0
                raise DomainError(_FRESH_UNDERFLOW) from None
            # a member who joins with no data left escalates unseen: it never reports again
            eps = np.where(joins, escalated, prev_eps)
        else:
            eps = hi - u[n:] * width  # in (low, high] * threshold
        prev_eps = eps
        remaining -= d
        measure.add(totals, d, eps)
        d_rows.append(d)
        eps_rows.append(eps)
        if n and measure.level(totals) >= target:  # n > 0: everyone reported in round 1
            break

    d_grid = np.array(d_rows)
    if d_grid.min(initial=0) < 0:
        raise DomainError("round report cannot carry a negative point count")
    reported = d_grid.sum(axis=0)
    lost = reported + remaining != d_p
    if lost.any():
        raise FedMarketError(
            f"data conservation violated for provider {ids[lost.argmax()]} in year {year}"
        )
    mask = d_grid > 0
    round_idx, provider_idx = mask.nonzero()
    d_t = d_grid[mask]
    eps_grid = np.array(eps_rows)
    eps_t = eps_grid[mask]
    if not (eps_t.min(initial=math.inf) > 0.0 and eps_t.max(initial=0.0) <= MAX_EPSILON):
        if eps_t.min() == 0.0:
            raise DomainError(_FRESH_UNDERFLOW)
        for eps in eps_t.tolist():  # a NaN makes min and max NaN, which fails too
            validate_epsilon(eps)
    # running sums down the rounds add each member's epsilons in report order
    eps_level = np.add.accumulate(np.where(mask, eps_grid, 0.0), axis=0)[-1]
    cumulative = measure.levels([np.add.accumulate(c) for c in measure.columns(d_t, eps_t)])
    achieved = cumulative[-1] if cumulative else 0.0
    return YearLedger(
        year=year,
        target=target,
        rounds_used=rounds_used,
        achieved=achieved,
        reached=achieved >= target,
        provider_ids=ids,
        d_total=tuple(reported.tolist()),
        eps_level=tuple(eps_level.tolist()),
        provider=tuple(provider_idx.tolist()),
        round=tuple((round_idx + 1).tolist()),
        d_t=tuple(d_t.tolist()),
        eps_t=tuple(eps_t.tolist()),
        cumulative=tuple(cumulative),
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
    """Run consecutive years, rolling privacy savings over the tolerance window.

    Savings drive only the catalyzing escalation, and an empty window saves
    nothing, so other years run without a snapshot.
    """
    if years < 1:
        raise DomainError("need at least one collection year")
    ledgers: list[YearLedger] = []
    for m in range(1, years + 1):
        window = ledgers[-federation.tolerance_window :]
        savings = None
        if window and policy.kind is PolicyKind.CATALYZING:
            savings = savings_snapshot(window, federation.member_ids, federation.eps_threshold)
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


def detect_free_riders(savings: np.ndarray, delta_threshold: float) -> np.ndarray:
    """Mask of the members whose saving reaches the federation's tolerance (inclusive)."""
    if delta_threshold <= 0:
        raise DomainError("free-rider threshold must be positive")
    return np.asarray(savings) >= delta_threshold


def apply_penalty(
    federation: Federation,
    flagged: np.ndarray,
    registry: Mapping[str, PenaltyState],
) -> tuple[Federation, dict[str, PenaltyState]]:
    """Exclude the members ``flagged`` marks, hand out demerits, update the registry.

    ``flagged`` is a boolean mask in member order. If the representative
    is removed, the member with the largest information limit takes over.
    Flagging everyone leaves an inactive federation behind.
    """
    flagged = np.asarray(flagged, dtype=bool)
    if flagged.shape != (len(federation.member_ids),):
        raise DomainError(
            f"penalty mask has {flagged.size} entries for {len(federation.member_ids)} members"
        )
    updated = dict(registry)
    if not flagged.any():
        return federation, updated
    for pid in compress(federation.member_ids, flagged.tolist()):
        state = updated.get(pid)
        demerits = 1 + (state.demerits if state else 0)
        updated[pid] = PenaltyState(pid, demerits=demerits, excluded=True)

    keep = (~flagged).tolist()
    ids, d_p, eps = (
        tuple(compress(column, keep))
        for column in (federation.member_ids, federation.d_p, federation.eps_threshold)
    )
    representative = federation.representative
    if representative not in ids:
        representative = strongest_member(ids, d_p, eps) if ids else None
    reduced = replace(
        federation,
        member_ids=ids,
        d_p=d_p,
        eps_threshold=eps,
        representative=representative,
        active=federation.active and bool(ids),
    )
    return reduced, updated


def admit_member(
    federation: Federation, provider: Provider, registry: Mapping[str, PenaltyState]
) -> Federation:
    """Admit a provider unless the demerit registry still excludes her."""
    state = registry.get(provider.id)
    if state is not None and state.excluded:
        raise DomainError(f"provider {provider.id} is excluded and cannot be admitted")
    if provider.id in federation.member_ids:
        raise DomainError(f"provider {provider.id} is already a member")
    return replace(
        federation,
        member_ids=federation.member_ids + (provider.id,),
        d_p=federation.d_p + (provider.d_p,),
        eps_threshold=federation.eps_threshold + (provider.eps_threshold,),
    )


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
