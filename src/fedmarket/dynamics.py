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
from operator import ge
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FedMarketError
from .market import Federation, Provider, RowView
from .privacy import MAX_EPSILON, AggregationMode, AlphabetSpec, Measure, validate_epsilon
from .valuation import ExponentialValuation


_INT64_MAX = int(np.iinfo(np.int64).max)


class FreshEpsilonUnderflow(DomainError):
    """A fresh epsilon rounded to 0: ``key`` times some member's threshold is too small.

    Escalation multiplies a positive epsilon by at least 1, so a zero
    epsilon can only be a fresh draw whose upper end rounds away. ``key``
    names the setting that fed the policy's ``initial_eps_high``.
    """

    def __init__(self, key: str = "initial_eps_high") -> None:
        super().__init__(
            f"{key}: a fresh epsilon underflowed to 0; "
            f"{key} times a provider's eps_threshold is too small"
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


def _saving_terms(d: np.ndarray, eps: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Savings terms from points reported ``d`` and epsilons spent ``eps``.

    A term is d(m) * (eps_T - eps(m)), or +0.0 in a year without reports;
    ``threshold`` holds eps_T and broadcasts against ``d``. A saving is the
    left fold of a window's terms from +0.0, in year order.
    """
    return np.where(d > 0, d * (threshold - eps), 0.0)


def _window_savings(terms: Sequence[np.ndarray], window: int, shape) -> np.ndarray:
    """Savings over the last ``window`` entries of ``terms``, one array of ``shape`` per year.

    The left fold from +0.0 in year order, the one rule every saving follows.
    """
    return sum(terms[-window:], np.zeros(shape))


def savings_snapshot(
    ledgers: Sequence[YearLedger], member_ids: Sequence[str], eps_threshold: Sequence[float]
) -> np.ndarray:
    """Each member's privacy saving over the window ``ledgers``, in member order.

    A member's saving is the capacity left unused, the sum of
    d(m) * (eps_T - eps(m)) over the years m of the window with reports:
    eps_T is the member's current threshold, d(m) the points reported and
    eps(m) the epsilons spent in year m. The window's member columns
    become a (year, member) grid, folded down each column in ledger order.
    Ledger members not among ``member_ids`` (excluded since) are skipped;
    a member absent from every ledger saves 0.0.
    """
    n = len(member_ids)
    row = None
    d = np.zeros((len(ledgers), n + 1), dtype=np.int64)  # column n: members that left
    eps = np.zeros(d.shape)
    for year, ledger in enumerate(ledgers):
        if ledger.provider_ids == member_ids:
            cols = slice(n)
        else:
            row = row or dict(zip(member_ids, range(n)))
            cols = np.fromiter(map(row.get, ledger.provider_ids, repeat(n)), np.intp)
        d[year, cols] = ledger.d_total
        eps[year, cols] = ledger.eps_level
    threshold = np.append(np.asarray(eps_threshold, dtype=float), 0.0)
    return _window_savings(_saving_terms(d, eps, threshold), len(ledgers), n + 1)[:n]


def privacy_saving(ledgers: Sequence[YearLedger], provider: Provider) -> float:
    """One provider's saving over the window ``ledgers``; see ``savings_snapshot``."""
    return float(savings_snapshot(ledgers, (provider.id,), (provider.eps_threshold,))[0])


def _catalyzing_factor(delta, d_m, eps_threshold):
    """The catalyzing factor n_p = max(1, delta / (d_m * eps_T)), elementwise.

    ``delta`` is a member's saving over the tolerance window, ``d_m`` her
    points reported so far this year and ``eps_threshold`` her eps_T.
    The arguments are not checked; ``_round_rule`` says why.
    """
    return np.fmax(1.0, delta / (d_m * eps_threshold))  # fmax: a NaN ratio gives 1, like max()


def _escalated_epsilon(prev_eps, n_p, eps_threshold):
    """The escalated epsilon min(n_p * prev_eps, eps_T), elementwise.

    The arguments are not checked; ``_round_rule`` says why.
    """
    return np.minimum(n_p * prev_eps, eps_threshold)


def _policy_fields(policy: CollectionPolicy) -> tuple[int, float, float, float, bool]:
    """What the round rule reads of ``policy``: (points per round, participation
    probability, low and high epsilon fractions, whether it catalyzes)."""
    return (
        min(policy.points_per_round, _INT64_MAX),  # no budget is larger
        policy.participation_prob,
        policy.initial_eps_low,
        policy.initial_eps_high,
        policy.kind is PolicyKind.CATALYZING,
    )


def _policy_columns(policies: Sequence[CollectionPolicy]) -> tuple:
    """``_policy_fields`` over the runs' ``policies``: each field is its plain
    value when every run shares it, else a (k, 1) column that broadcasts
    against (k, n) member arrays."""
    first = policies[0]
    if policies.count(first) == len(policies):  # one policy for every run: no column
        return _policy_fields(first)
    return tuple(
        column[0] if column.count(column[0]) == len(column) else np.array(column).reshape(-1, 1)
        for column in zip(*map(_policy_fields, policies))
    )


def _round_rule(
    policies: Sequence[CollectionPolicy],
    d_p: np.ndarray,
    threshold: np.ndarray,
) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """The collection rule of a round, over member arrays of shape (k, n).

    Run r follows ``policies[r]``. ``d_p`` and ``threshold`` are the
    members' yearly budgets (int64) and thresholds. A caller builds the
    rule once for all its years: it holds the policy fields and the
    fresh-draw interval, and only ``step``'s arguments change between
    years. The rule ``step(t, u, remaining, prev_eps, savings)`` gives
    the points ``d`` each member reports in round ``t`` (0 if she does
    not report) and the epsilon ``eps`` she holds after it. ``u`` holds
    the round's uniforms, per row n participation and then n epsilon
    ones; ``remaining`` the points left before the round, ``prev_eps``
    the epsilons of round t - 1 and ``savings`` the members' savings over
    the tolerance window (none means 0.0 for all). Each policy field is a
    plain value when every run shares it and a (k, 1) column otherwise
    (``_policy_columns``), so a batch of one policy builds no column.

    Everyone answers round 1; a later round is joined with the
    participation probability. A fresh draw lies in (low, high] * eps_T.
    In a catalyzing run, a member who joins a later round escalates her
    previous epsilon instead: with n_p = max(1, delta / (d_m * eps_T)) for
    her saving delta and points so far d_m (``_catalyzing_factor``), she
    holds min(n_p * prev_eps, eps_T) (``_escalated_epsilon``). Neither
    helper checks its arguments: every member reports in round 1, so each
    has a point from round 2 on, and an epsilon that is not positive can
    only be a fresh draw of round 1 that rounded to 0, which
    ``_close_year`` reports as ``FreshEpsilonUnderflow``. Without savings the
    escalation is skipped: its factor is max(1, 0 / x) = 1, and the
    previous epsilon, at most ``initial_eps_high`` * eps_T <= eps_T, is
    below the cap, so every member holds it. Every float is one elementwise
    IEEE ``*``, ``-``, ``/``, ``fmax`` (Python's ``max(1.0, x)``) or
    ``minimum``, as in a per-report loop; rows of the other policy are
    chosen with ``np.where``.
    """
    n = d_p.shape[-1]
    chunk, participation, low, high, catalyzing = _policy_columns(policies)
    hi = high * threshold
    width = hi - low * threshold

    def step(t, u, remaining, prev_eps, savings):
        d = np.minimum(remaining, chunk)
        if t == 1 or catalyzing is not True:
            eps = hi - u[..., n:] * width  # in (low, high] * threshold
        if t > 1:
            joins = u[..., :n] < participation
            d *= joins
        if t > 1 and catalyzing is not False:
            if savings is None:
                held = prev_eps
            else:
                n_p = _catalyzing_factor(savings, d_p - remaining, threshold)
                escalated = _escalated_epsilon(prev_eps, n_p, threshold)
                # a member who joins with no data left escalates unseen: it never reports again
                held = np.where(joins, escalated, prev_eps)
            eps = held if catalyzing is True else np.where(catalyzing, held, eps)
        return d, eps

    return step


def _close_year(
    d_grid: np.ndarray,
    eps_grid: np.ndarray,
    remaining: np.ndarray,
    d_p: np.ndarray,
    ids: Sequence,
    year: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check a year's (round, ..., member) grids of points and epsilons.

    ``remaining``, ``d_p`` and ``ids`` hold the members' points left,
    yearly budgets and ids in the shape of one round. Every count must be
    non-negative, every member's points must add up to her budget and
    every reported epsilon must lie in (0, ``MAX_EPSILON``]. Returns each
    member's points reported and epsilon sum, the mask of reports and the
    reported epsilons in row-major order.
    """
    if d_grid.min(initial=0) < 0:
        raise DomainError("round report cannot carry a negative point count")
    reported = d_grid.sum(axis=0)
    lost = reported + remaining != d_p
    if lost.any():
        raise FedMarketError(
            f"data conservation violated for provider {np.asarray(ids)[lost][0]} in year {year}"
        )
    mask = d_grid > 0
    eps_t = eps_grid[mask]
    if not (eps_t.min(initial=math.inf) > 0.0 and eps_t.max(initial=0.0) <= MAX_EPSILON):
        for eps in eps_t.tolist():  # a NaN makes min and max NaN, which fails too
            if eps == 0.0:  # a fresh draw that rounded to 0; escalation keeps it there
                raise FreshEpsilonUnderflow()
            validate_epsilon(eps)
    # running sums down the rounds add each member's epsilons in report order
    eps_level = np.add.accumulate(np.where(mask, eps_grid, 0.0), axis=0)[-1]
    return reported, eps_level, mask, eps_t


class _Members(NamedTuple):
    """What a collection year reads of a batch's (k, n) member mask.

    ``mask`` marks each run's members, ``masked`` says whether it leaves
    anyone out, ``size`` is each run's member count and ``budget`` the
    yearly budgets, 0 outside the mask. A batch derives it once and again
    only after a year that excluded members (``_members``).
    """

    mask: np.ndarray
    masked: bool
    size: list[int]
    budget: np.ndarray


def _members(mask: np.ndarray, d_p: np.ndarray) -> _Members:
    """The ``_Members`` of ``mask`` over the runs' yearly budgets ``d_p``."""
    k, n = d_p.shape
    if np.count_nonzero(mask) == mask.size:
        return _Members(mask, False, [n] * k, d_p)
    return _Members(mask, True, mask.sum(axis=1).tolist(), np.where(mask, d_p, 0))


def _empty_fold(measure: Measure, size: list[int], slots: int) -> np.ndarray:
    """Room for the running sums of ``slots`` (round, member) slots of runs of ``size`` members.

    Each run's sums start at +0.0, or at NaN for a run without members,
    because kRR's level of no data is 0 / 0 (NaN + 0.0 raises no warning,
    and NaN never reaches a target).
    """
    fold = np.empty((measure.width, len(size), slots + 1))
    fold[..., 0] = [0.0 if s else math.nan for s in size]
    return fold


def _year_fold(
    measure: Measure, d_grid: np.ndarray, eps_grid: np.ndarray, members: _Members
) -> np.ndarray:
    """The running sums of a year that was not folded as it ran (an open target).

    ``d_grid`` and ``eps_grid`` are ``_collect_year``'s (round, k, n) grids
    and ``members`` the bookkeeping that year collected under. Each run's
    members are folded round by round, the order in which a finite-target
    year folds them, so every sum is the one its rounds would have given.
    Returns the (statistic, k, 1 + rounds * n) array ``_collect_year``
    returns for a finite target.
    """
    rounds, k, n = d_grid.shape
    fold = _empty_fold(measure, members.size, rounds * n)
    measure.add(fold, *(grid.transpose(1, 0, 2).reshape(k, -1) for grid in (d_grid, eps_grid)))
    return fold


def _collect_year(
    step: Callable,
    measure: Measure,
    target: list[float],
    can_leave: bool,
    threshold: np.ndarray,
    members: _Members,
    savings: np.ndarray | None,
    max_rounds: int,
    rngs: Sequence[np.random.Generator],
    ids: Sequence,
    year: int,
) -> tuple[list[int], np.ndarray | None, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One collection year of k runs of one federation size, as (k, n) arrays.

    Run r collects by the round rule ``step`` (``_round_rule``) from the
    members ``members.mask[r]`` marks, with yearly budgets
    ``members.budget[r]``, thresholds ``threshold[r]`` and window savings
    ``savings[r]``, towards ``target[r]``, drawing from ``rngs[r]``;
    ``can_leave`` says whether some target is finite. The caller derives
    the rule and ``can_leave`` once per call, and the member bookkeeping
    (``_members``) once and again only after a year that excluded
    members. Returns each run's ``rounds_used`` (a list), the
    running sums of ``Measure.add`` after every (round, member) slot, as
    a (statistic, k, 1 + rounds * n) array whose last entries are each
    run's totals, or None when no target is finite, the (round, k, n)
    grids of points and epsilons, and ``_close_year``'s results.

    Every round, each collecting run draws 2 n_r uniforms for its n_r
    members, participation ones and then epsilon ones, scattered into
    their slots in member order. A member outside the mask has no
    budget, reports 0 points and holds her threshold as her epsilon, so she
    adds +0.0 to every fold and passes every check. Each run's aggregate is
    a left fold over its members, round by round, as in ``Measure.add``; a
    run without members draws nothing and its totals start at NaN
    (``_empty_fold``).

    With a finite target, the rounds fold only for their exit test: a run
    whose level reaches the target stops in that round and draws nothing
    more; its uniforms stay at 1.0, so no member joins, it reports nothing
    and adds +0.0 to its totals. When no target is finite, no run can
    leave: each run draws its whole year's uniforms with one call, the same
    stream, the rounds skip the fold, the level and the exit test, and a
    caller that needs the year's sums folds its grids with ``_year_fold``,
    in the same order.
    """
    mask, masked, size, budget = members
    k, n = budget.shape
    runs = list(compress(range(k), size))  # the runs still collecting

    def draw(runs: list[int], u: np.ndarray) -> None:
        """Fill ``u[r]``, one round's or a year's uniforms, for each run r of ``runs``."""
        if masked:
            for r in runs:
                rows = u[r].reshape(u.shape[1:-1] + (2, n))  # a view: u[r] is contiguous
                rows[..., mask[r]] = rngs[r].random(rows.shape[:-1] + (size[r],))
        else:
            for r in runs:
                rngs[r].random(out=u[r])

    rounds_used = [max_rounds] * k
    goal = list(target)
    # the uniforms of one round, or of the whole year when no run can leave
    u = np.ones((k, 2 * n) if can_leave else (k, max_rounds, 2 * n))
    if can_leave:
        # per statistic and run, the running sums after each (round, member) slot;
        # runs may leave early, so it grows as rounds pass
        fold = _empty_fold(measure, size, min(max_rounds, 16) * n)
    else:
        draw(runs, u)
        fold = None
    remaining = budget.copy()
    d_rows: list[np.ndarray] = []
    eps_rows: list[np.ndarray] = []
    eps = None
    for t in range(1, max_rounds + 1):
        if can_leave:
            draw(runs, u)
        d, eps = step(t, u if can_leave else u[:, t - 1], remaining, eps, savings)
        if masked:
            eps = np.where(mask, eps, threshold)
        remaining -= d
        d_rows.append(d)
        eps_rows.append(eps)
        if not can_leave:  # nobody leaves, so nothing is folded
            continue
        if t * n >= fold.shape[-1]:  # room for twice the rounds
            fold = np.concatenate((fold, np.empty_like(fold[..., 1:])), axis=-1)
        measure.add(fold[..., (t - 1) * n : t * n + 1], d, eps)
        reached = list(map(ge, measure.levels(fold[..., t * n]), goal))
        if True in reached:
            for r in compress(range(k), reached):
                rounds_used[r] = t
                goal[r] = math.inf  # a run leaves once
            runs = [r for r in runs if not reached[r]]
            if not runs:
                break
            u[reached] = 1.0  # no participation probability exceeds it
    d_grid = np.array(d_rows)
    eps_grid = np.array(eps_rows)
    closed = _close_year(d_grid, eps_grid, remaining, budget, ids, year)
    if can_leave:
        fold = fold[..., : len(d_rows) * n + 1]
    return rounds_used, fold, d_grid, eps_grid, closed


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
    window of previous years, in member order (none means 0.0 for all). It
    only matters under the catalyzing policy, where it drives the
    escalation factor. Deterministic given the generator state: every round
    draws ``n`` participation and then ``n`` epsilon uniforms, whether or
    not anyone reports.

    The year is ``_collect_year`` for one run (k = 1). Every member holds
    data, so all report in round 1 and each has a previous epsilon from
    round 2 on. The report columns are the d_t > 0 entries of the
    (round, member) grids in row-major order.

    Every float equals the one a per-report loop computes. The statistics
    come from ``Measure.columns`` (e^eps and the kRR logarithm by
    ``math``). The round's aggregate, the cumulative column and each
    member's epsilon sum are sequential folds in report order, never
    pairwise sums; a non-reporting member adds +0.0, which changes no
    fold.
    """
    if not target > 0:  # a NaN target fails too
        raise DomainError("collection target must be positive")
    if max_rounds < 1:
        raise DomainError("need at least one collection round")
    ids = federation.member_ids
    n = len(ids)
    if savings is not None and policy.kind is PolicyKind.CATALYZING:
        savings = np.asarray(savings, dtype=float)
        if savings.shape != (n,):
            raise DomainError(f"savings hold {savings.size} entries for {n} members")
        savings = savings.reshape(1, n)
    measure = Measure(mode, (spec or AlphabetSpec(2)).k)
    d_p = np.array(federation.d_p, dtype=np.int64).reshape(1, n)
    threshold = np.array(federation.eps_threshold, dtype=float).reshape(1, n)
    step = _round_rule([policy], d_p, threshold)
    members = _members(np.ones((1, n), dtype=bool), d_p)
    (rounds_used,), fold, d_grid, eps_grid, (reported, eps_level, mask, eps_t) = _collect_year(
        step, measure, [target], math.isfinite(target), threshold, members, savings, max_rounds,
        [rng], [ids], year,
    )
    if fold is None:  # an open target: the ledger reads every running sum
        fold = _year_fold(measure, d_grid, eps_grid, members)
    round_idx, _, provider_idx = mask.nonzero()
    d_t = d_grid[mask]
    # the running sums after every (round, member) slot, read at the reports: a
    # member without a report adds +0.0, which changes no sum
    running = fold[:, 0, 1:][:, mask.ravel()]
    cumulative = measure.levels(running)
    achieved = cumulative[-1] if cumulative else 0.0
    return YearLedger(
        year=year,
        target=target,
        rounds_used=rounds_used,
        achieved=achieved,
        reached=achieved >= target,
        provider_ids=ids,
        d_total=tuple(reported[0].tolist()),
        eps_level=tuple(eps_level[0].tolist()),
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

    Each year leaves one savings term per member (``_saving_terms``), and a
    saving is the fold of the window's terms, as in ``savings_snapshot``.
    Savings drive only the catalyzing escalation, and an empty window saves
    nothing, so other years run without them.
    """
    if years < 1:
        raise DomainError("need at least one collection year")
    catalyzing = policy.kind is PolicyKind.CATALYZING
    threshold = np.array(federation.eps_threshold, dtype=float)
    terms: list[np.ndarray] = []
    ledgers: list[YearLedger] = []
    window = federation.tolerance_window
    for m in range(1, years + 1):
        savings = _window_savings(terms, window, threshold.size) if terms else None
        ledger = run_collection_year(
            federation, target, policy, max_rounds, mode, rng, savings=savings, year=m, spec=spec
        )
        ledgers.append(ledger)
        if catalyzing and m < years:
            d, eps = np.array(ledger.d_total), np.array(ledger.eps_level)
            terms.append(_saving_terms(d, eps, threshold))
    return ledgers


def run_collection_batch(
    federations: Sequence[Federation],
    targets: Sequence[float],
    policies: Sequence[CollectionPolicy],
    years: int,
    max_rounds: int,
    mode: AggregationMode,
    rngs: Sequence[np.random.Generator],
    spec: AlphabetSpec | None = None,
    penalties_from: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``run_collection_years`` for k runs of one federation size at once.

    Run r collects from ``federations[r]`` towards ``targets[r]`` under
    ``policies[r]``, with its own generator ``rngs[r]``, so the runs of
    both policies can share one batch. Returns each run's measured year,
    the last: its ``rounds_used`` and ``achieved``, equal to those of the
    last ledger ``run_collection_years`` gives for run r alone, and its
    number of excluded members over all years, as three (k,) arrays.
    Every generator is left in the state that run leaves it in. No ledger
    is built.

    Each year is one ``_collect_year`` over all runs, the step a single
    run takes with k = 1. Each year leaves one savings term per member
    (``_saving_terms``), and a saving is the fold of the window's terms.
    Savings are kept when some run is catalyzing or penalties are on; the
    non-catalyzing runs' collection ignores them. When no target is
    finite, a year's aggregate is folded (``_year_fold``) and its level
    taken only when it is the measured year; earlier years fold nothing.

    With ``penalties_from``, every year from that one on ends with the
    penalty of ``detect_free_riders`` and ``apply_penalty``: run r excludes
    the members whose savings over the tolerance window reach
    ``federations[r].delta_threshold``. An excluded member stays in the
    arrays, masked out of the member mask, as the reduced federation of a
    single run would draw and report; a run left without members draws
    nothing and achieves 0.0.
    """
    if years < 1:
        raise DomainError("need at least one collection year")
    if max_rounds < 1:
        raise DomainError("need at least one collection round")
    k = len(federations)
    if not k or len(targets) != k or len(policies) != k or len(rngs) != k:
        raise DomainError(
            "a batch needs a federation, and one target, one policy and one generator for each"
        )
    n = len(federations[0].member_ids)
    window = federations[0].tolerance_window
    if any(len(f.member_ids) != n or f.tolerance_window != window for f in federations):
        raise DomainError("the federations of a batch must share their size and tolerance window")
    target = [float(x) for x in targets]
    if not all(x > 0 for x in target):  # a NaN target fails too
        raise DomainError("collection target must be positive")
    measure = Measure(mode, (spec or AlphabetSpec(2)).k)
    ids = [f.member_ids for f in federations]
    d_p = np.array([f.d_p for f in federations], dtype=np.int64).reshape(k, n)
    threshold = np.array([f.eps_threshold for f in federations], dtype=float).reshape(k, n)
    delta = np.array([[f.delta_threshold] for f in federations])
    catalyzing = any(policy.kind is PolicyKind.CATALYZING for policy in policies)
    step = _round_rule(policies, d_p, threshold)
    can_leave = any(map(math.isfinite, target))
    members = _members(np.ones((k, n), dtype=bool), d_p)
    excluded = np.zeros(k, dtype=np.int64)
    terms: list[np.ndarray] = []  # per year, the savings terms of every run's members
    savings = None
    for m in range(1, years + 1):
        rounds_used, fold, d_grid, eps_grid, (reported, eps_level, _, _) = _collect_year(
            step, measure, target, can_leave, threshold, members, savings, max_rounds, rngs, ids, m
        )
        if fold is None and m == years:  # the measured year, under the members it collected from
            fold = _year_fold(measure, d_grid, eps_grid, members)
        penalize = penalties_from is not None and m >= penalties_from
        if penalties_from is not None or (catalyzing and m < years):
            terms.append(_saving_terms(reported, eps_level, threshold))
        if penalize or (catalyzing and m < years):
            savings = _window_savings(terms, window, (k, n))
        if penalize:
            flagged = members.mask & (savings >= delta)
            if flagged.any():
                members = _members(members.mask & ~flagged, d_p)
                excluded += flagged.sum(axis=1)
    achieved = np.array(measure.levels(fold[..., -1]))
    achieved[np.isnan(achieved)] = 0.0  # a run without members in its measured year
    return np.array(rounds_used), achieved, excluded


def detect_free_riders(savings: np.ndarray, delta_threshold: float) -> np.ndarray:
    """Mask of the members whose saving reaches the federation's tolerance (inclusive)."""
    if not delta_threshold > 0:  # a NaN fails too
        raise DomainError("free-rider threshold must be positive")
    return np.asarray(savings) >= delta_threshold


def apply_penalty(
    federation: Federation,
    flagged: np.ndarray,
    registry: Mapping[str, PenaltyState],
) -> tuple[Federation, dict[str, PenaltyState]]:
    """Exclude the members ``flagged`` marks, hand out demerits, update the registry.

    ``flagged`` is a boolean mask in member order. The representative is
    read off the remaining members, so an excluded one is succeeded by the
    first member with the largest information limit. Flagging everyone
    leaves an inactive federation behind.
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
    return replace(federation, member_ids=ids, d_p=d_p, eps_threshold=eps), updated


def admit_member(
    federation: Federation, provider: Provider, registry: Mapping[str, PenaltyState]
) -> Federation:
    """Admit a provider unless the demerit registry still excludes her.

    The federation rejects a provider who is already a member, and a
    stronger newcomer becomes its representative.
    """
    state = registry.get(provider.id)
    if state is not None and state.excluded:
        raise DomainError(f"provider {provider.id} is excluded and cannot be admitted")
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
