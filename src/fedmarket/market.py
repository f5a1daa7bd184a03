"""Federation bidding, budget scaling, deal sealing, and settlement."""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .privacy import aggregate  # noqa: F401  (unused here; the benchmark tracer wraps this binding)
from .privacy import MAX_EPSILON, AggregationMode, AlphabetSpec, Measure, validate_epsilon
from .valuation import ExponentialValuation

SCALING_GRID = 1 << 30  # w* is a whole multiple of 1 / SCALING_GRID


@dataclass(frozen=True)
class Provider:
    """A data provider with a yearly point budget and a privacy threshold.

    Both follow the rules a ``Federation`` applies to its members: the
    budget is an integer in [1, 2^63), the threshold lies in
    (0, ``MAX_EPSILON``].
    """

    id: str
    d_p: int
    eps_threshold: float

    def __post_init__(self) -> None:
        if self.d_p < 1:
            raise DomainError(f"provider {self.id} must hold at least one data point")
        _check_int64_budgets((self.d_p,))
        validate_epsilon(self.eps_threshold)


def _check_int64_budgets(d_p: Sequence) -> None:
    """Every yearly point budget is an integer that fits in an int64."""
    try:
        budgets = np.array(d_p, dtype=np.int64).tolist()
    except OverflowError:
        raise DomainError("yearly point budgets must fit in a 64-bit integer") from None
    except ValueError:  # a NaN budget
        budgets = None
    if budgets != list(d_p):  # the cast truncates a fraction
        raise DomainError(f"yearly point budgets must be integers, got {list(d_p)}")


class RowView(Sequence):
    """Rows built from columns only when read; ``len`` builds none."""

    __slots__ = ("_row", "_len")

    def __init__(self, row: Callable[[int], object], length: int) -> None:
        self._row = row
        self._len = length

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._row, range(self._len)[i]))
        return self._row(range(self._len)[i])


@dataclass(frozen=True)
class Federation:
    """A coalition of providers, held as member columns.

    ``member_ids``, ``d_p`` and ``eps_threshold`` are tuples in member
    order; ``members`` reads them as ``Provider`` objects, built only when
    read. Every member rule is checked here, once: ids are unique, each
    yearly budget is an integer in [1, 2^63) and each threshold lies in
    (0, ``MAX_EPSILON``]. ``delta_threshold`` is the free-rider tolerance,
    ``tolerance_window`` the number of past years over which privacy
    savings accumulate. The representative and ``active`` are read off
    the members, so they follow every admission and exclusion; a
    federation emptied by penalties is kept around, inactive.
    """

    id: str
    member_ids: tuple[str, ...]
    d_p: tuple[int, ...]
    eps_threshold: tuple[float, ...]
    delta_threshold: float
    tolerance_window: int

    def __post_init__(self) -> None:
        ids, d_p, eps = self.member_ids, self.d_p, self.eps_threshold
        if not len(ids) == len(d_p) == len(eps):
            raise DomainError(f"federation {self.id} has member columns of unequal length")
        if len(set(ids)) < len(ids):
            twice = next(pid for i, pid in enumerate(ids) if pid in ids[:i])
            raise DomainError(f"provider {twice} is listed twice in federation {self.id}")
        # whole-column reductions; a NaN or an infinity makes the sum non-finite
        if d_p and not (
            min(d_p) >= 1 and min(eps) > 0.0 and max(eps) <= MAX_EPSILON and math.isfinite(sum(eps))
        ):
            for _ in self.members:  # the first bad member's Provider says what is wrong
                pass
        _check_int64_budgets(d_p)
        if not self.delta_threshold > 0:  # a NaN fails too
            raise DomainError("delta threshold must be positive")
        window = self.tolerance_window  # it slices the past years, so it counts whole ones
        if not (isinstance(window, (int, np.integer)) and window >= 1):
            raise DomainError("tolerance window must cover a whole number of years, at least one")

    @property
    def members(self) -> Sequence[Provider]:
        return RowView(
            lambda i: Provider(self.member_ids[i], self.d_p[i], self.eps_threshold[i]),
            len(self.member_ids),
        )

    @property
    def representative(self) -> str | None:
        """The member who bids for the federation: the one with the largest
        information limit d_p * eps_threshold, the first on a tie; ``None``
        once no member is left."""
        if not self.member_ids:
            return None
        return self.member_ids[int(np.argmax(np.multiply(self.d_p, self.eps_threshold)))]

    @property
    def active(self) -> bool:
        return bool(self.member_ids)


@dataclass(frozen=True)
class ConsumerOffer:
    """The consumer's broadcast: a budget and her valuation function."""

    budget: float
    valuation: ExponentialValuation

    def __post_init__(self) -> None:
        if not self.budget > 0:  # a NaN fails too
            raise DomainError("budget must be positive")


@dataclass(frozen=True)
class Bid:
    federation_id: str
    eps_threshold_fed: float
    asking_price: float


@dataclass(frozen=True)
class DealTerm:
    promised_eps: float
    price: float


@dataclass(frozen=True)
class SealedDeal:
    """Outcome of scaling all federation thresholds by w_star within budget."""

    w_star: float
    terms: Mapping[str, DealTerm] = field(default_factory=dict)

    def total_price(self) -> float:
        return sum(term.price for term in self.terms.values())


def federation_threshold(
    federation: Federation, mode: AggregationMode, spec: AlphabetSpec
) -> float:
    """Maximum information threshold of a federation under ``mode``.

    The member columns, which the federation checked when it was built,
    are folded as they are, in member order: the floats ``aggregate``
    gives for one report batch per member, with no batch built.
    """
    measure = Measure(mode, spec.k)
    fold = np.zeros((measure.width, len(federation.d_p) + 1))
    d_p = np.array(federation.d_p, dtype=np.int64)
    measure.add(fold, d_p, np.array(federation.eps_threshold, dtype=float))
    return measure.level(fold[:, -1])


def make_bid(
    federation: Federation,
    offer: ConsumerOffer,
    mode: AggregationMode,
    spec: AlphabetSpec,
) -> Bid:
    """Representative's bid: the largest price within budget and threshold.

    The price maximizes M subject to M <= B and f(M) <= eps_T_F, which for
    an increasing valuation is min(B, f^-1(eps_T_F)).
    """
    eps_t = federation_threshold(federation, mode, spec)
    price = min(offer.budget, offer.valuation.invert(eps_t))
    return Bid(federation_id=federation.id, eps_threshold_fed=eps_t, asking_price=price)


def scaled_cost(bids: Sequence[Bid], offer: ConsumerOffer, w: float) -> float:
    """Total price of buying w-scaled thresholds from every federation."""
    return sum(offer.valuation.invert(w * bid.eps_threshold_fed) for bid in bids)


def _grid_bound(
    valuation: ExponentialValuation, money: float, eps: float, rounding: Callable[[float], int], fallback: int
) -> int:
    """``rounding`` of f(money) / eps on the scaling grid, or ``fallback``
    where f overflows, eps is 0 or the quotient is not finite."""
    try:
        x = valuation.evaluate(money) / eps * SCALING_GRID
    except (OverflowError, ZeroDivisionError):  # expm1 beyond its range; no bid with privacy
        return fallback
    return rounding(x) if math.isfinite(x) else fallback


def compute_scaling(bids: Sequence[Bid], offer: ConsumerOffer) -> float:
    """Largest w in [0, 1] whose scaled total price stays within budget.

    w* is 1 when the full thresholds fit, else j / 2^30 for the largest
    grid index j whose w keeps ``scaled_cost`` within the budget: the w a
    bisection of [0, 1] to absolute tolerance 1e-9 returns (30 halvings,
    every midpoint on the grid), because the cost is monotone in w and
    zero at w = 0. The search bisects grid indices inside a bracket read
    off the valuation f. With m bids and the largest threshold eps, the
    ends are floor(f(B / m) / eps * 2^30), where every bid costs at most
    B / m, and ceil(f(B) / eps * 2^30), where the bid of threshold eps
    alone costs B. Both ends are checked against the budget; one that
    fails its check, overflows or is not finite widens to 0 or 2^30.
    """
    if not bids:
        raise DomainError("cannot scale an empty bid set")

    def fits(j: int) -> bool:
        return scaled_cost(bids, offer, j / SCALING_GRID) <= offer.budget

    if fits(SCALING_GRID):
        return 1.0
    eps = max(bid.eps_threshold_fed for bid in bids)
    lo, hi = 0, SCALING_GRID  # fits at w = 0, where nothing costs anything; not at w = 1
    j = min(_grid_bound(offer.valuation, offer.budget / len(bids), eps, math.floor, 0), hi - 1)
    if j > lo and fits(j):
        lo = j
    j = max(_grid_bound(offer.valuation, offer.budget, eps, math.ceil, hi), lo + 1)
    if j < hi and not fits(j):
        hi = j
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo / SCALING_GRID


def seal_deal(bids: Sequence[Bid], offer: ConsumerOffer, w_star: float) -> SealedDeal:
    """Fix each federation's promised epsilon w* * eps_T_F and its price.

    The scaling factor must come from compute_scaling (or otherwise keep
    the total price within the budget); an infeasible deal is refused.
    """
    if not 0.0 <= w_star <= 1.0:
        raise DomainError(f"scaling factor must lie in [0, 1], got {w_star}")
    terms = {}
    for bid in bids:
        promised = w_star * bid.eps_threshold_fed
        terms[bid.federation_id] = DealTerm(promised_eps=promised, price=offer.valuation.invert(promised))
    deal = SealedDeal(w_star=w_star, terms=terms)
    if deal.total_price() > offer.budget + 1e-9:
        raise DomainError(
            f"scaling factor {w_star} prices the deal at {deal.total_price()}, "
            f"beyond the budget {offer.budget}"
        )
    return deal


def settle(deal: SealedDeal, federation: Federation, achieved_eps: float) -> float:
    """Payout for a federation: full price if the promise is met, else zero.

    The promise is inclusive (achieving exactly the promised epsilon pays)
    and there is no partial compensation.
    """
    term = deal.terms.get(federation.id)
    if term is None:
        raise DomainError(f"federation {federation.id} is not part of this deal")
    return term.price if achieved_eps >= term.promised_eps else 0.0
