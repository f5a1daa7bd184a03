"""Federation bidding, budget scaling, deal sealing, and settlement."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import DomainError
from .privacy import AggregationMode, AlphabetSpec, ReportBatch, aggregate, validate_epsilon
from .valuation import ValuationContract

BISECTION_TOL = 1e-9
BISECTION_MAX_ITER = 200


@dataclass(frozen=True)
class Provider:
    """A data provider with a yearly point budget and a privacy threshold."""

    id: str
    d_p: int
    eps_threshold: float

    def __post_init__(self) -> None:
        if self.d_p < 1:
            raise DomainError(f"provider {self.id} must hold at least one data point")
        validate_epsilon(self.eps_threshold)

    @property
    def information_limit(self) -> float:
        return self.d_p * self.eps_threshold


@dataclass(frozen=True)
class Federation:
    """A coalition of providers with an elected representative.

    ``delta_threshold`` is the free-rider tolerance, ``tolerance_window``
    the number of past years over which privacy savings accumulate. A
    federation emptied by penalties is kept around with ``active=False``.
    """

    id: str
    members: tuple[Provider, ...]
    representative: str | None
    delta_threshold: float
    tolerance_window: int
    active: bool = True

    def __post_init__(self) -> None:
        if self.delta_threshold <= 0:
            raise DomainError("delta threshold must be positive")
        if self.tolerance_window < 1:
            raise DomainError("tolerance window must cover at least one year")
        if self.active:
            if not self.members:
                raise DomainError(f"active federation {self.id} has no members")
            if self.representative not in {p.id for p in self.members}:
                raise DomainError(f"representative {self.representative} not in federation {self.id}")


@dataclass(frozen=True)
class ConsumerOffer:
    """The consumer's broadcast: a budget and her valuation function."""

    budget: float
    valuation: ValuationContract

    def __post_init__(self) -> None:
        if self.budget <= 0:
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
    """Maximum information threshold of a federation under ``mode``."""
    batches = [ReportBatch(p.d_p, p.eps_threshold) for p in federation.members]
    return aggregate(batches, mode, spec)


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


def compute_scaling(bids: Sequence[Bid], offer: ConsumerOffer) -> float:
    """Largest w in [0, 1] whose scaled total price stays within budget.

    The cost is monotone in w and zero at w = 0, so the maximum always
    exists; it is located by bisection to absolute tolerance 1e-9.
    """
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
