"""The privacy valuation: an invertible map between money and epsilon."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class ExponentialValuation:
    """f(M) = K1 * (e^{K2 * M} - 1), the exponential valuation family.

    K1 scales the privacy units, K2 is the per-currency growth rate. The
    inverse is ln(eps / K1 + 1) / K2. f is strictly increasing and
    continuous with f(0) = 0: a zero payment buys no information.
    """

    k1: float
    k2: float

    def __post_init__(self) -> None:
        if not (self.k1 > 0 and math.isfinite(self.k1)):
            raise DomainError(f"K1 must be positive, got {self.k1}")
        if not (self.k2 > 0 and math.isfinite(self.k2)):
            raise DomainError(f"K2 must be positive, got {self.k2}")

    def evaluate(self, money: float) -> float:
        if money < 0:
            raise DomainError(f"money must be non-negative, got {money}")
        return self.k1 * math.expm1(self.k2 * money)

    def invert(self, eps: float) -> float:
        if eps < 0:
            raise DomainError(f"privacy parameter must be non-negative, got {eps}")
        return math.log1p(eps / self.k1) / self.k2

