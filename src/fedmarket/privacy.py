"""k-ary randomized response and privacy-parameter arithmetic.

Every quantity here is expressed through the privacy parameter epsilon
(nats of privacy loss). Three information measures are supported for
turning a set of report batches into a single federation-level number:

* ``KRR_COMPOSITION`` -- the privacy parameter of the kRR mechanism that
  the pooled reports jointly follow,
* ``ADDITIVE_INFORMATION`` -- the plain sum of per-batch information
  limits ``d * eps``,
* ``EXAMPLE_CONTRIBUTION`` -- the sum of ``d * e^eps / (k - 1 + e^eps)``
  retention masses.

Downstream code (deal sealing, threshold games, collection dynamics) is
parametric in the measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

# e^eps overflows float64 just above 709; 700 is treated as "no privacy".
MAX_EPSILON = 700.0
# kRR's level ln(D / H + 1 - k) needs the float k - 1 + e^eps to keep its
# e^eps. Near k = 2**53 rounding swallows it and the logarithm can fail
# (k = 2**60 did); 2**32 leaves a wide margin.
MAX_ALPHABET = 2**32


def validate_epsilon(eps: float) -> float:
    """Check that a privacy parameter lies in (0, MAX_EPSILON]."""
    if not math.isfinite(eps) or eps <= 0.0:
        raise DomainError(f"privacy parameter must be positive and finite, got {eps}")
    if eps > MAX_EPSILON:
        raise DomainError(f"privacy parameter {eps} exceeds saturation bound {MAX_EPSILON}")
    return float(eps)


@dataclass(frozen=True)
class AlphabetSpec:
    """Finite input alphabet of size k for the randomized-response mechanism."""

    k: int

    def __post_init__(self) -> None:
        if int(self.k) != self.k or not 2 <= self.k <= MAX_ALPHABET:
            raise DomainError(f"alphabet size must be an integer in [2, 2**32], got {self.k}")


@dataclass(frozen=True)
class ReportBatch:
    """A count of data points reported under one privacy parameter."""

    d: int
    epsilon: float

    def __post_init__(self) -> None:
        if int(self.d) != self.d or not 0 <= self.d < 2**63:
            raise DomainError(f"batch size must be a non-negative integer below 2**63, got {self.d}")
        if self.d > 0:
            validate_epsilon(self.epsilon)


class AggregationMode(Enum):
    KRR_COMPOSITION = "krr"
    ADDITIVE_INFORMATION = "additive"
    EXAMPLE_CONTRIBUTION = "example"


def _exp(eps: np.ndarray) -> np.ndarray:
    """e^eps elementwise, by ``math.exp``, so it equals the scalar code's float."""
    return np.array(list(map(math.exp, eps.tolist())))


def keep_probability(eps: float, k: int) -> float:
    """Probability that kRR reports the true symbol: e^eps / (k - 1 + e^eps)."""
    e = math.exp(eps)
    return e / (k - 1 + e)


def krr_distribution(x: int, spec: AlphabetSpec, eps: float) -> np.ndarray:
    """Output distribution of the kRR mechanism for true symbol ``x``.

    Entry ``x`` carries mass e^eps / (k - 1 + e^eps); every other symbol
    carries 1 / (k - 1 + e^eps).
    """
    validate_epsilon(eps)
    k = spec.k
    if int(x) != x or not 0 <= x < k:
        raise DomainError(f"symbol {x} outside alphabet [0, {k})")
    denom = k - 1 + math.exp(eps)
    probs = np.full(k, 1.0 / denom)
    probs[int(x)] = math.exp(eps) / denom
    return probs


def krr_obfuscate(x: int, spec: AlphabetSpec, eps: float, rng: np.random.Generator) -> int:
    """Sample one obfuscated symbol; deterministic given the generator state.

    Keeps the true symbol with probability e^eps / (k - 1 + e^eps),
    otherwise reports one of the other k - 1 symbols uniformly, which is
    the distribution of ``krr_distribution``.
    """
    validate_epsilon(eps)
    k = spec.k
    if int(x) != x or not 0 <= x < k:
        raise DomainError(f"symbol {x} outside alphabet [0, {k})")
    if rng.random() < keep_probability(eps, k):
        return int(x)
    other = int(rng.integers(k - 1))
    return other if other < x else other + 1


def information_limit(d: int, eps: float) -> float:
    """Information limit of a provider: data points times privacy parameter."""
    if d < 0:
        raise DomainError(f"data count must be non-negative, got {d}")
    return float(d) * float(eps)


class Measure:
    """One information measure: per-batch statistics, their level, one win test.

    A set of batches is summarised by adding up per-batch statistic
    vectors: ``(d * eps,)`` for ``ADDITIVE_INFORMATION``,
    ``(d * e^eps / (k - 1 + e^eps),)`` for ``EXAMPLE_CONTRIBUTION`` and
    ``(d, d / (k - 1 + e^eps))`` for ``KRR_COMPOSITION``. The level and the
    winning predicate read only that sum, so pooled reports, collection
    years and threshold-game coalitions all share this arithmetic; callers
    differ only in the order in which they add the statistics.
    """

    __slots__ = ("k", "width", "add", "columns")

    def __init__(self, mode: AggregationMode, k: int) -> None:
        self.k = k
        # ``add(totals, d, eps)`` adds one batch's statistics into ``totals``
        # in place. ``columns(d, eps)`` gives the statistics of many batches
        # at once, one array per statistic, from equal-length arrays of batch
        # sizes and epsilons. Each entry is the same IEEE expression as
        # ``add``'s, evaluated elementwise; e^eps comes from ``math.exp``
        # over a list because ``np.exp`` may differ from it by one ulp.
        if mode is AggregationMode.ADDITIVE_INFORMATION:
            self.width = 1

            def add(totals: list[float], d: int, eps: float) -> None:
                totals[0] += d * eps

            def columns(d: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, ...]:
                return (d * eps,)

        elif mode is AggregationMode.EXAMPLE_CONTRIBUTION:
            self.width = 1

            def add(totals: list[float], d: int, eps: float) -> None:
                totals[0] += d * keep_probability(eps, k)

            def columns(d: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, ...]:
                e = _exp(eps)
                return (d * (e / (k - 1 + e)),)

        elif mode is AggregationMode.KRR_COMPOSITION:
            self.width = 2

            def add(totals: list[float], d: int, eps: float) -> None:
                totals[0] += d
                totals[1] += d / (k - 1 + math.exp(eps))

            def columns(d: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, ...]:
                return (d, d / (k - 1 + _exp(eps)))

        else:
            raise DomainError(f"unknown aggregation mode {mode!r}")
        self.add = add
        self.columns = columns

    def stats(self, d: int, eps: float) -> list[float]:
        """Statistics of one batch."""
        totals = [0.0] * self.width
        self.add(totals, d, eps)
        return totals

    def level(self, totals: Sequence[float]) -> float:
        """Information level of summed statistics.

        The identity for the additive measures; for kRR the pooled privacy
        parameter ln(D / H + 1 - k), which needs at least one data point.
        """
        if self.width == 1:
            return float(totals[0])
        count, mass = totals
        if count <= 0:
            raise DomainError("combined epsilon is undefined when no batch carries data")
        return math.log(count / mass + 1 - self.k)

    def levels(self, running: Sequence[np.ndarray]) -> list[float]:
        """``level`` of each entry of running totals, one array per statistic.

        Bit-identical to ``level`` entry by entry; the kRR logarithm is
        ``math.log`` over a list. Every kRR entry needs a data point.
        """
        if self.width == 1:
            return running[0].tolist()
        count, mass = running
        return list(map(math.log, (count / mass + 1 - self.k).tolist()))

    def wins(self, totals, target: float):
        """Whether summed statistics reach ``target``.

        ``totals[j]`` is the j-th summed statistic: a scalar, or an array
        with one entry per coalition, which gives an array of flags.

        For kRR, ln(D / H + 1 - k) >= target is rewritten as D >= theta * H
        with theta = e^target + k - 1: no transcendental per coalition, and
        one pure IEEE compare that every evaluator shares. An empty
        coalition (D = 0) loses.
        """
        if self.width == 1:
            return totals[0] >= target
        count, mass = totals
        theta = math.exp(target) + (self.k - 1)
        with np.errstate(invalid="ignore"):
            return (count > 0) & (count >= theta * mass)


def aggregate(batches: Iterable[ReportBatch], mode: AggregationMode, spec: AlphabetSpec) -> float:
    """Collapse report batches into one information number under ``mode``.

    Batches with d = 0 are ignored. The additive measures return 0.0 for
    no data; the kRR composition needs at least one batch with data.
    """
    measure = Measure(mode, spec.k)
    totals = [0.0] * measure.width
    for batch in batches:  # left to right, like a collection year
        if batch.d > 0:
            measure.add(totals, batch.d, batch.epsilon)
    return measure.level(totals)


def combined_epsilon(batches: Iterable[ReportBatch], spec: AlphabetSpec) -> float:
    """Privacy parameter of the kRR mechanism jointly followed by pooled reports.

    ln( sum(d_i) / sum(d_i / (k - 1 + e^{eps_i})) + 1 - k ), which lies
    between the smallest and largest batch epsilon.
    """
    return aggregate(batches, AggregationMode.KRR_COMPOSITION, spec)
