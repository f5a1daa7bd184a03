"""Privacy-priced federated data trading: pricing, splitting, simulation."""

from .errors import CapacityError, ConfigError, DomainError, FedMarketError, OutputError
from .privacy import (
    AggregationMode,
    AlphabetSpec,
    ReportBatch,
    aggregate,
    combined_epsilon,
    krr_distribution,
    krr_obfuscate,
)
from .valuation import ExponentialValuation
from .market import (
    Bid,
    ConsumerOffer,
    Federation,
    Provider,
    SealedDeal,
    compute_scaling,
    federation_threshold,
    make_bid,
    seal_deal,
    settle,
)
from .shapley import (
    ShapleyResult,
    ThresholdGame,
    characteristic,
    shapley_exact,
    shapley_pruned,
    shapley_sampled,
)
from .dynamics import (
    CollectionPolicy,
    PenaltyState,
    PolicyKind,
    RoundReport,
    YearLedger,
    apply_penalty,
    check_penalty_condition,
    detect_free_riders,
    privacy_saving,
    run_collection_year,
    run_collection_years,
)
from .config import ScenarioConfig, ThresholdDist, load_config, sample_thresholds

__version__ = "0.1.0"
