"""Experiment orchestration: scenario grids, CSV outputs, audit pass.

Every experiment derives one seed per grid cell and replication from the
master seed, so any row can be reproduced in isolation and the two
collection policies of a replication share their random draws (paired
comparison). Rows are sorted by cell key before writing, which makes the
output independent of execution order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import time
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import ScenarioConfig, derive_seed, sample_thresholds
from .dynamics import (
    PolicyKind,
    YearLedger,
    apply_penalty,
    detect_free_riders,
    privacy_saving,  # noqa: F401  (unused here; the benchmark tracer wraps this binding)
    run_collection_year,
    run_collection_years,
    savings_snapshot,
)
from .errors import OutputError
from .manifest import write_json, write_manifest
from .market import (
    Bid,
    ConsumerOffer,
    Federation,
    Provider,
    SealedDeal,
    compute_scaling,
    make_bid,
    seal_deal,
    settle,
)
from .privacy import AggregationMode, AlphabetSpec, ReportBatch
from .shapley import ShapleyResult, ThresholdGame, shapley_exact, shapley_pruned, shapley_sampled
from .valuation import ExponentialValuation

_POLICIES = (PolicyKind.CATALYZING, PolicyKind.NON_CATALYZING)


def build_federation(
    fed_id: str,
    n: int,
    config: ScenarioConfig,
    rng: np.random.Generator,
    delta_threshold: float | None = None,
) -> Federation:
    """Sample provider thresholds and assemble a federation.

    The member with the largest information limit is elected
    representative.
    """
    thresholds = sample_thresholds(config.thresholds, n, rng)
    providers = tuple(
        Provider(id=f"p{i:03d}", d_p=config.data_points, eps_threshold=float(eps))
        for i, eps in enumerate(thresholds)
    )
    representative = max(providers, key=lambda p: p.information_limit).id
    return Federation(
        id=fed_id,
        members=providers,
        representative=representative,
        delta_threshold=delta_threshold if delta_threshold is not None else config.delta_thresholds[0],
        tolerance_window=config.tolerance_window,
    )


def seal_single_federation_deal(
    federation: Federation,
    offer: ConsumerOffer,
    mode: AggregationMode,
    spec: AlphabetSpec,
) -> tuple[Bid, float, SealedDeal]:
    bid = make_bid(federation, offer, mode, spec)
    w_star = compute_scaling([bid], offer)
    return bid, w_star, seal_deal([bid], offer, w_star)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Mapping]) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows([row[name] for name in header] for row in rows)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return path


DEAL_HEADER = (
    "experiment",
    "cell",
    "policy",
    "replication",
    "seed",
    "budget",
    "w_star",
    "promised_eps",
    "price",
    "achieved_eps",
    "payout",
)


def _collect_and_settle(
    config: ScenarioConfig,
    federation: Federation,
    deal: SealedDeal,
    kind: PolicyKind,
    seed: int,
) -> tuple[list[YearLedger], float]:
    """Run the warmup years plus one measured year and settle on the last."""
    ledgers = run_collection_years(
        federation,
        deal.terms[federation.id].promised_eps,
        config.collection_policy(kind),
        years=config.warmup_years + 1,
        max_rounds=config.max_rounds,
        mode=config.aggregation,
        rng=np.random.default_rng(seed),
        spec=AlphabetSpec(config.k),
    )
    return ledgers, settle(deal, federation, ledgers[-1].achieved)


def experiment_rounds(config: ScenarioConfig, out_dir: str | Path) -> list[dict]:
    """Rounds-to-target grid over federation sizes, targets, and policies.

    Per replication one federation is sampled and its deal sealed with a
    budget priced exactly at the cell's target; both policies then run
    the warmup years plus one measured year on identical draws.
    """
    out_dir = Path(out_dir)
    spec = AlphabetSpec(config.k)
    valuation = ExponentialValuation(config.k1, config.k2)
    rows: list[dict] = []
    deal_rows: list[dict] = []
    seeds: dict[str, int] = {}

    for n in config.federation_sizes:
        for target in config.targets:
            for rep in range(config.replications):
                build_seed = derive_seed(config.master_seed, "rounds-build", n, target, rep)
                run_seed = derive_seed(config.master_seed, "rounds-run", n, target, rep)
                seeds[f"rounds/n={n}/target={target}/rep={rep}"] = run_seed
                federation = build_federation(
                    f"F{n}", n, config, np.random.default_rng(build_seed)
                )
                offer = ConsumerOffer(budget=valuation.invert(target), valuation=valuation)
                _, w_star, deal = seal_single_federation_deal(
                    federation, offer, config.aggregation, spec
                )
                term = deal.terms[federation.id]
                for policy_kind in _POLICIES:
                    ledgers, payout = _collect_and_settle(
                        config, federation, deal, policy_kind, run_seed
                    )
                    measured = ledgers[-1]
                    rows.append(
                        {
                            "n": n,
                            "target": float(target),
                            "policy": policy_kind.value,
                            "replication": rep,
                            "rounds_used": measured.rounds_used if measured.reached else config.max_rounds,
                            "achieved": measured.achieved,
                        }
                    )
                    deal_rows.append(
                        {
                            "experiment": "rounds",
                            "cell": f"n={n}/target={target}",
                            "policy": policy_kind.value,
                            "replication": rep,
                            "seed": run_seed,
                            "budget": offer.budget,
                            "w_star": w_star,
                            "promised_eps": term.promised_eps,
                            "price": term.price,
                            "achieved_eps": measured.achieved,
                            "payout": payout,
                        }
                    )

    rows.sort(key=lambda r: (r["n"], r["target"], r["policy"], r["replication"]))
    deal_rows.sort(key=lambda r: (r["cell"], r["policy"], r["replication"]))
    paths = [
        _write_csv(
            out_dir / "rounds.csv",
            ("n", "target", "policy", "replication", "rounds_used", "achieved"),
            rows,
        ),
        _write_csv(out_dir / "rounds_deals.csv", DEAL_HEADER, deal_rows),
    ]
    write_manifest(out_dir / "rounds_manifest.json", config, seeds, paths)
    return rows


def experiment_free_riders(config: ScenarioConfig, out_dir: str | Path) -> list[dict]:
    """Multi-year free-rider counts per federation size and tolerance.

    Years here have a fixed number of rounds (an open-ended collection
    target), so both policies face identical participation draws and
    differ only through the epsilon escalation; what is measured is the
    savings bookkeeping, not deal success. Each year ends with one
    savings snapshot over the tolerance window. It drives the next
    year's catalyzing, and from the end of the first full window on it
    flags free riders, who are excluded; the reported count is the
    number of excluded providers at the end of the run.
    """
    out_dir = Path(out_dir)
    spec = AlphabetSpec(config.k)
    open_target = math.inf  # never reached: every year runs the full round count
    rows: list[dict] = []
    seeds: dict[str, int] = {}

    for n in config.freerider_sizes:
        for delta in config.delta_thresholds:
            for rep in range(config.replications):
                build_seed = derive_seed(config.master_seed, "freeriders-build", n, delta, rep)
                run_seed = derive_seed(config.master_seed, "freeriders-run", n, delta, rep)
                seeds[f"freeriders/n={n}/delta={delta}/rep={rep}"] = run_seed
                base = build_federation(
                    f"F{n}", n, config, np.random.default_rng(build_seed), delta_threshold=delta
                )
                for policy_kind in _POLICIES:
                    policy = config.freerider_policy(policy_kind)
                    rng = np.random.default_rng(run_seed)
                    federation = base
                    registry: dict = {}
                    ledgers = []
                    savings: dict[str, float] = {}
                    for year in range(1, config.freerider_years + 1):
                        if not federation.active:
                            break
                        ledgers.append(
                            run_collection_year(
                                federation,
                                open_target,
                                policy,
                                config.freerider_rounds_per_year,
                                config.aggregation,
                                rng,
                                savings=savings,
                                year=year,
                                spec=spec,
                            )
                        )
                        savings = savings_snapshot(
                            ledgers[-config.tolerance_window :], federation.members
                        )
                        if year >= config.tolerance_window:
                            flagged = detect_free_riders(savings, delta)
                            federation, registry = apply_penalty(federation, flagged, registry)
                    rows.append(
                        {
                            "n": n,
                            "delta_f": float(delta),
                            "policy": policy_kind.value,
                            "replication": rep,
                            "free_rider_count": len(registry),  # one entry per exclusion
                        }
                    )

    rows.sort(key=lambda r: (r["n"], r["delta_f"], r["policy"], r["replication"]))
    paths = [
        _write_csv(
            out_dir / "freeriders.csv",
            ("n", "delta_f", "policy", "replication", "free_rider_count"),
            rows,
        )
    ]
    write_manifest(out_dir / "freeriders_manifest.json", config, seeds, paths)
    return rows


def shares_digest(shares: Mapping[str, float]) -> str:
    canonical = json.dumps({pid: float(v).hex() for pid, v in shares.items()}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def timing_game(config: ScenarioConfig, n: int) -> ThresholdGame:
    """Random additive threshold game matching the experiment population."""
    rng = np.random.default_rng(derive_seed(config.master_seed, "timing", n))
    thresholds = sample_thresholds(config.thresholds, n, rng)
    players = tuple(
        (f"p{i:03d}", (ReportBatch(1, float(eps)),)) for i, eps in enumerate(thresholds)
    )
    total = float(np.sum(thresholds))
    return ThresholdGame(
        players=players,
        mode=AggregationMode.ADDITIVE_INFORMATION,
        target=config.timing_target_fraction * total,
        prize=config.timing_prize,
        spec=AlphabetSpec(config.k),
    )


def experiment_shapley_timing(config: ScenarioConfig, out_dir: str | Path) -> list[dict]:
    """Wall time of exact vs pruned evaluation on identical games.

    Per size: one warmup evaluation (excluded), then the median of
    ``timing_repeats`` monotonic-clock measurements. The shares digest
    proves both methods returned identical money.
    """
    out_dir = Path(out_dir)
    rows: list[dict] = []
    seeds: dict[str, int] = {}
    for n in config.timing_sizes:
        seeds[f"timing/n={n}"] = derive_seed(config.master_seed, "timing", n)
        game = timing_game(config, n)
        for method, evaluate in (("exact", shapley_exact), ("pruned", shapley_pruned)):
            evaluate(game)  # warmup, excluded from measurement
            times = []
            result: ShapleyResult | None = None
            for _ in range(config.timing_repeats):
                start = time.perf_counter()
                result = evaluate(game)
                times.append(time.perf_counter() - start)
            rows.append(
                {
                    "n": n,
                    "method": method,
                    "wall_time": statistics.median(times),
                    "shares_digest": shares_digest(result.shares),
                }
            )

    rows.sort(key=lambda r: (r["n"], r["method"]))
    paths = [
        _write_csv(
            out_dir / "timing.csv", ("n", "method", "wall_time", "shares_digest"), rows
        )
    ]
    write_manifest(out_dir / "timing_manifest.json", config, seeds, paths)
    return rows


def simulate(config: ScenarioConfig, out_dir: str | Path) -> dict:
    """One full pipeline run: broadcast, bid, seal, collect, settle, split.

    Uses the configured budget and the first federation size; writes the
    per-round trace, year ledgers, deal record, revenue shares, penalty
    snapshot, and the run manifest.
    """
    out_dir = Path(out_dir)
    spec = AlphabetSpec(config.k)
    valuation = ExponentialValuation(config.k1, config.k2)
    n = config.federation_sizes[0]
    seeds = {
        "simulate/build": derive_seed(config.master_seed, "simulate-build", n),
        "simulate/run": derive_seed(config.master_seed, "simulate-run", n),
        "simulate/shapley": derive_seed(config.master_seed, "simulate-shapley", n),
    }
    federation = build_federation(
        "F1", n, config, np.random.default_rng(seeds["simulate/build"])
    )
    offer = ConsumerOffer(budget=config.budget, valuation=valuation)
    bid, w_star, deal = seal_single_federation_deal(
        federation, offer, config.aggregation, spec
    )
    term = deal.terms[federation.id]

    ledgers, payout = _collect_and_settle(
        config, federation, deal, config.policy, seeds["simulate/run"]
    )
    measured = ledgers[-1]

    batches: list[list[ReportBatch]] = [[] for _ in measured.provider_ids]
    for i, d_t, eps_t in zip(measured.provider, measured.d_t, measured.eps_t):
        batches[i].append(ReportBatch(d_t, eps_t))
    game = ThresholdGame(
        players=tuple(zip(measured.provider_ids, map(tuple, batches))),
        mode=config.aggregation,
        target=term.promised_eps,
        prize=payout,
        spec=spec,
    )
    if game.n <= 22:
        result = shapley_pruned(game)
    else:
        result = shapley_sampled(
            game, config.shapley_samples, np.random.default_rng(seeds["simulate/shapley"])
        )

    savings = savings_snapshot(ledgers[-config.tolerance_window :], federation.members)
    flagged = detect_free_riders(savings, federation.delta_threshold)
    reduced, registry = apply_penalty(federation, flagged, {})

    trace_rows = [
        {
            "year": ledger.year,
            "round": t,
            "provider": ledger.provider_ids[i],
            "d_t": d_t,
            "eps_t": eps_t,
            "cumulative": running,
        }
        for ledger in ledgers
        for t, i, d_t, eps_t, running in zip(
            ledger.round, ledger.provider, ledger.d_t, ledger.eps_t, ledger.cumulative
        )
    ]
    paths = [
        _write_csv(
            out_dir / "trace.csv",
            ("year", "round", "provider", "d_t", "eps_t", "cumulative"),
            trace_rows,
        ),
        write_json(
            out_dir / "ledgers.json",
            [
                {
                    "year": ledger.year,
                    "target": ledger.target,
                    "rounds_used": ledger.rounds_used,
                    "achieved": ledger.achieved,
                    "reached": ledger.reached,
                    "providers": {
                        pid: {"d_total": d_total, "eps_level": eps_level}
                        for pid, d_total, eps_level in sorted(
                            zip(ledger.provider_ids, ledger.d_total, ledger.eps_level)
                        )
                    },
                }
                for ledger in ledgers
            ],
        ),
        write_json(
            out_dir / "deal.json",
            {
                "budget": offer.budget,
                "federation": federation.id,
                "members": len(federation.members),
                "eps_threshold_fed": bid.eps_threshold_fed,
                "asking_price": bid.asking_price,
                "w_star": w_star,
                "promised_eps": term.promised_eps,
                "price": term.price,
                "achieved_eps": measured.achieved,
                "payout": payout,
                "aggregation": config.aggregation.value,
            },
        ),
        write_json(
            out_dir / "shares.json",
            {
                "method": result.method,
                "sample_count": result.sample_count,
                "prize": payout,
                "shares": {pid: share for pid, share in sorted(result.shares.items())},
            },
        ),
        write_json(
            out_dir / "penalties.json",
            {
                "savings": savings,
                "flagged": sorted(flagged),
                "registry": {
                    pid: {"demerits": state.demerits, "excluded": state.excluded}
                    for pid, state in sorted(registry.items())
                },
                "federation_active": reduced.active,
                "remaining_members": len(reduced.members),
            },
        ),
    ]
    write_manifest(out_dir / "manifest.json", config, seeds, paths)
    return {
        "w_star": w_star,
        "promised_eps": term.promised_eps,
        "achieved": measured.achieved,
        "payout": payout,
        "rounds_used": measured.rounds_used,
        "flagged": sorted(flagged),
    }


def _settlement_problems(where: str, record: Mapping) -> list[str]:
    """The settlement rule: payout within budget, the price if the promise
    was met and zero otherwise. A record without these numbers is a problem too."""
    try:
        budget, price, promised, achieved, payout = (
            float(record[key]) for key in ("budget", "price", "promised_eps", "achieved_eps", "payout")
        )
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{where}: unreadable deal record: {exc!r}"]
    problems = []
    if payout > budget + 1e-9:
        problems.append(f"{where}: payout {payout} exceeds budget {budget}")
    expected = price if achieved >= promised else 0.0
    if payout != expected:
        problems.append(
            f"{where}: payout {payout} != expected {expected} "
            f"(achieved {achieved}, promised {promised})"
        )
    return problems


def audit_outputs(out_dir: str | Path) -> list[str]:
    """Re-verify the settlement rule on every deal record a run emitted."""
    out_dir = Path(out_dir)
    problems: list[str] = []
    audited = 0

    for path in sorted(out_dir.glob("*deals.csv")):
        try:
            with open(path, newline="") as handle:
                rows = list(csv.DictReader(handle))
        except (csv.Error, ValueError) as exc:  # not CSV, or not text
            audited += 1
            problems.append(f"{path.name}: unreadable: {exc}")
            continue
        for row in rows:
            audited += 1
            where = f"{path.name}:{row.get('cell')}/{row.get('policy')}/rep={row.get('replication')}"
            problems += _settlement_problems(where, row)

    deal_json = out_dir / "deal.json"
    if deal_json.exists():
        audited += 1
        try:
            with open(deal_json) as handle:
                record = json.load(handle)
        except ValueError as exc:  # not JSON, or not text
            problems.append(f"deal.json: unreadable: {exc}")
        else:
            problems += _settlement_problems("deal.json", record)

    if audited == 0:
        problems.append(f"no deal records found under {out_dir}")
    return problems
