"""Experiment orchestration: scenario grids, CSV outputs, audit pass.

Every experiment derives one seed per grid cell and replication from the
master seed, so any row can be reproduced in isolation and the two
collection policies of a replication share their random draws (paired
comparison). Rows are sorted by cell key before writing, which makes the
output independent of execution order.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import statistics
import time
import types
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import ScenarioConfig, derive_seed, sample_thresholds
from .dynamics import (
    FreshEpsilonUnderflow,
    PolicyKind,
    YearLedger,
    apply_penalty,
    detect_free_riders,
    privacy_saving,  # noqa: F401  (unused here; the benchmark tracer wraps this binding)
    run_collection_batch,
    run_collection_year,  # noqa: F401  (unused here; the benchmark tracer wraps this binding)
    run_collection_years,
    savings_snapshot,
)
from .errors import DomainError
from .manifest import prepare_out_dir, write_json, write_manifest, write_output
from .market import (
    Bid,
    ConsumerOffer,
    Federation,
    SealedDeal,
    compute_scaling,
    make_bid,
    seal_deal,
    settle,
)
from .privacy import AggregationMode, AlphabetSpec
from .shapley import ThresholdGame, shapley_exact, shapley_pruned, shapley_sampled
from .valuation import ExponentialValuation

_POLICIES = (PolicyKind.CATALYZING, PolicyKind.NON_CATALYZING)
# One timing measurement repeats an evaluation back to back until this many
# seconds have passed, so that a stall of a millisecond cannot swing it.
TIMING_MIN_SECONDS = 0.05


@functools.cache
def _member_ids(n: int) -> tuple[str, ...]:
    """The ids of an n-member population, ``p000`` on; built once per size."""
    return tuple(f"p{i:03d}" for i in range(n))


def _generator(seq: np.random.SeedSequence) -> np.random.Generator:
    """A generator of the stream ``np.random.default_rng(seed)`` gives, for
    ``seq = np.random.SeedSequence(seed)``.

    Building ``seq`` hashes the seed; every generator built from it starts
    in the same state, so the runs of a replication share one hash.
    """
    return np.random.Generator(np.random.PCG64(seq))


def build_federation(
    fed_id: str,
    n: int,
    config: ScenarioConfig,
    rng: np.random.Generator,
    delta_threshold: float | None = None,
) -> Federation:
    """Sample provider thresholds and assemble a federation."""
    return Federation(
        id=fed_id,
        member_ids=_member_ids(n),
        d_p=(config.data_points,) * n,
        eps_threshold=tuple(sample_thresholds(config.thresholds, n, rng).tolist()),
        delta_threshold=delta_threshold if delta_threshold is not None else config.delta_thresholds[0],
        tolerance_window=config.tolerance_window,
    )


def seal_single_federation_deal(
    federation: Federation,
    offer: ConsumerOffer,
    mode: AggregationMode,
    spec: AlphabetSpec,
) -> tuple[Bid, float, SealedDeal]:
    """Bid, scale and seal one federation's deal; a deal that buys no privacy
    (w* = 0, a promise of 0) is a ``DomainError``, since no year can collect it."""
    bid = make_bid(federation, offer, mode, spec)
    w_star = compute_scaling([bid], offer)
    if w_star == 0.0:
        raise DomainError(f"budget {offer.budget} buys no privacy from federation {federation.id}: w* = 0")
    return bid, w_star, seal_deal([bid], offer, w_star)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write ``header`` and ``rows`` of values in header order as CSV; return its SHA-256."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return write_output(path, buffer.getvalue().encode())


def _csv_fields(values: Iterable) -> list[str]:
    """Each value as ``csv.writer`` writes it ahead of another field of a row,
    followed by the delimiter. A lone empty field would be written ``""``."""
    lines: list[str] = []  # the writer writes each row with one call
    csv.writer(types.SimpleNamespace(write=lines.append)).writerows((value, "") for value in values)
    return [line[:-2] for line in lines]  # "field," without the "\r\n"


TRACE_HEADER = "year,round,provider,d_t,eps_t,cumulative\r\n"


def _write_trace(path: Path, ledgers: Sequence[YearLedger]) -> str:
    """Write one CSV row per report of ``ledgers``, under ``TRACE_HEADER``;
    return its SHA-256.

    The bytes are those ``_write_csv`` writes for the rows (year, round,
    provider id, d_t, eps_t, cumulative): ``csv.writer`` writes an int
    with ``str`` and a float with ``repr``. Provider ids go through
    ``csv.writer`` itself (``_csv_fields``), once per ledger.
    """
    pieces = [TRACE_HEADER]
    for ledger in ledgers:
        year, provider = f"{ledger.year},", _csv_fields(ledger.provider_ids)
        pieces += [
            f"{year}{round_},{provider[i]}{d_t},{eps_t!r},{cumulative!r}\r\n"
            for round_, i, d_t, eps_t, cumulative in zip(
                ledger.round, ledger.provider, ledger.d_t, ledger.eps_t, ledger.cumulative
            )
        ]
    return write_output(path, "".join(pieces).encode())


def _write_records(path: Path, header: Sequence[str], records: Iterable[Mapping]) -> str:
    """``_write_csv`` for rows held as mappings keyed by ``header``."""
    return _write_csv(path, header, map(itemgetter(*header), records))


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


def experiment_rounds(config: ScenarioConfig, out_dir: str | Path) -> list[dict]:
    """Rounds-to-target grid over federation sizes, targets, and policies.

    Per replication one federation is sampled and its deal sealed with a
    budget priced exactly at the cell's target; both policies then run
    the warmup years plus one measured year on identical draws. After
    every deal of the cell is sealed, the cell runs as one batch
    (``run_collection_batch``) of 2 x replications runs, every
    replication once per policy, policy-major, each run from a generator
    of its own replication's seed. The batch checks all runs at the end
    of each year, so when runs of both policies fail, the error of the
    earliest failing year is raised; within a year, reports are checked
    round by round, catalyzing runs first in each round.
    """
    out_dir = prepare_out_dir(out_dir)
    spec = AlphabetSpec(config.k)
    valuation = ExponentialValuation(config.k1, config.k2)
    rows: list[dict] = []
    deal_rows: list[dict] = []
    seeds: dict[str, int] = {}

    for n in config.federation_sizes:
        for target in config.targets:
            cell = f"n={n}/target={target}"
            runs = []  # per replication: its federation, its deal, its deal row's fixed fields
            sequences = []  # per replication: the seed sequence both of its runs draw from
            for rep in range(config.replications):
                build_seed = derive_seed(config.master_seed, "rounds-build", n, target, rep)
                run_seed = derive_seed(config.master_seed, "rounds-run", n, target, rep)
                seeds[f"rounds/{cell}/rep={rep}"] = run_seed
                federation = build_federation(
                    f"F{n}", n, config, np.random.default_rng(build_seed)
                )
                offer = ConsumerOffer(budget=valuation.invert(target), valuation=valuation)
                _, w_star, deal = seal_single_federation_deal(
                    federation, offer, config.aggregation, spec
                )
                term = deal.terms[federation.id]
                record = {
                    "experiment": "rounds",
                    "cell": cell,
                    "replication": rep,
                    "seed": run_seed,
                    "budget": offer.budget,
                    "w_star": w_star,
                    "promised_eps": term.promised_eps,
                    "price": term.price,
                }
                runs.append((federation, deal, record))
                sequences.append(np.random.SeedSequence(run_seed))
            batch = [(kind, *run) for kind in _POLICIES for run in runs]  # policy-major
            rounds_used, achieved, _ = run_collection_batch(
                [federation for _, federation, _, _ in batch],
                [record["promised_eps"] for _, _, _, record in batch],
                [config.collection_policy(kind) for kind, _, _, _ in batch],
                years=config.warmup_years + 1,
                max_rounds=config.max_rounds,
                mode=config.aggregation,
                rngs=[_generator(seq) for _ in _POLICIES for seq in sequences],
                spec=spec,
            )
            measured = zip(batch, rounds_used.tolist(), achieved.tolist())
            for (policy_kind, federation, deal, record), used, got in measured:
                rows.append(
                    {
                        "n": n,
                        "target": float(target),
                        "policy": policy_kind.value,
                        "replication": record["replication"],
                        "rounds_used": used,  # max_rounds for a run that fell short
                        "achieved": got,
                    }
                )
                deal_rows.append(
                    {
                        **record,
                        "policy": policy_kind.value,
                        "achieved_eps": got,
                        "payout": settle(deal, federation, got),
                    }
                )

    rows.sort(key=lambda r: (r["n"], r["target"], r["policy"], r["replication"]))
    deal_rows.sort(key=lambda r: (r["cell"], r["policy"], r["replication"]))
    outputs = {
        "rounds.csv": _write_records(
            out_dir / "rounds.csv",
            ("n", "target", "policy", "replication", "rounds_used", "achieved"),
            rows,
        ),
        "rounds_deals.csv": _write_records(out_dir / "rounds_deals.csv", DEAL_HEADER, deal_rows),
    }
    write_manifest(out_dir / "rounds_manifest.json", config, seeds, outputs)
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
    number of excluded providers at the end of the run. A cell runs as
    one batch (``run_collection_batch``) of 2 x replications runs, every
    replication once per policy, policy-major, each run from a generator
    of its own replication's seed; the batch excludes a member by masking
    her out. It checks all runs at the end of each year, so when runs of
    both policies fail, the error of the earliest failing year is raised;
    within a year, reports are checked round by round, catalyzing runs
    first in each round.
    """
    out_dir = prepare_out_dir(out_dir)
    spec = AlphabetSpec(config.k)
    open_target = math.inf  # never reached: every year runs the full round count
    rows: list[dict] = []
    seeds: dict[str, int] = {}

    for n in config.freerider_sizes:
        for delta in config.delta_thresholds:
            federations, sequences = [], []
            for rep in range(config.replications):
                build_seed = derive_seed(config.master_seed, "freeriders-build", n, delta, rep)
                run_seed = derive_seed(config.master_seed, "freeriders-run", n, delta, rep)
                seeds[f"freeriders/n={n}/delta={delta}/rep={rep}"] = run_seed
                federations.append(
                    build_federation(
                        f"F{n}", n, config, np.random.default_rng(build_seed), delta_threshold=delta
                    )
                )
                sequences.append(np.random.SeedSequence(run_seed))
            batch = [(kind, rep) for kind in _POLICIES for rep in range(config.replications)]
            try:
                _, _, excluded = run_collection_batch(
                    federations * len(_POLICIES),
                    [open_target] * len(batch),
                    [config.freerider_policy(kind) for kind, _ in batch],
                    years=config.freerider_years,
                    max_rounds=config.freerider_rounds_per_year,
                    mode=config.aggregation,
                    rngs=[_generator(sequences[rep]) for _, rep in batch],
                    spec=spec,
                    penalties_from=config.tolerance_window,
                )
            except FreshEpsilonUnderflow:
                raise FreshEpsilonUnderflow("freerider_initial_eps_high") from None
            for (policy_kind, rep), count in zip(batch, excluded.tolist()):
                rows.append(
                    {
                        "n": n,
                        "delta_f": float(delta),
                        "policy": policy_kind.value,
                        "replication": rep,
                        "free_rider_count": count,
                    }
                )

    rows.sort(key=lambda r: (r["n"], r["delta_f"], r["policy"], r["replication"]))
    outputs = {
        "freeriders.csv": _write_records(
            out_dir / "freeriders.csv",
            ("n", "delta_f", "policy", "replication", "free_rider_count"),
            rows,
        )
    }
    write_manifest(out_dir / "freeriders_manifest.json", config, seeds, outputs)
    return rows


def shares_digest(shares: Mapping[str, float]) -> str:
    canonical = json.dumps({pid: float(v).hex() for pid, v in shares.items()}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def timing_game(config: ScenarioConfig, n: int) -> ThresholdGame:
    """Random additive threshold game matching the experiment population."""
    rng = np.random.default_rng(derive_seed(config.master_seed, "timing", n))
    thresholds = sample_thresholds(config.thresholds, n, rng)
    reports = (_member_ids(n), range(n), (1,) * n, thresholds)
    total = float(np.sum(thresholds))
    return ThresholdGame.from_reports(
        *reports,
        AggregationMode.ADDITIVE_INFORMATION,
        config.timing_target_fraction * total,
        config.timing_prize,
        AlphabetSpec(config.k),
    )


def experiment_shapley_timing(config: ScenarioConfig, out_dir: str | Path) -> list[dict]:
    """Wall time of exact vs pruned evaluation on identical games.

    Per size: one warmup evaluation (excluded), then the median of
    ``timing_repeats`` monotonic-clock measurements. Each measurement runs
    back-to-back evaluations until ``TIMING_MIN_SECONDS`` have passed and
    records the time per evaluation. The shares digest proves both methods
    returned identical money.
    """
    out_dir = prepare_out_dir(out_dir)
    rows: list[dict] = []
    seeds: dict[str, int] = {}
    for n in config.timing_sizes:
        seeds[f"timing/n={n}"] = derive_seed(config.master_seed, "timing", n)
        game = timing_game(config, n)
        for method, evaluate in (("exact", shapley_exact), ("pruned", shapley_pruned)):
            result = evaluate(game)  # warmup, excluded from measurement
            times = []
            for _ in range(config.timing_repeats):
                calls, start = 0, time.perf_counter()
                while (elapsed := time.perf_counter() - start) < TIMING_MIN_SECONDS:
                    result = evaluate(game)
                    calls += 1
                times.append(elapsed / calls)
            rows.append(
                {
                    "n": n,
                    "method": method,
                    "wall_time": statistics.median(times),
                    "shares_digest": shares_digest(result.shares),
                }
            )

    rows.sort(key=lambda r: (r["n"], r["method"]))
    outputs = {
        "timing.csv": _write_records(
            out_dir / "timing.csv", ("n", "method", "wall_time", "shares_digest"), rows
        )
    }
    write_manifest(out_dir / "timing_manifest.json", config, seeds, outputs)
    return rows


def simulate(config: ScenarioConfig, out_dir: str | Path) -> dict:
    """One full pipeline run: broadcast, bid, seal, collect, settle, split.

    Uses the configured budget and the first federation size; writes the
    per-round trace, year ledgers, deal record, revenue shares, penalty
    snapshot, and the run manifest.
    """
    out_dir = prepare_out_dir(out_dir)
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

    ledgers = run_collection_years(
        federation,
        term.promised_eps,
        config.collection_policy(config.policy),
        years=config.warmup_years + 1,
        max_rounds=config.max_rounds,
        mode=config.aggregation,
        rng=np.random.default_rng(seeds["simulate/run"]),
        spec=spec,
    )
    measured = ledgers[-1]
    payout = settle(deal, federation, measured.achieved)

    reports = (measured.provider_ids, measured.provider, measured.d_t, measured.eps_t)
    game = ThresholdGame.from_reports(*reports, config.aggregation, term.promised_eps, payout, spec)
    if game.n <= 22:
        result = shapley_pruned(game)
    else:
        result = shapley_sampled(
            game, config.shapley_samples, np.random.default_rng(seeds["simulate/shapley"])
        )

    savings = savings_snapshot(
        ledgers[-config.tolerance_window :], federation.member_ids, federation.eps_threshold
    )
    flagged = detect_free_riders(savings, federation.delta_threshold)
    reduced, registry = apply_penalty(federation, flagged, {})
    flagged_ids = sorted(registry)  # a fresh registry holds exactly the flagged members

    outputs = {
        "trace.csv": _write_trace(out_dir / "trace.csv", ledgers),
        "ledgers.json": write_json(
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
                        for pid, d_total, eps_level in zip(
                            ledger.provider_ids, ledger.d_total, ledger.eps_level
                        )
                    },
                }
                for ledger in ledgers
            ],
        ),
        "deal.json": write_json(
            out_dir / "deal.json",
            {
                "budget": offer.budget,
                "federation": federation.id,
                "members": len(federation.member_ids),
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
        "shares.json": write_json(
            out_dir / "shares.json",
            {
                "method": result.method,
                "sample_count": result.sample_count,
                "prize": payout,
                "shares": result.shares,
            },
        ),
        "penalties.json": write_json(
            out_dir / "penalties.json",
            {
                "savings": dict(zip(federation.member_ids, savings.tolist())),
                "flagged": flagged_ids,
                "registry": {
                    pid: {"demerits": state.demerits, "excluded": state.excluded}
                    for pid, state in registry.items()
                },
                "federation_active": reduced.active,
                "remaining_members": len(reduced.member_ids),
            },
        ),
    }
    write_manifest(out_dir / "manifest.json", config, seeds, outputs)
    return {
        "w_star": w_star,
        "promised_eps": term.promised_eps,
        "achieved": measured.achieved,
        "payout": payout,
        "rounds_used": measured.rounds_used,
        "flagged": flagged_ids,
    }


def _settlement_problems(where: str, record: Mapping) -> list[str]:
    """The settlement rule: payout within budget, the price if the promise
    was met and zero otherwise. A record without these numbers, or with one
    that is not finite, is one problem too."""
    keys = ("budget", "price", "promised_eps", "achieved_eps", "payout")
    try:
        budget, price, promised, achieved, payout = numbers = [float(record[key]) for key in keys]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{where}: unreadable deal record: {exc!r}"]
    for key, number in zip(keys, numbers):
        if not math.isfinite(number):
            return [f"{where}: unreadable deal record: {key} is {number}, not a finite number"]
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
    """Re-verify the settlement rule on every deal record a run emitted.

    The free-rider and timing experiments settle no deal, so a directory
    holding one of their manifests needs no deal record to pass.
    """
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
        # RecursionError: JSON nested deeper than the interpreter's recursion limit
        except (ValueError, RecursionError) as exc:  # not JSON, or not text
            problems.append(f"deal.json: unreadable: {exc}")
        else:
            problems += _settlement_problems("deal.json", record)

    dealless = ("freeriders_manifest.json", "timing_manifest.json")
    if audited == 0 and not any((out_dir / name).exists() for name in dealless):
        problems.append(f"no deal records found under {out_dir}")
    return problems
