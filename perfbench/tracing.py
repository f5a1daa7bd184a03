"""Outside-in layer tracing: spans and counters around the program's public calls.

The tracer replaces a function at the exact binding its caller looks up.
``experiments`` imports names directly, so ``fedmarket.experiments.run_collection_year``
and ``fedmarket.dynamics.run_collection_year`` are two bindings of one function
and each gets its own wrapper around the original. Nothing inside the
program is edited; ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, op)``. Spans stay in memory until the
run ends. A span's self time is its duration minus the durations of its
children; calls are sequential, so the children never overlap.
"""

from __future__ import annotations

import collections
import functools
import statistics
from time import perf_counter

from fedmarket import dynamics, experiments, market, shapley, valuation

OP_SPAN = "bench.op"


def _after_year(counts, args, ledger) -> None:
    counts["dynamics.reports"] += len(ledger.reports)
    counts["dynamics.reached"] += ledger.reached


def _after_settle(counts, args, payout) -> None:
    counts["market.paid"] += payout > 0


def _after_penalty(counts, args, result) -> None:
    counts["dynamics.excluded"] += len(args[0].members) - len(result[0].members)


def _after_shapley(counts, args, result) -> None:
    counts["shapley.calls"] += 1
    counts["shapley.zero_prize"] += args[0].prize == 0
    counts["shapley.sampled.samples"] += result.sample_count or 0


# (owner, attribute, span name, counter hook): one row per binding a caller uses.
SPANS = (
    (experiments, "experiment_rounds", "experiments.experiment_rounds", None),
    (experiments, "experiment_free_riders", "experiments.experiment_free_riders", None),
    (experiments, "simulate", "experiments.simulate", None),
    (experiments, "build_federation", "experiments.build_federation", None),
    (experiments, "sample_thresholds", "config.sample_thresholds", None),
    (experiments, "make_bid", "market.make_bid", None),
    (experiments, "compute_scaling", "market.compute_scaling", None),
    (experiments, "seal_deal", "market.seal_deal", None),
    (experiments, "settle", "market.settle", _after_settle),
    (experiments, "run_collection_years", "dynamics.run_collection_years", None),
    (experiments, "run_collection_year", "dynamics.run_collection_year", _after_year),
    (experiments, "privacy_saving", "dynamics.privacy_saving", None),
    (experiments, "savings_snapshot", "dynamics.savings_snapshot", None),
    (experiments, "detect_free_riders", "dynamics.detect_free_riders", None),
    (experiments, "apply_penalty", "dynamics.apply_penalty", _after_penalty),
    (experiments, "shapley_pruned", "shapley.pruned", _after_shapley),
    (experiments, "shapley_sampled", "shapley.sampled", _after_shapley),
    (experiments, "write_manifest", "manifest.write_manifest", None),
    (dynamics, "run_collection_year", "dynamics.run_collection_year", _after_year),
    (dynamics, "privacy_saving", "dynamics.privacy_saving", None),
    (market, "aggregate", "privacy.aggregate", None),
    (shapley, "shapley_exact", "shapley.exact", _after_shapley),
    (shapley, "shapley_pruned", "shapley.pruned", _after_shapley),
    (shapley, "shapley_sampled", "shapley.sampled", _after_shapley),
)

# Hot, cheap calls: counted without a span.
COUNTED = (
    (market, "scaled_cost", "market.scaled_cost"),
    (valuation.ExponentialValuation, "invert", "valuation.invert"),
)

EXPERIMENT_ENTRIES = (
    "experiments.experiment_rounds",
    "experiments.experiment_free_riders",
    "experiments.simulate",
)
SELF_TIMES = (
    "dynamics.run_collection_year",
    "dynamics.privacy_saving",
    "dynamics.savings_snapshot",
    "dynamics.apply_penalty",
    "market.make_bid",
    "market.compute_scaling",
    "market.seal_deal",
    "market.settle",
    "privacy.aggregate",
    "config.sample_thresholds",
    "experiments.build_federation",
    "shapley.exact",
    "shapley.pruned",
    "shapley.sampled",
    "manifest.write_manifest",
)
# (method, game class) pairs that the workloads run.
SPLIT_CLASSES = (
    ("exact", "small"),
    ("pruned", "small"),
    ("exact", "sparse"),
    ("pruned", "sparse"),
    ("exact", "krr"),
    ("pruned", "krr"),
    ("sampled", "large"),
    ("pruned", "settle"),
    ("sampled", "settle"),
)


class Tracer:
    """Span and counter store; ``install`` routes the program's calls through it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack = [-1]
        self.counts: collections.Counter = collections.Counter()
        self.op_labels: list[str] = []
        self._saved: list = []

    def wrap(self, name, fn, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, len(self.op_labels) - 1)
                counts[calls] += 1
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def count(self, name, fn):
        counts, calls = self.counts, name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return counted

    def op(self, label: str, run):
        """The op as a root span; its self time is the untraced remainder."""
        self.op_labels.append(label)
        return self.wrap(OP_SPAN, run)

    def install(self) -> None:
        for owner, attr, name, after in SPANS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, after))
        for owner, attr, name in COUNTED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.count(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, collections.Counter, list[str]]:
        """Hand over what was recorded so far and start empty."""
        taken = (list(self.spans), collections.Counter(self.counts), list(self.op_labels))
        self.spans.clear()
        self.counts.clear()
        self.op_labels.clear()
        return taken


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, parent, op) in enumerate(spans)]


def span_problems(spans) -> list[str]:
    """Spans must nest inside their parent and op, and self times must add up.

    Per op, the layer self times plus the untraced remainder (the op span's
    own self time) must equal the op's traced wall time.
    """
    problems = []
    own = self_times(spans)
    per_op = collections.defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(spans):
        per_op[op] += own[i]
        if own[i] < -1e-9:
            problems.append(f"span {i} ({name}) has negative self time {own[i]}")
        if parent < 0:
            if name != OP_SPAN:
                problems.append(f"span {i} ({name}) runs outside any op")
            continue
        p_name, p_start, p_end, _, p_op = spans[parent]
        if not (p_start <= start <= end <= p_end and p_op == op):
            problems.append(f"span {i} ({name}) is not inside its parent {parent} ({p_name})")
    for i, (name, start, end, parent, op) in enumerate(spans):
        if parent < 0 and abs(per_op[op] - (end - start)) > 1e-6:
            problems.append(f"op {op}: self times add to {per_op[op]}, wall is {end - start}")
    return problems


def layer_metrics(passes, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced passes over the same ops.

    Self times are the mean over the passes, per-class latencies the median
    over all of them, counters come from the first pass (they must repeat).
    ``overhead_ratio`` is traced over untraced wall time of the same ops.
    """
    self_sum = collections.defaultdict(float)
    durations = collections.defaultdict(list)
    for spans, _, labels in passes:
        for (name, start, end, parent, op), own in zip(spans, self_times(spans)):
            self_sum[name] += own / len(passes)
            if name.startswith("shapley."):
                durations[(name, labels[op])].append(end - start)
    counts = passes[0][1]

    def ratio(part, whole):
        return counts[part] / counts[whole] if counts[whole] else 0.0

    year = "dynamics.run_collection_year"
    metrics = {f"{name}.self_s": (self_sum[name], "s") for name in SELF_TIMES}
    metrics.update(
        {
            f"{year}.calls": (counts[f"{year}.calls"], "count"),
            "dynamics.reports": (counts["dynamics.reports"], "count"),
            "dynamics.us_per_report": (
                1e6 * self_sum[year] / counts["dynamics.reports"] if counts["dynamics.reports"] else 0.0,
                "us",
            ),
            "dynamics.reached_ratio": (ratio("dynamics.reached", f"{year}.calls"), "ratio"),
            "dynamics.privacy_saving.calls": (counts["dynamics.privacy_saving.calls"], "count"),
            "dynamics.excluded": (counts["dynamics.excluded"], "count"),
            "market.scaled_cost.calls": (counts["market.scaled_cost.calls"], "count"),
            "market.paid_ratio": (ratio("market.paid", "market.settle.calls"), "ratio"),
            "valuation.invert.calls": (counts["valuation.invert.calls"], "count"),
            "shapley.pruned.capacity_errors": (
                counts["shapley.pruned.errors.CapacityError"],
                "count",
            ),
            "shapley.sampled.samples": (counts["shapley.sampled.samples"], "count"),
            "shapley.zero_prize_ratio": (ratio("shapley.zero_prize", "shapley.calls"), "ratio"),
            "experiments.self_s": (sum(self_sum[name] for name in EXPERIMENT_ENTRIES), "s"),
            "experiments.output_bytes": (counts["experiments.output_bytes"], "bytes"),
            "manifest.hashed_bytes": (counts["manifest.hashed_bytes"], "bytes"),
            "bench.trace_overhead_ratio": (overhead_ratio, "ratio"),
        }
    )
    for method, label in SPLIT_CLASSES:
        times = durations[(f"shapley.{method}", label)]
        metrics[f"shapley.{method}.{label}.p50_ms"] = (
            1e3 * statistics.median(times) if times else 0.0,
            "ms",
        )
    return metrics
