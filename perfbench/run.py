"""fedmarket benchmark: closed-loop workloads over the public API.

Run from the repository root:

    python3 perfbench/run.py --workload collect-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check      # a few ops per workload, checks the metrics
    python3 perfbench/run.py --record-golden   # rewrite perfbench/golden.json

Each run is one process with one client: an op starts when the previous one
has returned. The op pool of a workload (at least 100 ops) is made from
``--seed`` and run in whole cycles, so every run measures the same mix.
``--trace 0`` runs cycles until the ops' summed wall time reaches
``--seconds`` and at least MIN_CYCLES cycles ran, and prints the end-to-end
metrics at the reference processor speed (speed.py). ``--trace 1`` runs two cycles
untraced, then two traced, and prints the per-layer metrics. Every op's
output is checked; the last line of standard output is the JSON result.
METRICS.md says what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SCENARIO = BENCH_DIR / "scenario.yaml"
GOLDEN = BENCH_DIR / "golden.json"

WORKLOADS = ("collect-grid", "freerider-years", "split-games", "settle-pipeline")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
DEFAULT_SEED = 1
GOLDEN_SEEDS = range(16)
MIN_POOL = 100  # so that at least ten ops lie beyond p90
MIN_CYCLES = 5  # repetitions per op to take the median of
SETUP_PROBES = 7
REFERENCE_EVERY_S = 0.05  # op time between two processor speed references
MAX_REPORTED_PROBLEMS = 10

# Time from process start until the first op can run: interpreter start,
# `import fedmarket` and `load_config`. The child prints the monotonic clock,
# which is system-wide on Linux, when it is ready.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fedmarket\n"
    "from fedmarket.config import load_config\n"
    "load_config(sys.argv[2])\n"
    "print(time.monotonic())\n"
)


def import_program():
    """Import fedmarket from this checkout's sources and nowhere else."""
    if not (SRC / "fedmarket" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fedmarket sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fedmarket

    if Path(fedmarket.__file__).resolve().parent != SRC / "fedmarket":
        raise SystemExit(f"perfbench: imported fedmarket from {fedmarket.__file__}, not {SRC}")


def measure_setup(probes: int) -> float:
    import speed

    samples = []
    for _ in range(probes):
        before = speed.factor()
        start = time.monotonic()
        ready = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(SCENARIO)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        elapsed = float(ready.stdout) - start
        samples.append(2 * elapsed / (before + speed.factor()))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes vs KiB


class Checker:
    """Counts attempted and failed ops; an op fails if it raises or a check fails.

    Beyond each op's own checks: a repeated op must give the same output as
    its first run, ops sharing a pair key (exact and pruned on one game) the
    same shares, and, for seeds with recorded digests, the golden output.
    """

    def __init__(self, ops, golden: list[str] | None) -> None:
        self.first: list[str | None] = [None] * len(ops)
        self.pairs: dict[str, str] = {}
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        if golden is not None and len(golden) != len(ops):
            raise SystemExit(f"perfbench: {len(golden)} golden digests for a pool of {len(ops)} ops")

    def record(self, index, op, result, error, counts) -> None:
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            outcome = op.check(result)
            problems = list(outcome.problems)
            digest = outcome.digest
            if self.first[index] is None:
                self.first[index] = digest
            elif self.first[index] != digest:
                problems.append("output differs from this op's first run")
            if op.pair is not None and self.pairs.setdefault(op.pair, digest) != digest:
                problems.append(f"shares differ from the other evaluator on {op.pair}")
            if self.golden is not None and digest[:16] != self.golden[index]:
                problems.append("output differs from the golden digest")
            if counts is not None:
                counts.update(outcome.counts)
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_PROBLEMS:
                print(f"perfbench: op {op.key} failed: {'; '.join(problems)}", file=sys.stderr)


def run_ops(ops, checker, *, cycles=None, seconds=0.0, min_cycles=1, tracer=None):
    """Run whole cycles over the pool; return per-op wall and CPU seconds,
    the processor's slowdown factor during each op, and the cycle count.

    The lists are flat in run order, so op i's samples are ``walls[i::len(ops)]``.
    Without ``cycles``, stop after the first cycle that brings the timed
    total to ``seconds`` and the cycle count to ``min_cycles``. Checks and
    speed references run between ops, outside the timed region; an op's
    factor is the mean of the references before and after its block.
    """
    import speed

    walls, cpus, factors = [], [], []
    done = 0
    last_factor = speed.factor()
    block, block_time = 0, 0.0

    def close_block():
        nonlocal last_factor, block, block_time
        now = speed.factor()
        factors.extend([(last_factor + now) / 2] * block)
        last_factor, block, block_time = now, 0, 0.0

    while True:
        for index, op in enumerate(ops):
            run = op.run if tracer is None else tracer.op(op.label, op.run)
            result = error = None
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = run()
            except Exception as exc:  # an op that raises is a failed op; keep going
                error = exc
            cpu1, wall1 = time.process_time(), time.perf_counter()
            walls.append(wall1 - wall0)
            cpus.append(cpu1 - cpu0)
            checker.record(index, op, result, error, None if tracer is None else tracer.counts)
            block += 1
            block_time += wall1 - wall0
            if block_time >= REFERENCE_EVERY_S:
                close_block()
        done += 1
        if done >= cycles if cycles is not None else sum(walls) >= seconds and done >= min_cycles:
            close_block()
            return walls, cpus, factors, done


def end_to_end(walls, cpus, factors, pool: int, setup_s: float) -> dict[str, tuple[float, str]]:
    """Metrics over each op's median time at the reference speed (speed.py).

    Throughput is taken from wall time. Latency percentiles and CPU per op
    are taken from the op's process CPU time: the ops are single-threaded
    and CPU-bound, so on a processor of its own an op's wall time is its
    CPU time, while on a shared VM wall time also holds the varying share
    the hypervisor gives to other tenants (steal).
    """

    def per_op(samples):
        return [
            statistics.median(s / f for s, f in zip(samples[i::pool], factors[i::pool]))
            for i in range(pool)
        ]

    wall, cpu = per_op(walls), per_op(cpus)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (pool / sum(wall), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(cpu), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(cpu, n=10, method="inclusive")[8], "ms"),
        "cpu_ms_per_op": (1e3 * sum(cpu) / pool, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def environment(workload: str, seed: int, pool: int, ops: int, cycles: int, slowdown: float) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "pool_ops": pool,
        "timed_ops": ops,
        "timed_cycles": cycles,
        "median_slowdown": slowdown,  # processor speed relative to speed.NOMINAL_S
    }


def load_golden(workload: str, seed: int) -> list[str] | None:
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False):
    """Run one workload; return (metrics, attempted, failed, correct, env)."""
    import tracing
    import workloads
    from fedmarket.config import load_config

    setup_s = measure_setup(1 if quick else SETUP_PROBES)
    config = load_config(SCENARIO)
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "op").mkdir(parents=True)
    ops = workloads.build(workload, config, seed, out / "op", quick=quick)
    if not quick and len(ops) < MIN_POOL:
        raise SystemExit(f"perfbench: {workload} pool has {len(ops)} ops, fewer than {MIN_POOL}")
    checker = Checker(ops, None if quick else load_golden(workload, seed))
    correct = True

    if not trace:
        walls, cpus, factors, cycles = run_ops(
            ops, checker, seconds=seconds, min_cycles=1 if quick else MIN_CYCLES
        )
        metrics = end_to_end(walls, cpus, factors, len(ops), setup_s)
    else:
        walls, cpus, factors, cycles = run_ops(ops, checker, cycles=2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes, traced_walls = [], []
            for _ in range(2):
                traced_walls += run_ops(ops, checker, cycles=1, tracer=tracer)[0]
                passes.append(tracer.take())
        finally:
            tracer.uninstall()
        if passes[0][1] != passes[1][1]:
            diff = {k for k in passes[0][1] | passes[1][1] if passes[0][1][k] != passes[1][1][k]}
            print(f"perfbench: counters differ between same-seed passes: {sorted(diff)}", file=sys.stderr)
            correct = False
        for spans, _, _ in passes:
            problems = tracing.span_problems(spans)
            for problem in problems[:MAX_REPORTED_PROBLEMS]:
                print(f"perfbench: {problem}", file=sys.stderr)
            correct = correct and not problems
        pool = len(ops)
        overhead = sum(min(traced_walls[i::pool]) for i in range(pool)) / sum(
            min(walls[i::pool]) for i in range(pool)
        )
        metrics = tracing.layer_metrics(passes, overhead)
        write_spans(out / "spans.csv", passes[0][0])
    env = environment(workload, seed, len(ops), len(walls), cycles, statistics.median(factors))
    correct = correct and checker.failed == 0
    return metrics, checker.attempted, checker.failed, correct, env


def write_spans(path: Path, spans) -> None:
    with open(path, "w") as handle:
        handle.write("index,name,start,end,parent,op\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            handle.write(f"{i},{name},{start!r},{end!r},{parent},{op}\n")


def report(metrics, attempted: int, failed: int, correct: bool, env: dict) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {failed / attempted!r} ({failed} failed of {attempted} ops)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def self_check() -> int:
    """A few ops per workload, both modes: every declared metric is emitted with
    its unit, outputs check out, and traced self times add up per op."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            metrics, attempted, failed, correct, _ = run_workload(workload, DEFAULT_SEED, 0.0, trace, quick=True)
            expected = {m["name"]: m["unit"] for m in declared[section]}
            emitted = {name: unit for name, (_, unit) in metrics.items()}
            if emitted != expected:
                problems.append(f"{workload} {section}: emitted {emitted}, declared {expected}")
            if not correct:
                problems.append(f"{workload} {section}: {failed} of {attempted} ops failed or a check failed")
            print(f"self-check {workload} trace={int(trace)}: {attempted} ops, {failed} failed, correct={correct}")
    for problem in problems:
        print(f"self-check: {problem}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record_golden() -> int:
    import workloads
    from fedmarket.config import load_config

    config = load_config(SCENARIO)
    golden: dict[str, dict[str, list[str]]] = {}
    for workload in WORKLOADS:
        out = OUT / workload / "op"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        for seed in GOLDEN_SEEDS:
            ops = workloads.build(workload, config, seed, out)
            checker = Checker(ops, None)
            run_ops(ops, checker, cycles=1)
            if checker.failed:
                print(f"record-golden: {workload} seed {seed}: {checker.failed} ops failed", file=sys.stderr)
                return 1
            golden.setdefault(workload, {})[str(seed)] = [d[:16] for d in checker.first]
            print(f"record-golden: {workload} seed {seed}: {len(ops)} ops")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check or args.record_golden):
        parser.error("give --workload, --self-check or --record-golden")

    for var in THREAD_VARS:  # pin native thread pools before numpy is imported
        os.environ[var] = "1"
    import_program()
    if args.self_check:
        return self_check()
    if args.record_golden:
        return record_golden()
    report(*run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
