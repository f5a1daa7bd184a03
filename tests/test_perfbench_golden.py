"""The benchmark's seed-0 op pools reproduce the digests in perfbench/golden.json.

``perfbench/run.py --self-check`` runs a few ops per workload without
goldens, so this is where the recorded benchmark outputs are held to: every
op of each workload's seed-0 pool runs once and its output digest must match.
The benchmark's files are only read here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fedmarket.config import load_config

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("collect-grid", "freerider-years", "split-games", "settle-pipeline")


def _load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, BENCH_DIR / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_zero_pool_matches_golden_digests(workload, tmp_path):
    golden = json.loads((BENCH_DIR / "golden.json").read_text())[workload]["0"]
    config = load_config(BENCH_DIR / "scenario.yaml")
    ops = _load_workloads().build(workload, config, 0, tmp_path)
    assert len(ops) == len(golden)
    for op, expected in zip(ops, golden):
        outcome = op.check(op.run())  # an op's outputs are checked before the next one overwrites them
        assert outcome.problems == [], op.key
        assert outcome.digest[:16] == expected, op.key
