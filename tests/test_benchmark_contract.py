"""What the frozen benchmark (perfbench/) reads of the program.

For each workload INI, the calls its probes make: parse the config, count
its oracle queries and working set from the config's fields, and build its
problem and oracles through the harness.  A change that breaks one of
these fails here, not only in a benchmark run.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from aloe_lab import harness
from aloe_lab.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(
    p.stem for p in (PERFBENCH / "workloads").glob("*.ini")))
def test_probe_calls_work(name):
    workload = workloads.WORKLOADS[name]
    config = parse_config(str(workload.ini))
    assert workloads.oracle_queries(config) > 0
    assert all(size > 0 for size in
               workloads.working_set_bytes(config, workload.kind).values())
    problem, dataset = harness.build_problem(config)
    zeroth, first = harness.build_oracles(config, problem, dataset)
    assert callable(zeroth) and callable(first)
    # a probe sets up from its config with the workload seed, then times
    # run_trials on an equal config: the fixture cache must hit
    seeded = dataclasses.replace(config, base_seed=workloads.DEFAULT_SEED + 1)
    assert harness.build_problem(seeded)[0] is problem
