"""What the frozen benchmark (perfbench/) reads of the program.

For each workload INI, the calls its probes make: parse the config, count
its oracle queries and working set from the config's fields, and build its
problem and oracles through the harness; and the correctness gates of a
trial workload's runs.  A change that breaks one of these fails here, not
only in a benchmark run.
"""

import csv
import dataclasses
import sys
from pathlib import Path

import pytest

from aloe_lab import cli, harness
from aloe_lab.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import probe  # noqa: E402
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


@pytest.mark.parametrize("name", ["quad_synthetic", "logistic_minibatch",
                                  "gsg_quadratic"])
def test_trial0_trace_is_the_cli_trace(name, tmp_path):
    # what the benchmark's --trace 0 check reads: the trace written from a
    # full-budget aloe_run the way a probe builds trial 0, cut to its header
    # and first T_eps rows, is the CLI's trace.csv byte for byte
    workload = workloads.WORKLOADS[name]
    config, problem, dataset = probe.set_up(workload, 0)
    probe.write_trial0_trace(config, problem, dataset, tmp_path)
    out = tmp_path / "cli"
    assert cli.run(str(workload.ini), str(out), seed=0, quiet=True, jobs=1) == 0
    with open(out / "trials.csv", newline="") as fh:
        T_eps = int(next(csv.DictReader(fh))["T_eps"])
    assert 0 < T_eps < config.params.max_iters
    # the header and max_iters rows, each ended by CRLF
    lines = (tmp_path / "trial0_trace.csv").read_bytes().split(b"\r\n")
    assert len(lines) == config.params.max_iters + 2 and lines[-1] == b""
    assert ((out / "trace.csv").read_bytes()
            == b"\r\n".join(lines[:T_eps + 1]) + b"\r\n")


@pytest.mark.parametrize("name", ["quad_synthetic", "logistic_minibatch",
                                  "gsg_quadratic"])
def test_csvs_identical_across_jobs_and_blocks(name, tmp_path, monkeypatch):
    # the benchmark's csv_identical_across_runs_and_jobs gate, and its
    # failure count: trials.csv, summary.csv and trace.csv are the same
    # bytes at --jobs 1, at --jobs 2 and with the seeds split into blocks of
    # a third of the trials (one trial each on logistic_minibatch), and
    # every lemma column of trials.csv reads True
    workload = workloads.WORKLOADS[name]
    config = parse_config(str(workload.ini))
    outs = []
    for jobs, rows in ((1, None), (2, None), (1, max(1, config.n_trials // 3))):
        if rows is not None:
            monkeypatch.setattr(harness, "BLOCK_CELLS",
                                rows * config.params.max_iters)
        out = tmp_path / f"jobs{jobs}_rows{rows}"
        assert cli.run(str(workload.ini), str(out), seed=0, quiet=True,
                       jobs=jobs) == 0
        outs.append(out)
    for csv_name in ("trials.csv", "summary.csv", "trace.csv"):
        assert len({(out / csv_name).read_bytes() for out in outs}) == 1, csv_name
    with open(outs[0] / "trials.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == config.n_trials
    assert all(row[c] == "True" for row in rows for c in row
               if c.startswith("lemma"))
