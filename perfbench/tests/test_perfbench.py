"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from aloe_lab import cli  # noqa: E402
from aloe_lab.config import parse_config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL = {
    "quadratic": """
[problem]
fixture = quadratic
problem_seed = 7
[oracles]
eps_f = 0.001
mode = bounded
eps_g = 0.001
kappa = 1.0
delta = 0.1
[algorithm]
alpha_max = 1.25
max_iters = 20
[stopping]
eps = 2.7557
[experiment]
trials = 3
""",
    "logistic_estimated": """
[problem]
fixture = logistic
n_samples = 64
reg = 0.01
problem_seed = 11
[oracles]
kind = minibatch
batch_size = 16
eps_f = 0.01
mode = bounded
eps_g = 0.5
kappa = 1.0
delta = 0.1
[algorithm]
alpha_max = 1.25
max_iters = 12
estimate_eps_f = true
estimator_n_calls = 5
estimator_period = 4
[stopping]
class = strongly_convex
eps = 0.05
[experiment]
trials = 2
check_admissibility = false
""",
    "gsg": """
[problem]
fixture = quadratic
problem_seed = 7
[oracles]
kind = gsg
sigma = 0.01
num_directions = 8
eps_f = 0.001
mode = bounded
eps_g = 0.5
kappa = 1.0
delta = 0.1
[algorithm]
eps_f_input = 0.001
alpha_max = 1.25
max_iters = 10
[stopping]
eps = 2.7557
[experiment]
trials = 2
check_admissibility = false
""",
}


def test_self_times_on_hand_built_tree():
    # 0: root [0, 10]
    #   1: child [1, 4]        2: child [3, 6] (overlaps 1)
    #       3: grandchild [2, 3]
    #   4: child [9, 12] (runs past the root's end)
    # 5: second root [20, 21]
    start = [0.0, 1.0, 3.0, 2.0, 9.0, 20.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0, 21.0]
    parent = [-1, 0, 0, 1, 0, -1]
    got = tracer.self_times(start, end, parent)
    # root: 10 minus the union [1, 6] and [9, 10] (child 4 clipped) = 4
    assert got == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])
    assert tracer.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def _traced_cli(ini, out):
    rec = tracer.Recorder()
    hooks = tracer.Hooks(rec).install()
    try:
        code = cli.run(str(ini), str(out), seed=5, quiet=True, jobs=1)
    finally:
        hooks.uninstall()
    return code, rec, hooks


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_writes_the_same_csvs(tmp_path, name):
    ini = tmp_path / "w.ini"
    ini.write_text(SMALL[name])
    assert cli.run(str(ini), str(tmp_path / "plain"), seed=5, quiet=True,
                   jobs=1) == 0
    code, rec, hooks = _traced_cli(ini, tmp_path / "traced")
    assert code == 0 and hooks.missing == []
    for csv_name in ("trials.csv", "summary.csv", "trace.csv"):
        assert ((tmp_path / "plain" / csv_name).read_bytes()
                == (tmp_path / "traced" / csv_name).read_bytes())

    config = parse_config(str(ini))
    metrics, _ = tracer.layer_metrics(rec, config, "trials",
                                      traced_wall_s=1.0, untraced_loop_s=1.0)
    iters = config.n_trials * config.params.max_iters
    assert metrics["linesearch.iters"] == iters
    assert metrics["instrument.paths"] == config.n_trials
    assert (metrics["oracles.zeroth_calls"] + metrics["oracles.first_calls"]
            == workloads.oracle_queries(config))
    assert metrics["rng.streams"] >= 3 * iters
    for kind in ("value", "grad"):
        split = sum(metrics[f"problems.{kind}_calls.in_{who}"] for who in
                    ("linesearch", "oracles", "estimation", "instrument"))
        assert split == metrics[f"problems.{kind}_calls"]
    if config.estimate_eps_f:
        assert metrics["estimation.refreshes"] == config.n_trials * 3
        assert metrics["estimation.zeroth_calls"] == config.n_trials * 3 * 5
        assert metrics["problems.value_calls.in_estimation"] == config.n_trials * 3 * 5
    # hooks are gone again
    assert cli.run_trials.__module__ == "aloe_lab.harness"


def test_metric_names_and_units():
    layer_names = [n for n, _, _ in tracer.PER_LAYER]
    assert len(set(layer_names)) == len(layer_names)
    for name, unit in [(n, u) for n, u, _ in tracer.PER_LAYER] + list(run.REPORTED.items()):
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(x) for x in tracer.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_reports_every_per_layer_name(tmp_path):
    ini = tmp_path / "w.ini"
    ini.write_text(SMALL["quadratic"])
    _, rec, _ = _traced_cli(ini, tmp_path / "out")
    metrics, _ = tracer.layer_metrics(rec, parse_config(str(ini)), "trials",
                                      traced_wall_s=1.0, untraced_loop_s=1.0)
    assert set(metrics) == {n for n, _, _ in tracer.PER_LAYER}


def test_trial_failures_counts_rows(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("seed,T_eps,lemma2_ok,lemma3_ok\r\n0,1,True,True\r\n1,2,True,False\r\n")
    assert run.trial_failures(good, 2) == 1
    assert run.trial_failures(good, 3) == 3
    assert run.trial_failures(tmp_path / "missing.csv", 4) == 4


def test_summarize_reports_tail_only_with_ten_samples_beyond():
    assert "p90" not in run.summarize(list(range(99)))
    st = run.summarize([float(i) for i in range(100)])
    assert st["n"] == 100 and st["median"] == 49.5 and "p90" in st
