"""Start-up cost and dependencies: the program loads no scipy module, runs
where scipy cannot be imported at all, loads `statistics` only for a
Wilson interval, and declares the numpy it needs.  Each import case runs
in a fresh interpreter, so modules imported by other tests in this
process cannot mask an import."""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

REPORT = """
import json
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def run_fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter, which must succeed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def scipy_modules_after(code: str) -> set[str]:
    stdout = run_fresh(textwrap.dedent(code) + REPORT)
    return set(json.loads(stdout.splitlines()[-1]))


def test_quadratic_run_and_certification_load_no_scipy(tmp_path):
    config = tmp_path / "quad.ini"
    config.write_text(
        "[algorithm]\nmax_iters = 30\n\n[stopping]\nclass = nonconvex\n"
        "eps = 0.001\n\n[experiment]\ntrials = 2\n")
    loaded = scipy_modules_after(f"""
        import aloe_lab
        import aloe_lab.cli
        from aloe_lab.config import parse_config
        from aloe_lab.harness import (build_oracles, build_problem,
                                      certify_oracles)
        assert aloe_lab.cli.run({str(config)!r}, {str(tmp_path / "out")!r},
                                quiet=True) == 0
        config = parse_config({str(config)!r})
        problem, dataset = build_problem(config)
        zeroth, first = build_oracles(config, problem, dataset)
        report = certify_oracles(problem, zeroth, first, config.zeroth,
                                 config.first, [problem.x0], alphas=(0.5,),
                                 n_queries=50)
        assert report.all_passed
    """)
    assert loaded == set()


def test_logistic_fixture_loads_no_scipy():
    loaded = scipy_modules_after("""
        from aloe_lab.problems import make_synthetic_logistic
        make_synthetic_logistic(n_samples=32, dim=3, seed=0)
    """)
    assert loaded == set()


LOGISTIC = """
[problem]
fixture = logistic
n_samples = 128
dim = 4
reg = 0.01
problem_seed = 11

[oracles]
kind = minibatch
batch_size = 32
eps_f = 0.01
mode = bounded
eps_g = 0.5
kappa = 1.0
delta = 0.1

[algorithm]
alpha_max = 1.25
max_iters = 30
estimate_eps_f = true
estimator_period = 8

[stopping]
class = strongly_convex
eps = 0.05

[experiment]
trials = 2
check_admissibility = false
"""


def test_cli_runs_where_scipy_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise
    # ImportError, as on an install without scipy
    (tmp_path / "logistic.ini").write_text(LOGISTIC)
    configs = [(str(tmp_path / "logistic.ini"), str(tmp_path / "logistic")),
               (str(ROOT / "demos" / "configs" / "smoke.ini"),
                str(tmp_path / "smoke"))]
    stdout = run_fresh(f"""
        sys.modules["scipy"] = None
        from aloe_lab.cli import main
        for config, out in {configs!r}:
            print(main(["--config", config, "--out", out, "--quiet"]))
    """)
    assert stdout.split() == ["0", "0"]
    assert all((Path(out) / "trials.csv").exists() for _, out in configs)


def test_run_with_no_checkpoint_in_budget_loads_no_statistics(tmp_path):
    # statistics (with fractions and decimal) serves only the Wilson
    # interval of a checkpoint, and t_min of bounded_noise.ini exceeds its
    # budget
    config = ROOT / "demos" / "configs" / "bounded_noise.ini"
    stdout = run_fresh(f"""
        from aloe_lab.cli import main
        code = main(["--config", {str(config)!r}, "--out",
                     {str(tmp_path / "out")!r}, "--quiet", "--trials", "4",
                     "--jobs", "1"])
        print(code, "statistics" in sys.modules)
    """)
    assert stdout.split()[-2:] == ["0", "False"]
    assert (tmp_path / "out" / "summary.csv").read_text().count("\n") == 1


def test_declared_numpy_floor_has_bitwise_count():
    # rng.key_words calls np.bitwise_count, which NumPy 2.0 added: with an
    # older numpy every KeyedStream raises AttributeError
    assert hasattr(np, "bitwise_count")
    floor = re.search(r'"numpy>=([0-9.]+)"',
                      (ROOT / "pyproject.toml").read_text()).group(1)
    assert tuple(int(part) for part in floor.split(".")[:2]) >= (2, 0)
