"""Start-up cost: scipy is loaded only by the logistic fixture's L-BFGS-B
solve.  Each case runs in a fresh interpreter, so modules imported by other
tests in this process cannot mask an import."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = """
import json
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(code: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + textwrap.dedent(code) + REPORT],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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


def test_logistic_fixture_loads_lbfgs_only():
    loaded = scipy_modules_after("""
        from aloe_lab.problems import make_synthetic_logistic
        make_synthetic_logistic(n_samples=32, dim=3, seed=0)
    """)
    assert "scipy.optimize" in loaded
    assert not any(m == "scipy.stats" or m.startswith("scipy.stats.")
                   for m in loaded)
