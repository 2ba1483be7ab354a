import csv
import dataclasses
import hashlib
import json
import os
import warnings
from pathlib import Path

import pytest

from aloe_lab.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_STATISTICAL,
                          main, run, statistical_failures, unmet_contract,
                          write_trace_csv)
from aloe_lab.config import ConfigError, config_digest, parse_config
from aloe_lab.estimation import EpochEpsFController
from aloe_lab.harness import (ExperimentConfig, build_oracles, build_problem,
                              run_trials)
from aloe_lab.instrument import CENSORED
from aloe_lab.linesearch import AloeParams, aloe_run
from aloe_lab.oracles import FirstOracleSpec, ZerothOracleSpec
from aloe_lab.problems import make_synthetic_logistic

SMOKE = """
[stopping]
class = nonconvex
eps = 0.001

[experiment]
trials = 3
checkpoints = 200,400
"""

LOGISTIC_ESTIMATED = """
[problem]
fixture = logistic
n_samples = 256
dim = 5
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
max_iters = 50
estimate_eps_f = true
estimator_period = 8

[stopping]
class = strongly_convex
eps = 0.05

[experiment]
trials = 3
check_admissibility = false
"""

# the gsg_quadratic benchmark workload, cut to 4 trials x 40 iterations and
# 16 directions
GSG = """
[problem]
fixture = quadratic
dim = 10
lambda_min = 0.1
lambda_max = 10.0
problem_seed = 7

[oracles]
kind = gsg
sigma = 0.01
num_directions = 16
eps_f = 0.001
mode = bounded
eps_g = 0.5
kappa = 1.0
delta = 0.1

[algorithm]
eps_f_input = 0.001
alpha0 = 1
alpha_max = 1.25
max_iters = 40

[stopping]
class = nonconvex
eps = 2.7557

[experiment]
trials = 4
"""

# the logistic_minibatch benchmark workload with the default cap
# alpha_max = 10, which lies between the grid steps 0.8^-10 and 0.8^-11
LOGISTIC_OFF_GRID_CAP = """
[problem]
fixture = logistic
n_samples = 2048
dim = 10
reg = 0.01
problem_seed = 11

[oracles]
kind = minibatch
batch_size = 128
eps_f = 0.01
mode = bounded
eps_g = 0.5
kappa = 1.0
delta = 0.1

[algorithm]
alpha0 = 1
alpha_max = 10
max_iters = 400
estimate_eps_f = true
estimator_period = 16

[stopping]
class = strongly_convex
eps = 0.05

[experiment]
trials = 5
seed = 0
check_admissibility = false
"""

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.ini"))
WORKLOAD_CONFIGS = sorted((ROOT / "perfbench" / "workloads").glob("*.ini"))

# mini-batch oracles with the default exact contract
EXACT_MINIBATCH = """
[problem]
fixture = logistic
n_samples = 64
dim = 3
reg = 0.01

[oracles]
kind = minibatch
batch_size = 16

[stopping]
class = strongly_convex
eps = 0.05

[experiment]
trials = 5
check_admissibility = false
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_empty_gives_defaults(self, tmp_path):
        config = parse_config(write(tmp_path, "empty.ini", ""))
        assert config.fixture == "quadratic"
        assert config.fixture_params["dim"] == 10
        assert config.n_trials == 100
        assert config.params.gamma == 0.8
        assert config.params.theta == 0.2
        assert config.params.alpha0 == 1.0
        assert config.params.alpha_max == 10.0
        assert config.zeroth.mode == "exact"

    def test_gamma_out_of_range(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[algorithm]\ngamma = 1.5\n")
        with pytest.raises(ConfigError, match="gamma must lie in \\(0, 1\\)"):
            parse_config(path)

    def test_unknown_key_and_section_reported_together(self, tmp_path):
        path = write(tmp_path, "bad.ini",
                     "[algorithm]\nwarp = 9\n\n[plotting]\ncolor = red\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        message = str(err.value)
        assert "warp" in message
        assert "plotting" in message

    def test_multiple_semantic_errors_aggregated(self, tmp_path):
        path = write(tmp_path, "bad.ini",
                     "[algorithm]\ngamma = 1.5\ntheta = 2.0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value).count("must lie in") >= 2

    def test_non_numeric_value(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[algorithm]\ngamma = fast\n")
        with pytest.raises(ConfigError, match="not a valid float"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "absent.ini"))

    def test_explicit_defaults_block_matches_empty(self, tmp_path):
        path = write(tmp_path, "defaults.ini",
                     "[algorithm]\ngamma = 0.8\ntheta = 0.2\n"
                     "alpha0 = 1\nalpha_max = 10\n")
        config = parse_config(path)
        assert config == parse_config(write(tmp_path, "empty2.ini", ""))

    def test_minibatch_requires_logistic(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[oracles]\nkind = minibatch\n")
        with pytest.raises(ConfigError, match="logistic"):
            parse_config(path)

    @pytest.mark.parametrize("reg", ["0", "-0.01", "nan"])
    def test_nonpositive_reg_rejected(self, tmp_path, reg):
        path = write(tmp_path, "bad.ini",
                     f"[problem]\nfixture = logistic\nreg = {reg}\n")
        # the float cast refuses nan before the fixture check reads it
        message = (r"\[problem\] reg = 'nan': not a valid float" if reg == "nan"
                   else r"\[problem\] reg must be positive")
        with pytest.raises(ConfigError, match=message):
            parse_config(path)


class TestDigest:
    def test_formatting_invariant(self, tmp_path):
        a = parse_config(write(tmp_path, "a.ini",
                               "[algorithm]\ngamma=0.8\ntheta = 0.2\n"))
        b = parse_config(write(tmp_path, "b.ini",
                               "; comment\n[algorithm]\ntheta = 0.2\ngamma = 0.8\n"))
        assert config_digest(a) == config_digest(b)

    def test_semantic_change_changes_digest(self, tmp_path):
        a = parse_config(write(tmp_path, "a.ini", ""))
        b = parse_config(write(tmp_path, "b.ini", "[experiment]\nseed = 1\n"))
        assert config_digest(a) != config_digest(b)


class TestRun:
    def test_smoke_exit_zero(self, tmp_path):
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_OK
        names = set(os.listdir(out))
        assert names == {"manifest.json", "constants.txt", "trials.csv",
                         "summary.csv", "trace.csv"}

    def test_manifest_lists_all_files(self, tmp_path):
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        run(config, out, quiet=True)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert sorted(manifest["files"]) == sorted(
            ["constants.txt", "trials.csv", "summary.csv", "trace.csv",
             "manifest.json"])
        assert manifest["base_seed"] == 0
        assert len(manifest["config_digest"]) == 64

    @staticmethod
    def assert_same_outputs_at_jobs_1_and_2(tmp_path, text):
        config = write(tmp_path, "config.ini", text)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert run(config, out1, quiet=True) == run(config, out2, quiet=True, jobs=2)
        for name in ("trials.csv", "summary.csv", "trace.csv", "constants.txt"):
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b, name

    def test_rerun_byte_identical_csvs(self, tmp_path):
        self.assert_same_outputs_at_jobs_1_and_2(tmp_path, SMOKE)

    def test_gsg_byte_identical_across_jobs(self, tmp_path):
        self.assert_same_outputs_at_jobs_1_and_2(tmp_path, GSG)

    def test_inadmissible_exit_two(self, tmp_path):
        config = write(tmp_path, "bad.ini", SMOKE + (
            "\n[oracles]\neps_f = 0.01\nmode = bounded\nmean_error = 0.005\n"
            "eps_g = 0.01\nkappa = 1.0\ndelta = 0.1\n"))
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_CONFIG
        assert not os.path.exists(out)

    @pytest.mark.parametrize("p_hat", ["0.3", "1.5"])
    def test_p_hat_outside_interval_exit_two_before_trials(
            self, tmp_path, monkeypatch, p_hat):
        import aloe_lab.harness as harness_mod

        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness_mod, "_run_trial_block", no_trials)
        config = write(tmp_path, "bad.ini", SMOKE + f"p_hat = {p_hat}\n")
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_CONFIG
        assert not os.path.exists(out)

    def test_negative_seed_in_config_exit_two(self, tmp_path):
        config = write(tmp_path, "bad.ini", SMOKE + "seed = -1\n")
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_CONFIG
        assert not os.path.exists(out)

    def test_negative_checkpoint_exit_two(self, tmp_path, capsys):
        config = write(tmp_path, "bad.ini", SMOKE.replace(
            "checkpoints = 200,400", "checkpoints = -5, 3"))
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_CONFIG
        assert "checkpoints must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("s", ["-0.5", "nan", "inf"])
    def test_bad_s_exit_two(self, tmp_path, capsys, s):
        # s = -0.5 exited 3 mid-run and s = nan exited 0 with an empty
        # summary.csv before ExperimentConfig checked s; the float cast
        # refuses nan and inf before ExperimentConfig reads them
        config = write(tmp_path, "bad.ini", SMOKE + f"s = {s}\n")
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_CONFIG
        assert ("s must be finite and >= 0" if s == "-0.5"
                else f"s = '{s}': not a valid float") in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_negative_seed_override_exit_two(self, tmp_path):
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        assert main(["--config", config, "--out", out, "--quiet",
                     "--seed", "-1"]) == EXIT_CONFIG
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seed, trials, code", [
        ("9223372036854775805", "3", EXIT_OK),
        ("9223372036854775806", "3", EXIT_CONFIG)])
    def test_seeds_past_int64_exit_two(self, tmp_path, capsys, seed, trials,
                                       code):
        # the last seed 2**63 - 1 runs; one past it exited 3 mid-run
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        assert main(["--config", config, "--out", out, "--quiet",
                     "--seed", seed, "--trials", trials, "--jobs", "1"]) == code
        assert os.path.exists(out) == (code == EXIT_OK)
        if code == EXIT_CONFIG:
            assert "must not exceed 2**63 - 1" in capsys.readouterr().err
        bad = write(tmp_path, "bad.ini", SMOKE.replace(
            "trials = 3", f"trials = {trials}\nseed = {seed}"))
        assert run(bad, str(tmp_path / "ini"), quiet=True) == code

    def test_overflowing_start_exit_two_before_trials(self, tmp_path,
                                                      monkeypatch, capsys):
        # ||x_0||^2 overflows while the problem is built: the config is
        # refused there, before any trial and before numpy warns of the
        # overflow, so stderr is the one refusal line
        import aloe_lab.harness as harness_mod

        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness_mod, "_run_trial_block", no_trials)
        config = write(tmp_path, "bad.ini",
                       "[problem]\nx0_norm = 1e300\n" + SMOKE)
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(config, out, quiet=True) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "inadmissible configuration: FloatingPointError: "
            "overflow encountered in dot"]
        assert not os.path.exists(out)

    def test_negative_reg_exit_two(self, tmp_path):
        # with the gate off, reg < 0 would run every trial against an
        # objective that is unbounded below
        config = write(tmp_path, "bad.ini",
                       LOGISTIC_ESTIMATED.replace("reg = 0.01", "reg = -0.01"))
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_CONFIG
        assert not os.path.exists(out)

    def test_malformed_config_exit_two(self, tmp_path):
        config = write(tmp_path, "bad.ini", "[algorithm]\ngamma = 2\n")
        assert run(config, str(tmp_path / "out"), quiet=True) == EXIT_CONFIG

    def test_seed_and_trials_overrides(self, tmp_path):
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        run(config, out, seed=5, trials=2, quiet=True)
        with open(os.path.join(out, "trials.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["5", "6"]

    def test_trace_csv_round_trips(self, tmp_path):
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        run(config, out, quiet=True)
        with open(os.path.join(out, "trace.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["k"] == "0"
        for row in rows[:20]:
            value = float(row["f_curr"])
            assert repr(value) == row["f_curr"]

    def test_main_entrypoint(self, tmp_path):
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        code = main(["--config", config, "--out", out, "--quiet", "--jobs", "1"])
        assert code == EXIT_OK


class TestOffGridCap:
    def test_logistic_workload_with_default_cap_runs_clean(self, tmp_path):
        # the classifier once compared float steps capped at 10 with the
        # grid threshold 0.64 and crashed on the pair (0.687, 0.550)
        config = write(tmp_path, "logistic.ini", LOGISTIC_OFF_GRID_CAP)
        out = tmp_path / "out"
        assert run(config, str(out), quiet=True) == EXIT_OK
        with open(out / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for row in rows:
            assert [row[c] for c in ("lemma2_ok", "lemma3_ok", "lemma4_ok")] \
                == ["True"] * 3


class TestDivergedTrial:
    def test_exit_three_names_the_diverged_seed(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        import aloe_lab.harness as harness_mod
        build = harness_mod.build_oracles

        def nan_for_row_2(config, problem, dataset):
            zeroth, first = build(config, problem, dataset)

            def diverging(x, rng, phi=None):
                f = zeroth(x, rng, phi)
                return np.where(np.arange(len(f)) == 2, np.nan, f)
            return diverging, first

        monkeypatch.setattr(harness_mod, "build_oracles", nan_for_row_2)
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        assert run(config, out, seed=10, trials=4, quiet=True) == EXIT_RUNTIME
        assert "(seed 12)" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestCapBelowCriticalStep:
    def test_exit_two(self, tmp_path, capsys):
        # every step at most 0.0625 < bar_alpha_grid = 0.153: every
        # iteration small, Lemma 3 violated on every trial
        config = write(tmp_path, "cap.ini", (
            "[problem]\ndim = 5\n\n[algorithm]\nalpha0 = 0.05\n"
            "alpha_max = 0.0625\n\n" + SMOKE))
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_CONFIG
        assert "cap exponent -1 >= grid_index -5" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestTheoryConstantsOverflow:
    @pytest.mark.parametrize("cls", ["nonconvex", "convex", "strongly_convex"])
    def test_exit_two(self, tmp_path, capsys, cls):
        # (1 + kappa alpha_max)^2 overflows a float in the theory constants
        # of every class; that is a config error, not a runtime one
        config = write(tmp_path, "overflow.ini", (
            "[oracles]\neps_f = 0.01\nmode = bounded\neps_g = 0.5\n"
            "kappa = 1.0\ndelta = 0.1\n\n[algorithm]\nalpha_max = 1e200\n\n"
            f"[stopping]\nclass = {cls}\neps = 0.001\n"
            + ("eps1 = 0.5\n" if cls == "convex" else "")))
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_CONFIG
        assert "OverflowError" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestStartBelowCriticalStep:
    def test_exit_two(self, tmp_path, capsys):
        # the cap 0.2 lies above bar_alpha_grid = 0.153, but alpha0 = 0.05
        # starts five grid steps below it
        config = write(tmp_path, "start.ini", (
            "[problem]\ndim = 5\n\n[algorithm]\nalpha0 = 0.05\n"
            "alpha_max = 0.2\n\n" + SMOKE))
        out = str(tmp_path / "out")
        assert run(config, out, quiet=True) == EXIT_CONFIG
        assert "grid_index -5 < 0" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestTraceIsTrialZero:
    def test_trace_csv_is_the_harness_base_seed_trace(self, tmp_path):
        # trace.csv is the base seed's trial with the eps_f controller, cut
        # at T_eps: the first T_eps rows of its full-budget run, and not
        # those of the same trial at the constant slack eps_f_input.  It
        # stops at x_8, before the controller's first re-estimate at
        # iteration 8, so its own eps_f column is constant either way
        config = write(tmp_path, "logistic.ini", LOGISTIC_ESTIMATED)
        out = tmp_path / "out"
        assert run(config, str(out), quiet=True) == EXIT_OK
        with open(out / "trials.csv", newline="") as fh:
            T_eps = int(next(csv.DictReader(fh))["T_eps"])
        assert T_eps == 8
        parsed = parse_config(config)
        problem, dataset = build_problem(parsed)
        zeroth, first = build_oracles(parsed, problem, dataset)
        prefixes = []
        for controller in (EpochEpsFController(zeroth, parsed.estimator), None):
            ref = tmp_path / "ref.csv"
            write_trace_csv(str(ref), aloe_run(problem, zeroth, first,
                                               parsed.params, parsed.base_seed,
                                               controller))
            prefixes.append(ref.read_bytes().split(b"\r\n")[:T_eps + 1])
        trace = (out / "trace.csv").read_bytes()
        assert trace == b"\r\n".join(prefixes[0]) + b"\r\n"
        assert prefixes[1] != prefixes[0]


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_two(self, tmp_path, jobs):
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        assert main(["--config", config, "--out", out, "--quiet",
                     "--jobs", jobs]) == EXIT_CONFIG
        assert not os.path.exists(out)

    def test_default_is_affinity_size(self, tmp_path, monkeypatch):
        import aloe_lab.cli as cli_mod
        seen = {}

        def fake_run(*args, jobs, **kwargs):
            seen["jobs"] = jobs
            return EXIT_OK

        monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(cli_mod, "run", fake_run)
        config = write(tmp_path, "smoke.ini", SMOKE)
        assert main(["--config", config, "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_OK
        assert seen["jobs"] == 1

    def test_default_without_affinity_is_cpu_count(self, tmp_path, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        import aloe_lab.cli as cli_mod
        seen = {}

        def fake_run(*args, jobs, **kwargs):
            seen["jobs"] = jobs
            return EXIT_OK

        monkeypatch.delattr(cli_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(cli_mod, "run", fake_run)
        config = write(tmp_path, "smoke.ini", SMOKE)
        assert main(["--config", config, "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_OK
        assert seen["jobs"] == 3


class TestDemoConfigs:
    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
    def test_runs_clean(self, tmp_path, path):
        out = tmp_path / "out"
        assert run(str(path), str(out), trials=2, quiet=True) == EXIT_OK
        assert set(os.listdir(out)) == {"manifest.json", "constants.txt",
                                        "trials.csv", "summary.csv",
                                        "trace.csv"}
        # the base seed's trial up to T_eps, or the whole budget if censored
        with open(out / "trials.csv", newline="") as fh:
            T_eps = int(next(csv.DictReader(fh))["T_eps"])
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert 0 < len(rows) == (parse_config(str(path)).params.max_iters
                                 if T_eps == CENSORED else T_eps)


class TestTailValidation:
    def test_summary_has_a_row_per_checkpoint(self, tmp_path):
        # a budget of 4 t_min: the checkpoints t_min, 2 t_min and 4 t_min all
        # fit, so summary.csv compares the tail with the bound at each
        path = next(p for p in DEMO_CONFIGS if p.stem == "tail_validation")
        out = tmp_path / "out"
        assert run(str(path), str(out), quiet=True, jobs=1) == EXIT_OK
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["t"]) for r in rows] == [2865, 5730, 11460]
        assert all(float(r["empirical_tail"]) >= float(r["theory_bound"])
                   for r in rows)
        with open(out / "trials.csv", newline="") as fh:
            assert sum(1 for _ in csv.DictReader(fh)) == 300
        # pinned beside TestPinnedOutputs: every trial stops within
        # bounded_noise.ini's budget, so trials.csv is that config's, and
        # trace.csv, the base seed's trial up to T_eps = 15, is too
        assert tuple(hashlib.sha256((out / n).read_bytes()).hexdigest()
                     for n in ("trials.csv", "trace.csv")
                     ) == TestPinnedOutputs.PINNED["bounded_noise"][:2]


class TestSmokeReproducible:
    """demos/configs/smoke.ini gives the same CSVs for --jobs 1 and
    --jobs 2, and the constants.txt pinned below, from the last commit that
    drew oracle noise from numpy generators: the problem fixtures are data,
    not oracle noise, and still come from numpy generators.  So do the
    growth-constant probes of the logistic fixture, pinned likewise."""

    CONSTANTS_SHA256 = ("0b7bfe8ff69a9544a220ee878c4f0a2e"
                        "c6c7bc45035db55958d2a27a91a7c551")

    def test_jobs_and_pinned_constants(self, tmp_path):
        path = next(p for p in DEMO_CONFIGS if p.stem == "smoke")
        outs = [tmp_path / "jobs1", tmp_path / "jobs2"]
        assert run(str(path), str(outs[0]), quiet=True, jobs=1) == EXIT_OK
        assert run(str(path), str(outs[1]), quiet=True, jobs=2) == EXIT_OK
        for name in ("trials.csv", "summary.csv", "trace.csv", "constants.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        digest = hashlib.sha256((outs[0] / "constants.txt").read_bytes()).hexdigest()
        assert digest == self.CONSTANTS_SHA256

    def test_pinned_growth_constants(self):
        _, dataset = make_synthetic_logistic(n_samples=256, dim=5, seed=11,
                                             reg=0.01)
        assert (dataset.M_c.hex(), dataset.M_v.hex()) == (
            "0x1.b5655319e70cdp+1", "0x1.cd51d0196478dp+4")


class TestPinnedOutputs:
    """The sha256 of trials.csv, trace.csv and summary.csv of both demo
    configs, the small GSG config and the small mini-batch config with the
    noise-level estimator, at --jobs 1 and 2.  A refactor keeps every
    sampled path, stopping time and verdict, so it keeps these bytes; a
    change that moves them on purpose updates the pins and says so.
    trace.csv is the base seed's trial up to its T_eps (479, 15, 14 and
    8).  Only smoke has checkpoint rows: the others' t_min exceeds their
    budget, so their summary.csv is the header alone."""

    HEADER_ONLY = "41c95c1893915db9ff23e2ed8421c7eb2a867587380120dbd4623381231c6eb7"
    PINNED = {
        "smoke": ("6b52d9d8365700566b0ac2e02ba0405e906b566733c3be0966768c6fbaaabeec",
                  "145a94d40f82dd3eb87734f6df3bbcae1c54f1ac9a24571781c8417b99466f80",
                  "cf82cda2d05f878b58afc0163322c05cc6f6c32c8bde80840079916d7eb92457"),
        "bounded_noise": (
            "ab7e538a0b3980a61a8ceb638d3e610647576e4477c9f33befcec121c8a03642",
            "56c362d468c6dbd424d4f66e3f066fa3d38df8c7b65ce9a5e7d3cd0a44405bf4",
            HEADER_ONLY),
        "gsg": ("76692063bf897324aacbe514ed2b569649cf3c07b582cfe1d0cfda883be1b8fd",
                "529e3ca1baa9ed29393771e967dbbbcca0530b75bb3c57469129804768147da3",
                HEADER_ONLY),
        "minibatch_estimated": (
            "9adc1015e352d3bdb01e115e06abc46729a2943b092fdef0b3b42e3e1c0c74a0",
            "2ab58eb25c72ec66b456aa5cda56bc7ada1284d417f0e5644d1a9271b5542598",
            HEADER_ONLY),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_sha256(self, tmp_path, name):
        configs = {p.stem: str(p) for p in DEMO_CONFIGS}
        configs["gsg"] = write(tmp_path, "gsg.ini", GSG)
        configs["minibatch_estimated"] = write(tmp_path, "minibatch.ini",
                                               LOGISTIC_ESTIMATED)
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run(configs[name], str(out), quiet=True, jobs=jobs) == EXIT_OK
            assert tuple(hashlib.sha256((out / n).read_bytes()).hexdigest()
                         for n in ("trials.csv", "trace.csv", "summary.csv")
                         ) == self.PINNED[name], jobs


class TestCheckpointsOutsideBudget:
    def test_reported_on_stderr(self, tmp_path, capsys):
        # bounded_noise.ini: t_min = 2865 against a budget of 100 iterations
        path = next(p for p in DEMO_CONFIGS if p.stem == "bounded_noise")
        out = tmp_path / "out"
        assert run(str(path), str(out), trials=2, quiet=True) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "t_min = 2865" in err[0] and "max_iters = 100" in err[0]
        assert (out / "summary.csv").read_text().count("\n") == 1

    def test_silent_when_a_checkpoint_fits(self, tmp_path, capsys):
        config = write(tmp_path, "smoke.ini", SMOKE)
        assert run(config, str(tmp_path / "out"), quiet=True) == EXIT_OK
        assert capsys.readouterr().err == ""


class TestUnmetContract:
    """A config that declares exact answers of oracles that only estimate
    runs and exits 0, with one stderr line saying so."""

    def test_reported_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write(tmp_path, "exact.ini", EXACT_MINIBATCH)
        assert run(config, str(out), quiet=True) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("declared contract never met")
        assert "eps_g = kappa = 0" in err[0] and "eps_f_input = 0" in err[0]
        with open(out / "trials.csv") as fh:
            assert {row["frac_true"] for row in csv.DictReader(fh)} == {"0.0"}

    @pytest.mark.parametrize("kind, fixture, zeroth, first, more, claim", [
        ("minibatch", "logistic", ZerothOracleSpec(), FirstOracleSpec(eps_g=0.5),
         {}, "eps_f_input = 0 (exact values)"),
        # mode = bounded allows eps_f = 0, and then the slack is zero too
        ("minibatch", "logistic", ZerothOracleSpec(mode="bounded"),
         FirstOracleSpec(eps_g=0.5), {}, "eps_f_input = 0 (exact values)"),
        # the slack is the run's eps_f, not the zeroth oracle's mode
        ("minibatch", "logistic", ZerothOracleSpec(), FirstOracleSpec(eps_g=0.5),
         {"params": AloeParams(eps_f_input=0.05)}, None),
        ("minibatch", "logistic", ZerothOracleSpec(), FirstOracleSpec(eps_g=0.5),
         {"estimate_eps_f": True}, None),
        ("minibatch", "logistic", ZerothOracleSpec(eps_f=0.01, mode="bounded"),
         FirstOracleSpec(), {"params": AloeParams(eps_f_input=0.01)},
         "eps_g = kappa = 0 (exact gradients)"),
        ("gsg", "quadratic", ZerothOracleSpec(), FirstOracleSpec(), {},
         "eps_g = kappa = 0 (exact gradients)"),
        ("gsg", "quadratic", ZerothOracleSpec(), FirstOracleSpec(kappa=1.0), {},
         None),
        ("synthetic", "quadratic", ZerothOracleSpec(), FirstOracleSpec(), {},
         None),
    ])
    def test_each_claim(self, kind, fixture, zeroth, first, more, claim):
        config = ExperimentConfig(fixture=fixture, oracle_kind=kind,
                                  zeroth=zeroth, first=first, **more)
        assert unmet_contract(config) == claim

    @pytest.mark.parametrize("oracles, algorithm, unmet", [
        ("mode = bounded", "", True),
        ("", "eps_f_input = 0.05", False),
        ("", "estimate_eps_f = true", False),
    ])
    def test_value_slack_as_parsed(self, tmp_path, oracles, algorithm, unmet):
        # eps_f_input defaults to [oracles] eps_f = 0, whatever the mode
        text = EXACT_MINIBATCH.replace(
            "batch_size = 16\n", f"batch_size = 16\neps_g = 0.5\n{oracles}\n")
        text += f"[algorithm]\n{algorithm}\n"
        config = parse_config(write(tmp_path, "slack.ini", text))
        assert (unmet_contract(config) is not None) == unmet

    @pytest.mark.parametrize("path", DEMO_CONFIGS + WORKLOAD_CONFIGS,
                             ids=lambda p: p.stem)
    def test_shipped_configs_meet_theirs(self, path):
        assert unmet_contract(parse_config(str(path))) is None


class TestStatisticalFailures:
    def test_lemma_violation_reported(self, tmp_path, monkeypatch):
        # blocks of seeds 10, 11 and of seed 12; every trial is clean unless
        # planted, and one violation is planted in each block
        import aloe_lab.harness as harness_mod
        config = parse_config(write(tmp_path, "smoke.ini", SMOKE))
        config = dataclasses.replace(config, base_seed=10)
        monkeypatch.setattr(harness_mod, "BLOCK_CELLS",
                            2 * config.params.max_iters)
        run_block = harness_mod._run_trial_block

        def planted(config, constants, seeds):
            (seed, T, ft, fs, l2, l3, l4), trace = run_block(config, constants,
                                                             seeds)
            return (seed, T, ft, fs, l2 & (seed != 12), l3,
                    l4 & (seed != 10)), trace

        monkeypatch.setattr(harness_mod, "_run_trial_block", planted)
        assert statistical_failures(run_trials(config)) == [
            "path lemma violation on seeds [10, 12]"]

    def test_exit_one_on_statistical_failure(self, tmp_path, monkeypatch):
        import aloe_lab.cli as cli_mod
        monkeypatch.setattr(cli_mod, "statistical_failures",
                            lambda summary: ["planted failure"])
        config = write(tmp_path, "smoke.ini", SMOKE)
        assert run(config, str(tmp_path / "out"), quiet=True) == EXIT_STATISTICAL
