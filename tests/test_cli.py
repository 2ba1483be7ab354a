import csv
import hashlib
import json
import os
from pathlib import Path

import pytest

from aloe_lab.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_STATISTICAL,
                          main, run, statistical_failures, write_trace_csv)
from aloe_lab.config import ConfigError, config_digest, parse_config
from aloe_lab.harness import TrialRow, run_trials
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

DEMO_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.ini"))


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

    def test_negative_seed_override_exit_two(self, tmp_path):
        config = write(tmp_path, "smoke.ini", SMOKE)
        out = str(tmp_path / "out")
        assert main(["--config", config, "--out", out, "--quiet",
                     "--seed", "-1"]) == EXIT_CONFIG
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
                f, phi = zeroth(x, rng, phi)
                return np.where(np.arange(len(f)) == 2, np.nan, f), phi
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
        # the eps_f controller re-estimates the slack every 8 iterations, so
        # a trace.csv written without it would show a constant eps_f column
        config = write(tmp_path, "logistic.ini", LOGISTIC_ESTIMATED)
        out = tmp_path / "out"
        assert run(config, str(out), quiet=True) == EXIT_OK
        with open(out / "trace.csv", newline="") as fh:
            eps_f = {row["eps_f"] for row in csv.DictReader(fh)}
        assert len(eps_f) > 1
        ref = tmp_path / "ref.csv"
        write_trace_csv(str(ref), run_trials(parse_config(config)).trace)
        assert (out / "trace.csv").read_bytes() == ref.read_bytes()


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


class TestDemoConfigs:
    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
    def test_runs_clean(self, tmp_path, path):
        out = tmp_path / "out"
        assert run(str(path), str(out), trials=2, quiet=True) == EXIT_OK
        assert set(os.listdir(out)) == {"manifest.json", "constants.txt",
                                        "trials.csv", "summary.csv",
                                        "trace.csv"}
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == parse_config(str(path)).params.max_iters


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
            "0x1.b5655319e70cdp+1", "0x1.cd51d0196478ap+4")


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


class TestStatisticalFailures:
    def test_lemma_violation_reported(self, tmp_path):
        config = parse_config(write(tmp_path, "smoke.ini", SMOKE))
        summary = run_trials(config)
        assert statistical_failures(summary) == []
        bad_row = TrialRow(seed=0, T_eps=5, censored=False, frac_true=1.0,
                           frac_success=0.5, lemma2_ok=False, lemma3_ok=True,
                           lemma4_ok=True)
        import dataclasses
        broken = dataclasses.replace(summary, rows=(bad_row,) + summary.rows[1:])
        failures = statistical_failures(broken)
        assert failures and "lemma" in failures[0]

    def test_exit_one_on_statistical_failure(self, tmp_path, monkeypatch):
        import aloe_lab.cli as cli_mod
        monkeypatch.setattr(cli_mod, "statistical_failures",
                            lambda summary: ["planted failure"])
        config = write(tmp_path, "smoke.ini", SMOKE)
        assert run(config, str(tmp_path / "out"), quiet=True) == EXIT_STATISTICAL
