import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from aloe_lab import harness, linesearch
from aloe_lab.cli import write_trace_csv
from aloe_lab.estimation import EstimatorConfig
from aloe_lab.harness import (CertificationReport, ExperimentConfig,
                              InadmissibleConfigError, binom_cdf,
                              binomial_frequency_test, build_oracles,
                              build_problem, certify_oracles,
                              derive_experiment_constants, empirical_tail,
                              mgf_envelope_ok, run_trials, wilson_interval)
from aloe_lab.instrument import CENSORED, StoppingSpec
from aloe_lab.linesearch import AloeParams, Paths, aloe_run
from aloe_lab.oracles import (FirstOracleSpec, SyntheticFirstOracle,
                              SyntheticZerothOracle, ZerothOracleSpec,
                              gradient_accurate)
from aloe_lab.rng import probe_stream
from oracle_recorder import OracleRecorder


# TrialSummary's per-trial columns, one entry per trial in seed order
COLUMNS = ("seed", "T_eps", "frac_true", "frac_success", "lemma2_ok",
           "lemma3_ok", "lemma4_ok")


def assert_same_columns(a, b, rows=slice(None)):
    """Every per-trial column of summary a equals rows `rows` of b's."""
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name)[rows],
                                      err_msg=name)


def exact_config(**overrides):
    base = dict(
        fixture="quadratic",
        fixture_params={"dim": 10, "lambda_min": 0.1, "lambda_max": 10.0,
                        "seed": 7},
        zeroth=ZerothOracleSpec(),
        first=FirstOracleSpec(),
        params=AloeParams(max_iters=700),
        stopping=StoppingSpec(class_tag="nonconvex", eps=1e-3),
        n_trials=3,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestEmpiricalTail:
    def test_all_at_five(self):
        assert empirical_tail([5, 5, 5], 5) == 1.0

    def test_all_censored(self):
        assert empirical_tail([CENSORED, CENSORED], 100) == 0.0

    def test_mixed(self):
        assert empirical_tail([3, 7, CENSORED], 6) == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_tail([], 1)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_edges(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1.0

    def test_narrower_with_more_samples(self):
        lo1, hi1 = wilson_interval(30, 100)
        lo2, hi2 = wilson_interval(300, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_no_trials(self):
        with pytest.raises(ValueError, match="n >= 1"):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_confidence(self, confidence):
        with pytest.raises(ValueError):
            wilson_interval(30, 100, confidence)

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
    def test_matches_scipy_quantile(self, confidence):
        # the interval with z from scipy's normal quantile, as the reference
        z = float(scipy.stats.norm.ppf(1 - (1 - confidence) / 2))
        for k, n in ((30, 100), (1, 10), (700, 1000)):
            phat = k / n
            denom = 1 + z ** 2 / n
            center = (phat + z ** 2 / (2 * n)) / denom
            half = z / denom * math.sqrt(phat * (1 - phat) / n
                                         + z ** 2 / (4 * n ** 2))
            assert wilson_interval(k, n, confidence) == pytest.approx(
                (center - half, center + half), rel=1e-14, abs=0)


class TestConfigValidation:
    def test_unknown_fixture(self):
        with pytest.raises(ValueError):
            exact_config(fixture="rosenbrock")

    def test_checkpoints_beyond_budget(self):
        with pytest.raises(ValueError):
            exact_config(t_checkpoints=(10_000,))

    def test_negative_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoints must be >= 0"):
            exact_config(t_checkpoints=(-5, 3))

    @pytest.mark.parametrize("s", [-0.5, math.nan, math.inf])
    def test_s_must_be_finite_and_nonnegative(self, s):
        with pytest.raises(ValueError, match="s must be finite and >= 0"):
            exact_config(s=s)

    def test_checkpoint_zero_allowed(self):
        # T_eps = 0 is a stopping time: x_0 may already meet the criterion
        assert exact_config(t_checkpoints=(0, 3)).t_checkpoints == (0, 3)


class TestRunTrials:
    def test_exact_single_trial_step_tail(self):
        config = exact_config(n_trials=1, t_checkpoints=(100, 700),
                              check_admissibility=True)
        summary = run_trials(config)
        t = summary.T_eps[0]
        assert t != CENSORED
        samples = summary.T_eps
        assert empirical_tail(samples, t - 1) == 0.0
        assert empirical_tail(samples, t) == 1.0

    def test_replay_determinism(self):
        config = exact_config()
        a = run_trials(config)
        b = run_trials(config)
        assert_same_columns(a, b)
        assert a.checkpoints == b.checkpoints
        assert a.empirical_tails == b.empirical_tails

    def test_jobs_do_not_change_results(self):
        config = exact_config(n_trials=4)
        assert_same_columns(run_trials(config, n_jobs=1),
                            run_trials(config, n_jobs=2))

    def test_lemmas_pass_on_exact_runs(self):
        summary = run_trials(exact_config())
        assert summary.lemma_pass_count == 3
        assert summary.n_censored == 0

    def test_inadmissible_refused(self):
        config = exact_config(
            zeroth=ZerothOracleSpec(eps_f=1e-2, mode="bounded", mean_error=5e-3),
            first=FirstOracleSpec(eps_g=1e-2, kappa=1.0, delta=0.1),
            params=AloeParams(eps_f_input=1e-2, max_iters=100),
            stopping=StoppingSpec(class_tag="nonconvex", eps=1e-6),
        )
        with pytest.raises(InadmissibleConfigError):
            run_trials(config)

    def test_empirical_tail_nondecreasing_at_checkpoints(self):
        config = exact_config(n_trials=2, t_checkpoints=(100, 300, 700))
        summary = run_trials(config)
        tails = list(summary.empirical_tails)
        assert tails == sorted(tails)


def recorded_blocks(monkeypatch) -> list:
    """Records the `Paths` of every block `run_trials` runs."""
    blocks = []
    run = harness.run_lockstep

    def recorded_run(*args, **kwargs):
        blocks.append(run(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(harness, "run_lockstep", recorded_run)
    return blocks


def noisy_config(kind, **overrides):
    """Small configs of each oracle family; the mini-batch one refreshes
    its slack with the noise estimator."""
    base = dict(
        zeroth=ZerothOracleSpec(eps_f=0.01, mode="bounded"),
        first=FirstOracleSpec(eps_g=0.01, kappa=0.5, delta=0.2),
        params=AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=60),
        stopping=StoppingSpec(class_tag="nonconvex", eps=0.5),
        check_admissibility=False, oracle_kind=kind)
    if kind == "minibatch":
        base.update(
            fixture="logistic",
            fixture_params={"n_samples": 64, "dim": 4, "seed": 3, "reg": 0.01},
            first=FirstOracleSpec(eps_g=0.5, kappa=1.0, delta=0.1),
            stopping=StoppingSpec(class_tag="strongly_convex", eps=0.05),
            oracle_params={"batch_size": 8}, estimate_eps_f=True,
            estimator=EstimatorConfig(n_calls=5, refresh_period=10))
    elif kind == "gsg":
        base.update(oracle_params={"sigma": 0.01, "num_directions": 8})
    base.update(overrides)
    return exact_config(**base)


class TestBlockComposition:
    """Trials run in lockstep blocks; a trial's row, its row of `Paths` and
    what its oracles were handed are the same whether it runs alone or as
    one row of a block."""

    @staticmethod
    def recorded(monkeypatch):
        """Records the oracles and the `Paths` of every block `run_trials`
        runs."""
        recorders = []
        build = harness.build_oracles

        def recorded_oracles(*args):
            rec = OracleRecorder(*build(*args))
            recorders.append(rec)
            return rec.zeroth, rec.first

        monkeypatch.setattr(harness, "build_oracles", recorded_oracles)
        return recorders, recorded_blocks(monkeypatch)

    @pytest.mark.parametrize("kind", ["synthetic", "minibatch", "gsg"])
    def test_alone_and_in_a_block(self, kind, monkeypatch):
        # rows leave the 9-row block at the first chunk end at or after
        # their stopping time, or where the block's last row stops.  At the
        # default capacity one chunk spans the block, which ends at 43 on
        # synthetic, at 15 on minibatch and at 60 on gsg, where row 7 never
        # stops, so no row leaves early.  Chunks of 450 cells (5 iterations
        # of nine 10-dim rows, 12 of 4-dim ones) make rows leave mid-block:
        # rows 0 and 5 leave at 27 and 20 on synthetic, 12 and 15 on
        # minibatch, 40 and 60 on gsg.  A row alone leaves at its own
        # stopping time, and up to there it is its row of the block.  Row 0
        # is the base seed in both runs, and its trace is its row up to
        # T_eps.
        recorders, blocks = self.recorded(monkeypatch)
        config = noisy_config(kind, n_trials=9, base_seed=40)
        T = config.params.max_iters
        block = run_trials(config)
        stops = np.where(block.T_eps == CENSORED, T, block.T_eps)
        last = {"synthetic": 43, "minibatch": 15, "gsg": 60}[kind]
        assert stops.max() == last
        assert blocks[0].alpha.shape == (9, last)
        assert np.isfinite(blocks[0].alpha).all()
        recorders.clear()
        blocks.clear()
        monkeypatch.setattr(linesearch, "CHUNK_CELLS", 450)
        block = run_trials(config)
        (in_block,), (paths,) = recorders, blocks
        ran = np.isfinite(paths.alpha)
        exits = ran.sum(axis=1)
        assert exits.max() == last and exits.min() < last
        want = {"synthetic": [27, 20], "minibatch": [12, 15],
                "gsg": [40, 60]}[kind]
        assert exits[[0, 5]].tolist() == want
        for row in (5, 0):
            recorders.clear()
            blocks.clear()
            alone = run_trials(dataclasses.replace(config, n_trials=1,
                                                   base_seed=40 + row))
            assert_same_columns(alone, block, slice(row, row + 1))
            e = int(stops[row])
            assert e < exits[row]
            # alone, the row's block is e iterations wide, every cell reached;
            # in the 9-row block the row runs on to its exit, and its cells
            # past there hold their past-exit values
            assert blocks[0].alpha.shape == (1, e)
            assert np.isfinite(blocks[0].alpha).all()
            for f in dataclasses.fields(Paths)[1:]:
                a, b = getattr(blocks[0], f.name)[0], getattr(paths, f.name)[row]
                wide = len(b) > paths.alpha.shape[1]
                assert len(a) == e + wide, f.name
                assert a.tobytes() == b[:len(a)].tobytes(), f.name
                past = {"exponents": linesearch.UNREACHED, "success": False}
                np.testing.assert_array_equal(b[exits[row] + wide:],
                                              past.get(f.name, np.nan))
            for name in ("x", "g", "grad_true", "phi_plus"):
                np.testing.assert_array_equal(
                    recorders[0].column(name)[0],
                    in_block.column(name, ran)[row, :e], err_msg=name)
            t = int(alone.T_eps[0])
            assert alone.trace.seeds == (40 + row,)
            assert alone.trace.alpha.shape[1] == (T if t == CENSORED else t)
        # the trace is the base seed's row of Paths up to T_eps, seed 40 alone
        for f in dataclasses.fields(alone.trace):
            np.testing.assert_array_equal(getattr(alone.trace, f.name),
                                          getattr(block.trace, f.name),
                                          err_msg=f.name, strict=True)

    @pytest.mark.parametrize("kind", ["synthetic", "minibatch", "gsg"])
    def test_the_base_seed_is_classified_as_any_row(self, kind, monkeypatch):
        # chunks of a few iterations, so rows leave mid-run: seed 40 runs
        # the whole budget as the base seed and leaves at its stopping
        # time as a row of the run from seed 39, with the same verdicts
        monkeypatch.setattr(linesearch, "CHUNK_CELLS", 3 * 10 * 4)
        config = noisy_config(kind, n_trials=5, base_seed=40)
        base = run_trials(config)
        other = run_trials(dataclasses.replace(config, n_trials=6, base_seed=39))
        assert_same_columns(base, other, slice(1, None))
        assert base.trace.seeds == (40,)
        assert (base.T_eps != CENSORED).all() and base.T_eps.min() > 0
        assert other.T_eps[1] < config.params.max_iters - 10

    def test_blocks_do_not_change_results(self, monkeypatch):
        config = noisy_config("synthetic", n_trials=7)
        whole = run_trials(config)
        monkeypatch.setattr(harness, "BLOCK_CELLS", 3 * config.params.max_iters)
        split = run_trials(config)
        assert_same_columns(split, whole)
        np.testing.assert_array_equal(split.trace.exponents,
                                      whole.trace.exponents)

    def test_blocks_over_workers_join_in_seed_order(self, monkeypatch):
        # blocks of 2, 2, 2 and 1 trials over two worker processes
        config = noisy_config("synthetic", n_trials=7, base_seed=30)
        whole = run_trials(config)
        monkeypatch.setattr(harness, "BLOCK_CELLS", 2 * config.params.max_iters)
        split = run_trials(config, n_jobs=2)
        assert_same_columns(split, whole)
        np.testing.assert_array_equal(split.seed, 30 + np.arange(7))

    @pytest.mark.parametrize("n_jobs, n_trials, sized", [
        (3, 2, [2]), (2, 1, []), (2, 3, [2])])
    def test_the_pool_is_sized_by_the_blocks(self, monkeypatch, n_jobs,
                                             n_trials, sized):
        # a forked pool starts every worker it is sized for, so a run sizes
        # it min(n_jobs, blocks) and starts none for one block; the pool
        # here runs its blocks in this process and records its size
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        config = noisy_config("synthetic", n_trials=n_trials)
        pooled = run_trials(config, n_jobs=n_jobs)
        assert pools == sized
        assert_same_columns(pooled, run_trials(config))


class TestBaseSeedTrace:
    """The trace is the base seed's row of `Paths` up to its T_eps, whatever
    the other rows of its block do: the whole budget when it is censored,
    no iteration when x_0 meets the criterion."""

    def test_censored_base_seed_keeps_the_budget(self):
        # ||grad phi|| stays above 0.15 on seed 40 (its least is 0.183) and
        # falls below it on five of the other eight rows; the block is one
        # chunk of the whole budget, so they run on to its end with seed 40
        config = noisy_config("synthetic", n_trials=9, base_seed=40,
                              stopping=StoppingSpec("nonconvex", eps=0.15))
        summary = run_trials(config)
        assert summary.T_eps[0] == CENSORED
        assert np.count_nonzero(summary.T_eps != CENSORED) == 5
        problem, dataset = build_problem(config)
        full = aloe_run(problem, *build_oracles(config, problem, dataset),
                        config.params, 40)
        assert summary.trace.alpha.shape == (1, config.params.max_iters)
        for f in dataclasses.fields(Paths):
            np.testing.assert_array_equal(getattr(summary.trace, f.name),
                                          getattr(full, f.name),
                                          err_msg=f.name, strict=True)

    def test_stopped_at_the_start_writes_the_header_alone(self, tmp_path):
        config = noisy_config("synthetic", n_trials=3,
                              stopping=StoppingSpec("nonconvex", eps=1e6))
        summary = run_trials(config)
        assert (summary.T_eps == 0).all()
        problem = build_problem(config)[0]
        assert summary.trace.alpha.shape == (1, 0)
        assert summary.trace.phi.tolist() == [[problem.value(problem.x0)]]
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), summary.trace)
        assert path.read_bytes() == (b"k,alpha,f_curr,f_plus,success,e_curr,"
                                     b"e_plus,grad_true_norm,phi_curr,eps_f\r\n")


class TestGroundTruthBudget:
    """Ground truth is evaluated once per point of the trial-iterations
    run.  A stacked call counts one row per point."""

    @staticmethod
    def counted_rows(monkeypatch, config):
        """Runs `config`; returns the rows of phi and grad phi evaluated,
        the trial-iterations run and the accepted ones among them."""
        rows = {"value": 0, "grad": 0}

        def counted(kind, fn):
            def wrapper(X):
                rows[kind] += len(X)
                return fn(X)
            return wrapper

        build = harness.build_problem

        def counted_build(config):
            problem, dataset = build(config)
            return dataclasses.replace(
                problem, value_fn=counted("value", problem.value_fn),
                grad_fn=counted("grad", problem.grad_fn)), dataset

        monkeypatch.setattr(harness, "build_problem", counted_build)
        blocks = recorded_blocks(monkeypatch)
        run_trials(config)
        (paths,) = blocks
        iters = int(np.isfinite(paths.alpha).sum())
        assert iters < config.n_trials * config.params.max_iters
        return rows, iters, int(paths.success.sum())

    def test_rows_evaluated_on_a_small_logistic_run(self, monkeypatch):
        # phi: once for the constants, once at the shared start, once per
        # trial-iteration run at x+; grad phi: once at the start and once
        # per accepted step run.  Rows leave at the first chunk end after
        # their stopping time or where the block's last row stops; this
        # run measured 29 and 25 rows.
        rows, iters, accepted = self.counted_rows(
            monkeypatch, noisy_config("minibatch", n_trials=3))
        assert rows["value"] == 2 + iters
        assert rows["grad"] == 1 + accepted
        assert rows["value"] <= 29 and rows["grad"] <= 25

    def test_gradient_rows_on_a_gsg_run(self, monkeypatch):
        # no GSG oracle reads grad phi but the nonconvex criterion does, so
        # the loop evaluates it at each accepted x+ it runs, and nowhere
        # else but the shared start
        rows, iters, accepted = self.counted_rows(
            monkeypatch, noisy_config("gsg", n_trials=3))
        assert 0 < accepted < iters
        assert rows["grad"] == 1 + accepted


class TestCapBelowCriticalStep:
    """A cap at or below the snapped critical step makes every iteration
    small, and Lemma 3 then fails on every path; the gate refuses it."""

    @staticmethod
    def config(alpha0, alpha_max, **overrides):
        return exact_config(
            fixture_params={"dim": 5, "lambda_min": 0.1, "lambda_max": 10.0,
                            "seed": 0},
            params=AloeParams(alpha0=alpha0, alpha_max=alpha_max, max_iters=120),
            n_trials=2, **overrides)

    @pytest.mark.parametrize("alpha0,alpha_max", [(0.05, 0.0625), (0.15, 0.18)],
                             ids=["cap_below", "cap_at"])
    def test_refused(self, alpha0, alpha_max):
        config = self.config(alpha0, alpha_max)
        problem, _ = build_problem(config)
        ok, reasons = derive_experiment_constants(config, problem).admissible()
        assert not ok and any("cap exponent" in r for r in reasons)
        with pytest.raises(InadmissibleConfigError, match="cap exponent"):
            run_trials(config)
        # what the gate prevents: no trial is lemma-clean
        summary = run_trials(self.config(alpha0, alpha_max,
                                         check_admissibility=False))
        assert not summary.lemma3_ok.any()

    def test_cap_above_passes(self):
        config = self.config(0.15, 0.19)
        problem, _ = build_problem(config)
        assert derive_experiment_constants(config, problem).admissible()[0]
        assert run_trials(config).lemma3_ok.all()


class TestStartBelowCriticalStep:
    """A start below the snapped critical step (grid_index < 0) climbs to it
    through small true successes, which Lemma 3's count does not allow for;
    the gate refuses it."""

    def test_refused(self):
        # alpha0 = 0.05 is five grid steps below bar_alpha_grid = 0.153;
        # the cap 0.2 lies above it, so only the start is at fault
        config = TestCapBelowCriticalStep.config(0.05, 0.2)
        problem, _ = build_problem(config)
        ok, reasons = derive_experiment_constants(config, problem).admissible()
        assert not ok
        assert reasons == [reasons[0]] and "grid_index -5 < 0" in reasons[0]
        with pytest.raises(InadmissibleConfigError, match="grid_index -5 < 0"):
            run_trials(config)
        # what the gate prevents: no trial is lemma-clean
        summary = run_trials(TestCapBelowCriticalStep.config(
            0.05, 0.2, check_admissibility=False))
        assert not (summary.lemma3_ok | summary.lemma4_ok).any()


class TestBinomialTest:
    def test_on_target_passes(self):
        assert binomial_frequency_test(9000, 10000, 0.9)

    def test_far_below_fails(self):
        assert not binomial_frequency_test(8500, 10000, 0.9)

    def test_target_one_requires_perfection(self):
        assert binomial_frequency_test(100, 100, 1.0)
        assert not binomial_frequency_test(99, 100, 1.0)

    @pytest.mark.parametrize("successes, n", [(-1, 10), (11, 10), (0, 0)])
    def test_invalid_counts(self, successes, n):
        with pytest.raises(ValueError):
            binomial_frequency_test(successes, n, 0.9)


def binomial_grid():
    """(k, n, p) over n in {10, 200, 10 000}, five success probabilities
    and a sweep of k from below 0 to above n."""
    for n in (10, 200, 10_000):
        ks = sorted({*range(-2, min(n, 60) + 1),
                     *np.linspace(0, n, 300).astype(int).tolist(), n, n + 1})
        for p in (0.5, 0.7, 0.9, 0.95, 0.99):
            for k in ks:
                yield k, n, p


class TestBinomCdf:
    def test_matches_scipy(self):
        for k, n, p in binomial_grid():
            ref = float(scipy.stats.binom.cdf(k, n, p))
            if ref > 1e-300:
                assert binom_cdf(k, n, p) == pytest.approx(ref, rel=1e-9), (k, n, p)

    def test_same_decision_as_scipy(self):
        for k, n, p in binomial_grid():
            if 0 <= k <= n:
                ref = bool(scipy.stats.binom.cdf(k, n, p) >= 0.01)
                assert binomial_frequency_test(k, n, p) == ref, (k, n, p)

    def test_edges(self):
        assert binom_cdf(-1, 10, 0.5) == 0.0
        assert binom_cdf(10, 10, 0.5) == 1.0
        assert binom_cdf(11, 10, 0.5) == 1.0
        assert binom_cdf(0, 1, 0.25) == pytest.approx(0.75, rel=1e-15)


class TestMgfEnvelope:
    def test_compliant_exponential(self):
        rng = np.random.default_rng(0)
        m = 0.05
        samples = rng.exponential(m, size=100_000)
        # exponential(m) is (2m, 2m)-sub-exponential
        assert mgf_envelope_ok(samples, nu=2 * m, b=2 * m)

    def test_violating_heavy_noise(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(1.0, size=100_000)
        assert not mgf_envelope_ok(samples, nu=0.01, b=0.01)

    def test_degenerate(self):
        assert mgf_envelope_ok(np.full(10, 0.3), nu=0.0, b=0.0)


class TestCertification:
    @staticmethod
    def problem_and_oracles(zspec, fspec):
        config = exact_config(zeroth=zspec, first=fspec,
                              params=AloeParams(eps_f_input=zspec.eps_f,
                                                max_iters=10))
        problem, dataset = build_problem(config)
        zeroth, first = build_oracles(config, problem, dataset)
        return problem, zeroth, first

    def test_exact_oracles_pass(self):
        zspec, fspec = ZerothOracleSpec(), FirstOracleSpec()
        problem, zeroth, first = self.problem_and_oracles(zspec, fspec)
        probes = [np.ones(10), -np.ones(10)]
        report = certify_oracles(problem, zeroth, first, zspec, fspec,
                                 probes, alphas=(0.5,), n_queries=200)
        assert report.all_passed

    def test_planted_double_failure_rate_fails(self):
        # oracle drawn with delta = 0.2 certified against delta = 0.1
        zspec = ZerothOracleSpec()
        actual = FirstOracleSpec(eps_g=1e-3, kappa=0.5, delta=0.2)
        claimed = FirstOracleSpec(eps_g=1e-3, kappa=0.5, delta=0.1)
        problem, zeroth, first = self.problem_and_oracles(zspec, actual)
        probes = [np.ones(10)]
        report = certify_oracles(problem, zeroth, first, zspec, claimed,
                                 probes, alphas=(0.5,), n_queries=5000)
        assert not report.all_passed

    def test_compliant_noisy_oracles_pass(self):
        zspec = ZerothOracleSpec(eps_f=0.1, nu=0.05, b=0.05,
                                 mode="subexponential", mean_error=0.05)
        fspec = FirstOracleSpec(eps_g=0.05, kappa=0.5, delta=0.1)
        problem, zeroth, first = self.problem_and_oracles(zspec, fspec)
        probes = [np.ones(10), np.zeros(10)]
        report = certify_oracles(problem, zeroth, first, zspec, fspec,
                                 probes, alphas=(0.3, 1.0), n_queries=4000)
        assert report.all_passed
        assert isinstance(report, CertificationReport)

    def test_stacked_queries_replay_one_point_queries(self):
        # 1500 queries per probe: a full block and a rest
        zspec = ZerothOracleSpec(eps_f=0.1, nu=0.05, b=0.05,
                                 mode="subexponential", mean_error=0.05)
        fspec = FirstOracleSpec(eps_g=0.05, kappa=0.5, delta=0.1)
        problem, zeroth, first = self.problem_and_oracles(zspec, fspec)
        x, n = np.ones(10), 1500
        report = certify_oracles(problem, zeroth, first, zspec, fspec, [x],
                                 alphas=(0.5,), n_queries=n, base_seed=3)
        # the same queries as n stacks of one, one after another
        stream = probe_stream(3, 0)
        phi, grad = problem.values(x[None]), problem.gradients(x[None])
        errors = np.concatenate([np.abs(zeroth(x[None], stream) - phi)
                                 for _ in range(n)])
        hits = sum(int(gradient_accurate(first(x[None], 0.5, stream), grad, 0.5,
                                         fspec.eps_g, fspec.kappa)[0])
                   for _ in range(n))
        assert report.results[0].statistic == errors.mean()
        assert report.results[-1].statistic == hits / n

    @pytest.mark.parametrize("n_queries", [0, 1])
    def test_too_few_queries_rejected(self, n_queries):
        zspec, fspec = ZerothOracleSpec(), FirstOracleSpec()
        problem, zeroth, first = self.problem_and_oracles(zspec, fspec)
        with pytest.raises(ValueError):
            certify_oracles(problem, zeroth, first, zspec, fspec,
                            [np.ones(10)], alphas=(0.5,), n_queries=n_queries)
