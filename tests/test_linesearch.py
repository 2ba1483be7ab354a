import dataclasses

import numpy as np
import pytest

from aloe_lab import rng as rngmod
from aloe_lab.estimation import EpochEpsFController, EstimatorConfig
from aloe_lab.harness import certify_oracles
from aloe_lab.linesearch import (AloeParams, Paths, Trace, TrialDivergedError,
                                 aloe_run, armijo_check, run_lockstep,
                                 step_update)
from aloe_lab.oracles import (FirstOracleSpec, GsgFirstOracle,
                              MiniBatchFirstOracle, MiniBatchZerothOracle,
                              SyntheticFirstOracle, SyntheticZerothOracle,
                              ZerothOracleSpec)
from aloe_lab.problems import (make_strongly_convex_quadratic,
                               make_synthetic_logistic)


def exact_oracles(problem):
    return (SyntheticZerothOracle(problem, ZerothOracleSpec()),
            SyntheticFirstOracle(problem, FirstOracleSpec()))


@pytest.fixture(scope="module")
def identity_quadratic():
    return make_strongly_convex_quadratic(
        dim=2, lambda_min=1.0, lambda_max=1.0, seed=0,
        x0=np.array([1.0, 0.0]))


@pytest.fixture(scope="module")
def quadratic10():
    return make_strongly_convex_quadratic(dim=10, lambda_min=0.1,
                                          lambda_max=10.0, seed=7)


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        {"eps_f_input": -0.1},
        {"alpha0": 0.0},
        {"alpha0": 2.0, "alpha_max": 1.0},
        {"theta": 0.0},
        {"theta": 1.0},
        {"gamma": 1.0},
        {"gamma": 0.0},
        {"max_iters": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AloeParams(**kwargs)

    def test_defaults(self):
        p = AloeParams()
        assert (p.alpha0, p.alpha_max, p.theta, p.gamma) == (1.0, 10.0, 0.2, 0.8)


class TestArmijo:
    def test_tie_accepted(self):
        assert armijo_check(0.3, 0.5, 1.0, 0.2, 1.0, 0.0)

    def test_reject_above(self):
        assert not armijo_check(0.31, 0.5, 1.0, 0.2, 1.0, 0.0)

    def test_slack_rescues(self):
        assert armijo_check(0.31, 0.5, 1.0, 0.2, 1.0, 0.01)


class TestStepUpdate:
    # exponents of alpha0 * gamma^i: a smaller exponent is a larger step
    def test_success_grows(self):
        assert step_update(0, True, -10) == -1

    def test_success_capped(self):
        assert step_update(-10, True, -10) == -10

    def test_failure_shrinks(self):
        assert step_update(0, False, -10) == 1


class TestExactRun:
    def test_one_step_to_minimum(self, identity_quadratic):
        # phi = ||x||^2 / 2, x0 = (1,0), alpha0 = 1: g = (1,0),
        # phi(x - g) = 0 <= 0.5 - 0.2 so the first step lands on the minimum
        zeroth, first = exact_oracles(identity_quadratic)
        params = AloeParams(alpha0=1.0, alpha_max=10.0, theta=0.2,
                            gamma=0.8, max_iters=1)
        trace = aloe_run(identity_quadratic, zeroth, first, params, seed=0)
        assert trace.paths.success[0, 0]
        np.testing.assert_array_equal(trace.g[0], [1.0, 0.0])
        assert trace.f_plus[0] == 0.0
        assert trace.phi_plus[0] == 0.0

    def test_monotone_descent(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)
        params = AloeParams(max_iters=300)
        trace = aloe_run(quadratic10, zeroth, first, params, seed=0)
        phis = trace.paths.phi[0]
        assert np.all(np.diff(phis) <= 1e-15)

    def test_matches_deterministic_reference(self, quadratic10):
        # independent plain Armijo backtracking loop, stepped by hand
        zeroth, first = exact_oracles(quadratic10)
        params = AloeParams(max_iters=200)
        trace = aloe_run(quadratic10, zeroth, first, params, seed=3)

        x = quadratic10.x0.copy()
        i = 0
        for alpha_k, success_k, x_k in zip(trace.paths.alpha[0],
                                           trace.paths.success[0], trace.x):
            alpha = params.alpha0 * params.gamma ** i
            g = quadratic10.gradient(x)
            x_try = x - alpha * g
            ok = (quadratic10.value(x_try)
                  <= quadratic10.value(x) - alpha * params.theta * g @ g)
            assert alpha_k == alpha
            assert success_k == ok
            np.testing.assert_array_equal(x_k, x)
            if ok:
                x = x_try
                # the cap alpha_max = 10 snaps to 0.8^-10 = 9.31
                i = max(i - 1, -10)
            else:
                i += 1

    def test_alphas_stay_in_range(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)
        trace = aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=200), seed=1)
        alphas = trace.paths.alpha[0]
        assert np.all(alphas > 0)
        assert np.all(alphas <= 10.0)


class TestDeterminism:
    def test_replay_bit_identical(self, quadratic10):
        spec = ZerothOracleSpec(eps_f=0.01, mode="bounded")
        fspec = FirstOracleSpec(eps_g=0.01, kappa=0.5, delta=0.05)
        params = AloeParams(eps_f_input=0.01, max_iters=100)

        def one_run():
            zeroth = SyntheticZerothOracle(quadratic10, spec)
            first = SyntheticFirstOracle(quadratic10, fspec)
            return aloe_run(quadratic10, zeroth, first, params, seed=42)

        a, b = one_run(), one_run()
        np.testing.assert_array_equal(a.paths.alpha, b.paths.alpha)
        for name in ("f_curr", "f_plus", "g", "x"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self, quadratic10):
        spec = ZerothOracleSpec(eps_f=0.01, mode="bounded")
        zeroth = SyntheticZerothOracle(quadratic10, spec)
        first = SyntheticFirstOracle(quadratic10, FirstOracleSpec())
        params = AloeParams(eps_f_input=0.01, max_iters=20)
        a = aloe_run(quadratic10, zeroth, first, params, seed=0)
        b = aloe_run(quadratic10, zeroth, first, params, seed=1)
        assert not np.array_equal(a.f_curr, b.f_curr)


class TestTrace:
    @pytest.mark.parametrize("alpha_max", [0.01 * 0.8 ** -7, 0.05],
                             ids=["cap_on_grid", "cap_off_grid"])
    def test_exponents(self, quadratic10, alpha_max):
        # alpha0 = 0.01 starts well below the accepted steps (~0.16), so
        # the path climbs to the cap 0.01 * 0.8^-7 = 0.0477
        zspec = ZerothOracleSpec(eps_f=0.01, mode="bounded")
        fspec = FirstOracleSpec(eps_g=0.01, kappa=0.5, delta=0.2)
        params = AloeParams(eps_f_input=0.01, alpha0=0.01, alpha_max=alpha_max,
                            max_iters=60)
        trace = aloe_run(quadratic10, SyntheticZerothOracle(quadratic10, zspec),
                         SyntheticFirstOracle(quadratic10, fspec), params, seed=0)
        i = trace.paths.exponents[0].tolist()
        assert len(i) == len(trace) + 1 and i[0] == 0
        assert min(i) == -7
        for k, (alpha, success) in enumerate(zip(trace.paths.alpha[0],
                                                 trace.paths.success[0])):
            assert i[k + 1] == (max(i[k] - 1, -7) if success else i[k] + 1)
            assert alpha == 0.01 * 0.8 ** i[k]

    def test_len(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)
        trace = aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=7), seed=0)
        assert len(trace) == 7


class TestDivergence:
    def test_non_finite_oracle_aborts(self, quadratic10):
        class NanOracle:
            def __call__(self, x, rng, phi=None):
                return float("nan"), None

        first = SyntheticFirstOracle(quadratic10, FirstOracleSpec())
        with pytest.raises(TrialDivergedError):
            aloe_run(quadratic10, NanOracle(), first, AloeParams(max_iters=5), seed=0)

    def test_the_diverged_row_names_its_seed(self, quadratic10):
        zeroth = SyntheticZerothOracle(
            quadratic10, ZerothOracleSpec(eps_f=0.01, mode="bounded"))

        def nan_in_row_2(x, rng, phi=None):
            f, phi = zeroth(x, rng, phi)
            return np.where(np.arange(len(f)) == 2, np.nan, f), phi

        first = SyntheticFirstOracle(quadratic10, FirstOracleSpec())
        with pytest.raises(TrialDivergedError, match=r"iteration 0 \(seed 9\)"):
            run_lockstep(quadratic10, nan_in_row_2, first,
                         AloeParams(max_iters=5), [7, 8, 9, 10])


class TestLockstep:
    """A trial's path does not depend on the block it runs in: its row of a
    block of nine replays its run alone bit for bit, for every oracle
    family, with the noise estimator refreshing the mini-batch runs."""

    @staticmethod
    def family(name, quadratic):
        zspec = ZerothOracleSpec(eps_f=0.01, mode="bounded")
        if name == "synthetic":
            return quadratic, SyntheticZerothOracle(quadratic, zspec), \
                SyntheticFirstOracle(quadratic, FirstOracleSpec(
                    eps_g=0.01, kappa=0.5, delta=0.2)), None
        if name == "gsg":
            zeroth = SyntheticZerothOracle(quadratic, zspec)
            return quadratic, zeroth, GsgFirstOracle(
                quadratic, zeroth, sigma=0.01, num_directions=8), None
        problem, dataset = make_synthetic_logistic(n_samples=64, dim=4, seed=3)
        zeroth = MiniBatchZerothOracle(problem, dataset, 8)
        return problem, zeroth, MiniBatchFirstOracle(problem, dataset, 8), \
            EstimatorConfig(n_calls=5, refresh_period=10)

    @staticmethod
    def assert_same_trace(a, b):
        # every column of the Trace and of its one-row Paths
        for ta, tb in ((a, b), (a.paths, b.paths)):
            for f in dataclasses.fields(ta):
                va, vb = getattr(ta, f.name), getattr(tb, f.name)
                if isinstance(va, np.ndarray):
                    assert va.dtype == vb.dtype, f.name
                    np.testing.assert_array_equal(va, vb, err_msg=f.name)
                elif not isinstance(va, Paths):
                    assert va == vb, f.name

    @pytest.mark.parametrize("name", ["synthetic", "minibatch_estimated", "gsg"])
    def test_row_of_a_block_is_the_trial_alone(self, quadratic10, name):
        problem, zeroth, first, estimator = self.family(name, quadratic10)

        def controller():
            return None if estimator is None else EpochEpsFController(zeroth, estimator)

        params = AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=40)
        alone = aloe_run(problem, zeroth, first, params, 21,
                         eps_f_controller=controller())
        paths, in_block = run_lockstep(problem, zeroth, first, params,
                                       range(18, 27), controller(), trace_row=3)
        assert len(paths.seeds) == 9 and paths.seeds[3] == 21
        assert 0 < alone.paths.success.sum() < len(alone)
        self.assert_same_trace(alone, in_block)
        if estimator is not None:
            assert len(set(alone.paths.eps_f[0].tolist())) == 4

    def test_rows_differ(self, quadratic10):
        problem, zeroth, first, _ = self.family("synthetic", quadratic10)
        paths, _ = run_lockstep(problem, zeroth, first,
                                AloeParams(eps_f_input=0.01, max_iters=20), [1, 2])
        assert not np.array_equal(paths.e_sum[0], paths.e_sum[1])


class TestEpsFController:
    def test_controller_values_recorded(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)

        def controller(k, x, stream, phi):
            return 0.5 if k < 10 else 0.25

        trace = aloe_run(quadratic10, zeroth, first,
                         AloeParams(max_iters=20), seed=0,
                         eps_f_controller=controller)
        assert trace.paths.eps_f[0].tolist() == [0.5] * 10 + [0.25] * 10


class TestGroundTruthFromOracleLogs:
    """The loop records the exact values the oracles return next to their
    estimates; they must equal the problem's own value and gradient bit for
    bit, at x and at x - alpha g, for every oracle family.  The check calls
    value_fn / grad_fn, not value / gradient, so that it does not read the
    memo the loop filled."""

    @staticmethod
    def noisy_oracles(family, quadratic):
        zspec = ZerothOracleSpec(eps_f=0.01, mode="bounded")
        if family == "synthetic":
            return quadratic, (
                SyntheticZerothOracle(quadratic, zspec),
                SyntheticFirstOracle(quadratic, FirstOracleSpec(
                    eps_g=0.01, kappa=0.5, delta=0.2)))
        if family == "gsg":
            zeroth = SyntheticZerothOracle(quadratic, zspec)
            return quadratic, (zeroth, GsgFirstOracle(
                quadratic, zeroth, sigma=0.01, num_directions=4))
        problem, dataset = make_synthetic_logistic(n_samples=64, dim=4, seed=3)
        return problem, (MiniBatchZerothOracle(problem, dataset, 8),
                         MiniBatchFirstOracle(problem, dataset, 8))

    @pytest.mark.parametrize("family", ["synthetic", "minibatch", "gsg"])
    def test_recorded_truth_is_exact(self, quadratic10, family):
        problem, (zeroth, first) = self.noisy_oracles(family, quadratic10)
        trace = aloe_run(problem, zeroth, first,
                         AloeParams(eps_f_input=0.01, alpha_max=1.25,
                                    max_iters=30), seed=5)
        assert (trace.e_curr > 0).any()
        p = trace.paths
        for k, (x, g, grad) in enumerate(zip(trace.x, trace.g, trace.grad_true)):
            assert p.phi[0, k] == problem.value_fn(x)
            assert trace.phi_plus[k] == problem.value_fn(x - p.alpha[0, k] * g)
            assert np.array_equal(grad, problem.grad_fn(x))
            assert p.grad_norm[0, k] == float(np.linalg.norm(grad))


class TestGroundTruthPasses:
    """x_{k+1} is x_k or x_k+, so a trial needs one full-data phi pass per
    iteration plus the start, and one gradient pass per accepted step plus
    the start, however often the estimator queries the incumbent.  A
    stacked call counts one pass per row."""

    @staticmethod
    def counted(problem):
        calls = {"value": 0, "grad": 0}

        def count(kind, fn, rows=lambda x: 1):
            def wrapper(x):
                calls[kind] += rows(x)
                return fn(x)
            return wrapper

        return dataclasses.replace(
            problem, value_fn=count("value", problem.value_fn),
            grad_fn=count("grad", problem.grad_fn),
            values_fn=count("value", problem.values_fn, len),
            grads_fn=count("grad", problem.grads_fn, len)), calls

    def test_pass_count_per_trial(self):
        problem, dataset = make_synthetic_logistic(n_samples=64, dim=4, seed=3)
        problem, calls = self.counted(problem)
        zeroth = MiniBatchZerothOracle(problem, dataset, 8)
        first = MiniBatchFirstOracle(problem, dataset, 8)
        params = AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=60)
        controller = EpochEpsFController(zeroth, EstimatorConfig(refresh_period=10))
        trace = aloe_run(problem, zeroth, first, params, seed=4,
                         eps_f_controller=controller)
        accepted = int(trace.paths.success.sum())
        assert len(controller.history) == 6
        assert 0 < accepted < params.max_iters
        assert calls["value"] <= params.max_iters + 1
        assert calls["grad"] <= 1 + accepted

    def test_gsg_takes_phi_at_x_from_the_engine(self, quadratic10):
        # a Gaussian-smoothing gradient evaluates phi at its N perturbed
        # points only; its query at x_k reads phi(x_k) from the engine
        problem, calls = self.counted(quadratic10)
        zeroth = SyntheticZerothOracle(
            problem, ZerothOracleSpec(eps_f=0.01, mode="bounded"))
        first = GsgFirstOracle(problem, zeroth, sigma=0.01, num_directions=8)
        params = AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=20)
        aloe_run(problem, zeroth, first, params, seed=4)
        assert calls["value"] == 1 + params.max_iters * (8 + 1)


class TestGeneratorBuilds:
    def test_a_trial_run_builds_no_numpy_generator(self, quadratic10, monkeypatch):
        # the keyed streams are the only source of oracle noise, in a trial
        # and in a certification
        def refuse(*args, **kwargs):
            raise AssertionError("numpy generator built for oracle noise")

        zspec = ZerothOracleSpec(eps_f=0.01, mode="bounded")
        fspec = FirstOracleSpec(eps_g=0.01, kappa=0.5, delta=0.05)
        zeroth = SyntheticZerothOracle(quadratic10, zspec)
        first = SyntheticFirstOracle(quadratic10, fspec)
        controller = EpochEpsFController(zeroth, EstimatorConfig(refresh_period=10))
        monkeypatch.setattr(np.random, "default_rng", refuse)
        trace = aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=100),
                         seed=3, eps_f_controller=controller)
        assert len(controller.history) == 10
        assert (trace.e_curr > 0).all()
        report = certify_oracles(quadratic10, zeroth, first, zspec, fspec,
                                 [np.ones(10)], alphas=(0.5,), n_queries=100)
        assert len(report.results) == 2


@pytest.mark.parametrize("seed", [5, 42])
class TestStreamContract:
    """Each purpose is one key per trial, every query of a purpose takes the
    same number of queries of that key, and a query's words depend on the
    key and the query counter alone, so the noise of iteration k depends on
    the seed and k alone."""

    @staticmethod
    def run(problem, seed, estimator=None, **params):
        zeroth = SyntheticZerothOracle(
            problem, ZerothOracleSpec(eps_f=0.01, mode="bounded"))
        first = SyntheticFirstOracle(
            problem, FirstOracleSpec(eps_g=0.01, kappa=0.5, delta=0.2))
        controller = (None if estimator is None
                      else EpochEpsFController(zeroth, estimator))
        params = AloeParams(**{"eps_f_input": 0.01, "alpha_max": 1.25,
                               "max_iters": 60, **params})
        return aloe_run(problem, zeroth, first, params, seed=seed,
                        eps_f_controller=controller)

    @staticmethod
    def assert_same_noise(a, b):
        # e = |(phi + noise) - phi| carries the rounding of phi, which moves
        # with the path; a word from another query would differ in its
        # leading digits
        np.testing.assert_allclose([a.e_curr, a.e_plus], [b.e_curr, b.e_plus],
                                   rtol=1e-9, atol=0)

    def test_budget_prefix(self, quadratic10, seed):
        short = self.run(quadratic10, seed, max_iters=30)
        long = self.run(quadratic10, seed, max_iters=60)
        for name in ("alpha", "success", "eps_f"):
            assert np.array_equal(getattr(short.paths, name),
                                  getattr(long.paths, name)[:, :30]), name
        for name in ("f_curr", "f_plus", "x", "g"):
            assert np.array_equal(getattr(short, name),
                                  getattr(long, name)[:30]), name
        assert len(short) == 30

    def test_theta_changes_path_not_noise(self, quadratic10, seed):
        low = self.run(quadratic10, seed, theta=0.2)
        high = self.run(quadratic10, seed, theta=0.6)
        assert not np.array_equal(low.paths.success, high.paths.success)
        self.assert_same_noise(low, high)

    def test_controller_changes_slack_not_noise(self, quadratic10, seed):
        fixed = self.run(quadratic10, seed)
        estimated = self.run(quadratic10, seed,
                             estimator=EstimatorConfig(refresh_period=10))
        assert set(fixed.paths.eps_f[0].tolist()) == {0.01}
        assert len(set(estimated.paths.eps_f[0].tolist())) == 6
        self.assert_same_noise(fixed, estimated)

    def test_query_is_a_function_of_key_and_counter(self, seed):
        # query q of key (seed, F_CURR): alone, as row 3 of a four-key
        # stack, as one of a key's consecutive queries, and after queries
        # of other widths on this key and on another purpose
        q, width = 7, 5
        alone = rngmod.KeyedStream([seed], rngmod.F_CURR)
        alone.words(q, 1)
        want = alone.words(1, width)[0]
        block = rngmod.KeyedStream([seed + 9, seed + 2, seed + 4, seed],
                                   rngmod.F_CURR)
        for _ in range(q):
            block.words(4, 2)
        other = rngmod.KeyedStream([seed], rngmod.GRAD)
        other.words(3, 64)
        assert np.array_equal(block.words(4, width)[3], want)
        runs = rngmod.KeyedStream([seed], rngmod.F_CURR)
        assert np.array_equal(runs.words(q + 3, width)[q], want)
        # earlier queries of any widths take one counter step each
        mixed = rngmod.KeyedStream([seed], rngmod.F_CURR)
        for w in (1, 9, 2, 64, 3, 1, 2):
            mixed.words(1, w)
        assert np.array_equal(mixed.words(1, width)[0], want)
        # a narrower query of the same counter reads a prefix of its words
        prefix = rngmod.KeyedStream([seed], rngmod.F_CURR)
        prefix.words(q, width)
        assert np.array_equal(prefix.words(1, 2)[0], want[:2])
