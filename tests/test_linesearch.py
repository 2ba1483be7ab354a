import dataclasses

import numpy as np
import pytest

from aloe_lab import rng as rngmod
from aloe_lab.estimation import EpochEpsFController, EstimatorConfig
from aloe_lab.linesearch import (AloeParams, Trace, TrialDivergedError,
                                 aloe_run, armijo_check, step_update)
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
    def test_success_grows(self):
        assert step_update(1.0, True, 0.8, 10.0) == pytest.approx(1.25)

    def test_success_capped(self):
        assert step_update(9.0, True, 0.8, 10.0) == 10.0

    def test_failure_shrinks(self):
        assert step_update(1.0, False, 0.8, 10.0) == pytest.approx(0.8)


class TestExactRun:
    def test_one_step_to_minimum(self, identity_quadratic):
        # phi = ||x||^2 / 2, x0 = (1,0), alpha0 = 1: g = (1,0),
        # phi(x - g) = 0 <= 0.5 - 0.2 so the first step lands on the minimum
        zeroth, first = exact_oracles(identity_quadratic)
        params = AloeParams(alpha0=1.0, alpha_max=10.0, theta=0.2,
                            gamma=0.8, max_iters=1)
        trace = aloe_run(identity_quadratic, zeroth, first, params, seed=0)
        r = trace.records[0]
        assert r.success
        np.testing.assert_array_equal(r.g, [1.0, 0.0])
        assert r.f_plus == 0.0
        assert r.phi_plus == 0.0

    def test_monotone_descent(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)
        params = AloeParams(max_iters=300)
        trace = aloe_run(quadratic10, zeroth, first, params, seed=0)
        phis = trace.phi_values()
        assert np.all(np.diff(phis) <= 1e-15)

    def test_matches_deterministic_reference(self, quadratic10):
        # independent plain Armijo backtracking loop, stepped by hand
        zeroth, first = exact_oracles(quadratic10)
        params = AloeParams(max_iters=200)
        trace = aloe_run(quadratic10, zeroth, first, params, seed=3)

        x = quadratic10.x0.copy()
        alpha = params.alpha0
        for r in trace.records:
            g = quadratic10.gradient(x)
            x_try = x - alpha * g
            ok = (quadratic10.value(x_try)
                  <= quadratic10.value(x) - alpha * params.theta * g @ g)
            assert r.alpha == alpha
            assert r.success == ok
            np.testing.assert_array_equal(r.x, x)
            if ok:
                x = x_try
                alpha = min(params.alpha_max, alpha / params.gamma)
            else:
                alpha = params.gamma * alpha

    def test_alphas_stay_in_range(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)
        trace = aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=200), seed=1)
        alphas = trace.alphas()
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
        for ra, rb in zip(a.records, b.records):
            assert ra.alpha == rb.alpha
            assert ra.f_curr == rb.f_curr
            assert ra.f_plus == rb.f_plus
            np.testing.assert_array_equal(ra.g, rb.g)
            np.testing.assert_array_equal(ra.x, rb.x)

    def test_different_seeds_differ(self, quadratic10):
        spec = ZerothOracleSpec(eps_f=0.01, mode="bounded")
        zeroth = SyntheticZerothOracle(quadratic10, spec)
        first = SyntheticFirstOracle(quadratic10, FirstOracleSpec())
        params = AloeParams(eps_f_input=0.01, max_iters=20)
        a = aloe_run(quadratic10, zeroth, first, params, seed=0)
        b = aloe_run(quadratic10, zeroth, first, params, seed=1)
        assert any(ra.f_curr != rb.f_curr
                   for ra, rb in zip(a.records, b.records))


class TestTrace:
    def test_next_alpha_reconstruction(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)
        trace = aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=50), seed=0)
        for k in range(len(trace) - 1):
            assert trace.next_alpha(k) == trace.records[k + 1].alpha
        last = trace.records[-1]
        expect = step_update(last.alpha, last.success, 0.8, 10.0)
        assert trace.next_alpha(len(trace) - 1) == expect

    def test_len(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)
        trace = aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=7), seed=0)
        assert len(trace) == 7


class TestDivergence:
    def test_non_finite_oracle_aborts(self, quadratic10):
        class NanOracle:
            def __call__(self, x, rng):
                return float("nan"), None

        first = SyntheticFirstOracle(quadratic10, FirstOracleSpec())
        with pytest.raises(TrialDivergedError):
            aloe_run(quadratic10, NanOracle(), first, AloeParams(max_iters=5), seed=0)


class TestEpsFController:
    def test_controller_values_recorded(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)

        def controller(k, x, streams):
            return 0.5 if k < 10 else 0.25

        trace = aloe_run(quadratic10, zeroth, first,
                         AloeParams(max_iters=20), seed=0,
                         eps_f_controller=controller)
        assert all(r.eps_f == 0.5 for r in trace.records[:10])
        assert all(r.eps_f == 0.25 for r in trace.records[10:])


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
        assert any(r.e_curr > 0 for r in trace.records)
        for r in trace.records:
            assert r.phi_curr == problem.value_fn(r.x)
            assert r.phi_plus == problem.value_fn(r.x - r.alpha * r.g)
            assert np.array_equal(r.grad_true, problem.grad_fn(r.x))
            assert r.grad_true_norm == float(np.linalg.norm(r.grad_true))


class TestGroundTruthPasses:
    """x_{k+1} is x_k or x_k+, so a trial needs one full-data phi pass per
    iteration plus the start, and one gradient pass per accepted step plus
    the start, however often the estimator queries the incumbent."""

    def test_pass_count_per_trial(self):
        problem, dataset = make_synthetic_logistic(n_samples=64, dim=4, seed=3)
        calls = {"value": 0, "grad": 0}

        def counted(kind, fn):
            def wrapper(x):
                calls[kind] += 1
                return fn(x)
            return wrapper

        problem = dataclasses.replace(
            problem, value_fn=counted("value", problem.value_fn),
            grad_fn=counted("grad", problem.grad_fn))
        zeroth = MiniBatchZerothOracle(problem, dataset, 8)
        first = MiniBatchFirstOracle(problem, dataset, 8)
        params = AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=60)
        controller = EpochEpsFController(zeroth, EstimatorConfig(refresh_period=10))
        trace = aloe_run(problem, zeroth, first, params, seed=4,
                         eps_f_controller=controller)
        accepted = int(trace.successes().sum())
        assert len(controller.history) == 6
        assert 0 < accepted < params.max_iters
        assert calls["value"] <= params.max_iters + 1
        assert calls["grad"] <= 1 + accepted


class TestGeneratorBuilds:
    def test_one_generator_per_purpose(self, quadratic10, monkeypatch):
        # building a generator costs ~20 us, about as much as a whole
        # iteration of the loop on a small problem
        built = []
        default_rng = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(rngmod.np.random, "default_rng", counting)
        zeroth = SyntheticZerothOracle(
            quadratic10, ZerothOracleSpec(eps_f=0.01, mode="bounded"))
        first = SyntheticFirstOracle(
            quadratic10, FirstOracleSpec(eps_g=0.01, kappa=0.5, delta=0.05))
        controller = EpochEpsFController(zeroth, EstimatorConfig(refresh_period=10))
        aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=100), seed=3,
                 eps_f_controller=controller)
        assert len(controller.history) == 10
        assert len(built) <= 4


@pytest.mark.parametrize("seed", [5, 42])
class TestStreamContract:
    """Each purpose's generator is drawn in iteration order, and no oracle's
    draw count depends on x, alpha or accept/reject, so the noise of
    iteration k depends on the seed and k alone."""

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
        # with the path; a draw from another place in a stream would differ
        # in its leading digits
        np.testing.assert_allclose(
            [(r.e_curr, r.e_plus) for r in a.records],
            [(r.e_curr, r.e_plus) for r in b.records], rtol=1e-9, atol=0)

    def test_budget_prefix(self, quadratic10, seed):
        short = self.run(quadratic10, seed, max_iters=30)
        long = self.run(quadratic10, seed, max_iters=60)
        for a, b in zip(short.records, long.records):
            assert (a.alpha, a.success, a.f_curr, a.f_plus, a.eps_f) == (
                b.alpha, b.success, b.f_curr, b.f_plus, b.eps_f)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.g, b.g)
        assert len(short) == 30

    def test_theta_changes_path_not_noise(self, quadratic10, seed):
        low = self.run(quadratic10, seed, theta=0.2)
        high = self.run(quadratic10, seed, theta=0.6)
        assert not np.array_equal(low.successes(), high.successes())
        self.assert_same_noise(low, high)

    def test_controller_changes_slack_not_noise(self, quadratic10, seed):
        fixed = self.run(quadratic10, seed)
        estimated = self.run(quadratic10, seed,
                             estimator=EstimatorConfig(refresh_period=10))
        assert {r.eps_f for r in fixed.records} == {0.01}
        assert len({r.eps_f for r in estimated.records}) == 6
        self.assert_same_noise(fixed, estimated)
