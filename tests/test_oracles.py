import math

import numpy as np
import pytest

from aloe_lab.oracles import (FirstOracleSpec, GsgFirstOracle,
                              MiniBatchFirstOracle, MiniBatchZerothOracle,
                              OracleParameterError, SyntheticFirstOracle,
                              SyntheticZerothOracle, ZerothOracleSpec,
                              gradient_accurate, gsg_gradient,
                              minibatch_gradient,
                              minibatch_value, prop1_subexp_params,
                              prop2_sample_size, prop3_params,
                              sample_one_sided_subexp)
from aloe_lab.problems import (make_linear, make_strongly_convex_quadratic,
                               make_synthetic_logistic)


@pytest.fixture(scope="module")
def quadratic():
    return make_strongly_convex_quadratic(dim=5, lambda_min=0.5,
                                          lambda_max=5.0, seed=1)


@pytest.fixture(scope="module")
def logistic():
    return make_synthetic_logistic(n_samples=128, dim=4, seed=2)


class TestZerothSpec:
    def test_exact_requires_zero_constants(self):
        with pytest.raises(ValueError):
            ZerothOracleSpec(eps_f=0.1, mode="exact")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ZerothOracleSpec(mode="gaussian")

    def test_mean_error_range(self):
        with pytest.raises(ValueError):
            ZerothOracleSpec(eps_f=0.1, mode="bounded", mean_error=0.2)

    def test_mean_slack(self):
        spec = ZerothOracleSpec(eps_f=0.1, nu=0.05, b=0.05,
                                mode="subexponential", mean_error=0.05)
        assert spec.mean_slack_u == pytest.approx(0.05)

    def test_bounded_default_mean_is_half(self):
        spec = ZerothOracleSpec(eps_f=0.2, mode="bounded")
        assert spec.target_mean == pytest.approx(0.1)


class TestSyntheticZeroth:
    def test_exact_mode_zero_error(self, quadratic):
        oracle = SyntheticZerothOracle(quadratic, ZerothOracleSpec())
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        est, phi = oracle(x, rng)
        assert est == quadratic.value(x)
        assert abs(est - phi) == 0.0

    def test_bounded_mode_never_exceeds_eps_f(self, quadratic):
        spec = ZerothOracleSpec(eps_f=0.3, mode="bounded")
        oracle = SyntheticZerothOracle(quadratic, spec)
        rng = np.random.default_rng(1)
        x = np.ones(5)
        errs = np.array([abs(est - phi) for est, phi
                         in (oracle(x, rng) for _ in range(5000))])
        assert errs.max() <= 0.3
        # uniform on [0, eps_f]: mean eps_f / 2
        assert errs.mean() == pytest.approx(0.15, abs=0.01)

    def test_subexponential_mean_on_target(self, quadratic):
        spec = ZerothOracleSpec(eps_f=0.2, nu=0.1, b=0.1,
                                mode="subexponential", mean_error=0.1)
        oracle = SyntheticZerothOracle(quadratic, spec)
        rng = np.random.default_rng(2)
        x = np.ones(5)
        errs = np.array([abs(est - phi) for est, phi
                         in (oracle(x, rng) for _ in range(20000))])
        assert errs.mean() == pytest.approx(0.1, abs=0.005)
        assert errs.mean() <= spec.eps_f


class TestSubexpSampler:
    def test_degenerate_point_mass(self):
        rng = np.random.default_rng(0)
        assert sample_one_sided_subexp(0.0, 0.0, 0.05, rng) == 0.05

    def test_zero_mean(self):
        rng = np.random.default_rng(0)
        assert sample_one_sided_subexp(0.1, 0.1, 0.0, rng) == 0.0

    def test_two_point_law_when_b_zero(self):
        rng = np.random.default_rng(3)
        draws = {round(sample_one_sided_subexp(0.05, 0.0, 0.1, rng), 12)
                 for _ in range(200)}
        assert draws == {0.05, 0.15}

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            assert sample_one_sided_subexp(0.2, 0.3, 0.1, rng) >= 0.0

    @pytest.mark.parametrize("nu,b,mean", [(0.1, 0.1, 0.05), (0.3, 0.2, 0.2)])
    def test_mgf_envelope(self, nu, b, mean):
        rng = np.random.default_rng(5)
        n = 200_000
        samples = np.array([sample_one_sided_subexp(nu, b, mean, rng)
                            for _ in range(n)])
        centered = samples - mean
        hi = 1.0 / b
        for lam in np.linspace(hi / 10, hi, 10):
            vals = np.exp(lam * centered)
            stderr = vals.std(ddof=1) / math.sqrt(n)
            assert vals.mean() <= math.exp(lam ** 2 * nu ** 2 / 2) + 4 * stderr


class TestSyntheticFirst:
    def test_delta_zero_event_always_holds(self, quadratic):
        spec = FirstOracleSpec(eps_g=0.05, kappa=0.5, delta=0.0)
        oracle = SyntheticFirstOracle(quadratic, spec)
        rng = np.random.default_rng(6)
        for _ in range(500):
            x = rng.standard_normal(5)
            g, grad = oracle(x, 0.7, rng)
            assert gradient_accurate(g, grad, 0.7, spec.eps_g, spec.kappa)

    def test_event_frequency_at_least_one_minus_delta(self, quadratic):
        spec = FirstOracleSpec(eps_g=0.05, kappa=0.5, delta=0.1)
        oracle = SyntheticFirstOracle(quadratic, spec)
        rng = np.random.default_rng(7)
        x = np.ones(5)
        n = 10_000
        hits = sum(gradient_accurate(*oracle(x, 0.3, rng), 0.3, spec.eps_g, spec.kappa)
                   for _ in range(n))
        # binomial(n, 0.9) three-sigma band around the mean
        assert hits >= n * 0.9 - 3 * math.sqrt(n * 0.9 * 0.1)

    def test_corruptions_are_large(self, quadratic):
        spec = FirstOracleSpec(eps_g=0.01, kappa=0.1, delta=0.5,
                               corruption_scale=10.0, corruption_base=10.0)
        oracle = SyntheticFirstOracle(quadratic, spec)
        rng = np.random.default_rng(8)
        x = np.ones(5)
        grad_norm = np.linalg.norm(quadratic.gradient(x))
        failures = 0
        for _ in range(2000):
            g, grad = oracle(x, 0.3, rng)
            if not gradient_accurate(g, grad, 0.3, spec.eps_g, spec.kappa):
                failures += 1
                assert np.linalg.norm(g - grad) == pytest.approx(10.0 + 10.0 * grad_norm)
        assert failures > 0

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            FirstOracleSpec(delta=1.0)


class TestMiniBatch:
    def test_empty_batch_rejected(self, logistic):
        problem, dataset = logistic
        with pytest.raises(ValueError):
            minibatch_value(dataset, np.zeros(4), [])
        with pytest.raises(ValueError):
            minibatch_gradient(dataset, np.zeros(4), [])

    def test_full_batch_matches_exact_value(self, logistic):
        problem, dataset = logistic
        rng = np.random.default_rng(9)
        x = rng.standard_normal(4)
        full = np.arange(dataset.n_samples)
        assert minibatch_value(dataset, x, full) == problem.value(x)
        np.testing.assert_allclose(minibatch_gradient(dataset, x, full),
                                   problem.gradient(x), rtol=1e-12, atol=1e-14)

    def test_minibatch_oracles_log_errors(self, logistic):
        problem, dataset = logistic
        z = MiniBatchZerothOracle(problem, dataset, batch_size=16)
        f = MiniBatchFirstOracle(problem, dataset, batch_size=16)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(4)
        est, phi = z(x, rng)
        assert abs(est - phi) == pytest.approx(abs(est - problem.value(x)))
        g, grad = f(x, 0.5, rng)
        assert np.linalg.norm(g - grad) == pytest.approx(
            np.linalg.norm(g - problem.gradient(x)))

    def test_gradient_mean_unbiased(self, logistic):
        problem, dataset = logistic
        f = MiniBatchFirstOracle(problem, dataset, batch_size=8)
        rng = np.random.default_rng(11)
        x = np.ones(4)
        mean = np.mean([f(x, 0.5, rng)[0] for _ in range(4000)], axis=0)
        np.testing.assert_allclose(mean, problem.gradient(x), atol=0.02)

    def test_batch_size_validation(self, logistic):
        problem, dataset = logistic
        with pytest.raises(ValueError):
            MiniBatchZerothOracle(problem, dataset, batch_size=0)


class TestProp1:
    def test_formulas(self):
        eps_f, nu, b = prop1_subexp_params(nu_hat=0.4, b_hat=0.01,
                                           eps_hat=1.0, N=100)
        assert eps_f == pytest.approx(0.1)
        expected = 8 * math.e ** 2 * max(0.4 / 10, 0.01)
        assert nu == pytest.approx(expected)
        assert b == pytest.approx(expected)

    def test_scaling_in_N(self):
        e1, n1, _ = prop1_subexp_params(1.0, 0.0, 1.0, 4)
        e2, n2, _ = prop1_subexp_params(1.0, 0.0, 1.0, 16)
        assert e1 / e2 == pytest.approx(2.0)
        assert n1 / n2 == pytest.approx(2.0)

    def test_invalid_N(self):
        with pytest.raises(ValueError):
            prop1_subexp_params(1.0, 1.0, 1.0, 0)


class TestProp2:
    def test_default_form_value(self):
        # max{2*2/(0.5*1), 0} = 8
        assert prop2_sample_size(M_c=2.0, M_v=0.0, delta=0.5,
                                 eps_g=1.0, kappa=0.0, alpha=1.0) == 8

    def test_variance_term(self):
        # 2*1*(1+1)^2/(0.1*1) = 80
        assert prop2_sample_size(M_c=0.0, M_v=1.0, delta=0.1,
                                 eps_g=0.0, kappa=1.0, alpha=1.0) == 80

    def test_infinite_bound_reported(self):
        with pytest.raises(OracleParameterError):
            prop2_sample_size(M_c=1.0, M_v=0.0, delta=0.1,
                              eps_g=0.0, kappa=1.0, alpha=1.0)
        with pytest.raises(OracleParameterError):
            prop2_sample_size(M_c=0.0, M_v=1.0, delta=0.1,
                              eps_g=1.0, kappa=0.0, alpha=1.0)

    def test_tighter_form_never_larger(self):
        loose = prop2_sample_size(M_c=2.0, M_v=3.0, delta=0.2,
                                  eps_g=0.5, kappa=1.0, alpha=0.5)
        tight = prop2_sample_size(M_c=2.0, M_v=3.0, delta=0.2,
                                  eps_g=0.5, kappa=1.0, alpha=0.5,
                                  grad_norm=2.0)
        assert tight <= loose

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            prop2_sample_size(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)


class TestGsg:
    def test_exact_on_linear_function(self):
        # zero curvature and a noiseless oracle make every difference
        # quotient exact, so a single direction already averages correctly
        c = np.array([1.0, -1.0, 2.0])
        problem = make_linear(c)
        oracle = SyntheticZerothOracle(problem, ZerothOracleSpec())
        rng = np.random.default_rng(12)
        mean = np.mean([gsg_gradient(oracle, np.zeros(3), 0.5, 8, rng)
                        for _ in range(3000)], axis=0)
        np.testing.assert_allclose(mean, c, atol=0.05)

    def test_parameter_validation(self):
        problem = make_linear(np.ones(2))
        oracle = SyntheticZerothOracle(problem, ZerothOracleSpec())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gsg_gradient(oracle, np.zeros(2), 0.0, 4, rng)
        with pytest.raises(ValueError):
            gsg_gradient(oracle, np.zeros(2), 0.1, 0, rng)

    def test_gsg_oracle_logs_event(self, quadratic):
        zeroth = SyntheticZerothOracle(quadratic, ZerothOracleSpec())
        oracle = GsgFirstOracle(quadratic, zeroth, sigma=0.01,
                                num_directions=512)
        rng = np.random.default_rng(13)
        g, grad = oracle(np.ones(5), 0.5, rng)
        assert isinstance(gradient_accurate(g, grad, 0.5, 2.0, 0.0), bool)


class TestProp3:
    def test_eps_g_formula(self):
        params = prop3_params(n=9, L=2.0, sigma=0.5, eps_f=0.1, delta=0.1,
                              kappa=0.0, alpha=1.0, grad_norm=1.0)
        assert params.eps_g == pytest.approx(2 * (3 * 2.0 * 0.5 + 3 * 0.1 / 0.5))

    def test_sigma_star(self):
        params = prop3_params(n=4, L=4.0, sigma=0.3, eps_f=0.04, delta=0.1,
                              kappa=0.0, alpha=1.0, grad_norm=1.0)
        assert params.sigma_star == pytest.approx(0.1)

    def test_relative_regime_flag(self):
        weak = prop3_params(n=4, L=1.0, sigma=0.1, eps_f=0.01, delta=0.1,
                            kappa=0.01, alpha=0.01, grad_norm=0.1)
        assert not weak.relative_regime_available
        strong = prop3_params(n=2, L=0.01, sigma=0.01, eps_f=0.0, delta=0.1,
                              kappa=10.0, alpha=10.0, grad_norm=100.0)
        assert strong.relative_regime_available

    def test_direction_count_decreasing_in_delta(self):
        lo = prop3_params(n=4, L=1.0, sigma=0.1, eps_f=0.01, delta=0.05,
                          kappa=0.0, alpha=1.0, grad_norm=1.0)
        hi = prop3_params(n=4, L=1.0, sigma=0.1, eps_f=0.01, delta=0.5,
                          kappa=0.0, alpha=1.0, grad_norm=1.0)
        assert hi.num_directions <= lo.num_directions
