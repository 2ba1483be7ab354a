import dataclasses

import numpy as np
import pytest
import scipy.optimize

from aloe_lab.problems import (DimensionMismatchError, ProblemInstance,
                               _logistic_grads, _logistic_losses,
                               _mean_ascending, estimate_growth_constants,
                               finite_difference_gradient, make_linear,
                               make_strongly_convex_quadratic,
                               make_synthetic_logistic)


@pytest.fixture(scope="module")
def quadratic():
    return make_strongly_convex_quadratic(dim=10, lambda_min=0.1,
                                          lambda_max=10.0, seed=7)


@pytest.fixture(scope="module")
def logistic():
    return make_synthetic_logistic(n_samples=64, dim=5, seed=3)


class TestQuadratic:
    def test_minimum_at_origin(self, quadratic):
        assert quadratic.value(np.zeros(10)) == 0.0
        assert quadratic.phi_star == 0.0
        np.testing.assert_allclose(quadratic.gradient(np.zeros(10)), 0.0)

    def test_values_nonnegative(self, quadratic):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert quadratic.value(rng.standard_normal(10)) >= 0.0

    def test_spectrum_constants(self, quadratic):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            gap = quadratic.gradient(x) - quadratic.gradient(y)
            dx = x - y
            # Lipschitz gradient with L = lambda_max
            assert np.linalg.norm(gap) <= quadratic.lipschitz_L * np.linalg.norm(dx) * (1 + 1e-12)
            # strong convexity with beta = lambda_min
            assert gap @ dx >= quadratic.strong_convexity_beta * dx @ dx * (1 - 1e-12)

    def test_pl_inequality(self, quadratic):
        rng = np.random.default_rng(2)
        beta = quadratic.strong_convexity_beta
        for _ in range(50):
            x = rng.standard_normal(10)
            g = quadratic.gradient(x)
            assert g @ g >= 2 * beta * (quadratic.value(x) - quadratic.phi_star) * (1 - 1e-12)

    def test_x0_norm_control(self):
        p = make_strongly_convex_quadratic(dim=4, lambda_min=1.0,
                                           lambda_max=2.0, seed=0, x0_norm=5.0)
        assert np.linalg.norm(p.x0) == pytest.approx(5.0)

    def test_explicit_x0(self):
        x0 = np.array([1.0, 2.0])
        p = make_strongly_convex_quadratic(dim=2, lambda_min=1.0,
                                           lambda_max=1.0, seed=0, x0=x0)
        np.testing.assert_array_equal(p.x0, x0)
        # lambda_min == lambda_max == 1 gives the identity matrix
        assert p.value(x0) == pytest.approx(2.5)

    def test_bad_spectrum_rejected(self):
        with pytest.raises(ValueError):
            make_strongly_convex_quadratic(dim=2, lambda_min=0.0,
                                           lambda_max=1.0, seed=0)
        with pytest.raises(ValueError):
            make_strongly_convex_quadratic(dim=2, lambda_min=2.0,
                                           lambda_max=1.0, seed=0)


class TestGradientConsistency:
    def test_quadratic_matches_finite_differences(self, quadratic):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(10)
            fd = finite_difference_gradient(quadratic, x, h=1e-6)
            g = quadratic.gradient(x)
            assert np.linalg.norm(fd - g) <= 1e-4 * max(1.0, np.linalg.norm(g))

    def test_logistic_matches_finite_differences(self, logistic):
        problem, _ = logistic
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.standard_normal(problem.dim)
            fd = finite_difference_gradient(problem, x, h=1e-6)
            g = problem.gradient(x)
            assert np.linalg.norm(fd - g) <= 1e-4 * max(1.0, np.linalg.norm(g))


class TestProblemInstance:
    def test_dimension_mismatch(self, quadratic):
        with pytest.raises(DimensionMismatchError):
            quadratic.value(np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            quadratic.gradient(np.zeros(11))

    def test_with_class_tag(self, quadratic):
        p = quadratic.with_class_tag("nonconvex")
        assert p.class_tag == "nonconvex"
        assert quadratic.class_tag == "strongly_convex"

    def test_unknown_class_tag_rejected(self, quadratic):
        with pytest.raises(ValueError):
            quadratic.with_class_tag("mystery")


def counting_problem():
    """0.5 ||x||^2 in R^3 with value_fn / grad_fn that count their passes."""
    calls = {"value": 0, "grad": 0}

    def value_fn(x):
        calls["value"] += 1
        return 0.5 * float(x @ x)

    def grad_fn(x):
        calls["grad"] += 1
        return x.copy()

    problem = ProblemInstance(
        dim=3, value_fn=value_fn, grad_fn=grad_fn, lipschitz_L=1.0,
        strong_convexity_beta=1.0, phi_star=0.0, class_tag="strongly_convex",
        x0=np.ones(3))
    return problem, calls


class TestMemo:
    def test_repeat_call_is_a_lookup(self):
        p, calls = counting_problem()
        x = np.array([1.0, 2.0, 3.0])
        v = p.value(x)
        assert p.value(x.copy()) is v
        g = p.gradient(x)
        assert p.gradient(list(x)) is g
        assert calls == {"value": 1, "grad": 1}

    def test_one_ulp_away_is_a_miss(self):
        p, calls = counting_problem()
        x = np.array([1.0, 2.0, 3.0])
        y = x.copy()
        y[1] = np.nextafter(y[1], np.inf)
        for point in (x, y):
            p.value(point)
            p.gradient(point)
        assert calls == {"value": 2, "grad": 2}

    def test_hit_keeps_its_point_when_a_third_arrives(self):
        # x_k survives a run of rejected steps: least recently used, not
        # first in, is evicted
        p, calls = counting_problem()
        a, b, c = np.eye(3)
        for x in (a, b, a, c, a):
            p.value(x)
        assert calls["value"] == 3
        p.value(b)
        assert calls["value"] == 4

    def test_gradient_is_memoized_for_the_last_point_only(self):
        p, calls = counting_problem()
        a, b, _ = np.eye(3)
        for x in (a, a, b, a):
            p.gradient(x)
        assert calls["grad"] == 3

    def test_returned_gradient_is_read_only(self):
        p, _ = counting_problem()
        g = p.gradient(np.ones(3))
        with pytest.raises(ValueError):
            g[0] = 99.0
        np.testing.assert_array_equal(p.gradient(np.ones(3)), np.ones(3))

    def test_copies_start_with_an_empty_memo(self):
        p, calls = counting_problem()
        x = np.ones(3)
        p.value(x)
        p.gradient(x)
        p.with_class_tag("convex").value(x)
        p.with_class_tag("convex").gradient(x)
        dataclasses.replace(p).value(x)
        assert calls == {"value": 3, "grad": 2}

    def test_equality_and_repr_ignore_the_memo(self):
        p, _ = counting_problem()
        q = dataclasses.replace(p)
        assert p == q
        p.value(np.ones(3))
        p.gradient(np.ones(3))
        assert p == q
        assert repr(p) == repr(q)
        assert p != p.with_class_tag("convex")


class TestLogistic:
    def test_phi_star_is_minimum(self, logistic):
        problem, _ = logistic
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal(problem.dim)
            assert problem.value(x) >= problem.phi_star - 1e-10

    def test_strong_convexity_from_regularizer(self, logistic):
        problem, dataset = logistic
        assert problem.strong_convexity_beta == dataset.reg

    def test_full_data_mean_equals_value(self, logistic):
        problem, dataset = logistic
        rng = np.random.default_rng(11)
        x = rng.standard_normal(problem.dim)
        idx = np.arange(dataset.n_samples)
        mean_loss = float(np.add.reduce(dataset.losses(x, idx)) / dataset.n_samples)
        assert mean_loss == problem.value(x)  # bit-for-bit

    def test_per_sample_loss_accessors(self, logistic):
        problem, dataset = logistic
        x = np.zeros(problem.dim)
        assert dataset.loss(x, 0) == pytest.approx(np.log(2), rel=1e-12)
        np.testing.assert_allclose(dataset.loss_grad(x, 3),
                                   dataset.loss_grads(x, np.array([3]))[0])

    def test_growth_constants_positive(self, logistic):
        _, dataset = logistic
        assert dataset.M_c > 0
        assert dataset.M_v > 0

    def test_diameter_positive(self, logistic):
        problem, _ = logistic
        assert problem.diameter_D > 0


@pytest.fixture(scope="module", params=[(64, 5, 3), (2048, 10, 11)],
                ids=["n64", "n2048"])
def logistic_sizes(request):
    n, d, seed = request.param
    return make_synthetic_logistic(n_samples=n, dim=d, seed=seed, reg=0.01)


class TestCopyFreeFullDataPass:
    """value_fn / grad_fn view the whole dataset instead of fancy-indexing it
    with np.arange(n); the results must stay bit-identical, so that phi_star
    and every constant derived from it cannot drift."""

    @staticmethod
    def reference(dataset):
        f, y, reg = dataset.features, dataset.labels, dataset.reg
        idx = np.arange(dataset.n_samples)

        def value(x):
            return _mean_ascending(_logistic_losses(f, y, reg, x, idx))

        def grad(x):
            return np.add.reduce(_logistic_grads(f, y, reg, x, idx), axis=0) / len(idx)
        return value, grad

    def test_random_points(self, logistic_sizes):
        problem, dataset = logistic_sizes
        value, grad = self.reference(dataset)
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = 3.0 * rng.standard_normal(problem.dim)
            assert problem.value_fn(x) == value(x)
            assert np.array_equal(problem.grad_fn(x), grad(x))

    def test_lbfgs_solution(self, logistic_sizes):
        problem, dataset = logistic_sizes
        value, grad = self.reference(dataset)
        sol = scipy.optimize.minimize(
            value, np.zeros(problem.dim), jac=grad, method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 5000})
        assert value(sol.x) == problem.phi_star
        assert problem.value_fn(sol.x) == problem.phi_star
        assert np.array_equal(problem.grad_fn(sol.x), grad(sol.x))


class TestGrowthConstants:
    """estimate_growth_constants averages the per-sample gradients it already
    has instead of making a second full-data gradient pass per probe."""

    @staticmethod
    def reference(problem, dataset, rng, n_probes=100, radius=3.0, safety=1.2):
        """The formula with one problem.grad_fn pass per probe."""
        idx = np.arange(dataset.n_samples)
        max_abs = max_rel = 0.0
        for _ in range(n_probes):
            x = problem.x0 + radius * rng.standard_normal(problem.dim)
            grads = dataset.loss_grads(x, idx)
            mean_grad = problem.grad_fn(x)
            var = float(np.mean(np.sum((grads - mean_grad) ** 2, axis=1)))
            gn2 = float(mean_grad @ mean_grad)
            max_abs = max(max_abs, var)
            if gn2 > 0:
                max_rel = max(max_rel, var / gn2)
        return safety * max_abs, safety * max_rel

    def test_bit_identical_to_full_data_pass(self, logistic):
        problem, dataset = logistic
        assert dataset.n_samples == 64
        got = estimate_growth_constants(problem, dataset, np.random.default_rng(21))
        want = self.reference(problem, dataset, np.random.default_rng(21))
        assert got == want
        assert (dataset.M_c, dataset.M_v) == self.reference(
            problem, dataset, np.random.default_rng((3, 1)))

    def test_no_full_data_pass(self, logistic):
        problem, dataset = logistic
        calls = []
        counted = dataclasses.replace(
            problem, grad_fn=lambda x: calls.append(1) or problem.grad_fn(x))
        estimate_growth_constants(counted, dataset, np.random.default_rng(21))
        assert calls == []


class TestLinear:
    def test_caller_cannot_corrupt_the_problem(self):
        c = np.array([1.0, -2.0, 3.0])
        p = make_linear(c)
        x = np.ones(3)
        with pytest.raises(ValueError):
            p.gradient(x)[0] = 99.0
        c[1] = 42.0  # the caller's array is not the problem's
        np.testing.assert_array_equal(p.gradient(np.zeros(3)), [1.0, -2.0, 3.0])
        assert p.value(2 * x) == 4.0

    def test_gradient_is_constant(self):
        c = np.array([1.0, -2.0, 3.0])
        p = make_linear(c)
        rng = np.random.default_rng(4)
        for _ in range(5):
            np.testing.assert_array_equal(p.gradient(rng.standard_normal(3)), c)

    def test_value(self):
        p = make_linear(np.array([2.0, 0.0]))
        assert p.value(np.array([3.0, 7.0])) == 6.0
