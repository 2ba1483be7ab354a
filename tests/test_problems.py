import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize

from aloe_lab import problems
from aloe_lab.problems import (GATHER_SAMPLES, DimensionMismatchError,
                               ProblemInstance, _logistic_coeffs,
                               _logistic_losses, _logistic_minimizer, _sigmoid,
                               estimate_growth_constants,
                               make_strongly_convex_quadratic,
                               make_synthetic_logistic)
from aloe_lab.rng import GROWTH_PROBES, probe_rng

from linear_objective import make_linear


def finite_difference_gradient(problem: ProblemInstance, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient at one point, the independent check on
    grad_fn: the 2 dim shifted points go as one stack."""
    x = np.asarray(x, dtype=float)
    E = h * np.eye(x.size)
    v = problem.values(np.concatenate((x + E, x - E)))
    return (v[:x.size] - v[x.size:]) / (2 * h)


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
        # value / gradient take one point; a stack goes to values / gradients
        with pytest.raises(DimensionMismatchError):
            quadratic.value(np.zeros((1, 10)))
        with pytest.raises(DimensionMismatchError):
            quadratic.gradient(np.zeros((1, 10)))


def counting_problem():
    """0.5 ||x||^2 in R^3 with value_fn / grad_fn that count their passes."""
    calls = {"value": 0, "grad": 0}

    def value_fn(X):
        calls["value"] += 1
        return 0.5 * np.sum(X * X, axis=1)

    def grad_fn(X):
        calls["grad"] += 1
        return X.copy()

    problem = ProblemInstance(
        dim=3, value_fn=value_fn, grad_fn=grad_fn, lipschitz_L=1.0,
        strong_convexity_beta=1.0, phi_star=0.0, x0=np.ones(3))
    return problem, calls


class TestEvaluationCalls:
    # ProblemInstance keeps no memo (the line search hands known values to
    # its queries instead): one evaluation per call, read-only gradients,
    # copies that compare equal.
    def test_one_evaluation_per_call(self):
        p, calls = counting_problem()
        x = np.array([1.0, 2.0, 3.0])
        y = x.copy()
        y[1] = np.nextafter(y[1], np.inf)
        for point in (x, y):
            p.value(point)
            p.gradient(point)
        assert calls == {"value": 2, "grad": 2}
        p.values(np.stack((x, y)))
        p.gradients(np.stack((x, y)))
        assert calls == {"value": 3, "grad": 3}

    def test_returned_gradient_is_read_only(self):
        p, _ = counting_problem()
        g = p.gradient(np.ones(3))
        with pytest.raises(ValueError):
            g[0] = 99.0
        np.testing.assert_array_equal(p.gradient(np.ones(3)), np.ones(3))

    def test_copies_evaluate_afresh(self):
        p, calls = counting_problem()
        x = np.ones(3)
        p.value(x)
        p.gradient(x)
        dataclasses.replace(p, phi_star=1.0).value(x)
        dataclasses.replace(p, phi_star=1.0).gradient(x)
        dataclasses.replace(p).value(x)
        assert calls == {"value": 3, "grad": 2}

    def test_copies_compare_equal(self):
        p, _ = counting_problem()
        q = dataclasses.replace(p)
        assert p == q
        p.value(np.ones(3))
        p.gradient(np.ones(3))
        assert p == q
        assert repr(p) == repr(q)
        assert p != dataclasses.replace(p, phi_star=1.0)


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
        mean_loss = float(np.add.reduce(dataset.losses(x[None], idx[None])[0])
                          / dataset.n_samples)
        assert mean_loss == problem.value(x)  # bit-for-bit

    def test_per_sample_loss_accessors(self, logistic):
        # one index row per point of the stack, or a slice for all samples
        problem, dataset = logistic
        X = np.zeros((2, problem.dim))
        losses = dataset.losses(X, np.array([[0], [5]]))
        assert losses.shape == (2, 1)
        np.testing.assert_allclose(losses, np.log(2), rtol=1e-12)
        grads = dataset.loss_grads(X, np.array([[3, 4], [4, 3]]))
        assert grads.shape == (2, 2, problem.dim)
        full = dataset.loss_grads(X[:1], slice(None))[0]
        np.testing.assert_allclose(grads[0], full[[3, 4]])
        np.testing.assert_allclose(grads[1], full[[4, 3]])

    def test_growth_constants_positive(self, logistic):
        _, dataset = logistic
        assert dataset.M_c > 0
        assert dataset.M_v > 0

    def test_diameter_positive(self, logistic):
        problem, _ = logistic
        assert problem.diameter_D > 0

    @pytest.mark.parametrize("reg", [0.0, -0.01, np.nan])
    def test_nonpositive_reg_rejected(self, reg):
        # with reg <= 0 the objective is not strongly convex, and with
        # reg < 0 it is unbounded below
        with pytest.raises(ValueError, match="reg must be positive"):
            make_synthetic_logistic(n_samples=32, dim=3, seed=0, reg=reg)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="np.longdouble is no wider than float64 here")
class TestLossKernel:
    """The per-sample loss log(1 + exp(-m)) of a margin m, against a
    long-double reference: a one-feature dataset with unit labels, the
    point x = 1 and no regularizer has the margins as its features."""

    EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.7, -36.7,
             745.2, -745.2, 1e4, -1e4]

    @staticmethod
    def ulps(margins):
        m = np.asarray(margins, float)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _logistic_losses(m[:, None], np.ones_like(m), 0.0,
                                   np.ones((1, 1)), slice(None))[0]
            ref = np.logaddexp(np.longdouble(0), -m.astype(np.longdouble))
        assert np.all(np.isfinite(got))
        unit = np.spacing(ref.astype(float)).astype(np.longdouble)
        return np.abs(got.astype(np.longdouble) - ref) / unit

    def test_edges(self):
        assert self.ulps(self.EDGES).max() <= 2

    @pytest.mark.parametrize("scale", [4.0, 40.0])
    def test_random_margins(self, scale):
        m = scale * np.random.default_rng(24).standard_normal(100_000)
        assert self.ulps(m).max() <= 2


class TestBranchFreeSigmoid:
    """`_sigmoid`, and its in-place form in `_logistic_coeffs`, give the
    bits of the two-branch form np.where(t >= 0, 1 / (1 + e), e / (1 + e)),
    e = exp(-|t|), on signed zeros, subnormals, saturated and infinite
    arguments, NaN and random margins."""

    SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-320, -1e-320, 800.0, -800.0,
               np.inf, -np.inf, np.nan]

    @staticmethod
    def two_branch(t):
        ex = np.exp(-np.abs(t))
        return np.where(t >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))

    @pytest.fixture(scope="class")
    def margins(self):
        rng = np.random.default_rng(27)
        return np.concatenate((self.SPECIAL, 4.0 * rng.standard_normal(10_000),
                               40.0 * rng.standard_normal(10_000)))

    def test_sigmoid_bits(self, margins):
        assert _sigmoid(margins).tobytes() == self.two_branch(margins).tobytes()

    def test_coefficient_bits(self, margins):
        # one feature and the point x = 1, so the margins are y * features
        labels = np.where(np.arange(len(margins)) % 3, 1.0, -1.0)
        features = (margins * labels)[:, None]
        F, coeff = _logistic_coeffs(features, labels, np.ones((1, 1)), slice(None))
        want = -labels * self.two_branch(-(labels * features[:, 0]))
        assert coeff[0].tobytes() == want.tobytes()


def lbfgs_minimum(problem):
    """phi at the L-BFGS-B minimizer from the origin: the reference the
    Newton solve is checked against."""
    sol = scipy.optimize.minimize(
        problem.value, np.zeros(problem.dim), jac=problem.gradient,
        method="L-BFGS-B", options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 5000})
    return problem.value(sol.x)


class TestNewtonMinimum:
    """phi_star comes from a Newton solve; L-BFGS-B is the reference."""

    # (n_samples, dim, seed, reg): the logistic_minibatch workload's fixture
    # first, then fixtures of earlier bit-identity checks; the last is
    # logistic_sizes' n64
    FIXTURES = [(2048, 10, 11, 0.01), (2048, 10, 0, 1e-3), (256, 5, 3, 1e-3),
                (512, 8, 7, 1e-3), (100, 3, 1, 1e-3), (64, 2, 11, 1e-3),
                (1000, 20, 5, 1e-3), (2048, 10, 3, 1e-3), (256, 4, 5, 1e-3),
                (64, 3, 1, 1e-3), (512, 10, 0, 1e-3), (64, 5, 3, 0.01)]

    @pytest.mark.parametrize("n, dim, seed, reg", FIXTURES)
    def test_matches_lbfgs_at_a_zero_gradient(self, n, dim, seed, reg):
        problem, dataset = make_synthetic_logistic(n_samples=n, dim=dim,
                                                   seed=seed, reg=reg)
        ref = lbfgs_minimum(problem)
        assert abs(problem.phi_star - ref) <= 4 * np.spacing(ref)
        x_star = _logistic_minimizer(problem, dataset.features, reg)
        assert problem.value(x_star) == problem.phi_star
        assert np.linalg.norm(problem.gradient(x_star)) <= 1e-12
        assert problem.diameter_D == 2.0 * np.linalg.norm(problem.x0 - x_star)

    def test_step_cap_raises(self):
        # every step lowers an objective that is unbounded below, so only
        # the cap stops the solve
        with pytest.raises(ArithmeticError, match="did not converge"):
            _logistic_minimizer(make_linear([1.0, -2.0]), np.eye(2), 0.01)


# n2048 is the fixture of the logistic_minibatch workload
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
        """The value and gradient at one point, as a stack of one, over the
        copied index array."""
        f, y, reg = dataset.features, dataset.labels, dataset.reg
        idx = np.arange(dataset.n_samples)

        def value(x):
            losses = _logistic_losses(f, y, reg, x[None], idx)[0]
            return float(np.add.reduce(losses) / len(idx))

        def grad(x):
            # c'F / n + reg x, the loss derivatives' product with the rows
            return dataset.mean_grads(x[None], idx)[0]
        return value, grad

    def test_random_points(self, logistic_sizes):
        problem, dataset = logistic_sizes
        value, grad = self.reference(dataset)
        X = 3.0 * np.random.default_rng(12).standard_normal((50, problem.dim))
        assert problem.value_fn(X).tolist() == [value(x) for x in X]
        assert np.array_equal(problem.grad_fn(X), [grad(x) for x in X])

    def test_lbfgs_solution(self, logistic_sizes):
        # the same bits at the minimum L-BFGS-B finds over the reference; on
        # the workload fixture that minimum is the Newton solve's phi_star
        # bit for bit, while on n64 it lands 1 ulp below, within
        # TestNewtonMinimum's 4 ulp
        problem, dataset = logistic_sizes
        value, grad = self.reference(dataset)
        sol = scipy.optimize.minimize(
            value, np.zeros(problem.dim), jac=grad, method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 5000})
        assert problem.value(sol.x) == value(sol.x)
        assert np.array_equal(problem.gradient(sol.x), grad(sol.x))
        if dataset.n_samples == 2048:
            assert value(sol.x) == problem.phi_star


class TestCoefficientGradient:
    """A logistic mean gradient is c'F / k + reg x, from the derivatives c
    of the per-sample losses: one product per row, never a reduction of the
    per-sample gradients."""

    def test_rows_are_their_stacks_of_one(self, logistic_sizes):
        # 300 rows span 2 (n64) or 38 (n2048) chunks of GATHER_SAMPLES // n
        # rows
        problem, dataset = logistic_sizes
        X = 3.0 * np.random.default_rng(14).standard_normal((300, problem.dim))
        assert len(X) * dataset.n_samples > GATHER_SAMPLES
        G = problem.gradients(X)
        assert np.array_equal(G, [problem.gradients(X[r:r + 1])[0]
                                  for r in range(len(X))])
        np.testing.assert_allclose(
            G[:20], dataset.loss_grads(X[:20], slice(None)).mean(axis=1),
            rtol=1e-12, atol=1e-14)

    def test_no_less_accurate_than_the_per_sample_sum(self, logistic_sizes):
        # against the exact sum of the per-sample gradients, component by
        # component, the product is at least as accurate as the sequential
        # sum over the per-sample stack
        problem, dataset = logistic_sizes
        X = 3.0 * np.random.default_rng(12).standard_normal((50, problem.dim))
        grads = dataset.loss_grads(X, slice(None))
        n = dataset.n_samples
        ref = np.array([[math.fsum(g[:, j]) / n for j in range(problem.dim)]
                        for g in grads])

        def worst(G):
            return np.max(np.linalg.norm(G - ref, axis=1)
                          / np.linalg.norm(ref, axis=1))
        assert worst(problem.gradients(X)) <= worst(np.add.reduce(grads, axis=1) / n)


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
            grads = dataset.loss_grads(x[None], idx)[0]
            mean_grad = problem.gradient(x)
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
            problem, dataset, probe_rng(3, GROWTH_PROBES))

    def test_estimated_on_first_read_only(self, monkeypatch):
        # a build does not probe; the first read does, once, and a copy
        # probes afresh from the same stream to the same bits
        calls = []

        def counted(*args):
            calls.append(1)
            return estimate_growth_constants(*args)

        monkeypatch.setattr(problems, "estimate_growth_constants", counted)
        _, dataset = make_synthetic_logistic(n_samples=64, dim=5, seed=3)
        assert calls == []
        constants = (dataset.M_c, dataset.M_v)
        assert (dataset.M_c, dataset.M_v) == constants and calls == [1]
        copy = dataclasses.replace(dataset)
        assert (copy.M_c, copy.M_v) == constants and calls == [1, 1]

    def test_no_full_data_pass(self, logistic):
        problem, dataset = logistic
        calls = []
        counted = dataclasses.replace(
            problem, grad_fn=lambda x: calls.append(1) or problem.grad_fn(x))
        estimate_growth_constants(counted, dataset, np.random.default_rng(21))
        assert calls == []


class TestStackedValues:
    """values(X) / gradients(X) answer every row of an (m, dim) stack in one
    call, and row r is what the stack of one of that row answers."""

    @pytest.mark.parametrize("name", ["quadratic", "linear", "logistic"])
    def test_matches_value_fn_row_by_row(self, name, quadratic, logistic):
        # against each fixture's formula, evaluated independently per row
        c = np.array([1.0, -2.0, 0.5, 3.0])
        problem, dataset = {"quadratic": (quadratic, None), "logistic": logistic,
                            "linear": (make_linear(c), None)}[name]
        X = np.random.default_rng(31).standard_normal((17, problem.dim))
        got = problem.values(X)
        assert got.shape == (17,)
        want = {
            "quadratic": lambda: [0.5 * g @ x for x, g in zip(X, problem.gradients(X))],
            "linear": lambda: X @ c,
            "logistic": lambda: dataset.losses(X, slice(None)).mean(axis=1),
        }[name]()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(10,), (4, 9), (2, 4, 10)])
    def test_wrong_shape_rejected(self, quadratic, shape):
        with pytest.raises(DimensionMismatchError):
            quadratic.values(np.zeros(shape))

    @pytest.mark.parametrize("name", ["quadratic", "linear", "logistic"])
    @pytest.mark.parametrize("m", [1, 2, 17])
    def test_rows_are_the_one_point_bits(self, name, m, quadratic, logistic):
        # a row's exact values may not depend on the stack it came in: row r
        # of an m-stack is the stack of one of that row, and the one-point
        # views are that stack of one
        problem = {"quadratic": quadratic, "logistic": logistic[0],
                   "linear": make_linear([1.0, -2.0, 0.5, 3.0])}[name]
        X = 3.0 * np.random.default_rng(32).standard_normal((m, problem.dim))
        assert np.array_equal(problem.values(X),
                              [problem.values(X[r:r + 1])[0] for r in range(m)])
        assert np.array_equal(problem.gradients(X),
                              [problem.gradients(X[r:r + 1])[0] for r in range(m)])
        assert problem.values(X).tolist() == [problem.value(x) for x in X]
        assert np.array_equal(problem.gradients(X),
                              [problem.gradient(x) for x in X])

    @pytest.mark.parametrize("shape", [(10,), (4, 9)])
    def test_gradients_wrong_shape_rejected(self, quadratic, shape):
        with pytest.raises(DimensionMismatchError):
            quadratic.gradients(np.zeros(shape))

    def test_no_per_row_fallback(self):
        # a stack is one pass of the fixture function, not one per row
        p, calls = counting_problem()
        np.testing.assert_array_equal(p.values(np.ones((5, 3))), 1.5)
        np.testing.assert_array_equal(p.gradients(np.ones((5, 3))), 1.0)
        assert calls == {"value": 1, "grad": 1}


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
