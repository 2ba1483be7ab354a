import dataclasses
import math

import numpy as np
import pytest

from aloe_lab import problems
from aloe_lab import rng as rngmod
from aloe_lab.oracles import (FirstOracleSpec, GsgFirstOracle,
                              MiniBatchFirstOracle, MiniBatchZerothOracle,
                              OracleParameterError, SyntheticFirstOracle,
                              SyntheticZerothOracle, ZerothOracleSpec,
                              gradient_accurate, oracle_reads,
                              prop1_subexp_params,
                              prop2_sample_size, prop3_params,
                              sample_one_sided_subexp)
from aloe_lab.harness import mgf_envelope_ok
from aloe_lab.problems import (GATHER_SAMPLES, DimensionMismatchError,
                               make_strongly_convex_quadratic,
                               make_synthetic_logistic)
from aloe_lab.rng import GRAD, KeyedStream, probe_stream, uniform

from linear_objective import make_linear


@pytest.fixture(scope="module")
def quadratic():
    return make_strongly_convex_quadratic(dim=5, lambda_min=0.5,
                                          lambda_max=5.0, seed=1)


@pytest.fixture(scope="module")
def logistic():
    return make_synthetic_logistic(n_samples=128, dim=4, seed=2)


def counted(problem):
    """`problem` with a value_fn / grad_fn that count the rows they
    evaluate."""
    calls = {"value": 0, "grad": 0}

    def count(kind, fn):
        def wrapper(X):
            calls[kind] += len(X)
            return fn(X)
        return wrapper

    return dataclasses.replace(
        problem, value_fn=count("value", problem.value_fn),
        grad_fn=count("grad", problem.grad_fn)), calls


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
        x = np.random.default_rng(0).standard_normal(5)
        est = oracle(x[None], probe_stream(0))
        phi = quadratic.values(x[None])
        assert est.tolist() == [quadratic.value(x)]
        assert np.all(est - phi == 0.0)

    def test_bounded_mode_never_exceeds_eps_f(self, quadratic):
        spec = ZerothOracleSpec(eps_f=0.3, mode="bounded")
        oracle = SyntheticZerothOracle(quadratic, spec)
        # 5000 copies of x: consecutive queries of the stream's one key
        X = np.ones((5000, 5))
        est, phi = oracle(X, probe_stream(1)), quadratic.values(X)
        errs = np.abs(est - phi)
        assert errs.max() <= 0.3
        # uniform on [0, eps_f]: mean eps_f / 2
        assert errs.mean() == pytest.approx(0.15, abs=0.01)

    def test_subexponential_mean_on_target(self, quadratic):
        spec = ZerothOracleSpec(eps_f=0.2, nu=0.1, b=0.1,
                                mode="subexponential", mean_error=0.1)
        oracle = SyntheticZerothOracle(quadratic, spec)
        X = np.ones((20000, 5))
        est, phi = oracle(X, probe_stream(2)), quadratic.values(X)
        errs = np.abs(est - phi)
        assert errs.mean() == pytest.approx(0.1, abs=0.005)
        assert errs.mean() <= spec.eps_f


MODES = {
    "exact": ZerothOracleSpec(),
    "bounded": ZerothOracleSpec(eps_f=0.3, mode="bounded"),
    "subexponential": ZerothOracleSpec(eps_f=0.2, nu=0.1, b=0.1,
                                       mode="subexponential", mean_error=0.1),
}


class TestStackedZeroth:
    """An (m, dim) stack is m queries answered in one call, with the law of
    the query of a stack of one."""

    def errors(self, quadratic, spec, seed, m=20_000):
        oracle = SyntheticZerothOracle(quadratic, spec)
        X = np.ones(5) + np.random.default_rng(seed).standard_normal((m, 5))
        est, phi = oracle(X, probe_stream(seed + 1)), quadratic.values(X)
        assert est.shape == phi.shape == (m,)
        np.testing.assert_allclose(phi[:50], [quadratic.value(x) for x in X[:50]],
                                   rtol=1e-12)
        return np.abs(est - phi)

    def test_exact_mode_zero_error(self, quadratic):
        assert np.all(self.errors(quadratic, MODES["exact"], 20) == 0.0)

    @pytest.mark.parametrize("mode", ["bounded", "subexponential"])
    def test_mean_on_target(self, quadratic, mode):
        spec = MODES[mode]
        errs = self.errors(quadratic, spec, 21)
        stderr = errs.std(ddof=1) / math.sqrt(errs.size)
        assert abs(errs.mean() - spec.target_mean) <= 3 * stderr

    def test_bounded_never_exceeds_eps_f(self, quadratic):
        assert self.errors(quadratic, MODES["bounded"], 22).max() <= 0.3

    def test_subexponential_within_mgf_envelope(self, quadratic):
        spec = MODES["subexponential"]
        errs = self.errors(quadratic, spec, 23)
        assert mgf_envelope_ok(errs, spec.nu, spec.b)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_draw_count_does_not_depend_on_x(self, quadratic, mode):
        oracle = SyntheticZerothOracle(quadratic, MODES[mode])
        after = []
        for X in (np.zeros((7, 5)), 1e3 * np.ones((7, 5))):
            stream = probe_stream(24)
            oracle(X, stream)
            after.append((stream.count, stream.words(1, 1).tolist()))
        assert after[0] == after[1] and after[0][0] == 7


class TestRowGenerators:
    """Row r of an m-stack over one key per row answers exactly what the
    stack of one of that row answers over that key, and a stack over one
    key answers what that key's consecutive stacks of one answer (not so
    for the Gaussian-smoothing oracle, whose query is three queries, each
    taken for the whole stack in turn).  Every key ends at the query count
    its stacks of one leave it at.  `rowargs` hold one value per row (a
    known exact value, a step size), sliced with the row."""

    @staticmethod
    def compare(query, X, seeds, *rowargs, consecutive=True):
        def ones(stream_of):
            return [query(X[r:r + 1], stream_of(r), *(a[r:r + 1] for a in rowargs))
                    for r in range(len(X))]

        def assert_rows(est, ones):
            for r, e in enumerate(ones):
                assert np.array_equal(est[r], e[0]), r

        one_streams = [KeyedStream([s], GRAD) for s in seeds]
        rows = KeyedStream(seeds, GRAD)
        assert_rows(query(X, rows, *rowargs), ones(one_streams.__getitem__))
        assert {st.count for st in one_streams} == {rows.count}
        if consecutive:
            one = KeyedStream([seeds[0]], GRAD)
            assert_rows(query(X, KeyedStream([seeds[0]], GRAD), *rowargs),
                        ones(lambda r: one))

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_synthetic_zeroth(self, quadratic, mode):
        oracle = SyntheticZerothOracle(quadratic, MODES[mode])
        X = np.random.default_rng(40).standard_normal((6, 5))
        self.compare(oracle, X, range(6))
        # a known exact value is used, not recomputed
        self.compare(oracle, X, range(6), quadratic.values(X))

    def test_synthetic_first(self, quadratic):
        oracle = SyntheticFirstOracle(quadratic, FirstOracleSpec(
            eps_g=0.05, kappa=0.5, delta=0.4))
        X = np.random.default_rng(41).standard_normal((12, 5))
        self.compare(lambda x, st, alpha: oracle(x, alpha, st),
                     X, range(12), np.linspace(0.1, 1.0, 12))

    @pytest.mark.parametrize("gather", [1 << 14, 16], ids=["one_pass", "chunked"])
    def test_minibatch(self, logistic, monkeypatch, gather):
        # 16 samples per pass: stacks of 5 rows with batches of 8 go two
        # rows at a time
        monkeypatch.setattr(problems, "GATHER_SAMPLES", gather)
        problem, dataset = logistic
        zeroth = MiniBatchZerothOracle(problem, dataset, batch_size=8)
        first = MiniBatchFirstOracle(problem, dataset, batch_size=8)
        X = np.random.default_rng(42).standard_normal((5, 4))
        self.compare(zeroth, X, range(5))
        self.compare(lambda x, st: first(x, 0.5, st), X, range(5))
        with pytest.raises(ValueError):
            zeroth(X, KeyedStream(range(2), GRAD))

    def test_gsg(self, quadratic):
        zeroth = SyntheticZerothOracle(quadratic, MODES["bounded"])
        oracle = GsgFirstOracle(quadratic, zeroth, sigma=0.01, num_directions=16)
        X = np.random.default_rng(43).standard_normal((4, 5))
        self.compare(lambda x, st: oracle(x, 0.5, st), X, range(4),
                     consecutive=False)

    def test_stacked_accuracy_test_is_the_point_test(self, quadratic):
        rng = np.random.default_rng(44)
        G, grad = rng.standard_normal((50, 5)), rng.standard_normal((50, 5))
        alpha = rng.random(50)
        got = gradient_accurate(G, grad, alpha, 2.0, 1.0)
        assert got.tolist() == [
            gradient_accurate(G[r:r + 1], grad[r:r + 1], alpha[r], 2.0, 1.0)[0]
            for r in range(50)]
        assert 0 < got.sum() < 50


class TestShapeRejected:
    """An oracle takes (m, dim) stacks only: a single point, a stack of the
    wrong width or a 3-d array raises DimensionMismatchError before any
    word is drawn, also when the exact values are given (they would
    otherwise make the oracle read a point's dim entries as dim rows)."""

    @staticmethod
    def assert_rejected(query, dim=5):
        for x in (np.zeros(dim), np.zeros((3, dim - 1)), np.zeros((2, 3, dim))):
            stream = probe_stream(70)
            with pytest.raises(DimensionMismatchError):
                query(x, stream)
            assert stream.count == 0

    def test_synthetic_zeroth(self, quadratic):
        oracle = SyntheticZerothOracle(quadratic, MODES["bounded"])
        self.assert_rejected(lambda x, st: oracle(x, st))
        self.assert_rejected(lambda x, st: oracle(x, st, phi=np.zeros(5)))

    def test_synthetic_first(self, quadratic):
        oracle = SyntheticFirstOracle(quadratic, FirstOracleSpec(eps_g=0.1))
        self.assert_rejected(lambda x, st: oracle(x, 0.5, st))
        self.assert_rejected(lambda x, st: oracle(x, 0.5, st, grad=np.zeros(5)))

    def test_minibatch(self, logistic):
        problem, dataset = logistic
        zeroth = MiniBatchZerothOracle(problem, dataset, batch_size=4)
        first = MiniBatchFirstOracle(problem, dataset, batch_size=4)
        self.assert_rejected(lambda x, st: zeroth(x, st, phi=np.zeros(4)), dim=4)
        self.assert_rejected(lambda x, st: first(x, 0.5, st, grad=np.zeros(4)),
                             dim=4)

    def test_gsg(self, quadratic):
        zeroth = SyntheticZerothOracle(quadratic, MODES["bounded"])
        oracle = GsgFirstOracle(quadratic, zeroth, sigma=0.01, num_directions=8)
        self.assert_rejected(lambda x, st: oracle(x, 0.5, st, grad=np.zeros(5)))
        self.assert_rejected(lambda x, st: oracle(x, 0.5, st, phi=np.zeros(5)))


class TestSubexpSampler:
    @pytest.mark.parametrize("nu,b,mean", [(0.1, 0.1, 0.05), (0.05, 0.0, 0.1),
                                           (0.0, 0.0, 0.05), (0.1, 0.1, 0.0)])
    def test_block_is_the_scalar_draws(self, nu, b, mean):
        u = uniform(probe_stream(6).words(500, 1))[:, 0]
        block = sample_one_sided_subexp(nu, b, mean, u)
        scalars = [sample_one_sided_subexp(nu, b, mean, v) for v in u.tolist()]
        assert block.shape == (500,)
        assert block.tolist() == scalars

    def test_degenerate_point_mass(self):
        assert sample_one_sided_subexp(0.0, 0.0, 0.05, 0.3) == 0.05

    def test_zero_mean(self):
        assert sample_one_sided_subexp(0.1, 0.1, 0.0, 0.3) == 0.0

    def test_two_point_law_when_b_zero(self):
        u = uniform(probe_stream(3).words(200, 1))[:, 0]
        draws = {round(v, 12) for v in
                 sample_one_sided_subexp(0.05, 0.0, 0.1, u).tolist()}
        assert draws == {0.05, 0.15}

    def test_nonnegative(self):
        u = uniform(probe_stream(4).words(1000, 1))[:, 0]
        assert (sample_one_sided_subexp(0.2, 0.3, 0.1, u) >= 0.0).all()
        assert sample_one_sided_subexp(0.2, 0.3, 0.1, 0.0) == 0.0

    @pytest.mark.parametrize("nu,b,mean", [(0.1, 0.1, 0.05), (0.3, 0.2, 0.2)])
    def test_mgf_envelope(self, nu, b, mean):
        n = 200_000
        samples = sample_one_sided_subexp(nu, b, mean,
                                          uniform(probe_stream(5).words(n, 1))[:, 0])
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
        X = np.random.default_rng(6).standard_normal((500, 5))
        g, grad = oracle(X, 0.7, probe_stream(6)), quadratic.gradients(X)
        assert gradient_accurate(g, grad, 0.7, spec.eps_g, spec.kappa).all()

    def test_event_frequency_at_least_one_minus_delta(self, quadratic):
        spec = FirstOracleSpec(eps_g=0.05, kappa=0.5, delta=0.1)
        oracle = SyntheticFirstOracle(quadratic, spec)
        n = 10_000
        X = np.ones((n, 5))
        g, grad = oracle(X, 0.3, probe_stream(7)), quadratic.gradients(X)
        hits = gradient_accurate(g, grad, 0.3, spec.eps_g, spec.kappa).sum()
        # binomial(n, 0.9) three-sigma band around the mean
        assert hits >= n * 0.9 - 3 * math.sqrt(n * 0.9 * 0.1)

    def test_corruptions_are_large(self, quadratic):
        spec = FirstOracleSpec(eps_g=0.01, kappa=0.1, delta=0.5,
                               corruption_scale=10.0, corruption_base=10.0)
        oracle = SyntheticFirstOracle(quadratic, spec)
        grad_norm = np.linalg.norm(quadratic.gradient(np.ones(5)))
        X = np.ones((2000, 5))
        g, grad = oracle(X, 0.3, probe_stream(8)), quadratic.gradients(X)
        failed = ~gradient_accurate(g, grad, 0.3, spec.eps_g, spec.kappa)
        assert failed.any()
        np.testing.assert_allclose(np.linalg.norm((g - grad)[failed], axis=1),
                                   10.0 + 10.0 * grad_norm, rtol=1e-6)

    def test_a_zero_draw_points_along_the_first_axis(self, quadratic):
        # a word whose high 32 bits are all ones gives the Box-Muller radius
        # 0, so row 1 draws the zero vector as its direction
        class ZeroRowStream:
            def draw(self, m, width, transform):
                W = KeyedStream(range(m), GRAD).words(m, width)
                W[1, 2:] |= np.uint64(0xFFFFFFFF) << np.uint64(32)
                return transform(W)

        oracle = SyntheticFirstOracle(quadratic, FirstOracleSpec(eps_g=0.1))
        X = np.random.default_rng(9).standard_normal((3, 5))
        grad = quadratic.gradients(X)
        D = oracle(X, 0.5, ZeroRowStream(), grad=grad) - grad
        assert D[1, 0] > 0 and (D[1, 1:] == 0).all()
        assert np.count_nonzero(D[[0, 2]]) == 10
        assert (np.linalg.norm(D, axis=1) <= 0.1).all()

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            FirstOracleSpec(delta=1.0)


class TestMiniBatch:
    """The mini-batch oracles are the dataset's sample means
    (`ErmDataset.mean_losses`, `mean_grads`) over a drawn batch."""

    def test_empty_batch_rejected(self, logistic):
        problem, dataset = logistic
        for empty in (np.empty((1, 0), dtype=int), np.empty(0, dtype=int), slice(0)):
            for mean in (dataset.mean_losses, dataset.mean_grads):
                with pytest.raises(ValueError, match="batch must be nonempty"):
                    mean(np.zeros((1, 4)), empty)

    def test_full_batch_matches_exact_value(self, logistic):
        # every index of every sample is the ground truth bit for bit
        problem, dataset = logistic
        rng = np.random.default_rng(9)
        x = rng.standard_normal(4)
        full = np.arange(dataset.n_samples)
        for idx in (full[None], full):
            assert dataset.mean_losses(x[None], idx).tolist() == [problem.value(x)]
            assert np.array_equal(dataset.mean_grads(x[None], idx)[0],
                                  problem.gradient(x))

    def test_minibatch_oracles_log_errors(self, logistic):
        # a query answers its estimates alone and evaluates no ground
        # truth, whether or not the exact values are handed to it
        problem, dataset = logistic
        counting, calls = counted(problem)
        z = MiniBatchZerothOracle(counting, dataset, batch_size=16)
        f = MiniBatchFirstOracle(counting, dataset, batch_size=16)
        stream = probe_stream(10)
        X = np.random.default_rng(10).standard_normal((3, 4))
        est, g = z(X, stream), f(X, 0.5, stream)
        assert est.shape == (3,) and g.shape == (3, 4)
        z(X, stream, phi=problem.values(X))
        f(X, 0.5, stream, grad=problem.gradients(X), phi=problem.values(X))
        assert calls == {"value": 0, "grad": 0}

    def test_gradient_mean_unbiased(self, logistic):
        problem, dataset = logistic
        f = MiniBatchFirstOracle(problem, dataset, batch_size=8)
        g = f(np.ones((4000, 4)), 0.5, probe_stream(11))
        np.testing.assert_allclose(g.mean(axis=0), problem.gradient(np.ones(4)),
                                   atol=0.02)

    def test_batch_size_validation(self, logistic):
        problem, dataset = logistic
        with pytest.raises(ValueError):
            MiniBatchZerothOracle(problem, dataset, batch_size=0)

    @pytest.mark.parametrize("dim, k", [(4, 500), (5, 555)])
    def test_rows_are_their_stacks_of_one(self, dim, k):
        # 40 rows of k samples span two GATHER_SAMPLES chunks of the mean;
        # an odd dim and k put the rows of the gathered samples at every
        # alignment, and a row's mean may depend on none of it
        problem, dataset = make_synthetic_logistic(n_samples=128, dim=dim, seed=2)
        rng = np.random.default_rng(13)
        X = 3.0 * rng.standard_normal((40, dim))
        batches = rng.integers(dataset.n_samples, size=(40, k))
        assert len(X) * k > GATHER_SAMPLES > k
        for mean in (dataset.mean_losses, dataset.mean_grads):
            assert np.array_equal(mean(X, batches), [
                mean(X[r:r + 1], batches[r:r + 1])[0] for r in range(40)])
        np.testing.assert_allclose(dataset.mean_grads(X, batches),
                                   dataset.loss_grads(X, batches).mean(axis=1),
                                   rtol=1e-12, atol=1e-14)
        first = MiniBatchFirstOracle(problem, dataset, batch_size=k)
        TestRowGenerators.compare(lambda x, st: first(x, 0.5, st), X, range(40))

    @pytest.mark.parametrize("form", ["rows", "shared", "slice"])
    def test_stack_across_a_chunk_is_its_stacks_of_one(self, form):
        # 15 rows of k = 1113 samples: k does not divide GATHER_SAMPLES, a
        # chunk holds 14 rows, and the 15th starts the next; over the slice
        # the means are the fixture's value_fn and grad_fn
        k = 1113
        problem, dataset = make_synthetic_logistic(n_samples=k, dim=4, seed=5)
        rng = np.random.default_rng(15)
        X = 3.0 * rng.standard_normal((15, 4))
        idx = {"rows": rng.integers(k, size=(15, k)), "shared": rng.permutation(k),
               "slice": slice(None)}[form]
        assert GATHER_SAMPLES % k and 14 * k <= GATHER_SAMPLES < 15 * k
        one = (lambda r: idx[r:r + 1]) if form == "rows" else (lambda r: idx)
        for mean in (dataset.mean_losses, dataset.mean_grads):
            assert np.array_equal(mean(X, idx), [mean(X[r:r + 1], one(r))[0]
                                                 for r in range(15)])

    def test_no_per_sample_gradients(self, logistic, monkeypatch):
        # a mean gradient is the loss derivatives' product with the sample
        # rows, never a reduction of the per-sample gradients
        problem, dataset = logistic
        monkeypatch.setattr(problems, "_logistic_grads", None)
        X = np.ones((3, 4))
        dataset.mean_grads(X, np.zeros((3, 5), dtype=int))
        MiniBatchFirstOracle(problem, dataset, batch_size=8)(X, 0.5, probe_stream(12))
        problem.gradients(X)


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
        oracle = GsgFirstOracle(problem, SyntheticZerothOracle(
            problem, ZerothOracleSpec()), sigma=0.5, num_directions=8)
        g = oracle(np.zeros((3000, 3)), 0.5, probe_stream(12))
        np.testing.assert_allclose(g.mean(axis=0), c, atol=0.05)

    def test_parameter_validation(self):
        problem = make_linear(np.ones(2))
        oracle = SyntheticZerothOracle(problem, ZerothOracleSpec())
        with pytest.raises(ValueError):
            GsgFirstOracle(problem, oracle, sigma=0.0, num_directions=4)
        with pytest.raises(ValueError):
            GsgFirstOracle(problem, oracle, sigma=0.1, num_directions=0)

    def test_matches_the_direction_loop(self, quadratic):
        # exact mode makes the noise draws irrelevant to the values, so the
        # one-point-per-direction loop over the same U is the reference
        oracle = SyntheticZerothOracle(quadratic, MODES["exact"])
        x, sigma, n = np.ones((1, 5)), 0.01, 32
        got = GsgFirstOracle(quadratic, oracle, sigma, n)(x, 0.5, probe_stream(15))
        stream = probe_stream(15)
        f0 = oracle(x, stream)
        U = rngmod.normals(stream.words(n, rngmod.normal_words(5)), 5)
        want = sum((oracle(x + sigma * u, stream) - f0) * u for u in U) / (sigma * n)
        np.testing.assert_allclose(got, want[None], rtol=1e-9)

    def test_two_zeroth_calls_per_query(self, quadratic):
        # f(x) once, then the N perturbed points as one (N, dim) stack
        zeroth = SyntheticZerothOracle(quadratic, MODES["bounded"])
        shapes = []

        def counting(x, stream, phi=None):
            shapes.append(np.shape(x))
            return zeroth(x, stream, phi)

        oracle = GsgFirstOracle(quadratic, counting, sigma=0.01,
                                num_directions=64)
        stream = probe_stream(14)
        for _ in range(3):
            oracle(np.ones((1, 5)), 0.5, stream)
        assert shapes == [(1, 5), (64, 5)] * 3

    def test_query_evaluates_only_its_perturbed_points(self, quadratic):
        # phi at X comes from the caller, so the n N perturbed points are
        # the only ground truth a query evaluates, and it takes no gradient
        problem, calls = counted(quadratic)
        zeroth = SyntheticZerothOracle(problem, MODES["bounded"])
        oracle = GsgFirstOracle(problem, zeroth, sigma=0.01, num_directions=16)
        X = np.ones((3, 5))
        g = oracle(X, 0.5, KeyedStream(range(3), GRAD), phi=quadratic.values(X))
        assert g.shape == (3, 5)
        assert calls == {"value": 3 * 16, "grad": 0}

    def test_gsg_oracle_logs_event(self, quadratic):
        zeroth = SyntheticZerothOracle(quadratic, ZerothOracleSpec())
        oracle = GsgFirstOracle(quadratic, zeroth, sigma=0.01,
                                num_directions=512)
        X = np.ones((1, 5))
        g, grad = oracle(X, 0.5, probe_stream(13)), quadratic.gradients(X)
        ok = gradient_accurate(g, grad, 0.5, 2.0, 0.0)
        assert ok.dtype == bool and ok.shape == (1,)


class TestDeclaredReads:
    """Each oracle declares the exact values it reads (`reads`): a NaN
    handed as a value it declares turns its answer NaN, and a NaN handed as
    one it does not declare leaves its answer bit for bit that of the
    unpoisoned call.  A zeroth-order oracle is handed phi only."""

    FAMILIES = ("synthetic_zeroth", "synthetic_first", "gsg",
                "minibatch_zeroth", "minibatch_first", "gsg_minibatch")

    @staticmethod
    def family(name, quadratic, logistic):
        """(problem, oracle, is first-order, declared reads)."""
        problem, dataset = logistic
        bounded = SyntheticZerothOracle(quadratic, MODES["bounded"])
        batch = MiniBatchZerothOracle(problem, dataset, 8)
        return {
            "synthetic_zeroth": (quadratic, bounded, False, {"phi"}),
            "synthetic_first": (quadratic, SyntheticFirstOracle(
                quadratic, FirstOracleSpec(eps_g=0.01, kappa=0.5, delta=0.2)),
                True, {"grad"}),
            "gsg": (quadratic, GsgFirstOracle(quadratic, bounded, 0.01, 8),
                    True, {"phi"}),
            "minibatch_zeroth": (problem, batch, False, set()),
            "minibatch_first": (problem, MiniBatchFirstOracle(problem, dataset, 8),
                                True, set()),
            "gsg_minibatch": (problem, GsgFirstOracle(problem, batch, 0.01, 8),
                              True, set()),
        }[name]

    @pytest.mark.parametrize("name, value", [
        (name, value) for name in FAMILIES for value in ("phi", "grad")
        if value == "phi" or not name.endswith("zeroth")])
    def test_a_poisoned_value_shows_if_and_only_if_declared(
            self, quadratic, logistic, name, value):
        problem, oracle, first, declared = self.family(name, quadratic, logistic)
        assert oracle_reads(oracle) == declared
        X = np.random.default_rng(3).standard_normal((4, problem.dim))
        exact = {"phi": problem.values(X)}
        if first:
            exact["grad"] = problem.gradients(X)

        def query(**values):
            stream = KeyedStream(range(4), GRAD)
            return (oracle(X, 0.5, stream, **values) if first
                    else oracle(X, stream, **values))

        clean = query(**exact)
        poisoned = query(**{**exact, value: np.full_like(exact[value], np.nan)})
        assert np.isfinite(clean).all()
        if value in declared:
            assert np.isnan(poisoned).all()
        else:
            assert poisoned.tobytes() == clean.tobytes()

    def test_a_callable_without_a_declaration_reads_both(self, quadratic):
        zeroth = SyntheticZerothOracle(quadratic, MODES["exact"])
        assert oracle_reads(lambda X, stream, phi=None: zeroth(X, stream, phi)) \
            == {"phi", "grad"}
        # a GSG gradient reads what its zeroth-order oracle reads of phi
        assert GsgFirstOracle(quadratic, lambda X, stream, phi=None: zeroth(
            X, stream, phi), 0.01, 4).reads == {"phi"}


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
