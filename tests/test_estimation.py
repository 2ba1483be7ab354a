import math

import numpy as np
import pytest

from aloe_lab.estimation import (EpochEpsFController, EstimatorConfig,
                                 estimate_eps_f)
from aloe_lab.linesearch import AloeParams, aloe_run
from aloe_lab.oracles import (FirstOracleSpec, SyntheticFirstOracle,
                              SyntheticZerothOracle, ZerothOracleSpec)
from aloe_lab.problems import (DimensionMismatchError,
                               make_strongly_convex_quadratic)
from aloe_lab.rng import EPS_EST, KeyedStream, probe_stream, uniform


@pytest.fixture(scope="module")
def quadratic():
    return make_strongly_convex_quadratic(dim=5, lambda_min=0.5,
                                          lambda_max=5.0, seed=1)


class TestConfig:
    def test_defaults(self):
        c = EstimatorConfig()
        assert (c.n_calls, c.scale_factor, c.refresh_period) == (30, 0.2, 50)

    @pytest.mark.parametrize("kwargs", [
        {"n_calls": 1}, {"scale_factor": 0.0}, {"refresh_period": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)


class CoinOracle:
    """phi(x) +/- c with a fair coin per row; population standard deviation
    c."""

    def __init__(self, problem, c):
        self.problem = problem
        self.c = c

    def __call__(self, x, stream):
        sign = np.where(uniform(stream.words(len(x), 1))[:, 0] < 0.5, 1.0, -1.0)
        return self.problem.values(x) + sign * self.c


class SequenceOracle:
    def __init__(self, values):
        self.values = np.array(values)

    def __call__(self, x, stream):
        return self.values[:len(x)]


class TestEstimate:
    def test_exact_oracle_gives_zero(self, quadratic):
        oracle = SyntheticZerothOracle(quadratic, ZerothOracleSpec())
        stream = probe_stream(0)
        assert estimate_eps_f(oracle, np.ones((1, 5)), EstimatorConfig(),
                              stream).tolist() == [0.0]

    def test_two_point_example(self):
        oracle = SequenceOracle([0.0, 2.0])
        config = EstimatorConfig(n_calls=2, scale_factor=1.0)
        est = estimate_eps_f(oracle, np.zeros((1, 1)), config, probe_stream(0))
        assert est.tolist() == pytest.approx([math.sqrt(2)])

    def test_coin_oracle_distribution(self, quadratic):
        # population std is exactly c; the mean scaled estimate over many
        # replications approaches 0.2 c
        c = 1.0
        oracle = CoinOracle(quadratic, c)
        # 400 copies of x over one key: 400 estimates in a row
        ests = estimate_eps_f(oracle, np.ones((400, 5)), EstimatorConfig(),
                              probe_stream(1))
        assert np.mean(ests) == pytest.approx(0.2 * c, rel=0.05)

    def test_scale_equivariance(self, quadratic):
        # identical streams, noise scaled by 3: estimates scale by exactly 3
        small = SyntheticZerothOracle(quadratic, ZerothOracleSpec(eps_f=0.1, mode="bounded"))
        big = SyntheticZerothOracle(quadratic, ZerothOracleSpec(eps_f=0.3, mode="bounded"))
        x = np.ones((1, 5))
        e1 = estimate_eps_f(small, x, EstimatorConfig(), probe_stream(7))
        e3 = estimate_eps_f(big, x, EstimatorConfig(), probe_stream(7))
        assert e3 == pytest.approx(3 * e1, rel=1e-12)

    def test_point_rejected(self, quadratic):
        # a point is a stack of one; a bare point would be read as 5 rows
        oracle = SyntheticZerothOracle(quadratic, ZerothOracleSpec(eps_f=0.1, mode="bounded"))
        with pytest.raises(DimensionMismatchError):
            estimate_eps_f(oracle, np.ones(5), EstimatorConfig(), probe_stream(0))


class TestStackedEstimate:
    def test_rows_are_the_point_estimates(self, quadratic):
        # one stacked query of n * n_calls rows; each row's n_calls copies
        # are consecutive queries of its key, as in the estimate of the
        # stack of one of that row
        oracle = SyntheticZerothOracle(quadratic, ZerothOracleSpec(eps_f=0.1, mode="bounded"))
        X = np.random.default_rng(3).standard_normal((4, 5))
        config = EstimatorConfig(n_calls=7)
        got = estimate_eps_f(oracle, X, config, KeyedStream(range(4), EPS_EST),
                             phi=quadratic.values(X))
        want = [estimate_eps_f(oracle, X[r:r + 1], config, KeyedStream([r], EPS_EST))[0]
                for r in range(len(X))]
        assert got.tolist() == want


class TestController:
    def test_refresh_schedule(self, quadratic):
        oracle = SyntheticZerothOracle(quadratic, ZerothOracleSpec(eps_f=0.1, mode="bounded"))
        ctrl = EpochEpsFController(oracle, EstimatorConfig(refresh_period=10))
        stream = KeyedStream([0], EPS_EST)
        x = np.ones((1, 5))
        for k in range(35):
            ctrl(k, x, stream)
        assert [k for k, _ in ctrl.history] == [0, 10, 20, 30]
        assert all(v.shape == (1,) and v[0] > 0 for _, v in ctrl.history)

    def test_driven_run_records_estimates(self, quadratic):
        zspec = ZerothOracleSpec(eps_f=0.05, mode="bounded")
        zeroth = SyntheticZerothOracle(quadratic, zspec)
        first = SyntheticFirstOracle(quadratic, FirstOracleSpec())
        ctrl = EpochEpsFController(zeroth, EstimatorConfig(refresh_period=20))
        paths = aloe_run(quadratic, zeroth, first,
                         AloeParams(max_iters=60), seed=0,
                         eps_f_controller=ctrl)
        eps_values = set(paths.eps_f[0].tolist())
        assert len(eps_values) == 3  # one per epoch
        assert all(v >= 0 for v in eps_values)
