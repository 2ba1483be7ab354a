import dataclasses
import tracemalloc

import numpy as np
import pytest

from aloe_lab import linesearch
from aloe_lab import rng as rngmod
from aloe_lab.estimation import EpochEpsFController, EstimatorConfig
from aloe_lab.harness import certify_oracles
from aloe_lab.instrument import (CENSORED, PathVerdicts, StoppingSpec,
                                 classify_paths, stopping_rule, stopping_times)
from aloe_lab.linesearch import (AloeParams, Paths, TrialDivergedError,
                                 aloe_run, armijo_check, run_lockstep,
                                 step_update)
from aloe_lab.oracles import (FirstOracleSpec, GsgFirstOracle,
                              MiniBatchFirstOracle, MiniBatchZerothOracle,
                              SyntheticFirstOracle, SyntheticZerothOracle,
                              ZerothOracleSpec)
from aloe_lab.problems import (make_strongly_convex_quadratic,
                               make_synthetic_logistic)
from oracle_recorder import OracleRecorder
from reference import reference_run, reference_verdicts


def exact_oracles(problem):
    return (SyntheticZerothOracle(problem, ZerothOracleSpec()),
            SyntheticFirstOracle(problem, FirstOracleSpec()))


def recorded_run(problem, zeroth, first, params, seeds, controller=None):
    """`run_lockstep` on recorded oracles: its `Paths` and the recorder."""
    rec = OracleRecorder(zeroth, first)
    return run_lockstep(problem, rec.zeroth, rec.first, params, seeds,
                        controller), rec


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


class TestStepTable:
    def test_only_reachable_steps(self, identity_quadratic):
        # the cap exponent is -921 029, but i starts at 0 and moves by one
        # per iteration: three iterations reach -3..3, so the run's step
        # table holds seven steps, not 921 033
        params = AloeParams(alpha_max=1e4, gamma=0.99999, max_iters=3)
        zeroth, first = exact_oracles(identity_quadratic)
        tracemalloc.start()
        try:
            paths = run_lockstep(identity_quadratic, zeroth, first, params, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert paths.alpha.tolist() == [[params.alpha0 * params.gamma ** int(i)
                                         for i in paths.exponents[0, :3]]]


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
        paths, rec = recorded_run(identity_quadratic, zeroth, first, params, [0])
        assert paths.success[0, 0]
        np.testing.assert_array_equal(rec.column("g")[0, 0], [1.0, 0.0])
        assert paths.f_plus[0, 0] == 0.0
        assert rec.column("phi_plus")[0, 0] == 0.0
        # the engine's columns include grad phi(x_1) after the final move
        assert paths.grad_norm[0, 1] == 0.0

    def test_monotone_descent(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)
        params = AloeParams(max_iters=300)
        phis = aloe_run(quadratic10, zeroth, first, params, seed=0).phi[0]
        assert np.all(np.diff(phis) <= 1e-15)

    def test_matches_deterministic_reference(self, quadratic10):
        # independent plain Armijo backtracking loop, stepped by hand
        zeroth, first = exact_oracles(quadratic10)
        params = AloeParams(max_iters=200)
        paths, rec = recorded_run(quadratic10, zeroth, first, params, [3])

        x = quadratic10.x0.copy()
        i = 0
        for alpha_k, success_k, x_k in zip(paths.alpha[0], paths.success[0],
                                           rec.column("x")[0]):
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
        alphas = aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=200),
                          seed=1).alpha[0]
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
            return recorded_run(quadratic10, zeroth, first, params, [42])

        (a, rec_a), (b, rec_b) = one_run(), one_run()
        for name in ("alpha", "f_curr", "f_plus"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        for name in ("g", "x"):
            np.testing.assert_array_equal(rec_a.column(name), rec_b.column(name))

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
        paths = aloe_run(quadratic10, SyntheticZerothOracle(quadratic10, zspec),
                         SyntheticFirstOracle(quadratic10, fspec), params, seed=0)
        i = paths.exponents[0].tolist()
        assert len(i) == params.max_iters + 1 and i[0] == 0
        assert min(i) == -7
        for k, (alpha, success) in enumerate(zip(paths.alpha[0],
                                                 paths.success[0])):
            assert i[k + 1] == (max(i[k] - 1, -7) if success else i[k] + 1)
            assert alpha == 0.01 * 0.8 ** i[k]

    def test_len(self, quadratic10):
        # a one-row block: T columns per iteration, T + 1 for the states
        zeroth, first = exact_oracles(quadratic10)
        paths = aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=7), seed=0)
        assert paths.seeds == (0,)
        for f in dataclasses.fields(Paths)[1:]:
            wide = f.name in ("exponents", "phi", "grad_norm")
            assert getattr(paths, f.name).shape == (1, 8 if wide else 7), f.name


class TestDivergence:
    def test_non_finite_oracle_aborts(self, quadratic10):
        class NanOracle:
            def __call__(self, x, rng, phi=None):
                return float("nan")

        first = SyntheticFirstOracle(quadratic10, FirstOracleSpec())
        with pytest.raises(TrialDivergedError):
            aloe_run(quadratic10, NanOracle(), first, AloeParams(max_iters=5), seed=0)

    def test_the_diverged_row_names_its_seed(self, quadratic10):
        zeroth = SyntheticZerothOracle(
            quadratic10, ZerothOracleSpec(eps_f=0.01, mode="bounded"))

        def nan_in_row_2(x, rng, phi=None):
            f = zeroth(x, rng, phi)
            return np.where(np.arange(len(f)) == 2, np.nan, f)

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
    def assert_same_rows(a, rec_a, b, rec_b, rows=slice(None)):
        """Every `Paths` column of a, and what its oracles were handed,
        equals rows `rows` of b's."""
        assert a.seeds == b.seeds[rows]
        for f in dataclasses.fields(Paths)[1:]:
            va, vb = getattr(a, f.name), getattr(b, f.name)[rows]
            assert va.dtype == vb.dtype, f.name
            np.testing.assert_array_equal(va, vb, err_msg=f.name)
        for name in ("x", "g", "grad_true", "phi_plus"):
            np.testing.assert_array_equal(rec_a.column(name),
                                          rec_b.column(name)[rows], err_msg=name)

    @pytest.mark.parametrize("name", ["synthetic", "minibatch_estimated", "gsg"])
    def test_row_of_a_block_is_the_trial_alone(self, quadratic10, name):
        problem, zeroth, first, estimator = self.family(name, quadratic10)

        def controller():
            return None if estimator is None else EpochEpsFController(zeroth, estimator)

        params = AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=40)
        alone, rec_alone = recorded_run(problem, zeroth, first, params, [21],
                                        controller())
        paths, rec = recorded_run(problem, zeroth, first, params, range(18, 27),
                                  controller())
        assert len(paths.seeds) == 9 and paths.seeds[3] == 21
        assert 0 < alone.success.sum() < params.max_iters
        self.assert_same_rows(alone, rec_alone, paths, rec, slice(3, 4))
        if estimator is not None:
            assert len(set(alone.eps_f[0].tolist())) == 4

    @pytest.mark.parametrize("name", ["synthetic", "minibatch_estimated", "gsg"])
    def test_read_ahead_changes_nothing(self, quadratic10, monkeypatch, name):
        # a window budget of one word makes every window one query: the
        # same Paths and oracle inputs as the default read-ahead
        problem, zeroth, first, estimator = self.family(name, quadratic10)
        params = AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=40)

        def run():
            controller = (None if estimator is None
                          else EpochEpsFController(zeroth, estimator))
            return recorded_run(problem, zeroth, first, params, range(18, 27),
                                controller)

        paths, rec = run()
        monkeypatch.setattr(rngmod, "WINDOW_WORDS", 1)
        self.assert_same_rows(*run(), paths, rec)

    def test_rows_differ(self, quadratic10):
        problem, zeroth, first, _ = self.family("synthetic", quadratic10)
        paths = run_lockstep(problem, zeroth, first,
                             AloeParams(eps_f_input=0.01, max_iters=20), [1, 2])
        assert not np.array_equal(paths.e_curr[0], paths.e_curr[1])


class TestReadAheadCount:
    """The line search's streams read their noise ahead (`rng`): every
    query is served, but hashed in a few windows, not one pass per query.
    Counts `KeyedStream.words` calls and the words they hash."""

    @staticmethod
    def count(monkeypatch):
        log = []   # (stream, rows, width) of each words call
        served = [0]
        words, draw = rngmod.KeyedStream.words, rngmod.KeyedStream.draw

        def counted_words(self, m, width):
            log.append((self, m, width))
            return words(self, m, width)

        def counted_draw(self, m, width, transform):
            served[0] += m * width
            return draw(self, m, width, transform)

        monkeypatch.setattr(rngmod.KeyedStream, "words", counted_words)
        monkeypatch.setattr(rngmod.KeyedStream, "draw", counted_draw)
        return log, served

    def test_synthetic_run_hashes_in_windows(self, quadratic10, monkeypatch):
        n, T = 8, 100
        problem, zeroth, first, _ = TestLockstep.family("synthetic", quadratic10)
        log, served = self.count(monkeypatch)
        run_lockstep(problem, zeroth, first,
                     AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=T),
                     range(n))
        # three queries per iteration, 3 T = 300 without the read-ahead; a
        # window that doubles from two queries takes 7 calls per stream
        assert len(log) <= 3 * T // 10
        hashed = sum(m * width for _, m, width in log)
        assert served[0] == n * T * (2 + 2 + 2 + rngmod.normal_words(10))
        assert hashed <= 2 * served[0]

    def test_no_read_ahead_on_the_gsg_gradient_stream(self, quadratic10,
                                                      monkeypatch):
        # the gradient stream alternates one query per key at x with N per
        # key: each words call hashes exactly the rows its query serves
        n, T, N = 8, 20, 8
        problem, zeroth, first, _ = TestLockstep.family("gsg", quadratic10)
        assert first.num_directions == N
        log, _ = self.count(monkeypatch)
        run_lockstep(problem, zeroth, first,
                     AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=T),
                     range(n))
        grad_stream = next(st for st, _, width in log
                           if width == rngmod.normal_words(10))
        assert [m for st, m, _ in log if st is grad_stream] == [n, n * N, n * N] * T


class TestEpsFController:
    def test_controller_values_recorded(self, quadratic10):
        zeroth, first = exact_oracles(quadratic10)

        def controller(k, x, stream, phi):
            return 0.5 if k < 10 else 0.25

        paths = aloe_run(quadratic10, zeroth, first,
                         AloeParams(max_iters=20), seed=0,
                         eps_f_controller=controller)
        assert paths.eps_f[0].tolist() == [0.5] * 10 + [0.25] * 10


class TestGroundTruthFromOracleLogs:
    """The loop records the exact values it evaluates next to the oracles'
    estimates; they must equal the problem's own value and gradient bit for
    bit, at x and at x - alpha g, and at x_T, for every oracle family.  The
    check evaluates each point afresh, as a stack of one."""

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
        p, rec = recorded_run(problem, zeroth, first,
                              AloeParams(eps_f_input=0.01, alpha_max=1.25,
                                         max_iters=30), [5])
        assert (p.e_curr > 0).any()
        for k, (x, g, grad, phi_plus) in enumerate(zip(
                *(rec.column(name)[0]
                  for name in ("x", "g", "grad_true", "phi_plus")))):
            assert p.phi[0, k] == problem.value(x)
            assert phi_plus == problem.value(x - p.alpha[0, k] * g)
            assert p.e_plus[0, k] == abs(p.f_plus[0, k] - phi_plus)
            assert np.array_equal(grad, problem.gradient(x))
            assert p.grad_norm[0, k] == float(np.linalg.norm(grad))
        x_T = x - p.alpha[0, -1] * g if p.success[0, -1] else x
        assert p.phi[0, -1] == problem.value(x_T)
        assert p.grad_norm[0, -1] == float(np.linalg.norm(problem.gradient(x_T)))


class TestGroundTruthPasses:
    """x_{k+1} is x_k or x_k+, so a trial needs one full-data phi pass per
    iteration plus the start, and one gradient pass per accepted step plus
    the start, however often the estimator queries the incumbent.  A
    stacked call counts one pass per row."""

    @staticmethod
    def counted(problem):
        calls = {"value": 0, "grad": 0}

        def count(kind, fn):
            def wrapper(X):
                calls[kind] += len(X)
                return fn(X)
            return wrapper

        return dataclasses.replace(
            problem, value_fn=count("value", problem.value_fn),
            grad_fn=count("grad", problem.grad_fn)), calls

    def test_pass_count_per_trial(self):
        problem, dataset = make_synthetic_logistic(n_samples=64, dim=4, seed=3)
        problem, calls = self.counted(problem)
        zeroth = MiniBatchZerothOracle(problem, dataset, 8)
        first = MiniBatchFirstOracle(problem, dataset, 8)
        params = AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=60)
        controller = EpochEpsFController(zeroth, EstimatorConfig(refresh_period=10))
        paths = aloe_run(problem, zeroth, first, params, seed=4,
                         eps_f_controller=controller)
        accepted = int(paths.success.sum())
        assert len(controller.history) == 6
        assert 0 < accepted < params.max_iters
        assert calls["value"] == params.max_iters + 1
        assert calls["grad"] == 1 + accepted

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


class TestTruthSchedules:
    """The engine evaluates in its loop only the exact values its oracles
    read, and the rest once per chunk of iterations.  Run on plain-callable
    wrappers, which declare no `reads`, it evaluates every value in the
    loop.  Both schedules give every `Paths` column bit for bit, at and
    around the chunk boundaries, with as many ground-truth rows, and the
    columns of one chunk spanning the run.  The chunk budget is cut so that
    a chunk is 14, 7 or 2 iterations for n = 1, 2, 7 rows."""

    FAMILIES = ("synthetic", "gsg", "minibatch", "minibatch_estimated",
                "minibatch_accepts_all", "minibatch_stalls")

    @staticmethod
    def family(name, quadratic):
        """(problem, zeroth, first, estimator config or None, params)."""
        params = AloeParams(eps_f_input=0.01, alpha_max=1.25)
        if name in ("synthetic", "gsg"):
            problem, zeroth, first, _ = TestLockstep.family(name, quadratic)
            return problem, zeroth, first, None, params
        problem, zeroth, first, estimator = TestLockstep.family(
            "minibatch_estimated", quadratic)
        if name == "minibatch_accepts_all":   # the slack outweighs the noise
            params = AloeParams(eps_f_input=10.0, alpha0=0.1, alpha_max=0.125)
        elif name == "minibatch_stalls":     # steps far too long at first
            params = AloeParams(alpha0=1000.0, alpha_max=1250.0)
        return (problem, zeroth, first,
                estimator if name == "minibatch_estimated" else None, params)

    @staticmethod
    def undeclared(zeroth, first):
        """Wrappers that hand everything on and declare no `reads`."""
        return (lambda X, stream, phi=None: zeroth(X, stream, phi=phi),
                lambda X, alpha, stream, grad=None, phi=None:
                    first(X, alpha, stream, grad=grad, phi=phi))

    @staticmethod
    def run(problem, zeroth, first, estimator, params, seeds):
        controller = (None if estimator is None
                      else EpochEpsFController(zeroth, estimator))
        return run_lockstep(problem, zeroth, first, params, seeds, controller)

    @pytest.fixture
    def short_chunks(self, monkeypatch):
        def cut(problem):
            monkeypatch.setattr(linesearch, "CHUNK_CELLS", 14 * problem.dim)
        return cut

    @pytest.mark.parametrize("times, plus", [(1, -1), (1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_columns_match_the_all_live_schedule(self, quadratic10, short_chunks,
                                                 name, n, times, plus):
        problem, zeroth, first, estimator, params = self.family(name, quadratic10)
        C = {1: 14, 2: 7, 7: 2}[n]
        T = times * C + plus
        params = dataclasses.replace(params, max_iters=T)
        seeds = range(30, 30 + n)
        assert linesearch.chunk_length(n, problem.dim, T) == T
        whole = self.run(problem, zeroth, first, estimator, params, seeds)
        short_chunks(problem)
        assert linesearch.chunk_length(n, problem.dim, 10 ** 6) == C
        chunked = self.run(problem, zeroth, first, estimator, params, seeds)
        live = self.run(problem, *self.undeclared(zeroth, first), estimator,
                        params, seeds)
        for f in dataclasses.fields(Paths)[1:]:
            for other in (live, whole):
                a, b = getattr(chunked, f.name), getattr(other, f.name)
                assert a.dtype == b.dtype, f.name
                assert a.tobytes() == b.tobytes(), f.name
        if name == "minibatch_accepts_all":
            assert chunked.success.all()
        if name == "minibatch_stalls":
            assert not chunked.success[:, :min(C, T)].any()

    @pytest.mark.parametrize("name", ["minibatch", "gsg"])
    def test_rows_and_passes_per_chunk(self, quadratic10, short_chunks, name):
        # phi once per x_k+ plus the start and grad phi once per accepted
        # step plus the start, on either schedule; the chunked one makes one
        # stacked call of each per chunk for what no oracle reads
        problem, zeroth, first, _, params = self.family(name, quadratic10)
        short_chunks(problem)
        params = dataclasses.replace(params, max_iters=2 * 14 + 1)
        counts = []
        for oracles in ((zeroth, first), self.undeclared(zeroth, first)):
            calls = {"value": [], "grad": []}

            def count(kind, fn):
                def wrapper(X):
                    calls[kind].append(len(X))
                    return fn(X)
                return wrapper

            counted = dataclasses.replace(
                problem, value_fn=count("value", problem.value_fn),
                grad_fn=count("grad", problem.grad_fn))
            # the oracles keep their own, uncounted problem
            paths = run_lockstep(counted, *oracles, params, [4])
            counts.append(calls)
        accepted = int(paths.success.sum())
        assert 0 < accepted < params.max_iters
        chunked, live = counts
        if name == "minibatch":
            assert sum(chunked["value"]) == sum(live["value"]) == 1 + params.max_iters
            assert len(chunked["value"]) == 1 + 3
        assert sum(chunked["grad"]) == sum(live["grad"]) == 1 + accepted
        assert len(chunked["grad"]) <= 1 + 3 < len(live["grad"])


class TestLiteralReference:
    """Every `Paths` column of each row of a block equals the literal
    reference loop (`tests/reference.py`) run on that row's trial alone,
    bit for bit: for every oracle family, an off-grid cap, blocks of one
    and three rows, and chunks of the whole run or of a few iterations
    (7 for one row, 2 for three)."""

    T = 29
    FAMILIES = ("bounded", "subexponential", "off_grid", "gsg", "minibatch",
                "minibatch_estimated")

    @staticmethod
    def family(name, quadratic):
        """(problem, zeroth, first, estimator config or None, params)."""
        params = AloeParams(eps_f_input=0.01, alpha_max=1.25,
                            max_iters=TestLiteralReference.T)
        if name.startswith("minibatch"):
            problem, zeroth, first, estimator = TestLockstep.family(
                "minibatch_estimated", quadratic)
            return (problem, zeroth, first,
                    estimator if name == "minibatch_estimated" else None, params)
        if name == "gsg":
            return (*TestLockstep.family("gsg", quadratic)[:3], None, params)
        zspec = (ZerothOracleSpec(eps_f=0.01, nu=0.02, b=0.01,
                                  mode="subexponential", mean_error=0.005)
                 if name == "subexponential"
                 else ZerothOracleSpec(eps_f=0.01, mode="bounded"))
        if name == "off_grid":   # 3 snaps to 0.8^-4 = 2.44
            params = dataclasses.replace(params, alpha_max=3.0)
        return (quadratic, SyntheticZerothOracle(quadratic, zspec),
                SyntheticFirstOracle(quadratic, FirstOracleSpec(
                    eps_g=0.01, kappa=0.5, delta=0.2)), None, params)

    @staticmethod
    def controller(zeroth, estimator):
        return None if estimator is None else EpochEpsFController(zeroth, estimator)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_rows_equal_the_reference(self, quadratic10, monkeypatch, name, n):
        problem, zeroth, first, estimator, params = self.family(name, quadratic10)

        def controller():
            return self.controller(zeroth, estimator)

        seeds = range(40, 40 + n)
        want = [reference_run(problem, zeroth, first, params, seed, controller())
                for seed in seeds]
        accepted = sum(int(w.success.sum()) for w in want)
        assert 0 < accepted < n * self.T
        for cells, C in ((linesearch.CHUNK_CELLS, self.T),
                         (7 * problem.dim, 7 // n)):
            monkeypatch.setattr(linesearch, "CHUNK_CELLS", cells)
            assert linesearch.chunk_length(n, problem.dim, self.T) == C
            paths = run_lockstep(problem, zeroth, first, params, seeds,
                                 controller())
            for r, w in enumerate(want):
                for f in dataclasses.fields(Paths):
                    a, b = getattr(paths.row(r, self.T), f.name), getattr(w, f.name)
                    if f.name != "seeds":
                        assert a.dtype == b.dtype, f.name
                        a, b = a.tobytes(), b.tobytes()
                    assert a == b, (f.name, r, C)


    @staticmethod
    def criterion(kind, want, phi_star):
        """A stopping criterion of each kind, set from the reference rows
        `want` so that their stopping times vary: the median of the rows'
        values halfway or two thirds into the run, a criterion x_0 meets
        (T_eps = 0) and one no row meets."""
        gnorm = np.concatenate([w.grad_norm for w in want])
        gap = np.concatenate([w.phi for w in want]) - phi_star
        t, t2 = TestLiteralReference.T // 2, 2 * TestLiteralReference.T // 3
        if kind == "at_start":
            return StoppingSpec("nonconvex", eps=float(gnorm[0, 0]))
        if kind == "never":
            return StoppingSpec("nonconvex", eps=float(gnorm.min()) / 2)
        if kind == "nonconvex":
            return StoppingSpec(kind, eps=float(np.median(gnorm[:, t])))
        if kind == "strongly_convex":
            return StoppingSpec(kind, eps=float(np.median(gap[:, t2])))
        return StoppingSpec(kind, eps=float(np.median(gap[:, t2])),
                            eps1=float(np.median(gnorm[:, t])))

    @pytest.mark.parametrize("kind", ["nonconvex", "strongly_convex", "convex",
                                      "at_start", "never"])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_verdicts_equal_the_reference(self, quadratic10, monkeypatch, name,
                                          kind):
        # every PathVerdicts field of each row of a block of five, on the
        # full-budget run and on one whose rows leave at their stopping
        # times (chunks of two iterations while all five are in), equals
        # the literal classifier on the reference row.  The flags span the
        # block's E iterations, its last T_eps (the budget without a
        # criterion or when a row never stops): the reference's are False
        # from T_eps on, so past E
        problem, zeroth, first, estimator, params = self.family(name, quadratic10)
        seeds = range(40, 45)
        want = [reference_run(problem, zeroth, first, params, seed,
                              self.controller(zeroth, estimator))
                for seed in seeds]
        spec = self.criterion(kind, want, problem.phi_star)
        # a threshold among the steps taken, so that both kinds occur
        grid_index = int(np.median(np.concatenate([w.exponents for w in want])))
        args = (spec, 0.01, 0.5, grid_index, 1.0)
        expect = [reference_verdicts(w, problem.phi_star, *args) for w in want]
        T_eps = np.concatenate([e.T_eps for e in expect])
        last = self.T if (T_eps == CENSORED).any() else int(T_eps.max())
        monkeypatch.setattr(linesearch, "CHUNK_CELLS", 2 * len(seeds) * problem.dim)
        for stop in (None, stopping_rule(spec, problem.phi_star)):
            paths = run_lockstep(problem, zeroth, first, params, seeds,
                                 self.controller(zeroth, estimator), stop=stop)
            E = self.T if stop is None else last
            assert paths.alpha.shape == (len(seeds), E)
            v = classify_paths(paths, problem, *args)
            for r, e in enumerate(expect):
                for f in dataclasses.fields(PathVerdicts):
                    got, ref = getattr(v, f.name)[r], getattr(e, f.name)[0]
                    if f.name in ("true_flags", "large_flags"):
                        assert ref.shape == (self.T,) and not ref[E:].any()
                        ref = ref[:E]
                    np.testing.assert_array_equal(
                        got, ref, err_msg=f"{f.name} row {r}", strict=True)
        if kind == "at_start":
            assert (T_eps == 0).all() and np.isnan(v.frac_true).all()
        elif kind == "never":
            assert (T_eps == CENSORED).all()
        else:
            assert len(set(T_eps.tolist())) > 1


@pytest.fixture
def chunk_log(monkeypatch):
    """(s, c, capacity, rows) of every chunk `run_lockstep` fills: its
    iterations s..s+c-1, its slots' length and its number of rows, logged
    when the block's columns are built from them, s as the engine places
    the chunk's columns."""
    log, chunks = [], []
    fill, paths = linesearch._Chunk.fill, linesearch._paths

    def logged_fill(ch, problem, c, *args):
        chunks.append((c, ch.length, ch.phi.shape[1]))
        return fill(ch, problem, c, *args)

    def logged_paths(seeds, E, filled):
        log.extend((s, *chunk) for (_, s, _), chunk in zip(filled, chunks,
                                                          strict=True))
        chunks.clear()
        return paths(seeds, E, filled)

    monkeypatch.setattr(linesearch._Chunk, "fill", logged_fill)
    monkeypatch.setattr(linesearch, "_paths", logged_paths)
    return log


def exits_by_rule(T_eps, T, capacity):
    """Where each row leaves its block by the exit rule, from the stopping
    times alone, and the chunks (s, c, rows) the block runs: the chunk that
    starts at s with m rows spans min(capacity(m), T - s) iterations,
    unless all m rows stop before its span ends, and then it ends where the
    last of them stops; the rows that have stopped by its end leave there.
    A censored row stops at T."""
    stops = np.where(T_eps == CENSORED, T, T_eps)
    exits, live = np.empty_like(stops), np.arange(len(stops))
    s, chunks = 0, []
    while len(live):
        c = min(capacity(len(live)), T - s, int(stops[live].max()) - s)
        chunks.append((s, c, len(live)))
        s += c
        left = stops[live] <= s
        exits[live[left]] = s
        live = live[~left]
    return exits, chunks


class TestRetirement:
    """With a stopping criterion, a row leaves the block at the first chunk
    end at or after its T_eps, or at the last T_eps among the rows of its
    block, whichever is first.  Every chunk spans its capacity, and the
    block's last chunk ends where its last row stops, so a row leaves
    within one chunk of its T_eps and a block runs no further than its last
    T_eps.  Up to its exit, T_eps included, its row is the full-budget
    run's bit for bit, and past it its cells are NaN, False in `success`
    and UNREACHED in `exponents`.  A block of one row leaves at its T_eps;
    a run whose criterion never holds runs the chunks and the bits of the
    run without one.  Here chunks of eight iterations of six rows make
    rows leave in the first chunk, in a later one, at T_eps = 0, or
    never."""

    T, SEEDS, C = 40, range(60, 66), 8
    FAMILIES = ("synthetic", "gsg", "minibatch", "minibatch_estimated")
    KINDS = ("first_chunk", "varied", "at_start", "never")

    @staticmethod
    def family(name, quadratic):
        problem, zeroth, first, estimator = TestLockstep.family(name, quadratic)
        return (problem, zeroth, first,
                estimator if name == "minibatch_estimated" else None)

    @classmethod
    def run(cls, oracles, T=None, seeds=None, **stop):
        problem, zeroth, first, estimator = oracles
        controller = (None if estimator is None
                      else EpochEpsFController(zeroth, estimator))
        params = AloeParams(eps_f_input=0.01, alpha_max=1.25,
                            max_iters=T or cls.T)
        return run_lockstep(problem, zeroth, first, params,
                            cls.SEEDS if seeds is None else seeds,
                            controller, **stop)

    @staticmethod
    def assert_full_up_to(retired, full, r, e):
        """Row r of `retired` is row r of `full` bit for bit up to x_e, and
        past it NaN, False in `success` and UNREACHED in `exponents`."""
        T = retired.alpha.shape[1]
        for f in dataclasses.fields(Paths)[1:]:
            a, b = getattr(retired, f.name)[r], getattr(full, f.name)[r]
            cut = e + (len(a) > T)
            assert a.dtype == b.dtype
            assert a[:cut].tobytes() == b[:cut].tobytes(), (f.name, r)
            fill = {"exponents": linesearch.UNREACHED, "success": False}
            np.testing.assert_array_equal(a[cut:], fill.get(f.name, np.nan))

    @classmethod
    def criterion(cls, kind, full):
        """A nonconvex criterion, from the full run's gradient norms: the
        least of the rows' minima over the first chunk, the median of their
        minima over the run, x_0's norm, or half the least norm reached."""
        gnorm = full.grad_norm
        eps = {"first_chunk": gnorm[:, :cls.C + 1].min(axis=1).min(),
               "varied": np.median(gnorm.min(axis=1)),
               "at_start": gnorm[0, 0], "never": gnorm.min() / 2}[kind]
        return StoppingSpec("nonconvex", eps=float(eps))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", FAMILIES)
    def test_rows_are_the_full_rows_up_to_where_they_left(
            self, quadratic10, monkeypatch, name, kind):
        oracles = self.family(name, quadratic10)
        problem = oracles[0]
        monkeypatch.setattr(linesearch, "CHUNK_CELLS",
                            self.C * len(self.SEEDS) * problem.dim)
        full = self.run(oracles)
        spec = self.criterion(kind, full)
        stop = stopping_rule(spec, problem.phi_star)
        retired = self.run(oracles, stop=stop)
        T_eps = stopping_times(full, problem, spec)
        np.testing.assert_array_equal(stopping_times(retired, problem, spec),
                                      T_eps)
        exits, _ = exits_by_rule(
            T_eps, self.T,
            lambda m: linesearch.chunk_length(m, problem.dim, self.T))
        left = []
        for r, t in enumerate(T_eps):
            # the row ran through x_e: phi is finite up to e and NaN after
            e = int(np.isfinite(retired.phi[r]).sum()) - 1
            assert np.isfinite(retired.phi[r, :e + 1]).all()
            assert e == self.T if t == CENSORED else e >= t
            left.append(e)
            self.assert_full_up_to(retired, full, r, e)
        assert left == exits.tolist()
        stopped = T_eps[T_eps != CENSORED]
        if kind == "never":
            assert len(stopped) == 0 and left == [self.T] * len(self.SEEDS)
            return
        assert min(left) < self.T   # a row left mid-run
        if kind == "at_start":     # no iteration runs
            assert (T_eps == 0).all() and left == [0] * len(self.SEEDS)
        elif kind == "first_chunk":
            assert stopped.min() <= self.C
        else:
            assert stopped.max() > self.C and len(stopped) < len(self.SEEDS)

    @pytest.mark.parametrize("horizon", (10, 50))
    @pytest.mark.parametrize("cells", ("default", "small"))
    @pytest.mark.parametrize("name", FAMILIES)
    def test_rows_leave_within_one_chunk(
            self, quadratic10, monkeypatch, chunk_log, name, cells, horizon):
        # twelve rows over 100 iterations, stopping when ||grad phi|| is
        # below the median of the rows' least norms up to `horizon`: most
        # rows stop early, or the stops spread over the run and some rows
        # may never stop.  Every chunk spans its capacity (68 iterations of
        # twelve 10-dim rows at the default, the whole run of 4-dim ones;
        # 24 iterations of twelve rows when small) or what is left of the
        # run, unless every row in it stops before that
        T, seeds = 100, range(60, 72)
        oracles = self.family(name, quadratic10)
        problem = oracles[0]
        if cells == "small":
            monkeypatch.setattr(linesearch, "CHUNK_CELLS",
                                24 * len(seeds) * problem.dim)

        def capacity_sized():
            # every chunk spans its capacity, or what is left of the run
            assert chunk_log and all(c == min(cap, T - s)
                                     for s, c, cap, _ in chunk_log)
            chunk_log.clear()

        def by_rule(T_eps, exits):
            # every chunk spans min(capacity, T - s), unless all its rows
            # have stopped earlier: then it ends where the last of them
            # stops.  Returns the chunks as (s, c, rows) and the capacity of
            # the chunk that ends at each exit
            stops = np.where(T_eps == CENSORED, T, T_eps)
            chunks, capacity_at = [], {}
            for s, c, cap, rows in chunk_log:
                last = int(stops[exits > s].max())
                assert rows == np.count_nonzero(exits > s), (s, c, rows)
                span = min(cap, T - s)
                assert c == span or c == last - s < span, (s, c, cap, rows)
                chunks.append((s, c, rows))
                capacity_at[s + c] = cap
            chunk_log.clear()
            return chunks, capacity_at

        def capacity(m):
            return linesearch.chunk_length(m, problem.dim, T)

        full = self.run(oracles, T=T, seeds=seeds)
        capacity_sized()
        least = np.minimum.accumulate(full.grad_norm, axis=1)[:, horizon]
        spec = StoppingSpec("nonconvex", eps=float(np.median(least)))
        stop = stopping_rule(spec, problem.phi_star)
        retired = self.run(oracles, T=T, seeds=seeds, stop=stop)
        T_eps = stopping_times(full, problem, spec)
        exits = np.isfinite(retired.phi).sum(axis=1) - 1
        want, chunks = exits_by_rule(T_eps, T, capacity)
        np.testing.assert_array_equal(exits, want)
        logged, capacity_at = by_rule(T_eps, exits)
        assert logged == chunks
        for r, (t, e) in enumerate(zip(T_eps, exits)):
            self.assert_full_up_to(retired, full, r, e)
            assert t == CENSORED or t <= e < t + capacity_at[e], (t, e)
        stopped = T_eps[T_eps != CENSORED]
        assert exits.max() == (T if len(stopped) < len(seeds) else stopped.max())
        # a row leaves before the budget, unless one chunk spans the run and
        # a row never stops; it leaves mid-block where chunks are shorter
        # than the late stops
        one_chunk = capacity(len(seeds)) == T
        assert exits.min() < T or one_chunk and len(stopped) < len(seeds)
        if horizon == 50 and not one_chunk:
            assert exits.min() < exits.max()
        assert stopped.min() < 16 if horizon == 10 else stopped.max() > 32
        # the row that left last, in a block of its own, leaves at its T_eps;
        # a trial run alone without a criterion spans chunks of the capacity
        r = int(np.argmax(exits))
        alone = self.run(oracles, T=T, seeds=[seeds[r]], stop=stop)
        e = int(np.isfinite(alone.phi).sum()) - 1
        assert e == (T if T_eps[r] == CENSORED else T_eps[r])
        assert by_rule(T_eps[r:r + 1], np.array([e]))[0] == exits_by_rule(
            T_eps[r:r + 1], T, capacity)[1]
        self.assert_full_up_to(alone, full.row(r, T), 0, e)
        aloe_run(problem, *oracles[1:3],
                 AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=T),
                 seeds[r])
        capacity_sized()

    @pytest.mark.parametrize("name", FAMILIES)
    def test_a_criterion_that_never_holds_runs_as_none(
            self, quadratic10, chunk_log, name):
        # one chunk rule: a criterion that no row meets gives the chunks and
        # every bit of the run without a criterion (the whole run in one
        # chunk of 4-dim rows, 68 and 32 iterations of 10-dim ones)
        T, seeds = 100, range(60, 72)
        oracles = self.family(name, quadratic10)
        problem = oracles[0]
        full = self.run(oracles, T=T, seeds=seeds)
        plain = chunk_log.copy()
        chunk_log.clear()
        spec = self.criterion("never", full)
        assert (stopping_times(full, problem, spec) == CENSORED).all()
        never = self.run(oracles, T=T, seeds=seeds,
                         stop=stopping_rule(spec, problem.phi_star))
        assert chunk_log == plain
        for f in dataclasses.fields(Paths)[1:]:
            a, b = getattr(never, f.name), getattr(full, f.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name

    @pytest.mark.parametrize("name", ("synthetic", "minibatch_estimated"))
    def test_state_columns_past_the_exit(self, quadratic10, monkeypatch, name):
        # alpha, the exponents and a constant slack are written once per
        # chunk from the loop's state; a row that left keeps NaN alpha and
        # eps_f cells and UNREACHED exponents past its exit, with or
        # without the estimator's per-iteration slack
        oracles = self.family(name, quadratic10)
        problem = oracles[0]
        monkeypatch.setattr(linesearch, "CHUNK_CELLS",
                            self.C * len(self.SEEDS) * problem.dim)
        spec = self.criterion("varied", self.run(oracles))
        paths = self.run(oracles, stop=stopping_rule(spec, problem.phi_star))
        exits = np.isfinite(paths.phi).sum(axis=1) - 1
        assert exits.min() < self.T
        for r, e in enumerate(exits):
            alpha, eps_f, i = paths.alpha[r], paths.eps_f[r], paths.exponents[r]
            assert np.isnan(alpha[e:]).all() and np.isnan(eps_f[e:]).all()
            assert (i[e + 1:] == linesearch.UNREACHED).all()
            assert alpha[:e].tolist() == [0.8 ** int(k) for k in i[:e]]
            if oracles[3] is None:
                assert (eps_f[:e] == 0.01).all()
            else:
                assert np.isfinite(eps_f[:e]).all()

    def test_success_at_an_off_grid_cap_stays_there(self, quadratic10, monkeypatch):
        # alpha_max = 0.05 snaps to the cap exponent -7 (0.01 * 0.8^-7 =
        # 0.0477): the successor table keeps a success there, as
        # step_update does, in every row up to where it retires
        problem, zeroth, first, _ = self.family("synthetic", quadratic10)
        monkeypatch.setattr(linesearch, "CHUNK_CELLS",
                            self.C * len(self.SEEDS) * problem.dim)
        params = AloeParams(eps_f_input=0.01, alpha0=0.01, alpha_max=0.05,
                            max_iters=self.T)
        full = run_lockstep(problem, zeroth, first, params, self.SEEDS)
        spec = StoppingSpec("nonconvex",
                            eps=float(np.median(full.grad_norm[:, self.T // 2])))
        paths = run_lockstep(problem, zeroth, first, params, self.SEEDS,
                             stop=stopping_rule(spec, problem.phi_star))
        exits = np.isfinite(paths.phi).sum(axis=1) - 1
        assert exits.min() < self.T
        held = 0
        for r, e in enumerate(exits):
            i, success = paths.exponents[r, :e + 1], paths.success[r, :e]
            assert i.min() >= -7
            assert (i[1:] == step_update(i[:-1], success, -7)).all()
            held += int((success & (i[:-1] == -7)).sum())
        assert held > 0

    @pytest.mark.parametrize("name", FAMILIES)
    def test_cells_past_the_stop_are_never_read(self, quadratic10, name):
        # poison every cell past T_eps: NaN in the float columns, flipped
        # success flags, arbitrary exponents; every verdict stays the same
        oracles = self.family(name, quadratic10)
        problem = oracles[0]
        full = self.run(oracles)
        spec = self.criterion("varied", full)
        T_eps = stopping_times(full, problem, spec)
        cols = {f.name: getattr(full, f.name).copy()
                for f in dataclasses.fields(Paths)[1:]}
        rng = np.random.default_rng(5)
        for r, t in enumerate(T_eps):
            if t == CENSORED:
                continue
            for name, col in cols.items():
                past = col[r, t + (col.shape[1] > self.T):]
                if name == "success":
                    past[:] = ~past
                elif name == "exponents":
                    past[:] = rng.integers(-50, 50, past.shape)
                else:
                    past[:] = np.nan
        poisoned = Paths(seeds=full.seeds, **cols)
        assert 0 < (T_eps != CENSORED).sum() < len(T_eps)
        exponents = full.exponents
        for grid_index in range(exponents.min(), exponents.max() + 2):
            args = (spec, 0.01, 0.5, int(grid_index), 1.0)
            a = classify_paths(full, problem, *args)
            b = classify_paths(poisoned, problem, *args)
            for f in dataclasses.fields(PathVerdicts):
                np.testing.assert_array_equal(getattr(a, f.name),
                                              getattr(b, f.name),
                                              err_msg=f.name, strict=True)


class RecordedStop:
    """A stopping criterion that keeps, for every check, its verdicts and
    which values it was handed; it declares the `reads` of the rule it
    wraps, or none when `declare` is False."""

    def __init__(self, rule, declare=True):
        self.rule, self.verdicts, self.handed = rule, [], set()
        if declare:
            self.reads = rule.reads

    def __call__(self, phi, grad_norm):
        self.handed.add((phi is not None, grad_norm is not None))
        hit = self.rule(phi, grad_norm)
        self.verdicts.append(np.array(hit))
        return hit


class TestBlockEnd:
    """A block ends at the iteration where its last row stops: the engine
    checks the stopping criterion at x_0 and after every iteration, on the
    values it evaluates in the loop for the criterion as for an oracle.
    For four oracle families and each class's criterion: the block runs
    exactly its greatest T_eps iterations, the budget when a row never
    stops, and its columns are that wide; the verdicts in the loop are the
    criterion's on the returned columns, so its T_eps are
    `stopping_times`'; a block whose rows all stop at x_0 makes no oracle
    query and its columns hold x_0 alone; and a criterion that declares no
    `reads`, whose values the loop then evaluates both, gives the same
    `Paths`.  A block that stops early allocates nothing for the rest of
    its budget."""

    T, SEEDS = 40, range(80, 85)
    CLASSES = ("nonconvex", "strongly_convex", "convex")

    @classmethod
    def criterion(cls, class_tag, kind, full, phi_star):
        """A criterion of `class_tag` from the full run's running minima of
        phi - phi_star and ||grad phi||: their greatest at iteration 2T/3,
        which every row meets by then; the second least over the run, which
        at most two rows meet per clause; or their values at x_0."""
        gap = np.minimum.accumulate(full.phi - phi_star, axis=1)
        gnorm = np.minimum.accumulate(full.grad_norm, axis=1)
        pick = {"all_stop": lambda a: a[:, 2 * cls.T // 3].max(),
                "censored": lambda a: np.sort(a[:, -1])[1],
                "at_start": lambda a: a[0, 0]}[kind]
        eps, eps1 = pick(gap), pick(gnorm)
        if class_tag == "nonconvex":
            return StoppingSpec(class_tag, eps=float(eps1))
        if class_tag == "strongly_convex":
            return StoppingSpec(class_tag, eps=float(eps))
        return StoppingSpec(class_tag, eps=float(eps), eps1=float(eps1))

    @pytest.mark.parametrize("kind", ["all_stop", "censored"])
    @pytest.mark.parametrize("class_tag", CLASSES)
    @pytest.mark.parametrize("name", TestRetirement.FAMILIES)
    def test_the_block_ends_where_its_last_row_stops(
            self, quadratic10, chunk_log, name, class_tag, kind):
        oracles = TestRetirement.family(name, quadratic10)
        problem = oracles[0]
        full = TestRetirement.run(oracles, T=self.T, seeds=self.SEEDS)
        spec = self.criterion(class_tag, kind, full, problem.phi_star)
        rule = stopping_rule(spec, problem.phi_star)
        T_eps = stopping_times(full, problem, spec)
        assert (T_eps == CENSORED).any() == (kind == "censored")
        assert (T_eps != 0).all() and (T_eps != CENSORED).any()
        chunk_log.clear()
        stop = RecordedStop(rule)
        paths = TestRetirement.run(oracles, T=self.T, seeds=self.SEEDS,
                                   stop=stop)
        last = self.T if kind == "censored" else int(T_eps.max())
        assert_width(full, len(self.SEEDS), self.T)
        assert_width(paths, len(self.SEEDS), last)
        exits = np.isfinite(paths.alpha).sum(axis=1)
        assert sum(c for _, c, _, _ in chunk_log) == exits.max() == last
        # the check at x_i sees, in block order, the rows that run to it
        assert len(stop.verdicts) == 1 + last
        hits = np.zeros(paths.phi.shape, dtype=bool)
        for i, verdict in enumerate(stop.verdicts):
            rows = np.flatnonzero(exits >= i)
            np.testing.assert_array_equal(
                verdict, rule(paths.phi[rows, i], paths.grad_norm[rows, i]),
                strict=True)
            hits[rows, i] = verdict
        in_loop = np.where(hits.any(axis=1), hits.argmax(axis=1), CENSORED)
        np.testing.assert_array_equal(in_loop, stopping_times(paths, problem, spec))
        np.testing.assert_array_equal(in_loop, T_eps)
        assert stop.handed == {("phi" in rule.reads, "grad" in rule.reads)}
        for r, e in enumerate(exits):
            TestRetirement.assert_full_up_to(paths, full, r, e)
        undeclared = RecordedStop(rule, declare=False)
        both = TestRetirement.run(oracles, T=self.T, seeds=self.SEEDS,
                                  stop=undeclared)
        assert undeclared.handed == {(True, True)}
        for f in dataclasses.fields(Paths)[1:]:
            a, b = getattr(both, f.name), getattr(paths, f.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name

    @pytest.mark.parametrize("class_tag", CLASSES)
    @pytest.mark.parametrize("name", TestRetirement.FAMILIES)
    def test_a_block_stopped_at_x0_makes_no_query(
            self, quadratic10, chunk_log, name, class_tag):
        problem, zeroth, first, estimator = TestRetirement.family(name, quadratic10)
        full = TestRetirement.run((problem, zeroth, first, estimator),
                                  T=self.T, seeds=self.SEEDS)
        spec = self.criterion(class_tag, "at_start", full, problem.phi_star)
        chunk_log.clear()
        rec = OracleRecorder(zeroth, first)
        controller = (None if estimator is None
                      else EpochEpsFController(rec.zeroth, estimator))
        paths = run_lockstep(problem, rec.zeroth, rec.first,
                             AloeParams(eps_f_input=0.01, alpha_max=1.25,
                                        max_iters=self.T),
                             self.SEEDS, controller,
                             stop=stopping_rule(spec, problem.phi_star))
        assert rec.queries == 0
        assert [(s, c) for s, c, _, _ in chunk_log] == [(0, 0)]
        assert (stopping_times(paths, problem, spec) == 0).all()
        assert_width(paths, len(self.SEEDS), 0)     # the columns hold x_0 alone
        for r in range(len(self.SEEDS)):
            TestRetirement.assert_full_up_to(paths, full, r, 0)
        v = classify_paths(paths, problem, spec, 0.01, 0.5, 0, 1.0)
        assert (v.T_eps == 0).all()
        assert np.isnan(v.frac_true).all() and np.isnan(v.frac_success).all()
        assert v.true_flags.shape == v.large_flags.shape == (len(self.SEEDS), 0)

    def test_an_early_stop_allocates_for_the_iterations_run(self, quadratic10):
        # four rows stop by iteration 15 of a 50 000-iteration budget: the
        # block's columns span those iterations, where whole-budget ones
        # would take 89 B per trial-iteration, 17.8 MB.  A first run builds
        # the run's step tables (`_step_grid`), which the second reuses
        problem, zeroth, first, _ = TestRetirement.family("synthetic", quadratic10)
        seeds = range(80, 84)
        short = TestRetirement.run((problem, zeroth, first, None), T=15,
                                   seeds=seeds)
        spec = StoppingSpec("nonconvex", eps=float(short.grad_norm.min(axis=1).max()))
        stop = stopping_rule(spec, problem.phi_star)
        params = AloeParams(eps_f_input=0.01, alpha_max=1.25, max_iters=50_000)
        run_lockstep(problem, zeroth, first, params, seeds, stop=stop)
        tracemalloc.start()
        try:
            paths = run_lockstep(problem, zeroth, first, params, seeds, stop=stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak
        T_eps = stopping_times(paths, problem, spec)
        assert (T_eps != CENSORED).all() and 10 < T_eps.max() <= 15
        assert_width(paths, len(seeds), int(T_eps.max()))


def assert_width(paths, n, E):
    """The `Paths` of n rows span E iterations: (n, E) columns, and (n, E + 1)
    of the exponents, phi and grad_norm."""
    for f in dataclasses.fields(Paths)[1:]:
        wide = f.name in ("exponents", "phi", "grad_norm")
        assert getattr(paths, f.name).shape == (n, E + wide), f.name


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
        paths = aloe_run(quadratic10, zeroth, first, AloeParams(max_iters=100),
                         seed=3, eps_f_controller=controller)
        assert len(controller.history) == 10
        assert (paths.e_curr > 0).all()
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
        return recorded_run(problem, zeroth, first, params, [seed], controller)

    @staticmethod
    def assert_same_noise(a, b):
        # e = |(phi + noise) - phi| carries the rounding of phi, which moves
        # with the path; a word from another query would differ in its
        # leading digits
        np.testing.assert_allclose([a.e_curr, a.e_plus], [b.e_curr, b.e_plus],
                                   rtol=1e-9, atol=0)

    def test_budget_prefix(self, quadratic10, seed):
        short, rec_short = self.run(quadratic10, seed, max_iters=30)
        long, rec_long = self.run(quadratic10, seed, max_iters=60)
        for name in ("alpha", "success", "eps_f", "f_curr", "f_plus"):
            assert np.array_equal(getattr(short, name),
                                  getattr(long, name)[:, :30]), name
        for name in ("x", "g"):
            assert np.array_equal(rec_short.column(name),
                                  rec_long.column(name)[:, :30]), name
        assert short.alpha.shape == (1, 30)

    def test_theta_changes_path_not_noise(self, quadratic10, seed):
        low, _ = self.run(quadratic10, seed, theta=0.2)
        high, _ = self.run(quadratic10, seed, theta=0.6)
        assert not np.array_equal(low.success, high.success)
        self.assert_same_noise(low, high)

    def test_controller_changes_slack_not_noise(self, quadratic10, seed):
        fixed, _ = self.run(quadratic10, seed)
        estimated, _ = self.run(quadratic10, seed,
                                estimator=EstimatorConfig(refresh_period=10))
        assert set(fixed.eps_f[0].tolist()) == {0.01}
        assert len(set(estimated.eps_f[0].tolist())) == 6
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
