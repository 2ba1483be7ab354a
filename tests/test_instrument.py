import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aloe_lab.instrument import (CENSORED, P_HAT_GRID, StoppingSpec,
                                 classify_paths, progress_Z, stopping_times,
                                 verify_path_lemmas)
from aloe_lab.linesearch import (AloeParams, Paths, aloe_run, armijo_check,
                                 run_lockstep, snap_to_step_grid)
from aloe_lab.oracles import (FirstOracleSpec, SyntheticFirstOracle,
                              SyntheticZerothOracle, ZerothOracleSpec)
from aloe_lab.problems import make_strongly_convex_quadratic
from oracle_recorder import OracleRecorder
from reference import reference_verdicts


@pytest.fixture(scope="module")
def quadratic():
    return make_strongly_convex_quadratic(dim=10, lambda_min=0.1,
                                          lambda_max=10.0, seed=7)


def true_flags(problem, eps_g, kappa, g, grad_true=(1.0, 0.0), alpha=1.0,
               e_curr=0.0, e_plus=0.0, eps_f=0.0):
    """The true flags `classify_paths` gives a hand-built one-row `Paths`:
    g holds one oracle gradient per iteration, the other arguments are
    one value for every iteration or one per iteration."""
    g = np.asarray(g, dtype=float)
    T = len(g)

    def column(v):
        return np.broadcast_to(np.asarray(v, dtype=float), (T,))[None].copy()

    paths = Paths(seeds=(0,), exponents=np.zeros((1, T + 1), dtype=int),
                  alpha=column(alpha), success=np.ones((1, T), dtype=bool),
                  f_curr=column(np.nan), f_plus=column(np.nan),
                  e_curr=column(e_curr), e_plus=column(e_plus),
                  eps_f=column(eps_f),
                  g_norm=column(np.linalg.norm(g, axis=1)),
                  grad_error=column(np.linalg.norm(g - grad_true, axis=1)),
                  phi=np.ones((1, T + 1)), grad_norm=np.ones((1, T + 1)))
    spec = StoppingSpec(class_tag="nonconvex", eps=1e-3)
    return classify_paths(paths, problem, spec, eps_g, kappa, grid_index=0,
                          d=0.0).true_flags[0].tolist()


def one_path(I, Theta, U, d, horizon):
    """The four verdicts of one path, checked as a one-row block."""
    v = verify_path_lemmas(I[None], Theta[None], U[None], d=d, horizon=horizon)
    return np.array(v)[:, 0].tolist()


class TestSnap:
    def test_on_grid_point_kept(self):
        snapped, i = snap_to_step_grid(0.8 ** 3, alpha0=1.0, gamma=0.8)
        assert snapped == pytest.approx(0.8 ** 3, rel=1e-14)
        assert i == 3

    def test_between_points_rounds_down(self):
        snapped, i = snap_to_step_grid(0.7, alpha0=1.0, gamma=0.8)
        assert i == 2
        assert snapped == pytest.approx(0.64)

    def test_above_alpha0(self):
        snapped, i = snap_to_step_grid(1.3, alpha0=1.0, gamma=0.8)
        assert i == -1
        assert snapped == pytest.approx(1.25)

    @pytest.mark.parametrize("bar", [0.013, 0.2, 0.99, 1.0, 3.7])
    def test_bracketing_property(self, bar):
        snapped, i = snap_to_step_grid(bar, alpha0=1.0, gamma=0.8)
        assert snapped <= bar * (1 + 1e-12)
        assert 1.0 * 0.8 ** (i - 1) > bar * (1 - 1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            snap_to_step_grid(0.0, 1.0, 0.8)


class TestClassifyTrue:
    def test_boundary_equality_counts(self, quadratic):
        # gradient error exactly 0.25 = eps_g, value errors exactly 2 eps_f
        assert true_flags(quadratic, eps_g=0.25, kappa=0.0, g=[[1.25, 0.0]],
                          e_curr=0.05, e_plus=0.05, eps_f=0.05) == [True]

    def test_gradient_violation(self, quadratic):
        assert true_flags(quadratic, eps_g=0.1, kappa=0.0,
                          g=[[1.2, 0.0]]) == [False]

    def test_relative_branch(self, quadratic):
        # error 1.0 <= kappa * alpha * ||g|| = 2.0
        assert true_flags(quadratic, eps_g=0.0, kappa=1.0, g=[[2.0, 0.0]],
                          alpha=1.0) == [True]

    def test_value_violation(self, quadratic):
        assert true_flags(quadratic, eps_g=10.0, kappa=0.0, g=[[1.0, 0.0]],
                          e_curr=0.1, e_plus=0.1, eps_f=0.05) == [False]

    def test_explicit_eps_f_override(self, quadratic):
        # the same value errors, judged against the slack each iteration
        # recorded
        assert true_flags(quadratic, eps_g=10.0, kappa=0.0, g=[[1.0, 0.0]] * 2,
                          e_curr=0.1, e_plus=0.1,
                          eps_f=[0.05, 0.1]) == [False, True]


class TestProgressZ:
    def test_nonconvex_is_gap(self):
        assert progress_Z("nonconvex", 3.0, 1.0, 0.1) == 2.0

    def test_strongly_convex_log(self):
        assert progress_Z("strongly_convex", 1.0, 0.0, 0.1) == pytest.approx(math.log(10.0))

    def test_convex_reciprocal(self):
        assert progress_Z("convex", 2.0, 0.0, 0.5) == pytest.approx(2.0 - 0.5)

    def test_exact_optimum_sentinel(self):
        assert progress_Z("strongly_convex", 1.0, 1.0, 0.1) == -math.inf

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            progress_Z("nonconvex", 0.0, 1.0, 0.1)


class TestStoppingTime:
    @staticmethod
    def run_exact(problem, max_iters=700):
        zeroth = SyntheticZerothOracle(problem, ZerothOracleSpec())
        first = SyntheticFirstOracle(problem, FirstOracleSpec())
        return aloe_run(problem, zeroth, first, AloeParams(max_iters=max_iters), seed=0)

    def test_already_stationary_is_zero(self):
        problem = make_strongly_convex_quadratic(
            dim=2, lambda_min=1.0, lambda_max=1.0, seed=0,
            x0=np.zeros(2))
        paths = self.run_exact(problem, max_iters=5)
        spec = StoppingSpec(class_tag="nonconvex", eps=1e-6)
        assert stopping_times(paths, problem, spec)[0] == 0

    def test_censored(self, quadratic):
        paths = self.run_exact(quadratic, max_iters=10)
        spec = StoppingSpec(class_tag="nonconvex", eps=1e-12)
        assert stopping_times(paths, quadratic, spec)[0] == CENSORED

    def test_monotone_in_eps(self, quadratic):
        paths = self.run_exact(quadratic)
        times = [stopping_times(paths, quadratic,
                                StoppingSpec(class_tag="nonconvex", eps=e))[0]
                 for e in (1e-1, 1e-2, 1e-3)]
        assert all(t != CENSORED for t in times)
        assert times == sorted(times)

    def test_unknown_class_tag_rejected(self):
        with pytest.raises(ValueError):
            StoppingSpec(class_tag="mystery", eps=0.1)

    def test_convex_requires_eps1(self):
        with pytest.raises(ValueError):
            StoppingSpec(class_tag="convex", eps=0.1)

    def test_convex_gradient_clause(self, quadratic):
        paths = self.run_exact(quadratic)
        spec = StoppingSpec(class_tag="convex", eps=1e-30, eps1=1e-2)
        t = stopping_times(paths, quadratic, spec)[0]
        assert t != CENSORED
        assert paths.grad_norm[0, t] <= 1e-2


class TestReadsColumnsOnly:
    @pytest.mark.parametrize("tag,eps1", [("nonconvex", None),
                                          ("convex", 1e-9),
                                          ("strongly_convex", None)])
    def test_classify_paths_never_evaluates_the_problem(self, quadratic, tag,
                                                        eps1):
        # every exact value the classifier reads is a column of the paths,
        # the gradient at x_T after a final move included
        def refuse(X):
            raise AssertionError("ground truth evaluated")

        zeroth = SyntheticZerothOracle(
            quadratic, ZerothOracleSpec(eps_f=0.01, mode="bounded"))
        first = SyntheticFirstOracle(quadratic, FirstOracleSpec(
            eps_g=0.01, kappa=0.5, delta=0.2))
        paths = run_lockstep(quadratic, zeroth, first,
                             AloeParams(eps_f_input=0.01, alpha_max=1.25,
                                        max_iters=30), range(8))
        assert paths.success[:, -1].any()
        blind = dataclasses.replace(quadratic, value_fn=refuse, grad_fn=refuse)
        spec = StoppingSpec(class_tag=tag, eps=1e-9, eps1=eps1)
        got, want = (classify_paths(paths, p, spec, 0.01, 0.5, grid_index=3, d=2.0)
                     for p in (blind, quadratic))
        for f in dataclasses.fields(got):
            np.testing.assert_array_equal(getattr(got, f.name),
                                          getattr(want, f.name), err_msg=f.name)
        assert (got.T_eps == CENSORED).all()


class TestPathLemmasHandcrafted:
    def test_benign_all_large_successful(self):
        n = 20
        I = np.ones(n, bool)
        Theta = np.ones(n, bool)
        U = np.ones(n, bool)
        assert one_path(I, Theta, U, d=0.0, horizon=n) == [True] * 4

    def test_all_unsuccessful_boundary(self):
        # steps shrink from alpha0 through the threshold: exactly d large
        # failures then small failures; lemma 2 settles at equality
        d = 5
        n = 20
        U = np.array([k < d for k in range(n)])
        Theta = np.zeros(n, bool)
        I = np.zeros(n, bool)
        assert one_path(I, Theta, U, d=float(d), horizon=n) == [True] * 4

    def test_lemma2_violation_detected(self):
        # d+1 large failures with no large successes is impossible dynamics;
        # the checker must flag it
        U = np.ones(4, bool)
        Theta = np.zeros(4, bool)
        I = np.zeros(4, bool)
        l2, _, _, c1 = one_path(I, Theta, U, d=3.0, horizon=4)
        assert not l2
        assert not c1

    def test_lemma3_violation_detected(self):
        U = np.zeros(4, bool)
        Theta = np.ones(4, bool)
        I = np.ones(4, bool)   # four small true steps, zero small false
        _, l3, _, _ = one_path(I, Theta, U, d=0.0, horizon=4)
        assert not l3

    def test_lemma3_prefix_restriction(self):
        # same flags but horizon 0: nothing to check, verdict passes
        U = np.zeros(4, bool)
        Theta = np.ones(4, bool)
        I = np.ones(4, bool)
        _, l3, _, _ = one_path(I, Theta, U, d=0.0, horizon=0)
        assert l3

    def test_lemma4_violation_detected(self):
        # all iterations true but none good: contradicts the dichotomy
        n = 40
        I = np.ones(n, bool)
        Theta = np.zeros(n, bool)
        U = np.ones(n, bool)
        _, _, l4, _ = one_path(I, Theta, U, d=0.0, horizon=n)
        assert not l4

    def test_p_hat_grid_range(self):
        assert P_HAT_GRID[0] == pytest.approx(0.55)
        assert P_HAT_GRID[-1] == pytest.approx(0.95)
        assert np.allclose(np.diff(P_HAT_GRID), 0.05)


class TestPrefixHorizons:
    """classify_paths counts the iterations before T_eps: Lemma 2 and
    Corollary 1 on the prefixes t <= T_eps, Lemmas 3 and 4 on t < T_eps,
    and the literal classifier agrees.  Each hand-built path breaks a lemma
    at its first iteration (t = 1) and stops at x_{T_eps}."""

    @staticmethod
    def path(exponents, T_eps):
        T = len(exponents) - 1
        grad_norm = np.ones((1, T + 1))
        if T_eps != CENSORED:
            grad_norm[0, T_eps:] = 0.0
        zeros, ones = np.zeros((1, T)), np.ones((1, T))
        return Paths(seeds=(0,), exponents=np.array([exponents]),
                     alpha=0.8 ** np.array([exponents[:-1]], dtype=float),
                     success=np.zeros((1, T), dtype=bool), f_curr=zeros,
                     f_plus=zeros, e_curr=zeros, e_plus=zeros, eps_f=zeros,
                     g_norm=ones, grad_error=zeros, phi=np.ones((1, T + 1)),
                     grad_norm=grad_norm)

    @pytest.mark.parametrize("T_eps, ok", [(0, True), (1, False), (2, False),
                                           (CENSORED, False)])
    def test_lemma2_up_to_T_eps(self, quadratic, T_eps, ok):
        # iteration 0 is large and unsuccessful: #large succ 0 < 1 - d
        self.check(quadratic, self.path([-2, -1, 0, 1], T_eps),
                   "lemma2_ok", ok)

    @pytest.mark.parametrize("T_eps, ok", [(0, True), (1, True), (2, False),
                                           (CENSORED, False)])
    def test_lemma3_before_T_eps(self, quadratic, T_eps, ok):
        # iteration 0 is small and true: #small true 1 > #small false 0
        self.check(quadratic, self.path([0, 1, 2, 3], T_eps), "lemma3_ok", ok)

    @staticmethod
    def check(problem, paths, name, ok):
        spec = StoppingSpec(class_tag="nonconvex", eps=0.5)
        args = (spec, 0.0, 0.0, 0, 0.0)   # eps_g, kappa, grid_index, d
        got = classify_paths(paths, problem, *args)
        want = reference_verdicts(paths, problem.phi_star, *args)
        assert getattr(got, name).tolist() == [ok]
        for f in dataclasses.fields(got):
            np.testing.assert_array_equal(getattr(got, f.name),
                                          getattr(want, f.name), strict=True)


class TestPathLemmasBlock:
    def test_rows_are_the_one_path_verdicts(self):
        # prefix sums run along each row; each row keeps its own horizon
        rng = np.random.default_rng(7)
        I, Theta, U = (rng.random((40, 30)) < p for p in (0.6, 0.5, 0.5))
        horizon = rng.integers(0, 31, size=40)
        got = np.array(verify_path_lemmas(I, Theta, U, d=2.0, horizon=horizon))
        want = np.array([one_path(I[r], Theta[r], U[r], d=2.0,
                                  horizon=int(horizon[r]))
                         for r in range(40)]).T
        assert np.array_equal(got, want)
        assert 0 < got.sum() < got.size


class TestPathLemmasPrefix:
    """classify_paths hands verify_path_lemmas the flag columns up to the
    largest counted prefix only.  Past a row's counted prefix its flags
    are False, so its counts are frozen, and the narrower call must give
    the full-width verdicts."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 6), T=st.integers(1, 30),
           seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from((0.0, 0.5, 1.0, 3.0)),
           case=st.sampled_from(("mixed", "every_T_eps_0", "censored")))
    def test_prefix_equals_full_width(self, n, T, seed, d, case):
        rng = np.random.default_rng(seed)
        counted = rng.integers(0, T + 1, size=n)
        if case == "every_T_eps_0":
            counted[:] = 0
        elif case == "censored":
            counted[rng.integers(n)] = T
        before = np.arange(T) < counted[:, None]
        I, Theta, U = ((rng.random((n, T)) < rng.random()) & before
                       for _ in range(3))
        # the horizons classify_paths gives: lemmas 3 and 4 at t < T_eps,
        # all t of a row counted to the budget's end
        horizon = np.where(counted == T, T, np.maximum(counted - 1, 0))
        w = counted.max()
        full = verify_path_lemmas(I, Theta, U, d, horizon)
        cut = verify_path_lemmas(I[:, :w], Theta[:, :w], U[:, :w], d, horizon)
        assert np.array_equal(np.array(cut), np.array(full))


class TestPathLemmasAbstractProcess:
    """Simulate the abstract step-size process (true w.p. p; true-and-small
    implies success; otherwise a fair coin) and check the lemmas on every
    path and every prefix."""

    @pytest.mark.parametrize("p,i_bar", [(0.7, 0), (0.8, 3), (0.9, 6)])
    def test_no_violations(self, p, i_bar):
        rng = np.random.default_rng(1234)
        n_paths, t = 10_000, 200
        j = np.zeros(n_paths, dtype=int)   # step size alpha0 * gamma^j
        I_all = np.empty((n_paths, t), bool)
        Th_all = np.empty((n_paths, t), bool)
        U_all = np.empty((n_paths, t), bool)
        for step in range(t):
            I = rng.random(n_paths) < p
            coin = rng.random(n_paths) < 0.5
            small_now = j >= i_bar
            Th = np.where(I & small_now, True, coin)
            j_next = np.where(Th, j - 1, j + 1)
            # large step: both adjacent sizes >= threshold, i.e. max index <= i_bar
            U_all[:, step] = np.maximum(j, j_next) <= i_bar
            I_all[:, step] = I
            Th_all[:, step] = Th
            j = j_next
        # one row per path, all checked in one block
        verdicts = verify_path_lemmas(I_all, Th_all, U_all, d=float(i_bar),
                                      horizon=t)
        assert all(v.all() for v in verdicts)


class TestClassifyTrace:
    @staticmethod
    def noisy_run(problem, seed=0, max_iters=300, alpha0=1.0,
                  alpha_max=1.0 / 0.8):
        """A one-trial run on recorded oracles: its `Paths`, the recorder,
        the params and the first-order spec."""
        zspec = ZerothOracleSpec(eps_f=1e-3, mode="bounded")
        fspec = FirstOracleSpec(eps_g=1e-3, kappa=1.0, delta=0.1)
        rec = OracleRecorder(SyntheticZerothOracle(problem, zspec),
                             SyntheticFirstOracle(problem, fspec))
        params = AloeParams(eps_f_input=1e-3, alpha0=alpha0,
                            alpha_max=alpha_max, max_iters=max_iters)
        paths = aloe_run(problem, rec.zeroth, rec.first, params, seed=seed)
        return paths, rec, params, fspec

    def test_exact_run_all_true(self, quadratic):
        zeroth = SyntheticZerothOracle(quadratic, ZerothOracleSpec())
        first = SyntheticFirstOracle(quadratic, FirstOracleSpec())
        paths = aloe_run(quadratic, zeroth, first, AloeParams(max_iters=100), seed=0)
        _, i = snap_to_step_grid(0.1, 1.0, 0.8)
        spec = StoppingSpec(class_tag="nonconvex", eps=1e-3)
        v = classify_paths(paths, quadratic, spec, eps_g=0.0, kappa=0.0,
                           grid_index=i, d=float(i))
        assert v.frac_true.tolist() == [1.0]
        assert all(ok.tolist() == [True] for ok in (
            v.lemma2_ok, v.lemma3_ok, v.lemma4_ok, v.corollary1_ok))

    def test_noisy_run_lemmas_hold(self, quadratic):
        paths, _, params, fspec = self.noisy_run(quadratic)
        _, i = snap_to_step_grid(0.05, 1.0, 0.8)
        spec = StoppingSpec(class_tag="nonconvex", eps=0.5)
        v = classify_paths(paths, quadratic, spec, eps_g=fspec.eps_g,
                           kappa=fspec.kappa, grid_index=i, d=float(i))
        assert all(ok.tolist() == [True] for ok in (
            v.lemma2_ok, v.lemma3_ok, v.lemma4_ok, v.corollary1_ok))
        assert 0.0 <= v.frac_true[0] <= 1.0
        assert v.true_flags.shape == (1, params.max_iters)

    @pytest.mark.parametrize("alpha_max", [0.01 * 0.8 ** -7, 0.05],
                             ids=["cap_on_grid", "cap_off_grid"])
    def test_large_flags_match_float_reference(self, quadratic, alpha_max):
        # alpha0 = 0.01 climbs to the cap 0.01 * 0.8^-7 = 0.0477, where a
        # success keeps the step; thresholds run from the cap to 0.01 * 0.8^-2
        paths, _, _, fspec = self.noisy_run(quadratic, max_iters=120,
                                            alpha0=0.01, alpha_max=alpha_max)
        exponents = paths.exponents[0].tolist()
        assert min(exponents) == -7
        # the realized steps alpha_0..alpha_n, as floats
        steps = paths.alpha[0].tolist()
        steps.append(0.01 * 0.8 ** exponents[-1])
        # a criterion the run never meets: every iteration counts, so every
        # flag is compared (past T_eps the flags are False)
        spec = StoppingSpec(class_tag="nonconvex", eps=1e-12)
        seen = set()
        for grid_index in range(-7, -1):
            bar = 0.01 * 0.8 ** grid_index
            # large: both adjacent steps >= bar; a pair whose larger step
            # equals bar (a step at the cap included) is small
            expected = [min(a, b) >= bar and max(a, b) > bar
                        for a, b in zip(steps, steps[1:])]
            v = classify_paths(paths, quadratic, spec, eps_g=fspec.eps_g,
                               kappa=fspec.kappa, grid_index=grid_index, d=0.0)
            assert v.large_flags[0].tolist() == expected
            seen.update(expected)
        assert seen == {True, False}

    def test_success_flags_match_armijo(self, quadratic):
        paths, rec, params, _ = self.noisy_run(quadratic, seed=3, max_iters=100)
        g_sq = np.array([g @ g for g in rec.column("g")[0]])
        expect = armijo_check(paths.f_plus[0], paths.f_curr[0], paths.alpha[0],
                              params.theta, g_sq, paths.eps_f[0])
        assert np.array_equal(expect, paths.success[0])
        assert 0 < expect.sum() < params.max_iters
