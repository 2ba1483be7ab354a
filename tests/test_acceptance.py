"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line via its assert; together they cover the
deterministic reduction, the per-path counting lemmas, both tail theorems,
the strongly convex scaling law, the oracle-contract certifications, the
concentration-bound cross-checks, and the noise-level-estimator robustness
experiment.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from aloe_lab.estimation import (EpochEpsFController, EstimatorConfig,
                                 estimate_eps_f)
from aloe_lab.harness import (ExperimentConfig, binomial_frequency_test,
                              empirical_tail, mgf_envelope_ok, run_trials,
                              wilson_interval)
from aloe_lab.instrument import CENSORED, StoppingSpec, stopping_time
from aloe_lab.linesearch import AloeParams, aloe_run
from aloe_lab.oracles import (FirstOracleSpec, GsgFirstOracle,
                              MiniBatchFirstOracle, MiniBatchZerothOracle,
                              SyntheticFirstOracle, SyntheticZerothOracle,
                              ZerothOracleSpec, gradient_accurate,
                              prop1_subexp_params,
                              prop2_sample_size, prop3_params,
                              sample_one_sided_subexp)
from aloe_lab.problems import (make_strongly_convex_quadratic,
                               make_synthetic_logistic)
from aloe_lab.rng import probe_rng, probe_stream
from aloe_lab.theory import azuma_tail, bernstein_tail, derive_constants

QUAD_PARAMS = {"dim": 10, "lambda_min": 0.1, "lambda_max": 10.0, "seed": 7}

BOUNDED_Z = ZerothOracleSpec(eps_f=1e-3, mode="bounded")
SUBEXP_Z = ZerothOracleSpec(eps_f=8e-3, nu=1e-3, b=1e-3,
                            mode="subexponential", mean_error=4e-3)
NOISY_F = FirstOracleSpec(eps_g=1e-3, kappa=1.0, delta=0.1)


def final_value(trace):
    return trace.paths.phi[0, -1]


@pytest.fixture(scope="module")
def quadratic():
    return make_strongly_convex_quadratic(**QUAD_PARAMS)


def test_acceptance_1_deterministic_reduction(quadratic):
    """Exact oracles drive the gradient below 1e-6 within the theorem's
    exact-limit horizon, in under a second."""
    zeroth = SyntheticZerothOracle(quadratic, ZerothOracleSpec())
    first = SyntheticFirstOracle(quadratic, FirstOracleSpec())
    started = time.monotonic()
    trace = aloe_run(quadratic, zeroth, first, AloeParams(max_iters=1500), seed=0)
    spec = StoppingSpec(class_tag="nonconvex", eps=1e-6)
    T = stopping_time(trace, quadratic, spec)
    elapsed = time.monotonic() - started

    constants = derive_constants(
        "nonconvex", eps=1e-6, theta=0.2, gamma=0.8, alpha0=1.0,
        alpha_max=10.0, L=quadratic.lipschitz_L, kappa=0.0, eps_g=0.0,
        delta=0.0, eps_f=0.0, nu=0.0, b=0.0, u=0.0, bounded=True,
        phi0=quadratic.value(quadratic.x0), phi_star=quadratic.phi_star)
    assert constants.p == 1.0
    _, R, _, _ = constants.iteration_threshold(0.0, 0.9)

    assert T != CENSORED
    assert T <= 2 * R + 1
    assert elapsed < 1.0


def _lemma_config(zeroth, first, stopping, eps_f_input, base_seed):
    return ExperimentConfig(
        fixture="quadratic", fixture_params=QUAD_PARAMS,
        zeroth=zeroth, first=first,
        params=AloeParams(eps_f_input=eps_f_input, alpha0=1.0,
                          alpha_max=1.25, max_iters=150),
        stopping=stopping, n_trials=112, base_seed=base_seed,
        check_admissibility=False,
    )


def test_acceptance_2_path_lemma_suite():
    """Lemmas 2-4 and their corollary hold on 100% of >= 1000 paths across
    three noise modes and three function classes."""
    stoppings = {
        "nonconvex": StoppingSpec(class_tag="nonconvex", eps=2.0),
        "strongly_convex": StoppingSpec(class_tag="strongly_convex", eps=1.0),
        "convex": StoppingSpec(class_tag="convex", eps=1.0, eps1=0.5),
    }
    oracles = {
        "exact": (ZerothOracleSpec(), FirstOracleSpec(), 0.0),
        "bounded": (BOUNDED_Z, NOISY_F, 1e-3),
        "subexponential": (SUBEXP_Z, NOISY_F, 8e-3),
    }
    total = 0
    clean = 0
    seed = 0
    for stopping in stoppings.values():
        for zeroth, first, eps_f_input in oracles.values():
            config = _lemma_config(zeroth, first, stopping, eps_f_input, seed)
            seed += 10_000
            summary = run_trials(config)
            total += config.n_trials
            clean += summary.lemma_pass_count
    assert total >= 1000
    assert clean == total


def _tail_experiment(zeroth, eps, s, n_trials, budget, base_seed):
    config = ExperimentConfig(
        fixture="quadratic", fixture_params=QUAD_PARAMS,
        zeroth=zeroth, first=NOISY_F,
        params=AloeParams(eps_f_input=zeroth.eps_f, alpha0=1.0,
                          alpha_max=1.25, max_iters=budget),
        stopping=StoppingSpec(class_tag="nonconvex", eps=eps),
        n_trials=n_trials, base_seed=base_seed, s=s,
    )
    return run_trials(config)


def _check_tail_dominance(summary, n_trials):
    assert summary.p_hat is not None
    t_min = summary.t_min
    samples = summary.stopping_samples
    for t in (t_min, 2 * t_min, 4 * t_min):
        tail = empirical_tail(samples, t)
        bound = summary.constants.tail_lower_bound(summary.s, summary.p_hat, t)
        lo, hi = wilson_interval(int(round(tail * n_trials)), n_trials,
                                 confidence=0.99)
        margin = max(hi - tail, 0.0)
        assert tail >= bound - margin - 1e-12, (t, tail, bound)


def test_acceptance_3_theorem1_tail_bounded_noise():
    """Bounded-noise tail dominance at t_min, 2 t_min, 4 t_min over 1000
    trials, within the two-minute budget."""
    started = time.monotonic()
    summary = _tail_experiment(BOUNDED_Z, eps=2.7557, s=0.0,
                               n_trials=1000, budget=100, base_seed=100)
    assert summary.n_censored == 0
    assert summary.lemma_pass_count == 1000
    _check_tail_dominance(summary, 1000)
    assert time.monotonic() - started < 120.0


def test_acceptance_4_theorem2_tail_subexponential_noise():
    """Sub-exponential-noise tail dominance with the extra Bernstein factor
    (deviation budget s = 0.05), within the five-minute budget."""
    started = time.monotonic()
    summary = _tail_experiment(SUBEXP_Z, eps=9.582, s=0.05,
                               n_trials=1000, budget=100, base_seed=200)
    lo, hi = summary.constants.p_hat_interval(summary.s)
    assert lo < hi  # nonempty split-point interval at this s
    assert not summary.constants.bounded
    assert summary.n_censored == 0
    _check_tail_dominance(summary, 1000)
    assert time.monotonic() - started < 300.0


def test_acceptance_5_strongly_convex_scaling():
    """Median stopping time scales with the theoretical R(eps) = Z0/h + d
    within a factor of 3 across eps in {1e-2, 1e-4}."""
    medians = {}
    Rs = {}
    for eps in (1e-2, 1e-4):
        config = ExperimentConfig(
            fixture="quadratic", fixture_params=QUAD_PARAMS,
            zeroth=ZerothOracleSpec(eps_f=1e-10, mode="bounded"),
            first=FirstOracleSpec(eps_g=1e-6, kappa=1.0, delta=0.05),
            params=AloeParams(eps_f_input=1e-10, alpha0=1.0,
                              alpha_max=1.25, max_iters=1000),
            stopping=StoppingSpec(class_tag="strongly_convex", eps=eps),
            n_trials=200, base_seed=300,
        )
        summary = run_trials(config)
        assert summary.n_censored == 0
        medians[eps] = float(np.median(summary.stopping_samples))
        c = summary.constants
        Rs[eps] = c.Z0 / c.h_at_bar_grid + c.d
    median_ratio = medians[1e-4] / medians[1e-2]
    R_ratio = Rs[1e-4] / Rs[1e-2]
    factor = median_ratio / R_ratio
    assert 1 / 3 <= factor <= 3, (median_ratio, R_ratio)


def test_acceptance_6a_prop2_minibatch_certification():
    """The Prop-2 batch size delivers the gradient accuracy event with
    frequency >= 1 - delta at five probe points (one-sided binomial, 99%)."""
    problem, dataset = make_synthetic_logistic(n_samples=256, dim=4, seed=5)
    delta, eps_g, kappa, alpha = 0.3, 2.0, 1.0, 1.0
    N = prop2_sample_size(dataset.M_c, dataset.M_v, delta, eps_g, kappa, alpha)
    first = MiniBatchFirstOracle(problem, dataset, N)
    probes = [problem.x0, np.zeros(4), np.ones(4), -np.ones(4),
              0.5 * np.ones(4)]
    n_queries, stack = 10_000, 1000
    for j, x in enumerate(probes):
        stream = probe_stream(60, j)
        grad = problem.gradient(x)
        # stacks of copies of x over the probe's one key: consecutive
        # queries, one after another
        hits = 0
        for _ in range(n_queries // stack):
            g, _ = first(np.tile(x, (stack, 1)), alpha, stream,
                         grad=np.tile(grad, (stack, 1)))
            hits += int(gradient_accurate(g, grad, alpha, eps_g, kappa).sum())
        assert binomial_frequency_test(hits, n_queries, 1 - delta), (j, hits)


def test_acceptance_6b_prop1_mgf_envelope():
    """A size-N mini-batch mean of per-sample sub-exponential errors stays
    under the Prop-1 MGF envelope on a 20-point lambda grid."""
    nu_hat, b_hat, eps_hat, N = 0.2, 0.2, 0.5, 16
    eps_f, nu, b = prop1_subexp_params(nu_hat, b_hat, eps_hat, N)
    n_batches = 50_000
    u = probe_stream(61).uniforms(n_batches * N, 1)
    draws = sample_one_sided_subexp(nu_hat, b_hat, 0.1, u).reshape(
        n_batches, N).mean(axis=1)
    assert draws.mean() <= eps_f
    assert mgf_envelope_ok(draws, nu, b, n_lambdas=20)


def test_acceptance_6c_prop3_gsg_certification():
    """The Prop-3 direction count yields the accuracy event with frequency
    >= 1 - delta, and the empirical bias stays below eps_g / 2."""
    quad = make_strongly_convex_quadratic(dim=4, lambda_min=0.5,
                                          lambda_max=2.0, seed=3)
    L = quad.lipschitz_L
    eps_f, delta = 1e-3, 0.5
    sigma = math.sqrt(eps_f / L)   # bias-minimizing radius
    zeroth = SyntheticZerothOracle(
        quad, ZerothOracleSpec(eps_f=eps_f, mode="bounded"))
    x = quad.x0 / np.linalg.norm(quad.x0)
    grad = quad.gradient(x)
    params = prop3_params(n=4, L=L, sigma=sigma, eps_f=eps_f, delta=delta,
                          kappa=0.0, alpha=1.0,
                          grad_norm=float(np.linalg.norm(grad)))
    assert params.eps_g == pytest.approx(
        2 * (2 * L * sigma + 2 * eps_f / sigma))
    oracle = GsgFirstOracle(quad, zeroth, sigma, params.num_directions)
    stream = probe_stream(62)
    n_queries = 200
    estimates = []
    hits = 0
    for _ in range(n_queries):
        g, exact = oracle(x, 1.0, stream)
        estimates.append(g)
        hits += gradient_accurate(g, exact, 1.0, params.eps_g, 0.0)
    assert binomial_frequency_test(hits, n_queries, 1 - delta)
    estimates = np.array(estimates)
    bias = float(np.linalg.norm(estimates.mean(axis=0) - grad))
    stderr = float(np.linalg.norm(estimates.std(axis=0, ddof=1))) / math.sqrt(n_queries)
    assert bias <= params.eps_g / 2 + 3 * stderr


def test_acceptance_7_bound_formula_cross_check():
    """azuma_tail dominates the exact binomial CDF on a 27-point grid;
    bernstein_tail dominates Monte-Carlo tails of exponential means."""
    for p in (0.7, 0.8, 0.9):
        for gap in (0.3, 0.2, 0.1):
            p_hat = p - gap
            for t in (5, 10, 20):
                exact = float(scipy.stats.binom.cdf(
                    math.ceil(p_hat * t) - 1, t, p))
                assert azuma_tail(p, p_hat, t) >= exact, (p, p_hat, t)

    rng = probe_rng(63)
    m, t, n_samples = 1.0, 20, 1_000_000
    means = rng.exponential(m, size=(n_samples, t)).mean(axis=1)
    nu_r = b_r = 2 * m   # exponential(m) is (2m, 2m)-sub-exponential
    for s in (0.05, 0.1):
        empirical = float(np.mean(means - m >= s))
        mc_err = 3 * math.sqrt(empirical * (1 - empirical) / n_samples)
        assert bernstein_tail(s, t, nu_r, b_r) >= empirical - mc_err, s


ERM_N_SAMPLES, ERM_BATCH, ERM_DIM = 1024, 128, 10


@pytest.fixture(scope="module")
def erm_setup():
    problem, dataset = make_synthetic_logistic(
        n_samples=ERM_N_SAMPLES, dim=ERM_DIM, seed=11, reg=1e-2,
        feature_scale=0.4)
    epoch = ERM_N_SAMPLES // ERM_BATCH
    iters = 50 * epoch
    zeroth = SyntheticZerothOracle(problem, ZerothOracleSpec())
    first = SyntheticFirstOracle(problem, FirstOracleSpec())
    ref_trace = aloe_run(problem, zeroth, first,
                         AloeParams(max_iters=iters), seed=0)
    return problem, dataset, epoch, iters, final_value(ref_trace)


class TestAcceptance8EstimatorRobustness:
    """Mini-batch runs driven by the estimated noise level (and fixed
    multiples of it) land within 5% relative loss of the full-batch
    deterministic baseline in at least 18 of 20 seeded runs."""

    def run_variant(self, setup, seed, mode):
        problem, dataset, epoch, iters, _ = setup
        zeroth = MiniBatchZerothOracle(problem, dataset, ERM_BATCH)
        first = MiniBatchFirstOracle(problem, dataset, ERM_BATCH)
        if mode == "estimated":
            ctrl = EpochEpsFController(
                zeroth, EstimatorConfig(refresh_period=epoch))
            trace = aloe_run(problem, zeroth, first,
                             AloeParams(max_iters=iters), seed,
                             eps_f_controller=ctrl)
        else:
            est0 = estimate_eps_f(zeroth, problem.x0, EstimatorConfig(),
                                  probe_stream(seed, 99))
            trace = aloe_run(problem, zeroth, first,
                             AloeParams(eps_f_input=mode * est0,
                                        max_iters=iters), seed)
        return final_value(trace)

    @pytest.mark.parametrize("mode", ["estimated", 0.5, 1.0, 2.0])
    def test_variant_tracks_full_batch(self, erm_setup, mode):
        ref = erm_setup[4]
        within = 0
        for seed in range(20):
            final = self.run_variant(erm_setup, seed, mode)
            if abs(final - ref) / abs(ref) <= 0.05:
                within += 1
        assert within >= 18, (mode, within)
