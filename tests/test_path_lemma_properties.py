"""Property test: Lemmas 2-4 and Corollary 1 hold on every path of every
admissible configuration, not only on hand-picked ones.

Configs are generated over the oracle families: synthetic oracles and
Gaussian-smoothing gradients (few directions) on the quadratic fixture,
and mini-batch oracles on a small logistic fixture, with the slack fixed
or estimated once per epoch.  A mini-batch's errors are of order 0.1, so
its declared contract is drawn 100 times wider, and the fixture's
regularization of 1 keeps its gradient above the eps floor that contract
implies, so that some paths run before stopping.  The initial step alpha0 = 10^U(-2, 0.5)
starts the loop both below and above the critical step of the fixture.
The step-size cap alpha_max = alpha0 * gamma^-j * f, with f in
[1, 1/gamma), lies on the step grid for f = 1 and between two grid steps
otherwise (the loop then caps at alpha0 * gamma^-j).  The accuracy target
eps is drawn above the floor the theory derives for the other constants.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aloe_lab.estimation import EstimatorConfig
from aloe_lab.harness import (ExperimentConfig, build_problem,
                              derive_experiment_constants, run_trials)
from aloe_lab.instrument import StoppingSpec
from aloe_lab.linesearch import AloeParams
from aloe_lab.oracles import FirstOracleSpec, ZerothOracleSpec

N_TRIALS = 6
FAMILIES = ["synthetic", "gsg", "minibatch", "minibatch_estimated"]


def oracle_specs(mode, eps_f, eps_g, kappa, delta):
    if mode == "exact":
        return ZerothOracleSpec(), FirstOracleSpec()
    if mode == "bounded":
        zeroth = ZerothOracleSpec(eps_f=eps_f, mode="bounded")
    else:
        zeroth = ZerothOracleSpec(eps_f=eps_f, nu=eps_f / 8, b=eps_f / 8,
                                  mode="subexponential", mean_error=eps_f / 2)
    return zeroth, FirstOracleSpec(eps_g=eps_g, kappa=kappa, delta=delta)


def family_settings(family, size, dim, problem_seed):
    """The fixture and oracle settings of a family; `size` is the number
    of GSG directions, or an eighth of the mini-batch size."""
    if family.startswith("minibatch"):
        return dict(
            fixture="logistic",
            fixture_params={"n_samples": 64, "dim": 4, "seed": problem_seed,
                            "reg": 1.0},
            oracle_kind="minibatch", oracle_params={"batch_size": 8 * size},
            estimate_eps_f=family == "minibatch_estimated",
            estimator=EstimatorConfig(n_calls=5, refresh_period=10))
    quadratic = dict(fixture="quadratic",
                     fixture_params={"dim": dim, "lambda_min": 0.1,
                                     "lambda_max": 10.0, "seed": problem_seed})
    if family == "gsg":
        quadratic.update(oracle_kind="gsg",
                         oracle_params={"sigma": 0.01, "num_directions": size})
    return quadratic


def make_config(family, class_tag, mode, theta, gamma, alpha0, cap, noise,
                eps, seeds):
    eps_f, eps_g, kappa, delta = noise
    if family[0].startswith("minibatch"):
        eps_f, eps_g = 100 * eps_f, 100 * eps_g
    zeroth, first = oracle_specs(mode, eps_f, eps_g, kappa, delta)
    dim, problem_seed, base_seed = seeds
    j, u = cap
    f = gamma ** -u   # in [1, 1/gamma); on the grid for u = 0
    return ExperimentConfig(
        **family_settings(*family, dim, problem_seed),
        zeroth=zeroth, first=first,
        params=AloeParams(eps_f_input=zeroth.eps_f, alpha0=alpha0,
                          alpha_max=alpha0 * gamma ** -j * f, theta=theta,
                          gamma=gamma, max_iters=120),
        stopping=StoppingSpec(class_tag=class_tag, eps=eps,
                              eps1=eps if class_tag == "convex" else None),
        n_trials=N_TRIALS, base_seed=base_seed)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    family=st.tuples(st.sampled_from(FAMILIES), st.integers(1, 8)),
    class_tag=st.sampled_from(["nonconvex", "strongly_convex", "convex"]),
    mode=st.sampled_from(["exact", "bounded", "subexponential"]),
    theta=st.floats(0.05, 0.5),
    gamma=st.floats(0.5, 0.9),
    alpha0=st.floats(-2, 0.5).map(lambda e: 10 ** e),
    cap=st.tuples(st.integers(1, 3),
                  st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))),
    noise=st.tuples(st.floats(-5, -3).map(lambda e: 10 ** e),
                    st.floats(-4, -2).map(lambda e: 10 ** e),
                    st.floats(0.1, 1.0), st.floats(0.0, 0.2)),
    eps_factor=st.floats(1.05, 3.0),
    seeds=st.tuples(st.integers(2, 10), st.integers(0, 100),
                    st.integers(0, 10_000)),
)
def test_path_lemmas_hold_on_generated_configs(family, class_tag, mode, theta,
                                               gamma, alpha0, cap, noise,
                                               eps_factor, seeds):
    def constants(eps):
        config = make_config(family, class_tag, mode, theta, gamma, alpha0,
                             cap, noise, eps, seeds)
        problem, _ = build_problem(config)
        return config, derive_experiment_constants(config, problem)

    # the floor does not depend on eps; it is 0 for exact oracles
    _, probe = constants(1.0)
    config, c = constants((probe.eps_min or 1e-3) * eps_factor)
    assume(c.admissible()[0])

    summary = run_trials(config)
    # lemma2_ok carries Lemma 2 and Corollary 1 together
    clean = summary.lemma2_ok & summary.lemma3_ok & summary.lemma4_ok
    assert clean.all(), summary.seed[~clean]
