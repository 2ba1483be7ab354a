"""Property test: Lemmas 2-4 and Corollary 1 hold on every path of every
admissible configuration, not only on hand-picked ones.

Configs are generated on the quadratic fixture with synthetic oracles; the
step-size cap alpha_max = alpha0 * gamma^-j lies on the step grid, and the
accuracy target eps is drawn above the floor the theory derives for the
other constants.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aloe_lab.harness import (ExperimentConfig, build_problem,
                              derive_experiment_constants, run_trials)
from aloe_lab.instrument import StoppingSpec
from aloe_lab.linesearch import AloeParams
from aloe_lab.oracles import FirstOracleSpec, ZerothOracleSpec

N_TRIALS = 6


def oracle_specs(mode, eps_f, eps_g, kappa, delta):
    if mode == "exact":
        return ZerothOracleSpec(), FirstOracleSpec()
    if mode == "bounded":
        zeroth = ZerothOracleSpec(eps_f=eps_f, mode="bounded")
    else:
        zeroth = ZerothOracleSpec(eps_f=eps_f, nu=eps_f / 8, b=eps_f / 8,
                                  mode="subexponential", mean_error=eps_f / 2)
    return zeroth, FirstOracleSpec(eps_g=eps_g, kappa=kappa, delta=delta)


def make_config(class_tag, mode, theta, gamma, j, noise, eps, seeds):
    zeroth, first = oracle_specs(mode, *noise)
    dim, problem_seed, base_seed = seeds
    return ExperimentConfig(
        fixture="quadratic",
        fixture_params={"dim": dim, "lambda_min": 0.1, "lambda_max": 10.0,
                        "seed": problem_seed},
        zeroth=zeroth, first=first,
        params=AloeParams(eps_f_input=zeroth.eps_f, alpha0=1.0,
                          alpha_max=gamma ** -j, theta=theta, gamma=gamma,
                          max_iters=120),
        stopping=StoppingSpec(class_tag=class_tag, eps=eps,
                              eps1=eps if class_tag == "convex" else None),
        n_trials=N_TRIALS, base_seed=base_seed)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    class_tag=st.sampled_from(["nonconvex", "strongly_convex", "convex"]),
    mode=st.sampled_from(["exact", "bounded", "subexponential"]),
    theta=st.floats(0.05, 0.5),
    gamma=st.floats(0.5, 0.9),
    j=st.integers(1, 3),
    noise=st.tuples(st.floats(-5, -3).map(lambda e: 10 ** e),
                    st.floats(-4, -2).map(lambda e: 10 ** e),
                    st.floats(0.1, 1.0), st.floats(0.0, 0.2)),
    eps_factor=st.floats(1.05, 3.0),
    seeds=st.tuples(st.integers(2, 10), st.integers(0, 100),
                    st.integers(0, 10_000)),
)
def test_path_lemmas_hold_on_generated_configs(class_tag, mode, theta, gamma,
                                               j, noise, eps_factor, seeds):
    def constants(eps):
        config = make_config(class_tag, mode, theta, gamma, j, noise, eps, seeds)
        problem, _ = build_problem(config)
        return config, derive_experiment_constants(config, problem)

    # the floor does not depend on eps; it is 0 for exact oracles
    _, probe = constants(1.0)
    config, c = constants((probe.eps_min or 1e-3) * eps_factor)
    assume(c.admissible()[0])

    summary = run_trials(config)
    for row in summary.rows:
        # lemma2_ok carries Lemma 2 and Corollary 1 together
        assert row.lemma2_ok and row.lemma3_ok and row.lemma4_ok, row
