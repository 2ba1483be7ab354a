"""Walkthrough: mini-batch logistic regression with an estimated noise level.

In the empirical-risk setting the function-value oracle is a random
mini-batch mean and its noise level is unknown.  The practical recipe:
set the acceptance-test slack to a small multiple of the sample standard
deviation of repeated oracle calls at the incumbent, refreshed once per
epoch.  This script compares the resulting trajectory against the exact
full-batch baseline and against runs with the slack fixed at 0.5x / 1x /
2x the initial estimate.

Run:  python3 demos/minibatch_estimated_noise.py
"""

from aloe_lab import (AloeParams, EpochEpsFController, EstimatorConfig,
                      FirstOracleSpec, MiniBatchFirstOracle,
                      MiniBatchZerothOracle, SyntheticFirstOracle,
                      SyntheticZerothOracle, ZerothOracleSpec, aloe_run,
                      estimate_eps_f, make_synthetic_logistic, probe_stream)

BATCH = 128


def final_value(trace):
    return trace.paths.phi[0, -1]


def main():
    problem, dataset = make_synthetic_logistic(
        n_samples=1024, dim=10, seed=11, reg=1e-2, feature_scale=0.4)
    epoch = dataset.n_samples // BATCH
    iters = 50 * epoch

    exact_z = SyntheticZerothOracle(problem, ZerothOracleSpec())
    exact_f = SyntheticFirstOracle(problem, FirstOracleSpec())
    ref = final_value(aloe_run(problem, exact_z, exact_f,
                               AloeParams(max_iters=iters), seed=0))
    print(f"logistic regression: n = {dataset.n_samples}, dim = "
          f"{problem.dim}, batch = {BATCH} ({epoch} batches per epoch)")
    print(f"full-batch baseline loss after {iters} iterations: {ref:.6f}\n")

    zeroth = MiniBatchZerothOracle(problem, dataset, BATCH)
    first = MiniBatchFirstOracle(problem, dataset, BATCH)
    seed = 3

    ctrl = EpochEpsFController(zeroth, EstimatorConfig(refresh_period=epoch))
    trace = aloe_run(problem, zeroth, first, AloeParams(max_iters=iters),
                     seed, eps_f_controller=ctrl)
    loss = final_value(trace)
    print(f"per-epoch estimated slack: final loss {loss:.6f} "
          f"(gap {abs(loss - ref) / ref:.2%})")
    # each refresh records the slacks of the run's block of trials, here one
    (k0, (first_est,)), (kl, (last_est,)) = ctrl.history[0], ctrl.history[-1]
    print(f"  slack trajectory: {first_est:.4g} (iter {k0}) -> "
          f"{last_est:.4g} (iter {kl})\n")

    est0 = estimate_eps_f(zeroth, problem.x0, EstimatorConfig(),
                          probe_stream(seed, 99))
    print(f"one-shot estimate at x0: {est0:.4g}")
    for mult in (0.5, 1.0, 2.0):
        trace = aloe_run(problem, zeroth, first,
                         AloeParams(eps_f_input=mult * est0, max_iters=iters),
                         seed)
        loss = final_value(trace)
        print(f"fixed slack {mult}x estimate: final loss {loss:.6f} "
              f"(gap {abs(loss - ref) / ref:.2%})")


if __name__ == "__main__":
    main()
