"""Walkthrough: derivative-free gradients via Gaussian smoothing.

When only a noisy function-value oracle is available, a compliant
gradient oracle can be built from randomized finite differences:
average [f(x + sigma u) - f(x)] u / sigma over many Gaussian directions.
The accuracy constant eps_g = 2 sqrt(n) (L sigma + eps_f / sigma) is
minimized at the sampling radius sigma* = sqrt(eps_f / L), and the
direction-count formula makes the accuracy event hold with probability
at least 1 - delta.  This script certifies that empirically, then runs
the full line search with the derivative-free oracle.

Run:  python3 demos/gsg_finite_differences.py
"""

import numpy as np

from aloe_lab import (AloeParams, GsgFirstOracle, SyntheticZerothOracle,
                      ZerothOracleSpec, aloe_run, gradient_accurate,
                      make_strongly_convex_quadratic, probe_stream,
                      prop3_params)


def main():
    problem = make_strongly_convex_quadratic(
        dim=4, lambda_min=0.5, lambda_max=2.0, seed=3)
    L = problem.lipschitz_L
    eps_f, delta = 1e-3, 0.5
    zeroth = SyntheticZerothOracle(
        problem, ZerothOracleSpec(eps_f=eps_f, mode="bounded"))

    x = problem.x0 / np.linalg.norm(problem.x0)
    grad = problem.gradient(x)
    sigma = np.sqrt(eps_f / L)
    params = prop3_params(n=problem.dim, L=L, sigma=sigma, eps_f=eps_f,
                          delta=delta, kappa=0.0, alpha=1.0,
                          grad_norm=float(np.linalg.norm(grad)))
    print(f"dim {problem.dim} quadratic, L = {L}, function noise "
          f"eps_f = {eps_f}")
    print(f"sampling radius sigma* = {sigma:.4f}, accuracy constant "
          f"eps_g = {params.eps_g:.4f}")
    print(f"directions per query: {params.num_directions} "
          f"(failure budget delta = {delta})\n")

    oracle = GsgFirstOracle(problem, zeroth, float(sigma),
                            params.num_directions)
    n_queries = 50
    # oracles answer (m, dim) stacks: 50 copies of x are 50 consecutive
    # queries of the stream's one key, answered in one call
    g = oracle(np.tile(x, (n_queries, 1)), 1.0, probe_stream(42))
    hits = gradient_accurate(g, grad, 1.0, params.eps_g, 0.0)
    errs = np.linalg.norm(g - grad, axis=1)
    print(f"{n_queries} probe queries: accuracy event in "
          f"{hits.mean():.0%} (target >= {1 - delta:.0%}), "
          f"mean error {errs.mean():.4f} vs eps_g {params.eps_g:.4f}\n")

    p = aloe_run(problem, zeroth, oracle,
                     AloeParams(eps_f_input=eps_f, max_iters=40), seed=0)
    print("line search with the derivative-free oracle:")
    print(f"{'k':>4} {'alpha':>8} {'||grad||':>10} {'phi':>10}")
    for k in (0, 5, 10, 20, 39):
        print(f"{k:>4} {p.alpha[0, k]:>8.3f} "
              f"{p.grad_norm[0, k]:>10.4f} {p.phi[0, k]:>10.5f}")


if __name__ == "__main__":
    main()
