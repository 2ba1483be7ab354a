"""Walkthrough: the line search with exact oracles on a random quadratic.

With no oracle noise every iteration is "true", the relaxed sufficient-
decrease test reduces to the classical one, and the derived constants give
a deterministic horizon guarantee.  This script runs a single trajectory,
prints how the step size and gradient norm evolve, and compares the
observed stopping time against the exact-limit threshold.

Run:  python3 demos/exact_quadratic.py
"""

from aloe_lab import (AloeParams, FirstOracleSpec, StoppingSpec,
                      SyntheticFirstOracle, SyntheticZerothOracle,
                      ZerothOracleSpec, aloe_run, derive_constants,
                      make_strongly_convex_quadratic, stopping_times)

EPS = 1e-6


def main():
    problem = make_strongly_convex_quadratic(
        dim=10, lambda_min=0.1, lambda_max=10.0, seed=7)
    zeroth = SyntheticZerothOracle(problem, ZerothOracleSpec())
    first = SyntheticFirstOracle(problem, FirstOracleSpec())
    params = AloeParams(max_iters=1500)

    p = aloe_run(problem, zeroth, first, params, seed=0)
    T = int(stopping_times(p, problem,
                           StoppingSpec(class_tag="nonconvex", eps=EPS))[0])

    print(f"quadratic: dim 10, spectrum [0.1, 10], phi(x0) = "
          f"{problem.value(problem.x0):.3f}")
    print(f"target: ||grad phi|| <= {EPS}\n")
    print(f"{'k':>5} {'alpha':>10} {'||grad||':>12} {'phi':>12}")
    for k in (0, 1, 2, 5, 10, 20, 50, 100, 200, 400, T - 1):
        print(f"{k:>5} {p.alpha[0, k]:>10.4f} "
              f"{p.grad_norm[0, k]:>12.3e} {p.phi[0, k]:>12.3e}")

    constants = derive_constants(
        "nonconvex", eps=EPS, theta=params.theta, gamma=params.gamma,
        alpha0=params.alpha0, alpha_max=params.alpha_max,
        L=problem.lipschitz_L, kappa=0.0, eps_g=0.0, delta=0.0,
        eps_f=0.0, nu=0.0, b=0.0, u=0.0, bounded=True,
        phi0=problem.value(problem.x0), phi_star=problem.phi_star)
    _, R, _, d = constants.iteration_threshold(0.0, 0.9)
    print(f"\nobserved stopping time: T = {T}")
    print(f"critical step size bar_alpha = {constants.bar_alpha:.4f} "
          f"(grid-snapped {constants.bar_alpha_grid:.4f}, offset d = {d:.0f})")
    print(f"exact-limit horizon 2R + 1 = {2 * R + 1:.3e}  (T well inside)")


if __name__ == "__main__":
    main()
