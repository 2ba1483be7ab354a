"""Walkthrough: Monte-Carlo validation of the high-probability complexity
bound under bounded function noise.

The harness runs many independent seeded trials, records each stopping
time, verifies the deterministic per-path counting lemmas, and compares
the empirical fraction of trials finished by t against the theoretical
lower bound 1 - exp(-(p - p_hat)^2 t / (2 p^2)) for t past the derived
threshold t_min.  Here the slowest of the 300 trials stops at T_eps = 18,
while the bound speaks only from t_min = 2865 on, where it already reads
1 - 2.4e-15: every row of the table prints 1.0000 against 1.0000.  The
table shows that the bound holds (it never exceeds the empirical tail),
not how tight it is: its horizon lies far beyond the observed maximum
stopping time, as expected of a worst-case guarantee.

Run:  python3 demos/tail_bound_validation.py
"""

from aloe_lab import (AloeParams, ExperimentConfig, FirstOracleSpec,
                      StoppingSpec, ZerothOracleSpec, empirical_tail,
                      run_trials)

N_TRIALS = 300


def main():
    config = ExperimentConfig(
        fixture="quadratic",
        fixture_params={"dim": 10, "lambda_min": 0.1, "lambda_max": 10.0,
                        "seed": 7},
        zeroth=ZerothOracleSpec(eps_f=1e-3, mode="bounded"),
        first=FirstOracleSpec(eps_g=1e-3, kappa=1.0, delta=0.1),
        params=AloeParams(eps_f_input=1e-3, alpha0=1.0, alpha_max=1.25,
                          max_iters=100),
        stopping=StoppingSpec(class_tag="nonconvex", eps=2.7557),
        n_trials=N_TRIALS, base_seed=0,
    )
    summary = run_trials(config, n_jobs=4)
    c = summary.constants

    print(f"bounded noise: eps_f = {c.eps_f}, gradient failure rate "
          f"delta = {c.delta}")
    print(f"accuracy target eps = {c.eps} "
          f"(achievable floor {c.eps_min:.4f})")
    print(f"success probability p = {c.p:.3f}, split point "
          f"p_hat = {summary.p_hat:.4f}, threshold t_min = {summary.t_min}\n")

    samples = summary.T_eps
    print(f"{N_TRIALS} trials: min/median/max stopping time = "
          f"{samples.min()}/{int(sorted(samples)[N_TRIALS // 2])}/"
          f"{samples.max()}, censored = {summary.n_censored}")
    print(f"path lemmas clean on {summary.lemma_pass_count}/{N_TRIALS} "
          f"trials\n")

    print(f"{'t':>8} {'empirical P(T<=t)':>18} {'theory bound':>14} "
          f"{'bound slack':>12}")
    for mult in (1, 2, 4):
        t = mult * summary.t_min
        tail = empirical_tail(samples, t)
        bound = c.tail_lower_bound(config.s, summary.p_hat, t)
        print(f"{t:>8} {tail:>18.4f} {bound:>14.4f} {1 - bound:>12.3e}")


if __name__ == "__main__":
    main()
