"""Stochastic line-search laboratory.

A numpy library for studying adaptive line search driven by
probabilistic zeroth- and first-order oracles: instrumented problem
fixtures, contract-checked noisy oracles, the line-search loop itself,
post-hoc path classification, closed-form complexity constants, and a
Monte Carlo harness comparing empirical stopping-time tails against
high-probability bounds.
"""

__version__ = "1.0.0"

from .estimation import EpochEpsFController, EstimatorConfig, estimate_eps_f
from .harness import (CertificationReport, ExperimentConfig,
                      InadmissibleConfigError, TrialSummary, certify_oracles,
                      empirical_tail, run_trials, wilson_interval)
from .instrument import (CENSORED, PathVerdicts, StoppingSpec, classify_paths,
                         progress_Z, stopping_times, verify_path_lemmas)
from .linesearch import (AloeParams, Paths, TrialDivergedError, aloe_run,
                         armijo_check, run_lockstep, snap_to_step_grid,
                         step_update)
from .oracles import (FirstOracleSpec, GsgFirstOracle, GsgParams, GsgSpec,
                      MiniBatchFirstOracle, MiniBatchSpec, MiniBatchZerothOracle,
                      OracleParameterError, SyntheticFirstOracle,
                      SyntheticZerothOracle, ZerothOracleSpec,
                      gradient_accurate, prop1_subexp_params,
                      prop2_sample_size, prop3_params)
from .problems import (ErmDataset, LogisticSpec, ProblemInstance, QuadraticSpec,
                       estimate_growth_constants,
                       make_strongly_convex_quadratic, make_synthetic_logistic)
from .rng import KeyedStream, probe_rng, probe_stream
from .theory import (TheoremInapplicableError, TheoryConstants, azuma_tail,
                     bar_alpha, bernstein_tail, constants_report,
                     convex_eps1_min, derive_constants, eps_lower_bound,
                     eta_range, h_of_alpha, r_damage,
                     strongly_convex_display_C, subexp_params_r,
                     success_prob_p)

__all__ = [name for name in dir() if not name.startswith("_")]
