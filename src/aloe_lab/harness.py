"""Many-trial experiment driver.

Runs independent seeded trials of the line search, classifies every path,
verifies the deterministic path lemmas, certifies the oracle contracts
statistically, and compares empirical stopping-time tails against the
theoretical lower bounds.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.stats

from . import rng as rngmod
from .estimation import EpochEpsFController, EstimatorConfig
from .instrument import (CENSORED, PathReport, StoppingSpec,
                         compute_path_report)
from .linesearch import AloeParams, Trace, aloe_run
from .oracles import (FirstOracleSpec, GsgFirstOracle, MiniBatchFirstOracle,
                      MiniBatchZerothOracle, SyntheticFirstOracle,
                      SyntheticZerothOracle, ZerothOracleSpec,
                      gradient_accurate)
from .problems import make_strongly_convex_quadratic, make_synthetic_logistic
from .theory import (TheoremInapplicableError, TheoryConstants,
                     derive_constants)


class InadmissibleConfigError(ValueError):
    """Theory constants fail the admissibility gate; no trials were run."""


@dataclass(frozen=True)
class ExperimentConfig:
    fixture: str                      # "quadratic" | "logistic"
    fixture_params: dict
    zeroth: ZerothOracleSpec
    first: FirstOracleSpec
    params: AloeParams
    stopping: StoppingSpec
    n_trials: int = 100
    base_seed: int = 0
    oracle_kind: str = "synthetic"    # "synthetic" | "minibatch" | "gsg"
    oracle_params: dict = field(default_factory=dict)
    t_checkpoints: tuple = ()
    s: float = 0.0
    p_hat: float | None = None
    eta: float | None = None
    check_admissibility: bool = True
    estimate_eps_f: bool = False
    estimator: EstimatorConfig | None = None

    def __post_init__(self):
        if self.fixture not in ("quadratic", "logistic"):
            raise ValueError(f"unknown fixture {self.fixture!r}")
        if self.oracle_kind not in ("synthetic", "minibatch", "gsg"):
            raise ValueError(f"unknown oracle_kind {self.oracle_kind!r}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if any(t > self.params.max_iters for t in self.t_checkpoints):
            raise ValueError("checkpoints must not exceed the iteration budget")

    @property
    def budget(self) -> int:
        return self.params.max_iters


def _freeze(d: dict) -> tuple:
    return tuple(sorted(d.items()))


@lru_cache(maxsize=32)
def _build_problem_cached(fixture: str, frozen_params: tuple):
    params = dict(frozen_params)
    if fixture == "quadratic":
        return make_strongly_convex_quadratic(**params), None
    return make_synthetic_logistic(**params)


def build_problem(config: ExperimentConfig):
    """Problem fixture (and dataset, for the empirical-risk fixture)."""
    return _build_problem_cached(config.fixture, _freeze(config.fixture_params))


def build_oracles(config: ExperimentConfig, problem, dataset):
    if config.oracle_kind == "synthetic":
        return (SyntheticZerothOracle(problem, config.zeroth),
                SyntheticFirstOracle(problem, config.first))
    if config.oracle_kind == "minibatch":
        if dataset is None:
            raise ValueError("minibatch oracles need the empirical-risk fixture")
        bs = config.oracle_params["batch_size"]
        return (MiniBatchZerothOracle(problem, dataset, bs),
                MiniBatchFirstOracle(problem, dataset, bs))
    zeroth = SyntheticZerothOracle(problem, config.zeroth)
    first = GsgFirstOracle(problem, zeroth,
                           config.oracle_params["sigma"],
                           config.oracle_params["num_directions"])
    return zeroth, first


def derive_experiment_constants(config: ExperimentConfig, problem) -> TheoryConstants:
    z, f, st = config.zeroth, config.first, config.stopping
    return derive_constants(
        st.class_tag, eps=st.eps, eps1=st.eps1,
        theta=config.params.theta, gamma=config.params.gamma,
        alpha0=config.params.alpha0, alpha_max=config.params.alpha_max,
        L=problem.lipschitz_L, beta=problem.strong_convexity_beta,
        D=problem.diameter_D, kappa=f.kappa, eps_g=f.eps_g, delta=f.delta,
        eps_f=z.eps_f, nu=z.nu, b=z.b, u=z.mean_slack_u,
        bounded=z.mode in ("exact", "bounded"),
        phi0=problem.value(problem.x0), phi_star=problem.phi_star,
        eta=config.eta,
    )


@dataclass(frozen=True)
class TrialRow:
    seed: int
    T_eps: int
    censored: bool
    frac_true: float
    frac_success: float
    lemma2_ok: bool
    lemma3_ok: bool
    lemma4_ok: bool


@dataclass(frozen=True)
class TrialSummary:
    config: ExperimentConfig
    constants: TheoryConstants
    rows: tuple
    checkpoints: tuple
    empirical_tails: tuple
    theory_bounds: tuple
    wilson_bounds: tuple   # (lo, hi) pairs at each checkpoint
    s: float
    p_hat: float | None
    t_min: int | None
    trace: Trace | None = None   # the base-seed trial's trace

    @property
    def stopping_samples(self) -> np.ndarray:
        return np.array([r.T_eps for r in self.rows])

    @property
    def lemma_pass_count(self) -> int:
        return sum(r.lemma2_ok and r.lemma3_ok and r.lemma4_ok for r in self.rows)

    @property
    def n_censored(self) -> int:
        return sum(r.censored for r in self.rows)


def empirical_tail(samples, t: float) -> float:
    """Fraction of trials that stopped by iteration t; censored samples
    (recorded as CENSORED) count as not stopped."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    return float(np.mean((samples != CENSORED) & (samples <= t)))


def wilson_interval(k: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (two-sided)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    z = float(scipy.stats.norm.ppf(1 - (1 - confidence) / 2))
    phat = k / n
    denom = 1 + z ** 2 / n
    center = (phat + z ** 2 / (2 * n)) / denom
    half = z / denom * math.sqrt(phat * (1 - phat) / n + z ** 2 / (4 * n ** 2))
    return max(center - half, 0.0), min(center + half, 1.0)


def _run_one_trial(config: ExperimentConfig, constants: TheoryConstants,
                   seed: int) -> tuple[TrialRow, Trace | None]:
    """Run and classify one trial.  Its trace is returned only for the
    base seed, so a pool sends back one trace per experiment."""
    problem, dataset = build_problem(config)
    zeroth, first = build_oracles(config, problem, dataset)
    controller = None
    if config.estimate_eps_f:
        controller = EpochEpsFController(
            zeroth, config.estimator or EstimatorConfig())
    trace = aloe_run(problem, zeroth, first, config.params, seed,
                     eps_f_controller=controller)
    report = compute_path_report(
        trace, problem, config.stopping, config.first.eps_g,
        config.first.kappa, constants.bar_alpha_grid, constants.d)
    row = TrialRow(
        seed=seed, T_eps=report.T_eps, censored=report.censored,
        frac_true=report.frac_true, frac_success=report.frac_success,
        lemma2_ok=report.lemma2_ok and report.corollary1_ok,
        lemma3_ok=report.lemma3_ok, lemma4_ok=report.lemma4_ok,
    )
    return row, (trace if seed == config.base_seed else None)


def run_trials(config: ExperimentConfig, n_jobs: int = 1) -> TrialSummary:
    """Run all trials and aggregate; deterministic given the config,
    independent of n_jobs (aggregation folds in seed order).  Every check
    of the config against the theory runs before the first trial."""
    problem, _ = build_problem(config)
    constants = derive_experiment_constants(config, problem)
    if config.check_admissibility:
        ok, reasons = constants.admissible()
        if not ok:
            raise InadmissibleConfigError("; ".join(reasons))

    p_hat = config.p_hat
    t_min = None
    checkpoints = tuple(config.t_checkpoints)
    bounds = tuple(0.0 for _ in checkpoints)
    if p_hat is None and config.check_admissibility:
        lo, hi = constants.p_hat_interval(config.s)
        if lo < hi:
            p_hat = 0.5 * (lo + hi)
    if p_hat is not None:
        try:
            t_min, _, _, _ = constants.iteration_threshold(config.s, p_hat)
        except TheoremInapplicableError as exc:
            raise InadmissibleConfigError(str(exc)) from exc
        if not checkpoints:
            checkpoints = tuple(
                t for t in (t_min, 2 * t_min, 4 * t_min)
                if t <= config.params.max_iters)
        bounds = tuple(constants.tail_lower_bound(config.s, p_hat, t)
                       if t >= t_min else 0.0
                       for t in checkpoints)

    seeds = [config.base_seed + i for i in range(config.n_trials)]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(
                _run_one_trial, [config] * len(seeds), [constants] * len(seeds),
                seeds, chunksize=max(1, len(seeds) // (4 * n_jobs))))
    else:
        results = [_run_one_trial(config, constants, s) for s in seeds]
    # map keeps seed order, so rows[0] and traces[0] belong to the base seed
    rows, traces = zip(*results)

    samples = np.array([r.T_eps for r in rows])
    tails = tuple(empirical_tail(samples, t) for t in checkpoints)
    wilson = tuple(
        wilson_interval(int(round(tail * len(rows))), len(rows))
        for tail in tails)
    return TrialSummary(
        config=config, constants=constants, rows=rows,
        checkpoints=checkpoints, empirical_tails=tails, theory_bounds=bounds,
        wilson_bounds=wilson, s=config.s, p_hat=p_hat, t_min=t_min,
        trace=traces[0],
    )


# ---------------------------------------------------------------------------
# Statistical certification of the oracle contracts


@dataclass(frozen=True)
class ProbeResult:
    description: str
    passed: bool
    statistic: float
    threshold: float


@dataclass(frozen=True)
class CertificationReport:
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def binomial_frequency_test(successes: int, n: int, target: float,
                            confidence: float = 0.99) -> bool:
    """One-sided test that the success probability is >= target.  Fails only
    if the observed count is significantly below target."""
    if target >= 1.0:
        return successes == n
    p_value = scipy.stats.binom.cdf(successes, n, target)
    return bool(p_value >= 1 - confidence)


def mgf_envelope_ok(samples: np.ndarray, nu: float, b: float,
                    n_lambdas: int = 20, slack: float = 0.05) -> bool:
    """Empirical centered MGF stays under exp(lam^2 nu^2 / 2) on a lambda
    grid within [0, 1/b] (or up to 3/nu when b = 0), with multiplicative
    slack plus three standard errors for sampling noise."""
    if nu == 0 and b == 0:
        return bool(np.all(samples == samples[0]))
    hi = 1.0 / b if b > 0 else 3.0 / nu
    lambdas = np.linspace(hi / n_lambdas, hi, n_lambdas)
    centered = samples - samples.mean()
    with np.errstate(over="ignore", invalid="ignore"):
        for lam in lambdas:
            vals = np.exp(lam * centered)
            mgf = vals.mean()
            stderr = vals.std(ddof=1) / math.sqrt(len(vals))
            if not (np.isfinite(mgf) and np.isfinite(stderr)):
                return False
            if mgf > math.exp(lam ** 2 * nu ** 2 / 2) * (1 + slack) + 3 * stderr:
                return False
    return True


def certify_oracles(problem, zeroth_oracle, first_oracle,
                    zspec: ZerothOracleSpec, fspec: FirstOracleSpec,
                    probe_points, alphas, n_queries: int = 10_000,
                    base_seed: int = 0, confidence: float = 0.99) -> CertificationReport:
    """Test the oracle error contracts at each probe point.

    Zeroth order: empirical mean error within eps_f plus three standard
    errors, and (for unbounded noise) the sub-exponential MGF envelope.
    First order: the accuracy event of `fspec` holds with frequency
    >= 1 - delta by a one-sided binomial test.
    """
    results = []
    for j, x in enumerate(probe_points):
        rng = rngmod.probe_rng(base_seed, j)
        errors = np.empty(n_queries)
        for i in range(n_queries):
            est, phi = zeroth_oracle(x, rng)
            errors[i] = abs(est - phi)
        stderr = errors.std(ddof=1) / math.sqrt(n_queries)
        threshold = zspec.eps_f + 3 * stderr
        results.append(ProbeResult(
            description=f"zeroth mean error, probe {j}",
            passed=bool(errors.mean() <= threshold),
            statistic=float(errors.mean()), threshold=threshold))
        if zspec.mode == "subexponential":
            results.append(ProbeResult(
                description=f"zeroth MGF envelope, probe {j}",
                passed=mgf_envelope_ok(errors, zspec.nu, zspec.b),
                statistic=math.nan, threshold=math.nan))
        for alpha in alphas:
            hits = 0
            for i in range(n_queries):
                g, grad = first_oracle(x, alpha, rng)
                hits += gradient_accurate(g, grad, alpha, fspec.eps_g, fspec.kappa)
            results.append(ProbeResult(
                description=f"first accuracy event, probe {j}, alpha {alpha}",
                passed=binomial_frequency_test(hits, n_queries,
                                               1 - fspec.delta, confidence),
                statistic=hits / n_queries, threshold=1 - fspec.delta))
    return CertificationReport(results=tuple(results))
