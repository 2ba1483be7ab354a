"""Many-trial experiment driver.

Runs independent seeded trials of the line search, classifies every path,
verifies the deterministic path lemmas, certifies the oracle contracts
statistically, and compares empirical stopping-time tails against the
theoretical lower bounds.  Trials run in blocks of consecutive seeds, each
block in lockstep through `linesearch.run_lockstep`; a trial's row does
not depend on its block, so the results do not depend on how the seeds
are split into blocks or over worker processes.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from . import rng as rngmod
from .estimation import EpochEpsFController, EstimatorConfig
from .instrument import CENSORED, StoppingSpec, classify_paths
from .linesearch import AloeParams, Trace, run_lockstep
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
    if not 0 < confidence < 1:
        raise ValueError("need 0 < confidence < 1")
    z = NormalDist().inv_cdf(1 - (1 - confidence) / 2)
    phat = k / n
    denom = 1 + z ** 2 / n
    center = (phat + z ** 2 / (2 * n)) / denom
    half = z / denom * math.sqrt(phat * (1 - phat) / n + z ** 2 / (4 * n ** 2))
    return max(center - half, 0.0), min(center + half, 1.0)


# Trial-iterations per lockstep block: enough rows to spread the fixed cost
# of an iteration, few enough that a block's per-iteration columns (about
# 100 bytes per trial-iteration) stay near 13 MB whatever the budget.
BLOCK_CELLS = 1 << 17


def _run_trial_block(config: ExperimentConfig, constants: TheoryConstants,
                     seeds: list) -> tuple[tuple, Trace | None]:
    """Run and classify a block of trials in lockstep.  A trace is returned
    only for the base seed, so a pool sends back one trace per experiment."""
    problem, dataset = build_problem(config)
    zeroth, first = build_oracles(config, problem, dataset)
    controller = None
    if config.estimate_eps_f:
        controller = EpochEpsFController(
            zeroth, config.estimator or EstimatorConfig())
    trace_row = 0 if seeds[0] == config.base_seed else None
    paths, trace = run_lockstep(problem, zeroth, first, config.params, seeds,
                                controller, trace_row)
    v = classify_paths(paths, problem, config.stopping, config.first.eps_g,
                       config.first.kappa, constants.grid_index, constants.d)
    rows = tuple(
        TrialRow(seed=seed, T_eps=T, censored=T == CENSORED, frac_true=ft,
                 frac_success=fs, lemma2_ok=l2 and c1, lemma3_ok=l3,
                 lemma4_ok=l4)
        for seed, T, ft, fs, l2, c1, l3, l4 in zip(
            seeds, v.T_eps.tolist(), v.frac_true.tolist(),
            v.frac_success.tolist(), v.lemma2_ok.tolist(),
            v.corollary1_ok.tolist(), v.lemma3_ok.tolist(),
            v.lemma4_ok.tolist()))
    return rows, trace


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
    rows = max(1, BLOCK_CELLS // config.params.max_iters)
    n_blocks = max(-(-len(seeds) // rows), min(n_jobs, len(seeds)))
    blocks = [b.tolist() for b in np.array_split(seeds, n_blocks)]
    if n_jobs > 1:
        # imported here: a single-process run never pays for it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(
                _run_trial_block, [config] * n_blocks, [constants] * n_blocks,
                blocks))
    else:
        results = [_run_trial_block(config, constants, b) for b in blocks]
    # map keeps block order, so the first block's trace is the base seed's
    rows = tuple(row for block_rows, _ in results for row in block_rows)
    trace = results[0][1]

    samples = np.array([r.T_eps for r in rows])
    tails = tuple(empirical_tail(samples, t) for t in checkpoints)
    wilson = tuple(
        wilson_interval(int(round(tail * len(rows))), len(rows))
        for tail in tails)
    return TrialSummary(
        config=config, constants=constants, rows=rows,
        checkpoints=checkpoints, empirical_tails=tails, theory_bounds=bounds,
        wilson_bounds=wilson, s=config.s, p_hat=p_hat, t_min=t_min,
        trace=trace,
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


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), evaluated by the modified Lentz
    method; converges fast for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return h
    raise ArithmeticError(
        f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), as I_{1-p}(n - k, k + 1)."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return _beta_inc(n - k, k + 1, 1.0 - p)


def binomial_frequency_test(successes: int, n: int, target: float,
                            confidence: float = 0.99) -> bool:
    """One-sided test that the success probability is >= target.  Fails only
    if the observed count is significantly below target."""
    if n < 1 or not 0 <= successes <= n:
        raise ValueError("need n >= 1 and 0 <= successes <= n")
    if target >= 1.0:
        return successes == n
    return binom_cdf(successes, n, target) >= 1 - confidence


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


# Rows per stacked certification query: the stack's arrays stay small
# whatever n_queries is.
CERTIFY_BLOCK = 1024


def _queries_at(query, x, stream, n_queries: int, truth: str):
    """`n_queries` consecutive queries of `stream`'s one key at the point x,
    as stacks of copies of x.  The first stack has one row; its exact value
    is handed on, as the keyword `truth`, to the stacks of up to
    CERTIFY_BLOCK rows that follow.  Yields (query slice, estimates, exact
    values) per stack."""
    x = np.asarray(x, dtype=float)
    start, known = 0, None
    while start < n_queries:
        m = 1 if known is None else min(CERTIFY_BLOCK, n_queries - start)
        given = {} if known is None else {truth: np.repeat(known[None], m, axis=0)}
        est, exact = query(np.tile(x, (m, 1)), stream, **given)
        yield slice(start, start + m), est, exact
        known = np.asarray(exact)[0]
        start += m


def certify_oracles(problem, zeroth_oracle, first_oracle,
                    zspec: ZerothOracleSpec, fspec: FirstOracleSpec,
                    probe_points, alphas, n_queries: int = 10_000,
                    base_seed: int = 0, confidence: float = 0.99) -> CertificationReport:
    """Test the oracle error contracts at each probe point.

    Zeroth order: empirical mean error within eps_f plus three standard
    errors, and (for unbounded noise) the sub-exponential MGF envelope.
    First order: the accuracy event of `fspec` holds with frequency
    >= 1 - delta by a one-sided binomial test.

    The queries at probe j are consecutive queries of the one key
    (base_seed, PROBE, j), sent as stacks of copies of the point: first the
    zeroth-order ones, then the first-order ones at each alpha in turn.
    The exact value at the point is computed once per probe and oracle.
    `problem` is not read.
    """
    if n_queries < 2:
        raise ValueError("n_queries must be >= 2 for a standard error")
    results = []
    for j, x in enumerate(probe_points):
        stream = rngmod.probe_stream(base_seed, j)
        errors = np.empty(n_queries)
        for rows, est, phi in _queries_at(zeroth_oracle, x, stream, n_queries, "phi"):
            errors[rows] = np.abs(est - phi)
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
            def query(X, stream, **given):
                return first_oracle(X, alpha, stream, **given)

            hits = sum(int(gradient_accurate(g, grad, alpha, fspec.eps_g,
                                             fspec.kappa).sum())
                       for _, g, grad in _queries_at(query, x, stream, n_queries,
                                                     "grad"))
            results.append(ProbeResult(
                description=f"first accuracy event, probe {j}, alpha {alpha}",
                passed=binomial_frequency_test(hits, n_queries,
                                               1 - fspec.delta, confidence),
                statistic=hits / n_queries, threshold=1 - fspec.delta))
    return CertificationReport(results=tuple(results))
