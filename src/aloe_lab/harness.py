"""Many-trial experiment driver.

Runs independent seeded trials of the line search, classifies every path,
verifies the deterministic path lemmas, certifies the oracle contracts
statistically, and compares empirical stopping-time tails against the
theoretical lower bounds.  Trials run in blocks of consecutive seeds, each
block in lockstep through `linesearch.run_lockstep`, and a block answers
one (n,) column per verdict; the run's columns are the blocks' columns
joined in seed order.  A trial leaves its block at or after its stopping
time T_eps, by the exit rule of `linesearch`, and its verdicts read its
path up to T_eps only.  The base seed's block also sends back that trial's row of
`linesearch.Paths` cut at T_eps, which the CLI writes as trace.csv.  A
trial's entries do not depend on its block, nor on where it left it, so
the results do not depend on how the seeds are split into blocks or over
worker processes.
"""

import math
from dataclasses import dataclass, field, make_dataclass
from functools import lru_cache, partial

import numpy as np

from . import rng as rngmod
from .estimation import EpochEpsFController, EstimatorConfig
from .instrument import CENSORED, StoppingSpec, classify_paths, stopping_rule
from .linesearch import AloeParams, Paths, run_lockstep
from .oracles import (FirstOracleSpec, GsgFirstOracle, GsgSpec,
                      MiniBatchFirstOracle, MiniBatchSpec, MiniBatchZerothOracle,
                      SyntheticFirstOracle, SyntheticZerothOracle,
                      ZerothOracleSpec, gradient_accurate)
from .problems import (LogisticSpec, QuadraticSpec, check_settings,
                       make_strongly_convex_quadratic, make_synthetic_logistic)
from .theory import (TheoremInapplicableError, TheoryConstants,
                     derive_constants)


class InadmissibleConfigError(ValueError):
    """The config cannot be run, and no trials were: building its problem
    or its theory constants refused it, or the constants fail the
    admissibility gate."""


# The spec of each fixture and oracle kind owns the settings it reads from
# `fixture_params` / `oracle_params`: their defaults and checks.
FIXTURES = {"quadratic": QuadraticSpec, "logistic": LogisticSpec}
ORACLE_KINDS = {"synthetic": make_dataclass("SyntheticSpec", (), frozen=True),
                "minibatch": MiniBatchSpec, "gsg": GsgSpec}


def read_params(spec: type, reader: str, /, **params) -> dict:
    """`params` with `spec`'s defaults filled in and None dropped; a key it
    does not read ("not read by `reader`") fails like one of its checks."""
    fields = spec.__dataclass_fields__
    failed = [(True, f"{k} is not read by {reader}") for k in params if k not in fields]
    try:
        read = vars(spec(**{k: v for k, v in params.items() if k in fields}))
    except ValueError as exc:
        failed.append((True, str(exc)))
    check_settings(*failed)
    return {k: v for k, v in read.items() if v is not None}


def params_readers(fixture: str, oracle_kind: str) -> dict:
    """Each params field's `read_params`, by the spec its fixture or oracle
    kind chooses; `dict` for an unknown name, so only the name is refused."""
    return {part: partial(read_params, specs[name], f"{what} {name!r}")
            if name in specs else dict
            for part, specs, name, what in (
                ("fixture_params", FIXTURES, fixture, "fixture"),
                ("oracle_params", ORACLE_KINDS, oracle_kind, "oracle kind"))}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; a setting left out takes its part's default."""

    fixture: str = "quadratic"        # a name in FIXTURES
    fixture_params: dict = field(default_factory=dict)
    zeroth: ZerothOracleSpec = field(default_factory=ZerothOracleSpec)
    first: FirstOracleSpec = field(default_factory=FirstOracleSpec)
    params: AloeParams = field(default_factory=AloeParams)
    stopping: StoppingSpec = field(default_factory=StoppingSpec)
    n_trials: int = 100
    base_seed: int = 0
    oracle_kind: str = "synthetic"    # a name in ORACLE_KINDS
    oracle_params: dict = field(default_factory=dict)
    t_checkpoints: tuple = ()
    s: float = 0.0
    p_hat: float | None = None
    eta: float | None = None
    check_admissibility: bool = True
    estimate_eps_f: bool = False
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self):
        failed = []
        for part, read in params_readers(self.fixture, self.oracle_kind).items():
            try:   # the params with their spec's defaults filled in
                object.__setattr__(self, part, read(**getattr(self, part)))
            except ValueError as exc:
                failed.append((True, str(exc)))
        check_settings(
            *failed,
            (self.fixture not in FIXTURES, f"unknown fixture {self.fixture!r}"),
            (self.oracle_kind not in ORACLE_KINDS,
             f"unknown oracle_kind {self.oracle_kind!r}"),
            (self.oracle_kind == "minibatch" and self.fixture != "logistic",
             "minibatch oracles need the logistic fixture"),
            (self.n_trials < 1, "n_trials must be >= 1"),
            (self.base_seed < 0, "base_seed must be >= 0"),
            (self.base_seed + self.n_trials - 1 > np.iinfo(np.int64).max,
             "base_seed + n_trials - 1 must not exceed 2**63 - 1 (seeds are int64)"),
            (any(t < 0 for t in self.t_checkpoints), "checkpoints must be >= 0"),
            (any(t > self.params.max_iters for t in self.t_checkpoints),
             "checkpoints must not exceed the iteration budget"),
            (not 0 <= self.s < math.inf, "s must be finite and >= 0"))


@lru_cache(maxsize=32)
def _build_problem_cached(fixture: str, frozen_params: tuple):
    params = dict(frozen_params)
    if fixture == "quadratic":
        return make_strongly_convex_quadratic(**params), None
    return make_synthetic_logistic(**params)


def build_problem(config: ExperimentConfig):
    """Problem fixture (and dataset, for the empirical-risk fixture)."""
    return _build_problem_cached(config.fixture,
                                 tuple(sorted(config.fixture_params.items())))


def build_oracles(config: ExperimentConfig, problem, dataset):
    """The oracles of the config's kind; `oracle_params` are their spec's."""
    if config.oracle_kind == "minibatch":
        return (MiniBatchZerothOracle(problem, dataset, **config.oracle_params),
                MiniBatchFirstOracle(problem, dataset, **config.oracle_params))
    zeroth = SyntheticZerothOracle(problem, config.zeroth)
    if config.oracle_kind == "gsg":
        return zeroth, GsgFirstOracle(problem, zeroth, **config.oracle_params)
    return zeroth, SyntheticFirstOracle(problem, config.first)


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


@dataclass(frozen=True, eq=False)   # == on array fields is elementwise
class TrialSummary:
    """A run's per-trial columns, in seed order and named after the
    trials.csv header, and its tail against the bound at each checkpoint."""
    config: ExperimentConfig
    constants: TheoryConstants
    seed: np.ndarray
    T_eps: np.ndarray        # CENSORED where the criterion was not met
    frac_true: np.ndarray
    frac_success: np.ndarray
    lemma2_ok: np.ndarray    # Lemma 2 and Corollary 1
    lemma3_ok: np.ndarray
    lemma4_ok: np.ndarray
    checkpoints: tuple
    empirical_tails: tuple
    theory_bounds: tuple
    wilson_bounds: tuple   # (lo, hi) pairs at each checkpoint
    p_hat: float | None
    t_min: int | None
    trace: Paths | None = None   # the base-seed trial's row up to T_eps

    @property
    def lemma_clean(self) -> np.ndarray:
        """(n,) bool: the trials on which every path lemma held."""
        return self.lemma2_ok & self.lemma3_ok & self.lemma4_ok

    @property
    def lemma_pass_count(self) -> int:
        return int(np.count_nonzero(self.lemma_clean))

    @property
    def n_censored(self) -> int:
        return int(np.count_nonzero(self.T_eps == CENSORED))


def _n_stopped(samples: np.ndarray, t: float) -> int:
    return int(np.count_nonzero((samples != CENSORED) & (samples <= t)))


def empirical_tail(samples, t: float) -> float:
    """Fraction of trials that stopped by iteration t; censored samples
    (recorded as CENSORED) count as not stopped."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    return _n_stopped(samples, t) / samples.size


def wilson_interval(k: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (two-sided)."""
    if n < 1:
        raise ValueError("need n >= 1 trials")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if not 0 < confidence < 1:
        raise ValueError("need 0 < confidence < 1")
    # imported here: statistics loads fractions and decimal, and a run with
    # no checkpoint in its budget never needs it
    from statistics import NormalDist
    z = NormalDist().inv_cdf(1 - (1 - confidence) / 2)
    phat = k / n
    denom = 1 + z ** 2 / n
    center = (phat + z ** 2 / (2 * n)) / denom
    half = z / denom * math.sqrt(phat * (1 - phat) / n + z ** 2 / (4 * n ** 2))
    return max(center - half, 0.0), min(center + half, 1.0)


# Trial-iterations per lockstep block: enough rows to spread the fixed cost
# of an iteration, few enough that a block's per-iteration columns stay
# small whatever the budget.  Its twelve `Paths` columns keep 89 bytes per
# trial-iteration, allocated for the iterations the block ran, so a block
# whose trials stop early holds only those.  A block whose rows run the
# whole budget still holds them all, in its chunks' columns until it ends
# and then in its own, built from them one field at a time, and the bound
# keeps it at 14-17 MB (tracemalloc, a 10-dim quadratic block at T = 1 000
# and T = 100).
BLOCK_CELLS = 1 << 17


def _run_trial_block(config: ExperimentConfig, constants: TheoryConstants,
                     seeds: list) -> tuple[tuple, Paths | None]:
    """Run and classify a block of trials in lockstep, each until it stops.
    Returns the block's (n,) columns seed, T_eps, frac_true, frac_success,
    lemma2_ok (Lemma 2 and Corollary 1), lemma3_ok and lemma4_ok, and the
    base seed's row of `Paths` up to T_eps, which only its block sends."""
    problem, dataset = build_problem(config)
    zeroth, first = build_oracles(config, problem, dataset)
    controller = None
    if config.estimate_eps_f:
        controller = EpochEpsFController(zeroth, config.estimator)
    paths = run_lockstep(problem, zeroth, first, config.params, seeds,
                         controller,
                         stop=stopping_rule(config.stopping, problem.phi_star))
    v = classify_paths(paths, problem, config.stopping, config.first.eps_g,
                       config.first.kappa, constants.grid_index, constants.d)
    t = v.T_eps[0]   # not where the row left, which depends on the block
    base = (paths.row(0, config.params.max_iters if t == CENSORED else t)
            if seeds[0] == config.base_seed else None)
    return (np.asarray(seeds), v.T_eps, v.frac_true, v.frac_success,
            v.lemma2_ok & v.corollary1_ok, v.lemma3_ok, v.lemma4_ok), base


def run_trials(config: ExperimentConfig, n_jobs: int = 1) -> TrialSummary:
    """Run all trials and aggregate; deterministic given the config,
    independent of n_jobs (aggregation folds in seed order).  Every check
    of the config runs before the first trial: a problem or theory
    constants that cannot be built, like the admissibility gate, raise
    InadmissibleConfigError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            problem, dataset = build_problem(config)
            constants = derive_experiment_constants(config, problem)
    except ValueError as exc:
        raise InadmissibleConfigError(str(exc)) from exc
    except ArithmeticError as exc:  # e.g. ||x_0||^2 overflowing
        raise InadmissibleConfigError(f"{type(exc).__name__}: {exc}") from exc
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
        except ArithmeticError as exc:  # e.g. an infinite R: phi(x_0) overflowing
            raise InadmissibleConfigError(f"{type(exc).__name__}: {exc}") from exc
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
    workers = min(n_jobs, n_blocks)     # a forked pool starts them all
    if workers > 1:
        # imported here: a single-process run never pays for it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                _run_trial_block, [config] * n_blocks, [constants] * n_blocks,
                blocks))
    else:
        results = [_run_trial_block(config, constants, b) for b in blocks]
    # map keeps block order, which is seed order, so the first block's
    # row 0 is the base seed's
    seed, T_eps, *verdicts = (np.concatenate(c) for c in
                              zip(*(cols for cols, _ in results)))
    n = config.n_trials
    stopped = [_n_stopped(T_eps, t) for t in checkpoints]
    return TrialSummary(
        config, constants, seed, T_eps, *verdicts, checkpoints=checkpoints,
        empirical_tails=tuple(k / n for k in stopped), theory_bounds=bounds,
        wilson_bounds=tuple(wilson_interval(k, n) for k in stopped),
        p_hat=p_hat, t_min=t_min, trace=results[0][1],
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


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), as one sum in log space: log P(X = i)
    for i = 0..k from log P(X = 0) = n log(1 - p) and the cumulative log
    ratios P(X = i) / P(X = i - 1) = (n - i + 1) p / (i (1 - p)), summed
    after a shift by the largest term."""
    if k < 0 or (p == 1.0 and k < n):
        return 0.0
    if k >= n or p == 0.0:
        return 1.0
    i = np.arange(1, k + 1)
    ratios = np.log((n - i + 1) * p / (i * (1 - p)))
    log_terms = n * math.log1p(-p) + np.concatenate(([0.0], np.cumsum(ratios)))
    top = log_terms.max()
    return min(1.0, math.exp(top) * float(np.exp(log_terms - top).sum()))


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
    (base_seed, PROBE, j), sent as stacks of up to CERTIFY_BLOCK copies of
    the point: first the zeroth-order ones, then the first-order ones at
    each alpha in turn.  phi(x) and grad phi(x) are computed from `problem`
    once per probe and handed to every stack.
    """
    if n_queries < 2:
        raise ValueError("n_queries must be >= 2 for a standard error")
    m = min(CERTIFY_BLOCK, n_queries)
    # each stack is the first rows of the probe's m copies
    stacks = [slice(0, min(m, n_queries - start))
              for start in range(0, n_queries, m)]
    results = []
    for j, x in enumerate(probe_points):
        stream = rngmod.probe_stream(base_seed, j)
        x = np.asarray(x, dtype=float)
        X, phi = np.tile(x, (m, 1)), np.full(m, problem.value(x))
        grad = np.tile(problem.gradient(x), (m, 1))
        errors = np.concatenate([
            np.abs(zeroth_oracle(X[s], stream, phi=phi[s]) - phi[s])
            for s in stacks])
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
            hits = sum(int(gradient_accurate(
                first_oracle(X[s], alpha, stream, grad=grad[s], phi=phi[s]),
                grad[s], alpha, fspec.eps_g, fspec.kappa).sum()) for s in stacks)
            results.append(ProbeResult(
                description=f"first accuracy event, probe {j}, alpha {alpha}",
                passed=binomial_frequency_test(hits, n_queries,
                                               1 - fspec.delta, confidence),
                statistic=hits / n_queries, threshold=1 - fspec.delta))
    return CertificationReport(results=tuple(results))
