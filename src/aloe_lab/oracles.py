"""Probabilistic zeroth- and first-order oracles.

Three families are provided:

* synthetic noise injectors around the exact values (with controllable
  mean error, sub-exponential tail parameters, and gradient failure rate),
* mini-batch oracles over a finite empirical-risk dataset, together with
  the sample-size formulas that make them contract-compliant,
* randomized finite-difference (Gaussian smoothing) gradient estimators
  built from the zeroth-order oracle.

Oracles are callables that return the estimate together with the exact
value it estimates: zeroth ``oracle(x, rng) -> (f, phi(x))``, first
``oracle(x, alpha, rng) -> (g, grad phi(x))``.  Oracles do not judge their
own accuracy; `gradient_accurate` is the one gradient accuracy test, used by
the path classifier, the certification harness and the demos.
"""

import math
from dataclasses import dataclass

import numpy as np

from .problems import ErmDataset, ProblemInstance, _mean_ascending

ZEROTH_MODES = ("exact", "bounded", "subexponential")


class OracleParameterError(ValueError):
    """Raised when an oracle parameter combination makes a bound infinite."""


@dataclass(frozen=True)
class ZerothOracleSpec:
    """Constants of the function-value oracle.

    `eps_f` bounds the mean absolute error; `(nu, b)` are the one-sided
    sub-exponential parameters of the error.  `mean_error` is the actual
    mean error of the synthetic noise law (defaults to eps_f); keeping it
    strictly below eps_f is what gives a positive mean slack
    u = eps_f - E[e] in the sub-exponential analysis.
    """

    eps_f: float = 0.0
    nu: float = 0.0
    b: float = 0.0
    mode: str = "exact"
    mean_error: float | None = None

    def __post_init__(self):
        if self.mode not in ZEROTH_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if min(self.eps_f, self.nu, self.b) < 0:
            raise ValueError("eps_f, nu, b must be nonnegative")
        if self.mode == "exact" and (self.eps_f or self.nu or self.b):
            raise ValueError("exact mode requires eps_f = nu = b = 0")
        if self.mean_error is not None and not 0 <= self.mean_error <= self.eps_f:
            raise ValueError("mean_error must lie in [0, eps_f]")

    @property
    def target_mean(self) -> float:
        if self.mode == "exact":
            return 0.0
        if self.mean_error is not None:
            return self.mean_error
        # uniform errors on [0, eps_f] in bounded mode
        return self.eps_f / 2 if self.mode == "bounded" else self.eps_f

    @property
    def mean_slack_u(self) -> float:
        """u = eps_f - E[e(x)], known exactly for the synthetic law."""
        return self.eps_f - self.target_mean


@dataclass(frozen=True)
class FirstOracleSpec:
    """Constants of the gradient oracle: accuracy threshold
    max{eps_g, kappa * alpha * ||g||} holding with probability >= 1 - delta.

    On a failure draw the synthetic oracle returns an adversarially large
    corruption of magnitude `corruption_base + corruption_scale * ||grad||`.
    """

    eps_g: float = 0.0
    kappa: float = 0.0
    delta: float = 0.0
    corruption_scale: float = 10.0
    corruption_base: float = 10.0

    def __post_init__(self):
        if min(self.eps_g, self.kappa) < 0:
            raise ValueError("eps_g and kappa must be nonnegative")
        if not 0 <= self.delta < 1:
            raise ValueError("delta must lie in [0, 1)")


def gradient_accurate(g, grad, alpha: float, eps_g: float, kappa: float) -> bool:
    """The first-order accuracy event ||g - grad|| <= max{eps_g,
    kappa alpha ||g||}; boundary equality counts as accurate."""
    err = float(np.linalg.norm(g - grad))
    return err <= max(eps_g, kappa * alpha * float(np.linalg.norm(g)))


def sample_one_sided_subexp(nu: float, b: float, target_mean: float, rng) -> float:
    """Draw a nonnegative error with mean `target_mean` whose centered
    one-sided MGF stays under exp(lam^2 nu^2 / 2) for lam in [0, 1/b].

    The law is fixed: a shifted exponential with mean spread
    m = min(nu/2, b/2, target_mean) (an exponential with mean m is
    (2m, 2m)-sub-exponential), degenerating to a symmetric two-point law
    when b = 0 (sub-Gaussian case) and to a point mass when nu = b = 0.
    """
    if min(nu, b, target_mean) < 0:
        raise ValueError("nu, b, target_mean must be nonnegative")
    if target_mean == 0 or (nu == 0 and b == 0):
        return target_mean
    if b == 0:
        m = min(nu, target_mean)
        return target_mean + (m if rng.random() < 0.5 else -m)
    m = min(nu / 2, b / 2, target_mean)
    return target_mean - m + rng.exponential(m)


class SyntheticZerothOracle:
    """Noise injector around the exact value; |f - phi| follows the
    configured one-sided sub-exponential law, with a fair-coin
    perturbation sign."""

    def __init__(self, problem: ProblemInstance, spec: ZerothOracleSpec):
        self.problem = problem
        self.spec = spec

    def __call__(self, x, rng) -> tuple[float, float]:
        phi = self.problem.value(x)
        spec = self.spec
        if spec.mode == "exact":
            e = 0.0
        elif spec.mode == "bounded":
            # uniform on [0, cap]; cap <= eps_f keeps the error bounded,
            # cap = 2 * target mean keeps the mean on target
            e = min(spec.eps_f, 2 * spec.target_mean) * rng.random()
        else:
            e = sample_one_sided_subexp(spec.nu, spec.b, spec.target_mean, rng)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return phi + sign * e, phi


class SyntheticFirstOracle:
    """Gradient estimate satisfying the accuracy event with probability
    1 - delta; with probability delta the estimate is corrupted by an
    arbitrarily large perturbation."""

    def __init__(self, problem: ProblemInstance, spec: FirstOracleSpec):
        self.problem = problem
        self.spec = spec

    def __call__(self, x, alpha, rng) -> tuple[np.ndarray, np.ndarray]:
        grad = self.problem.gradient(x)
        gnorm = float(np.linalg.norm(grad))
        spec = self.spec
        fail = rng.random() < spec.delta
        u = rng.standard_normal(self.problem.dim)
        un = float(np.linalg.norm(u))
        u = u / un if un > 0 else np.eye(self.problem.dim)[0]
        if fail:
            rho = spec.corruption_base + spec.corruption_scale * gnorm
        else:
            ka = spec.kappa * alpha
            # rho <= kappa*alpha*||grad||/(1+kappa*alpha) guarantees the
            # relative branch of the accuracy event via the triangle inequality
            rho = rng.random() * max(spec.eps_g, ka * gnorm / (1.0 + ka))
        return grad + rho * u, grad


# ---------------------------------------------------------------------------
# Mini-batch oracles


def minibatch_value(dataset: ErmDataset, x, batch) -> float:
    """Mean per-sample loss over the given index list."""
    batch = np.asarray(batch)
    if batch.size == 0:
        raise ValueError("batch must be nonempty")
    return _mean_ascending(dataset.losses(x, batch))


def minibatch_gradient(dataset: ErmDataset, x, batch) -> np.ndarray:
    batch = np.asarray(batch)
    if batch.size == 0:
        raise ValueError("batch must be nonempty")
    grads = dataset.loss_grads(x, batch)
    return np.add.reduce(grads, axis=0) / batch.size


class MiniBatchZerothOracle:
    def __init__(self, problem: ProblemInstance, dataset: ErmDataset, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.problem = problem
        self.dataset = dataset
        self.batch_size = batch_size

    def __call__(self, x, rng) -> tuple[float, float]:
        batch = rng.integers(0, self.dataset.n_samples, size=self.batch_size)
        return minibatch_value(self.dataset, x, batch), self.problem.value(x)


class MiniBatchFirstOracle:
    def __init__(self, problem: ProblemInstance, dataset: ErmDataset, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.problem = problem
        self.dataset = dataset
        self.batch_size = batch_size

    def __call__(self, x, alpha, rng) -> tuple[np.ndarray, np.ndarray]:
        batch = rng.integers(0, self.dataset.n_samples, size=self.batch_size)
        return minibatch_gradient(self.dataset, x, batch), self.problem.gradient(x)


def prop1_subexp_params(nu_hat: float, b_hat: float, eps_hat: float, N: int) -> tuple[float, float, float]:
    """Zeroth-order oracle constants of a size-N mini-batch mean, from the
    per-sample sub-exponential parameters (nu_hat, b_hat) and the
    per-sample standard-deviation bound eps_hat.

    Returns (eps_f, nu, b) with eps_f = eps_hat / sqrt(N) and
    nu = b = 8 e^2 max{nu_hat / sqrt(N), b_hat}.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    eps_f = eps_hat / math.sqrt(N)
    m = 8 * math.e ** 2 * max(nu_hat / math.sqrt(N), b_hat)
    return eps_f, m, m


def prop2_sample_size(M_c: float, M_v: float, delta: float, eps_g: float,
                      kappa: float, alpha: float, grad_norm: float | None = None) -> int:
    """Mini-batch size making the batch-mean gradient a compliant
    first-order oracle.

    Default form: ceil(max{2 M_c / (delta eps_g^2),
    2 M_v (1+kappa alpha)^2 / (delta kappa^2 alpha^2)}).  Passing
    `grad_norm` switches to the tighter gradient-norm-dependent bound.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if M_c > 0 and eps_g == 0 and grad_norm is None:
        raise OracleParameterError("eps_g = 0 with M_c > 0 makes the bound infinite")
    ka = kappa * alpha
    if M_v > 0 and ka == 0 and grad_norm is None:
        raise OracleParameterError("kappa * alpha = 0 with M_v > 0 makes the bound infinite")
    if grad_norm is not None:
        num = M_c + M_v * grad_norm ** 2
        terms = []
        if eps_g > 0:
            terms.append(1.0 / eps_g ** 2)
        if ka > 0 and grad_norm > 0:
            terms.append((1 + ka) ** 2 / (ka ** 2 * grad_norm ** 2))
        if not terms:
            raise OracleParameterError("no finite regime for the tighter bound")
        return max(1, math.ceil(num / delta * min(terms)))
    term_c = 2 * M_c / (delta * eps_g ** 2) if M_c > 0 else 0.0
    term_v = 2 * M_v * (1 + ka) ** 2 / (delta * ka ** 2) if M_v > 0 else 0.0
    return max(1, math.ceil(max(term_c, term_v)))


# ---------------------------------------------------------------------------
# Randomized finite-difference (Gaussian smoothing) gradients


def gsg_gradient(zeroth_oracle, x, sigma: float, num_directions: int, rng) -> np.ndarray:
    """Gaussian-smoothing gradient estimate
    sum_i [f(x + sigma u_i) - f(x)] u_i / (sigma |U|), u_i ~ N(0, I).

    The base-point value f(x) is sampled once and reused across all
    directions within the query.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if num_directions < 1:
        raise ValueError("num_directions must be >= 1")
    x = np.asarray(x, dtype=float)
    f0, _ = zeroth_oracle(x, rng)
    g = np.zeros_like(x)
    for _ in range(num_directions):
        u = rng.standard_normal(x.size)
        f_pert, _ = zeroth_oracle(x + sigma * u, rng)
        g += (f_pert - f0) * u
    return g / (sigma * num_directions)


class GsgFirstOracle:
    """First-order oracle backed by Gaussian-smoothing finite differences."""

    def __init__(self, problem: ProblemInstance, zeroth_oracle,
                 sigma: float, num_directions: int):
        self.problem = problem
        self.zeroth_oracle = zeroth_oracle
        self.sigma = sigma
        self.num_directions = num_directions

    def __call__(self, x, alpha, rng) -> tuple[np.ndarray, np.ndarray]:
        g = gsg_gradient(self.zeroth_oracle, x, self.sigma, self.num_directions, rng)
        return g, self.problem.gradient(x)


@dataclass(frozen=True)
class GsgParams:
    eps_g: float
    num_directions: int
    sigma_star: float
    relative_regime_available: bool


def prop3_params(n: int, L: float, sigma: float, eps_f: float, delta: float,
                 kappa: float, alpha: float, grad_norm: float) -> GsgParams:
    """Accuracy constant and direction count for the Gaussian-smoothing
    gradient estimator with bounded function noise.

    eps_g = 2 (sqrt(n) L sigma + sqrt(n) eps_f / sigma); the direction count
    takes the better of the absolute (eps_g) regime and the relative
    (kappa alpha ||g||) regime, the latter only when
    (kappa alpha / (1 + kappa alpha)) ||grad|| > eps_g / 2.  The
    bias-minimizing sampling radius sqrt(eps_f / L) is also returned.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    rn = math.sqrt(n)
    eps_g = 2 * (rn * L * sigma + rn * eps_f / sigma)
    numerator = (0.75 * L ** 2 * sigma ** 2 * n * (n + 2) * (n + 4)
                 + 12 * eps_f ** 2 * n / sigma ** 2
                 + 18 * n * grad_norm ** 2) / delta
    regimes = []
    if eps_g > 0:
        regimes.append(4.0 / eps_g ** 2)
    ka = kappa * alpha
    rel_gap = ka / (1 + ka) * grad_norm - eps_g / 2 if ka > 0 else -1.0
    relative_available = rel_gap > 0
    if relative_available:
        regimes.append(1.0 / rel_gap ** 2)
    if not regimes:
        raise OracleParameterError("no finite regime for the direction count")
    N = max(1, math.ceil(numerator * min(regimes)))
    sigma_star = math.sqrt(eps_f / L) if eps_f > 0 else 0.0
    return GsgParams(eps_g=eps_g, num_directions=N, sigma_star=sigma_star,
                     relative_regime_available=relative_available)
