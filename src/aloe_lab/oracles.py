"""Probabilistic zeroth- and first-order oracles.

Three families are provided:

* synthetic noise injectors around the exact values (with controllable
  mean error, sub-exponential tail parameters, and gradient failure rate),
* mini-batch oracles over a finite empirical-risk dataset, together with
  the sample-size formulas that make them contract-compliant,
* randomized finite-difference (Gaussian smoothing) gradient estimators
  built from the zeroth-order oracle.

Oracles are callables that take an (m, dim) stack X of points, m queries,
and return the m estimates only: zeroth ``oracle(X, stream, phi=None) -> f``,
(m,), first ``oracle(X, alpha, stream, grad=None, phi=None) -> g``,
(m, dim), with alpha a scalar or one value per row.  One point is a stack
of one.  Any other shape of X raises `DimensionMismatchError`, also when
the exact values are given.  Ground truth is the caller's: `phi` / `grad`
are the exact values at X when the caller knows them.  Only the synthetic
oracles read them, as their noise is laid around the truth, and evaluate
the problem when none are given; a first-order oracle built from
zeroth-order queries hands `phi` on to its query at X.  Each oracle class
declares the exact values it reads as `reads`, a subset of
{"phi", "grad"}, so a caller evaluates only those before a query (see
`oracle_reads`); a value it does not declare never changes its answer.

The noise comes from `stream`, an `rng.KeyedStream`.  Row r of a stack
takes its words as described in `rng`: with one key per trial that is one
query of each trial, with one key it is m consecutive queries of that key;
either way row r answers what the stack of one of that row answers at that
key's query.  Every query of an oracle reads a fixed number of words, set
by the oracle and dim alone, never by x, alpha or the values drawn:

* synthetic zeroth order: 2 (the error, then the sign);
* synthetic first order: 2 + ceil(dim / 2) (the failure coin, the radius
  fraction, then the direction's normals);
* mini-batch: batch_size (the sample indices);
* Gaussian smoothing: one zeroth-order query at x, N queries of
  ceil(dim / 2) words for the directions, then N zeroth-order queries at
  the perturbed points.

The synthetic and mini-batch oracles draw through `KeyedStream.draw`,
naming the row-wise transform that turns a query's words into its noise:
the signed error (synthetic zeroth order), the failure coin, radius
fraction and unit direction (synthetic first order), the sample indices
(mini-batch).  A stream answering one query per key on consecutive calls,
as each of the line search's streams does, then reads the transformed
noise ahead a window at a time (see `rng`); the noise a query reads is the
same either way.

Oracles do not judge their own accuracy; `gradient_accurate` is the one
gradient accuracy test, used by the path classifier, the certification
harness and the demos.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .problems import ErmDataset, ProblemInstance, check_settings, row_dots

ZEROTH_MODES = ("exact", "bounded", "subexponential")
EXACT_VALUES = frozenset({"phi", "grad"})


def oracle_reads(oracle) -> frozenset:
    """The exact values `oracle` reads: its `reads`, or both for a callable
    that declares none (a wrapper may hand them on to anything)."""
    return getattr(oracle, "reads", EXACT_VALUES)


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
        check_settings(
            (self.mode not in ZEROTH_MODES, f"unknown mode {self.mode!r}"),
            (min(self.eps_f, self.nu, self.b) < 0,
             "eps_f, nu, b must be nonnegative"),
            (self.mode == "exact" and (self.eps_f or self.nu or self.b),
             "exact mode requires eps_f = nu = b = 0"),
            (self.mean_error is not None
             and not 0 <= self.mean_error <= self.eps_f,
             "mean_error must lie in [0, eps_f]"))

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
        check_settings(
            (min(self.eps_g, self.kappa) < 0,
             "eps_g and kappa must be nonnegative"),
            (not 0 <= self.delta < 1, "delta must lie in [0, 1)"))


def accurate_from_norms(error_norm, g_norm, alpha, eps_g: float, kappa: float):
    """The first-order accuracy event from ||g - grad|| and ||g||:
    error_norm <= max{eps_g, kappa alpha ||g||}, elementwise; boundary
    equality counts as accurate."""
    return error_norm <= np.maximum(eps_g, kappa * alpha * g_norm)


def gradient_accurate(G, grad, alpha, eps_g: float, kappa: float) -> np.ndarray:
    """The first-order accuracy event ||g - grad|| <= max{eps_g,
    kappa alpha ||g||} of each row of (m, dim) stacks, as an (m,) bool
    array, with alpha a scalar or one value per row."""
    D = G - grad
    return accurate_from_norms(np.sqrt(row_dots(D, D)), np.sqrt(row_dots(G, G)),
                               alpha, eps_g, kappa)


def sample_one_sided_subexp(nu: float, b: float, target_mean: float, u):
    """The nonnegative error at uniform u in [0, 1), elementwise: a law with
    mean `target_mean` whose centered one-sided MGF stays under
    exp(lam^2 nu^2 / 2) for lam in [0, 1/b].

    The law is fixed: a shifted exponential with mean spread
    m = min(nu/2, b/2, target_mean) (an exponential with mean m is
    (2m, 2m)-sub-exponential), taken as -m log(1 - u) and so truncated at
    53 m ln 2 ~ 36.7 m (probability 2**-53), degenerating to a symmetric
    two-point law on u < 1/2 when b = 0 (sub-Gaussian case) and to a point
    mass when nu = b = 0.
    """
    if min(nu, b, target_mean) < 0:
        raise ValueError("nu, b, target_mean must be nonnegative")
    if target_mean == 0 or (nu == 0 and b == 0):
        return target_mean + np.zeros_like(u)
    if b == 0:
        m = min(nu, target_mean)
        return target_mean + m * (2.0 * (u < 0.5) - 1.0)
    m = min(nu / 2, b / 2, target_mean)
    return target_mean - m - m * np.log1p(-u)


class SyntheticZerothOracle:
    """Noise injector around the exact value; |f - phi| follows the
    configured one-sided sub-exponential law, with a fair-coin
    perturbation sign."""

    reads = frozenset({"phi"})

    def __init__(self, problem: ProblemInstance, spec: ZerothOracleSpec):
        self.problem = problem
        self.spec = spec
        # uniform errors on [0, cap] in bounded mode; cap <= eps_f keeps the
        # error bounded, cap = 2 * target mean keeps the mean on target
        self._cap = min(spec.eps_f, 2 * spec.target_mean)
        self._mean = spec.target_mean

    def __call__(self, X, stream, phi=None) -> np.ndarray:
        X = self.problem.check_stack(X)
        if phi is None:
            phi = self.problem.values(X)
        return phi + stream.draw(len(X), 2, self._signed_error)

    def _signed_error(self, words):
        """The signed error of each row of (m, 2) words: (m,)."""
        u = rngmod.uniform(words)
        mode = self.spec.mode
        if mode == "exact":
            e = 0.0
        elif mode == "bounded":
            e = self._cap * u[:, 0]
        else:
            e = sample_one_sided_subexp(self.spec.nu, self.spec.b, self._mean,
                                        u[:, 0])
        return (2.0 * (u[:, 1] < 0.5) - 1.0) * e


class SyntheticFirstOracle:
    """Gradient estimate satisfying the accuracy event with probability
    1 - delta; with probability delta the estimate is corrupted by an
    arbitrarily large perturbation."""

    reads = frozenset({"grad"})

    def __init__(self, problem: ProblemInstance, spec: FirstOracleSpec):
        self.problem = problem
        self.spec = spec

    def __call__(self, X, alpha, stream, grad=None, phi=None) -> np.ndarray:
        X = self.problem.check_stack(X)
        if grad is None:
            grad = self.problem.gradients(X)
        spec = self.spec
        G = np.ascontiguousarray(grad, dtype=float)  # dense rows for row_dots
        m, dim = X.shape
        W = stream.draw(m, 2 + rngmod.normal_words(dim), self._noise)
        coin, frac, U = W[:, 0], W[:, 1], W[:, 2:]
        gnorm = np.sqrt(row_dots(G, G))
        ka = spec.kappa * alpha
        # rho <= kappa*alpha*||grad||/(1+kappa*alpha) guarantees the
        # relative branch of the accuracy event via the triangle inequality
        rho = np.where(coin < spec.delta,
                       spec.corruption_base + spec.corruption_scale * gnorm,
                       frac * np.maximum(spec.eps_g, ka * gnorm / (1.0 + ka)))
        return G + rho[:, None] * U

    def _noise(self, words):
        """(m, 2 + dim) from (m, 2 + ceil(dim / 2)) words: the failure coin,
        the radius fraction, then a unit direction."""
        dim = self.problem.dim
        U = np.ascontiguousarray(rngmod.normals(words[:, 2:], dim))
        un = np.sqrt(row_dots(U, U))
        out = np.empty((len(words), 2 + dim))
        out[:, :2] = rngmod.uniform(words[:, :2])
        if un.all():
            np.divide(U, un[:, None], out=out[:, 2:])
        else:   # a zero draw points along the first axis
            np.divide(U, np.where(un > 0, un, 1.0)[:, None], out=out[:, 2:])
            out[un == 0, 2] = 1.0
        return out


# ---------------------------------------------------------------------------
# Mini-batch oracles


@dataclass(frozen=True)
class MiniBatchSpec:
    """The mini-batch oracles' `oracle_params`, with their defaults."""

    batch_size: int = 128

    def __post_init__(self):
        check_settings((self.batch_size < 1, "batch_size must be >= 1"))


class _MiniBatchOracle:
    """Each query draws its batch indices, then takes the dataset's sample
    mean over that batch alone (`ErmDataset.mean_losses` / `mean_grads`).
    Index i = floor(w * n / 2**32) of the top 32 bits w of a word, so an
    index has probability within n / 2**32 (relative) of 1 / n.  It reads
    no exact value."""

    reads = frozenset()

    def __init__(self, problem: ProblemInstance, dataset: ErmDataset, batch_size: int):
        self.problem = problem
        self.dataset = dataset
        self.batch_size = MiniBatchSpec(batch_size).batch_size

    def _batch_mean(self, mean, X, stream):
        """`mean` of each row of X over a fresh batch."""
        X = self.problem.check_stack(X)
        return mean(X, stream.draw(len(X), self.batch_size, self._indices))

    def _indices(self, words):
        """The sample indices of each row of (m, batch_size) words."""
        return ((words >> np.uint64(32)) * np.uint64(self.dataset.n_samples)
                ) >> np.uint64(32)


class MiniBatchZerothOracle(_MiniBatchOracle):
    def __call__(self, X, stream, phi=None) -> np.ndarray:
        return self._batch_mean(self.dataset.mean_losses, X, stream)


class MiniBatchFirstOracle(_MiniBatchOracle):
    def __call__(self, X, alpha, stream, grad=None, phi=None) -> np.ndarray:
        return self._batch_mean(self.dataset.mean_grads, X, stream)


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


@dataclass(frozen=True)
class GsgSpec:
    """The Gaussian-smoothing oracle's `oracle_params`, with their defaults."""

    sigma: float = 0.1
    num_directions: int = 64

    def __post_init__(self):
        check_settings(
            (not self.sigma > 0, "sigma must be positive"),
            (self.num_directions < 1, "num_directions must be >= 1"))


class GsgFirstOracle:
    """Gaussian-smoothing gradients sum_i [f(x + sigma u_i) - f(x)] u_i /
    (sigma N) over N = `num_directions` normal directions u_i, one per row
    x of a stack.  A query makes two zeroth-order queries: f(X) (handed
    `phi`), then the n N perturbed points as one stack, row r's forming rows
    r*N..r*N+N-1.  A stack over one key takes each of the three queries for
    all rows in turn, so it is not n stacks of one in a row."""

    def __init__(self, problem: ProblemInstance, zeroth_oracle,
                 sigma: float, num_directions: int):
        GsgSpec(sigma, num_directions)  # the spec's checks
        self.problem = problem
        self.zeroth_oracle = zeroth_oracle
        self.sigma = sigma
        self.num_directions = num_directions

    @property
    def reads(self) -> frozenset:
        """What its zeroth-order oracle reads of `phi`, the one exact value
        it hands on."""
        return oracle_reads(self.zeroth_oracle) & {"phi"}

    def __call__(self, X, alpha, stream, grad=None, phi=None) -> np.ndarray:
        X = self.problem.check_stack(X)
        f0 = self.zeroth_oracle(X, stream, phi=phi)
        (n, dim), N = X.shape, self.num_directions
        U = rngmod.normals(stream.words(n * N, rngmod.normal_words(dim)),
                           dim).reshape(n, N, dim)
        f = self.zeroth_oracle((X[:, None, :] + self.sigma * U).reshape(-1, dim),
                               stream)
        diffs = f.reshape(n, N) - f0[:, None]
        return (diffs[:, None, :] @ U)[:, 0, :] / (self.sigma * N)


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
