"""Probabilistic zeroth- and first-order oracles.

Three families are provided:

* synthetic noise injectors around the exact values (with controllable
  mean error, sub-exponential tail parameters, and gradient failure rate),
* mini-batch oracles over a finite empirical-risk dataset, together with
  the sample-size formulas that make them contract-compliant,
* randomized finite-difference (Gaussian smoothing) gradient estimators
  built from the zeroth-order oracle.

Oracles are callables that return the estimate together with the exact
value it estimates: zeroth ``oracle(x, rng, phi=None) -> (f, phi(x))``,
first ``oracle(x, alpha, rng, grad=None) -> (g, grad phi(x))``.  A caller
that already knows the exact value passes it as `phi` / `grad` and the
oracle uses it instead of evaluating the problem again.

A point x of shape (dim,) comes with one generator and gives one answer.
An (m, dim) stack comes with one generator per row and gives m answers:
row r draws from its generator exactly what a one-point query would, so a
stack is m one-point queries answered in one call, whatever m is.  The
line search sends each trial of a block as one row, with that trial's
generator.  The synthetic zeroth-order oracle also takes k < m generators
for a stack of k equal blocks, each block's errors drawn as one block and
then its signs (one generator is one block); the Gaussian-smoothing
gradient queries its N directions that way.

Oracles do not judge their own accuracy; `gradient_accurate` is the one
gradient accuracy test, used by the path classifier, the certification
harness and the demos.
"""

import math
from dataclasses import dataclass

import numpy as np

from .problems import ErmDataset, ProblemInstance, _mean_ascending, row_dots

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


def accurate_from_norms(error_norm, g_norm, alpha, eps_g: float, kappa: float):
    """The first-order accuracy event from ||g - grad|| and ||g||:
    error_norm <= max{eps_g, kappa alpha ||g||}, elementwise; boundary
    equality counts as accurate."""
    return error_norm <= np.maximum(eps_g, kappa * alpha * g_norm)


def gradient_accurate(g, grad, alpha, eps_g: float, kappa: float):
    """The first-order accuracy event ||g - grad|| <= max{eps_g,
    kappa alpha ||g||}.  A point gives a bool; (m, dim) stacks give an (m,)
    bool array, with alpha a scalar or one value per row."""
    G = np.atleast_2d(g)
    D = G - grad
    ok = accurate_from_norms(np.sqrt(row_dots(D, D)), np.sqrt(row_dots(G, G)),
                             alpha, eps_g, kappa)
    return bool(ok[0]) if np.ndim(g) == 1 else ok


def sample_one_sided_subexp(nu: float, b: float, target_mean: float, rng,
                            size=None):
    """Draw a nonnegative error with mean `target_mean` whose centered
    one-sided MGF stays under exp(lam^2 nu^2 / 2) for lam in [0, 1/b].

    The law is fixed: a shifted exponential with mean spread
    m = min(nu/2, b/2, target_mean) (an exponential with mean m is
    (2m, 2m)-sub-exponential), degenerating to a symmetric two-point law
    when b = 0 (sub-Gaussian case) and to a point mass when nu = b = 0.
    `size=None` draws one float; an integer draws that many as an array.
    """
    if min(nu, b, target_mean) < 0:
        raise ValueError("nu, b, target_mean must be nonnegative")
    if target_mean == 0 or (nu == 0 and b == 0):
        return target_mean if size is None else np.full(size, float(target_mean))
    if b == 0:
        m = min(nu, target_mean)
        return target_mean + m * (2 * (rng.random(size) < 0.5) - 1)
    m = min(nu / 2, b / 2, target_mean)
    return target_mean - m + rng.exponential(m, size)


def _generators(rng, m: int) -> list:
    """The generators of an m-row stack: a sequence of them as given, one
    generator as a block of m rows."""
    if isinstance(rng, np.random.Generator):
        return [rng]
    if m % len(rng):
        raise ValueError(f"{len(rng)} generators cannot split {m} rows evenly")
    return rng


class SyntheticZerothOracle:
    """Noise injector around the exact value; |f - phi| follows the
    configured one-sided sub-exponential law, with a fair-coin
    perturbation sign.

    A point gives floats (f, phi).  A stack gives (m,) arrays; each block
    of rows draws its errors as one block, then its signs, so a stack
    takes a number of draws fixed by the block sizes and the mode, never by
    X, and a block of one row draws what a point does.
    """

    def __init__(self, problem: ProblemInstance, spec: ZerothOracleSpec):
        self.problem = problem
        self.spec = spec
        # uniform errors on [0, cap] in bounded mode; cap <= eps_f keeps the
        # error bounded, cap = 2 * target mean keeps the mean on target
        self._cap = min(spec.eps_f, 2 * spec.target_mean)
        self._mean = spec.target_mean

    def _noise(self, rng, size):
        """sign * error for one block (`size=None`: one point)."""
        mode = self.spec.mode
        if mode == "exact":
            e = 0.0
        elif mode == "bounded":
            e = self._cap * rng.random(size)
        else:
            e = sample_one_sided_subexp(self.spec.nu, self.spec.b, self._mean, rng, size)
        sign = 2.0 * (rng.random(size) < 0.5) - 1.0
        return sign * e

    def __call__(self, x, rng, phi=None):
        if np.ndim(x) == 1:
            if phi is None:
                phi = self.problem.value(x)
            return phi + self._noise(rng, None), phi
        if phi is None:
            phi = self.problem.values(x)
        gens = _generators(rng, len(x))
        if len(gens) == len(x):
            noise = np.array([self._noise(g, None) for g in gens])
        else:
            block = len(x) // len(gens)
            noise = np.concatenate([self._noise(g, block) for g in gens])
        return phi + noise, phi


class SyntheticFirstOracle:
    """Gradient estimate satisfying the accuracy event with probability
    1 - delta; with probability delta the estimate is corrupted by an
    arbitrarily large perturbation."""

    def __init__(self, problem: ProblemInstance, spec: FirstOracleSpec):
        self.problem = problem
        self.spec = spec

    def __call__(self, x, alpha, rng, grad=None) -> tuple[np.ndarray, np.ndarray]:
        point = np.ndim(x) == 1
        if grad is None:
            grad = self.problem.gradient(x) if point else self.problem.gradients(x)
        spec = self.spec
        G = np.atleast_2d(grad)
        m, dim = G.shape
        U = np.empty((m, dim))
        fail, frac = [], []
        # row r draws the one-point sequence: failure coin, direction, and
        # the radius fraction only when the draw did not fail
        for gen, u in zip([rng] if point else rng, U):
            failed = gen.random() < spec.delta
            gen.standard_normal(out=u)
            fail.append(failed)
            frac.append(0.0 if failed else gen.random())
        V = np.concatenate((G, U))
        gnorm, un = np.sqrt(row_dots(V, V)).reshape(2, m)
        if un.all():
            U /= un[:, None]
        else:   # a zero draw points along the first axis
            U /= np.where(un > 0, un, 1.0)[:, None]
            U[un == 0, 0] = 1.0
        ka = spec.kappa * np.asarray(alpha)
        # rho <= kappa*alpha*||grad||/(1+kappa*alpha) guarantees the
        # relative branch of the accuracy event via the triangle inequality
        rho = np.where(fail, spec.corruption_base + spec.corruption_scale * gnorm,
                       frac * np.maximum(spec.eps_g, ka * gnorm / (1.0 + ka)))
        g = G + rho[:, None] * U
        return (g[0], grad) if point else (g, grad)


# ---------------------------------------------------------------------------
# Mini-batch oracles


def minibatch_value(dataset: ErmDataset, x, batch):
    """Mean per-sample loss over the given index list.  An (m, dim) stack
    of points with an (m, k) batch, one index row per point, gives the m
    means, each with the bits of its one-point call."""
    batch = np.asarray(batch)
    if batch.size == 0:
        raise ValueError("batch must be nonempty")
    losses = dataset.losses(x, batch)
    if np.ndim(x) == 1:
        return _mean_ascending(losses)
    return np.add.reduce(losses, axis=1) / batch.shape[1]


def minibatch_gradient(dataset: ErmDataset, x, batch) -> np.ndarray:
    """Mean per-sample gradient over the given index list; stacks as in
    `minibatch_value`."""
    batch = np.asarray(batch)
    if batch.size == 0:
        raise ValueError("batch must be nonempty")
    grads = dataset.loss_grads(x, batch)
    return np.add.reduce(grads, axis=-2) / batch.shape[-1]


# Sample rows gathered at once by a stacked mini-batch query (rows of the
# stack times batch size): each holds dim floats.
GATHER_SAMPLES = 1 << 14


class _MiniBatchOracle:
    """A stack needs one generator per row; one generator means one point.
    Each row draws its batch indices, then its mean runs over that batch
    alone, exactly as a one-point query's does; the means of a stack are
    taken GATHER_SAMPLES samples at a time."""

    def __init__(self, problem: ProblemInstance, dataset: ErmDataset, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.problem = problem
        self.dataset = dataset
        self.batch_size = batch_size

    def _means(self, x, rng, mean):
        """`mean` over a fresh batch at the point, or at each row."""
        n, size = self.dataset.n_samples, self.batch_size
        if isinstance(rng, np.random.Generator):
            return mean(self.dataset, x, rng.integers(0, n, size=size))
        if len(rng) != len(x):
            raise ValueError("a mini-batch stack needs one generator per row")
        batches = np.array([gen.integers(0, n, size=size) for gen in rng])
        rows = max(1, GATHER_SAMPLES // size)
        return np.concatenate([mean(self.dataset, x[s:s + rows], batches[s:s + rows])
                               for s in range(0, len(x), rows)])


class MiniBatchZerothOracle(_MiniBatchOracle):
    def __call__(self, x, rng, phi=None):
        if phi is None:
            # one generator means a point: value() rejects a stack
            point = isinstance(rng, np.random.Generator)
            phi = self.problem.value(x) if point else self.problem.values(x)
        return self._means(x, rng, minibatch_value), phi


class MiniBatchFirstOracle(_MiniBatchOracle):
    def __call__(self, x, alpha, rng, grad=None) -> tuple[np.ndarray, np.ndarray]:
        if grad is None:
            point = isinstance(rng, np.random.Generator)
            grad = self.problem.gradient(x) if point else self.problem.gradients(x)
        return self._means(x, rng, minibatch_gradient), grad


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

    Two zeroth-order queries: f(x) once, reused across all directions, then
    the N perturbed points as one (N, dim) stack.  Draw order: the base
    query's draws, the N x dim normals of U, the stacked query's draws.
    An (n, dim) stack of points with one generator per row gives n
    estimates from the same two queries, each row's N perturbed points
    forming one block of the second, so row r draws what the point does.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if num_directions < 1:
        raise ValueError("num_directions must be >= 1")
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    f0, _ = zeroth_oracle(x, rng)
    U = np.stack([g.standard_normal((num_directions, X.shape[1]))
                  for g in ([rng] if x.ndim == 1 else rng)])
    f, _ = zeroth_oracle((X[:, None, :] + sigma * U).reshape(-1, X.shape[1]), rng)
    diffs = f.reshape(len(X), num_directions) - np.reshape(f0, (-1, 1))
    g = (diffs[:, None, :] @ U)[:, 0, :] / (sigma * num_directions)
    return g[0] if x.ndim == 1 else g


class GsgFirstOracle:
    """First-order oracle backed by Gaussian-smoothing finite differences."""

    def __init__(self, problem: ProblemInstance, zeroth_oracle,
                 sigma: float, num_directions: int):
        self.problem = problem
        self.zeroth_oracle = zeroth_oracle
        self.sigma = sigma
        self.num_directions = num_directions

    def __call__(self, x, alpha, rng, grad=None) -> tuple[np.ndarray, np.ndarray]:
        g = gsg_gradient(self.zeroth_oracle, x, self.sigma, self.num_directions, rng)
        if grad is None:
            grad = self.problem.gradient(x) if np.ndim(x) == 1 else self.problem.gradients(x)
        return g, grad


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
