"""Instrumented test objectives with analytically known constants.

All fixtures expose exact value/gradient access for post-hoc instrumentation,
together with the smoothness and convexity constants the theory calculator
needs.  The synthetic empirical-risk fixture also carries its per-sample loss
family so the mini-batch oracles can be built on top of it.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.optimize

CLASS_TAGS = ("nonconvex", "convex", "strongly_convex")


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemInstance:
    """A differentiable objective with ground-truth access.

    `value_fn` / `grad_fn` are exact; `lipschitz_L` bounds the gradient's
    Lipschitz constant, `strong_convexity_beta` is 0 unless the function
    satisfies the PL inequality with that modulus, and `phi_star` is the
    global minimum value.

    `value` and `gradient` are memoized on the bytes of x: phi for the two
    most recently used points, grad phi for the last one.  The line search
    moves to x+ or stays at x, so phi(x_{k+1}) was computed at iteration k
    (and grad phi(x_{k+1}) too after a rejected step), and the noise
    estimator's repeated queries at the incumbent cost one pass.  The memo
    sits above `value_fn` / `grad_fn`, is not compared, and starts empty in
    every copy made by `dataclasses.replace`.  Returned gradients are
    read-only, so a caller cannot corrupt the memo or the fixture.
    """

    dim: int
    value_fn: object
    grad_fn: object
    lipschitz_L: float
    strong_convexity_beta: float
    phi_star: float
    class_tag: str
    x0: np.ndarray
    diameter_D: float | None = None
    _values: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _gradients: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class_tag {self.class_tag!r}")
        if self.lipschitz_L <= 0:
            raise ValueError("lipschitz_L must be positive")

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected shape ({self.dim},), got {x.shape}"
            )
        return x

    def value(self, x) -> float:
        """Exact objective value."""
        x = self._check(x)
        key = x.tobytes()
        memo = self._values
        phi = memo.pop(key, None)
        if phi is None:
            phi = float(self.value_fn(x))
            if len(memo) == 2:
                del memo[next(iter(memo))]
        memo[key] = phi  # a hit moves to the back: least recently used goes first
        return phi

    def gradient(self, x) -> np.ndarray:
        """Exact gradient, as a read-only array."""
        x = self._check(x)
        key = x.tobytes()
        memo = self._gradients
        grad = memo.get(key)
        if grad is None:
            grad = np.asarray(self.grad_fn(x), dtype=float).view()
            grad.flags.writeable = False
            memo.clear()
            memo[key] = grad
        return grad

    def with_class_tag(self, tag: str) -> "ProblemInstance":
        return replace(self, class_tag=tag)


def finite_difference_gradient(problem: ProblemInstance, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, the independent check on grad_fn."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (problem.value(x + e) - problem.value(x - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# Quadratic fixture


def _quad_value(A, x):
    return 0.5 * x @ A @ x


def _quad_grad(A, x):
    return A @ x


def make_strongly_convex_quadratic(
    dim: int,
    lambda_min: float,
    lambda_max: float,
    seed: int,
    x0: np.ndarray | None = None,
    x0_norm: float | None = None,
) -> ProblemInstance:
    """Random quadratic 0.5 x'Ax with spectrum in [lambda_min, lambda_max].

    The minimizer is the origin with value 0, so L = lambda_max and
    beta = lambda_min exactly.  `x0` defaults to a random direction; pass
    `x0_norm` to control the starting distance from the optimum.
    """
    if not (0 < lambda_min <= lambda_max):
        raise ValueError("need 0 < lambda_min <= lambda_max")
    rng = np.random.default_rng(seed)
    if lambda_min == lambda_max:
        A = lambda_max * np.eye(dim)
    else:
        if dim == 1:
            Q = np.ones((1, 1))
        else:
            Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = np.linspace(lambda_min, lambda_max, dim)
        A = Q @ np.diag(eigs) @ Q.T
        A = 0.5 * (A + A.T)  # keep it exactly symmetric
    if x0 is None:
        x0 = rng.standard_normal(dim)
        if x0_norm is not None:
            x0 = x0 / np.linalg.norm(x0) * x0_norm
    x0 = np.asarray(x0, dtype=float)
    return ProblemInstance(
        dim=dim,
        value_fn=partial(_quad_value, A),
        grad_fn=partial(_quad_grad, A),
        lipschitz_L=float(lambda_max),
        strong_convexity_beta=float(lambda_min),
        phi_star=0.0,
        class_tag="strongly_convex",
        x0=x0,
        diameter_D=2.0 * float(np.linalg.norm(x0)),
    )


def _linear_value(c, x):
    return c @ x


def _linear_grad(c, x):
    return np.asarray(c, dtype=float)


def make_linear(c) -> ProblemInstance:
    """Linear objective c'x, used for the unbiasedness checks of the
    finite-difference gradient estimator (a linear function has zero
    curvature, so the difference quotient is exact).  Unbounded below:
    phi_star is a formal -inf stand-in and must not be used for stopping."""
    c = np.array(c, dtype=float)  # a copy: the caller's array stays theirs
    return ProblemInstance(
        dim=c.size,
        value_fn=partial(_linear_value, c),
        grad_fn=partial(_linear_grad, c),
        lipschitz_L=1e-12,
        strong_convexity_beta=0.0,
        phi_star=-np.inf,
        class_tag="nonconvex",
        x0=np.zeros(c.size),
    )


# ---------------------------------------------------------------------------
# Synthetic regularized logistic regression


def _mean_ascending(values: np.ndarray) -> float:
    # Single summation routine shared by the full-batch oracle and value_fn,
    # so "full batch == exact" holds bit-for-bit.
    return float(np.add.reduce(values, axis=0) / len(values))


def _logistic_losses(features, labels, reg, x, idx):
    margins = labels[idx] * (features[idx] @ x)
    # log(1 + exp(-m)) computed stably
    losses = np.logaddexp(0.0, -margins)
    return losses + 0.5 * reg * (x @ x)


def _logistic_grads(features, labels, reg, x, idx):
    margins = labels[idx] * (features[idx] @ x)
    coeff = -labels[idx] * _sigmoid(-margins)
    return coeff[:, None] * features[idx] + reg * x


def _sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    ex = np.exp(t[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# Full-data passes index with slice(None), a view: np.arange(n) would copy
# the features and labels on every call, for the same bits.
def _logistic_value(features, labels, reg, x):
    return _mean_ascending(_logistic_losses(features, labels, reg, x, slice(None)))


def _logistic_grad(features, labels, reg, n, x):
    g = _logistic_grads(features, labels, reg, x, slice(None))
    return np.add.reduce(g, axis=0) / n


@dataclass(frozen=True)
class ErmDataset:
    """Finite dataset whose empirical mean loss is the objective."""

    features: np.ndarray
    labels: np.ndarray
    reg: float
    M_c: float
    M_v: float

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    def loss(self, x, i: int) -> float:
        """Per-sample loss l(x, d_i)."""
        return float(self.losses(x, np.array([i]))[0])

    def loss_grad(self, x, i: int) -> np.ndarray:
        return self.loss_grads(x, np.array([i]))[0]

    def losses(self, x, idx) -> np.ndarray:
        return _logistic_losses(self.features, self.labels, self.reg, np.asarray(x, float), np.asarray(idx))

    def loss_grads(self, x, idx) -> np.ndarray:
        return _logistic_grads(self.features, self.labels, self.reg, np.asarray(x, float), np.asarray(idx))


def estimate_growth_constants(
    problem: ProblemInstance,
    dataset: ErmDataset,
    rng: np.random.Generator,
    n_probes: int = 100,
    radius: float = 3.0,
    safety: float = 1.2,
) -> tuple[float, float]:
    """Estimate (M_c, M_v) for the gradient growth condition.

    Probes a Gaussian ball around x0 and takes the largest observed absolute
    and relative per-sample gradient variance.  The pair returned satisfies
    the condition at every probe point with margin `safety`.  The mean
    gradient is reduced from the per-sample gradients, exactly as the
    full-data gradient is, so no probe makes a second pass over the data.
    """
    n = dataset.n_samples
    idx = np.arange(n)
    max_abs = 0.0
    max_rel = 0.0
    for _ in range(n_probes):
        x = problem.x0 + radius * rng.standard_normal(problem.dim)
        grads = dataset.loss_grads(x, idx)
        mean_grad = np.add.reduce(grads, axis=0) / n
        var = float(np.mean(np.sum((grads - mean_grad) ** 2, axis=1)))
        gn2 = float(mean_grad @ mean_grad)
        max_abs = max(max_abs, var)
        if gn2 > 0:
            max_rel = max(max_rel, var / gn2)
    return safety * max_abs, safety * max_rel


def make_synthetic_logistic(
    n_samples: int,
    dim: int,
    seed: int,
    reg: float = 1e-3,
    feature_scale: float = 1.0,
) -> tuple[ProblemInstance, ErmDataset]:
    """Binary-label logistic regression on synthetic Gaussian features.

    l2-regularized so the objective is strongly convex with
    beta = reg exactly.  The growth constants (M_c, M_v) are estimated on a
    probe grid; the minimum value is found by a deterministic high-accuracy
    inner solve.  `feature_scale` controls the margin dispersion (smaller
    values give a less separable, lower-variance loss landscape).
    """
    if n_samples < 1 or dim < 1:
        raise ValueError("n_samples and dim must be >= 1")
    if feature_scale <= 0:
        raise ValueError("feature_scale must be positive")
    rng = np.random.default_rng(seed)
    features = feature_scale * rng.standard_normal((n_samples, dim))
    w_true = rng.standard_normal(dim)
    probs = _sigmoid(features @ w_true)
    labels = np.where(rng.random(n_samples) < probs, 1.0, -1.0)

    # Hessian <= X'X/(4n) + reg I
    gram_top = float(np.linalg.eigvalsh(features.T @ features).max())
    L = gram_top / (4.0 * n_samples) + reg
    x0 = rng.standard_normal(dim)

    value_fn = partial(_logistic_value, features, labels, reg)
    grad_fn = partial(_logistic_grad, features, labels, reg, n_samples)

    sol = scipy.optimize.minimize(
        value_fn, np.zeros(dim), jac=grad_fn, method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 5000},
    )
    x_star = sol.x
    phi_star = float(value_fn(x_star))

    problem = ProblemInstance(
        dim=dim,
        value_fn=value_fn,
        grad_fn=grad_fn,
        lipschitz_L=L,
        strong_convexity_beta=reg,
        phi_star=phi_star,
        class_tag="strongly_convex",
        x0=x0,
        diameter_D=2.0 * float(np.linalg.norm(x0 - x_star)),
    )
    dataset = ErmDataset(features=features, labels=labels, reg=reg, M_c=0.0, M_v=0.0)
    M_c, M_v = estimate_growth_constants(problem, dataset, np.random.default_rng((seed, 1)))
    dataset = ErmDataset(features=features, labels=labels, reg=reg, M_c=M_c, M_v=M_v)
    return problem, dataset
