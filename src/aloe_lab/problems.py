"""Instrumented test objectives with analytically known constants.

All fixtures expose exact value/gradient access for post-hoc instrumentation,
together with the smoothness and convexity constants the theory calculator
needs.  The synthetic empirical-risk fixture is an `ErmDataset` with one
sample mean: over all samples it is the objective, over a drawn batch the
mini-batch oracles.  Its mean gradients are c'F / k + reg x, one product per
row from the derivatives c of the per-sample losses; the per-sample
gradients are formed only to measure their spread (the growth constants).
Its per-sample loss log(1 + exp(-m)) of a margin m is the softplus
max(-m, 0) + log1p(exp(-|m|)), within 2 ulp of the exact value; like the
sigmoid's, its bits follow numpy's SIMD dispatch of exp and log1p.

Every evaluation takes an (m, dim) stack of points and answers one row per
point; row r of the answer depends on row r of the stack alone, bit for
bit, whatever m is.  A single point is a stack of one: `value(x)` and
`gradient(x)` are views of that.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from . import rng as rngmod

CLASS_TAGS = ("nonconvex", "convex", "strongly_convex")


class DimensionMismatchError(ValueError):
    pass


def check_settings(*checks) -> None:
    """Raise one ValueError listing the reason of every (bad, reason) pair
    whose `bad` holds: the checks of each settings dataclass."""
    failed = [reason for bad, reason in checks if bad]
    if failed:
        raise ValueError("; ".join(failed))


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A with the same row of B.

    The rows go through matmul as a stack of (1, dim) by (dim, 1)
    products, the path `a @ b` of two vectors takes, so row r carries the
    bits of A[r] @ B[r] whatever the stack height.  The stacked fixture
    functions below use the same device for the same reason.
    """
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class ProblemInstance:
    """A differentiable objective with ground-truth access.

    `value_fn` / `grad_fn` map an (m, dim) stack of points to their m exact
    values / (m, dim) gradients in one call, row r bit-identical whatever
    m is.  `lipschitz_L` bounds the gradient's Lipschitz constant,
    `strong_convexity_beta` is 0 unless the function satisfies the PL
    inequality with that modulus, and `phi_star` is the global minimum
    value.

    Nothing is memoized: the line search hands the exact values it already
    knows to the queries that need them (see `linesearch`).
    """

    dim: int
    value_fn: object
    grad_fn: object
    lipschitz_L: float
    strong_convexity_beta: float
    phi_star: float
    x0: np.ndarray
    diameter_D: float | None = None

    def __post_init__(self):
        if self.lipschitz_L <= 0:
            raise ValueError("lipschitz_L must be positive")

    def check_stack(self, X) -> np.ndarray:
        """X as a float (m, dim) stack; any other shape raises
        `DimensionMismatchError`.  Every oracle checks its points here."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected shape (m, {self.dim}), got {X.shape}"
            )
        return X

    def values(self, X) -> np.ndarray:
        """Exact objective values of the rows of an (m, dim) stack."""
        return self.value_fn(self.check_stack(X))

    def gradients(self, X) -> np.ndarray:
        """Exact gradients of the rows of an (m, dim) stack, as (m, dim)."""
        return self.grad_fn(self.check_stack(X))

    def value(self, x) -> float:
        """Exact objective value at one point: a stack of one."""
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def gradient(self, x) -> np.ndarray:
        """Exact gradient at one point, as a read-only array (a fixture may
        return its own data, which a caller must not be able to change)."""
        grad = self.gradients(np.asarray(x, dtype=float)[None])[0]
        grad.flags.writeable = False
        return grad


# ---------------------------------------------------------------------------
# Quadratic fixture


def _quad_value(A, X):
    # per row a (1, dim) @ A product and a dot (see row_dots)
    return (((0.5 * X)[:, None, :] @ A) @ X[:, :, None])[:, 0, 0]


def _quad_grad(A, X):
    return (A @ X[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class QuadraticSpec:
    """The quadratic fixture's `fixture_params`, with their defaults."""

    dim: int = 10
    lambda_min: float = 0.1
    lambda_max: float = 10.0
    seed: int = 0
    x0_norm: float | None = None

    def __post_init__(self):
        check_settings(
            (self.dim < 1, "dim must be >= 1"),
            (not 0 < self.lambda_min <= self.lambda_max, "need 0 < lambda_min <= lambda_max"),
            (self.seed < 0, "seed must be >= 0"),
            (self.x0_norm is not None and not self.x0_norm > 0, "x0_norm must be positive"))


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
    QuadraticSpec(dim, lambda_min, lambda_max, seed, x0_norm)  # the spec's checks
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
        x0=x0,
        diameter_D=2.0 * float(np.linalg.norm(x0)),
    )


# ---------------------------------------------------------------------------
# Synthetic regularized logistic regression


# A stack X of m points takes an (m, k) index array, one row of samples per
# point, a 1-D index shared by all rows, or a slice; row r is one gemv and
# one dot (see row_dots).  A mean holds at most GATHER_SAMPLES samples (rows
# times k) at once: `ErmDataset._chunked` takes its rows in chunks.
GATHER_SAMPLES = 1 << 14


def _gather(features, labels, X, idx):
    """The sample rows F, labels y and margins y f'x of each point.  A slice
    is a view; take copies what fancy indexing would, several times faster."""
    if isinstance(idx, slice):
        F, y = features[idx], labels[idx]
    else:
        F, y = features.take(idx, axis=0), labels.take(idx)
    return F, y, y * (F @ X[:, :, None])[..., 0]


def _logistic_losses(features, labels, reg, X, idx):
    # log(1 + exp(-m)) of the margins m as max(-m, 0) + log1p(exp(-|m|)),
    # the softplus that neither overflows nor cancels (Maechler 2012),
    # within 2 ulp of the exact value.  It runs through numpy's SIMD exp
    # and log1p: 8 ns a sample against 33 for np.logaddexp's scalar libm
    # loop (2-vCPU Xeon, numpy 2.4.6).  In place on the margins, its one
    # temporary is the hinge; the one expression
    # log1p(exp(-abs(m))) - minimum(m, 0) keeps three alive at once and is
    # no faster.  Its bits follow numpy's SIMD dispatch, as _sigmoid's do.
    m = _gather(features, labels, X, idx)[2]
    hinge = np.minimum(m, 0.0)  # -max(-m, 0)
    np.abs(m, out=m)
    np.negative(m, out=m)
    np.exp(m, out=m)
    np.log1p(m, out=m)
    m -= hinge
    m += 0.5 * reg * row_dots(X, X)[:, None]
    return m


def _logistic_coeffs(features, labels, X, idx):
    """The sample rows F of each point and the derivatives
    c = -y sigma(-y f'x) of its per-sample losses along them, (m, k): the
    gradient of sample i's loss at row r is c[r, i] f_i + reg x_r."""
    F, y, m = _gather(features, labels, X, idx)
    # _sigmoid(-m), in place on the margins, times -y
    nonneg = m <= 0   # -m >= 0
    np.abs(m, out=m)
    np.negative(m, out=m)
    np.exp(m, out=m)
    den = m + 1.0
    np.maximum(m, nonneg, out=m)
    m /= den
    m *= np.negative(y, out=den)
    return F, m


def _logistic_grads(F, coeff, reg, X):
    """The per-sample gradients of `_logistic_coeffs`: (m, k, dim)."""
    return coeff[..., None] * F + reg * X[:, None, :]


def _logistic_mean_grads(F, coeff, reg, X):
    # the mean of _logistic_grads, c'F / k + reg x: a (1, k) @ (k, dim) gemv
    # per row (see row_dots), never the per-sample stack
    return (coeff[:, None, :] @ F)[:, 0, :] / coeff.shape[1] + reg * X


def _sigmoid(t):
    # 1 / (1 + exp(-t)) for t >= 0 and exp(t) / (1 + exp(t)) below, with
    # one exponential that never overflows: the numerator max(ex, t >= 0)
    # is 1 or ex, as ex <= 1, and NaN stays NaN.  Branch-free, with the
    # bits of np.where's select of two quotients, it takes 3.1 ns a sample
    # against 14-15 (16 384 samples; in `_logistic_coeffs`' full-data
    # pass, 12 against 37 ns; 2-vCPU Xeon, numpy 2.4.6).
    ex = np.exp(-np.abs(t))
    return np.maximum(ex, t >= 0) / (1.0 + ex)


@dataclass(frozen=True)
class ErmDataset:
    """Finite dataset whose empirical mean loss is the objective: its sample
    means over all samples (the default slice, a view) are the fixture's
    value_fn and grad_fn, and over a drawn batch the mini-batch oracles.

    `growth_probe(dataset)` estimates the growth constants (M_c, M_v); it
    runs on the first read of `M_c` or `M_v`, as a run never reads them."""

    features: np.ndarray
    labels: np.ndarray
    reg: float
    growth_probe: object = field(default=None, compare=False, repr=False)

    @cached_property
    def _growth_constants(self) -> tuple[float, float]:
        return self.growth_probe(self)

    @property
    def M_c(self) -> float:
        return self._growth_constants[0]

    @property
    def M_v(self) -> float:
        return self._growth_constants[1]

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    def losses(self, X, idx) -> np.ndarray:
        """Per-sample losses l(x_r, d_i) of an (m, dim) stack over an
        (m, k) index array, a 1-D index or a slice: (m, k)."""
        return _logistic_losses(self.features, self.labels, self.reg,
                                np.asarray(X, float), idx)

    def loss_grads(self, X, idx) -> np.ndarray:
        """Per-sample gradients, indexed as `losses`: (m, k, dim)."""
        X = np.asarray(X, float)
        return _logistic_grads(*_logistic_coeffs(self.features, self.labels, X,
                                                 idx), self.reg, X)

    def mean_losses(self, X, idx=slice(None)) -> np.ndarray:
        """The mean of `losses` over each row's samples, a pairwise sum
        along each contiguous row: (m,)."""
        def mean(X, idx):
            losses = _logistic_losses(self.features, self.labels, self.reg, X, idx)
            return np.add.reduce(losses, axis=1) / losses.shape[1]
        return self._chunked(mean, X, idx)

    def mean_grads(self, X, idx=slice(None)) -> np.ndarray:
        """The mean of `loss_grads` over each row's samples, c'F / k + reg x
        from the loss derivatives c: (m, dim)."""
        return self._chunked(lambda X, idx: _logistic_mean_grads(
            *_logistic_coeffs(self.features, self.labels, X, idx), self.reg, X),
            X, idx)

    def _chunked(self, mean, X, idx):
        """`mean(X, idx)` of an (m, dim) stack, GATHER_SAMPLES samples at a
        time: an (m, k) index array goes with its rows."""
        X = np.asarray(X, float)
        k = len(self.labels[idx]) if isinstance(idx, slice) else np.shape(idx)[-1]
        if k == 0:
            raise ValueError("batch must be nonempty")
        rows = max(1, GATHER_SAMPLES // k)
        if len(X) <= rows:  # one pass, also for an empty stack
            return mean(X, idx)
        per_row = np.ndim(idx) == 2
        return np.concatenate([mean(X[s:s + rows], idx[s:s + rows] if per_row else idx)
                               for s in range(0, len(X), rows)])


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
    the condition at every probe point with margin `safety`.  The per-sample
    gradients and their mean, bit for bit the full-data gradient, come from
    one set of loss derivatives, so no probe makes a second pass over the
    data, and the pass indexes the data with a slice, so it copies nothing.
    """
    max_abs = 0.0
    max_rel = 0.0
    for _ in range(n_probes):
        x = (problem.x0 + radius * rng.standard_normal(problem.dim))[None]
        F, coeff = _logistic_coeffs(dataset.features, dataset.labels, x, slice(None))
        grads = _logistic_grads(F, coeff, dataset.reg, x)[0]
        mean_grad = _logistic_mean_grads(F, coeff, dataset.reg, x)[0]
        var = float(np.mean(np.sum((grads - mean_grad) ** 2, axis=1)))
        gn2 = float(mean_grad @ mean_grad)
        max_abs = max(max_abs, var)
        if gn2 > 0:
            max_rel = max(max_rel, var / gn2)
    return safety * max_abs, safety * max_rel


def _logistic_minimizer(problem: ProblemInstance, features, reg: float) -> np.ndarray:
    """Minimizer of the logistic objective by Newton's method with
    backtracking (Nocedal & Wright, Numerical Optimization, ch. 3), from
    the origin.  The Hessian X' diag(s (1 - s)) X / n + reg I, s the sigmoids
    of X x, is positive definite as reg > 0, so each step descends.  A step
    is halved until the Armijo test with coefficient 1/4 holds.  The solve
    stops at the first step that no longer lowers phi: phi is then flat to
    rounding, and the full step, the minimizer of the local model, lands
    where the gradient is at its rounding floor.  It takes 3 to 15 steps."""
    x = np.zeros(problem.dim)
    phi = problem.value(x)
    for _ in range(100):
        g = problem.gradient(x)
        s = _sigmoid(features @ x)
        hess = (features.T * (s * (1.0 - s))) @ features / len(features)
        step = -np.linalg.solve(hess + reg * np.eye(problem.dim), g)
        t, slope = 1.0, 0.25 * float(g @ step)
        while (phi_new := problem.value(x + t * step)) > phi + t * slope:
            t /= 2
        if phi_new >= phi:
            return x + step
        x, phi = x + t * step, phi_new
    raise ArithmeticError("Newton solve did not converge in 100 steps")


@dataclass(frozen=True)
class LogisticSpec:
    """The logistic fixture's `fixture_params`, with their defaults."""

    n_samples: int = 512
    dim: int = 10
    seed: int = 0
    reg: float = 1e-3

    def __post_init__(self):
        check_settings(
            (self.n_samples < 1 or self.dim < 1, "n_samples and dim must be >= 1"),
            (self.seed < 0, "seed must be >= 0"),
            (not self.reg > 0, "reg must be positive"))


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
    probe grid when first read (`_probe_growth`); the minimum value is
    found by a Newton solve (`_logistic_minimizer`), and a value above
    phi(x_0) raises `ValueError`.  `feature_scale` controls the margin
    dispersion (smaller values give a less separable, lower-variance loss
    landscape).
    """
    LogisticSpec(n_samples, dim, seed, reg)  # the spec's checks
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

    dataset = ErmDataset(features=features, labels=labels, reg=reg)
    problem = ProblemInstance(
        dim=dim,
        value_fn=dataset.mean_losses,
        grad_fn=dataset.mean_grads,
        lipschitz_L=L,
        strong_convexity_beta=reg,
        phi_star=np.nan,  # set from the solve below
        x0=x0,
    )
    x_star = _logistic_minimizer(problem, features, reg)
    phi_star, phi0 = problem.value(x_star), problem.value(x0)
    if phi_star > phi0:     # the solve failed, so no gap phi(x_0) - phi* holds
        raise ValueError(f"the logistic fixture's phi* = {phi_star!r} lies "
                         f"above phi(x_0) = {phi0!r}")
    problem = replace(problem, phi_star=phi_star,
                      diameter_D=2.0 * float(np.linalg.norm(x0 - x_star)))
    return problem, replace(dataset,
                            growth_probe=partial(_probe_growth, problem, seed))


def _probe_growth(problem: ProblemInstance, seed: int, dataset: ErmDataset):
    """`estimate_growth_constants` on the fixture's own probe stream, a
    fresh generator on every call, so every copy reads the same (M_c, M_v)."""
    return estimate_growth_constants(
        problem, dataset, rngmod.probe_rng(seed, rngmod.GROWTH_PROBES))
