"""Adaptive line search driven by inexact oracles.

Each iteration queries the first-order oracle at the current step size,
attempts the step x - alpha g, queries the zeroth-order oracle at both
endpoints, accepts or rejects via the relaxed (additive 2 eps_f slack)
Armijo test, and moves the step size one point along the grid
alpha0 * gamma^i, which this module owns: the loop's state is the integer
exponent i, lowered on success (not past the cap's exponent) and raised on
failure, and the path classifier compares exponents.  Each of the three
queries draws from its own per-trial generator (see `rng`), so the
noise of iteration k is a function of the seed and k alone.  The loop runs
a fixed budget; stopping times are computed offline from the recorded
trace.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .problems import ProblemInstance


class TrialDivergedError(RuntimeError):
    """Raised when an oracle returns a non-finite value."""


@dataclass(frozen=True)
class AloeParams:
    """Algorithm inputs.  `eps_f_input` is the slack constant used in the
    acceptance test (an upper bound on the oracle's mean error, not
    necessarily tight).  Step sizes are alpha0 * gamma^i for integer i; the
    largest step the loop takes is the largest such value not above
    `alpha_max`, which need not itself lie on the grid."""

    eps_f_input: float = 0.0
    alpha0: float = 1.0
    alpha_max: float = 10.0
    theta: float = 0.2
    gamma: float = 0.8
    max_iters: int = 1000

    def __post_init__(self):
        if self.eps_f_input < 0:
            raise ValueError("eps_f_input must be nonnegative")
        if not 0 < self.alpha0 < self.alpha_max:
            raise ValueError("need 0 < alpha0 < alpha_max")
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie in (0, 1)")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    x: np.ndarray
    alpha: float
    g: np.ndarray
    f_curr: float
    f_plus: float
    success: bool
    e_curr: float
    e_plus: float
    grad_true: np.ndarray
    grad_true_norm: float
    phi_curr: float
    phi_plus: float
    eps_f: float  # slack actually used at this iteration


@dataclass(frozen=True)
class Trace:
    """The iteration records and the n + 1 step exponents i_0..i_n, where
    record k used alpha0 * gamma ** i_k and i_n follows the last update."""

    records: tuple
    exponents: tuple
    params: AloeParams
    seed: int

    def __len__(self):
        return len(self.records)

    def alphas(self) -> np.ndarray:
        return np.array([r.alpha for r in self.records])

    def successes(self) -> np.ndarray:
        return np.array([r.success for r in self.records], dtype=bool)

    def phi_values(self) -> np.ndarray:
        return np.array([r.phi_curr for r in self.records])


def armijo_check(f_plus: float, f_curr: float, alpha: float, theta: float,
                 g_norm_sq: float, eps_f_input: float) -> bool:
    """Relaxed sufficient-decrease test; ties accepted."""
    return f_plus <= f_curr - alpha * theta * g_norm_sq + 2 * eps_f_input


def snap_to_step_grid(alpha: float, alpha0: float, gamma: float) -> tuple[float, int]:
    """Largest grid step alpha0 * gamma^i (integer i) not exceeding alpha.

    Returns (that step, i).  Used for the loop's cap exponent and for the
    critical step size the path classifier compares against.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    i = math.ceil(math.log(alpha / alpha0) / math.log(gamma) - 1e-12)
    snapped = alpha0 * gamma ** i
    # guard against log round-off at exact grid points
    while snapped > alpha * (1 + 1e-12):
        i += 1
        snapped = alpha0 * gamma ** i
    while alpha0 * gamma ** (i - 1) <= alpha * (1 + 1e-12):
        i -= 1
        snapped = alpha0 * gamma ** i
    return snapped, i


def step_update(i: int, success: bool, i_cap: int) -> int:
    """Next step exponent: one grid step up on success, never past the
    cap's exponent, one step down on failure."""
    return max(i - 1, i_cap) if success else i + 1


def aloe_run(problem: ProblemInstance, zeroth_oracle, first_oracle,
             params: AloeParams, seed: int, eps_f_controller=None) -> Trace:
    """Run the line-search loop for `params.max_iters` iterations.

    `eps_f_controller`, when given, is called as
    ``controller(k, x, streams)`` before each iteration and returns the
    slack constant to use from that iteration on (for per-epoch noise-level
    re-estimation); otherwise `params.eps_f_input` is used throughout.

    The exact values phi(x), phi(x+) and grad phi(x) recorded for the path
    lemmas are the second elements of the oracles' (estimate, exact value)
    pairs, so each is computed once, by the query that needs it.
    """
    streams = rngmod.TrialStreams(seed)
    grad_rng = streams.stream(rngmod.GRAD)
    curr_rng = streams.stream(rngmod.F_CURR)
    plus_rng = streams.stream(rngmod.F_PLUS)
    x = np.asarray(problem.x0, dtype=float)
    i_cap = snap_to_step_grid(params.alpha_max, params.alpha0, params.gamma)[1]
    exponents = [0]
    eps_f = params.eps_f_input
    records = []
    for k in range(params.max_iters):
        alpha = params.alpha0 * params.gamma ** exponents[-1]
        if eps_f_controller is not None:
            eps_f = eps_f_controller(k, x, streams)
        g, grad_true = first_oracle(x, alpha, grad_rng)
        g = np.asarray(g, dtype=float)
        x_plus = x - alpha * g
        f_curr, phi_curr = zeroth_oracle(x, curr_rng)
        f_plus, phi_plus = zeroth_oracle(x_plus, plus_rng)
        if not (np.isfinite(f_curr) and np.isfinite(f_plus) and np.all(np.isfinite(g))):
            raise TrialDivergedError(
                f"non-finite oracle output at iteration {k} (seed {seed})"
            )
        g_norm_sq = float(g @ g)
        success = armijo_check(f_plus, f_curr, alpha, params.theta, g_norm_sq, eps_f)
        records.append(IterationRecord(
            k=k, x=x, alpha=alpha, g=g, f_curr=float(f_curr), f_plus=float(f_plus),
            success=success, e_curr=abs(float(f_curr) - phi_curr),
            e_plus=abs(float(f_plus) - phi_plus), grad_true=grad_true,
            grad_true_norm=math.sqrt(grad_true.dot(grad_true)),
            phi_curr=phi_curr, phi_plus=phi_plus, eps_f=eps_f,
        ))
        if success:
            x = x_plus
        exponents.append(step_update(exponents[-1], success, i_cap))
    return Trace(records=tuple(records), exponents=tuple(exponents),
                 params=params, seed=seed)
