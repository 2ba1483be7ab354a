"""Adaptive line search driven by inexact oracles, run in lockstep.

Each iteration queries the first-order oracle at the current step size,
attempts the step x - alpha g, queries the zeroth-order oracle at both
endpoints, accepts or rejects via the relaxed (additive 2 eps_f slack)
Armijo test, and moves the step size one point along the grid
alpha0 * gamma^i, which this module owns: the loop's state is the integer
exponent i, lowered on success (not past the cap's exponent) and raised on
failure, and the path classifier compares exponents.  The loop runs a
fixed budget; stopping times are computed offline from the recorded path.

`run_lockstep` advances a block of n trials together: the state is an
(n, dim) array of points and an integer exponent per trial, every query is
one stacked call with one row per trial, and accept/reject and the step
update are elementwise.  Each purpose is one `rng.KeyedStream` with a key
per trial, and every query takes one query of each key, so row r of a
query draws what trial r alone draws at that iteration; every non-random
operation keeps each row's bits independent of the others, so a trial's
path does not depend on the block it runs in.  `aloe_run` is the same
engine with n = 1.

Ground truth is the engine's; oracles return estimates only.  The engine
evaluates phi and grad phi once per point: both at x_0, once for the
block, and phi(x_k+) as one stacked call per iteration.  x_{k+1} is x_k+
or x_k, so phi(x_{k+1}) is known from iteration k, and grad phi(x_{k+1})
too after a rejected step; one stacked gradient call covers the rows that
moved, at the top of each iteration and once after the last.  Each query
is handed the exact values at its points that the engine knows, and the
columns hold phi and ||grad phi|| at every x_k, x_T included.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .problems import ProblemInstance, check_settings, row_dots


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
        check_settings(
            (self.eps_f_input < 0, "eps_f_input must be nonnegative"),
            (not 0 < self.alpha0 < self.alpha_max, "need 0 < alpha0 < alpha_max"),
            (not 0 < self.theta < 1, "theta must lie in (0, 1)"),
            (not 0 < self.gamma < 1, "gamma must lie in (0, 1)"),
            (self.max_iters < 1, "max_iters must be >= 1"))


@dataclass(frozen=True)
class Paths:
    """Per-iteration columns of a block of n trials run for T iterations,
    row r for trial seeds[r]: what the path classifier reads.  Points and
    gradients are not kept."""

    seeds: tuple
    exponents: np.ndarray   # (n, T + 1) i_0..i_T; alpha_k = alpha0 * gamma ** i_k
    alpha: np.ndarray       # (n, T)
    success: np.ndarray     # (n, T)
    e_sum: np.ndarray       # (n, T) |f_curr - phi(x_k)| + |f_plus - phi(x_k+)|
    eps_f: np.ndarray       # (n, T) slack used
    g_norm: np.ndarray      # (n, T) ||g_k||
    grad_error: np.ndarray  # (n, T) ||g_k - grad phi(x_k)||
    phi: np.ndarray         # (n, T + 1) phi(x_0)..phi(x_T)
    grad_norm: np.ndarray   # (n, T + 1) ||grad phi(x_0)||..||grad phi(x_T)||

    def row(self, r: int) -> "Paths":
        """Trial seeds[r] alone, as a block of one."""
        return Paths(seeds=(self.seeds[r],), **{
            name: getattr(self, name)[r:r + 1].copy()
            for name in self.__dataclass_fields__ if name != "seeds"})


@dataclass(frozen=True)
class Trace:
    """One trial: `paths` is the trial as a one-row block, and the columns
    below, one row per iteration k, are what only a traced row keeps."""

    seed: int
    params: AloeParams
    paths: Paths
    x: np.ndarray           # (T, dim) x_k
    g: np.ndarray           # (T, dim) oracle gradient at x_k
    grad_true: np.ndarray   # (T, dim) grad phi(x_k)
    f_curr: np.ndarray      # (T,) zeroth-order estimate at x_k
    f_plus: np.ndarray      # (T,) zeroth-order estimate at x_k+
    e_curr: np.ndarray      # (T,) |f_curr - phi(x_k)|
    e_plus: np.ndarray      # (T,) |f_plus - phi(x_k+)|
    phi_plus: np.ndarray    # (T,) phi(x_k+)

    def __len__(self):
        return len(self.f_curr)


def armijo_check(f_plus, f_curr, alpha, theta: float, g_norm_sq, eps_f_input):
    """Relaxed sufficient-decrease test; ties accepted.  Elementwise on
    arrays."""
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


def step_update(i, success, i_cap: int):
    """Next step exponent: one grid step up on success, never past the
    cap's exponent, one step down on failure.  Elementwise on arrays."""
    return np.where(success, np.maximum(i - 1, i_cap), i + 1)


def aloe_run(problem: ProblemInstance, zeroth_oracle, first_oracle,
             params: AloeParams, seed: int, eps_f_controller=None) -> Trace:
    """Run one trial for `params.max_iters` iterations: `run_lockstep`
    with a block of one, returning its trace."""
    return run_lockstep(problem, zeroth_oracle, first_oracle, params, [seed],
                        eps_f_controller, trace_row=0)[1]


def run_lockstep(problem: ProblemInstance, zeroth_oracle, first_oracle,
                 params: AloeParams, seeds, eps_f_controller=None,
                 trace_row: int | None = None) -> tuple[Paths, Trace | None]:
    """Run one trial per seed for `params.max_iters` iterations, all in
    lockstep.  Returns the block's `Paths` and, when `trace_row` is given,
    the full `Trace` of that row's trial (only that row keeps its points
    and gradients).

    `eps_f_controller`, when given, is called as
    ``controller(k, X, stream, phi)`` before each iteration, with the
    (n, dim) incumbents, the block's EPS_EST `rng.KeyedStream` and the
    exact values at X, and returns the slack (one per row, or one for all)
    to use from that iteration on; otherwise `params.eps_f_input` is used
    throughout.

    Raises `TrialDivergedError`, naming the trial, as soon as any row's
    oracle output is non-finite.
    """
    seeds = tuple(int(s) for s in seeds)
    n, T = len(seeds), params.max_iters
    grad_rng, curr_rng, plus_rng, est_rng = (
        rngmod.KeyedStream(seeds, purpose) for purpose in
        (rngmod.GRAD, rngmod.F_CURR, rngmod.F_PLUS, rngmod.EPS_EST))
    i_cap = snap_to_step_grid(params.alpha_max, params.alpha0, params.gamma)[1]
    # every reachable step, by the one-point arithmetic: i starts at 0 and
    # moves by one per iteration, so max(i_cap, -T) <= i <= T
    i_low = max(i_cap, -T)
    step_of = np.array([params.alpha0 * params.gamma ** i
                        for i in range(i_low, T + 1)])

    x0 = np.asarray(problem.x0, dtype=float)
    X = np.tile(x0, (n, 1))
    phi = np.full(n, problem.value(x0))
    grad = np.tile(problem.gradient(x0), (n, 1))
    i = np.zeros(n, dtype=int)
    moved = np.zeros(n, dtype=bool)
    eps_f = np.full(n, float(params.eps_f_input))

    names = ("exponents", "alpha", "success", "e_sum", "eps_f", "g_sq",
             "error_sq", "phi", "grad_sq")
    # one column per iteration; exponents, phi and grad_sq also hold the
    # state after the last iteration.  Norms are kept squared until then.
    cols = {name: np.empty((n, T + 1), dtype=int if name == "exponents"
                           else bool if name == "success" else float)
            for name in names}
    # the traced row's `Trace` columns; the first three are (T, dim)
    traced = ("x", "g", "grad_true", "f_curr", "f_plus", "e_curr", "e_plus",
              "phi_plus")
    kept = {} if trace_row is None else {
        name: np.empty((T, X.shape[1]) if name in traced[:3] else T)
        for name in traced}
    for k in range(T):
        if moved.any():
            grad[moved] = problem.gradients(X[moved])
        alpha = step_of[i - i_low]
        if eps_f_controller is not None:
            eps_f = eps_f_controller(k, X, est_rng, phi)
        g = np.asarray(first_oracle(X, alpha, grad_rng, grad=grad, phi=phi),
                       dtype=float)
        x_plus = X - alpha[:, None] * g
        f_curr = zeroth_oracle(X, curr_rng, phi=phi)
        phi_plus = problem.values(x_plus)
        f_plus = zeroth_oracle(x_plus, plus_rng, phi=phi_plus)
        V = np.concatenate((g, g - grad, grad))
        g_sq, error_sq, grad_sq = row_dots(V, V).reshape(3, n)
        # a non-finite g makes g_sq non-finite; an overflowing sum alone
        # falls through to the exact test
        if not np.isfinite(f_curr + f_plus + g_sq).all():
            finite = np.isfinite(f_curr) & np.isfinite(f_plus) & np.isfinite(g).all(axis=1)
            if not finite.all():
                raise TrialDivergedError(
                    f"non-finite oracle output at iteration {k} "
                    f"(seed {seeds[int(np.argmin(finite))]})")
        success = armijo_check(f_plus, f_curr, alpha, params.theta, g_sq, eps_f)
        e_curr, e_plus = np.abs(f_curr - phi), np.abs(f_plus - phi_plus)
        for name, value in zip(names, (i, alpha, success, e_curr + e_plus, eps_f,
                                       g_sq, error_sq, phi, grad_sq)):
            cols[name][:, k] = value
        if trace_row is not None:
            for name, value in zip(traced, (X, g, grad, f_curr, f_plus, e_curr,
                                            e_plus, phi_plus)):
                kept[name][k] = value[trace_row]
        X = np.where(success[:, None], x_plus, X)
        phi = np.where(success, phi_plus, phi)
        i = step_update(i, success, i_cap)
        moved = success
    if moved.any():
        grad[moved] = problem.gradients(X[moved])
    cols["exponents"][:, T], cols["phi"][:, T] = i, phi
    cols["grad_sq"][:, T] = row_dots(grad, grad)
    f = {name: c if name in ("exponents", "phi", "grad_sq") else c[:, :T]
         for name, c in cols.items()}
    for name in ("g_sq", "error_sq", "grad_sq"):
        np.sqrt(f[name], out=f[name])
    paths = Paths(seeds=seeds, exponents=f["exponents"], alpha=f["alpha"],
                  success=f["success"], e_sum=f["e_sum"], eps_f=f["eps_f"],
                  g_norm=f["g_sq"], grad_error=f["error_sq"], phi=f["phi"],
                  grad_norm=f["grad_sq"])
    if trace_row is None:
        return paths, None
    return paths, Trace(seed=seeds[trace_row], params=params,
                        paths=paths.row(trace_row), **kept)
