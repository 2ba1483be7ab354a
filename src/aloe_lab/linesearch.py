"""Adaptive line search driven by inexact oracles, run in lockstep.

Each iteration queries the first-order oracle at the current step size,
attempts the step x - alpha g, queries the zeroth-order oracle at both
endpoints, accepts or rejects via the relaxed (additive 2 eps_f slack)
Armijo test, and moves the step size one point along the grid
alpha0 * gamma^i, which this module owns: the exponent i is lowered on
success (not past the cap's exponent) and raised on failure, and the path
classifier compares exponents.  The loop's state is a step index into
tables of the run's reachable steps (`_StepGrid`): one take gives alpha,
one gives alpha * theta for the Armijo test and one the index after a
success, with the bits and the rules of `armijo_check` and `step_update`.
A trial's one record is its row of `Paths`.  A trial runs the whole
budget, or, given the stopping criterion, until it leaves its block
(below), at or after its stopping time: everything the lab reports of a
trial is a function of its path up to its stopping time, and the
classifier reads no cell past it.

`run_lockstep` advances a block of n trials together: the state is an
(n, dim) array of points and an integer exponent per trial, every query is
one stacked call with one row per trial, and accept/reject and the step
update are elementwise.  Each purpose is one `rng.KeyedStream` with a key
per trial, and every query takes one query of each key, so row r of a
query draws what trial r alone draws at that iteration; every non-random
operation keeps each row's bits independent of the others, so a trial's
path does not depend on the block it runs in.  `aloe_run` is the same
engine with n = 1.

Ground truth is the engine's; oracles return estimates only, and each
declares the exact values it reads (`oracles.oracle_reads`), as the
stopping criterion does.  The engine evaluates phi and grad phi once per
point: both at x_0, once for the block, phi at each x_k+ and grad phi at
each accepted one.  It keeps a chunk of iterations in slots, as many as
`CHUNK_CELLS` allows (the chunk's capacity): slot 0 holds the chunk's
first point, slot j + 1 the x_k+ of its iteration j, with phi there and
grad phi where the step was accepted.  x_{k+1} is x_k+ or x_k, so one
integer per row, the slot of x_k, moves to j + 1 on success and stays on
failure, and x_k and the values at x_k are gathered through it, never
recomputed.  What an oracle or the criterion reads is evaluated in the
loop, one stacked call per iteration; the rest waits for the end of the
chunk, one stacked call for phi at its x_k+ rows and one for grad phi at
its accepted rows.  Then one pass makes the chunk's columns through the
same index, phi and ||grad phi|| at every x_k, the chunk's last state
included; the rows, and so the columns' bits, do not depend on where the
values were evaluated.  The same pass makes the columns that follow from
the state: alpha and the exponents from the step indices, and the slack
when it is a constant (no controller).  The block's `Paths` are built from
its chunks' columns once it has ended, as wide as the iterations it ran,
so a block that stops early allocates nothing for the rest of its budget.

The stopping criterion, when given, is checked at x_0 and after every
iteration, on the values at x_{k+1} gathered through the slot index as the
pass gathers them, so a row stops at its stopping time T_eps as the
columns record it.  The one chunk rule: a chunk spans its capacity (or
what is left of the budget), or ends at the iteration where every row in
the block has stopped, whichever comes first.  Then every row that has
stopped leaves the block: its keys leave the streams
(`rng.KeyedStream.keep`), its state the slack controller, and the next
chunk holds the live rows only, its capacity set by their number.  The
exit rule follows: a row that stops at T_eps leaves at the first chunk
end at or after it, or at the last T_eps among the rows of its block,
whichever is first, so before T_eps plus the capacity of the chunk it
leaves from, and a block runs no further than its last row's T_eps.  A
block whose rows all stop at x_0 runs no iteration.  Without a criterion
no row stops, so every row runs the budget.  The rows that stay draw the
same words and keep the same bits, so a row's cells up to where it left
are the full-budget run's.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .oracles import EXACT_VALUES, oracle_reads
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
    """Per-iteration columns of a block of n trials that ran E iterations,
    row r for trial seeds[r]: a trial's one record, which the path
    classifier reads and trace.csv writes.  Points and gradients are not
    kept.  E is the budget T without a stopping criterion or when a row
    never meets it, else the block's last stopping time T_eps (see
    `run_lockstep`), so no row's T_eps lies past E.  The columns are born
    holding NaN, False in `success` and UNREACHED in `exponents`, so a row
    that left its block at x_e, e < E, holds those values past it."""

    seeds: tuple
    exponents: np.ndarray   # (n, E + 1) i_0..i_E; alpha_k = alpha0 * gamma ** i_k
    alpha: np.ndarray       # (n, E)
    success: np.ndarray     # (n, E)
    f_curr: np.ndarray      # (n, E) zeroth-order estimate at x_k
    f_plus: np.ndarray      # (n, E) zeroth-order estimate at x_k+
    e_curr: np.ndarray      # (n, E) |f_curr - phi(x_k)|
    e_plus: np.ndarray      # (n, E) |f_plus - phi(x_k+)|
    eps_f: np.ndarray       # (n, E) slack used
    g_norm: np.ndarray      # (n, E) ||g_k||
    grad_error: np.ndarray  # (n, E) ||g_k - grad phi(x_k)||
    phi: np.ndarray         # (n, E + 1) phi(x_0)..phi(x_E)
    grad_norm: np.ndarray   # (n, E + 1) ||grad phi(x_0)||..||grad phi(x_E)||

    def row(self, r: int, t: int) -> "Paths":
        """Trial seeds[r] up to x_t, its first t iterations, as a block of
        one."""
        return Paths(seeds=(self.seeds[r],), **{
            name: getattr(self, name)[r:r + 1, :t + (name in _WIDE)].copy()
            for name in self.__dataclass_fields__ if name != "seeds"})


# The `Paths` columns that also hold the state after the last iteration,
# and the values every column is born holding, which a row keeps past the
# point where it left its block: NaN, but False in `success` and UNREACHED
# in `exponents`.  The value's type is the column's dtype.
_WIDE = ("exponents", "phi", "grad_norm")
UNREACHED = np.iinfo(np.int64).min
_PAST = {"exponents": UNREACHED, "success": False}


def armijo_check(f_plus, f_curr, alpha, theta: float, g_norm_sq, eps_f_input):
    """Relaxed sufficient-decrease test; ties accepted.  Elementwise on
    arrays."""
    return _decrease_test(f_plus, f_curr, alpha * theta, g_norm_sq, eps_f_input)


def _decrease_test(f_plus, f_curr, alpha_theta, g_norm_sq, eps_f_input):
    """`armijo_check` given alpha * theta, as `_StepGrid` tabulates it."""
    return f_plus <= f_curr - alpha_theta * g_norm_sq + 2 * eps_f_input


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


class _StepGrid:
    """The steps a run of `params` can take, as tables over the step index
    s = i - i_low of the exponent i: alpha (Python's ``**``, one grid point
    at a time), alpha * theta, and the successor index on success
    (`step_update`); on failure it is s + 1.  i starts at 0 and moves by
    one per iteration, so max(i_cap, -T) = i_low <= i <= T.  (The successor
    of s = 0 is only read when i_low = i_cap, as i = -T is reached at x_T
    alone.)"""

    def __init__(self, params: AloeParams):
        T = params.max_iters
        i_cap = snap_to_step_grid(params.alpha_max, params.alpha0, params.gamma)[1]
        self.i_low = max(i_cap, -T)
        self.alpha = np.array([params.alpha0 * params.gamma ** i
                               for i in range(self.i_low, T + 1)])
        self.alpha_theta = self.alpha * params.theta
        self.up = step_update(np.arange(self.i_low, T + 1), True, i_cap) - self.i_low
        for table in (self.alpha, self.alpha_theta, self.up):
            table.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _step_grid(params: AloeParams) -> _StepGrid:
    """`_StepGrid(params)`, built once for all the blocks of a run."""
    return _StepGrid(params)


# Float cells (iterations x rows x dim) of one slot array of a chunk of
# `run_lockstep`'s loop at its capacity; blocks themselves are sized by
# harness.BLOCK_CELLS.  A chunk keeps three such arrays (points, g_k and
# grad phi) and its pass up to three more, 384 KB in all, unless one
# iteration's rows alone exceed an array; a 2-row, 10-dim, 400-iteration
# block fits one chunk's slots.  The `Paths` columns the pass hands back
# take 89 bytes per trial-iteration the chunk ran, and are kept until the
# block ends.
CHUNK_CELLS = 1 << 13


def chunk_length(n: int, dim: int, T: int) -> int:
    """The capacity of a chunk of n rows of dim over T iterations, its
    slots' length: CHUNK_CELLS // (n dim), at least 1 and at most T."""
    return min(max(CHUNK_CELLS // (n * dim), 1), T)


def aloe_run(problem: ProblemInstance, zeroth_oracle, first_oracle,
             params: AloeParams, seed: int, eps_f_controller=None) -> Paths:
    """Run one trial for `params.max_iters` iterations: `run_lockstep`
    with a block of one."""
    return run_lockstep(problem, zeroth_oracle, first_oracle, params, [seed],
                        eps_f_controller)


def run_lockstep(problem: ProblemInstance, zeroth_oracle, first_oracle,
                 params: AloeParams, seeds, eps_f_controller=None,
                 stop=None) -> Paths:
    """Run one trial per seed, all in lockstep, and return the block's
    `Paths`.

    Without `stop`, every trial runs `params.max_iters` iterations.  With
    it, ``stop(phi, grad_norm)`` is the stopping criterion, elementwise on
    arrays of phi(x_k) and ||grad phi(x_k)||, and its `reads` names the
    values it reads as an oracle's does (`oracles.oracle_reads`; both if
    it declares none), the other handed as None.  It is checked at x_0 and
    after every iteration, and a row that has met it leaves the block by
    the exit rule of the module docstring; if x_0 meets it, no iteration
    runs.  The columns span the E iterations the block ran: its last
    T_eps, or the budget when a row never stops or there is no criterion.
    A row that leaves at x_e keeps its columns up to x_e; its later cells
    are NaN, False in `success` and UNREACHED in `exponents`.

    `eps_f_controller`, when given, is called as
    ``controller(k, X, stream, phi)`` before each iteration, with the
    (n, dim) incumbents of the rows in the block, the block's EPS_EST
    `rng.KeyedStream` and the exact values at X, None when no oracle reads
    them, and returns the slack (one per row, or one for all) to use from
    that iteration on; otherwise `params.eps_f_input` is used throughout.
    With `stop`, it must also have ``keep(rows)``, which drops its state of
    every row but those the bool mask `rows` keeps.

    Raises `TrialDivergedError`, naming the trial, as soon as any row's
    oracle output is non-finite.  A row that has left is no longer
    queried, so an output it would have made past its exit does not stop
    the run; where it exits depends on the chunk ends, and so on the
    block.
    """
    seeds = tuple(int(s) for s in seeds)
    n, T, dim = len(seeds), params.max_iters, problem.dim
    streams = rngmod.KeyedStream.purposes(
        seeds, (rngmod.GRAD, rngmod.F_CURR, rngmod.F_PLUS, rngmod.EPS_EST))
    grad_rng, curr_rng, plus_rng, est_rng = streams
    grid = _step_grid(params)
    reads = oracle_reads(zeroth_oracle) | oracle_reads(first_oracle)
    # the values the loop evaluates: those an oracle or the criterion reads
    stop_reads = frozenset() if stop is None else oracle_reads(stop)
    truth = reads | stop_reads
    # the slack: one per chunk iteration with a controller, else a constant
    eps_f = None if eps_f_controller is not None else params.eps_f_input

    # (rows, s, block) of every chunk: the columns `_Chunk.fill` handed back
    # for its iterations s.., to rows `rows` of the block.  Row r of the
    # chunk is row rows[r] of the block.
    filled = []
    rows = np.arange(n)
    x0 = np.asarray(problem.x0, dtype=float)
    ch = _Chunk(chunk_length(n, dim, T), np.broadcast_to(x0, (n, dim)),
                problem.value(x0), problem.gradient(x0), -grid.i_low)
    start = 0
    # done[r]: row r has met the criterion at a point it reached; without
    # one, no row ever has
    done = (np.zeros(n, dtype=bool) if stop is None
            else ch.stopped(stop, stop_reads, 0))
    if done.all():      # at x_0, which every row shares: no iteration
        return _paths(seeds, 0, [(rows, 0, ch.fill(problem, 0, EXACT_VALUES - truth,
                                                   grid, eps_f))])
    for k in range(T):
        j = k - start
        at = ch.at[j]
        X = ch.x_rows.take(at, axis=0)
        phi = ch.phi.take(at) if "phi" in reads else None
        grad = ch.grad_rows.take(at, axis=0) if "grad" in reads else None
        s = ch.steps[j]
        alpha = grid.alpha.take(s)
        if eps_f_controller is not None:
            ch.eps_f[j] = eps_f_controller(k, X, est_rng, phi)
        g = np.asarray(first_oracle(X, alpha, grad_rng, grad=grad, phi=phi),
                       dtype=float)
        ch.g[j] = g
        x_plus = np.subtract(X, alpha[:, None] * g, out=ch.x[j + 1])
        f_curr = ch.f_curr[j] = zeroth_oracle(X, curr_rng, phi=phi)
        phi_plus = None
        if "phi" in truth:
            phi_plus = ch.phi[j + 1] = problem.values(x_plus)
        f_plus = ch.f_plus[j] = zeroth_oracle(
            x_plus, plus_rng, phi=phi_plus if "phi" in reads else None)
        g_sq = ch.g_sq[j] = row_dots(g, g)
        # a non-finite g makes g_sq non-finite; an overflowing sum alone
        # falls through to the exact test
        if not np.isfinite(f_curr + f_plus + g_sq).all():
            finite = np.isfinite(f_curr) & np.isfinite(f_plus) & np.isfinite(g).all(axis=1)
            if not finite.all():
                raise TrialDivergedError(
                    f"non-finite oracle output at iteration {k} "
                    f"(seed {seeds[rows[int(np.argmin(finite))]]})")
        success = ch.success[j] = _decrease_test(
            f_plus, f_curr, grid.alpha_theta.take(s), g_sq,
            ch.eps_f[j] if eps_f is None else eps_f)
        if "grad" in truth:
            hits = np.count_nonzero(success)
            if hits == len(success):    # a row's bits do not depend on the stack
                ch.grad[j + 1] = problem.gradients(x_plus)
            elif hits:
                ch.grad[j + 1][success] = problem.gradients(x_plus[success])
        ch.at[j + 1] = np.where(success, ch.cell[j + 1], at)
        ch.steps[j + 1] = np.where(success, grid.up.take(s), s + 1)
        if stop is not None:
            done |= ch.stopped(stop, stop_reads, j + 1)
        # the chunk rule: its capacity, the budget, or every row stopped
        if j < ch.length - 1 and k < T - 1 and not done.all():
            continue
        filled.append((slice(None) if len(rows) == n else rows, start,
                       ch.fill(problem, j + 1, EXACT_VALUES - truth, grid,
                               eps_f)))
        start = k + 1
        live = ~done
        if not live.all():
            rows = rows[live]
            if not len(rows):
                break
            for stream in streams:
                stream.keep(live)
            if eps_f_controller is not None:
                eps_f_controller.keep(live)
            ch = ch.keep(live, chunk_length(len(rows), dim, T - start))
            done = done[live]
    return _paths(seeds, start, filled)


def _paths(seeds: tuple, E: int, filled) -> Paths:
    """The `Paths` of a block that ran E iterations, from the chunks'
    `filled` columns: each column is born holding its past-exit value, so
    a row writes no cell past where it left, and a chunk's column is
    dropped once written."""
    cols = {}
    for name in tuple(Paths.__dataclass_fields__)[1:]:
        col = cols[name] = np.full((len(seeds), E + (name in _WIDE)),
                                   _PAST.get(name, np.nan))
        for rows, s, block in filled:
            value = block.pop(name)
            col[rows, s:s + len(value)] = value.T
    return Paths(seeds=seeds, **cols)


class _Chunk:
    """A chunk's slots (see the module docstring) and the columns its loop
    writes, for n rows over up to `length` iterations.  Row r of slot j is
    cell[j, r] of the flattened slots, and at[j] holds the cells of x_k,
    k = start + j; at[0] is slot 0 throughout.  The loop writes the step
    index (`_StepGrid`) of each x_k, the oracle outputs, ||g_k||^2, the
    verdicts and, with a controller, the slack; `fill` writes the rest."""

    def __init__(self, length: int, x, phi, grad, s):
        """A chunk that starts at the (n, dim) points x, with the values
        phi, grad and step index s there."""
        n, dim = x.shape
        self.length = length
        self.x, self.grad = np.empty((2, length + 1, n, dim))
        self.g, self.phi = np.empty((length, n, dim)), np.empty((length + 1, n))
        self.x_rows, self.grad_rows = (a.reshape(-1, dim) for a in (self.x, self.grad))
        self.cell = np.arange((length + 1) * n).reshape(length + 1, n)
        self.at = self.cell.copy()
        self.steps = np.empty((length + 1, n), dtype=int)
        self.f_curr, self.f_plus, self.g_sq, self.eps_f = np.empty((4, length, n))
        self.success = np.empty((length, n), dtype=bool)
        self.x[0], self.phi[0], self.grad[0] = x, phi, grad
        self.steps[0] = s

    def stopped(self, stop, reads: frozenset, j: int) -> np.ndarray:
        """``stop`` at each row's x_k, k = start + j, handed the values in
        `reads` (None for the other): gathered through at[j] from the slots
        that `fill` reads, and ||grad phi|| by the same `row_dots`, so that
        the bits are the columns'."""
        at = self.at[j]
        phi = self.phi.take(at) if "phi" in reads else None
        grad_norm = None
        if "grad" in reads:
            G = self.grad_rows.take(at, axis=0)
            grad_norm = np.sqrt(row_dots(G, G))
        return stop(phi, grad_norm)

    def fill(self, problem, c: int, evaluate: frozenset, grid: _StepGrid,
             eps_f) -> dict:
        """Hand back the `Paths` columns of the chunk's first c iterations,
        one (c, n) array per field, and (c + 1, n) of the exponents, phi and
        grad_norm, which also hold the state after them; then move that
        point and its values to slot 0 for the next chunk.

        The values in `evaluate`, which the loop left out, are evaluated
        first into the slots: phi as one stack of the chunk's x_k+ rows,
        grad phi as one stack of its accepted rows.  alpha and the exponents
        come from the step indices through `grid`; `eps_f` is the slack of
        every iteration, or None for the chunk's own column.  `g` is
        overwritten."""
        n, dim = self.phi.shape[1], self.x.shape[-1]
        x_plus = self.x[1:c + 1]
        if "phi" in evaluate and c:
            self.phi[1:c + 1] = problem.values(x_plus.reshape(-1, dim)).reshape(c, n)
        success = self.success[:c]
        if "grad" in evaluate and success.any():
            self.grad[1:c + 1][success] = problem.gradients(x_plus[success])
        phi = self.phi.take(self.at[:c + 1])
        G = self.grad_rows.take(self.at[:c + 1].ravel(), axis=0)
        D = self.g[:c].reshape(-1, dim)
        D -= G[:c * n]
        grad_norm = np.sqrt(row_dots(G, G)).reshape(c + 1, n)
        steps = self.steps[:c + 1]
        # the slots' own rows are copied: the next chunk may reuse them
        f_curr, f_plus = self.f_curr[:c].copy(), self.f_plus[:c].copy()
        block = dict(exponents=steps + grid.i_low, alpha=grid.alpha.take(steps[:c]),
                     success=success.copy(), f_curr=f_curr, f_plus=f_plus,
                     e_curr=np.abs(f_curr - phi[:c]),
                     e_plus=np.abs(f_plus - self.phi[1:c + 1]),
                     eps_f=(self.eps_f[:c].copy() if eps_f is None
                            else np.broadcast_to(eps_f, (c, n))),
                     g_norm=np.sqrt(self.g_sq[:c]),
                     grad_error=np.sqrt(row_dots(D, D)).reshape(c, n),
                     phi=phi, grad_norm=grad_norm)
        self.x[0] = self.x_rows.take(self.at[c], axis=0)
        self.phi[0], self.grad[0] = phi[c], G[c * n:]
        self.steps[0] = self.steps[c]
        return block

    def keep(self, rows, length: int) -> "_Chunk":
        """A chunk of `length` iterations on the rows that the mask `rows`
        keeps, from the points and values in slot 0."""
        return _Chunk(length, self.x[0][rows], self.phi[0][rows],
                      self.grad[0][rows], self.steps[0][rows])
