"""Post-hoc classification of line-search iterations.

Given the recorded paths of a block of trials (`linesearch.Paths`), this
module computes the per-iteration flags (true/false, large/small,
successful), the stopping times and the path-lemma verdicts, all as column
operations along the iteration axis and without touching the algorithm
itself.  A single trial is a block of one.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linesearch import Paths
from .oracles import accurate_from_norms
from .problems import CLASS_TAGS, ProblemInstance, check_settings

CENSORED = -1


@dataclass(frozen=True)
class StoppingSpec:
    class_tag: str = "nonconvex"
    eps: float = 1e-6
    eps1: float | None = None  # gradient clause of the convex criterion

    def __post_init__(self):
        check_settings(
            (self.class_tag not in CLASS_TAGS,
             f"unknown class_tag {self.class_tag!r}"),
            (self.eps <= 0, "eps must be positive"),
            (self.class_tag == "convex" and (self.eps1 is None or self.eps1 <= 0),
             "convex stopping requires eps1 > 0"))


def progress_Z(class_tag: str, phi_x: float, phi_star: float, eps: float) -> float:
    """Class-specific progress measure; -inf signals exact optimality under
    the log/reciprocal forms (treated as stopped)."""
    gap = phi_x - phi_star
    if gap < 0:
        raise ValueError("phi_x below phi_star")
    if class_tag == "nonconvex":
        return gap
    if gap == 0:
        return -math.inf
    if class_tag == "strongly_convex":
        return math.log(gap / eps)
    return 1.0 / eps - 1.0 / gap


def stopping_times(paths: Paths, problem: ProblemInstance, spec: StoppingSpec) -> np.ndarray:
    """Per trial, the first iteration index meeting the class criterion,
    CENSORED if the budget runs out first.  The state after the last of
    the E iterations `paths` spans counts as index E: a row that stops
    does so by E, and a block with a row that never stops spans the
    budget.  Only the columns of `paths` and `problem.phi_star` are read:
    the problem is never evaluated."""
    hit = stopping_rule(spec, problem.phi_star)(paths.phi, paths.grad_norm)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), CENSORED)


# The exact values each class's criterion reads, as an oracle declares them
# (`oracles.oracle_reads`): "phi" for phi(x), "grad" for ||grad phi(x)||.
_CRITERION_READS = {"nonconvex": frozenset({"grad"}),
                    "strongly_convex": frozenset({"phi"}),
                    "convex": frozenset({"phi", "grad"})}


def stopping_rule(spec: StoppingSpec, phi_star: float):
    """The class criterion as ``stop(phi, grad_norm)``, elementwise on
    arrays of phi(x) and ||grad phi(x)||: `linesearch.run_lockstep`'s
    `stop`.  Its `reads` names the values it reads, so the engine
    evaluates only those in its loop; it is handed None for the other."""
    rule = partial(_stopped, spec, phi_star)
    rule.reads = _CRITERION_READS[spec.class_tag]
    return rule


def _stopped(spec: StoppingSpec, phi_star: float, phi, gnorm):
    if spec.class_tag == "nonconvex":
        return gnorm <= spec.eps
    gap = phi - phi_star
    if spec.class_tag == "strongly_convex":
        return gap <= spec.eps
    return (gap <= spec.eps) | (gnorm <= spec.eps1)


@dataclass(frozen=True)
class PathVerdicts:
    """Flags and verdicts of a block of trials, one row per trial, over
    the E iterations its `Paths` span.  T_eps == CENSORED means the
    criterion was not met within the budget.  Every field reads only the
    prefix up to T_eps: iterations 0..T_eps-1 and the states
    x_0..x_T_eps, all T iterations of a censored trial."""

    T_eps: np.ndarray
    true_flags: np.ndarray       # (n, E), False from iteration T_eps on
    large_flags: np.ndarray
    frac_true: np.ndarray        # (n,), NaN where T_eps == 0
    frac_success: np.ndarray
    lemma2_ok: np.ndarray
    lemma3_ok: np.ndarray
    lemma4_ok: np.ndarray
    corollary1_ok: np.ndarray


def classify_paths(paths: Paths, problem: ProblemInstance, spec: StoppingSpec,
                   eps_g: float, kappa: float, grid_index: int,
                   d: float) -> PathVerdicts:
    """Classify the iterations of every trial before its stopping time and
    check the deterministic path lemmas on them.

    Iteration k is large when both adjacent steps alpha_k, alpha_{k+1} are
    at least the grid-snapped critical step alpha0 * gamma^grid_index, i.e.
    when the smaller of their exponents is below grid_index; a pair whose
    larger step equals the threshold is small.  It is true when both oracle
    accuracy events hold: the gradient error is within
    max{eps_g, kappa alpha ||g||}, and the two function errors sum to at most
    2 eps_f, the slack of that iteration.  Boundary equalities count as
    true.

    Only iterations k < T_eps count, all T of a censored trial, so no
    verdict reads a cell past the stopping time: `linesearch.run_lockstep`
    may stop a trial anywhere after it.  The flags are False from T_eps on,
    frac_true and frac_success are frequencies over the T_eps counted
    iterations (NaN when T_eps = 0: no iteration precedes the stop), and
    Lemma 2 and Corollary 1 are checked on the prefixes t <= T_eps, Lemmas
    3 and 4 on t < T_eps."""
    n = paths.success.shape[1]
    T = stopping_times(paths, problem, spec)
    counted = np.where(T == CENSORED, n, T)
    before = np.arange(n) < counted[:, None]
    I = (accurate_from_norms(paths.grad_error, paths.g_norm, paths.alpha,
                             eps_g, kappa)
         & (paths.e_curr + paths.e_plus <= 2 * paths.eps_f)
         & before)
    i = paths.exponents
    U = (np.minimum(i[:, :-1], i[:, 1:]) < grid_index) & before
    Th = paths.success & before
    # past the counted prefix no large iteration adds to Lemma 2's or
    # Corollary 1's counts, so checking every t <= E checks t <= T_eps
    strict_horizon = np.where(T == CENSORED, n, np.maximum(counted - 1, 0))
    l2, l3, l4, c1 = verify_path_lemmas(I, Th, U, d, strict_horizon)
    with np.errstate(invalid="ignore"):   # 0 / 0 where T_eps = 0
        frac_true, frac_success = (np.count_nonzero(f, axis=1) / counted
                                   for f in (I, Th))
    return PathVerdicts(T_eps=T, true_flags=I, large_flags=U,
                        frac_true=frac_true, frac_success=frac_success,
                        lemma2_ok=l2, lemma3_ok=l3, lemma4_ok=l4,
                        corollary1_ok=c1)


P_HAT_GRID = np.arange(0.55, 0.96, 0.05)


def verify_path_lemmas(I, Theta, U, d: float, horizon):
    """Deterministic per-path counting facts about the step-size dynamics.

    Checked for every prefix t:
      lemma2:     #large successful >= #large unsuccessful - d   (all t)
      corollary1: #large successful >= (#large - d) / 2          (all t)
      lemma3:     #small true <= #small false                    (t < horizon)
      lemma4:     not (#true >= p_hat t and
                       #large successful true < (p_hat - 1/2) t - d/2),
                  for each p_hat on the grid                     (t < horizon)
    `horizon` is the number of prefixes t for which the stopping time has
    provably not been reached (lemmas 3 and 4 are conditioned on that).

    The flags are (n, T) blocks, one path per row, with one horizon per
    row or one for all; the verdicts are four (n,) arrays, prefix sums
    running along each row.
    """
    U, I, Th = (np.asarray(f, dtype=bool) for f in (U, I, Theta))
    n = I.shape[1]

    def count(flags):   # exact prefix counts, along each row
        return np.cumsum(flags, axis=1, dtype=np.int32)

    cum_us = count(U & Th)      # large successful
    cum_uf = count(U & ~Th)     # large unsuccessful
    cum_u = count(U)
    cum_st = count(~U & I)      # small true
    cum_sf = count(~U & ~I)     # small false
    cum_i = count(I)
    cum_good = count(U & Th & I)

    tol = 1e-9
    lemma2 = np.all(cum_us >= cum_uf - d - tol, axis=1)
    corollary1 = np.all(cum_us >= 0.5 * (cum_u - d) - tol, axis=1)

    t = np.arange(1, n + 1)
    # prefixes t = 1..min(horizon, n), i.e. t - 1 < horizon
    checked = t <= np.reshape(horizon, (-1, 1))
    lemma3 = ~np.any((cum_st > cum_sf + tol) & checked, axis=1)
    p_hat = P_HAT_GRID[:, None]   # every grid point at once: (n, grid, t)
    bad = ((cum_i[:, None] >= p_hat * t - tol)
           & (cum_good[:, None] < (p_hat - 0.5) * t - d / 2 - tol)
           & checked[:, None])
    lemma4 = ~bad.any(axis=(1, 2))
    return lemma2, lemma3, lemma4, corollary1
