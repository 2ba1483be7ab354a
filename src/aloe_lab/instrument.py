"""Post-hoc classification of line-search iterations.

Given a recorded trace with ground-truth fields, this module computes the
per-iteration flags (true/false, large/small, successful), the progress
measure for each function class, and the stopping time, all without touching
the algorithm itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linesearch import Trace, armijo_check
from .oracles import gradient_accurate
from .problems import CLASS_TAGS, ProblemInstance

CENSORED = -1


@dataclass(frozen=True)
class StoppingSpec:
    class_tag: str
    eps: float
    eps1: float | None = None  # gradient clause of the convex criterion

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class_tag {self.class_tag!r}")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.class_tag == "convex" and (self.eps1 is None or self.eps1 <= 0):
            raise ValueError("convex stopping requires eps1 > 0")


@dataclass(frozen=True)
class PathReport:
    """Per-trial flags and verdicts.  T_eps == CENSORED means the criterion
    was not met within the budget."""

    seed: int
    T_eps: int
    censored: bool
    true_flags: np.ndarray       # I_k
    success_flags: np.ndarray    # Theta_k
    large_flags: np.ndarray      # U_k
    Z_sequence: np.ndarray
    lemma2_ok: bool
    lemma3_ok: bool
    lemma4_ok: bool
    corollary1_ok: bool

    @property
    def frac_true(self) -> float:
        return float(np.mean(self.true_flags))

    @property
    def frac_success(self) -> float:
        return float(np.mean(self.success_flags))

    @property
    def all_lemmas_ok(self) -> bool:
        return self.lemma2_ok and self.lemma3_ok and self.lemma4_ok and self.corollary1_ok


def classify_true(record, eps_g: float, kappa: float, eps_f: float | None = None) -> bool:
    """Both oracle accuracy events hold: the gradient error is within
    max{eps_g, kappa alpha ||g||}, and the two function errors sum to at
    most 2 eps_f.  Boundary equalities count as true."""
    if eps_f is None:
        eps_f = record.eps_f
    return bool(gradient_accurate(record.g, record.grad_true, record.alpha, eps_g, kappa)
                and record.e_curr + record.e_plus <= 2 * eps_f)


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


def stopping_time(trace: Trace, problem: ProblemInstance, spec: StoppingSpec) -> int:
    """First iteration index meeting the class criterion, CENSORED if the
    budget runs out first.  The state reached after the final recorded
    iteration counts as index len(trace)."""
    for k in range(len(trace) + 1):
        phi, gnorm = _state_at(trace, problem, k)
        if _stopped(spec, phi - problem.phi_star, gnorm):
            return k
    return CENSORED


def _stopped(spec: StoppingSpec, gap: float, gnorm: float) -> bool:
    if spec.class_tag == "nonconvex":
        return gnorm <= spec.eps
    if spec.class_tag == "strongly_convex":
        return gap <= spec.eps
    return gap <= spec.eps or gnorm <= spec.eps1


def _state_at(trace: Trace, problem: ProblemInstance, k: int) -> tuple[float, float]:
    if k < len(trace):
        r = trace.records[k]
        return r.phi_curr, r.grad_true_norm
    last = trace.records[-1]
    x_final = last.x - last.alpha * last.g if last.success else last.x
    grad = problem.gradient(x_final)
    return problem.value(x_final), math.sqrt(grad.dot(grad))


def compute_path_report(trace: Trace, problem: ProblemInstance, spec: StoppingSpec,
                        eps_g: float, kappa: float, grid_index: int,
                        d: float) -> PathReport:
    """Classify every iteration and check the deterministic path lemmas.

    Iteration k is large when both adjacent steps alpha_k, alpha_{k+1} are
    at least the grid-snapped critical step alpha0 * gamma^grid_index, i.e.
    when the smaller of their exponents is below grid_index; a pair whose
    larger step equals the threshold is small."""
    n = len(trace)
    T = stopping_time(trace, problem, spec)
    censored = T == CENSORED

    I = np.array([classify_true(r, eps_g, kappa) for r in trace.records], dtype=bool)
    Theta = trace.successes()
    i = np.asarray(trace.exponents)
    U = np.minimum(i[:-1], i[1:]) < grid_index
    Z = np.array([
        progress_Z(spec.class_tag, r.phi_curr, problem.phi_star, spec.eps)
        for r in trace.records
    ])

    strict_horizon = n if censored else max(min(T, n) - 1, 0)
    l2, l3, l4, c1 = verify_path_lemmas(I, Theta, U, d, strict_horizon)
    return PathReport(
        seed=trace.seed, T_eps=T, censored=censored,
        true_flags=I, success_flags=Theta, large_flags=U, Z_sequence=Z,
        lemma2_ok=l2, lemma3_ok=l3, lemma4_ok=l4, corollary1_ok=c1,
    )


P_HAT_GRID = np.arange(0.55, 0.96, 0.05)


def verify_path_lemmas(I, Theta, U, d: float, horizon: int) -> tuple[bool, bool, bool, bool]:
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
    """
    U = np.asarray(U, dtype=float)
    I = np.asarray(I, dtype=float)
    Th = np.asarray(Theta, dtype=float)
    n = len(I)
    cum_us = np.cumsum(U * Th)              # large successful
    cum_uf = np.cumsum(U * (1 - Th))        # large unsuccessful
    cum_u = np.cumsum(U)
    cum_st = np.cumsum((1 - U) * I)         # small true
    cum_sf = np.cumsum((1 - U) * (1 - I))   # small false
    cum_i = np.cumsum(I)
    cum_good = np.cumsum(U * Th * I)

    tol = 1e-9
    lemma2 = bool(np.all(cum_us >= cum_uf - d - tol))
    corollary1 = bool(np.all(cum_us >= 0.5 * (cum_u - d) - tol))

    m = min(horizon, n)  # prefixes t = 1..m with t - 1 < horizon
    lemma3 = bool(np.all(cum_st[:m] <= cum_sf[:m] + tol))

    lemma4 = True
    t = np.arange(1, m + 1)
    for p_hat in P_HAT_GRID:
        bad = (cum_i[:m] >= p_hat * t - tol) & (
            cum_good[:m] < (p_hat - 0.5) * t - d / 2 - tol)
        if bad.any():
            lemma4 = False
            break
    return lemma2, lemma3, lemma4, corollary1


def recheck_success_flags(trace: Trace) -> bool:
    """Success flags recomputed from the recorded floats must match."""
    for r in trace.records:
        expect = armijo_check(r.f_plus, r.f_curr, r.alpha, trace.params.theta,
                              float(r.g @ r.g), r.eps_f)
        if expect != r.success:
            return False
    return True
