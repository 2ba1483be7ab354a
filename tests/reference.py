"""A literal reference of the line search's loop and of the path
classifier, for tests only.

One trial, one iteration at a time, as the method reads: query g at
alpha = alpha0 * gamma^i, set x+ = x - alpha g, query f at x and at x+,
accept x+ when the Armijo test with additive slack 2 eps_f holds, then
move the exponent one grid step, down on success but not past the cap's,
up on failure.  Every query is a stack of one on a one-key stream per
purpose, and every exact value is evaluated afresh at its point, so
nothing is selected, buffered or carried from one iteration to the next
but x, i and the slack.  Row r of `linesearch.run_lockstep`'s `Paths`
must equal the reference run of trial seeds[r] bit for bit.

`reference_eps_lower_bound` is the accuracy floor as the whole eta grid
in turn, one scalar `theory._eps_min_at_eta` per point, the first lowest
winning; `theory.eps_lower_bound` must return its bits and raise its
errors.

`reference_verdicts` classifies one such row the same way: T_eps is the
first state that meets the criterion, and the flags and the running counts
of Lemmas 2-4 and Corollary 1 are taken one iteration at a time, over the
iterations before T_eps only.  Row r of `instrument.classify_paths`'s
`PathVerdicts` must equal it.
"""

import math

import numpy as np

from aloe_lab import rng as rngmod
from aloe_lab.instrument import CENSORED, P_HAT_GRID, PathVerdicts
from aloe_lab.linesearch import Paths, snap_to_step_grid
from aloe_lab.problems import row_dots
from aloe_lab.theory import (ETA_GRID, TheoremInapplicableError, _eps_min_at_eta,
                             eta_range)


def reference_run(problem, zeroth, first, params, seed, controller=None) -> Paths:
    """Trial `seed` for `params.max_iters` iterations, as a `Paths` of one
    row.  `controller`, when given, is called once per iteration, as
    ``controller(k, x, stream, phi)`` on the stack of one x_k, and its
    answer is the slack from then on."""
    grad_rng, curr_rng, plus_rng, est_rng = (
        rngmod.KeyedStream([seed], purpose) for purpose in
        (rngmod.GRAD, rngmod.F_CURR, rngmod.F_PLUS, rngmod.EPS_EST))
    i_cap = snap_to_step_grid(params.alpha_max, params.alpha0, params.gamma)[1]

    def phi(x):
        return problem.values(x[None])

    def grad(x):
        return problem.gradients(x[None])

    def norm(v):
        return math.sqrt(row_dots(v, v)[0])

    cols = {name: [] for name in tuple(Paths.__dataclass_fields__)[1:]}
    x = np.asarray(problem.x0, dtype=float)
    i, eps_f = 0, params.eps_f_input
    for k in range(params.max_iters):
        phi_x, grad_x = phi(x), grad(x)
        alpha = params.alpha0 * params.gamma ** i
        if controller is not None:
            eps_f = float(np.squeeze(controller(k, x[None], est_rng, phi_x)))
        g = first(x[None], alpha, grad_rng, grad=grad_x, phi=phi_x)
        x_plus = x - alpha * g[0]
        phi_plus = phi(x_plus)
        f_curr = zeroth(x[None], curr_rng, phi=phi_x)[0]
        f_plus = zeroth(x_plus[None], plus_rng, phi=phi_plus)[0]
        g_sq = row_dots(g, g)[0]
        success = f_plus <= f_curr - alpha * params.theta * g_sq + 2 * eps_f
        for name, value in (
                ("exponents", i), ("alpha", alpha), ("success", success),
                ("f_curr", f_curr), ("f_plus", f_plus),
                ("e_curr", abs(f_curr - phi_x[0])),
                ("e_plus", abs(f_plus - phi_plus[0])), ("eps_f", eps_f),
                ("g_norm", math.sqrt(g_sq)), ("grad_error", norm(g - grad_x)),
                ("phi", phi_x[0]), ("grad_norm", norm(grad_x))):
            cols[name].append(value)
        if success:
            x = x_plus
            i = max(i - 1, i_cap)
        else:
            i += 1
    cols["exponents"].append(i)
    cols["phi"].append(phi(x)[0])
    cols["grad_norm"].append(norm(grad(x)))
    return Paths(seeds=(seed,), **{
        name: np.array([values], dtype=int if name == "exponents"
                       else bool if name == "success" else float)
        for name, values in cols.items()})


def reference_verdicts(path: Paths, phi_star, spec, eps_g, kappa, grid_index,
                       d) -> PathVerdicts:
    """The verdicts of a one-row `path`, as a `PathVerdicts` of one row.

    Iteration k counts when no state x_0..x_k met the criterion.  It is
    true when ||g_k - grad phi(x_k)|| <= max{eps_g, kappa alpha_k ||g_k||}
    and |f_k - phi(x_k)| + |f_k+ - phi(x_k+)| <= 2 eps_f, and large when
    both steps alpha_k and alpha_{k+1} are at least the critical grid step
    alpha0 gamma^grid_index and one of them is above it.  With t counted
    iterations, Lemma 2 and Corollary 1 hold at every t, Lemmas 3 and 4 at
    every t before the stop (every t of a censored path)."""
    T = len(path.alpha[0])

    def stopped(k):
        gap, gnorm = path.phi[0, k] - phi_star, path.grad_norm[0, k]
        if spec.class_tag == "nonconvex":
            return gnorm <= spec.eps
        if spec.class_tag == "strongly_convex":
            return gap <= spec.eps
        return gap <= spec.eps or gnorm <= spec.eps1

    T_eps = next((k for k in range(T + 1) if stopped(k)), CENSORED)
    counted = T if T_eps == CENSORED else T_eps
    tol = 1e-9
    true_flags, large_flags = [False] * T, [False] * T
    n = dict.fromkeys(("true", "success", "large_s", "large_f", "large",
                       "small_t", "small_f", "good"), 0)
    ok = dict.fromkeys(("lemma2", "lemma3", "lemma4", "corollary1"), True)
    for t in range(1, counted + 1):
        k = t - 1
        i, i_next = path.exponents[0, k], path.exponents[0, k + 1]
        true = bool(path.grad_error[0, k] <= max(
            eps_g, kappa * path.alpha[0, k] * path.g_norm[0, k])
            and path.e_curr[0, k] + path.e_plus[0, k] <= 2 * path.eps_f[0, k])
        large = i <= grid_index and i_next <= grid_index and min(i, i_next) < grid_index
        success = bool(path.success[0, k])
        true_flags[k], large_flags[k] = true, large
        n["true"] += true
        n["success"] += success
        if large:
            n["large"] += 1
            n["large_s" if success else "large_f"] += 1
            n["good"] += success and true
        else:
            n["small_t" if true else "small_f"] += 1
        ok["lemma2"] &= n["large_s"] >= n["large_f"] - d - tol
        ok["corollary1"] &= n["large_s"] >= 0.5 * (n["large"] - d) - tol
        if T_eps == CENSORED or t < T_eps:
            ok["lemma3"] &= not n["small_t"] > n["small_f"] + tol
            for p_hat in P_HAT_GRID:
                ok["lemma4"] &= not (n["true"] >= p_hat * t - tol and
                                     n["good"] < (p_hat - 0.5) * t - d / 2 - tol)
    frac = {key: n[key] / counted if counted else math.nan
            for key in ("true", "success")}
    return PathVerdicts(
        T_eps=np.array([T_eps]), true_flags=np.array([true_flags]),
        large_flags=np.array([large_flags]),
        frac_true=np.array([frac["true"]]),
        frac_success=np.array([frac["success"]]),
        **{f"{name}_ok": np.array([v]) for name, v in ok.items()})


def reference_eps_lower_bound(class_tag, theta, L, kappa, alpha_max, eps_f,
                              eps_g, p, beta=0.0, D=None):
    """(eps_min, eta_star) over the ETA_GRID interior points of eta's
    range, every point by the scalar formula."""
    top = eta_range(theta)
    etas = np.linspace(top / (ETA_GRID + 1), top * ETA_GRID / (ETA_GRID + 1),
                       ETA_GRID)
    best, best_eta = math.inf, None
    for eta in etas:
        try:
            val = _eps_min_at_eta(class_tag, float(eta), theta, L, kappa,
                                  alpha_max, eps_f, eps_g, p, beta, D)
        except ValueError:
            continue
        if val < best:
            best, best_eta = val, float(eta)
    if best_eta is None:
        raise TheoremInapplicableError("empty feasible eta range")
    return best, best_eta
