"""A literal reference of the line search's loop, for tests only.

One trial, one iteration at a time, as the method reads: query g at
alpha = alpha0 * gamma^i, set x+ = x - alpha g, query f at x and at x+,
accept x+ when the Armijo test with additive slack 2 eps_f holds, then
move the exponent one grid step, down on success but not past the cap's,
up on failure.  Every query is a stack of one on a one-key stream per
purpose, and every exact value is evaluated afresh at its point, so
nothing is selected, buffered or carried from one iteration to the next
but x, i and the slack.  Row r of `linesearch.run_lockstep`'s `Paths`
must equal the reference run of trial seeds[r] bit for bit.
"""

import math

import numpy as np

from aloe_lab import rng as rngmod
from aloe_lab.linesearch import Paths, snap_to_step_grid
from aloe_lab.problems import row_dots


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
