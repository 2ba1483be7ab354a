"""A linear objective, for tests only: the problem fixtures of the library
are all bounded below."""

from functools import partial

import numpy as np

from aloe_lab.problems import ProblemInstance


def _linear_value(c, X):
    return (c @ X[:, :, None])[:, 0]


def _linear_grad(c, X):
    return np.broadcast_to(c, X.shape)


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
        x0=np.zeros(c.size),
    )
