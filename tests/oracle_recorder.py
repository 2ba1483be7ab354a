"""What the line search hands its oracles, for tests only.

`Paths` keeps no points or gradients.  Oracles are plain callables, so a
test that needs them wraps its oracles in an `OracleRecorder` and runs the
engine on the wrappers, which the engine cannot tell from the oracles.
"""

import numpy as np


class OracleRecorder:
    """Wraps a zeroth- and a first-order oracle and keeps what the engine
    hands them.  Each iteration the engine queries the first-order oracle
    at x_k, which is handed X, alpha, `grad=` grad phi(x_k) and `phi=` and
    returns g_k, then the zeroth-order one at x_k and at x_k+; the second
    is handed `phi=` phi(x_k+).  A noise controller's queries come before
    the first-order one, so they are not taken for either.  `queries`
    counts the queries made of either oracle, a controller's included."""

    def __init__(self, zeroth, first):
        self._zeroth, self._first = zeroth, first
        self.queries = 0
        self._log = {"x": [], "g": [], "grad_true": [], "phi_plus": []}
        self._since_first = 0   # zeroth-order queries since the last first-order one

    def zeroth(self, X, stream, phi=None):
        self.queries += 1
        self._since_first += 1
        if self._since_first == 2:
            self._log["phi_plus"].append(np.array(phi, dtype=float))
        return self._zeroth(X, stream, phi=phi)

    def first(self, X, alpha, stream, grad=None, phi=None):
        self.queries += 1
        g = self._first(X, alpha, stream, grad=grad, phi=phi)
        for name, value in (("x", X), ("g", g), ("grad_true", grad)):
            self._log[name].append(np.array(value, dtype=float))
        self._since_first = 0
        return g

    def column(self, name: str, ran=None) -> np.ndarray:
        """x, g or grad_true as (n, T, dim), or phi_plus as (n, T): row r,
        iteration k.  A block whose rows leave it needs `ran`, the (n, T)
        mask of the trial-iterations run (the finite cells of
        `Paths.alpha`); a row holds NaN past its exit."""
        log = self._log[name]
        if ran is None:
            return np.stack(log, axis=1)
        out = np.full(ran.shape + log[0].shape[1:], np.nan)
        for k, value in enumerate(log):
            out[ran[:, k], k] = value
        return out
