"""Practical estimation of the function-noise level.

When the zeroth-order oracle's mean error is unknown, the acceptance-test
slack is set to a small multiple of the empirical standard deviation of
repeated oracle calls at the incumbent point, refreshed once per epoch.
A refresh is one stacked query: n_calls copies of each incumbent, which
are n_calls consecutive queries of that trial's EPS_EST key.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EstimatorConfig:
    n_calls: int = 30
    scale_factor: float = 0.2
    refresh_period: int = 50  # iterations per epoch

    def __post_init__(self):
        if self.n_calls < 2:
            raise ValueError("n_calls must be >= 2")
        if self.scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")


def estimate_eps_f(zeroth_oracle, x, config: EstimatorConfig, stream, phi=None):
    """scale_factor times the sample standard deviation (ddof 1) of
    `n_calls` independent oracle values at x.

    One stacked query of n_calls copies of x, consecutive queries of
    `stream`'s key: a point gives a float.  An (n, dim) stack over n keys
    gives n estimates from one query of n * n_calls rows.  `phi`, the exact
    values at x when the caller knows them, is handed to it.
    """
    m = config.n_calls
    X = np.atleast_2d(x)
    known = {} if phi is None else {"phi": np.repeat(phi, m)}
    values, _ = zeroth_oracle(np.repeat(X, m, axis=0), stream, **known)
    est = config.scale_factor * np.std(np.reshape(values, (len(X), m)), axis=1,
                                       ddof=1)
    return float(est[0]) if np.ndim(x) == 1 else est


class EpochEpsFController:
    """Per-epoch refresh hook for the line-search loop: re-estimates the
    slack at every epoch boundary, at the current incumbent points, from
    the stream it is handed.

    Called as ``controller(k, X, stream, phi)`` with the (n, dim)
    incumbents of a block, the block's EPS_EST stream and the exact values
    at X; returns the n slacks.  A point with a one-key stream gives a
    float."""

    def __init__(self, zeroth_oracle, config: EstimatorConfig, scale: float = 1.0):
        self.zeroth_oracle = zeroth_oracle
        self.config = config
        self.scale = scale
        self._current = 0.0
        self.history: list[tuple[int, object]] = []

    def __call__(self, k: int, x, stream, phi=None):
        if k % self.config.refresh_period == 0:
            est = estimate_eps_f(self.zeroth_oracle, x, self.config, stream, phi)
            self._current = self.scale * est
            self.history.append((k, self._current))
        return self._current
