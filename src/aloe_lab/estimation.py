"""Practical estimation of the function-noise level.

When the zeroth-order oracle's mean error is unknown, the acceptance-test
slack is set to a small multiple of the empirical standard deviation of
repeated oracle calls at the incumbent point, refreshed once per epoch.
Incumbents come as an (n, dim) stack, one row per trial, and a refresh is
one stacked query: n_calls copies of each row, which are n_calls
consecutive queries of that trial's EPS_EST key.  One point is a stack of
one.
"""

from dataclasses import dataclass

import numpy as np

from .problems import check_settings


@dataclass(frozen=True)
class EstimatorConfig:
    n_calls: int = 30
    scale_factor: float = 0.2
    refresh_period: int = 50  # iterations per epoch

    def __post_init__(self):
        check_settings(
            (self.n_calls < 2, "n_calls must be >= 2"),
            (self.scale_factor <= 0, "scale_factor must be positive"),
            (self.refresh_period < 1, "refresh_period must be >= 1"))


def estimate_eps_f(zeroth_oracle, X, config: EstimatorConfig, stream,
                   phi=None) -> np.ndarray:
    """Per row of an (n, dim) stack X, scale_factor times the sample
    standard deviation (ddof 1) of `n_calls` independent oracle values at
    that row: (n,).

    One stacked query of n * n_calls rows, n_calls copies of each row of X,
    which are n_calls consecutive queries of that row's key of `stream`.
    `phi`, the exact values at X when the caller knows them, is handed to
    it.  The oracle rejects an X of any other shape.
    """
    m = config.n_calls
    known = {} if phi is None else {"phi": np.repeat(phi, m)}
    values = zeroth_oracle(np.repeat(X, m, axis=0), stream, **known)
    return config.scale_factor * np.std(values.reshape(-1, m), axis=1, ddof=1)


class EpochEpsFController:
    """Per-epoch refresh hook for the line-search loop: re-estimates the
    slack at every epoch boundary, at the current incumbent points, from
    the stream it is handed.

    Called as ``controller(k, X, stream, phi)`` with the (n, dim)
    incumbents of a block, the block's EPS_EST stream and the exact values
    at X; returns the n slacks."""

    def __init__(self, zeroth_oracle, config: EstimatorConfig):
        self.zeroth_oracle = zeroth_oracle
        self.config = config
        self._current = 0.0
        self.history: list[tuple[int, np.ndarray]] = []

    def __call__(self, k: int, X, stream, phi=None):
        if k % self.config.refresh_period == 0:
            self._current = estimate_eps_f(self.zeroth_oracle, X, self.config,
                                           stream, phi)
            self.history.append((k, self._current))
        return self._current
